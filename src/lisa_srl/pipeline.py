"""End-to-end runs: training with best-dev checkpointing, prediction,
evaluation, and synthetic corpus generation. Everything here is
deterministic under a fixed seed: data order, parameter updates, log
lines and output files.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, require_output, require_paths
from .corpus import (
    AnnotatedSentence,
    TransitionTable,
    build_joint_pos_pred_space,
    build_role_space,
    estimate_transitions,
    read_conll,
    read_conll_counted,
    read_heads_file,
    vocabulary,
    write_conll,
    write_heads_file,
)
from .embed import (
    gen_contextual_layers,
    read_contextual,
    read_vec_file,
    write_contextual,
    write_vec_file,
)
from .encoder import ParseSource
from .errors import AlignmentError, ConfigError, NonFiniteError
from .evaluation import MetricsReport, evaluate_corpus, export_metrics, srl_prf
from .heads import LossBundle
from .model import EMBED_CONTEXTUAL, EMBED_STATIC, LisaModel
from .synth import gen_splits, pretrained_vectors
from .numerics import Tape

LOG_FLOAT = "%.17g"
CTX_LAYERS = 3  # layers in each stack of a `.ctxl` file that gen_synth writes


# ---------------------------------------------------------------------------
# Split loading


@dataclass
class SplitData:
    """One corpus file plus its optional sidecar inputs."""

    corpus: list[AnnotatedSentence]
    heads: list[list[int]] | None = None
    ctx: list[np.ndarray] | None = None  # one [L, T, d] stack per sentence

    def forward_kwargs(self, i: int) -> dict:
        kw: dict = {}
        if self.heads is not None:
            kw["external_heads"] = self.heads[i]
        if self.ctx is not None:
            kw["ctx_layers"] = self.ctx[i]
        return kw


def _check_alignment(corpus: list[AnnotatedSentence], counts: list[int], path: str) -> None:
    """The sidecar at `path` holds one record per sentence, in corpus order;
    `counts` are the records' token counts."""
    if len(counts) != len(corpus):
        raise AlignmentError(f"{path}: {len(counts)} sentences for {len(corpus)} in the corpus")
    for i, (sent, n) in enumerate(zip(corpus, counts)):
        if n != len(sent):
            raise AlignmentError(
                f"{path}: sentence {i} has {len(sent)} tokens but {n} in this file"
            )


def _check_ctxl_shape(data: SplitData, path: str, n_layers: int, dim: int) -> None:
    """The `.ctxl` stacks read from `path` have the shape the model is built on."""
    have_layers, _, have_dim = data.ctx[0].shape
    if (have_layers, have_dim) != (n_layers, dim):
        raise ConfigError(f"{path}: holds {have_layers} layers of width {have_dim},"
                          f" the model takes {n_layers} layers of width {dim}")


def read_split(config: RunConfig, prefix: str) -> list[AnnotatedSentence]:
    """Read `<prefix>_path`, which must hold a sentence: a metric over none reads 0."""
    path = getattr(config, f"{prefix}_path")
    if not (corpus := read_conll(path)):
        raise ConfigError(f"{prefix}_path {path} holds no sentences")
    return corpus


def load_split(config: RunConfig, prefix: str) -> SplitData:
    """Read `<prefix>_path` and whichever sidecars the config calls for."""
    corpus = read_split(config, prefix)
    data = SplitData(corpus)
    if config.parse_source == ParseSource.EXTERNAL.value:
        heads_path = getattr(config, f"{prefix}_heads_path")
        require_paths(config, f"{prefix}_heads_path")
        data.heads = read_heads_file(heads_path)
        _check_alignment(corpus, [len(h) for h in data.heads], heads_path)
        for i, heads in enumerate(data.heads):
            for h in heads:
                if not 0 <= h < len(heads):
                    raise AlignmentError(
                        f"{heads_path}: sentence {i} has head index {h} outside [0, {len(heads)})"
                    )
    if config.embedding == EMBED_CONTEXTUAL:
        ctxl_path = getattr(config, f"{prefix}_ctxl_path")
        require_paths(config, f"{prefix}_ctxl_path")
        data.ctx = read_contextual(ctxl_path)
        _check_alignment(corpus, [a.shape[1] for a in data.ctx], ctxl_path)
    return data


# ---------------------------------------------------------------------------
# Training


@dataclass
class TrainResult:
    model: LisaModel
    transitions: TransitionTable
    log_lines: list[str]
    best_epoch: int
    best_dev_f1: float
    steps: int


def _predict_corpus(
    model: LisaModel, data: SplitData, transitions: TransitionTable, source: ParseSource,
    harden: bool = False,
) -> list[AnnotatedSentence]:
    return [
        model.predict_sentence(
            sent, transitions, source=source, harden=harden, **data.forward_kwargs(i)
        ).sentence
        for i, sent in enumerate(data.corpus)
    ]


def sgd_step(model: LisaModel, sentence: AnnotatedSentence, **inputs) -> tuple[LossBundle, float]:
    """One SGD step at `model.config.lr`, the gradient clipped to norm `clip_norm`
    (0 disables); returns the loss and the pre-clip norm. A non-finite loss or
    norm raises before any parameter moves. `inputs` are `forward`'s keywords."""
    tape = Tape()
    bundle = model.loss(tape, sentence, **inputs)
    if not np.isfinite(bundle.total):
        raise NonFiniteError("loss diverged")
    model.reset_gradients()
    tape.backward(bundle.srl, bundle.parse, bundle.pos_pred)
    reached = [p for p in model.parameters() if p.grad is not None]
    squares = 0.0  # left to right: `sum` of floats compensates from Python 3.12 on
    for p in reached:
        squares += float((p.grad ** 2).sum())
    norm = np.sqrt(squares)
    if not np.isfinite(norm):
        raise NonFiniteError("gradient diverged")
    scale = model.config.lr
    if 0 < model.config.clip_norm < norm:
        scale *= model.config.clip_norm / norm
    for p in reached:
        p.data -= scale * p.grad
    return bundle, norm


def train(config: RunConfig, emit: Callable[[str], None] | None = None) -> TrainResult:
    """SGD over single sentences, reshuffled each epoch; keeps the best-dev checkpoint.

    A non-finite loss or gradient norm aborts the run; whatever checkpoint
    was best so far stays on disk untouched.
    """
    config.validate()
    require_paths(config, "train_path", "dev_path")
    if config.embedding == EMBED_STATIC:
        require_paths(config, "pretrained_path")
    require_output(config, "checkpoint_out")
    train_data = load_split(config, "train")
    dev_data = load_split(config, "dev")
    if config.embedding == EMBED_CONTEXTUAL:  # the model is built on train's shape
        _check_ctxl_shape(dev_data, config.dev_ctxl_path, *train_data.ctx[0].shape[::2])  # L and d
    joint = build_joint_pos_pred_space(train_data.corpus)
    roles = build_role_space(train_data.corpus)
    transitions = estimate_transitions(train_data.corpus, roles)
    frozen = (read_vec_file(config.pretrained_path) if config.embedding == EMBED_STATIC
              else train_data.ctx[0])
    model = LisaModel.build(config, joint, roles, vocabulary(train_data.corpus), frozen)

    source, harden = config.source()
    # mixed injection: a `1 - gold_mix` share of sentences sees the model's own parse
    mixed = source is ParseSource.GOLD and config.gold_mix < 1.0
    rng = np.random.default_rng(config.seed)
    n = len(train_data.corpus)
    logs: list[str] = []
    best_f1, best_epoch, steps = -1.0, -1, 0

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        sums = np.zeros(4)  # the epoch line's loss, srl, parse and pos
        for i in order:
            own = mixed and rng.random() >= config.gold_mix
            try:
                bundle, _ = sgd_step(
                    model, train_data.corpus[i], source=ParseSource.SELF if own else source,
                    harden=harden, **train_data.forward_kwargs(int(i)),
                )
            except NonFiniteError as err:
                raise NonFiniteError(f"{err} at epoch {epoch}, sentence {int(i)}") from None
            steps += 1
            sums += (bundle.total, bundle.srl.item(), bundle.parse.item(), bundle.pos_pred.item())

        dev_pred = _predict_corpus(model, dev_data, transitions, source, harden)
        dev_f1 = srl_prf(dev_data.corpus, dev_pred)[2]
        loss, srl, parse, pos = sums / n
        line = (f"epoch={epoch} loss={LOG_FLOAT % loss} srl={LOG_FLOAT % srl}"
                f" parse={LOG_FLOAT % parse} pos={LOG_FLOAT % pos} dev_f1={LOG_FLOAT % dev_f1}")
        logs.append(line)
        if emit:
            emit(line)
        if dev_f1 > best_f1:
            best_f1, best_epoch = dev_f1, epoch
            if config.checkpoint_out:
                save_checkpoint(config.checkpoint_out, model, steps, transitions)
        if 0.0 <= config.early_stop_f1 <= dev_f1:
            break

    return TrainResult(model, transitions, logs, best_epoch, best_f1, steps)


# ---------------------------------------------------------------------------
# Prediction and evaluation


def predict(config: RunConfig) -> list[AnnotatedSentence]:
    """Decode the test corpus with a saved checkpoint; source may differ
    from the one used in training, with parameters untouched."""
    require_paths(config, "checkpoint_in", "test_path")
    if not config.predictions_path:
        raise ConfigError("predictions_path is required for predict")
    require_output(config, "predictions_path")
    loaded = load_checkpoint(config.checkpoint_in)
    # the checkpoint decides the model; the command decides the source
    saved = loaded.model.config
    config = replace(config, variant=saved.variant, embedding=saved.embedding)
    config.validate()
    data = load_split(config, "test")
    if data.ctx is not None:
        model = loaded.model
        _check_ctxl_shape(data, config.test_ctxl_path, model.mix.n_layers, model.width)
    predictions = _predict_corpus(loaded.model, data, loaded.transitions, *config.source())
    write_conll(config.predictions_path, predictions)
    return predictions


def evaluate(config: RunConfig) -> tuple[MetricsReport, list[str]]:
    """Score a prediction file against gold; returns the report and the
    fixed-format summary lines."""
    require_paths(config, "test_path", "predictions_path")
    require_output(config, "metrics_path")
    gold = read_split(config, "test")
    predicted, repairs = read_conll_counted(config.predictions_path, repair=True)
    report = evaluate_corpus(gold, predicted, bio_repairs=repairs)
    if config.metrics_path:
        export_metrics(report, config.metrics_path)
    lines = [
        "srl_precision=%s srl_recall=%s srl_f1=%s"
        % tuple(LOG_FLOAT % v for v in report.srl),
        "predicate_precision=%s predicate_recall=%s predicate_f1=%s"
        % tuple(LOG_FLOAT % v for v in report.predicate),
        f"uas={LOG_FLOAT % report.uas}",
    ]
    for b in report.buckets:
        lines.append(
            f"bucket_{b.label()} f1={LOG_FLOAT % b.f1} support={b.support}"
        )
    lines.append(f"bio_repairs={report.bio_repairs}")
    return report, lines


# ---------------------------------------------------------------------------
# Synthetic data generation


@dataclass
class GenSynthParams:
    out_dir: str
    n_train: int = 200
    n_dev: int = 50
    n_test: int = 50
    seed: int = 0
    dim: int = 64
    heads_error_rate: float | None = None
    with_contextual: bool = False


def _corrupt_heads(
    corpus: list[AnnotatedSentence], rate: float, rng: np.random.Generator
) -> list[list[int]]:
    """Copy gold heads, rewriting a `rate` fraction of tokens to wrong heads:
    one draw k picks the k-th of the t - 1 heads other than the gold one."""
    out = []
    for sent in corpus:
        heads = list(sent.heads)
        t = len(heads)
        for i in range(t):
            if t > 1 and rng.random() < rate:
                k = int(rng.integers(t - 1))
                heads[i] = k if k < heads[i] else k + 1
        out.append(heads)
    return out


def gen_synth(params: GenSynthParams) -> list[str]:
    """Write the split corpora plus pretrained vectors and optional
    sidecars; returns the written paths in a fixed order. Bad parameters
    are a ConfigError before anything is written."""
    for name in ("n_train", "n_dev", "n_test", "dim"):
        if getattr(params, name) < 1:
            raise ConfigError(f"{name} must be >= 1, got {getattr(params, name)}")
    if params.dim % 2:  # positional encodings need an even model width
        raise ConfigError(f"dim must be even, got {params.dim}")
    if params.seed < 0:
        raise ConfigError(f"seed cannot be negative, got {params.seed}")
    rate = params.heads_error_rate
    if rate is not None and not 0.0 <= rate <= 1.0:
        raise ConfigError(f"heads_error_rate must lie in [0, 1], got {rate}")
    out_dir = Path(params.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    splits = gen_splits(params.n_train, params.n_dev, params.n_test, params.seed)
    written: list[str] = []

    for name, corpus in splits.items():
        path = out_dir / f"{name}.conll"
        write_conll(path, corpus)
        written.append(str(path))

    vec_path = out_dir / "pretrained.vec"
    write_vec_file(vec_path, pretrained_vectors(params.dim, params.seed))
    written.append(str(vec_path))

    if params.heads_error_rate is not None:
        rng = np.random.default_rng([params.seed, 104729])
        for name, corpus in splits.items():
            path = out_dir / f"{name}.heads"
            write_heads_file(path, _corrupt_heads(corpus, params.heads_error_rate, rng))
            written.append(str(path))

    if params.with_contextual:
        for name, corpus in splits.items():
            stacks = gen_contextual_layers(corpus, CTX_LAYERS, params.dim, params.seed)
            path = out_dir / f"{name}.ctxl"
            write_contextual(path, stacks)
            written.append(str(path))

    return written
