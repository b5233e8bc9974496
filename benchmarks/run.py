"""End-to-end benchmark for lisa_srl.

    python3 benchmarks/run.py --workload {decode,decode-long} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root. The package is imported from `src/`; the
benchmark exits non-zero without a result when it is missing.

Every run generates its corpus with `gen_synth` from `--seed` and has two
measured phases that together last about S seconds, so every run reports
every end-to-end metric:

    train phase   one pipeline.train() call with the LISA configuration on
                  the seed's corpus and a fixed budget of TRAIN_EPOCHS
    decode phase  predict_sentence under four parse sources (self, hardened
                  self, external, gold), interleaved sentence by sentence,
                  after an untimed warm-up pass, for the rest of the S
                  seconds (at least S/4)

Both are closed loops: a call starts when the previous one returns. The
workloads differ in the split the decode phase runs on: `decode` uses the
in-domain test split (short sentences, about one predicate each) and
`decode-long` the shifted test split (twice as long, two predicates each,
unseen content words), where per-predicate scoring and T^2 attention weigh
most. Set-up (corpus generation, reads, checkpoint load) is repeated once
before training and then every SETUP_EVERY decode steps. Times are reported
in reference seconds: each timed call is paired with a fixed piece of
reference work run right after it (see reference_ns), which cancels the
machine's own drift.

The decode checkpoint is trained for CKPT_EPOCHS epochs on the corpus of
seed CKPT_CORPUS_SEED, once per source tree, and cached under
`.bench_build/`, keyed by a hash of `src/` and the training settings. A
fixed, well-trained checkpoint keeps the decode figures comparable across
seeds; the run refuses to time it unless its predicate F1 on the run's
in-domain test split reaches GUARD_PREDICATE_F1, because an undertrained
checkpoint predicts fewer frames and so decodes faster for the wrong
reason.

`--trace 0` prints the end-to-end metrics. `--trace 1` runs the same work
twice in one process, first untraced and then with spans on the package's
public functions (see spans.py), checks that both passes wrote
byte-identical epoch lines and prediction files, and prints the per-layer
metrics plus the tracing overhead. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. See METRICS.md
for what each metric means and which layer should move it.
"""

from __future__ import annotations

import os
import sys

# BLAS threads must be pinned before numpy loads; string hashing is fixed so
# that dict and set layouts, and with them Python's speed, repeat per run
_PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in _PINNED.items()):
    os.environ.update(_PINNED)
    os.execv(sys.executable, [sys.executable] + sys.argv)

import argparse
import dataclasses
import hashlib
import json
import math
import platform
import re
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD_DIR = ROOT / ".bench_build" / "lisa_srl"

if not (SRC / "lisa_srl" / "__init__.py").is_file():
    sys.exit(f"error: no lisa_srl package under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np

import lisa_srl
from lisa_srl import checkpoint, corpus, encoder, evaluation, model, numerics, pipeline
from lisa_srl.encoder import ParseSource
from spans import STEP_SELF, Spans

N_TRAIN, N_DEV, N_TEST = 200, 50, 200
DIM = 64
HEADS_ERROR_RATE = 0.15
TRAIN_EPOCHS = 16
CKPT_EPOCHS = 20
CKPT_CORPUS_SEED = 0
GUARD_PREDICATE_F1 = 0.98
SETUP_EVERY = 150
REF_PER_EPOCH = 5
REF_NOMINAL_NS = 400_000
SOURCES = ("self", "hardened", "external", "gold")
SPLITS = ("train", "dev", "test", "test-shifted")

# workload -> the split its decode phase runs on
WORKLOADS = {"decode": "test", "decode-long": "test-shifted"}

EPOCH_LINE = re.compile(
    r"epoch=(\d+) loss=(\S+) srl=(\S+) parse=(\S+) pos=(\S+) dev_f1=(\S+)"
)


class GuardError(Exception):
    """The decode checkpoint is not good enough to time."""


# ---------------------------------------------------------------------------
# Inputs


def synth_params(out_dir: Path, seed: int) -> pipeline.GenSynthParams:
    return pipeline.GenSynthParams(
        out_dir=str(out_dir), n_train=N_TRAIN, n_dev=N_DEV, n_test=N_TEST,
        seed=seed, dim=DIM, heads_error_rate=HEADS_ERROR_RATE,
    )


def train_config(corpus_dir: Path, seed: int, epochs: int, checkpoint_out: Path):
    """The LISA configuration: static embedding, gold parse mixed in 25% of
    training sentences, fixed epoch budget, no early stop."""
    return lisa_srl.RunConfig(
        embedding="static", variant="lisa", parse_source="gold", gold_mix=0.25,
        epochs=epochs, early_stop_f1=-1.0, seed=seed,
        train_path=str(corpus_dir / "train.conll"),
        dev_path=str(corpus_dir / "dev.conll"),
        pretrained_path=str(corpus_dir / "pretrained.vec"),
        checkpoint_out=str(checkpoint_out),
    )


def decode_checkpoint() -> Path:
    """Train the decode checkpoint unless this source tree has one cached."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    h.update(repr((N_TRAIN, N_DEV, DIM, CKPT_EPOCHS, CKPT_CORPUS_SEED)).encode())
    path = BUILD_DIR / f"decode-{h.hexdigest()[:16]}.ckpt"
    if path.exists():
        return path
    work = BUILD_DIR / f"build-{os.getpid()}"
    try:
        pipeline.gen_synth(synth_params(work, CKPT_CORPUS_SEED))
        t0 = time.perf_counter()
        result = pipeline.train(
            train_config(work, CKPT_CORPUS_SEED, CKPT_EPOCHS, work / "decode.ckpt")
        )
        print(f"built decode checkpoint in {time.perf_counter() - t0:.1f} s:"
              f" best dev F1 {result.best_dev_f1:.4f} at epoch {result.best_epoch}")
        os.replace(work / "decode.ckpt", path)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return path


# ---------------------------------------------------------------------------
# Machine speed

_REF_X = np.random.default_rng(0).normal(size=(8, DIM))
_REF_W = np.random.default_rng(1).normal(size=(DIM, DIM))


def reference_ns() -> int:
    """Time a fixed piece of work shaped like the program's own: Python
    calls around small numpy ops on [T, 64] rows.

    The machine this benchmark was sized on (2 shared vCPUs) runs 1.5-1.9x
    faster or slower from one second, and one quarter hour, to the next, as
    other tenants load it. Every timed call is therefore paired with this
    work, run right after it, and reported in reference seconds: measured
    time * REF_NOMINAL_NS / reference time. On a machine that runs the
    reference work in REF_NOMINAL_NS, reference seconds are seconds.
    """
    t0 = time.perf_counter_ns()
    for i in range(30):
        y = _REF_X @ _REF_W
        e = np.exp(y - y.max(axis=1, keepdims=True))
        float((e / e.sum(axis=1, keepdims=True))[0, i % 8])
        len({"step": i, "rows": [i, i + 1]})
    return time.perf_counter_ns() - t0


# ---------------------------------------------------------------------------
# Output checks


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def record(self, problem: str | None) -> bool:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if self.failed <= 5:
                print(f"check failed: {problem}", file=sys.stderr)
        return problem is None

    def call(self, what: str, fn, *args, **kwargs):
        """Run one operation; a raise counts as a failed operation."""
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.record(f"{what} raised:\n{traceback.format_exc()}")
            return None


def epoch_line_problem(lines: list[str], epochs: int) -> str | None:
    if len(lines) != epochs:
        return f"{len(lines)} epoch lines for {epochs} epochs"
    for expected, line in enumerate(lines, 1):
        m = EPOCH_LINE.fullmatch(line)
        if m is None or int(m.group(1)) != expected:
            return f"epoch line does not parse: {line!r}"
        try:
            values = [float(v) for v in m.groups()[1:]]
        except ValueError:
            return f"epoch line does not parse: {line!r}"
        if not all(math.isfinite(v) for v in values):
            return f"non-finite value in {line!r}"
    return None


def prediction_problem(source: str, sent, heads, pred) -> str | None:
    for k, tags in pred.frames.items():
        if not corpus.is_valid_bio(tags):
            return f"{source}: invalid BIO frame at predicate {k}: {tags}"
    if source == "gold" and evaluation.uas(sent.heads, pred.heads) != 1.0:
        return f"gold decode consumed heads {pred.heads}, gold is {list(sent.heads)}"
    if source == "external" and pred.heads != list(heads):
        return f"external decode consumed heads {pred.heads}, sidecar has {heads}"
    return None


# ---------------------------------------------------------------------------
# One pass of a workload


@dataclass
class Paired:
    """Times of one kind of call, each with the time of the reference work
    run next to it."""

    raw_s: list[float] = field(default_factory=list)
    ref_ns: list[float] = field(default_factory=list)

    def add(self, raw_s: float, ref_ns: float) -> None:
        self.raw_s.append(raw_s)
        self.ref_ns.append(ref_ns)

    def total_s(self) -> float:
        """Their total in reference seconds (see reference_ns)."""
        return sum(self.raw_s) * REF_NOMINAL_NS * len(self.ref_ns) / sum(self.ref_ns)

    def each_s(self) -> list[float]:
        return [t * REF_NOMINAL_NS / r for t, r in zip(self.raw_s, self.ref_ns)]


@dataclass
class PassResult:
    wall_s: float = 0.0
    ref_ns: list[int] = field(default_factory=list)  # every reference sample
    setup: Paired = field(default_factory=Paired)
    epochs: Paired = field(default_factory=Paired)
    dev_f1: float = float("nan")
    epoch_lines: list[str] = field(default_factory=list)
    decode: dict[str, Paired] = field(default_factory=lambda: {s: Paired() for s in SOURCES})
    decode_steps: int = 0
    quality: dict[str, float] = field(default_factory=dict)
    predictions: dict[str, bytes] = field(default_factory=dict)
    split_stats: dict[str, dict] = field(default_factory=dict)


def set_up(corpus_dir: Path, seed: int, split: str, ckpt: Path):
    """Generate the corpus, read every split and the sidecar, load the
    decode checkpoint."""
    pipeline.gen_synth(synth_params(corpus_dir, seed))
    data = {name: pipeline.read_conll(corpus_dir / f"{name}.conll") for name in SPLITS}
    heads = pipeline.read_heads_file(corpus_dir / f"{split}.heads")
    return data, heads, checkpoint.load_checkpoint(ckpt)


def decode_call(loaded, sent, source: str, heads):
    kwargs = {
        "self": {"source": ParseSource.SELF, "harden": False},
        "hardened": {"source": ParseSource.SELF, "harden": True},
        "external": {"source": ParseSource.EXTERNAL, "external_heads": heads},
        "gold": {"source": ParseSource.GOLD},
    }[source]
    return loaded.model.predict_sentence(sent, loaded.transitions, **kwargs)


def run_pass(workload: str, seed: int, seconds: float, work: Path, ckpt: Path,
             tally: Tally, replay_steps: int | None = None) -> PassResult:
    """Set up, train, guard, warm up and decode. With `replay_steps`, decode
    exactly that many steps instead of running against the clock."""
    split = WORKLOADS[workload]
    res = PassResult()
    t_pass = time.perf_counter()

    def reference() -> int:
        res.ref_ns.append(reference_ns())
        return res.ref_ns[-1]

    corpus_dir = work / "corpus"
    t0 = time.perf_counter()
    data, heads, loaded = set_up(corpus_dir, seed, split, ckpt)
    res.setup.add(time.perf_counter() - t0, reference())
    for name, sents in data.items():
        res.split_stats[name] = {
            "sentences": len(sents),
            "mean_tokens": statistics.fmean(len(s) for s in sents),
            "mean_predicates": statistics.fmean(len(s.predicate_indices) for s in sents),
        }

    # train phase: one train() call with a fixed epoch budget; each epoch is
    # paired with the reference work run before and after it
    t_measure = time.perf_counter()
    refs = [statistics.fmean(reference() for _ in range(REF_PER_EPOCH))]
    epochs = Paired()
    t_epoch = time.perf_counter()

    def emit(line: str) -> None:
        nonlocal t_epoch
        elapsed = time.perf_counter() - t_epoch
        res.epoch_lines.append(line)
        refs.append(statistics.fmean(reference() for _ in range(REF_PER_EPOCH)))
        epochs.add(elapsed, (refs[-2] + refs[-1]) / 2)
        t_epoch = time.perf_counter()

    cfg = train_config(corpus_dir, seed, TRAIN_EPOCHS, work / "train.ckpt")
    result = tally.call("train", pipeline.train, cfg, emit)
    if result is not None:
        if tally.record(epoch_line_problem(res.epoch_lines, TRAIN_EPOCHS)):
            res.epochs = epochs
        res.dev_f1 = result.best_dev_f1

    # guard: the checkpoint must find the predicates of the in-domain test
    guard = [tally.call("self decode", decode_call, loaded, s, "self", None)
             for s in data["test"]]
    if None in guard:
        raise GuardError("the decode checkpoint raised on the in-domain test split")
    pred_f1 = evaluation.predicate_prf(data["test"], [p.sentence for p in guard])[2]
    if pred_f1 < GUARD_PREDICATE_F1:
        raise GuardError(
            f"decode checkpoint predicate F1 {pred_f1:.4f} on the in-domain test"
            f" split is below {GUARD_PREDICATE_F1}"
        )

    # warm-up pass: untimed, gives the reference outputs and quality figures
    sents = data[split]
    warm: dict[str, list] = {s: [] for s in SOURCES}
    for i, sent in enumerate(sents):
        for source in SOURCES:
            pred = tally.call(f"{source} decode", decode_call, loaded, sent, source, heads[i])
            if pred is not None and tally.record(prediction_problem(source, sent, heads[i], pred)):
                warm[source].append(pred.sentence)
            else:
                warm[source].append(None)
    for source in SOURCES:
        if None not in warm[source]:
            path = work / f"pred-{source}.conll"
            corpus.write_conll(path, warm[source])
            res.predictions[source] = path.read_bytes()
    if None not in warm["self"] and None not in warm["gold"]:
        res.quality = {
            "srl_f1_self": evaluation.srl_prf(sents, warm["self"])[2],
            "srl_f1_gold": evaluation.srl_prf(sents, warm["gold"])[2],
            "uas_self": evaluation.corpus_uas(sents, warm["self"]),
            "predicate_f1": evaluation.predicate_prf(sents, warm["self"])[2],
            "decode_frames_per_sent": statistics.fmean(len(p.frames) for p in warm["self"]),
        }

    # decode phase: the rest of the measured seconds, at least a quarter;
    # sources interleaved sentence by sentence, order rotated
    budget = max(seconds - (time.perf_counter() - t_measure), seconds / 4)
    t_decode = time.perf_counter()
    step = 0
    cold = False
    while True:
        if replay_steps is not None:
            if step >= replay_steps:
                break
        elif step and time.perf_counter() - t_decode >= budget:
            break
        i = step % len(sents)
        k = step % len(SOURCES)
        timed = {}
        for source in SOURCES[k:] + SOURCES[:k]:
            t0 = time.perf_counter_ns()
            pred = tally.call(f"{source} decode", decode_call, loaded, sents[i], source, heads[i])
            dt = time.perf_counter_ns() - t0
            if pred is None:
                continue
            problem = prediction_problem(source, sents[i], heads[i], pred)
            if problem is None and pred.sentence != warm[source][i]:
                problem = f"{source} decode of sentence {i} differs from its warm-up"
            if tally.record(problem):
                timed[source] = dt / 1e9
        ref = reference()
        # the step after a set-up runs on caches the set-up evicted
        if not cold:
            for source, dt in timed.items():
                res.decode[source].add(dt, ref)
        step += 1
        cold = step % SETUP_EVERY == 0
        if cold:
            t0 = time.perf_counter()
            set_up(corpus_dir, seed, split, ckpt)
            res.setup.add(time.perf_counter() - t0, reference())
    res.decode_steps = step
    res.wall_s = time.perf_counter() - t_pass
    return res


# ---------------------------------------------------------------------------
# Metrics


def timed_work_s(res: PassResult) -> float:
    """The pass's timed training and decoding, in reference seconds."""
    parts = [res.epochs] + list(res.decode.values())
    return sum(p.total_s() for p in parts if p.raw_s)


def end_to_end(res: PassResult) -> dict:
    metrics = {
        "setup_s": (statistics.median(res.setup.each_s()), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "train_sents_per_s": (
            N_TRAIN * len(res.epochs.raw_s) / res.epochs.total_s() if res.epochs.raw_s
            else 0.0,
            "sentences/s",
        ),
        "train_dev_f1": (res.dev_f1, "ratio"),
    }
    for source in SOURCES:
        d = res.decode[source]
        metrics[f"decode_{source}_sents_per_s"] = (
            len(d.raw_s) / d.total_s() if d.raw_s else 0.0, "sentences/s"
        )
    self_ms = [1e3 * t for t in res.decode["self"].each_s()] or [0.0, 0.0]
    metrics["decode_self_ms_p50"] = (statistics.median(self_ms), "ms")
    metrics["decode_self_ms_p95"] = (
        statistics.quantiles(self_ms, n=20, method="inclusive")[18], "ms"
    )
    for name in ("srl_f1_self", "srl_f1_gold", "uas_self", "predicate_f1"):
        metrics[name] = (res.quality.get(name, 0.0), "ratio")
    metrics["decode_frames_per_sent"] = (
        res.quality.get("decode_frames_per_sent", 0.0), "count"
    )
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def span_targets():
    """(owner, attribute, span name): the public functions each layer is
    timed by, patched where the package looks them up."""
    return [
        (pipeline, "gen_synth", "synth.gen_synth"),
        (pipeline, "read_conll", "corpus.read_conll"),
        (pipeline, "read_heads_file", "corpus.read_heads"),
        (pipeline, "read_vec_file", "embed.read_vec"),
        (checkpoint, "load_checkpoint", "checkpoint.load"),
        (pipeline, "train", "pipeline.train"),
        (pipeline, "save_checkpoint", "checkpoint.save"),
        (pipeline, "srl_prf", "evaluation.srl_prf"),
        (model.LisaModel, "loss", "model.loss"),
        (model.LisaModel, "predict_sentence", "model.predict_sentence"),
        (model.LisaModel, "reset_gradients", "model.reset_gradients"),
        (numerics.Tape, "backward", "numerics.backward"),
        (model, "static_embed", "embed.static_embed"),
        (encoder.Encoder, "encode", "encoder.encode"),
        (model, "parse_loss", "encoder.parse_loss"),
        (model, "pos_pred_logits", "heads.pos_pred_logits"),
        (model, "pos_pred_loss", "heads.pos_pred_loss"),
        (model, "srl_scores", "heads.srl_scores"),
        (model, "srl_loss", "heads.srl_loss"),
        (model, "viterbi_decode", "decode.viterbi"),
    ]


def tape_op_names() -> list[str]:
    return sorted(
        name for name, value in vars(numerics.Tape).items()
        if callable(value) and not name.startswith("_") and name != "backward"
    )


def per_layer(spans: Spans, traced: PassResult, untraced: PassResult) -> dict:
    wall_ns = traced.wall_s * 1e9 - sum(traced.ref_ns)
    metrics: dict[str, tuple[float, str]] = {}
    for name in [name for _, _, name in span_targets()] + [STEP_SELF]:
        durations = spans.durations.get(name) or [0]
        metrics[f"{name}_ms"] = (statistics.median(durations) / 1e6, "ms")
        metrics[f"{name}_calls"] = (spans.calls(name), "count")
        metrics[f"{name}_share"] = (100 * spans.self_ns.get(name, 0) / wall_ns, "%")
    steps = max(spans.calls("model.loss"), 1)
    decodes = max(spans.calls("model.predict_sentence"), 1)
    metrics["numerics.tape_ops_per_step"] = (spans.ops_inside["model.loss"] / steps, "count")
    metrics["numerics.tape_ops_per_sent_decode"] = (
        spans.ops_inside["model.predict_sentence"] / decodes, "count"
    )
    metrics["encoder.encode_calls_per_sent"] = (
        spans.calls_inside[("model.predict_sentence", "encoder.encode")] / decodes, "count"
    )
    metrics["heads.frames_per_sent"] = (
        spans.calls_inside[("model.predict_sentence", "decode.viterbi")] / decodes, "count"
    )
    metrics["trace.unattributed_share"] = (100 * (1 - spans.top_ns / wall_ns), "%")
    metrics["trace.overhead_pct"] = (
        100 * (timed_work_s(traced) / timed_work_s(untraced) - 1), "%"
    )
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def environment(seed: int, res: PassResult) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in _PINNED},
        "seed": seed,
        "gen_synth": dataclasses.asdict(synth_params(Path("<run>"), seed)),
        "splits": res.split_stats,
        "train_epochs": TRAIN_EPOCHS,
        "decode_checkpoint": {"epochs": CKPT_EPOCHS, "corpus_seed": CKPT_CORPUS_SEED},
    }


def report(res: PassResult) -> None:
    """Sample counts and unscaled times behind the metrics."""
    print(f"reference work: {len(res.ref_ns)} samples, mean"
          f" {statistics.fmean(res.ref_ns) / 1e6:.4f} ms (nominal {REF_NOMINAL_NS / 1e6:.4f} ms)")
    print(f"setup: {len(res.setup.raw_s)} repetitions, median"
          f" {statistics.median(res.setup.raw_s):.4f} s unscaled")
    print(f"train: {len(res.epochs.raw_s)} epochs of {N_TRAIN} sentences in"
          f" {sum(res.epochs.raw_s):.2f} s unscaled")
    frames = res.quality.get("decode_frames_per_sent", 0.0)
    print(f"decode: {res.decode_steps} steps, {frames:.3f} frames per sentence under self")
    for source in SOURCES:
        d = res.decode[source]
        print(f"decode {source}: {len(d.raw_s)} sentences in {sum(d.raw_s):.2f} s unscaled")


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    work = BUILD_DIR / f"run-{os.getpid()}"
    tally = Tally()
    try:
        ckpt = decode_checkpoint()
        untraced = run_pass(args.workload, args.seed, args.seconds, work / "0", ckpt, tally)
        print("env: " + json.dumps(environment(args.seed, untraced), sort_keys=True))
        report(untraced)
        if args.trace:
            spans = Spans()
            for owner, attr, name in span_targets():
                spans.span(owner, attr, name)
            spans.count_ops(numerics.Tape, tape_op_names())
            try:
                traced = run_pass(args.workload, args.seed, args.seconds, work / "1",
                                  ckpt, tally, replay_steps=untraced.decode_steps)
            finally:
                spans.restore()
            same = (traced.epoch_lines == untraced.epoch_lines
                    and traced.predictions == untraced.predictions)
            tally.record(None if same else "traced outputs differ from untraced outputs")
            print(f"wall: traced {traced.wall_s:.3f} s, untraced {untraced.wall_s:.3f} s;"
                  f" timed work: traced {timed_work_s(traced):.3f} s,"
                  f" untraced {timed_work_s(untraced):.3f} s")
            metrics = per_layer(spans, traced, untraced)
        else:
            metrics = end_to_end(untraced)
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
