"""Shipping gate: nine end-to-end checks, one verdict line each.

Criterion 1 records why full-scale benchmark scores are out of scope for
this artifact; criteria 2-9 are the desk-scale property checks that stand
in for them. Each test computes its verdict first, reports the line, then
asserts, so a failing run still prints every criterion it reached.
"""

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from lisa_srl.config import RunConfig
from lisa_srl.corpus import (
    OUTSIDE,
    AnnotatedSentence,
    LabelSpace,
    bio_to_spans,
    build_joint_pos_pred_space,
    build_role_space,
    estimate_transitions,
    read_conll,
    spans_to_bio,
    valid_successor,
    vocabulary,
    write_conll,
)
from lisa_srl.checkpoint import load_checkpoint
from lisa_srl.decode import brute_force_decode, viterbi_decode
from lisa_srl.embed import gen_contextual_layers
from lisa_srl.encoder import ParseSource
from lisa_srl.evaluation import corpus_uas, srl_prf
from lisa_srl.model import LisaModel
from lisa_srl.numerics import Tape, finite_difference_check, softmax
from lisa_srl.pipeline import GenSynthParams, evaluate, gen_synth, predict, train
from lisa_srl.synth import gen_synthetic, pretrained_vectors


def _decode_corpus(model, transitions, corpus, source, harden=False):
    return [
        model.predict_sentence(s, transitions, source=source, harden=harden).sentence
        for s in corpus
    ]


def _desk_model(corpus, seed=0):
    """Untrained model at shipped defaults over the given corpus."""
    pretrained = dict(pretrained_vectors(64, 0))
    return LisaModel.build(
        RunConfig(seed=seed),
        build_joint_pos_pred_space(corpus),
        build_role_space(corpus),
        vocabulary(corpus),
        pretrained,
    )


def test_full_scale_scores_out_of_scope(acceptance_report):
    acceptance_report(
        "criterion 1: pass - full-scale benchmark scores need large external"
        " corpora and embeddings that are not part of this artifact;"
        " criteria 2-9 substitute desk-scale property checks"
    )


def test_gold_injection_gives_perfect_attachment(acceptance_report):
    corpus = gen_synthetic(500, 7)
    model = _desk_model(corpus)
    transitions = estimate_transitions(corpus, build_role_space(corpus))
    t0 = time.perf_counter()
    preds = _decode_corpus(model, transitions, corpus, ParseSource.GOLD)
    elapsed = time.perf_counter() - t0
    score = corpus_uas(corpus, preds)

    shifted = gen_synthetic(100, 8, shifted=True)
    shifted_preds = _decode_corpus(model, transitions, shifted, ParseSource.GOLD)
    shifted_score = corpus_uas(shifted, shifted_preds)

    ok = score == 1.0 and shifted_score == 1.0 and elapsed < 10.0
    acceptance_report(
        f"criterion 2: {'pass' if ok else 'FAIL'} - gold-injected UAS"
        f" {score} on 500 sentences in {elapsed:.1f}s"
        f" (shifted UAS {shifted_score})"
    )
    assert ok


def _random_transitions(space, seed):
    """Transition table estimated from randomly tagged valid frames."""
    rng = np.random.default_rng(seed)
    sentences = []
    for _ in range(12):
        t_len = int(rng.integers(1, 6))
        tags, prev = [], None
        for _ in range(t_len):
            options = [
                s for s in space
                if (valid_successor(OUTSIDE, s) if prev is None else valid_successor(prev, s))
            ]
            prev = options[int(rng.integers(0, len(options)))]
            tags.append(prev)
        sentences.append(
            AnnotatedSentence(
                tuple(f"w{t}" for t in range(t_len)),
                tuple("NN" for _ in range(t_len)),
                tuple(0 for _ in range(t_len)),
                tuple(t == 0 for t in range(t_len)),
                {0: tuple(tags)},
            )
        )
    return estimate_transitions(sentences, space)


def test_viterbi_matches_exhaustive_oracle(acceptance_report):
    spaces = [
        LabelSpace(["O", "B-A0", "I-A0"]),
        LabelSpace(["O", "B-A0", "I-A0", "B-A1", "I-A1"]),
    ]
    tables = [
        [_random_transitions(space, 100 + 10 * j + k) for k in range(5)]
        for j, space in enumerate(spaces)
    ]
    rng = np.random.default_rng(42)
    mismatches = 0
    t0 = time.perf_counter()
    for k in range(1000):
        j = k % 2
        table = tables[j][k % 5]
        t_len = int(rng.integers(1, 7))
        emissions = rng.normal(size=(t_len, len(spaces[j])))
        if viterbi_decode(emissions[None], table)[0] != brute_force_decode(emissions, table):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 30.0
    acceptance_report(
        f"criterion 3: {'pass' if ok else 'FAIL'} - {mismatches} mismatches"
        f" between viterbi and exhaustive search on 1000 random problems"
        f" in {elapsed:.1f}s"
    )
    assert ok


def test_gradients_match_finite_differences(acceptance_report):
    sent = AnnotatedSentence(
        ("d0", "n000", "v00"),
        ("DT", "NN", "VB"),
        (1, 2, 2),
        (False, False, True),
        {2: ("B-A0", "I-A0", "O")},
    )
    corpus = [sent]
    rng = np.random.default_rng(0)
    pretrained = {w: rng.normal(0, 0.5, 6) for s in corpus for w in s.tokens}
    config = RunConfig(
        n_layers=2, n_heads=2, parse_layer=2, pos_layer=1, d_role=3, seed=1,
    )
    model = LisaModel.build(
        config,
        build_joint_pos_pred_space(corpus),
        build_role_space(corpus),
        vocabulary(corpus),
        pretrained,
    )

    def run(backward=False) -> float:
        tape = Tape()
        bundle = model.loss(tape, sent, source=ParseSource.GOLD)
        if backward:
            tape.backward(bundle.srl, bundle.parse, bundle.pos_pred)
        return bundle.total

    t0 = time.perf_counter()
    model.reset_gradients()
    run(backward=True)
    worst = 0.0
    for p in model.parameters():
        worst = max(worst, finite_difference_check(run, p, 1e-5))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    acceptance_report(
        f"criterion 4: {'pass' if ok else 'FAIL'} - max finite-difference"
        f" relative error {worst:.2e} over {len(model.parameters())}"
        f" parameters in {elapsed:.1f}s"
    )
    assert ok


def test_distributions_are_normalized(acceptance_report):
    rng = np.random.default_rng(5)
    worst = 0.0
    rows_checked = 0
    for k in range(100):
        n_layers = int(rng.integers(1, 4))
        n_heads = int(rng.integers(1, 4))
        d_v = 2 * int(rng.integers(1, 3))  # even, so d_model suits positional encodings
        d_model = n_heads * d_v
        contextual = k % 3 == 2
        variant = "sa" if k % 4 == 3 else "lisa"
        config = RunConfig(
            variant=variant,
            embedding="contextual" if contextual else "static",
            n_layers=n_layers,
            n_heads=n_heads,
            parse_layer=int(rng.integers(1, n_layers + 1)),
            pos_layer=int(rng.integers(1, n_layers + 1)),
            d_role=int(rng.integers(2, 6)),
            embed_convs=int(rng.integers(0, 3)),
            seed=k,
        )
        n_context_layers = int(rng.integers(1, 5))
        corpus = gen_synthetic(2, 1000 + k)
        sent = corpus[0]
        pretrained = {
            w: rng.normal(0, 0.5, d_model) for s in corpus for w in s.tokens
        }
        frozen = (
            gen_contextual_layers([sent], n_context_layers, d_model, k)
            if contextual
            else pretrained
        )
        model = LisaModel.build(
            config,
            build_joint_pos_pred_space(corpus),
            build_role_space(corpus),
            vocabulary(corpus),
            frozen,
        )
        kwargs = {}
        if contextual:
            model.mix.w.data[:] = rng.normal(0, 1.0, model.mix.w.shape)
            model.mix.gamma.data = np.asarray(float(rng.normal(1, 0.5)))
            kwargs["ctx_layers"] = frozen.layers["0"]
        source = ParseSource.GOLD if (variant == "lisa" and k % 2 == 0) else ParseSource.SELF
        harden = variant == "lisa" and k % 5 == 0
        tape = Tape()
        fw = model.forward(tape, sent, source=source, harden=harden, **kwargs)

        sums = []
        for attention in fw.trace.attentions.values():
            sums.append(attention.sum(axis=-1))
            rows_checked += attention.shape[0] * attention.shape[1]
        if contextual:
            sums.append(model.mix.coefficients().sum())
            rows_checked += 1
        pos_probs = softmax(fw.pos_logits.data)
        sums.append(pos_probs.sum(axis=-1))
        rows_checked += pos_probs.shape[0]
        from lisa_srl.heads import srl_scores

        for score in srl_scores(
            tape, fw.final, list(sent.predicate_indices), model.scorer
        ).data:
            role_probs = softmax(score)
            sums.append(role_probs.sum(axis=-1))
            rows_checked += role_probs.shape[0]
        for s in sums:
            worst = max(worst, float(np.max(np.abs(np.asarray(s) - 1.0))))
    ok = worst <= 1e-9
    acceptance_report(
        f"criterion 5: {'pass' if ok else 'FAIL'} - worst normalization"
        f" deviation {worst:.2e} over {rows_checked} distributions from"
        f" 100 random configurations"
    )
    assert ok


def test_model_overfits_small_corpus(acceptance_report, tmp_path):
    gen_synth(
        GenSynthParams(out_dir=str(tmp_path), n_train=100, n_dev=10, n_test=10,
                       seed=0, dim=64)
    )
    config = RunConfig(
        variant="lisa",
        parse_source="self",
        train_path=str(tmp_path / "train.conll"),
        dev_path=str(tmp_path / "train.conll"),
        pretrained_path=str(tmp_path / "pretrained.vec"),
        epochs=200,
        early_stop_f1=0.99,
    )
    t0 = time.perf_counter()
    result = train(config)
    elapsed = time.perf_counter() - t0
    ok = result.best_dev_f1 >= 0.99 and len(result.log_lines) <= 200 and elapsed < 300
    acceptance_report(
        f"criterion 6: {'pass' if ok else 'FAIL'} - training F1"
        f" {result.best_dev_f1:.4f} at epoch {result.best_epoch}"
        f" in {elapsed:.0f}s"
    )
    assert ok


def _criterion_7_job(out, seed: int, variant: str) -> tuple[dict[str, float], float]:
    """Train one criterion-7 model on the corpus in `out` and decode its
    test split: `lisa` under the gold and its own parse, `sa` parse-free.
    Returns the F1 per decode and the job's own seconds."""
    t0 = time.perf_counter()
    gold = read_conll(out / "test.conll")
    paths = dict(
        train_path=str(out / "train.conll"),
        dev_path=str(out / "dev.conll"),
        pretrained_path=str(out / "pretrained.vec"),
    )
    if variant == "lisa":
        result = train(RunConfig(variant="lisa", parse_source="gold", gold_mix=0.25,
                                 epochs=60, seed=seed, **paths))
        sources = {"gold": ParseSource.GOLD, "self": ParseSource.SELF}
    else:
        result = train(RunConfig(variant="sa", parse_source="self",
                                 epochs=60, seed=seed, **paths))
        sources = {"sa": ParseSource.SELF}
    f1 = {
        key: srl_prf(gold, _decode_corpus(result.model, result.transitions, gold, source))[2]
        for key, source in sources.items()
    }
    return f1, time.perf_counter() - t0


@pytest.mark.slow
def test_parse_information_improves_role_f1(acceptance_report, tmp_path):
    """Three paired seeds; the same trained model is decoded with its own
    parse and with the gold parse, against the parse-free ablation. The six
    trainings are independent, so they run on up to two processes; the time
    bound gates the sum of their own times, the same work as one process."""
    t0 = time.perf_counter()
    for seed in (0, 1, 2):
        gen_synth(
            GenSynthParams(out_dir=str(tmp_path / f"s{seed}"), n_train=300, n_dev=60,
                           n_test=200, seed=seed, dim=64)
        )
    work = time.perf_counter() - t0
    jobs = [(tmp_path / f"s{seed}", seed, v) for seed in (0, 1, 2) for v in ("lisa", "sa")]
    workers = min(2, os.cpu_count() or 1)
    spawn = multiprocessing.get_context("spawn")  # workers import this module afresh
    with ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
        done = list(pool.map(_criterion_7_job, *zip(*jobs), timeout=1200))
    wall = time.perf_counter() - t0
    means = {"gold": [], "self": [], "sa": []}
    for f1, seconds in done:  # in seed order
        work += seconds
        for key, value in f1.items():
            means[key].append(value)
    g, s, a = (float(np.mean(means[k])) for k in ("gold", "self", "sa"))
    ok = g >= s >= a and (g - a) >= 0.02 and work < 1200
    acceptance_report(
        f"criterion 7: {'pass' if ok else 'FAIL'} - mean F1 over 3 seeds:"
        f" gold-parse {g:.4f} >= self-parse {s:.4f} >= parse-free {a:.4f},"
        f" gold advantage {100 * (g - a):.1f} points, in {work:.0f}s of work"
        f" ({wall:.0f}s wall clock on {workers} processes)"
    )
    assert ok


def _tiny_run_config(data_dir, work_dir, **kw):
    defaults = dict(
        variant="lisa",
        parse_source="self",
        n_layers=2, n_heads=2, d_role=4,
        lr=0.05, epochs=2,
        train_path=str(data_dir / "train.conll"),
        dev_path=str(data_dir / "dev.conll"),
        test_path=str(data_dir / "test.conll"),
        pretrained_path=str(data_dir / "pretrained.vec"),
        checkpoint_out=str(work_dir / "model.ckpt"),
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def test_seeded_runs_are_byte_identical(acceptance_report, tmp_path):
    data = tmp_path / "data"
    gen_synth(GenSynthParams(out_dir=str(data), n_train=24, n_dev=8, n_test=8,
                             seed=3, dim=8))

    def one_round():
        config = _tiny_run_config(data, tmp_path)
        result = train(config)
        log = "\n".join(result.log_lines).encode()
        ckpt = (tmp_path / "model.ckpt").read_bytes()
        predict(_tiny_run_config(
            data, tmp_path,
            checkpoint_in=str(tmp_path / "model.ckpt"),
            predictions_path=str(tmp_path / "pred.conll"),
        ))
        _, lines = evaluate(_tiny_run_config(
            data, tmp_path,
            predictions_path=str(tmp_path / "pred.conll"),
            metrics_path=str(tmp_path / "metrics.csv"),
        ))
        return (
            log,
            ckpt,
            (tmp_path / "pred.conll").read_bytes(),
            (tmp_path / "metrics.csv").read_bytes(),
            "\n".join(lines).encode(),
        )

    first = one_round()
    second = one_round()
    ok = first == second
    acceptance_report(
        f"criterion 8: {'pass' if ok else 'FAIL'} - two identically seeded"
        f" runs produced byte-identical logs, checkpoint, predictions and"
        f" metrics"
    )
    assert ok


def test_round_trips_are_exact(acceptance_report, tmp_path):
    # corpus file round-trip
    corpus = gen_synthetic(40, 17)
    path_a, path_b = tmp_path / "a.conll", tmp_path / "b.conll"
    write_conll(path_a, corpus)
    reread = read_conll(path_a)
    write_conll(path_b, reread)
    corpus_ok = reread == corpus and path_a.read_bytes() == path_b.read_bytes()

    # BIO <-> span round-trip on every generated frame
    bio_ok = all(
        spans_to_bio(bio_to_spans(tags), len(s)) == tags
        for s in corpus
        for tags in s.frames.values()
    )

    # checkpoint round-trip: bitwise identical forward outputs
    data = tmp_path / "data"
    gen_synth(GenSynthParams(out_dir=str(data), n_train=24, n_dev=8, n_test=8,
                             seed=3, dim=8))
    config = _tiny_run_config(data, tmp_path, epochs=1)
    result = train(config)
    loaded = load_checkpoint(str(tmp_path / "model.ckpt"))
    sent = read_conll(data / "test.conll")[0]
    fw_a = result.model.forward(Tape(), sent)
    fw_b = loaded.model.forward(Tape(), sent)
    loss_a = result.model.loss(Tape(), sent).total
    loss_b = loaded.model.loss(Tape(), sent).total
    ckpt_ok = (
        np.array_equal(fw_a.final.data, fw_b.final.data)
        and np.array_equal(fw_a.pos_logits.data, fw_b.pos_logits.data)
        and loss_a == loss_b
    )

    ok = corpus_ok and bio_ok and ckpt_ok
    acceptance_report(
        f"criterion 9: {'pass' if ok else 'FAIL'} - corpus file, BIO/span"
        f" and checkpoint round-trips all exact"
        f" (corpus {corpus_ok}, spans {bio_ok}, checkpoint {ckpt_ok})"
    )
    assert ok
