"""Metrics: hand-tallied counts, symmetry, bucketing, export."""

import numpy as np
import pytest

from lisa_srl.config import RunConfig
from lisa_srl.corpus import (
    AnnotatedSentence,
    build_joint_pos_pred_space,
    build_role_space,
    estimate_transitions,
)
from lisa_srl.encoder import ParseSource
from lisa_srl.errors import AlignmentError
from lisa_srl.evaluation import (
    BucketMetrics,
    Counts,
    bucket_by_length,
    corpus_uas,
    evaluate_corpus,
    export_metrics,
    frame_spans,
    predicate_prf,
    srl_counts,
    srl_prf,
    uas,
)
from lisa_srl.model import LisaModel
from lisa_srl.synth import gen_synthetic


def _sent(tokens, predicates=(), frames=None, heads=None):
    t = len(tokens)
    return AnnotatedSentence(
        tuple(tokens),
        tuple("NN" for _ in tokens),
        tuple(heads) if heads is not None else tuple([min(1, t - 1)] * (t - 1) + [t - 1]),
        tuple(i in set(predicates) for i in range(t)),
        dict(frames or {}),
    )


G1 = _sent("abc", predicates=[2], frames={2: ("B-A0", "I-A0", "O")})
G2 = _sent(
    "abcde",
    predicates=[2],
    frames={2: ("B-A0", "I-A0", "O", "B-A1", "I-A1")},
)
P2_WRONG_PRED = _sent(
    "abcde",
    predicates=[1],
    frames={1: ("B-A0", "I-A0", "O", "B-A1", "I-A1")},
)


def test_identical_predictions_score_one():
    gold = [G1, G2]
    assert srl_prf(gold, gold) == (1.0, 1.0, 1.0)
    assert predicate_prf(gold, gold) == (1.0, 1.0, 1.0)
    assert corpus_uas(gold, gold) == 1.0


def test_empty_predictions_use_zero_precision_convention():
    gold = [G1, G2]
    empty = [_sent("abc"), _sent("abcde")]
    assert srl_prf(gold, empty) == (0.0, 0.0, 0.0)
    assert predicate_prf(gold, empty) == (0.0, 0.0, 0.0)


def test_wrong_predicate_hand_tally():
    # sentence 1 exact; sentence 2 predicts the frame on the wrong token:
    # both its spans are false positives, both gold spans false negatives
    gold = [G1, G2]
    pred = [G1, P2_WRONG_PRED]
    counts = srl_counts(gold, pred)
    assert (counts.tp, counts.fp, counts.fn) == (1, 2, 2)
    p, r, f1 = srl_prf(gold, pred)
    assert p == pytest.approx(1 / 3) and r == pytest.approx(1 / 3)
    assert f1 == pytest.approx(1 / 3)
    pp, pr, _ = predicate_prf(gold, pred)
    assert pp == 0.5 and pr == 0.5


def test_frame_spans_include_predicate_index():
    assert frame_spans(G2) == {(2, 0, 1, "A0"), (2, 3, 4, "A1")}


def test_predict_every_token_as_predicate():
    gold = [G2]
    every = _sent("abcde", predicates=range(5))
    p, r, f1 = predicate_prf(gold, [every])
    assert r == 1.0 and p == pytest.approx(1 / 5)
    assert f1 == pytest.approx(2 * (1 / 5) / (1 + 1 / 5))


def test_uas_examples():
    assert uas([0, 0, 1], [0, 0, 1]) == 1.0
    assert uas([0, 0, 1], [1, 1, 0]) == 0.0
    assert uas([0, 1, 2, 3], [0, 1, 2, 0]) == 0.75
    with pytest.raises(AlignmentError):
        uas([0, 1], [0])
    with pytest.raises(AlignmentError):
        uas([], [])


def test_misaligned_corpora_raise():
    with pytest.raises(AlignmentError):
        srl_prf([G1, G2], [G1])
    with pytest.raises(AlignmentError):
        srl_prf([G1], [_sent("xyz")])
    with pytest.raises(AlignmentError):
        corpus_uas([G1, G2], [G2, G1])


def _perturbed(corpus, rng):
    """Predictions sharing tokens with gold but with shuffled frame content."""
    out = []
    for s in corpus:
        frames = {}
        for k, tags in s.frames.items():
            if rng.random() < 0.3:
                continue  # dropped frame
            tags = tuple(
                t.replace("A0", "A1") if rng.random() < 0.4 else t for t in tags
            )
            frames[k] = tags
        preds = tuple(i in frames for i in range(len(s)))
        out.append(AnnotatedSentence(s.tokens, s.pos, s.heads, preds, frames))
    return out


def test_swapping_gold_and_predicted_swaps_precision_and_recall():
    gold = gen_synthetic(25, 11)
    pred = _perturbed(gold, np.random.default_rng(7))
    fwd = srl_counts(gold, pred)
    rev = srl_counts(pred, gold)
    assert (fwd.tp, fwd.fp, fwd.fn) == (rev.tp, rev.fn, rev.fp)
    p1, r1, f1a = srl_prf(gold, pred)
    p2, r2, f1b = srl_prf(pred, gold)
    assert (p1, r1) == (r2, p2) and f1a == f1b


def test_metrics_invariant_to_sentence_permutation():
    gold = gen_synthetic(20, 3)
    pred = _perturbed(gold, np.random.default_rng(4))
    base = evaluate_corpus(gold, pred)
    order = np.random.default_rng(9).permutation(len(gold))
    gold2 = [gold[i] for i in order]
    pred2 = [pred[i] for i in order]
    again = evaluate_corpus(gold2, pred2)
    assert again.srl == base.srl
    assert again.predicate == base.predicate
    assert again.uas == base.uas
    assert [(b.counts, b.support) for b in again.buckets] == [
        (b.counts, b.support) for b in base.buckets
    ]


def test_single_bucket_equals_global():
    gold = [s for s in gen_synthetic(30, 5) if len(s) <= 10]
    pred = _perturbed(gold, np.random.default_rng(2))
    bucket, *rest = bucket_by_length(gold, pred)
    assert all(b.support == 0 for b in rest)
    assert bucket.counts == srl_counts(gold, pred)
    assert bucket.f1 == srl_prf(gold, pred)[2]
    assert bucket.support == len(gold)


def test_bucket_count_additivity():
    gold = gen_synthetic(60, 8)
    pred = _perturbed(gold, np.random.default_rng(6))
    buckets = bucket_by_length(gold, pred)
    total = Counts()
    for b in buckets:
        total += b.counts
    assert total == srl_counts(gold, pred)
    assert sum(b.support for b in buckets) == len(gold)


def test_bucket_boundary_is_inclusive_on_the_right():
    ten = _sent("abcdefghij", predicates=[0], frames={0: ("B-A0",) + ("O",) * 9})
    eleven = _sent("abcdefghijk", predicates=[0], frames={0: ("B-A0",) + ("O",) * 10})
    buckets = bucket_by_length([ten, eleven], [ten, eleven])
    assert buckets[0].support == 1 and buckets[1].support == 1
    assert buckets[0].lo == 0 and buckets[0].hi == 10.0


def test_empty_bucket_is_flagged():
    gold = [G1, G2]
    buckets = bucket_by_length(gold, gold)
    assert buckets[0].support == 2
    for b in buckets[1:]:
        assert b.f1 == 0.0 and b.support == 0


def test_gold_parse_pipeline_gives_perfect_uas():
    corpus = gen_synthetic(5, 1)
    joint = build_joint_pos_pred_space(corpus)
    roles = build_role_space(corpus)
    vocab = sorted({w for s in corpus for w in s.tokens})
    rng = np.random.default_rng(0)
    pretrained = {w: rng.normal(0, 0.5, 6) for w in vocab}
    cfg = RunConfig(
        n_layers=2, n_heads=2, d_k=3,
        parse_layer=2, pos_layer=1, d_role=3, seed=0,
    )
    model = LisaModel.build(cfg, joint, roles, vocab, pretrained)
    table = estimate_transitions(corpus, roles)
    preds = [
        model.predict_sentence(s, table, source=ParseSource.GOLD).sentence
        for s in corpus
    ]
    assert corpus_uas(corpus, preds) == 1.0


def test_export_metrics_is_deterministic(tmp_path):
    gold = gen_synthetic(10, 4)
    pred = _perturbed(gold, np.random.default_rng(1))
    report = evaluate_corpus(gold, pred, bio_repairs=3)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    export_metrics(report, a)
    export_metrics(report, b)
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().strip().splitlines()
    assert lines[0] == "metric,precision,recall,f1,support"
    assert len(lines) == 1 + 3 + len(report.buckets) + 1
    assert lines[1].startswith("srl,")
    assert lines[-1] == "bio_repairs,,,,3"
    names = [ln.split(",")[0] for ln in lines[1:]]
    assert names[:3] == ["srl", "predicate", "uas"]
    assert "srl_len_1_10" in names and "srl_len_41_inf" in names


def test_bucket_label_formatting():
    b = BucketMetrics(0, 10.0, Counts(), 0.0, 0)
    assert b.label() == "len_1_10"
    b = BucketMetrics(40, float("inf"), Counts(), 0.0, 0)
    assert b.label() == "len_41_inf"
