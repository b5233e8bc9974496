"""Full-model assembly: forward, multi-task loss, prediction, variants."""

import numpy as np
import pytest

from lisa_srl.corpus import (
    AnnotatedSentence,
    build_joint_pos_pred_space,
    build_role_space,
    estimate_transitions,
)
from lisa_srl.encoder import EncoderConfig, ParseSource
from lisa_srl.errors import ConfigError
from lisa_srl.heads import decode_pos_pred, srl_loss, srl_scores
from lisa_srl.model import (
    EMBED_CONTEXTUAL,
    VARIANT_AGNOSTIC,
    LisaModel,
    ModelConfig,
    SentencePrediction,
)
from lisa_srl.numerics import finite_difference_check
from lisa_srl.numerics import Tape
from lisa_srl.synth import gen_synthetic


def _tiny_corpus():
    s1 = AnnotatedSentence(
        ("d0", "n000", "v00"),
        ("DT", "NN", "VB"),
        (1, 2, 2),
        (False, False, True),
        {2: ("B-A0", "I-A0", "O")},
    )
    s2 = AnnotatedSentence(
        ("d1", "n001", "v00", "d0", "n000"),
        ("DT", "NN", "VB", "DT", "NN"),
        (1, 2, 2, 4, 2),
        (False, False, True, False, False),
        {2: ("B-A0", "I-A0", "O", "B-A1", "I-A1")},
    )
    return [s1, s2]


def _spaces(corpus):
    return build_joint_pos_pred_space(corpus), build_role_space(corpus)


def _pretrained(corpus, d, seed=0):
    rng = np.random.default_rng(seed)
    words = sorted({w for s in corpus for w in s.tokens})
    return {w: rng.normal(0, 0.5, d) for w in words}


def _config(**kw):
    enc = kw.pop(
        "encoder",
        EncoderConfig(
            n_layers=2, n_heads=2, d_k=3, d_v=3, d_model=6,
            parse_layer=2, pos_layer=1,
        ),
    )
    return ModelConfig(encoder=enc, d_role=3, **kw)


def _model(corpus, seed=1, **kw):
    joint, roles = _spaces(corpus)
    vocab = sorted({w for s in corpus for w in s.tokens})
    return LisaModel.build(
        _config(**kw), joint, roles, vocab, _pretrained(corpus, 6), seed
    )


def test_forward_shapes_and_trace():
    corpus = _tiny_corpus()
    model = _model(corpus)
    fw = model.forward(Tape(), corpus[1])
    assert fw.final.shape == (5, 6)
    assert fw.pos_logits.shape == (5, len(model.pos_head.labels))
    assert fw.trace.parse_logits.shape == (5, 5)


def test_full_loss_finite_differences_every_parameter():
    # gold-injected training loss on a 3-token sentence, every parameter
    corpus = _tiny_corpus()
    model = _model(corpus)
    sent = corpus[0]

    def run(backward=False) -> float:
        tape = Tape()
        bundle = model.loss(tape, sent, source=ParseSource.GOLD)
        if backward:
            tape.backward(bundle.total)
        return bundle.total.item()

    model.reset_gradients()
    run(backward=True)
    worst = 0.0
    for p in model.parameters():
        err = finite_difference_check(run, p, 1e-5)
        worst = max(worst, err)
        assert err < 1e-4, f"{p.name}: {err}"
    assert worst < 1e-4


def test_self_source_loss_finite_differences_spot():
    corpus = _tiny_corpus()
    model = _model(corpus)
    sent = corpus[0]

    def run(backward=False) -> float:
        tape = Tape()
        bundle = model.loss(tape, sent, source=ParseSource.SELF)
        if backward:
            tape.backward(bundle.total)
        return bundle.total.item()

    model.reset_gradients()
    run(backward=True)
    for p in model.parameters():
        if ".wq" in p.name or ".wk" in p.name or p.name == "srl.u":
            assert finite_difference_check(run, p, 1e-5) < 1e-4


def test_agnostic_variant_has_zero_parse_loss_and_same_shapes():
    corpus = _tiny_corpus()
    lisa = _model(corpus, seed=2)
    sa = _model(corpus, seed=2, variant=VARIANT_AGNOSTIC)
    bundle = sa.loss(Tape(), corpus[0])
    assert bundle.parse.item() == 0.0
    assert bundle.total.item() == bundle.srl.item() + bundle.pos_pred.item()
    lisa_shapes = [(p.name, p.value.shape) for p in lisa.parameters()]
    sa_shapes = [(p.name, p.value.shape) for p in sa.parameters()]
    assert lisa_shapes == sa_shapes


def test_agnostic_variant_rejects_injection():
    corpus = _tiny_corpus()
    sa = _model(corpus, variant=VARIANT_AGNOSTIC)
    with pytest.raises(ConfigError):
        sa.loss(Tape(), corpus[0], source=ParseSource.GOLD)


def test_gold_injection_extracts_gold_heads():
    corpus = _tiny_corpus()
    model = _model(corpus)
    joint, roles = _spaces(corpus)
    table = estimate_transitions(corpus, roles)
    for sent in corpus:
        pred = model.predict_sentence(sent, table, source=ParseSource.GOLD)
        assert pred.heads == list(sent.heads)


def test_external_injection_uses_provided_heads():
    corpus = _tiny_corpus()
    model = _model(corpus)
    _, roles = _spaces(corpus)
    table = estimate_transitions(corpus, roles)
    external = [2, 2, 2]
    pred = model.predict_sentence(
        corpus[0], table, source=ParseSource.EXTERNAL, external_heads=external
    )
    assert pred.heads == external
    with pytest.raises(ConfigError):
        model.predict_sentence(corpus[0], table, source=ParseSource.EXTERNAL)


def test_prediction_is_well_formed():
    corpus = gen_synthetic(8, 0)
    joint, roles = _spaces(corpus)
    vocab = sorted({w for s in corpus for w in s.tokens})
    model = LisaModel.build(_config(), joint, roles, vocab, _pretrained(corpus, 6), 3)
    table = estimate_transitions(corpus, roles)
    for sent in corpus:
        pred = model.predict_sentence(sent, table)
        assert isinstance(pred, SentencePrediction)
        out = pred.sentence
        assert len(out) == len(sent) and out.tokens == sent.tokens
        assert set(out.frames) == set(pred.predicates)


def test_parse_source_swap_leaves_parameters_untouched():
    corpus = _tiny_corpus()
    model = _model(corpus)
    _, roles = _spaces(corpus)
    table = estimate_transitions(corpus, roles)
    before = model.checksum()
    model.predict_sentence(corpus[0], table, source=ParseSource.SELF)
    model.predict_sentence(corpus[0], table, source=ParseSource.GOLD)
    model.predict_sentence(
        corpus[0], table, source=ParseSource.EXTERNAL, external_heads=[1, 1, 1]
    )
    assert model.checksum() == before


def test_training_scores_the_gold_predicates_whatever_the_logits():
    corpus = _tiny_corpus()
    model = _model(corpus)
    # every token argmaxes to a predicate, but the gold predicate is token 2
    model.pos_head.bias.value.data[model.pos_head.labels.of("VB:predicate")] = 50.0
    sent = corpus[1]
    fw = model.forward(Tape(), sent)
    assert all(decode_pos_pred(fw.pos_logits, model.pos_head.labels)[1])
    tape = Tape()
    gold = srl_scores(tape, fw.final, [2], model.scorer)
    expected = srl_loss(tape, gold, [sent.frames[2]], model.scorer.labels)
    assert model.loss(Tape(), sent).srl.item() == expected.item()


def test_hardened_self_parse_consumes_one_hot():
    corpus = _tiny_corpus()
    model = _model(corpus)
    fw = model.forward(Tape(), corpus[1], harden=True)
    consumed = fw.trace.consumed_parse_attention(model.config.encoder)
    assert np.array_equal(np.sort(np.unique(consumed)), [0.0, 1.0])
    assert np.array_equal(consumed.sum(axis=1), np.ones(5))


def test_default_training_step_records_few_tape_ops():
    # one fused op per attention layer and per convolution, one bilinear op
    # for all predicates and one cross-entropy op per loss
    corpus = gen_synthetic(40, 0)
    joint, roles = _spaces(corpus)
    vocab = sorted({w for s in corpus for w in s.tokens})
    model = LisaModel.build(
        ModelConfig(), joint, roles, vocab, _pretrained(corpus, 64), 0
    )
    counts = []
    for n_predicates in (1, 2):
        sent = next(s for s in corpus if len(s.predicate_indices) == n_predicates)
        tape = Tape()
        model.loss(tape, sent)
        counts.append(len(tape._backprops))
    assert counts[0] <= 27
    assert counts[1] == counts[0]


def test_contextual_path_forward_and_gradients():
    corpus = _tiny_corpus()
    joint, roles = _spaces(corpus)
    vocab = sorted({w for s in corpus for w in s.tokens})
    model = LisaModel.build(
        _config(embedding=EMBED_CONTEXTUAL, n_context_layers=3),
        joint, roles, vocab, None, 4,
    )
    rng = np.random.default_rng(5)
    stack = rng.normal(size=(3, 3, 6))

    def run(backward=False) -> float:
        tape = Tape()
        bundle = model.loss(tape, corpus[0], ctx_layers=stack)
        if backward:
            tape.backward(bundle.total)
        return bundle.total.item()

    model.reset_gradients()
    run(backward=True)
    assert finite_difference_check(run, model.mix.w, 1e-5) < 1e-4
    assert finite_difference_check(run, model.mix.gamma, 1e-5) < 1e-4
    with pytest.raises(ConfigError):
        model.loss(Tape(), corpus[0])  # missing layer stack


def test_one_sgd_step_reduces_loss():
    corpus = _tiny_corpus()
    model = _model(corpus, seed=6)
    sent = corpus[1]

    def loss_value() -> float:
        return model.loss(Tape(), sent, source=ParseSource.GOLD).total.item()

    before = loss_value()
    for _ in range(10):
        tape = Tape()
        bundle = model.loss(tape, sent, source=ParseSource.GOLD)
        model.reset_gradients()
        tape.backward(bundle.total)
        for p in model.parameters():
            p.value.data -= 0.1 * p.gradient
    assert loss_value() < before
