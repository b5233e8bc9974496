"""Full-model assembly: forward, multi-task loss, prediction, variants."""

import builtins
import dataclasses
import math
import sys

import numpy as np
import pytest

from lisa_srl.config import RunConfig
from lisa_srl.corpus import (
    PREDICATE_SUFFIX,
    AnnotatedSentence,
    build_joint_pos_pred_space,
    build_role_space,
    estimate_transitions,
)
from lisa_srl.embed import gen_contextual_layers
from lisa_srl.encoder import ParseSource
from lisa_srl.errors import (
    CompatibilityError,
    ConfigError,
    DimensionError,
    InjectionError,
    NonFiniteError,
)
from lisa_srl.heads import decode_pos_pred, srl_loss, srl_scores
from lisa_srl.model import (
    EMBED_CONTEXTUAL,
    VARIANT_AGNOSTIC,
    LisaModel,
    SentencePrediction,
)
from lisa_srl.numerics import Tape, Tensor, finite_difference_check
from lisa_srl.pipeline import sgd_step
from lisa_srl.synth import gen_synthetic


def _tiny_corpus():
    s1 = AnnotatedSentence(
        ("d0", "n000", "v00"),
        ("DT", "NN", "VB"),
        (1, 2, 2),
        {2: ("B-A0", "I-A0", "O")},
    )
    s2 = AnnotatedSentence(
        ("d1", "n001", "v00", "d0", "n000"),
        ("DT", "NN", "VB", "DT", "NN"),
        (1, 2, 2, 4, 2),
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
    base = dict(
        n_layers=2, n_heads=2, parse_layer=2, pos_layer=1, d_role=3,
    )
    return RunConfig(**(base | kw))


def _model(corpus, seed=1, **kw):
    joint, roles = _spaces(corpus)
    vocab = sorted({w for s in corpus for w in s.tokens})
    return LisaModel.build(
        _config(seed=seed, **kw), joint, roles, vocab, _pretrained(corpus, 6)
    )


def test_build_validates_and_keeps_its_own_config():
    corpus = _tiny_corpus()
    joint, roles = _spaces(corpus)
    with pytest.raises(ConfigError, match="d_role must be positive"):
        LisaModel.build(_config(d_role=0), joint, roles, [], _pretrained(corpus, 6))
    config = _config()
    model = LisaModel.build(config, joint, roles, [], _pretrained(corpus, 6))
    config.variant, config.pos_layer = VARIANT_AGNOSTIC, 2
    assert model.config is not config
    assert model.config.is_syntactic and model.config.pos_layer == 1


def test_build_refuses_a_layer_stack_on_the_static_path():
    corpus = _tiny_corpus()
    joint, roles = _spaces(corpus)
    with pytest.raises(ConfigError, match="^static embedding cannot embed ndarray$"):
        LisaModel.build(_config(), joint, roles, [], np.zeros((3, 2, 6)))


def test_parameters_are_listed_in_a_pinned_order():
    # the gradient norm and the clip scale sum in this order, so a reorder
    # would change their rounding
    corpus = _tiny_corpus()
    joint, roles = _spaces(corpus)
    rest = [
        "enc.l1.qkv", "enc.l1.c0.left", "enc.l1.c0.center", "enc.l1.c0.right", "enc.l1.c0.bias",
        "enc.l2.qkv", "enc.l2.c0.left", "enc.l2.c0.center", "enc.l2.c0.right", "enc.l2.c0.bias",
        "pos.w", "pos.b", "srl.w_pred", "srl.w_role", "srl.u",
    ]
    static = LisaModel.build(RunConfig(), joint, roles, [], _pretrained(corpus, 8))
    assert [p.name for p in static.parameters()] == [
        "embed.residual",
        "embed.c0.left", "embed.c0.center", "embed.c0.right", "embed.c0.bias",
        "embed.c1.left", "embed.c1.center", "embed.c1.right", "embed.c1.bias",
    ] + rest
    contextual = LisaModel.build(
        RunConfig(embedding=EMBED_CONTEXTUAL), joint, roles, [], np.empty((3, 0, 8))
    )
    assert [p.name for p in contextual.parameters()] == ["mix.w", "mix.gamma"] + rest


def test_build_rejects_a_repeated_parameter_name(monkeypatch):
    import lisa_srl.model as model_module

    made_once = model_module.init_conv_stack

    def made_twice(k, d, prefix, make):
        return made_once(k, d, prefix, make) + made_once(k, d, prefix, make)

    monkeypatch.setattr(model_module, "init_conv_stack", made_twice)
    with pytest.raises(ConfigError, match="duplicate parameter name 'embed.c0.left'"):
        _model(_tiny_corpus())


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
            tape.backward(bundle.srl, bundle.parse, bundle.pos_pred)
        return bundle.total

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
            tape.backward(bundle.srl, bundle.parse, bundle.pos_pred)
        return bundle.total

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
    assert bundle.total == bundle.srl.item() + bundle.pos_pred.item()
    lisa_shapes = [(p.name, p.shape) for p in lisa.parameters()]
    sa_shapes = [(p.name, p.shape) for p in sa.parameters()]
    assert lisa_shapes == sa_shapes


def test_agnostic_variant_rejects_injection():
    corpus = _tiny_corpus()
    sa = _model(corpus, variant=VARIANT_AGNOSTIC)
    with pytest.raises(ConfigError):
        sa.loss(Tape(), corpus[0], source=ParseSource.GOLD)


def test_agnostic_variant_rejects_hardening():
    corpus = _tiny_corpus()
    sa = _model(corpus, variant=VARIANT_AGNOSTIC)
    with pytest.raises(ConfigError, match="no parse head to inject into or harden"):
        sa.forward(Tape(), corpus[0], harden=True)


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


def test_external_source_without_heads_is_one_config_error_before_any_op():
    corpus = _tiny_corpus()
    model = _model(corpus)
    tape = Tape()
    with pytest.raises(ConfigError, match="external parse source needs a heads sequence"):
        model.forward(tape, corpus[0], source=ParseSource.EXTERNAL)
    assert tape._backprops == []


@pytest.mark.parametrize(
    "external, message",
    [
        ([2, 2], "2 heads for 3 tokens"),
        ([2, 2, 2, 2], "4 heads for 3 tokens"),
        ([], "0 heads for 3 tokens"),  # an empty parse is not "no parse"
        ([1, 3, 2], r"head index 3 outside \[0, 3\)"),
        ([1, -1, 2], r"head index -1 outside \[0, 3\)"),
    ],
)
def test_malformed_external_heads_raise_injection_error_through_forward(external, message):
    corpus = _tiny_corpus()
    model = _model(corpus)
    with pytest.raises(InjectionError, match=message):
        model.forward(Tape(), corpus[0], source=ParseSource.EXTERNAL, external_heads=external)


def test_predict_rejects_a_transition_table_over_another_role_space():
    corpus = _tiny_corpus()
    model = _model(corpus)
    other = gen_synthetic(8, 0)
    roles = build_role_space(other)
    assert roles != model.scorer.labels
    table = estimate_transitions(other, roles)
    with pytest.raises(
        CompatibilityError, match="transition table and scorer disagree on the role space"
    ):
        model.predict_sentence(corpus[0], table)


def test_prediction_is_well_formed():
    corpus = gen_synthetic(8, 0)
    joint, roles = _spaces(corpus)
    vocab = sorted({w for s in corpus for w in s.tokens})
    model = LisaModel.build(_config(seed=3), joint, roles, vocab, _pretrained(corpus, 6))
    table = estimate_transitions(corpus, roles)
    for sent in corpus:
        pred = model.predict_sentence(sent, table)
        assert isinstance(pred, SentencePrediction)
        out = pred.sentence
        assert len(out) == len(sent) and out.tokens == sent.tokens
        assert set(out.frames) == set(out.predicate_indices)


def test_parse_source_swap_leaves_parameters_untouched():
    corpus = _tiny_corpus()
    model = _model(corpus)
    _, roles = _spaces(corpus)
    table = estimate_transitions(corpus, roles)
    before = [p.data.copy() for p in model.parameters()]
    model.predict_sentence(corpus[0], table, source=ParseSource.SELF)
    model.predict_sentence(corpus[0], table, source=ParseSource.GOLD)
    model.predict_sentence(
        corpus[0], table, source=ParseSource.EXTERNAL, external_heads=[1, 1, 1]
    )
    for p, values in zip(model.parameters(), before):
        assert np.array_equal(p.data, values), p.name


def test_training_scores_the_gold_predicates_whatever_the_logits():
    corpus = _tiny_corpus()
    model = _model(corpus)
    # every token argmaxes to a predicate, but the gold predicate is token 2
    model.pos_head.bias.data[model.pos_head.labels.of("VB:predicate")] = 50.0
    sent = corpus[1]
    fw = model.forward(Tape(), sent)
    assert decode_pos_pred(fw.pos_logits, model.pos_head.labels)[1] == list(range(len(sent)))
    tape = Tape()
    gold = srl_scores(tape, fw.final, [2], model.scorer)
    expected = srl_loss(tape, gold, [sent.frames[2]], model.scorer.labels)
    assert model.loss(Tape(), sent).srl.item() == expected.item()


def test_hardened_self_parse_consumes_one_hot():
    corpus = _tiny_corpus()
    model = _model(corpus)
    fw = model.forward(Tape(), corpus[1], harden=True)
    consumed = fw.trace.parse_attention
    assert np.array_equal(np.sort(np.unique(consumed)), [0.0, 1.0])
    assert np.array_equal(consumed.sum(axis=1), np.ones(5))


def _default_model():
    """The default configuration on a 40-sentence synthetic corpus."""
    corpus = gen_synthetic(40, 0)
    joint, roles = _spaces(corpus)
    vocab = sorted({w for s in corpus for w in s.tokens})
    model = LisaModel.build(RunConfig(), joint, roles, vocab, _pretrained(corpus, 64))
    return model, estimate_transitions(corpus, roles), corpus


def test_default_training_step_records_few_tape_ops():
    # one fused op per attention layer and per convolution, one bilinear op
    # for all predicates and one cross-entropy op per loss
    model, _, corpus = _default_model()
    counts = []
    for n_predicates in (1, 2):
        sent = next(s for s in corpus if len(s.predicate_indices) == n_predicates)
        tape = Tape()
        model.loss(tape, sent)
        counts.append(len(tape._backprops))
    assert counts[0] == 12
    assert counts[1] == counts[0]


def _record_tapes(monkeypatch) -> list:
    """Every Tape created from now on, in order of creation."""
    tapes = []
    plain_init = Tape.__init__

    def recording_init(self):
        plain_init(self)
        tapes.append(self)

    monkeypatch.setattr(Tape, "__init__", recording_init)
    return tapes


def test_decode_records_few_tape_ops(monkeypatch):
    # a gather op and two residual blocks embed, two ops per encoder layer,
    # and the same count however many predicates the sentence has
    model, transitions, corpus = _default_model()
    joint = model.pos_head.labels
    pred = next(i for i, name in enumerate(joint) if name.endswith(PREDICATE_SUFFIX))
    model.pos_head.bias.data[pred] = 1.0  # every token is a predicate
    tapes = _record_tapes(monkeypatch)
    for sent in corpus[:3]:
        prediction = model.predict_sentence(sent, transitions)
        assert len(prediction.frames) == len(sent)
    counts = [len(tape._backprops) for tape in tapes]
    assert len(counts) == 3
    assert counts[0] == 9
    assert set(counts) == {counts[0]}


def test_contextual_path_records_few_tape_ops(monkeypatch):
    # the scalar mix is one op, and layer 1's attention adds the positions
    corpus = gen_synthetic(40, 0)
    joint, roles = _spaces(corpus)
    stacks = gen_contextual_layers(corpus, 3, 64, 0)
    model = LisaModel.build(RunConfig(embedding=EMBED_CONTEXTUAL), joint, roles, [], stacks[0])
    transitions = estimate_transitions(corpus, roles)
    tapes = _record_tapes(monkeypatch)
    for i in range(3):
        model.loss(Tape(), corpus[i], ctx_layers=stacks[i])
        model.predict_sentence(corpus[i], transitions, ctx_layers=stacks[i])
    steps = [len(tape._backprops) for tape in tapes[0::2]]
    decodes = [len(tape._backprops) for tape in tapes[1::2]]
    assert max(steps) == 10
    assert max(decodes) <= 7


TAPE_OPS = ("attention", "bilinear", "conv_block", "cross_entropy", "gather_add",
            "matmul", "scalar_mix")


def _count_ops(monkeypatch) -> list[str]:
    """The name of every Tape op called from now on, in call order."""
    calls = []
    for name in TAPE_OPS:
        def counted(self, *args, _op=getattr(Tape, name), _name=name, **kwargs):
            calls.append(_name)
            return _op(self, *args, **kwargs)

        monkeypatch.setattr(Tape, name, counted)
    return calls


def test_op_budget_is_12_per_training_step_and_9_per_decode(monkeypatch):
    # counted by name, as the traced benchmark counts them: the static
    # embedding is a gather and two residual blocks, each encoder layer an
    # attention (layer 1's adding the positions) and a convolution, each
    # head one op and each of the three losses one cross-entropy
    model, transitions, corpus = _default_model()
    sent = next(s for s in corpus if len(s.predicate_indices) == 2)
    calls = _count_ops(monkeypatch)
    model.loss(Tape(), sent)
    step = sorted(calls)
    assert step == sorted(
        ["gather_add", "conv_block", "conv_block"]
        + ["attention", "conv_block"] * 2
        + ["matmul", "bilinear"]
        + ["cross_entropy"] * 3
    )
    assert len(step) == 12
    calls.clear()
    joint = model.pos_head.labels
    pred = next(i for i, name in enumerate(joint) if name.endswith(PREDICATE_SUFFIX))
    model.pos_head.bias.data[pred] = 1.0  # every token is a predicate
    assert model.predict_sentence(sent, transitions).sentence.predicate_indices
    assert sorted(calls) == [name for name in step if name != "cross_entropy"]
    assert len(calls) == 9


def test_tape_ops_build_outputs_without_the_finiteness_check(monkeypatch):
    # finiteness is checked on the loss, the gradient norm and the decoded
    # outputs, not by a checked Tensor(...) inside every op
    model, transitions, corpus = _default_model()
    sent = next(s for s in corpus if len(s.predicate_indices) == 2)
    in_ops = []
    checked_init = Tensor.__init__

    def counting_init(self, data):
        caller = sys._getframe(1)
        if isinstance(caller.f_locals.get("self"), Tape):
            in_ops.append(caller.f_code.co_name)
        checked_init(self, data)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    tape = Tape()
    bundle = model.loss(tape, sent)
    model.reset_gradients()
    tape.backward(bundle.srl, bundle.parse, bundle.pos_pred)
    model.predict_sentence(sent, transitions)
    assert in_ops == []


def test_decode_with_a_non_finite_parameter_raises_non_finite_error():
    model, transitions, corpus = _default_model()
    sent = next(s for s in corpus if len(s.predicate_indices) == 2)
    # make every token a predicate, so the role scorer's parameters are used
    labels = list(model.pos_head.labels)
    pred = next(i for i, name in enumerate(labels) if name.endswith(PREDICATE_SUFFIX))
    model.pos_head.bias.data[pred] = 1.0
    assert len(model.predict_sentence(sent, transitions).sentence.predicate_indices) == len(sent)
    for p in model.parameters():
        saved = p.data.flat[0]
        p.data.flat[0] = np.nan
        with pytest.raises(NonFiniteError):
            model.predict_sentence(sent, transitions)
        p.data.flat[0] = saved


def test_contextual_path_forward_and_gradients():
    corpus = _tiny_corpus()
    joint, roles = _spaces(corpus)
    vocab = sorted({w for s in corpus for w in s.tokens})
    rng = np.random.default_rng(5)
    stack = rng.normal(size=(3, 3, 6))
    model = LisaModel.build(
        _config(embedding=EMBED_CONTEXTUAL, seed=4),
        joint, roles, vocab, stack,
    )

    def run(backward=False) -> float:
        tape = Tape()
        bundle = model.loss(tape, corpus[0], ctx_layers=stack)
        if backward:
            tape.backward(bundle.srl, bundle.parse, bundle.pos_pred)
        return bundle.total

    model.reset_gradients()
    run(backward=True)
    assert finite_difference_check(run, model.mix.w, 1e-5) < 1e-4
    assert finite_difference_check(run, model.mix.gamma, 1e-5) < 1e-4
    with pytest.raises(ConfigError):
        model.loss(Tape(), corpus[0])  # missing layer stack
    for other in (stack[:, 1:], stack[..., 1:]):  # a token short, a column short
        with pytest.raises(CompatibilityError, match=r"is not \[L, "):
            model.loss(Tape(), corpus[0], ctx_layers=other)
    with pytest.raises(DimensionError):  # a layer short: the mix has three weights
        model.loss(Tape(), corpus[0], ctx_layers=stack[1:])


def test_one_sgd_step_reduces_loss():
    corpus = _tiny_corpus()
    model = _model(corpus, seed=6, lr=0.1, clip_norm=0.0)
    sent = corpus[1]

    def loss_value() -> float:
        return model.loss(Tape(), sent, source=ParseSource.GOLD).total

    before = loss_value()
    for _ in range(10):
        sgd_step(model, sent, source=ParseSource.GOLD)
    assert loss_value() < before


def _grad_norm(model) -> float:
    squares = 0.0
    for p in model.parameters():
        squares += float((p.grad ** 2).sum())
    return np.sqrt(squares)


@pytest.mark.parametrize("clip_share", [0.5, None])  # clip at half the norm, or no clip
def test_sgd_step_moves_each_parameter_by_the_clipped_gradient(clip_share):
    corpus = _tiny_corpus()
    lr = 0.3
    _, norm = sgd_step(_model(corpus, lr=lr, clip_norm=0.0), corpus[1], source=ParseSource.GOLD)
    clip_norm = float(norm) * clip_share if clip_share else 0.0
    model = _model(corpus, lr=lr, clip_norm=clip_norm)
    before = [p.data.copy() for p in model.parameters()]
    bundle, got = sgd_step(model, corpus[1], source=ParseSource.GOLD)
    # the gradients stay on the parameters; the norm is the one before the clip
    assert got == norm == _grad_norm(model) and np.isfinite(bundle.total)
    scale = lr * (clip_norm / norm) if clip_share else lr
    for p, old in zip(model.parameters(), before):
        np.testing.assert_array_equal(p.data, old - scale * p.grad, err_msg=p.name)


def test_sgd_step_without_a_frame_leaves_the_role_scorer_alone():
    # no frame, no role scores: backward never reaches the scorer, nor the
    # last layer's convolution, which feeds only the scorer, so their
    # parameters keep no gradient and do not move
    corpus = _tiny_corpus()
    no_frame = AnnotatedSentence(*dataclasses.astuple(corpus[1])[:3], {})
    lr = 0.3
    model = _model(corpus + [no_frame], lr=lr, clip_norm=0.0)
    before = [p.data.copy() for p in model.parameters()]
    _, norm = sgd_step(model, no_frame, source=ParseSource.GOLD)
    unreached = ["srl.w_pred", "srl.w_role", "srl.u"]
    unreached += [f"enc.l2.c0.{tap}" for tap in ("left", "center", "right", "bias")]
    squares = 0.0  # left to right over the reached parameters, in their order
    for p, old in zip(model.parameters(), before):
        if p.name in unreached:
            assert p.grad is None
            np.testing.assert_array_equal(p.data, old, err_msg=p.name)
        else:
            squares += float((p.grad ** 2).sum())
            np.testing.assert_array_equal(p.data, old - lr * p.grad, err_msg=p.name)
    assert norm == np.sqrt(squares) > 0.0


@pytest.mark.parametrize("fault", ["loss", "gradient"])
def test_sgd_step_that_diverges_moves_no_parameter(monkeypatch, fault):
    corpus = _tiny_corpus()
    model = _model(corpus)
    if fault == "loss":  # logits past float64's range
        model.pos_head.weight.data[...] = 1e308
    else:
        backward = Tape.backward

        def backward_from_inf(self, *losses):
            for loss in losses:
                loss.grad = np.array(np.inf)  # the seed every other gradient scales
            backward(self, *losses)

        monkeypatch.setattr(Tape, "backward", backward_from_inf)
    before = [p.data.copy() for p in model.parameters()]
    with np.errstate(all="ignore"):
        with pytest.raises(NonFiniteError, match=f"^{fault} diverged$"):
            sgd_step(model, corpus[1], source=ParseSource.GOLD)
    for p, old in zip(model.parameters(), before):
        np.testing.assert_array_equal(p.data, old, err_msg=p.name)


def test_sgd_step_norm_does_not_depend_on_builtin_sum(monkeypatch):
    # Python 3.12's `sum` of floats compensates its rounding, as fsum does;
    # the norm adds left to right on every version
    corpus = _tiny_corpus()

    def step():
        model = _model(corpus, seed=3, clip_norm=1e-3)  # far below the norm: the scale matters
        _, norm = sgd_step(model, corpus[1], source=ParseSource.GOLD)
        return norm, model

    plain, model = step()
    plain_params = [p.data for p in model.parameters()]
    # a step whose norm would change if its squared sums were compensated
    assert np.sqrt(math.fsum(float((p.grad ** 2).sum()) for p in model.parameters())) != plain
    monkeypatch.setattr(builtins, "sum", math.fsum)
    fsummed, model = step()
    monkeypatch.undo()
    assert fsummed == plain > 1e-3
    for a, b in zip(plain_params, model.parameters()):
        np.testing.assert_array_equal(a, b.data)
