"""Task heads: joint classifier, predicate selection, bilinear scoring.

Oracles: analytic bilinear instances, triple loops, finite differences,
and linearity of the summed loss checked parameter-wise.
"""

import numpy as np
import pytest

from conftest import probe_sum
from lisa_srl.corpus import AnnotatedSentence, LabelSpace
from lisa_srl.errors import ContractError
from lisa_srl.numerics import Parameter, Tape, Tensor, finite_difference_check, softmax
from lisa_srl.heads import (
    LossBundle,
    PosPredHead,
    SrlScorer,
    decode_pos_pred,
    pos_pred_logits,
    pos_pred_loss,
    srl_loss,
    srl_scores,
)

JOINT = LabelSpace(["DT", "NN", "VB", "VB:predicate"])
ROLES = LabelSpace(["O", "B-A0", "I-A0"])


def _sentence():
    return AnnotatedSentence(
        ("d0", "n000", "v00"),
        ("DT", "NN", "VB"),
        (1, 2, 2),
        {2: ("B-A0", "I-A0", "O")},
    )


def test_zero_weights_give_uniform_joint_distribution():
    head = PosPredHead.build(5, JOINT)
    logits = pos_pred_logits(Tape(), Tensor(np.random.default_rng(0).normal(size=(3, 5))), head)
    assert np.max(np.abs(softmax(logits.data) - 0.25)) < 1e-12


def test_predicate_set_from_argmax_suffix():
    logits = np.zeros((4, 4))
    logits[0, JOINT.of("DT")] = 5.0
    logits[1, JOINT.of("VB")] = 5.0
    logits[2, JOINT.of("VB:predicate")] = 5.0
    # a tie goes to the lower label index
    logits[3, [JOINT.of("VB"), JOINT.of("VB:predicate")]] = 5.0
    tags, flags = decode_pos_pred(Tensor(logits), JOINT)
    assert tags == ["DT", "VB", "VB", "VB"]
    assert flags == [False, False, True, False]


def test_predicted_mode_empty_when_nothing_argmaxes_to_predicate():
    logits = np.zeros((2, 4))
    logits[:, JOINT.of("NN")] = 3.0
    assert decode_pos_pred(logits, JOINT)[1] == [False, False]


def test_pos_pred_loss_finite_differences():
    rng = np.random.default_rng(2)
    head = PosPredHead.build(4, JOINT)
    head.weight.data[...] = rng.normal(size=(4, 4))
    x = rng.normal(size=(3, 4))
    sent = _sentence()

    def run(backward=False) -> float:
        tape = Tape()
        logits = pos_pred_logits(tape, Tensor(x), head)
        loss = pos_pred_loss(tape, logits, sent, head)
        if backward:
            tape.backward(loss)
        return loss.item()

    for p in (head.weight, head.bias):
        p.reset_gradient()
    run(backward=True)
    for p in (head.weight, head.bias):
        assert finite_difference_check(run, p, 1e-5) < 1e-4


def test_bilinear_scores_analytic_instance():
    # d_r=1, U[0,l,0]=l, both projections the identity on 1-wide inputs:
    # scores for a token with role projection 1 are exactly (0, 1, 2, ...)
    scorer = SrlScorer(
        Parameter("srl.w_pred", [[1.0]]),
        Parameter("srl.w_role", [[1.0]]),
        Parameter("srl.u", np.arange(3.0).reshape(1, 3, 1)),
        ROLES,
    )
    s_final = Tensor([[1.0], [2.0]])
    scores = srl_scores(Tape(), s_final, [0], scorer)
    assert np.array_equal(scores.data, [[[0.0, 1.0, 2.0], [0.0, 2.0, 4.0]]])


def test_zero_bilinear_gives_uniform_roles():
    rng = np.random.default_rng(3)
    scorer = SrlScorer.build(4, 3, ROLES, rng)
    scores = srl_scores(Tape(), Tensor(rng.normal(size=(3, 4))), [1], scorer)
    assert np.max(np.abs(softmax(scores.data[0]) - 1.0 / 3.0)) < 1e-12


def test_bilinear_matches_triple_loop_oracle():
    rng = np.random.default_rng(4)
    d_model, d_r, t_len = 5, 3, 4
    scorer = SrlScorer.build(d_model, d_r, ROLES, rng)
    scorer.u.data[...] = rng.normal(size=scorer.u.shape)
    x = rng.normal(size=(t_len, d_model))
    predicates = [3, 0]
    scores = srl_scores(Tape(), Tensor(x), predicates, scorer)

    role = x @ scorer.w_role.data
    expected = np.zeros((len(predicates), t_len, len(ROLES)))
    for k, f in enumerate(predicates):
        pred = x[f] @ scorer.w_pred.data
        for t in range(t_len):
            for l in range(len(ROLES)):
                for i in range(d_r):
                    for j in range(d_r):
                        expected[k, t, l] += (
                            pred[i] * scorer.u.data[i, l, j] * role[t, j]
                        )
    assert np.max(np.abs(scores.data - expected)) < 1e-12


def test_srl_scores_rejects_bad_predicate_index():
    rng = np.random.default_rng(5)
    scorer = SrlScorer.build(3, 2, ROLES, rng)
    with pytest.raises(ContractError):
        srl_scores(Tape(), Tensor(rng.normal(size=(2, 3))), [2], scorer)


def test_srl_scores_empty_predicates():
    rng = np.random.default_rng(6)
    scorer = SrlScorer.build(3, 2, ROLES, rng)
    tape = Tape()
    scores = srl_scores(tape, Tensor(rng.normal(size=(2, 3))), [], scorer)
    assert scores.shape == (0, 2, len(ROLES))
    assert tape._backprops == []


def test_role_distributions_normalized():
    rng = np.random.default_rng(7)
    scorer = SrlScorer.build(4, 3, ROLES, rng)
    scorer.u.data[...] = rng.normal(size=scorer.u.shape)
    scores = srl_scores(Tape(), Tensor(rng.normal(size=(5, 4))), [0, 3], scorer)
    sums = softmax(scores.data).sum(axis=-1)
    assert np.max(np.abs(sums - 1.0)) <= 1e-9


def test_total_loss_sums_components():
    bundle = LossBundle(Tensor(1.0), Tensor(2.0), Tensor(3.0))
    assert bundle.total == 6.0
    # (srl + parse) + pos, the order the sum was once recorded on the tape
    bundle = LossBundle(Tensor(1e16), Tensor(1.0), Tensor(1.0))
    assert bundle.total == (1e16 + 1.0) + 1.0 != 1e16 + (1.0 + 1.0)


def test_total_gradient_is_sum_of_component_gradients():
    # one backward seeding every part vs separate backward passes per part
    rng = np.random.default_rng(8)
    w = Parameter("w", rng.normal(size=(2, 2)))
    x = Tensor(rng.normal(size=(2, 2)))

    def build(tape):
        h = tape.matmul(x, w, Tensor(np.zeros(2)))
        a = probe_sum(tape, h, x)
        b = probe_sum(tape, tape.matmul(h, h, Tensor(np.zeros(2))))
        c = tape.cross_entropy(h, [1, 0])
        return a, b, c

    tape = Tape()
    components = build(tape)
    w.reset_gradient()
    tape.backward(*components)
    total_grad = w.grad.copy()

    parts = np.zeros_like(total_grad)
    for idx in range(3):
        tape = Tape()
        components = build(tape)
        w.reset_gradient()
        tape.backward(components[idx])
        parts += w.grad
    assert np.max(np.abs(total_grad - parts)) < 1e-12


def test_srl_loss_two_stage_mean():
    # two frames with hand-computed cross-entropies; the sentence loss is
    # the plain mean of the two frame losses
    scores = Tensor(np.log(np.array([
        [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25]],
        [[0.8, 0.1, 0.1], [0.6, 0.2, 0.2]],
    ])))
    frames = [("O", "B-A0"), ("O", "O")]
    tape = Tape()
    loss = srl_loss(tape, scores, frames, ROLES)
    frame0 = -(np.log(0.5) + np.log(0.5)) / 2.0
    frame1 = -(np.log(0.8) + np.log(0.6)) / 2.0
    assert abs(loss.item() - (frame0 + frame1) / 2.0) < 1e-12


def test_srl_loss_empty_is_zero():
    assert srl_loss(Tape(), Tensor(np.zeros((0, 2, 3))), [], ROLES).item() == 0.0
