"""Task heads: joint POS/predicate classifier, bilinear SRL scorer, losses.

The POS classifier reads representations from an inner encoder layer and
predicts into the joint space where predicate-bearing tags carry a
":predicate" twin, so one softmax does both tagging and predicate
detection. The SRL scorer projects the final layer into predicate and
role representations and scores every (predicate, token, label) triple
with a rank-3 bilinear operator. Each head is one tape op (`Tape.matmul`
with a bias, `Tape.bilinear` for projections and scores of all predicates)
and each loss one `Tape.cross_entropy`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import PREDICATE_SUFFIX, LabelSpace, joint_label
from .errors import ContractError
from .numerics import Parameter, Tape, Tensor, new_parameter


@dataclass
class PosPredHead:
    weight: Parameter  # [d_model, |joint|]
    bias: Parameter  # [|joint|]
    labels: LabelSpace

    @classmethod
    def build(cls, d_model: int, labels: LabelSpace, make=new_parameter) -> "PosPredHead":
        # zero init: the classifier starts uniform and is symmetric-safe
        # because it is a single linear map over non-degenerate inputs
        return cls(make("pos.w", (d_model, len(labels))), make("pos.b", (len(labels),)), labels)


def pos_pred_logits(tape: Tape, s_pos_layer: Tensor, head: PosPredHead) -> Tensor:
    """Per-token logits over the joint POS/predicate space."""
    return tape.matmul(s_pos_layer, head.weight, head.bias)


def pos_pred_loss(tape: Tape, logits: Tensor, sentence, head: PosPredHead) -> Tensor:
    """Token-averaged cross-entropy against the joint gold labels."""
    gold = [
        head.labels.of(joint_label(tag, t in sentence.frames))
        for t, tag in enumerate(sentence.pos)
    ]
    return tape.cross_entropy(logits, gold)


def decode_pos_pred(logits, labels: LabelSpace) -> tuple[list[str], list[bool]]:
    """Argmax decode into plain POS tags plus predicate flags."""
    data = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    tags, flags = [], []
    for j in data.argmax(axis=1).tolist():
        name = labels.name(j)
        is_pred = name.endswith(PREDICATE_SUFFIX)
        tags.append(name[: -len(PREDICATE_SUFFIX)] if is_pred else name)
        flags.append(is_pred)
    return tags, flags


@dataclass
class SrlScorer:
    w_pred: Parameter  # [d_model, d_r]
    w_role: Parameter  # [d_model, d_r]
    u: Parameter  # [d_r, |roles|, d_r]
    labels: LabelSpace

    @classmethod
    def build(
        cls, d_model: int, d_r: int, labels: LabelSpace, rng: np.random.Generator,
        make=new_parameter,
    ) -> "SrlScorer":
        def draw() -> np.ndarray:
            return rng.normal(0, 1.0 / np.sqrt(d_model), (d_model, d_r))

        return cls(
            make("srl.w_pred", (d_model, d_r), draw),
            make("srl.w_role", (d_model, d_r), draw),
            # zero bilinear operator: role distributions start uniform
            make("srl.u", (d_r, len(labels), d_r)),
            labels,
        )


def srl_scores(tape: Tape, s_final: Tensor, predicates, scorer: SrlScorer) -> Tensor:
    """Bilinear role scores [P, T, |roles|], row k for predicate token predicates[k]."""
    t_len = s_final.shape[0]
    for f in predicates:
        if not 0 <= f < t_len:
            raise ContractError(f"predicate index {f} outside [0, {t_len})")
    if not predicates:
        return Tensor(np.zeros((0, t_len, len(scorer.labels))))
    return tape.bilinear(s_final, predicates, scorer.w_pred, scorer.u, scorer.w_role)


def srl_loss(tape: Tape, scores: Tensor, gold_frames, labels: LabelSpace) -> Tensor:
    """Cross-entropy per (predicate, token), averaged per frame then overall.

    `gold_frames[k]` is the gold tag sequence of score row k. The two-stage
    mean keeps the loss magnitude independent of how many predicates a
    sentence happens to contain.
    """
    if not scores.shape[0]:
        return Tensor(0.0)
    gold = [[labels.of(tag) for tag in frame] for frame in gold_frames]
    return tape.cross_entropy(scores, gold)


@dataclass
class LossBundle:
    """The three multi-task components. Training differentiates their plain
    (unweighted) sum with `tape.backward(srl, parse, pos_pred)`."""

    srl: Tensor
    parse: Tensor
    pos_pred: Tensor

    @property
    def total(self) -> float:
        return (self.srl.item() + self.parse.item()) + self.pos_pred.item()
