"""Full model assembly: embeddings -> encoder -> task heads -> decoding.

Two variants share every parameter shape: the syntax-informed variant
supervises one attention head on dependency heads and supports parse
injection, while the syntax-agnostic variant trains the same architecture
with no parse supervision and never injects. Swapping the parse source at
prediction time touches no parameters, so a single checkpoint serves
self-predicted, external, and gold parses alike. The model reads its shape,
variant and seed from the run configuration record it was built from, and
its width (and mix size) from the vectors (or `.ctxl` stacks) it embeds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .corpus import (
    AnnotatedSentence,
    LabelSpace,
    TransitionTable,
)
from .decode import viterbi_decode
from .embed import ScalarMix, StaticTable, init_conv_stack, static_embed
from .encoder import Encoder, ParseSource, extract_parse, parse_loss
from .errors import CompatibilityError, ConfigError, NonFiniteError
from .heads import (
    LossBundle,
    PosPredHead,
    SrlScorer,
    decode_pos_pred,
    pos_pred_logits,
    pos_pred_loss,
    srl_loss,
    srl_scores,
)
from .numerics import Parameter, Tape, Tensor, log_softmax, new_parameter

if TYPE_CHECKING:
    from .config import RunConfig

VARIANT_SYNTAX = "lisa"
VARIANT_AGNOSTIC = "sa"
EMBED_STATIC = "static"
EMBED_CONTEXTUAL = "contextual"


@dataclass
class ForwardOutputs:
    final: Tensor
    trace: object
    pos_logits: Tensor


@dataclass
class SentencePrediction:
    """Everything predict emits for one sentence, as an annotated sentence
    plus its `heads` and `frames`, which the benchmark's output checks read;
    evaluation reads only the sentence."""

    sentence: AnnotatedSentence
    heads: list[int]
    frames: dict[int, tuple[str, ...]]


class LisaModel:
    def __init__(
        self,
        config: RunConfig,
        encoder: Encoder,
        pos_head: PosPredHead,
        scorer: SrlScorer,
        static_table: StaticTable | None,
        convs: list,
        mix: ScalarMix | None,
        parameters: list[Parameter],
    ) -> None:
        self.config = config
        self.encoder = encoder
        self.pos_head = pos_head
        self.scorer = scorer
        self.static_table = static_table
        self.convs = convs
        self.mix = mix
        self._parameters = parameters

    @classmethod
    def build(
        cls,
        config: RunConfig,
        joint_space: LabelSpace,
        role_space: LabelSpace,
        train_vocab,
        frozen: dict[str, np.ndarray] | np.ndarray,
        make=new_parameter,
    ) -> "LisaModel":
        """`frozen` sets the width (even, a multiple of `n_heads`): pretrained
        vectors on the static path, one [L, T, d] layer stack on the contextual
        one, whose L sizes the mix and whose d is the width. Draws from
        `config.seed`; `make` creates each parameter, by default a fresh one;
        keeps a copy of `config`. The model's parameters are listed in the
        order they are made."""
        config.validate()
        config = replace(config)
        if isinstance(frozen, np.ndarray) == (config.embedding == EMBED_STATIC):
            raise ConfigError(f"{config.embedding} embedding cannot embed {type(frozen).__name__}")
        made: list[Parameter] = []

        def record(name: str, shape, draw=None) -> Parameter:
            if any(p.name == name for p in made):
                raise ConfigError(f"duplicate parameter name {name!r} in model")
            made.append(make(name, shape, draw))
            return made[-1]

        static_table, convs, mix = None, [], None
        if config.embedding == EMBED_STATIC:
            static_table = StaticTable.build(train_vocab, frozen, record)
            width = static_table.dim
            convs = init_conv_stack(config.embed_convs, width, "embed", record)
        else:
            mix, width = ScalarMix.build(frozen.shape[0], make=record), frozen.shape[-1]
        if width < 1 or width % 2 or width % config.n_heads:  # d_k = width // n_heads
            raise ConfigError(
                f"model width {width} must be positive, even and a multiple of "
                f"n_heads {config.n_heads}"
            )
        rng = np.random.default_rng(config.seed)
        encoder = Encoder.build(config, width, rng, record)
        pos_head = PosPredHead.build(width, joint_space, record)
        scorer = SrlScorer.build(width, config.d_role, role_space, rng, record)
        return cls(config, encoder, pos_head, scorer, static_table, convs, mix, made)

    @property
    def width(self) -> int:
        return int(self.pos_head.weight.shape[0])

    # -- parameter plumbing -------------------------------------------------

    def parameters(self) -> list[Parameter]:
        return self._parameters

    def reset_gradients(self) -> None:
        for p in self.parameters():
            p.reset_gradient()

    # -- forward / loss -----------------------------------------------------

    def _injection_heads(
        self, source: ParseSource, harden: bool, sentence: AnnotatedSentence, external_heads
    ):
        """Heads to overwrite the parse attention with, or None to keep it."""
        if (harden or source is not ParseSource.SELF) and not self.config.is_syntactic:
            raise ConfigError(
                "the syntax-agnostic variant has no parse head to inject into or harden"
            )
        if source is ParseSource.SELF:
            return None
        if source is ParseSource.GOLD:
            return list(sentence.heads)
        if external_heads is None:
            raise ConfigError("external parse source needs a heads sequence")
        return list(external_heads)

    def embed(self, tape: Tape, sentence: AnnotatedSentence, ctx_layers) -> Tensor:
        if self.config.embedding == EMBED_STATIC:
            return static_embed(tape, sentence.tokens, self.static_table, self.convs)
        if ctx_layers is None:
            raise ConfigError("contextual embedding path needs layer stacks")
        if ctx_layers.shape[1:] != (len(sentence), self.width):
            shape = f"[L, {len(sentence)}, {self.width}]"
            raise CompatibilityError(f"contextual stack {ctx_layers.shape} is not {shape}")
        return tape.scalar_mix(self.mix.w, self.mix.gamma, ctx_layers)

    def forward(
        self,
        tape: Tape,
        sentence: AnnotatedSentence,
        *,
        source: ParseSource = ParseSource.SELF,
        external_heads=None,
        ctx_layers=None,
        harden: bool = False,
    ) -> ForwardOutputs:
        """`harden` one-hots the self-predicted parse before downstream use."""
        injected = self._injection_heads(source, harden, sentence, external_heads)
        x = self.embed(tape, sentence, ctx_layers)
        final, trace = self.encoder.encode(tape, x, injected, harden)
        pos_logits = pos_pred_logits(
            tape, trace.layer_outputs[self.config.pos_layer], self.pos_head
        )
        return ForwardOutputs(final, trace, pos_logits)

    def loss(self, tape: Tape, sentence: AnnotatedSentence, **inputs) -> LossBundle:
        """Multi-task training loss; predicates are gold during training.
        `inputs` are the keyword arguments of `forward`."""
        fw = self.forward(tape, sentence, **inputs)
        if self.config.is_syntactic:
            parse = parse_loss(tape, fw.trace.parse_logits, sentence.heads)
        else:
            parse = Tensor(0.0)
        pos = pos_pred_loss(tape, fw.pos_logits, sentence, self.pos_head)
        predicates = sentence.predicate_indices
        scores = srl_scores(tape, fw.final, predicates, self.scorer)
        srl = srl_loss(
            tape, scores, [sentence.frames[f] for f in predicates], self.scorer.labels
        )
        return LossBundle(srl, parse, pos)

    # -- prediction -----------------------------------------------------------

    def predict_sentence(
        self, sentence: AnnotatedSentence, transitions: TransitionTable, **inputs
    ) -> SentencePrediction:
        """Decode POS tags, predicates, dependency heads and role frames;
        `inputs` are the keyword arguments of `forward`."""
        if transitions.labels != self.scorer.labels:
            raise CompatibilityError(
                "transition table and scorer disagree on the role space"
            )
        tape = Tape()
        fw = self.forward(tape, sentence, **inputs)
        pos_tags, predicates = decode_pos_pred(fw.pos_logits, self.pos_head.labels)
        heads = extract_parse(fw.trace.parse_attention)
        scores = srl_scores(tape, fw.final, predicates, self.scorer)
        if not all(np.isfinite(t.data).all() for t in (fw.final, fw.pos_logits, scores)):
            raise NonFiniteError("decode met NaN or infinity in the model's outputs")
        frames: dict[int, tuple[str, ...]] = {}
        if predicates:  # one Viterbi recursion for all frames
            all_tags = viterbi_decode(log_softmax(scores.data), transitions)
            for f, tags in zip(predicates, all_tags):
                # tuples from lists, not generators, here and below: a tuple
                # built from a generator is resized, so freeing it grows
                # CPython's tuple free lists until the next full collection
                frames[f] = tuple([self.scorer.labels.name(i) for i in tags])
        predicted = AnnotatedSentence(sentence.tokens, tuple(pos_tags), tuple(heads), frames)
        return SentencePrediction(predicted, heads, frames)
