"""Full model assembly: embeddings -> encoder -> task heads -> decoding.

Two variants share every parameter shape: the syntax-informed variant
supervises one attention head on dependency heads and supports parse
injection, while the syntax-agnostic variant trains the same architecture
with no parse supervision and never injects. Swapping the parse source at
prediction time touches no parameters, so a single checkpoint serves
self-predicted, external, and gold parses alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import (
    AnnotatedSentence,
    LabelSpace,
    TransitionTable,
)
from .decode import DecodeProblem, viterbi_decode
from .embed import (
    ScalarMix,
    StaticTable,
    contextual_embed,
    init_conv_stack,
    static_embed,
)
from .encoder import (
    Encoder,
    EncoderConfig,
    ParseSource,
    extract_parse,
    parse_loss,
)
from .errors import CompatibilityError, ConfigError
from .heads import (
    LossBundle,
    PosPredHead,
    SrlScorer,
    decode_pos_pred,
    pos_pred_logits,
    pos_pred_loss,
    srl_loss,
    srl_scores,
    total_loss,
)
from .numerics import Parameter, Tape, Tensor, log_softmax

VARIANT_SYNTAX = "lisa"
VARIANT_AGNOSTIC = "sa"
EMBED_STATIC = "static"
EMBED_CONTEXTUAL = "contextual"


@dataclass(frozen=True)
class ModelConfig:
    variant: str = VARIANT_SYNTAX
    embedding: str = EMBED_STATIC
    encoder: EncoderConfig = EncoderConfig()
    d_role: int = 32
    embed_convs: int = 2  # K for the static path
    n_context_layers: int = 3  # scalar-mix size for the contextual path

    def __post_init__(self) -> None:
        if self.variant not in (VARIANT_SYNTAX, VARIANT_AGNOSTIC):
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.embedding not in (EMBED_STATIC, EMBED_CONTEXTUAL):
            raise ConfigError(f"unknown embedding path {self.embedding!r}")
        if self.d_role < 1:
            raise ConfigError("d_role must be positive")

    @property
    def is_syntactic(self) -> bool:
        return self.variant == VARIANT_SYNTAX


@dataclass
class ForwardOutputs:
    final: Tensor
    trace: object
    pos_logits: Tensor


@dataclass
class SentencePrediction:
    """Everything predict emits for one sentence, as an annotated sentence
    plus the raw pieces evaluation wants individually."""

    sentence: AnnotatedSentence
    heads: list[int]
    predicates: list[int]
    frames: dict[int, tuple[str, ...]]


class LisaModel:
    def __init__(
        self,
        config: ModelConfig,
        encoder: Encoder,
        pos_head: PosPredHead,
        scorer: SrlScorer,
        static_table: StaticTable | None,
        convs: list,
        mix: ScalarMix | None,
    ) -> None:
        self.config = config
        self.encoder = encoder
        self.pos_head = pos_head
        self.scorer = scorer
        self.static_table = static_table
        self.convs = convs
        self.mix = mix
        names = [p.name for p in self.parameters()]
        if len(names) != len(set(names)):
            raise ConfigError("duplicate parameter names in model")

    @classmethod
    def build(
        cls,
        config: ModelConfig,
        joint_space: LabelSpace,
        role_space: LabelSpace,
        train_vocab,
        pretrained: dict[str, np.ndarray] | None,
        seed: int,
    ) -> "LisaModel":
        rng = np.random.default_rng(seed)
        encoder = Encoder.build(config.encoder, rng)
        d_model = config.encoder.d_model
        pos_head = PosPredHead.build(d_model, joint_space)
        scorer = SrlScorer.build(d_model, config.d_role, role_space, rng)
        static_table = None
        convs: list = []
        mix = None
        if config.embedding == EMBED_STATIC:
            if pretrained is None:
                raise ConfigError("static embedding path needs pretrained vectors")
            static_table = StaticTable.build(train_vocab, pretrained)
            if static_table.dim != d_model:
                raise ConfigError(
                    f"pretrained width {static_table.dim} != model width {d_model}"
                )
            convs = init_conv_stack(config.embed_convs, d_model, "embed")
        else:
            mix = ScalarMix.build(config.n_context_layers)
        return cls(config, encoder, pos_head, scorer, static_table, convs, mix)

    # -- parameter plumbing -------------------------------------------------

    def parameters(self) -> list[Parameter]:
        out: list[Parameter] = []
        if self.static_table is not None:
            out.append(self.static_table.residual)
        for layer in self.convs:
            out.extend(layer.parameters())
        if self.mix is not None:
            out.extend([self.mix.w, self.mix.gamma])
        out.extend(self.encoder.parameters())
        out.extend(self.pos_head.parameters())
        out.extend(self.scorer.parameters())
        return out

    def reset_gradients(self) -> None:
        for p in self.parameters():
            p.reset_gradient()

    def checksum(self) -> float:
        return float(sum(np.abs(p.value.data).sum() for p in self.parameters()))

    # -- forward / loss -----------------------------------------------------

    def _injection_heads(
        self, source: ParseSource, sentence: AnnotatedSentence, external_heads
    ):
        """Heads to overwrite the parse attention with, or None to keep it."""
        if source is ParseSource.SELF:
            return None
        if not self.config.is_syntactic:
            raise ConfigError(
                "the syntax-agnostic variant has no parse head to inject into"
            )
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
        if ctx_layers.shape[2] != self.config.encoder.d_model:
            raise ConfigError(
                f"contextual width {ctx_layers.shape[2]} != model width "
                f"{self.config.encoder.d_model}"
            )
        if ctx_layers.shape[1] != len(sentence):
            raise CompatibilityError(
                f"contextual stack covers {ctx_layers.shape[1]} tokens, "
                f"sentence has {len(sentence)}"
            )
        return contextual_embed(tape, ctx_layers, self.mix)

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
        injected = self._injection_heads(source, sentence, external_heads)
        x = self.embed(tape, sentence, ctx_layers)
        final, trace = self.encoder.encode(
            tape, x, injected, harden and self.config.is_syntactic
        )
        pos_logits = pos_pred_logits(
            tape, trace.layer_outputs[self.config.encoder.pos_layer], self.pos_head
        )
        return ForwardOutputs(final, trace, pos_logits)

    def loss(
        self,
        tape: Tape,
        sentence: AnnotatedSentence,
        *,
        source: ParseSource = ParseSource.SELF,
        external_heads=None,
        ctx_layers=None,
        harden: bool = False,
    ) -> LossBundle:
        """Multi-task training loss; predicates are gold during training."""
        fw = self.forward(
            tape,
            sentence,
            source=source,
            external_heads=external_heads,
            ctx_layers=ctx_layers,
            harden=harden,
        )
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
        return total_loss(tape, srl, parse, pos)

    # -- prediction -----------------------------------------------------------

    def predict_sentence(
        self,
        sentence: AnnotatedSentence,
        transitions: TransitionTable,
        *,
        source: ParseSource = ParseSource.SELF,
        external_heads=None,
        ctx_layers=None,
        harden: bool = False,
    ) -> SentencePrediction:
        """Decode POS tags, predicates, dependency heads and role frames."""
        if transitions.labels != self.scorer.labels:
            raise CompatibilityError(
                "transition table and scorer disagree on the role space"
            )
        tape = Tape()
        fw = self.forward(
            tape,
            sentence,
            source=source,
            external_heads=external_heads,
            ctx_layers=ctx_layers,
            harden=harden,
        )
        pos_tags, flags = decode_pos_pred(fw.pos_logits, self.pos_head.labels)
        predicates = [i for i, flag in enumerate(flags) if flag]
        heads = extract_parse(fw.trace.consumed_parse_attention(self.config.encoder))
        scores = srl_scores(tape, fw.final, predicates, self.scorer)
        frames: dict[int, tuple[str, ...]] = {}
        role_space = self.scorer.labels
        for f, emissions in zip(predicates, log_softmax(scores.data)):
            tags = viterbi_decode(DecodeProblem(emissions, transitions))
            # tuples from lists, not generators, here and below: a tuple
            # built from a generator is resized, so freeing it grows
            # CPython's tuple free lists until the next full collection
            frames[f] = tuple([role_space.name(i) for i in tags])
        predicted = AnnotatedSentence(
            sentence.tokens,
            tuple(pos_tags),
            tuple(heads),
            tuple(flags),
            frames,
        )
        return SentencePrediction(predicted, heads, predicates, frames)
