"""Multi-head self-attention encoder with one syntactically-supervised head.

Positions enter the model once: layer 1 adds sinusoidal encodings to its
input. Each layer runs H scaled dot-product attention heads, with queries,
keys and values d / H wide, then adds a width-3 convolution of them as a
residual feed-forward sublayer. Head 0 of one designated layer carries
the parse: its attention row for token t is trained to put its mass on t's
syntactic head (root attends to itself). A caller may hand `encode` one
`consume` function, which maps that head's own attention to the matrix the
layers above attend with; the model passes the one-hot adjacency of the
parse it decodes under, so the encoder knows layers and not parse sources.
Consuming another parse changes nothing anywhere else, which is what makes
gold-parse oracles possible without retraining. The layer and head counts
and the parse and POS layers are fields of the run configuration record.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .embed import init_conv_stack, positional_encoding
from .errors import InjectionError
from .numerics import Tape, Tensor, new_parameter

if TYPE_CHECKING:
    from .config import RunConfig


class ParseSource(enum.Enum):
    """Where the parse head's consumed attention comes from at run time."""

    SELF = "self"
    EXTERNAL = "external"
    GOLD = "gold"


@dataclass
class EncoderTrace:
    """Per-run record of attention activity for supervision and extraction.

    `attentions[j]` holds layer j's [H, T, T] attention as consumed by value
    attention (so the parse head's matrix is what `consume` returned, when
    one was given); `parse_logits` are always the model's own pre-softmax
    parse scores, and `parse_attention` is the parse head's [T, T] attention
    as the layers above consumed it.
    """

    attentions: dict[int, np.ndarray] = field(default_factory=dict)
    layer_outputs: dict[int, Tensor] = field(default_factory=dict)
    parse_logits: Tensor | None = None
    parse_attention: np.ndarray | None = None


class Encoder:
    """`layers[j - 1]` is layer j's (qkv, conv) pair: qkv [d, 3d] holds each
    head's query | key | value projections side by side, and conv
    is the (left, center, right, bias) tuple of the convolutional sublayer."""

    def __init__(self, config: RunConfig, layers: list[tuple]):
        self.config = config
        self.layers = layers

    @classmethod
    def build(
        cls, config: RunConfig, d: int, rng: np.random.Generator, make=new_parameter
    ) -> "Encoder":
        """Layers of model width `d`, a multiple of n_heads; each head's
        query, key and value are d // n_heads wide, drawn block by block."""
        scale = 1.0 / np.sqrt(d)
        blocks = [(d, d // config.n_heads)] * 3 * config.n_heads

        def draw() -> np.ndarray:
            return np.concatenate([rng.normal(0, scale, b) for b in blocks], axis=1)

        layers = []
        for j in range(1, config.n_layers + 1):
            qkv = make(f"enc.l{j}.qkv", (d, 3 * d), draw)
            (conv,) = init_conv_stack(1, d, f"enc.l{j}", make)
            layers.append((qkv, conv))
        return cls(config, layers)

    def encode(self, tape: Tape, x: Tensor, consume=None) -> tuple[Tensor, EncoderTrace]:
        """Run all layers, layer 1 adding positions; returns outputs and trace.

        `consume`, if given, receives the parse head's own [T, T] attention
        and returns the matrix the layers above attend with in its place.
        """
        cfg = self.config
        trace = EncoderTrace()
        for j, (qkv, conv) in enumerate(self.layers, start=1):
            inject = consume if j == cfg.parse_layer else None
            # H attention heads side by side (m), then m + conv3(relu(m))
            pe = positional_encoding(len(x.data), qkv.shape[0]) if j == 1 else None
            m, logits, trace.attentions[j] = tape.attention(x, qkv, cfg.n_heads, inject, pe)
            if j == cfg.parse_layer:
                trace.parse_logits, trace.parse_attention = logits, trace.attentions[j][0]
            x = trace.layer_outputs[j] = tape.conv_block(m, *conv)
        return x, trace


def parse_adjacency(heads, t_len: int) -> np.ndarray:
    """One-hot matrix with row t hot at heads[t]; the root is a self-loop."""
    if len(heads) != t_len:
        raise InjectionError(f"{len(heads)} heads for {t_len} tokens")
    adj = np.zeros((t_len, t_len))
    for t, h in enumerate(heads):
        if not 0 <= h < t_len:
            raise InjectionError(f"head index {h} outside [0, {t_len})")
        adj[t, h] = 1.0
    return adj


def extract_parse(attention) -> list[int]:
    """Per-token head = argmax attention weight; ties go to the lowest index."""
    return [int(i) for i in np.argmax(attention, axis=1)]


def parse_loss(tape: Tape, parse_logits: Tensor, gold_heads) -> Tensor:
    """Mean over tokens of -log of the attention mass on the gold head.

    Always computed on the model's own pre-injection logits, so the head
    keeps receiving parse supervision even while downstream layers consume
    an injected gold or external parse.
    """
    if len(gold_heads) != parse_logits.shape[0]:
        raise InjectionError(
            f"{len(gold_heads)} gold heads for {parse_logits.shape[0]} tokens"
        )
    return tape.cross_entropy(parse_logits, gold_heads)
