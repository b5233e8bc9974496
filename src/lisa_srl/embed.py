"""Token vectors: static path, contextual scalar mix, positional encodings.

The static path adds a learned residual to fixed pretrained vectors and
runs the sum through K width-3 residual convolutions. The contextual path
mixes precomputed frozen layer representations with softmax weights and a
global scale. Either way sinusoidal positional encodings are added before
layer 1.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .corpus import BlobReader, CorpusFormatError, text_lines
from .errors import ConfigError
from .numerics import Parameter, Tape, Tensor

VEC_FLOAT_FORMAT = "%.17g"  # round-trips float64 exactly
CTXL_MAGIC = b"CTXL"
CTXL_VERSION = 2


# ---------------------------------------------------------------------------
# Static path


@dataclass
class StaticTable:
    """Fixed pretrained vectors plus a learned residual for training words.

    Residual rows exist only for the training vocabulary; pretrained
    vectors and the unknown-word vector are plain arrays and never receive
    gradient. A word missing from the pretrained map falls back to `unk`.
    """

    words: tuple[str, ...]
    pretrained: dict[str, np.ndarray]
    unk: np.ndarray
    residual: Parameter
    index: dict[str, int] = field(init=False)

    def __post_init__(self) -> None:
        self.index = {w: i for i, w in enumerate(self.words)}
        if self.residual.value.shape[0] != len(self.words):
            raise ConfigError(
                f"residual table has {self.residual.value.shape[0]} rows for "
                f"{len(self.words)} training words"
            )

    @property
    def dim(self) -> int:
        return int(self.unk.shape[0])

    @classmethod
    def build(
        cls, train_vocab, pretrained: dict[str, np.ndarray]
    ) -> "StaticTable":
        """Zero-initialized residual so step-0 vectors equal the pretrained ones."""
        if not pretrained:
            raise ConfigError("empty pretrained map")
        dims = {v.shape for v in pretrained.values()}
        if len(dims) != 1:
            raise ConfigError(f"pretrained vectors disagree on dimension: {dims}")
        (d,) = dims.pop()
        words = tuple(sorted(set(train_vocab)))
        unk = np.mean([pretrained[w] for w in sorted(pretrained)], axis=0)
        residual = Parameter("embed.residual", np.zeros((len(words), d)))
        return cls(words, pretrained, unk, residual)

    def base_rows(self, tokens) -> np.ndarray:
        """Frozen [T, d_w] pretrained (or unk) rows for a sentence."""
        return np.stack(
            [self.pretrained.get(w, self.unk) for w in tokens], axis=0
        )

    def selection(self, tokens) -> np.ndarray:
        """One-hot [T, V] picking each in-vocabulary token's residual row."""
        sel = np.zeros((len(tokens), len(self.words)))
        for t, w in enumerate(tokens):
            row = self.index.get(w)
            if row is not None:
                sel[t, row] = 1.0
        return sel


@dataclass
class ConvLayer:
    """One width-3 convolution given by per-offset matrices and a bias."""

    w_left: Parameter
    w_center: Parameter
    w_right: Parameter
    bias: Parameter

    def parameters(self) -> list[Parameter]:
        return [self.w_left, self.w_center, self.w_right, self.bias]


def init_conv_stack(k: int, d: int, prefix: str) -> list[ConvLayer]:
    """K zero-initialized convolutions.

    Together with the residual form x + conv3(relu(x)) used below, zero
    taps make each layer an exact identity at step 0 (depth cannot destroy
    signal) while the relu sits before the convolution, so tap gradients
    are alive from the first step.
    """
    stack = []
    for i in range(k):
        stack.append(
            ConvLayer(
                Parameter(f"{prefix}.c{i}.left", np.zeros((d, d))),
                Parameter(f"{prefix}.c{i}.center", np.zeros((d, d))),
                Parameter(f"{prefix}.c{i}.right", np.zeros((d, d))),
                Parameter(f"{prefix}.c{i}.bias", np.zeros(d)),
            )
        )
    return stack


def conv3(tape: Tape, x: Tensor, layer: ConvLayer) -> Tensor:
    """Width-3 convolution over rows; out-of-range neighbors read as zero."""
    return tape.conv3(x, *(p.value for p in layer.parameters()))


def conv_stack(tape: Tape, x: Tensor, stack) -> Tensor:
    """Residual nonlinear convolutions: x <- x + conv3(relu(x)), K times."""
    for layer in stack:
        x = tape.add(x, conv3(tape, tape.relu(x), layer))
    return x


def static_embed(tape: Tape, tokens, table: StaticTable, convs) -> Tensor:
    """(pretrained + residual) per token, K residual convolutions, encodings."""
    if convs and convs[0].w_center.value.shape[0] != table.dim:
        raise ConfigError(
            f"conv stack expects width {convs[0].w_center.value.shape[0]}, "
            f"table provides {table.dim}"
        )
    base = Tensor(table.base_rows(tokens))
    picked = tape.matmul(Tensor(table.selection(tokens)), table.residual.value)
    x = tape.add(base, picked)
    x = conv_stack(tape, x, convs)
    return tape.add(x, Tensor(positional_encoding(len(tokens), x.shape[1])))


# ---------------------------------------------------------------------------
# Contextual path


@dataclass
class ScalarMix:
    """Softmax-weighted layer combination scaled by a learned scalar."""

    w: Parameter
    gamma: Parameter

    @classmethod
    def build(cls, n_layers: int, prefix: str = "mix") -> "ScalarMix":
        return cls(
            Parameter(f"{prefix}.w", np.zeros((1, n_layers))),
            Parameter(f"{prefix}.gamma", np.asarray(1.0)),
        )

    @property
    def n_layers(self) -> int:
        return int(self.w.value.shape[1])

    def coefficients(self) -> np.ndarray:
        z = self.w.value.data[0]
        e = np.exp(z - z.max())
        return e / e.sum()


def scalar_mix(tape: Tape, layers: np.ndarray, mix: ScalarMix) -> Tensor:
    """gamma * sum_l softmax(w)_l * layers[l]; gradients reach w and gamma only."""
    if layers.ndim != 3:
        raise ConfigError(f"expected [L, T, d] layer stack, got {layers.shape}")
    if layers.shape[0] != mix.n_layers:
        raise ConfigError(
            f"mix has {mix.n_layers} weights for {layers.shape[0]} layers"
        )
    coeffs = tape.softmax_rows(mix.w.value)
    mixed = tape.mix_layers(coeffs, layers)
    return tape.scale_by(mixed, mix.gamma.value)


def contextual_embed(tape: Tape, layers: np.ndarray, mix: ScalarMix) -> Tensor:
    out = scalar_mix(tape, layers, mix)
    return tape.add(out, Tensor(positional_encoding(*out.shape)))


# ---------------------------------------------------------------------------
# Positional encodings


def positional_encoding(t_len: int, d_model: int) -> np.ndarray:
    """Interleaved sinusoids: even columns sin, odd columns cos."""
    if d_model % 2 != 0:
        raise ConfigError(f"positional encoding needs even width, got {d_model}")
    pos = np.arange(t_len)[:, None]
    i = np.arange(d_model // 2)[None, :]
    angle = pos / np.power(10000.0, 2.0 * i / d_model)
    out = np.empty((t_len, d_model))
    out[:, 0::2] = np.sin(angle)
    out[:, 1::2] = np.cos(angle)
    return out


# ---------------------------------------------------------------------------
# Pretrained vector files (text: word then d reals per line)


def read_vec_file(path) -> dict[str, np.ndarray]:
    table: dict[str, np.ndarray] = {}
    dim = None
    for lineno, raw in text_lines(path):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) < 2:
            raise CorpusFormatError(f"line {lineno}: word with no values")
        try:
            vec = np.array([float(x) for x in parts[1:]])
        except ValueError:
            raise CorpusFormatError(f"line {lineno}: non-numeric value")
        if dim is None:
            dim = vec.shape[0]
        elif vec.shape[0] != dim:
            raise CorpusFormatError(f"line {lineno}: {vec.shape[0]} values, expected {dim}")
        table[parts[0]] = vec
    if not table:
        raise CorpusFormatError("empty vector file")
    return table


def write_vec_file(path, items) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for word, vec in items:
            values = " ".join(VEC_FLOAT_FORMAT % x for x in vec)
            fh.write(f"{word} {values}\n")


# ---------------------------------------------------------------------------
# Contextual layer files (binary, little-endian)


@dataclass
class ContextualStore:
    """Frozen per-sentence layer stacks [L, T, d_c], keyed by sentence id."""

    n_layers: int
    dim: int
    layers: dict[str, np.ndarray]

    def get(self, sentence_id: str) -> np.ndarray:
        if sentence_id not in self.layers:
            raise ConfigError(f"no contextual layers for sentence {sentence_id!r}")
        return self.layers[sentence_id]


def write_contextual(path, store: ContextualStore) -> None:
    with open(path, "wb") as fh:
        fh.write(CTXL_MAGIC)
        header = (CTXL_VERSION, store.n_layers, store.dim, len(store.layers))
        fh.write(struct.pack("<IIII", *header))
        for sid, arr in store.layers.items():
            if arr.shape[0] != store.n_layers or arr.shape[2] != store.dim:
                raise ConfigError(
                    f"sentence {sid!r} stack {arr.shape} does not match header"
                )
            sid_bytes = sid.encode("utf-8")
            fh.write(struct.pack("<I", len(sid_bytes)))
            fh.write(sid_bytes)
            fh.write(struct.pack("<I", arr.shape[1]))
            fh.write(arr.astype("<f4").tobytes())


def read_contextual(path) -> ContextualStore:
    with open(path, "rb") as fh:
        reader = BlobReader(fh.read(), "contextual file")
    magic = reader.take(4, "magic")
    if magic != CTXL_MAGIC:
        raise CorpusFormatError(f"bad magic {magic!r}, expected {CTXL_MAGIC!r}")
    (version,) = reader.unpack("<I", "version")
    if version != CTXL_VERSION:
        raise CorpusFormatError(f"unsupported contextual-file version {version}")
    n_layers, dim, n_sentences = reader.unpack("<III", "header")
    if n_layers < 1:
        raise CorpusFormatError("layer count must be >= 1")
    layers: dict[str, np.ndarray] = {}
    while reader.remaining:
        (sid_len,) = reader.unpack("<I", "sentence id length")
        sid = reader.text(sid_len, "sentence id")
        (t_len,) = reader.unpack("<I", f"token count of sentence {sid!r}")
        arr = reader.floats("<f4", n_layers * t_len * dim, f"layers of sentence {sid!r}")
        layers[sid] = arr.reshape(n_layers, t_len, dim)
    if len(layers) != n_sentences:
        raise CorpusFormatError(f"{len(layers)} sentence stacks, header says {n_sentences}")
    return ContextualStore(n_layers, dim, layers)


def gen_contextual_layers(
    sentences, n_layers: int, dim: int, seed: int
) -> ContextualStore:
    """Scripted stand-in for a pretrained LM: layer 0 is a word-hash vector,
    each later layer blends neighbors through tanh, so upper layers are
    genuinely contextual while staying deterministic under the seed.
    """
    if n_layers < 1:
        raise ConfigError("need at least one contextual layer")
    out: dict[str, np.ndarray] = {}
    for i, sent in enumerate(sentences):
        rows = []
        for word in sent.tokens:
            rng = np.random.default_rng([seed, zlib.crc32(word.encode("utf-8"))])
            rows.append(rng.normal(0.0, 1.0 / np.sqrt(dim), dim))
        stack = [np.stack(rows)]
        for _ in range(n_layers - 1):
            h = stack[-1]
            left = np.vstack([np.zeros((1, dim)), h[:-1]])
            right = np.vstack([h[1:], np.zeros((1, dim))])
            stack.append(np.tanh(0.5 * h + 0.25 * left + 0.25 * right))
        out[str(i)] = np.stack(stack)
    return ContextualStore(n_layers, dim, out)
