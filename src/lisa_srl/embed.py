"""Token vectors: static path, contextual scalar mix, positional encodings.

Both paths return token vectors; encoder layer 1 adds the encodings. The
static path adds a learned residual to fixed pretrained vectors and runs
the sum through K width-3 residual convolutions. The contextual path is one
`Tape.scalar_mix` op, which the model applies to a sentence's frozen layer
stack with its `ScalarMix` weights and global scale; `train` and `predict`
check a `.ctxl` file's stack shape before the first sentence. The frozen
vectors, layers and encodings are constants and take no gradient.
"""

from __future__ import annotations

import functools
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .corpus import BlobReader, CorpusFormatError, names_its_file, text_lines
from .errors import ConfigError
from .numerics import Parameter, Tape, Tensor, new_parameter, softmax

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
        if self.residual.shape[0] != len(self.words):
            raise ConfigError(
                f"residual table has {self.residual.shape[0]} rows for "
                f"{len(self.words)} training words"
            )

    @property
    def dim(self) -> int:
        return int(self.unk.shape[0])

    @classmethod
    def build(
        cls, train_vocab, pretrained: dict[str, np.ndarray], make=new_parameter
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
        residual = make("embed.residual", (len(words), d))
        return cls(words, pretrained, unk, residual)

    def lookup(self, tokens) -> tuple[np.ndarray, list[int]]:
        """Frozen [T, d_w] pretrained (or unk) rows for a sentence, and each
        token's residual row, -1 for a word outside the training vocabulary."""
        base = np.array([self.pretrained.get(w, self.unk) for w in tokens])
        return base, [self.index.get(w, -1) for w in tokens]


def init_conv_stack(
    k: int, d: int, prefix: str, make=new_parameter
) -> list[tuple[Parameter, ...]]:
    """K zero-initialized convolutions, each a (left, center, right, bias)
    tuple of `Tape.conv_block` operands.

    Together with the residual form x + conv3(relu(x)) of the block, zero
    taps make each layer an exact identity at step 0 (depth cannot destroy
    signal) while the relu sits before the convolution, so tap gradients
    are alive from the first step.
    """
    return [
        (
            *(make(f"{prefix}.c{i}.{tap}", (d, d)) for tap in ("left", "center", "right")),
            make(f"{prefix}.c{i}.bias", (d,)),
        )
        for i in range(k)
    ]


def static_embed(tape: Tape, tokens, table: StaticTable, convs) -> Tensor:
    """(pretrained + residual) per token, then K residual convolutions."""
    base, rows = table.lookup(tokens)
    x = tape.gather_add(base, table.residual, rows)
    for conv in convs:
        x = tape.conv_block(x, *conv)
    return x


# ---------------------------------------------------------------------------
# Contextual path


@dataclass
class ScalarMix:
    """Softmax-weighted layer combination scaled by a learned scalar."""

    w: Parameter
    gamma: Parameter

    @classmethod
    def build(cls, n_layers: int, make=new_parameter) -> "ScalarMix":
        return cls(make("mix.w", (1, n_layers)), make("mix.gamma", (), lambda: np.asarray(1.0)))

    @property
    def n_layers(self) -> int:
        return int(self.w.shape[1])

    def coefficients(self) -> np.ndarray:
        return softmax(self.w.data[0])


# ---------------------------------------------------------------------------
# Positional encodings


@functools.lru_cache(maxsize=256)
def positional_encoding(t_len: int, d_model: int) -> np.ndarray:
    """Interleaved sinusoids: even columns sin, odd columns cos; cached, read-only."""
    if d_model % 2 != 0:
        raise ConfigError(f"positional encoding needs even width, got {d_model}")
    pos = np.arange(t_len)[:, None]
    i = np.arange(d_model // 2)[None, :]
    angle = pos / np.power(10000.0, 2.0 * i / d_model)
    out = np.empty((t_len, d_model))
    out[:, 0::2] = np.sin(angle)
    out[:, 1::2] = np.cos(angle)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# Pretrained vector files (text: word then d reals per line)


@names_its_file
def read_vec_file(path) -> dict[str, np.ndarray]:
    table: dict[str, np.ndarray] = {}
    dim = None
    for lineno, raw in text_lines(path):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) < 2:
            raise CorpusFormatError(f"line {lineno}: word with no values")
        if parts[0] in table:
            raise CorpusFormatError(f"line {lineno}: repeats the word {parts[0]!r}")
        try:
            vec = np.array([float(x) for x in parts[1:]])
        except ValueError:
            raise CorpusFormatError(f"line {lineno}: non-numeric value")
        if not np.isfinite(vec).all():
            raise CorpusFormatError(f"line {lineno}: NaN or infinite value")
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
            values = " ".join([VEC_FLOAT_FORMAT] * len(vec)) % tuple(vec.tolist())
            fh.write(f"{word} {values}\n")


# ---------------------------------------------------------------------------
# Contextual layer files (binary, little-endian)


def write_contextual(path, stacks) -> None:
    """Write [L, T, d_c] stacks in corpus order: record i carries id i, and
    the header takes L and d_c from the first stack."""
    if not stacks:
        raise ConfigError("no layer stacks to write")
    n_layers, _, dim = stacks[0].shape
    with open(path, "wb") as fh:
        fh.write(CTXL_MAGIC)
        fh.write(struct.pack("<IIII", CTXL_VERSION, n_layers, dim, len(stacks)))
        for i, arr in enumerate(stacks):
            if arr.shape[0] != n_layers or arr.shape[2] != dim:
                raise ConfigError(f"sentence {i} stack {arr.shape} does not match header")
            sid_bytes = str(i).encode("utf-8")
            fh.write(struct.pack("<I", len(sid_bytes)))
            fh.write(sid_bytes)
            fh.write(struct.pack("<I", arr.shape[1]))
            fh.write(arr.astype("<f4").tobytes())


@names_its_file
def read_contextual(path) -> list[np.ndarray]:
    """The [L, T, d_c] stacks in corpus order; record i must carry id i."""
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
    stacks: list[np.ndarray] = []
    while reader.remaining:
        (sid_len,) = reader.unpack("<I", "sentence id length")
        sid = reader.text(sid_len, "sentence id")
        if sid != str(len(stacks)):
            raise CorpusFormatError(f"record {len(stacks)} carries id {sid!r}, not '{len(stacks)}'")
        (t_len,) = reader.unpack("<I", f"token count of sentence {sid!r}")
        arr = reader.floats("<f4", n_layers * t_len * dim, f"layers of sentence {sid!r}")
        if not np.isfinite(arr).all():
            raise CorpusFormatError(f"layers of sentence {sid!r} hold NaN or infinity")
        stacks.append(arr.reshape(n_layers, t_len, dim))
    if len(stacks) != n_sentences:
        raise CorpusFormatError(f"{len(stacks)} sentence stacks, header says {n_sentences}")
    return stacks


def gen_contextual_layers(sentences, n_layers: int, dim: int, seed: int) -> list[np.ndarray]:
    """Scripted stand-in for a pretrained LM: layer 0 is a word-hash vector,
    each later layer blends neighbors through tanh, so upper layers are
    genuinely contextual while staying deterministic under the seed.
    """
    if n_layers < 1:
        raise ConfigError("need at least one contextual layer")
    out: list[np.ndarray] = []
    word_vectors: dict[str, np.ndarray] = {}  # one draw per word type
    for sent in sentences:
        for word in set(sent.tokens).difference(word_vectors):
            rng = np.random.default_rng([seed, zlib.crc32(word.encode("utf-8"))])
            word_vectors[word] = rng.normal(0.0, 1.0 / np.sqrt(dim), dim)
        stack = [np.stack([word_vectors[word] for word in sent.tokens])]
        for _ in range(n_layers - 1):
            h = stack[-1]
            left = np.vstack([np.zeros((1, dim)), h[:-1]])
            right = np.vstack([h[1:], np.zeros((1, dim))])
            stack.append(np.tanh(0.5 * h + 0.25 * left + 0.25 * right))
        out.append(np.stack(stack))
    return out
