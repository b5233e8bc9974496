"""Single-file binary checkpoints.

Layout, all integers little-endian:

    magic  b"LISA"
    u32    format version (currently 4)
    u64    metadata byte length, then that many bytes of UTF-8 JSON
    u32    tensor count
    per tensor, sorted by name:
        u32   name byte length, then the UTF-8 name
        u32   rank
        u64   extent per axis
        f64   data, C order

The JSON metadata carries the model's configuration, the step counter, both
label spaces, the training vocabulary and the pretrained word list. The
configuration leaves out its file paths, so a run writes the same bytes
from any directory; one that fails `validate`, or cannot shape a model, is
a format error of the file. The tensor section carries every learned
parameter plus the frozen pretrained rows (whose mean is the unknown-word
vector) and the role-transition model, so a loaded checkpoint reproduces
forward outputs bitwise with no other files present.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import struct
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .config import PATH_FIELDS, RunConfig
from .corpus import (
    PREDICATE_SUFFIX, BlobReader, LabelSpace, TransitionTable, allowed_moves, names_its_file,
)
from .errors import CompatibilityError, ConfigError, CorpusFormatError, NonFiniteError
from .model import EMBED_STATIC, LisaModel
from .numerics import Parameter

CHECKPOINT_MAGIC = b"LISA"
CHECKPOINT_VERSION = 4

_PRETRAINED_KEY = "frozen.pretrained"
_TRANS_KEYS = ("transitions.matrix", "transitions.start", "transitions.end")
_WORD_LISTS = ("joint_labels", "role_labels", "train_words", "pretrained_words")
_META_KEYS = frozenset({"config", "step", *_WORD_LISTS})


@dataclass
class LoadedCheckpoint:
    model: LisaModel
    step: int
    transitions: TransitionTable


def _gather_tensors(model: LisaModel, transitions: TransitionTable) -> dict[str, np.ndarray]:
    tensors = {p.name: np.asarray(p.data, dtype=np.float64) for p in model.parameters()}
    if model.static_table is not None:
        table = model.static_table
        rows = np.stack([table.pretrained[w] for w in sorted(table.pretrained)])
        tensors[_PRETRAINED_KEY] = rows.astype(np.float64)
    tensors[_TRANS_KEYS[0]] = transitions.matrix
    tensors[_TRANS_KEYS[1]] = transitions.start
    tensors[_TRANS_KEYS[2]] = transitions.end
    return tensors


def save_checkpoint(
    path,
    model: LisaModel,
    step: int,
    transitions: TransitionTable,
) -> None:
    """Write `model.config` with the tensors to a sibling `<path>.tmp`, then
    rename it onto `path`: a failed or interrupted save leaves the
    checkpoint already at `path` whole."""
    for p in model.parameters():
        if not np.all(np.isfinite(p.data)):
            raise NonFiniteError(f"refusing to checkpoint non-finite parameter {p.name}")
    config = dataclasses.asdict(model.config)
    meta = {
        "config": {k: v for k, v in config.items() if k not in PATH_FIELDS},
        "step": int(step),
        "joint_labels": list(model.pos_head.labels),
        "role_labels": list(model.scorer.labels),
        "train_words": list(model.static_table.words) if model.static_table else [],
        "pretrained_words": (
            sorted(model.static_table.pretrained) if model.static_table else []
        ),
    }
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    tensors = _gather_tensors(model, transitions)
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", CHECKPOINT_VERSION))
            fh.write(struct.pack("<Q", len(meta_bytes)))
            fh.write(meta_bytes)
            fh.write(struct.pack("<I", len(tensors)))
            for name in sorted(tensors):
                # asarray keeps 0-d shapes; ascontiguousarray would promote to 1-d
                arr = np.asarray(tensors[name], dtype="<f8", order="C")
                name_bytes = name.encode("utf-8")
                fh.write(struct.pack("<I", len(name_bytes)))
                fh.write(name_bytes)
                fh.write(struct.pack("<I", arr.ndim))
                fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
                fh.write(arr.tobytes())
        os.replace(tmp, path)
    except BaseException:  # an interrupt too
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _read_tensors(reader: BlobReader) -> dict[str, np.ndarray]:
    (count,) = reader.unpack("<I", "tensor count")
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = reader.unpack("<I", "tensor name length")
        name = reader.text(name_len, "tensor name")
        (rank,) = reader.unpack("<I", f"rank of {name}")
        if rank > 32:  # the most axes any numpy version supports
            raise CorpusFormatError(f"tensor {name} has rank {rank}")
        shape = reader.unpack(f"<{rank}Q", f"shape of {name}")
        arr = reader.floats("<f8", math.prod(shape), f"data of {name}").reshape(shape)
        finite = np.isfinite(arr)
        if name in _TRANS_KEYS[:2]:  # matrix and start; any tag may end a sequence
            finite |= arr == -np.inf  # how the transition model forbids a BIO move
        if not finite.all():
            raise CorpusFormatError(f"tensor {name} holds NaN or infinity")
        out[name] = arr
    if reader.remaining:
        raise CorpusFormatError(f"{reader.remaining} trailing bytes in checkpoint")
    return out


def _check_bio_rule(table: TransitionTable) -> None:
    """Role labels that are BIO tags, and -inf exactly where the BIO rule
    forbids a move, as `estimate_transitions` builds the table."""
    wrong = np.isneginf(np.vstack([table.start, table.matrix])) == allowed_moves(table.labels)
    if wrong.any():
        prev, tag = np.argwhere(wrong)[0]
        names = ("start", *table.labels)
        raise CorpusFormatError(
            f"transitions.{'matrix' if prev else 'start'} breaks the BIO rule at"
            f" {names[prev]} -> {names[tag + 1]}"
        )


def _check_metadata_types(meta: dict) -> None:
    """A config object, an int step and lists of distinct words; the config's
    values are held to their fields' types by `RunConfig.validate`."""
    if not isinstance(meta["config"], dict):
        raise CorpusFormatError("checkpoint config is not a JSON object")
    if type(meta["step"]) is not int:
        raise CorpusFormatError(f"checkpoint step {meta['step']!r} is not an int")
    for key in _WORD_LISTS:
        if not isinstance(meta[key], list) or not all(isinstance(w, str) for w in meta[key]):
            raise CorpusFormatError(f"checkpoint {key} is not a list of strings")
        if len(set(meta[key])) < len(meta[key]):
            repeat = next(w for w, n in Counter(meta[key]).items() if n > 1)
            raise CompatibilityError(f"checkpoint {key} repeats {repeat!r}")


def _check_joint_layout(path, labels: list[str]) -> None:
    """As `build_joint_pos_pred_space` lays them out; training needs a twin."""
    twins = {w for w in labels if w.endswith(PREDICATE_SUFFIX)}
    plain = labels[: len(labels) - len(twins)]
    owned = twins.intersection(t + PREDICATE_SUFFIX for t in plain)
    if not twins or labels != sorted(plain) + sorted(owned):
        layout = f"POS tags, sorted, then TAG{PREDICATE_SUFFIX} twins of some of them, sorted"
        raise CompatibilityError(f"{path}: joint_labels are not {layout}")


@names_its_file
def load_checkpoint(path) -> LoadedCheckpoint:
    with open(path, "rb") as fh:
        reader = BlobReader(fh.read(), "checkpoint")
    magic = reader.take(4, "magic")
    if magic != CHECKPOINT_MAGIC:
        raise CorpusFormatError(
            f"bad checkpoint magic {magic!r}, expected {CHECKPOINT_MAGIC!r}"
        )
    (version,) = reader.unpack("<I", "version")
    if version != CHECKPOINT_VERSION:
        raise CorpusFormatError(f"unsupported checkpoint version {version}")
    (meta_len,) = reader.unpack("<Q", "metadata length")
    try:
        meta = json.loads(reader.text(meta_len, "metadata"))
    except json.JSONDecodeError as err:
        raise CorpusFormatError(f"checkpoint metadata is not JSON: {err}") from None
    missing = _META_KEYS - set(meta) if isinstance(meta, dict) else _META_KEYS
    if missing:
        raise CorpusFormatError(f"checkpoint metadata lacks {sorted(missing)}")
    _check_metadata_types(meta)
    _check_joint_layout(path, meta["joint_labels"])
    tensors = _read_tensors(reader)
    del reader  # the tensors are copies; free the bytes before the model is built

    unknown = sorted(set(meta["config"]) - {f.name for f in dataclasses.fields(RunConfig)})
    if unknown:
        raise CompatibilityError(f"checkpoint config has unknown keys {unknown}")
    joint = LabelSpace(meta["joint_labels"])
    roles = LabelSpace(meta["role_labels"])

    def pop(name: str, shape=None) -> np.ndarray:
        if name not in tensors:
            raise CompatibilityError(f"checkpoint is missing tensor {name!r}")
        if shape is not None and tensors[name].shape != tuple(shape):
            raise CompatibilityError(
                f"{name}: checkpoint shape {tensors[name].shape} != model {tuple(shape)}"
            )
        return tensors.pop(name)

    def saved(name: str, shape, draw=None) -> Parameter:
        return Parameter(name, pop(name, shape))

    n = len(roles)
    transitions = TransitionTable(
        roles, *(pop(key, shape) for key, shape in zip(_TRANS_KEYS, [(n, n), (n,), (n,)]))
    )
    _check_bio_rule(transitions)
    config = RunConfig(**meta["config"])
    try:  # the stored config, or the model it shapes, is at fault
        config.validate()
        if config.embedding == EMBED_STATIC:
            words, rows = meta["pretrained_words"], pop(_PRETRAINED_KEY)
            if len(words) != rows.shape[0]:
                raise CompatibilityError(
                    f"{len(words)} pretrained words for {rows.shape[0]} vector rows"
                )
            frozen = dict(zip(words, rows))
        else:  # an empty [L, 0, width] stack: mix.w is [1, L], pos.w [width, |joint|]
            try:
                frozen = np.empty((tensors["mix.w"].shape[1], 0, tensors["pos.w"].shape[0]))
            except (KeyError, IndexError):
                raise CompatibilityError("checkpoint lacks a mix.w or pos.w matrix") from None
        model = LisaModel.build(config, joint, roles, meta["train_words"], frozen, saved)
    except ConfigError as err:
        raise CorpusFormatError(f"checkpoint config: {err}") from None
    if tensors:
        raise CompatibilityError(f"checkpoint holds tensors the model lacks: {sorted(tensors)}")
    return LoadedCheckpoint(model, meta["step"], transitions)
