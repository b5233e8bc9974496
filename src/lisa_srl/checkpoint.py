"""Single-file binary checkpoints.

Layout, all integers little-endian:

    magic  b"LISA"
    u32    format version (currently 2)
    u64    metadata byte length, then that many bytes of UTF-8 JSON
    u32    tensor count
    per tensor, sorted by name:
        u32   name byte length, then the UTF-8 name
        u32   rank
        u64   extent per axis
        f64   data, C order

The JSON metadata carries the run configuration, the step counter, both
label spaces, the training vocabulary and the pretrained word list. The
tensor section carries every learned parameter plus the frozen pretrained
rows, the unknown-word vector and the role-transition model, so a loaded
checkpoint reproduces forward outputs bitwise with no other files present.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .corpus import LabelSpace, TransitionTable
from .errors import CompatibilityError, CorpusFormatError, NonFiniteError
from .model import EMBED_STATIC, LisaModel

CHECKPOINT_MAGIC = b"LISA"
CHECKPOINT_VERSION = 2

_PRETRAINED_KEY = "frozen.pretrained"
_UNK_KEY = "frozen.unk"
_TRANS_KEYS = ("transitions.matrix", "transitions.start", "transitions.end")


@dataclass
class LoadedCheckpoint:
    model: LisaModel
    config: RunConfig
    step: int
    transitions: TransitionTable


def _gather_tensors(model: LisaModel, transitions: TransitionTable) -> dict[str, np.ndarray]:
    tensors = {p.name: np.asarray(p.value.data, dtype=np.float64) for p in model.parameters()}
    if model.static_table is not None:
        table = model.static_table
        rows = np.stack([table.pretrained[w] for w in sorted(table.pretrained)])
        tensors[_PRETRAINED_KEY] = rows.astype(np.float64)
        tensors[_UNK_KEY] = table.unk.astype(np.float64)
    tensors[_TRANS_KEYS[0]] = transitions.matrix
    tensors[_TRANS_KEYS[1]] = transitions.start
    tensors[_TRANS_KEYS[2]] = transitions.end
    return tensors


def save_checkpoint(
    path,
    model: LisaModel,
    config: RunConfig,
    step: int,
    transitions: TransitionTable,
) -> None:
    for p in model.parameters():
        if not np.all(np.isfinite(p.value.data)):
            raise NonFiniteError(f"refusing to checkpoint non-finite parameter {p.name}")
    meta = {
        "config": dataclasses.asdict(config),
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
    with open(path, "wb") as fh:
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


def _read_tensors(blob: bytes, offset: int) -> dict[str, np.ndarray]:
    (count,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        name = blob[offset : offset + name_len].decode("utf-8")
        offset += name_len
        (rank,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        shape = struct.unpack_from(f"<{rank}Q", blob, offset)
        offset += 8 * rank
        n_items = int(np.prod(shape, dtype=np.int64)) if rank else 1
        arr = np.frombuffer(blob, dtype="<f8", count=n_items, offset=offset)
        offset += 8 * n_items
        out[name] = arr.astype(np.float64).reshape(shape)
    if offset != len(blob):
        raise CorpusFormatError(f"{len(blob) - offset} trailing bytes in checkpoint")
    return out


def load_checkpoint(path) -> LoadedCheckpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise CorpusFormatError(
            f"bad checkpoint magic {blob[:4]!r}, expected {CHECKPOINT_MAGIC!r}"
        )
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise CorpusFormatError(f"unsupported checkpoint version {version}")
    (meta_len,) = struct.unpack_from("<Q", blob, 8)
    meta = json.loads(blob[16 : 16 + meta_len].decode("utf-8"))
    tensors = _read_tensors(blob, 16 + meta_len)
    del blob  # the tensors are copies; free the bytes before the model is built

    unknown = sorted(set(meta["config"]) - {f.name for f in dataclasses.fields(RunConfig)})
    if unknown:
        raise CompatibilityError(f"checkpoint config has unknown keys {unknown}")
    config = RunConfig(**meta["config"])
    config.validate()
    joint = LabelSpace(meta["joint_labels"])
    roles = LabelSpace(meta["role_labels"])
    for key in _TRANS_KEYS:
        if key not in tensors:
            raise CompatibilityError(f"checkpoint is missing tensor {key!r}")
    transitions = TransitionTable(
        roles,
        tensors[_TRANS_KEYS[0]],
        tensors[_TRANS_KEYS[1]],
        tensors[_TRANS_KEYS[2]],
    )

    pretrained = None
    expected_extra = set(_TRANS_KEYS)
    if config.embedding == EMBED_STATIC:
        for key in (_PRETRAINED_KEY, _UNK_KEY):
            if key not in tensors:
                raise CompatibilityError(f"checkpoint is missing tensor {key!r}")
        words = meta["pretrained_words"]
        rows = tensors[_PRETRAINED_KEY]
        if len(words) != rows.shape[0]:
            raise CompatibilityError(
                f"{len(words)} pretrained words for {rows.shape[0]} vector rows"
            )
        pretrained = {w: rows[i] for i, w in enumerate(words)}
        expected_extra |= {_PRETRAINED_KEY, _UNK_KEY}

    model = LisaModel.build(
        config.model_config(), joint, roles, meta["train_words"], pretrained, config.seed
    )
    if model.static_table is not None:
        model.static_table.unk = tensors[_UNK_KEY]

    param_names = {p.name for p in model.parameters()}
    saved_names = set(tensors) - expected_extra
    if param_names != saved_names:
        missing = sorted(param_names - saved_names)
        unknown = sorted(saved_names - param_names)
        raise CompatibilityError(
            f"checkpoint/model parameter mismatch; missing={missing} unknown={unknown}"
        )
    for p in model.parameters():
        saved = tensors[p.name]
        if saved.shape != p.value.data.shape:
            raise CompatibilityError(
                f"{p.name}: checkpoint shape {saved.shape} != model {p.value.data.shape}"
            )
        p.value.data = saved
    return LoadedCheckpoint(model, config, int(meta["step"]), transitions)
