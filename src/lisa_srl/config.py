"""Run configuration: the one record that picks the model's shape, its
training and its files. The model and the encoder read their settings from
it directly, and `validate` holds every check on it. The model width d,
each head's width d / n_heads and the size of the contextual scalar mix
are not settings: the model takes them from the vectors it embeds (see
`LisaModel.build`). `parse_source` is one of four parses (`SOURCES`), which
`source` splits into a `ParseSource` and whether to harden it. The record
is readable from `key = value` text files with command-line overrides
applied on top. Fields are ints, floats or strings, and `validate` checks
each value's type first; empty string means "not set" for path fields so
the whole record stays representable in flat text.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass

from .corpus import names_its_file, text_lines
from .encoder import ParseSource
from .errors import ConfigError
from .model import EMBED_CONTEXTUAL, EMBED_STATIC, VARIANT_AGNOSTIC, VARIANT_SYNTAX

VARIANTS = (VARIANT_SYNTAX, VARIANT_AGNOSTIC)
EMBEDDINGS = (EMBED_STATIC, EMBED_CONTEXTUAL)
HARDENED = "hardened"  # the self parse, one-hot before the layers above use it
SOURCES = (ParseSource.SELF.value, HARDENED, ParseSource.EXTERNAL.value, ParseSource.GOLD.value)
# the value types each annotated field takes: a bool is no int, an int is a float
_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


@dataclass
class RunConfig:
    # model shape
    variant: str = VARIANT_SYNTAX
    embedding: str = EMBED_STATIC
    parse_source: str = ParseSource.SELF.value
    n_layers: int = 2
    n_heads: int = 4
    parse_layer: int = 2  # 1-based layer whose head 0 carries the parse
    pos_layer: int = 1  # 1-based layer feeding the POS/predicate classifier
    d_role: int = 32
    embed_convs: int = 2  # K for the static path
    # optimization
    lr: float = 0.02
    clip_norm: float = 5.0  # global gradient-norm ceiling; 0 disables
    gold_mix: float = 1.0  # fraction of training sentences with gold injection
    epochs: int = 20
    early_stop_f1: float = -1.0  # negative disables early stopping
    seed: int = 0
    # input files
    train_path: str = ""
    dev_path: str = ""
    test_path: str = ""
    pretrained_path: str = ""
    train_ctxl_path: str = ""
    dev_ctxl_path: str = ""
    test_ctxl_path: str = ""
    train_heads_path: str = ""
    dev_heads_path: str = ""
    test_heads_path: str = ""
    checkpoint_in: str = ""
    # output files
    checkpoint_out: str = ""
    predictions_path: str = ""
    metrics_path: str = ""

    def validate(self) -> None:
        for name, f in _FIELDS.items():
            if type(getattr(self, name)) not in _TYPES[f.type]:
                raise ConfigError(f"{name}={getattr(self, name)!r} is not {f.type}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.embedding not in EMBEDDINGS:
            raise ConfigError(
                f"embedding must be one of {EMBEDDINGS}, got {self.embedding!r}"
            )
        if self.parse_source not in SOURCES:
            raise ConfigError(
                f"parse_source must be one of {SOURCES}, got {self.parse_source!r}"
            )
        if self.variant == VARIANT_AGNOSTIC and self.parse_source != ParseSource.SELF.value:
            raise ConfigError(
                "the syntax-agnostic variant has no parse head, so parse_source "
                f"{self.parse_source!r} is impossible"
            )
        for name in ("lr", "clip_norm", "early_stop_f1"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.clip_norm < 0:
            raise ConfigError(f"clip_norm cannot be negative, got {self.clip_norm}")
        if not 0.0 <= self.gold_mix <= 1.0:
            raise ConfigError(f"gold_mix must lie in [0, 1], got {self.gold_mix}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.early_stop_f1 > 1.0:
            raise ConfigError(f"early_stop_f1 cannot exceed 1, got {self.early_stop_f1}")
        if self.seed < 0:
            raise ConfigError(f"seed cannot be negative, got {self.seed}")
        if self.n_layers < 1 or self.n_heads < 1:
            raise ConfigError("need at least one layer and one head")
        if not 1 <= self.parse_layer <= self.n_layers:
            raise ConfigError(
                f"parse_layer {self.parse_layer} outside [1, {self.n_layers}]"
            )
        if not 1 <= self.pos_layer <= self.n_layers:
            raise ConfigError(
                f"pos_layer {self.pos_layer} outside [1, {self.n_layers}]"
            )
        if self.d_role < 1:
            raise ConfigError("d_role must be positive")
        if self.embed_convs < 0:
            raise ConfigError(f"embed_convs cannot be negative, got {self.embed_convs}")

    @property
    def is_syntactic(self) -> bool:
        return self.variant == VARIANT_SYNTAX

    def source(self) -> tuple[ParseSource, bool]:
        """The parse source to decode with, and whether to harden it."""
        if self.parse_source == HARDENED:
            return ParseSource.SELF, True
        return ParseSource(self.parse_source), False


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}
PATH_FIELDS = frozenset(name for name in _FIELDS if name.endswith(("_path", "_in", "_out")))


def _coerce(key: str, raw: str):
    kind = _FIELDS[key].type
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(f"cannot parse {key}={raw!r} as {kind}") from None


@names_its_file
def parse_config_file(path) -> dict[str, str]:
    """Flat `key = value` lines; blank lines and full-line # comments skipped."""
    out: dict[str, str] = {}
    for lineno, raw in text_lines(path):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def build_run_config(
    file_values: dict[str, str] | None = None,
    overrides: dict[str, str] | None = None,
) -> RunConfig:
    """Defaults, then config-file values, then explicit overrides."""
    config = RunConfig()
    for mapping in (file_values or {}, overrides or {}):
        for key, raw in mapping.items():
            if key not in _FIELDS:
                raise ConfigError(f"unknown config key {key!r}")
            setattr(config, key, _coerce(key, raw))
    config.validate()
    return config


def require_paths(config: RunConfig, *fields: str) -> None:
    """Check that the named path fields are set and the files exist."""
    for name in fields:
        value = getattr(config, name)
        if not value:
            raise ConfigError(f"{name} is required for this command")
        if not os.path.exists(value):
            raise ConfigError(f"{name}: no such file: {value}")


def require_output(config: RunConfig, name: str) -> None:
    """Check that the output path field `name`, when set, lies in an existing
    directory, is not itself a directory and names no file another path
    field names, before any input is read."""
    path = getattr(config, name)
    if path and not os.path.isdir(os.path.dirname(path) or "."):
        raise ConfigError(f"{name}: no such directory: {os.path.dirname(path)}")
    if path and os.path.isdir(path):
        raise ConfigError(f"{name}: {path} is a directory")
    for other in sorted(PATH_FIELDS - {name}):
        given = getattr(config, other)
        if os.path.exists(path) and os.path.exists(given) and os.path.samefile(path, given):
            raise ConfigError(f"{name} {path} is the file {other} names")
