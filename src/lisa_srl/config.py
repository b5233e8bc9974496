"""Run configuration: one flat record driving training, prediction and
evaluation, readable from `key = value` text files with command-line
overrides applied on top. Empty string means "not set" for path fields so
the whole record stays representable in flat text.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

from .corpus import text_lines
from .encoder import EncoderConfig, ParseSource
from .errors import ConfigError
from .model import (
    EMBED_CONTEXTUAL,
    EMBED_STATIC,
    VARIANT_AGNOSTIC,
    VARIANT_SYNTAX,
    ModelConfig,
)

VARIANTS = (VARIANT_SYNTAX, VARIANT_AGNOSTIC)
EMBEDDINGS = (EMBED_STATIC, EMBED_CONTEXTUAL)
SOURCES = tuple(s.value for s in ParseSource)


@dataclass
class RunConfig:
    # model shape
    variant: str = VARIANT_SYNTAX
    embedding: str = EMBED_STATIC
    parse_source: str = ParseSource.SELF.value
    n_layers: int = 2
    n_heads: int = 4
    d_k: int = 16
    d_v: int = 16
    d_model: int = 64
    parse_layer: int = 2
    pos_layer: int = 1
    parse_head: int = 0
    d_role: int = 32
    embed_convs: int = 2
    n_context_layers: int = 3
    harden_self_parse: bool = False
    # optimization
    lr: float = 0.02
    clip_norm: float = 5.0  # global gradient-norm ceiling; 0 disables
    gold_mix: float = 1.0  # fraction of training sentences with gold injection
    epochs: int = 20
    shuffle: bool = True
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
        self.model_config()  # encoder/width checks

    def model_config(self) -> ModelConfig:
        """The model and encoder settings, each taken from the same-named field."""

        def pick(cls, **given):
            names = [f.name for f in dataclasses.fields(cls) if f.name not in given]
            return cls(**given, **{name: getattr(self, name) for name in names})

        return pick(ModelConfig, encoder=pick(EncoderConfig))

    def source(self) -> ParseSource:
        return ParseSource(self.parse_source)


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}
_BOOL_WORDS = {
    "true": True, "yes": True, "1": True,
    "false": False, "no": False, "0": False,
}


def _coerce(key: str, raw: str):
    kind = _FIELDS[key].type
    raw = raw.strip()
    try:
        if kind == "bool":
            word = raw.lower()
            if word not in _BOOL_WORDS:
                raise ValueError(raw)
            return _BOOL_WORDS[word]
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(f"cannot parse {key}={raw!r} as {kind}") from None


def parse_config_file(path) -> dict[str, str]:
    """Flat `key = value` lines; blank lines and full-line # comments skipped."""
    out: dict[str, str] = {}
    for lineno, raw in text_lines(path):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
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
