"""The error contract: every `LisaError` builds from one message, and every
reader that `names_its_file` decorates begins its errors with its path, once."""

import importlib
import json
import pkgutil
import struct

import pytest

import lisa_srl
from lisa_srl import errors
from lisa_srl.corpus import names_its_file
from lisa_srl.errors import LisaError

MODULES = [importlib.import_module(f"lisa_srl.{m.name}")
           for m in pkgutil.iter_modules(lisa_srl.__path__)]


def _subclasses(cls) -> list[type]:
    return [cls, *(sub for direct in cls.__subclasses__() for sub in _subclasses(direct))]


def _raises(cls):
    @names_its_file
    def read(path):
        raise cls("line 3: bad")

    return read


@pytest.mark.parametrize("cls", _subclasses(LisaError), ids=lambda cls: cls.__name__)
def test_every_lisa_error_builds_from_one_message_and_keeps_its_category(cls):
    # `names_its_file` re-raises an error as `type(err)(f"{path}: {err}")`
    assert str(cls("line 3: bad")) == "line 3: bad"
    with pytest.raises(cls) as caught:
        _raises(cls)("data/x.conll")
    assert type(caught.value) is cls
    assert str(caught.value) == "data/x.conll: line 3: bad"


def test_the_subclass_walk_finds_every_error_class():
    # including those under a subclass, as `OracleSizeError` is
    declared = {obj for obj in vars(errors).values()
                if isinstance(obj, type) and issubclass(obj, LisaError)}
    assert declared == set(_subclasses(LisaError))
    assert errors.OracleSizeError in declared


def _checkpoint_without_twins() -> bytes:
    """A checkpoint whose joint labels hold no `:predicate` twin."""
    meta = {"config": {}, "step": 0, "joint_labels": ["NN"], "role_labels": [],
            "train_words": [], "pretrained_words": []}
    meta_bytes = json.dumps(meta).encode()
    return b"LISA" + struct.pack("<IQ", 4, len(meta_bytes)) + meta_bytes


# decorated reader: (file contents, error class, message after the path)
FAULTS = {
    "checkpoint.load_checkpoint": (
        _checkpoint_without_twins(), "CompatibilityError",
        "joint_labels are not POS tags, sorted, then TAG:predicate twins of some of them, sorted",
    ),
    "config.parse_config_file": (b"seed = 1\nseed = 2\n", "ConfigError",
                                 "line 2: duplicate key 'seed'"),
    "corpus.read_conll_counted": (b"w\tNN\t5\t-\n", "CorpusFormatError",
                                  "line 1: head index 5 outside [0, 1)"),
    "corpus.read_heads_file": (b"0 x\n", "CorpusFormatError", "line 1: bad head index"),
    "embed.read_contextual": (b"NOPE", "CorpusFormatError",
                              "bad magic b'NOPE', expected b'CTXL'"),
    "embed.read_vec_file": (b"w\n", "CorpusFormatError", "line 1: word with no values"),
}


def test_every_decorated_reader_has_a_fault():
    reader_code = names_its_file(lambda path: None).__code__
    decorated = {f"{module.__name__.split('.')[1]}.{name}"
                 for module in MODULES for name, fn in vars(module).items()
                 if getattr(fn, "__code__", None) is reader_code
                 and fn.__module__ == module.__name__}
    assert decorated == set(FAULTS)


@pytest.mark.parametrize("reader", FAULTS)
def test_a_decorated_reader_names_its_path_once(tmp_path, reader):
    contents, kind, message = FAULTS[reader]
    module, name = reader.split(".")
    path = tmp_path / f"input.{name}"
    path.write_bytes(contents)
    with pytest.raises(getattr(errors, kind)) as caught:
        getattr(importlib.import_module(f"lisa_srl.{module}"), name)(path)
    assert str(caught.value) == f"{path}: {message}"
    assert str(caught.value).count(str(tmp_path)) == 1
