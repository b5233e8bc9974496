"""Configuration, checkpoints, the training pipeline and the CLI."""

import contextlib
import dataclasses
import errno
import hashlib
import io
import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lisa_srl.checkpoint import load_checkpoint, save_checkpoint
from lisa_srl.cli import main
from lisa_srl.config import (
    PATH_FIELDS, SOURCES, RunConfig, build_run_config, parse_config_file,
)
from lisa_srl.corpus import (
    AnnotatedSentence,
    read_conll,
    read_heads_file,
    write_conll,
    write_heads_file,
)
from lisa_srl.embed import (
    gen_contextual_layers,
    read_contextual,
    read_vec_file,
    write_contextual,
)
from lisa_srl.errors import (
    CompatibilityError,
    ConfigError,
    CorpusFormatError,
    EncodingError,
    LisaError,
    NonFiniteError,
)
from lisa_srl.encoder import ParseSource
from lisa_srl.evaluation import corpus_uas, srl_prf
from lisa_srl.model import LisaModel
from lisa_srl.numerics import Tape
from lisa_srl.pipeline import (
    GenSynthParams,
    SplitData,
    _corrupt_heads,
    _predict_corpus,
    evaluate,
    gen_synth,
    load_split,
    predict,
    train,
)
from lisa_srl.synth import roles_from_tree


# ---------------------------------------------------------------------------
# RunConfig


def test_defaults_are_valid():
    build_run_config().validate()


def test_config_file_parsing_and_coercion(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# a comment\n"
        "\n"
        "variant = sa\n"
        "lr=0.25\n"
        "epochs = 7\n"
        "clip_norm = 2\n"
    )
    cfg = build_run_config(parse_config_file(path))
    assert cfg.variant == "sa" and cfg.lr == 0.25
    assert cfg.epochs == 7 and cfg.clip_norm == 2.0


def test_flags_override_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("epochs = 7\nseed = 3\n")
    cfg = build_run_config(parse_config_file(path), {"epochs": "9"})
    assert cfg.epochs == 9 and cfg.seed == 3


def test_config_rejects_bad_input(tmp_path):
    with pytest.raises(ConfigError):
        build_run_config({"no_such_key": "1"})
    with pytest.raises(ConfigError):
        build_run_config({"epochs": "two"})
    with pytest.raises(ConfigError, match="parse_source must be one of"):
        build_run_config({"parse_source": "soft"})
    with pytest.raises(ConfigError):
        build_run_config({"variant": "tree-lstm"})
    with pytest.raises(ConfigError):
        build_run_config({"gold_mix": "1.5"})
    with pytest.raises(ConfigError):
        build_run_config({"gold_mix": "-0.1"})
    with pytest.raises(ConfigError, match="embed_convs"):
        build_run_config({"embed_convs": "-3"})
    # the inputs set the widths and the mix size; head 0 carries the parse;
    # every epoch takes a fresh seeded order; hardening is a parse source
    for key in ("d_model", "d_v", "n_context_layers", "d_k", "parse_head", "shuffle",
                "harden_self_parse"):
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            build_run_config({key: "8"})
    for key in ("lr", "clip_norm", "early_stop_f1"):
        for value in ("nan", "inf", "-inf"):
            with pytest.raises(ConfigError, match=f"{key} must be finite"):
                build_run_config({key: value})
    with pytest.raises(ConfigError, match="seed cannot be negative"):
        build_run_config({"seed": "-1"})
    bad = tmp_path / "bad.cfg"
    bad.write_text("epochs 7\n")
    with pytest.raises(ConfigError, match="bad.cfg: line 1: expected key=value"):
        parse_config_file(bad)
    dup = tmp_path / "dup.cfg"
    dup.write_text("seed = 1\nseed = 2\n")
    with pytest.raises(ConfigError, match="dup.cfg: line 2: duplicate key 'seed'"):
        parse_config_file(dup)


def test_readme_config_tables_match_run_config():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Configuration reference", 1)[1].split("\n## ", 1)[0]
    rows = {}  # field -> default as the README's tables write it
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if not line.startswith("|") or cells[0] in ("key", "-----"):
            continue
        for name in cells[0].replace("`", "").split(","):
            rows[name.strip()] = cells[1].replace("`", "")
    fields = {f.name: f.default for f in dataclasses.fields(RunConfig)}
    unknown = set(rows) - set(fields)
    assert not unknown, f"README names fields RunConfig lacks: {sorted(unknown)}"
    for name, default in fields.items():
        if default == "":  # path fields are listed in prose
            continue
        assert name in rows, f"README tables lack {name}"
        assert rows[name] == str(default), f"README default of {name}: {rows[name]!r}"


def test_readme_parse_source_table_matches_sources():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Parse sources", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("`")[1] for line in section.splitlines() if line.startswith("| `")]
    assert tuple(rows) == SOURCES


def test_run_config_has_no_bool_field():
    assert all(f.type in ("int", "float", "str") for f in dataclasses.fields(RunConfig))


def test_parse_sources_map_to_a_parse_source_and_hardening():
    pairs = {name: build_run_config({"parse_source": name}).source() for name in SOURCES}
    assert pairs == {
        "self": (ParseSource.SELF, False),
        "hardened": (ParseSource.SELF, True),
        "external": (ParseSource.EXTERNAL, False),
        "gold": (ParseSource.GOLD, False),
    }


def test_agnostic_variant_forbids_parse_injection_sources():
    for source in ("hardened", "external", "gold"):
        with pytest.raises(ConfigError, match=f"parse_source '{source}' is impossible"):
            build_run_config({"variant": "sa", "parse_source": source})
    build_run_config({"variant": "sa", "parse_source": "self"})


@pytest.mark.parametrize("field, value, kind", [
    ("lr", "0.1", "float"),
    ("n_heads", 2.0, "int"),
    ("seed", True, "int"),
    ("variant", None, "str"),
])
def test_validate_names_a_field_of_the_wrong_type(field, value, kind):
    with pytest.raises(ConfigError) as err:
        RunConfig(**{field: value}).validate()
    assert str(err.value) == f"{field}={value!r} is not {kind}"


def test_validate_takes_an_int_for_a_float_and_train_checks_types_first():
    RunConfig(lr=1, clip_norm=0, gold_mix=1).validate()
    with pytest.raises(ConfigError, match="lr='0.1' is not float"):
        train(RunConfig(lr="0.1"))


# ---------------------------------------------------------------------------
# Shared fixtures: a small generated data directory and a tiny run config


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    gen_synth(GenSynthParams(
        out_dir=str(out), n_train=14, n_dev=6, n_test=6, seed=5, dim=8,
        heads_error_rate=0.0, with_contextual=True,
    ))
    return out


def _tiny_config(data_dir, tmp_path, **overrides) -> RunConfig:
    values = dict(
        n_layers="2", n_heads="2", parse_layer="2", pos_layer="1", d_role="4",
        lr="0.05", epochs="2", seed="0",
        train_path=str(data_dir / "train.conll"),
        dev_path=str(data_dir / "dev.conll"),
        test_path=str(data_dir / "test.conll"),
        pretrained_path=str(data_dir / "pretrained.vec"),
        checkpoint_out=str(tmp_path / "model.ckpt"),
    )
    values.update({k: str(v) for k, v in overrides.items()})
    return build_run_config(values)


# ---------------------------------------------------------------------------
# gen-synth artifacts


def test_gen_synth_writes_complete_and_deterministic_outputs(tmp_path):
    params_a = GenSynthParams(out_dir=str(tmp_path / "a"), n_train=8, n_dev=4,
                              n_test=4, seed=2, dim=8, heads_error_rate=0.1,
                              with_contextual=True)
    params_b = GenSynthParams(out_dir=str(tmp_path / "b"), n_train=8, n_dev=4,
                              n_test=4, seed=2, dim=8, heads_error_rate=0.1,
                              with_contextual=True)
    written_a = gen_synth(params_a)
    written_b = gen_synth(params_b)
    names = [p.rsplit("/", 1)[1] for p in written_a]
    assert names == [
        "train.conll", "dev.conll", "test.conll", "test-shifted.conll",
        "pretrained.vec",
        "train.heads", "dev.heads", "test.heads", "test-shifted.heads",
        "train.ctxl", "dev.ctxl", "test.ctxl", "test-shifted.ctxl",
    ]
    for pa, pb in zip(written_a, written_b):
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            assert fa.read() == fb.read(), pa
    corpus = read_conll(written_a[0])
    assert len(corpus) == 8
    heads = read_heads_file(tmp_path / "a" / "train.heads")
    assert [len(h) for h in heads] == [len(s) for s in corpus]


def test_corrupted_heads_differ_at_roughly_the_requested_rate(tmp_path):
    gen_synth(GenSynthParams(out_dir=str(tmp_path), n_train=60, n_dev=1,
                             n_test=1, seed=3, dim=8, heads_error_rate=0.3))
    corpus = read_conll(tmp_path / "train.conll")
    heads = read_heads_file(tmp_path / "train.heads")
    total = wrong = 0
    for sent, h in zip(corpus, heads):
        for a, b in zip(sent.heads, h):
            total += 1
            wrong += int(a != b)
    assert 0.2 < wrong / total < 0.4


# SHA-256 of every file of this corpus, as the generator wrote them before
# the corpus-building speed-ups: set-up may get faster, never different
PINNED_GEN_SYNTH = {
    "train.conll": "fed99f1ea5925de3a06a0bb5294cc3cb544bb10e2b6e0155b20fa35eb5ea3296",
    "dev.conll": "a8562128ff5294c6d4c193bf4fe9d0983158d7eb4857eeb68d62e9e2d8df9595",
    "test.conll": "f25f580b52dd790a253f8dc3829b0d5da1fb5e58afd05acb0e67d6e01f8501ad",
    "test-shifted.conll": "e3be0a4e5eb8ffbaae812ed4840519901b7f791c87f4084c51bc6598adf65d13",
    "pretrained.vec": "139567c7a45cdc2a851a452e1bf846acf766fdde0513fb08a3df45ec7fb26bf5",
    "train.heads": "955c85aa331a83ad14b96f92d24d27da727b4173018fc646837eb3eb66bc69f7",
    "dev.heads": "33481da2bd6647b83892f01b94933fe7643ee02f7fee234ab0335d980492f3a1",
    "test.heads": "9a26def1e475f27fb9063a82c58295941969c9efad95803ae8b91ec63b8bef0f",
    "test-shifted.heads": "7d9abefc5da92d1dcacaa80b95fde574eeb0e5f36fe43ab10dd17816a882b4fa",
}


def test_gen_synth_bytes_are_pinned(tmp_path):
    written = gen_synth(GenSynthParams(out_dir=str(tmp_path), n_train=30, n_dev=10,
                                       n_test=20, heads_error_rate=0.15))
    digests = {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
               for p in written}
    assert digests == PINNED_GEN_SYNTH


PINNED_CTXL = {
    "train.ctxl": "1f07ab8bed320df2f4804ffc6657d3e07ab7ae47220682e15ba0107cdd687ad7",
    "dev.ctxl": "a8bfa0d9668d936527fa68a81a8fb130d49e968687f073ba0e0f8cf77b2cbcaa",
    "test.ctxl": "cf43bf034c22628b2f42641882a693d720a1c5e74c85e6dad44229df18dd6150",
    "test-shifted.ctxl": "bc017b27fc0a8059587c5587a5e12812542fa134e93363b250eb2874e7032976",
}


def test_gen_synth_contextual_bytes_are_pinned(tmp_path):
    written = gen_synth(GenSynthParams(out_dir=str(tmp_path), n_train=30, n_dev=10,
                                       n_test=20, seed=5, dim=16, with_contextual=True))
    digests = {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
               for p in written if p.endswith(".ctxl")}
    assert digests == PINNED_CTXL


def test_cli_gen_synth_defaults_are_the_params_defaults(tmp_path, capsys):
    assert main(["gen-synth", "--out-dir", str(tmp_path / "cli")]) == 0
    written = gen_synth(GenSynthParams(out_dir=str(tmp_path / "lib")))
    names = sorted(p.name for p in (tmp_path / "cli").iterdir())
    assert names == sorted(Path(p).name for p in written)
    for name in names:
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()


class _FixedDraws:
    """An rng stand-in: every token is corrupted, every wrong-head draw is k."""

    def __init__(self, k: int) -> None:
        self.k, self.bounds = k, []

    def random(self) -> float:
        return 0.0

    def integers(self, n: int) -> int:
        self.bounds.append(n)
        return self.k


def _same_heads(t: int, gold: int) -> AnnotatedSentence:
    return AnnotatedSentence(("w",) * t, ("NN",) * t, (gold,) * t)


def test_wrong_head_pick_is_the_kth_head_other_than_gold():
    for t in range(2, 9):
        for gold in range(t):
            # the candidate list the generator once built for each token
            candidates = [h for h in range(t) if h != gold]
            for k in range(t - 1):
                rng = _FixedDraws(k)
                assert _corrupt_heads([_same_heads(t, gold)], 1.0, rng) == [[candidates[k]] * t]
                assert rng.bounds == [t - 1] * t
    # a one-token sentence has no wrong head and draws nothing
    rng = _FixedDraws(0)
    assert _corrupt_heads([_same_heads(1, 0)], 1.0, rng) == [[0]] and rng.bounds == []


# ---------------------------------------------------------------------------
# Training


def test_train_smoke_loss_decreases_and_logs_are_fixed_format(data_dir, tmp_path):
    config = _tiny_config(data_dir, tmp_path, epochs=5)
    result = train(config)
    assert len(result.log_lines) == 5
    first = dict(kv.split("=") for kv in result.log_lines[0].split())
    last = dict(kv.split("=") for kv in result.log_lines[-1].split())
    assert set(first) == {"epoch", "loss", "srl", "parse", "pos", "dev_f1"}
    assert float(last["loss"]) < float(first["loss"])
    assert result.steps == 5 * 14


def test_training_is_deterministic(data_dir, tmp_path):
    config = _tiny_config(data_dir, tmp_path)
    result_a = train(config)
    bytes_a = (tmp_path / "model.ckpt").read_bytes()
    result_b = train(config)
    bytes_b = (tmp_path / "model.ckpt").read_bytes()
    assert result_a.log_lines == result_b.log_lines
    assert bytes_a == bytes_b


def test_best_dev_checkpoint_reproduces_best_dev_f1(data_dir, tmp_path):
    config = _tiny_config(data_dir, tmp_path, epochs=4)
    result = train(config)
    loaded = load_checkpoint(config.checkpoint_out)
    dev = load_split(config, "dev")
    predictions = _predict_corpus(
        loaded.model, dev, loaded.transitions, *config.source()
    )
    f1 = srl_prf(dev.corpus, predictions)[2]
    assert f1 == result.best_dev_f1


def test_a_loaded_checkpoint_decodes_without_gradients(data_dir, tmp_path):
    # decode runs no backward, so a model that never trains holds no gradient
    config = _tiny_config(data_dir, tmp_path, epochs=1)
    train(config)
    loaded = load_checkpoint(config.checkpoint_out)
    sent = read_conll(config.test_path)[0]
    heads = read_heads_file(data_dir / "test.heads")[0]
    for name in ("self", "hardened", "external", "gold"):
        source, harden = build_run_config({"parse_source": name}).source()
        loaded.model.predict_sentence(
            sent, loaded.transitions, source=source, harden=harden, external_heads=heads
        )
        assert [p.name for p in loaded.model.parameters() if p.grad is not None] == [], name


def test_a_trained_model_holds_no_gradients(data_dir, tmp_path):
    # train's result, like a loaded checkpoint, keeps no last-step gradient
    result = train(_tiny_config(data_dir, tmp_path, epochs=1, checkpoint_out=""))
    assert result.steps > 0
    assert [p.name for p in result.model.parameters() if p.grad is not None] == []


def test_agnostic_training_logs_zero_parse_loss(data_dir, tmp_path):
    config = _tiny_config(data_dir, tmp_path, variant="sa", checkpoint_out="")
    result = train(config)
    for line in result.log_lines:
        assert " parse=0 " in line


def test_gold_mix_blends_injection_sources(data_dir, tmp_path):
    pure = train(_tiny_config(data_dir, tmp_path, parse_source="gold",
                              checkpoint_out=""))
    mixed_a = train(_tiny_config(data_dir, tmp_path, parse_source="gold",
                                 gold_mix=0.5, checkpoint_out=""))
    mixed_b = train(_tiny_config(data_dir, tmp_path, parse_source="gold",
                                 gold_mix=0.5, checkpoint_out=""))
    assert mixed_a.log_lines == mixed_b.log_lines
    assert mixed_a.log_lines != pure.log_lines


def test_gold_mix_is_inert_without_gold_injection(data_dir, tmp_path):
    plain = train(_tiny_config(data_dir, tmp_path, checkpoint_out=""))
    mixed = train(_tiny_config(data_dir, tmp_path, gold_mix=0.5,
                               checkpoint_out=""))
    assert mixed.log_lines == plain.log_lines


def test_divergence_aborts_and_keeps_previous_checkpoint(data_dir, tmp_path):
    config = _tiny_config(data_dir, tmp_path, epochs=1)
    train(config)
    good_bytes = (tmp_path / "model.ckpt").read_bytes()
    # after one clipped step parameters sit near lr * clip_norm, so any
    # lr past ~1e154 overflows float64 in the first attention product
    bad = _tiny_config(data_dir, tmp_path, lr=1e154, epochs=3)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError):
            train(bad)
    assert (tmp_path / "model.ckpt").read_bytes() == good_bytes


@pytest.mark.parametrize("fault", [OSError(errno.ENOSPC, "disk full"), KeyboardInterrupt()])
def test_a_failed_save_leaves_the_previous_checkpoint_whole(
    data_dir, tmp_path, monkeypatch, fault
):
    config = _tiny_config(data_dir, tmp_path, epochs=1)
    result = train(config)
    path = tmp_path / "model.ckpt"
    good_bytes = path.read_bytes()

    class FailingFile:
        """Opens its file, then fails at the first write."""

        def __init__(self, name, mode):
            self.fh = open(name, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            raise fault

    monkeypatch.setattr("lisa_srl.checkpoint.open", FailingFile, raising=False)
    with pytest.raises(type(fault)):
        save_checkpoint(path, result.model, result.steps, result.transitions)
    assert path.read_bytes() == good_bytes
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


@pytest.mark.parametrize("clip_norm", [5.0, 0.0])
def test_non_finite_gradient_aborts_before_the_update(
    data_dir, tmp_path, monkeypatch, clip_norm
):
    backward = Tape.backward

    def backward_from_inf(self, *losses):
        for loss in losses:
            loss.grad = np.array(np.inf)  # the seeds every other gradient scales
        backward(self, *losses)

    monkeypatch.setattr(Tape, "backward", backward_from_inf)
    with np.errstate(invalid="ignore"):
        with pytest.raises(NonFiniteError, match="gradient diverged at epoch 1, sentence"):
            train(_tiny_config(
                data_dir, tmp_path, epochs=1, checkpoint_out="", clip_norm=clip_norm
            ))


def test_early_stop_halts_at_threshold(data_dir, tmp_path):
    config = _tiny_config(data_dir, tmp_path, early_stop_f1=0.0, checkpoint_out="")
    result = train(config)
    assert len(result.log_lines) == 1  # any dev F1 >= 0 stops after epoch 1


def test_contextual_training_path(data_dir, tmp_path):
    config = _tiny_config(
        data_dir, tmp_path,
        embedding="contextual",
        train_ctxl_path=data_dir / "train.ctxl",
        dev_ctxl_path=data_dir / "dev.ctxl",
        checkpoint_out=tmp_path / "ctx.ckpt",
        epochs=2,
    )
    result = train(config)
    assert len(result.log_lines) == 2
    loaded = load_checkpoint(tmp_path / "ctx.ckpt")
    assert loaded.model.static_table is None
    assert loaded.model.mix is not None


# ---------------------------------------------------------------------------
# Checkpoint round-trips


def test_checkpoint_round_trip_is_bitwise(data_dir, tmp_path):
    # one epoch, so the in-memory model is exactly the saved best-dev state
    config = _tiny_config(data_dir, tmp_path, epochs=1)
    result = train(config)
    loaded = load_checkpoint(config.checkpoint_out)
    model_params = {p.name: p.data for p in result.model.parameters()}
    for p in loaded.model.parameters():
        assert np.array_equal(p.data, model_params[p.name]), p.name
    assert loaded.step == result.steps
    assert loaded.model.config == dataclasses.replace(
        config, train_path="", dev_path="", test_path="", pretrained_path="", checkpoint_out=""
    )
    assert np.array_equal(loaded.transitions.matrix, result.transitions.matrix)
    assert np.array_equal(loaded.transitions.start, result.transitions.start)
    assert loaded.transitions.labels == result.transitions.labels

    # unk is the mean of the pretrained rows, so the file does not store it
    assert "frozen.unk" not in _tensor_records(Path(config.checkpoint_out).read_bytes())
    assert np.array_equal(loaded.model.static_table.unk, result.model.static_table.unk)

    probe = read_conll(config.dev_path)[:3]
    # a word that no .vec row covers is embedded through unk
    probe.append(dataclasses.replace(probe[0], tokens=("unseen", *probe[0].tokens[1:])))
    for sent in probe:
        a = result.model.loss(Tape(), sent).total
        b = loaded.model.loss(Tape(), sent).total
        assert a == b  # bitwise, not approx


@pytest.mark.parametrize("embedding", ["static", "contextual"])
def test_checkpoint_bytes_do_not_depend_on_the_run_directory(data_dir, tmp_path, embedding):
    blobs = []
    for run in ("a", "run-b"):
        work = tmp_path / run
        shutil.copytree(data_dir, work)
        config = _tiny_config(
            work, work, embedding=embedding, epochs=1,
            train_ctxl_path=work / "train.ctxl", dev_ctxl_path=work / "dev.ctxl",
        )
        train(config)
        blobs.append((work / "model.ckpt").read_bytes())
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("overrides", [
    dict(parse_source="gold", gold_mix=0.25),
    dict(variant="sa"),
    dict(embedding="contextual", train_ctxl_path="train.ctxl", dev_ctxl_path="dev.ctxl"),
], ids=["lisa", "sa", "contextual"])
def test_resaving_a_loaded_checkpoint_writes_its_bytes(data_dir, tmp_path, overrides):
    overrides = {k: data_dir / v if k.endswith("_path") else v for k, v in overrides.items()}
    config = _tiny_config(data_dir, tmp_path, **overrides)
    train(config)
    loaded = load_checkpoint(config.checkpoint_out)
    save_checkpoint(tmp_path / "again.ckpt", loaded.model, loaded.step, loaded.transitions)
    assert (tmp_path / "again.ckpt").read_bytes() == Path(config.checkpoint_out).read_bytes()
    assert loaded.model.config == dataclasses.replace(
        config, **{name: "" for name in PATH_FIELDS}
    )


def test_checkpoint_rejects_bad_magic_and_version(tmp_path):
    path = tmp_path / "x.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CorpusFormatError, match="magic"):
        load_checkpoint(path)
    # version 2 stored frozen.unk and removed settings, version 3 harden_self_parse
    for version in (1, 2, 3, 99):
        path.write_bytes(b"LISA" + struct.pack("<I", version) + b"\x00" * 16)
        with pytest.raises(CorpusFormatError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: unsupported checkpoint version {version}"


def _tensor_records(blob: bytes) -> dict[str, tuple[int, int, int]]:
    """Checkpoint tensor name -> (record start, data start, record end)."""
    (meta_len,) = struct.unpack_from("<Q", blob, 8)
    (count,) = struct.unpack_from("<I", blob, 16 + meta_len)
    offset = 16 + meta_len + 4
    records = {}
    for _ in range(count):
        start = offset
        (name_len,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        name = blob[offset : offset + name_len].decode()
        offset += name_len
        (rank,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        shape = struct.unpack_from(f"<{rank}Q", blob, offset)
        offset += 8 * rank
        data = offset
        offset += 8 * (int(np.prod(shape)) if rank else 1)
        records[name] = (start, data, offset)
    return records


def _drop_tensor(blob: bytes, victim: str) -> bytes:
    """Re-encode a checkpoint without one named tensor."""
    (meta_len,) = struct.unpack_from("<Q", blob, 8)
    head_end = 16 + meta_len
    records = _tensor_records(blob)
    start, _, end = records[victim]
    return (
        blob[:head_end] + struct.pack("<I", len(records) - 1)
        + blob[head_end + 4 : start] + blob[end:]
    )


def test_checkpoint_with_missing_tensor_is_incompatible(data_dir, tmp_path):
    config = _tiny_config(data_dir, tmp_path, epochs=1)
    train(config)
    blob = (tmp_path / "model.ckpt").read_bytes()
    broken = tmp_path / "broken.ckpt"
    broken.write_bytes(_drop_tensor(blob, "pos.b"))
    with pytest.raises(CompatibilityError, match="pos.b"):
        load_checkpoint(broken)


@pytest.mark.parametrize("change", ["extra", "reshape"])
def test_checkpoint_with_foreign_or_misshapen_tensor_is_incompatible(
    data_dir, tmp_path, change
):
    config = _tiny_config(data_dir, tmp_path, epochs=1)
    train(config)
    blob = (tmp_path / "model.ckpt").read_bytes()
    start, data, end = _tensor_records(blob)["pos.b"]
    (extent,) = struct.unpack_from("<Q", blob, data - 8)
    count_at = 16 + struct.unpack_from("<Q", blob, 8)[0]
    if change == "extra":  # a copy of pos.b named pos.x appended
        (count,) = struct.unpack_from("<I", blob, count_at)
        record = blob[start:end].replace(b"pos.b", b"pos.x", 1)
        blob = blob[:count_at] + struct.pack("<I", count + 1) + blob[count_at + 4 :] + record
        match = "pos.x"
    else:  # pos.b one entry short
        blob = (
            blob[: data - 8] + struct.pack("<Q", extent - 1)
            + blob[data : data + 8 * (extent - 1)] + blob[end:]
        )
        match = "pos.b: checkpoint shape"
    broken = tmp_path / "broken.ckpt"
    broken.write_bytes(blob)
    with pytest.raises(CompatibilityError, match=match):
        load_checkpoint(broken)


def _replace_tensor(blob: bytes, name: str, arr: np.ndarray) -> bytes:
    """Re-encode a checkpoint with one named tensor's record rewritten."""
    start, _, end = _tensor_records(blob)[name]
    record = (
        struct.pack("<I", len(name)) + name.encode() + struct.pack("<I", arr.ndim)
        + struct.pack(f"<{arr.ndim}Q", *arr.shape) + arr.astype("<f8").tobytes()
    )
    return blob[:start] + record + blob[end:]


@pytest.mark.parametrize("name", ["transitions.matrix", "transitions.start", "transitions.end"])
def test_cli_transitions_that_do_not_fit_the_roles_are_one_compatibility_line(
    data_dir, tmp_path, capsys, name
):
    config = _tiny_config(data_dir, tmp_path, epochs=1)
    train(config)
    original = getattr(load_checkpoint(config.checkpoint_out).transitions, name.split(".")[1])
    short = original[(slice(-1),) * original.ndim]  # one role fewer on every axis
    broken = tmp_path / "broken.ckpt"
    broken.write_bytes(_replace_tensor((tmp_path / "model.ckpt").read_bytes(), name, short))
    with pytest.raises(CompatibilityError, match=f"{name}: checkpoint shape"):
        load_checkpoint(broken)
    capsys.readouterr()
    code = main(["predict", "--checkpoint-in", str(broken),
                 "--test-path", str(data_dir / "test.conll"),
                 "--predictions-path", str(tmp_path / "pred.conll")])
    assert code == 1
    assert name in _one_error_line(capsys, "compatibility")
    assert not (tmp_path / "pred.conll").exists()


@pytest.mark.parametrize("tamper", ["start and matrix", "matrix", "a valid move"])
def test_cli_transitions_against_the_bio_rule_are_one_format_line(
    data_dir, tmp_path, capsys, tamper
):
    # a table that opens a frame on I-X, or moves from O to I-X, decodes
    # frames that the strict reader rejects; one that forbids B-X -> I-X
    # cannot decode a span of two tokens
    config = _tiny_config(data_dir, tmp_path, epochs=1)
    train(config)
    table = load_checkpoint(config.checkpoint_out).transitions
    inside = next(label for label in table.labels if label.startswith("I-"))
    o, b, i = (table.labels.of(x) for x in ("O", "B" + inside[1:], inside))
    matrix, start = table.matrix.copy(), table.start.copy()
    if tamper == "a valid move":
        matrix[b, i] = -np.inf
        fault = f"transitions.matrix breaks the BIO rule at B{inside[1:]} -> {inside}"
    else:
        matrix[o, i] = start[i] = 5.0
        fault = f"transitions.matrix breaks the BIO rule at O -> {inside}"
    blob = (tmp_path / "model.ckpt").read_bytes()
    blob = _replace_tensor(blob, "transitions.matrix", matrix)
    if tamper == "start and matrix":  # the start entry is named first
        blob = _replace_tensor(blob, "transitions.start", start)
        fault = f"transitions.start breaks the BIO rule at start -> {inside}"
    broken = tmp_path / "broken.ckpt"
    broken.write_bytes(blob)
    capsys.readouterr()
    code = main(["predict", "--checkpoint-in", str(broken),
                 "--test-path", str(data_dir / "test.conll"),
                 "--predictions-path", str(tmp_path / "pred.conll")])
    assert code == 1
    assert _one_error_line(capsys, "corpus-format") == (
        f"error category=corpus-format: {broken}: {fault}"
    )
    assert not (tmp_path / "pred.conll").exists()


def test_cli_checkpoint_role_label_that_is_no_bio_tag_is_one_format_line(
    data_dir, tmp_path, capsys
):
    malformed = []

    def edit(meta):
        labels = meta["role_labels"]
        at = next(k for k, label in enumerate(labels) if label.startswith("B-"))
        labels[at] = "Q" + labels[at][1:]
        malformed.append(labels[at])

    broken = _patched_metadata(data_dir, tmp_path, edit)
    capsys.readouterr()
    code = main(["predict", "--checkpoint-in", str(broken),
                 "--test-path", str(data_dir / "test.conll"),
                 "--predictions-path", str(tmp_path / "pred.conll")])
    assert code == 1
    assert _one_error_line(capsys, "corpus-format") == (
        f"error category=corpus-format: {broken}: malformed BIO tag {malformed[0]!r}"
    )
    assert not (tmp_path / "pred.conll").exists()


def _rename_twins(labels, suffix):
    return [label.replace(":predicate", suffix) for label in labels]


@pytest.mark.parametrize("tamper", [
    lambda labels: _rename_twins(labels, ":predicatX"),
    lambda labels: labels[-1:] + labels[:-1],
    lambda labels: labels[:-1] + ["~~:predicate"],  # sorts last; no POS tag ~~
    lambda labels: sorted(_rename_twins(labels, "_p")),
], ids=["renamed", "reordered", "orphan twin", "no twin"])
def test_cli_checkpoint_joint_labels_out_of_layout_are_one_compatibility_line(
    data_dir, tmp_path, capsys, tamper
):
    # any other layout decodes every predicate wrong, and evaluate reads 0
    def edit(meta):
        meta["joint_labels"] = tamper(meta["joint_labels"])

    broken = _patched_metadata(data_dir, tmp_path, edit)
    capsys.readouterr()
    code = main(["predict", "--checkpoint-in", str(broken),
                 "--test-path", str(data_dir / "test.conll"),
                 "--predictions-path", str(tmp_path / "pred.conll")])
    assert code == 1
    assert _one_error_line(capsys, "compatibility") == (
        f"error category=compatibility: {broken}: joint_labels are not POS tags, sorted,"
        " then TAG:predicate twins of some of them, sorted"
    )
    assert not (tmp_path / "pred.conll").exists()


@pytest.mark.parametrize("key, value, message", [
    ("epochs", 0, "epochs must be >= 1, got 0"),
    ("lr", "0.1", "lr='0.1' is not float"),
    ("n_heads", 3, "model width 8 must be positive, even and a multiple of n_heads 3"),
])
def test_cli_checkpoint_with_an_invalid_stored_config_is_one_format_line(
    data_dir, tmp_path, capsys, key, value, message
):
    # the stored config is at fault, not a flag of the command
    def edit(meta):
        meta["config"][key] = value

    broken = _patched_metadata(data_dir, tmp_path, edit)
    capsys.readouterr()
    code = main(["predict", "--checkpoint-in", str(broken),
                 "--test-path", str(data_dir / "test.conll"),
                 "--predictions-path", str(tmp_path / "pred.conll")])
    assert code == 1
    assert _one_error_line(capsys, "corpus-format") == (
        f"error category=corpus-format: {broken}: checkpoint config: {message}"
    )
    assert not (tmp_path / "pred.conll").exists()


def _metadata(blob: bytes) -> dict:
    (meta_len,) = struct.unpack_from("<Q", blob, 8)
    return json.loads(blob[16 : 16 + meta_len])


def _with_metadata(blob: bytes, meta: dict) -> bytes:
    """A checkpoint's bytes with `meta` in place of its JSON metadata."""
    (meta_len,) = struct.unpack_from("<Q", blob, 8)
    meta_bytes = json.dumps(meta, sort_keys=True).encode()
    return blob[:8] + struct.pack("<Q", len(meta_bytes)) + meta_bytes + blob[16 + meta_len :]


def _patched_metadata(data_dir, tmp_path, edit) -> Path:
    """A freshly trained checkpoint whose JSON metadata `edit` has changed."""
    train(_tiny_config(data_dir, tmp_path, epochs=1))
    blob = (tmp_path / "model.ckpt").read_bytes()
    meta = _metadata(blob)
    edit(meta)
    broken = tmp_path / "broken.ckpt"
    broken.write_bytes(_with_metadata(blob, meta))
    return broken


def test_checkpoint_with_unknown_config_key_is_incompatible(data_dir, tmp_path):
    broken = _patched_metadata(data_dir, tmp_path, lambda meta: meta["config"].update(d_q=4))
    with pytest.raises(CompatibilityError, match="d_q"):
        load_checkpoint(broken)


@pytest.mark.parametrize("keys", [["n_heads"], ["lr", "parse_layer"]])
def test_cli_checkpoint_whose_config_lacks_a_field_is_one_compatibility_line(
    data_dir, tmp_path, capsys, keys
):
    # neither field shapes a tensor, so the default would load in its place
    def edit(meta):
        for key in keys:
            del meta["config"][key]

    broken = _patched_metadata(data_dir, tmp_path, edit)
    capsys.readouterr()
    code = main(["predict", "--checkpoint-in", str(broken),
                 "--test-path", str(data_dir / "test.conll"),
                 "--predictions-path", str(tmp_path / "pred.conll")])
    assert code == 1
    assert _one_error_line(capsys, "compatibility") == (
        f"error category=compatibility: {broken}: checkpoint config lacks keys {keys}"
    )


def test_cli_checkpoint_with_a_repeated_pretrained_word_is_one_compatibility_line(
    data_dir, tmp_path, capsys
):
    def edit(meta):
        words = meta["pretrained_words"]
        words[1] = words[0]

    broken = _patched_metadata(data_dir, tmp_path, edit)
    capsys.readouterr()
    code = main(["predict", "--checkpoint-in", str(broken),
                 "--test-path", str(data_dir / "test.conll"),
                 "--predictions-path", str(tmp_path / "pred.conll")])
    assert code == 1
    assert "pretrained_words" in _one_error_line(capsys, "compatibility")
    assert not (tmp_path / "pred.conll").exists()


@pytest.mark.parametrize(
    "key", ["joint_labels", "role_labels", "train_words", "pretrained_words"]
)
def test_cli_checkpoint_list_that_repeats_an_entry_is_one_compatibility_line(
    data_dir, tmp_path, capsys, key
):
    repeated = []

    def edit(meta):
        repeated.append(meta[key][1])
        meta[key].append(meta[key][1])

    broken = _patched_metadata(data_dir, tmp_path, edit)
    capsys.readouterr()
    code = main(["predict", "--checkpoint-in", str(broken),
                 "--test-path", str(data_dir / "test.conll"),
                 "--predictions-path", str(tmp_path / "pred.conll")])
    assert code == 1
    assert _one_error_line(capsys, "compatibility") == (
        f"error category=compatibility: {broken}: checkpoint {key} repeats {repeated[0]!r}"
    )
    assert not (tmp_path / "pred.conll").exists()


@pytest.fixture(scope="module")
def static_checkpoint(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("static") / "static.ckpt"
    train(_tiny_config(data_dir, out.parent, checkpoint_out=out, epochs=1))
    return out


def _repeated_word(blob: bytes) -> tuple[bytes, str]:
    meta = _metadata(blob)
    word = meta["train_words"][1]
    meta["train_words"].append(word)
    return _with_metadata(blob, meta), f"checkpoint train_words repeats {word!r}"


def _unknown_key(blob: bytes) -> tuple[bytes, str]:
    meta = _metadata(blob)
    meta["config"]["d_q"] = 4
    return _with_metadata(blob, meta), "checkpoint config has unknown keys ['d_q']"


def _missing_key(blob: bytes) -> tuple[bytes, str]:
    meta = _metadata(blob)
    del meta["config"]["n_heads"]
    return _with_metadata(blob, meta), "checkpoint config lacks keys ['n_heads']"


def _short_tensor(blob: bytes) -> tuple[bytes, str]:
    _, data, end = _tensor_records(blob)["pos.b"]
    n = (end - data) // 8
    short = np.frombuffer(blob[data : end - 8], "<f8")
    return (_replace_tensor(blob, "pos.b", short),
            f"pos.b: checkpoint shape ({n - 1},) != model ({n},)")


def _fewer_words(blob: bytes) -> tuple[bytes, str]:
    meta = _metadata(blob)
    n = len(meta["pretrained_words"])
    meta["pretrained_words"].pop()
    return _with_metadata(blob, meta), f"{n - 1} pretrained words for {n} vector rows"


def _extra_tensor(blob: bytes) -> tuple[bytes, str]:
    # a copy of pos.b named pos.x appended
    start, _, end = _tensor_records(blob)["pos.b"]
    count_at = 16 + struct.unpack_from("<Q", blob, 8)[0]
    (count,) = struct.unpack_from("<I", blob, count_at)
    record = blob[start:end].replace(b"pos.b", b"pos.x", 1)
    blob = blob[:count_at] + struct.pack("<I", count + 1) + blob[count_at + 4 :] + record
    return blob, "checkpoint holds tensors the model lacks: ['pos.x']"


# fault: (the embedding of the checkpoint it tampers with, tamper)
LOAD_FAULTS = {
    "repeated word": ("static", _repeated_word),
    "unknown key": ("static", _unknown_key),
    "missing key": ("static", _missing_key),
    "missing tensor": (
        "static", lambda blob: (_drop_tensor(blob, "pos.b"), "checkpoint is missing tensor 'pos.b'")
    ),
    "tensor shape": ("static", _short_tensor),
    "pretrained count": ("static", _fewer_words),
    "no mix.w": (
        "contextual",
        lambda blob: (_drop_tensor(blob, "mix.w"), "checkpoint lacks a mix.w or pos.w matrix"),
    ),
    "leftover tensor": ("static", _extra_tensor),
}


@pytest.mark.parametrize("fault", LOAD_FAULTS)
def test_cli_checkpoint_compatibility_line_begins_with_its_path(
    data_dir, static_checkpoint, contextual_checkpoint, tmp_path, capsys, fault
):
    embedding, tamper = LOAD_FAULTS[fault]
    valid = static_checkpoint if embedding == "static" else contextual_checkpoint
    blob, message = tamper(valid.read_bytes())
    broken = tmp_path / "broken.ckpt"
    broken.write_bytes(blob)
    capsys.readouterr()
    code = main(["predict", "--checkpoint-in", str(broken),
                 "--test-path", str(data_dir / "test.conll"),
                 "--test-ctxl-path", str(data_dir / "test.ctxl"),
                 "--predictions-path", str(tmp_path / "pred.conll")])
    assert code == 1
    assert _one_error_line(capsys, "compatibility") == (
        f"error category=compatibility: {broken}: {message}"
    )
    assert not (tmp_path / "pred.conll").exists()


def _config_list(blob: bytes) -> tuple[bytes, str]:
    meta = _metadata(blob)
    meta["config"] = sorted(meta["config"])
    return _with_metadata(blob, meta), "checkpoint config is not a JSON object"


def _no_step(blob: bytes) -> tuple[bytes, str]:
    meta = _metadata(blob)
    del meta["step"]
    return _with_metadata(blob, meta), "checkpoint metadata lacks ['step']"


FORMAT_FAULTS = {
    "trailing byte": lambda blob: (blob + b"\0", "1 trailing bytes in checkpoint"),
    "config list": _config_list,
    "no step": _no_step,
}


@pytest.mark.parametrize("fault", FORMAT_FAULTS)
def test_cli_checkpoint_format_line_begins_with_its_path(
    data_dir, static_checkpoint, tmp_path, capsys, fault
):
    blob, message = FORMAT_FAULTS[fault](static_checkpoint.read_bytes())
    broken = tmp_path / "broken.ckpt"
    broken.write_bytes(blob)
    code = main(["predict", "--checkpoint-in", str(broken),
                 "--test-path", str(data_dir / "test.conll"),
                 "--predictions-path", str(tmp_path / "pred.conll")])
    assert code == 1
    assert _one_error_line(capsys, "corpus-format") == (
        f"error category=corpus-format: {broken}: {message}"
    )
    assert not (tmp_path / "pred.conll").exists()


@pytest.mark.parametrize(
    "key, value",
    [("lr", "x"), ("n_layers", 2.5), ("step", "abc"), ("joint_labels", 5)],
)
def test_cli_checkpoint_metadata_of_the_wrong_type_is_a_format_error(
    data_dir, tmp_path, capsys, key, value
):
    def edit(meta):
        (meta if key in meta else meta["config"])[key] = value

    broken = _patched_metadata(data_dir, tmp_path, edit)
    code = main(["predict", "--checkpoint-in", str(broken),
                 "--test-path", str(data_dir / "test.conll"),
                 "--predictions-path", str(tmp_path / "pred.conll")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error category=corpus-format:"), err
    assert key in err[0]


@pytest.mark.parametrize(
    "name, value",
    [
        ("srl.u", np.nan),
        ("enc.l1.qkv", np.inf),
        ("frozen.pretrained", -np.inf),
        ("transitions.matrix", np.nan),
        ("transitions.start", np.inf),
        ("transitions.end", -np.inf),  # any tag may end a sequence
    ],
)
def test_checkpoint_with_a_non_finite_value_is_a_format_error(
    data_dir, tmp_path, name, value
):
    train(_tiny_config(data_dir, tmp_path, epochs=1))
    blob = bytearray((tmp_path / "model.ckpt").read_bytes())
    _, data, _ = _tensor_records(bytes(blob))[name]
    struct.pack_into("<d", blob, data, value)
    patched = tmp_path / "patched.ckpt"
    patched.write_bytes(bytes(blob))
    with pytest.raises(CorpusFormatError, match=f"tensor {name} holds NaN or infinity"):
        load_checkpoint(patched)


@pytest.fixture(scope="module")
def contextual_checkpoint(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("ctx") / "ctx.ckpt"
    train(_tiny_config(
        data_dir, out.parent, embedding="contextual",
        train_ctxl_path=data_dir / "train.ctxl", dev_ctxl_path=data_dir / "dev.ctxl",
        checkpoint_out=out, epochs=1,
    ))
    return out


def _cut(blob: bytes, kind: str, where: str, data_dir) -> int:
    """A length that ends the file inside the named field."""
    if where == "header":
        return 10  # inside the version (.ckpt) or the header (.ctxl)
    if kind == "ckpt":
        (meta_len,) = struct.unpack_from("<Q", blob, 8)
        return 16 + meta_len // 2 if where == "metadata" else len(blob) - 12
    if where == "record":
        # drop the whole last sentence record: u32 id length, id, u32 token
        # count and the layer stack of float32 values
        n_layers, dim = struct.unpack_from("<II", blob, 8)
        sentences = read_conll(data_dir / "test.conll")
        sid = str(len(sentences) - 1)
        return len(blob) - (8 + len(sid) + 4 * n_layers * len(sentences[-1]) * dim)
    # .ctxl: the first sentence id starts at byte 24
    return 24 if where == "metadata" else len(blob) - 6


@pytest.mark.parametrize(
    "kind, where",
    [(kind, where) for kind in ("ckpt", "ctxl") for where in ("header", "metadata", "data")]
    + [("ctxl", "record")],
)
def test_cli_truncated_binary_inputs_are_format_errors(
    data_dir, contextual_checkpoint, tmp_path, capsys, kind, where
):
    paths = {"ckpt": contextual_checkpoint, "ctxl": data_dir / "test.ctxl"}
    blob = paths[kind].read_bytes()
    paths[kind] = tmp_path / f"cut.{kind}"
    paths[kind].write_bytes(blob[: _cut(blob, kind, where, data_dir)])
    code = main([
        "predict",
        "--checkpoint-in", str(paths["ckpt"]),
        "--test-path", str(data_dir / "test.conll"),
        "--test-ctxl-path", str(paths["ctxl"]),
        "--predictions-path", str(tmp_path / "pred.conll"),
    ])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error category=corpus-format:"), err[0]


def test_cli_ctxl_header_of_no_layers_is_one_format_line(
    data_dir, contextual_checkpoint, tmp_path, capsys
):
    blob = bytearray((data_dir / "test.ctxl").read_bytes())
    struct.pack_into("<I", blob, 8, 0)  # the header's layer count
    broken = tmp_path / "none.ctxl"
    broken.write_bytes(bytes(blob))
    code = main(["predict", "--checkpoint-in", str(contextual_checkpoint),
                 "--test-path", str(data_dir / "test.conll"),
                 "--test-ctxl-path", str(broken),
                 "--predictions-path", str(tmp_path / "pred.conll")])
    assert code == 1
    assert _one_error_line(capsys, "corpus-format") == (
        f"error category=corpus-format: {broken}: layer count must be >= 1"
    )


@pytest.mark.parametrize("kind", ["ctxl", "vec"])
def test_cli_non_finite_input_values_are_format_errors(
    data_dir, contextual_checkpoint, tmp_path, capsys, kind
):
    if kind == "ctxl":
        blob = bytearray((data_dir / "test.ctxl").read_bytes())
        struct.pack_into("<f", blob, len(blob) - 4, np.nan)  # last sentence's stack
        (tmp_path / "nan.ctxl").write_bytes(bytes(blob))
        argv = [
            "predict", "--checkpoint-in", str(contextual_checkpoint),
            "--test-path", str(data_dir / "test.conll"),
            "--test-ctxl-path", str(tmp_path / "nan.ctxl"),
            "--predictions-path", str(tmp_path / "pred.conll"),
        ]
        where = "sentence '5'"
    else:
        lines = (data_dir / "pretrained.vec").read_text().splitlines()
        parts = lines[2].split()
        lines[2] = " ".join([parts[0], "nan", *parts[2:]])
        (tmp_path / "nan.vec").write_text("\n".join(lines) + "\n")
        argv = [
            "train", "--train-path", str(data_dir / "train.conll"),
            "--dev-path", str(data_dir / "dev.conll"),
            "--pretrained-path", str(tmp_path / "nan.vec"),
        ]
        where = "line 3"
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error category=corpus-format:"), err[0]
    assert where in err[0]


def _mutated(valid: bytes, data) -> bytes:
    """`valid` with up to three bytes flipped, then cut at a drawn length."""
    blob = bytearray(valid)
    for _ in range(data.draw(st.integers(0, 3), label="flips")):
        at = data.draw(st.integers(0, len(blob) - 1), label="flip at")
        blob[at] ^= data.draw(st.integers(1, 255), label="xor")
    return bytes(blob[: data.draw(st.integers(0, len(blob)), label="length")])


def _succeeds_or_prints_one_error_line(argv: list[str]) -> str | None:
    """Run the CLI on `argv`; it exits 0 with nothing on stderr, and then
    its stdout is returned, or exits 1 after one `error category=` line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == [], lines
        return out.getvalue()
    assert code == 1 and len(lines) == 1, lines
    assert lines[0].startswith("error category="), lines[0]
    return None


READERS = {
    "ckpt": load_checkpoint,
    "ctxl": read_contextual,
    "conll": read_conll,
    "heads": read_heads_file,
    "vec": read_vec_file,
}


@pytest.fixture(scope="module")
def valid_inputs(data_dir, contextual_checkpoint):
    names = {"ckpt": contextual_checkpoint, "vec": data_dir / "pretrained.vec"}
    return {
        kind: (names.get(kind) or data_dir / f"test.{kind}").read_bytes()
        for kind in READERS
    }


@pytest.mark.parametrize("kind", sorted(READERS))
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_inputs_load_or_raise_a_lisa_error(valid_inputs, tmp_path_factory, kind, data):
    blob = _mutated(valid_inputs[kind], data)
    path = tmp_path_factory.getbasetemp() / f"mutated.{kind}"
    path.write_bytes(blob)
    try:
        READERS[kind](path)
    except LisaError:
        pass


PREDICT_INPUTS = ("ckpt", "conll", "ctxl", "heads")


@pytest.mark.parametrize("kind", PREDICT_INPUTS)
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_predict_on_a_mutated_input_succeeds_or_prints_one_error_line(
    valid_inputs, tmp_path_factory, kind, data
):
    # one input mutated, the others valid: a file that loads meets every
    # later check of a contextual decode under an external parse
    blob = _mutated(valid_inputs[kind], data)
    work = tmp_path_factory.getbasetemp() / "predict-mutated"
    work.mkdir(exist_ok=True)
    paths = {}
    for name in PREDICT_INPUTS:
        paths[name] = work / f"input.{name}"
        paths[name].write_bytes(blob if name == kind else valid_inputs[name])
    out = _succeeds_or_prints_one_error_line([
        "predict", "--checkpoint-in", str(paths["ckpt"]),
        "--test-path", str(paths["conll"]),
        "--test-ctxl-path", str(paths["ctxl"]),
        "--test-heads-path", str(paths["heads"]),
        "--parse-source", "external",
        "--predictions-path", str(work / "pred.conll"),
    ])
    assert out is None or out.startswith("wrote ")


# the tiny model's settings as a config file; flags set the epochs, the
# source and the files, so no mutation can lengthen a run much
TRAIN_CONFIG = (
    b"# tiny model\nn_layers = 2\nn_heads = 2\nparse_layer = 2\npos_layer = 1\n"
    b"d_role = 4\nlr = 0.05\nseed = 0\n"
)
TRAIN_INPUTS = (
    "train.conll", "dev.conll", "train.heads", "dev.heads",
    "train.ctxl", "dev.ctxl", "pretrained.vec", "run.cfg",
)


@pytest.mark.parametrize("kind", TRAIN_INPUTS)
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_train_on_a_mutated_input_succeeds_or_prints_one_error_line(
    data_dir, tmp_path_factory, kind, data
):
    # one epoch under an external parse, one input mutated; a mutated .ctxl
    # trains the contextual path, every other input the static one
    work = tmp_path_factory.getbasetemp() / "train-mutated"
    work.mkdir(exist_ok=True)
    for name in TRAIN_INPUTS:
        valid = TRAIN_CONFIG if name == "run.cfg" else (data_dir / name).read_bytes()
        (work / name).write_bytes(_mutated(valid, data) if name == kind else valid)
    argv = [
        "train", "--config", str(work / "run.cfg"), "--epochs", "1",
        "--parse-source", "external",
        "--embedding", "contextual" if kind.endswith(".ctxl") else "static",
        "--pretrained-path", str(work / "pretrained.vec"),
        "--checkpoint-out", str(work / "model.ckpt"),
    ]
    for split in ("train", "dev"):
        argv += [f"--{split}-path", str(work / f"{split}.conll"),
                 f"--{split}-heads-path", str(work / f"{split}.heads"),
                 f"--{split}-ctxl-path", str(work / f"{split}.ctxl")]
    out = _succeeds_or_prints_one_error_line(argv)
    assert out is None or out.splitlines()[-1].startswith("best_epoch=1 ")


@pytest.mark.parametrize("kind", ("gold", "predictions"))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_evaluate_on_a_mutated_input_succeeds_or_prints_one_error_line(
    data_dir, tmp_path_factory, kind, data
):
    # the gold file scores as its own predictions; a mutated predictions
    # file is read in repair mode, a mutated gold file strictly
    valid = (data_dir / "test.conll").read_bytes()
    work = tmp_path_factory.getbasetemp() / "evaluate-mutated"
    work.mkdir(exist_ok=True)
    for name in ("gold", "predictions"):
        (work / f"{name}.conll").write_bytes(_mutated(valid, data) if name == kind else valid)
    out = _succeeds_or_prints_one_error_line([
        "evaluate", "--test-path", str(work / "gold.conll"),
        "--predictions-path", str(work / "predictions.conll"),
        "--metrics-path", str(work / "metrics.csv"),
    ])
    assert out is None or out.splitlines()[-1].startswith("bio_repairs=")


# ---------------------------------------------------------------------------
# Field-level .conll mutations, each kind aimed at one check of the reader


def _conll_sentences(text: str) -> list[list[list[str]]]:
    """Each sentence of a .conll text as its rows, split into fields."""
    return [[line.split("\t") for line in block.split("\n")]
            for block in text.strip("\n").split("\n\n")]


def _conll_text(sentences: list[list[list[str]]]) -> str:
    return "".join("\n".join(map("\t".join, rows)) + "\n\n" for rows in sentences)


def _framed(sentences, rng) -> list[list[str]]:
    """The rows of a random sentence that holds a role column."""
    framed = [rows for rows in sentences if len(rows[0]) > 4]
    return framed[rng.integers(len(framed))]


def _swap_rows(sentences, rng) -> None:
    rows = sentences[rng.integers(len(sentences))]
    i, j = rng.choice(len(rows), 2, replace=False)
    rows[i], rows[j] = rows[j], rows[i]


def _rewrite_head(sentences, rng) -> None:
    # another in-range index: cycles and second roots included
    rows = sentences[rng.integers(len(sentences))]
    row = rows[rng.integers(len(rows))]
    k = int(rng.integers(len(rows) - 1))
    row[2] = str(k + (k >= int(row[2])))


def _rewrite_tag(sentences, rng) -> None:
    # another tag of the file's role space: a valid or an invalid BIO successor
    tags = sorted({tag for rows in sentences for row in rows for tag in row[4:]})
    rows = _framed(sentences, rng)
    row = rows[rng.integers(len(rows))]
    col = 4 + rng.integers(len(row) - 4)
    others = [tag for tag in tags if tag != row[col]]
    row[col] = others[rng.integers(len(others))]


def _move_marker(sentences, rng) -> None:
    rows = _framed(sentences, rng)
    marked = [i for i, row in enumerate(rows) if row[3] == "Y"]
    plain = [i for i, row in enumerate(rows) if row[3] == "-"]
    rows[rng.choice(marked)][3], rows[rng.choice(plain)][3] = "-", "Y"


def _drop_column(sentences, rng) -> None:
    rows = _framed(sentences, rng)
    col = 4 + rng.integers(len(rows[0]) - 4)
    for row in rows:
        del row[col]


def _bio_repairs(ending: str) -> int:
    last = ending.splitlines()[-1]
    return int(last.removeprefix("bio_repairs=")) if last.startswith("bio_repairs=") else 0


# kind: (mutation, whether the ending of a run shows the check it aims at)
CONLL_MUTATIONS = {
    "swap-rows": (_swap_rows, lambda ending: True),
    "rewrite-head": (
        _rewrite_head,
        lambda ending: "heads form a cycle" in ending or "self-loop root" in ending,
    ),
    "rewrite-tag": (_rewrite_tag, lambda ending: _bio_repairs(ending) > 0),
    "move-marker": (_move_marker, lambda ending: True),
    "drop-column": (_drop_column, lambda ending: "predicates but only" in ending),
}


def _mutated_conll(valid: Path, kind: str, rng) -> str:
    sentences = _conll_sentences(valid.read_text(encoding="utf-8"))
    CONLL_MUTATIONS[kind][0](sentences, rng)
    return _conll_text(sentences)


@pytest.fixture
def cli_endings(monkeypatch):
    """What `_succeeds_or_prints_one_error_line` saw of each CLI run: its
    stdout when it exited 0, else its one error line."""
    endings, real_main = [], main

    def recording(argv) -> int:
        code = real_main(argv)
        endings.append(sys.stdout.getvalue() if code == 0 else sys.stderr.getvalue())
        return code

    monkeypatch.setitem(globals(), "main", recording)
    return endings


@pytest.mark.parametrize("kind", CONLL_MUTATIONS)
def test_conll_field_mutations_reach_their_checks_in_one_line(
    data_dir, tmp_path, cli_endings, kind
):
    # 30 seeded examples: evaluate on a mutated test split read as gold
    # (strictly) and as predictions (repaired), and a one-epoch tiny train
    # on a mutated train split
    seed, reached = list(CONLL_MUTATIONS).index(kind), CONLL_MUTATIONS[kind][1]
    (tmp_path / "run.cfg").write_bytes(TRAIN_CONFIG)
    test, train_split = tmp_path / "mutated.conll", tmp_path / "train.conll"
    valid, mutated = str(data_dir / "test.conll"), str(test)
    train_argv = [
        "train", "--config", str(tmp_path / "run.cfg"), "--epochs", "1",
        "--train-path", str(train_split),
        "--dev-path", str(data_dir / "dev.conll"),
        "--pretrained-path", str(data_dir / "pretrained.vec"),
        "--checkpoint-out", str(tmp_path / "model.ckpt"),
    ]
    for example in range(30):
        rng = np.random.default_rng([seed, example])
        test.write_text(_mutated_conll(data_dir / "test.conll", kind, rng))
        train_split.write_text(_mutated_conll(data_dir / "train.conll", kind, rng))
        for gold, predictions in ((mutated, valid), (valid, mutated)):
            out = _succeeds_or_prints_one_error_line(
                ["evaluate", "--test-path", gold, "--predictions-path", predictions]
            )
            assert out is None or out.splitlines()[-1].startswith("bio_repairs=")
        out = _succeeds_or_prints_one_error_line(train_argv)
        assert out is None or out.splitlines()[-1].startswith("best_epoch=1 ")
    assert any(map(reached, cli_endings)), cli_endings


# ---------------------------------------------------------------------------
# Field-level .heads, .ctxl and checkpoint mutations, each kind aimed at one
# check; a failed run's line begins with the mutated file's path


def _heads_records(blob: bytes) -> list[list[str]]:
    return [line.split() for line in blob.decode().splitlines()]


def _heads_blob(records: list[list[str]]) -> bytes:
    return "".join(" ".join(record) + "\n" for record in records).encode()


def _add_head(blob: bytes, rng) -> bytes:
    records = _heads_records(blob)
    record = records[rng.integers(len(records))]
    record.insert(rng.integers(len(record) + 1), str(rng.integers(len(record) + 1)))
    return _heads_blob(records)


def _drop_head(blob: bytes, rng) -> bytes:
    records = _heads_records(blob)
    record = records[rng.integers(len(records))]
    del record[rng.integers(len(record))]
    return _heads_blob(records)


def _head_past_end(blob: bytes, rng) -> bytes:
    records = _heads_records(blob)
    record = records[rng.integers(len(records))]
    record[rng.integers(len(record))] = str(len(record) + rng.integers(3))
    return _heads_blob(records)


CTXL_HEADER = 20  # magic, then version, layer count, width and sentence count


def _ctxl_records(blob: bytes) -> list[bytes]:
    """The sentence records of a .ctxl file: id length, id, token count, stack."""
    n_layers, dim = struct.unpack_from("<II", blob, 8)
    records, at = [], CTXL_HEADER
    while at < len(blob):
        (sid_len,) = struct.unpack_from("<I", blob, at)
        (t_len,) = struct.unpack_from("<I", blob, at + 4 + sid_len)
        end = at + 8 + sid_len + 4 * n_layers * t_len * dim
        records.append(blob[at:end])
        at = end
    return records


def _swap_records(blob: bytes, rng) -> bytes:
    # each record keeps its id, so two ids fall out of corpus order
    records = _ctxl_records(blob)
    i, j = rng.choice(len(records), 2, replace=False)
    records[i], records[j] = records[j], records[i]
    return blob[:CTXL_HEADER] + b"".join(records)


def _recount_header(blob: bytes, rng) -> bytes:
    (count,) = struct.unpack_from("<I", blob, CTXL_HEADER - 4)
    count += int(rng.choice([-2, -1, 1, 2]))
    return blob[: CTXL_HEADER - 4] + struct.pack("<I", count) + blob[CTXL_HEADER:]


def _retoken_record(blob: bytes, rng) -> bytes:
    # one token more or fewer, with the stack grown or cut to match
    n_layers, dim = struct.unpack_from("<II", blob, 8)
    step = 4 * n_layers * dim
    records = _ctxl_records(blob)
    k = rng.integers(len(records))
    record = records[k]
    (sid_len,) = struct.unpack_from("<I", record)
    (t_len,) = struct.unpack_from("<I", record, 4 + sid_len)
    stack = record[8 + sid_len :]
    if t_len > 1 and rng.random() < 0.5:
        t_len, stack = t_len - 1, stack[:-step]
    else:
        t_len, stack = t_len + 1, stack + stack[:step]
    records[k] = record[: 4 + sid_len] + struct.pack("<I", t_len) + stack
    return blob[:CTXL_HEADER] + b"".join(records)


def _renamed_label(key: str):
    """A mutation that overwrites one character of one label in the `key` list."""
    def rename(blob: bytes, rng) -> bytes:
        meta = _metadata(blob)
        labels = meta[key]
        k = rng.integers(len(labels))
        at = rng.integers(len(labels[k]))
        char = rng.choice([c for c in "BIOZ-:" if c != labels[k][at]])
        labels[k] = labels[k][:at] + char + labels[k][at + 1 :]
        return _with_metadata(blob, meta)

    return rename


def _swap_extents(blob: bytes, rng) -> bytes:
    # a matrix read with its two extents swapped, its data bytes unchanged
    records = _tensor_records(blob)
    shapes = {}
    for name, (start, data, _) in records.items():
        (rank,) = struct.unpack_from("<I", blob, start + 4 + len(name))
        shapes[name] = struct.unpack_from(f"<{rank}Q", blob, data - 8 * rank)
    names = sorted(name for name, shape in shapes.items()
                   if len(shape) == 2 and shape[0] != shape[1])
    name = names[rng.integers(len(names))]
    _, data, end = records[name]
    matrix = np.frombuffer(blob[data:end], "<f8").reshape(shapes[name][::-1])
    return _replace_tensor(blob, name, matrix)


# kind: (the input it mutates, mutation, whether the ending of a run shows
# the check it aims at)
FIELD_MUTATIONS = {
    "add-head": ("heads", _add_head, lambda ending: " tokens but " in ending),
    "drop-head": ("heads", _drop_head, lambda ending: " tokens but " in ending),
    "head-past-end": ("heads", _head_past_end, lambda ending: " outside [0, " in ending),
    "swap-records": ("ctxl", _swap_records, lambda ending: " carries id " in ending),
    "recount-header": ("ctxl", _recount_header, lambda ending: " header says " in ending),
    "retoken-record": ("ctxl", _retoken_record, lambda ending: " tokens but " in ending),
    "rename-role": ("ckpt", _renamed_label("role_labels"), lambda ending: " BIO " in ending),
    "rename-joint": (
        "ckpt", _renamed_label("joint_labels"), lambda ending: "joint_labels are not" in ending
    ),
    "swap-extents": ("ckpt", _swap_extents, lambda ending: ": checkpoint shape (" in ending),
}


@pytest.mark.parametrize("kind", FIELD_MUTATIONS)
def test_field_mutations_of_sidecars_and_checkpoints_reach_their_checks_in_one_line(
    data_dir, contextual_checkpoint, tmp_path, cli_endings, kind
):
    # 30 seeded examples: a contextual predict under an external parse with
    # the mutated test input, and for a .heads or .ctxl a one-epoch tiny
    # train with the mutated train input
    suffix, mutate, reached = FIELD_MUTATIONS[kind]
    seed = len(CONLL_MUTATIONS) + list(FIELD_MUTATIONS).index(kind)
    valid = {"ckpt": contextual_checkpoint, "ctxl": data_dir / "test.ctxl",
             "heads": data_dir / "test.heads"}
    test = {**valid, suffix: tmp_path / f"test.{suffix}"}
    runs = [(test[suffix], valid[suffix], [
        "predict", "--checkpoint-in", str(test["ckpt"]),
        "--test-path", str(data_dir / "test.conll"),
        "--test-ctxl-path", str(test["ctxl"]),
        "--test-heads-path", str(test["heads"]),
        "--parse-source", "external",
        "--predictions-path", str(tmp_path / "pred.conll"),
    ])]
    if suffix != "ckpt":
        (tmp_path / "run.cfg").write_bytes(TRAIN_CONFIG)
        train_split = {"heads": data_dir / "train.heads", "ctxl": data_dir / "train.ctxl",
                       suffix: tmp_path / f"train.{suffix}"}
        runs.append((train_split[suffix], data_dir / f"train.{suffix}", [
            "train", "--config", str(tmp_path / "run.cfg"), "--epochs", "1",
            "--parse-source", "external",
            "--embedding", "contextual" if suffix == "ctxl" else "static",
            "--pretrained-path", str(data_dir / "pretrained.vec"),
            "--checkpoint-out", str(tmp_path / "model.ckpt"),
            "--train-path", str(data_dir / "train.conll"),
            "--train-heads-path", str(train_split["heads"]),
            "--train-ctxl-path", str(train_split["ctxl"]),
            "--dev-path", str(data_dir / "dev.conll"),
            "--dev-heads-path", str(data_dir / "dev.heads"),
            "--dev-ctxl-path", str(data_dir / "dev.ctxl"),
        ]))
    for example in range(30):
        rng = np.random.default_rng([seed, example])
        for mutated, valid, argv in runs:
            mutated.write_bytes(mutate(valid.read_bytes(), rng))
            if _succeeds_or_prints_one_error_line(argv) is None:
                line = cli_endings[-1]
                assert line.split(": ", 1)[1].startswith(f"{mutated}: "), line
    assert any(map(reached, cli_endings)), cli_endings


def _sentence_lengths(lines: list[str]) -> list[int]:
    """For each line of a .conll text, the token count of its sentence (0 on
    a blank line)."""
    out, start = [], 0
    for i, line in enumerate(lines + [""]):
        if not line:
            out.extend([i - start] * (i - start) + [0])
            start = i + 1
    return out[: len(lines)]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_head_rewrites_load_as_trees_or_raise_a_lisa_error(
    valid_inputs, tmp_path_factory, data
):
    # in-range heads rewritten at random: many form cycles or extra roots
    lines = valid_inputs["conll"].decode("utf-8").split("\n")
    lengths = _sentence_lengths(lines)
    rows = [i for i, n in enumerate(lengths) if n]
    for _ in range(data.draw(st.integers(1, 3), label="rewrites")):
        i = data.draw(st.sampled_from(rows), label="line")
        cols = lines[i].split("\t")
        cols[2] = str(data.draw(st.integers(0, lengths[i] - 1), label="head"))
        lines[i] = "\t".join(cols)
    path = tmp_path_factory.getbasetemp() / "rewritten.conll"
    path.write_text("\n".join(lines))
    try:
        for sent in read_conll(path):
            (root,) = [i for i, h in enumerate(sent.heads) if h == i]
            for t in range(len(sent)):  # every chain of heads ends at the root
                for _ in range(len(sent)):
                    t = sent.heads[t]
                assert t == root
    except CorpusFormatError as err:
        assert "root" in str(err) or "heads form a cycle" in str(err), err
    # repair mode keeps any heads; the role walk still returns or raises
    for sent in read_conll(path, repair=True):
        try:
            roles_from_tree(sent.pos, sent.heads)
        except EncodingError:
            pass


def test_cli_gold_heads_with_a_cycle_are_one_format_error_line(data_dir, tmp_path, capsys):
    corpus = read_conll(data_dir / "dev.conll")
    k = 2
    sent = corpus[k]
    a, b = [t for t in range(len(sent)) if sent.heads[t] != t][:2]
    heads = list(sent.heads)
    heads[a], heads[b] = b, a
    corpus[k] = dataclasses.replace(sent, heads=tuple(heads))
    write_conll(tmp_path / "dev.conll", corpus)
    code = main(["train", "--epochs", "1",
                 "--train-path", str(data_dir / "train.conll"),
                 "--dev-path", str(tmp_path / "dev.conll"),
                 "--pretrained-path", str(data_dir / "pretrained.vec")])
    assert code == 1
    first_line = sum(len(s) + 1 for s in corpus[:k]) + 1
    assert _one_error_line(capsys, "corpus-format") == (
        f"error category=corpus-format: {tmp_path / 'dev.conll'}: line {first_line}:"
        f" heads form a cycle"
        f" through token {a} ({sent.tokens[a]!r})"
    )


def test_checkpoint_tensor_rank_beyond_numpy_is_a_format_error(
    contextual_checkpoint, tmp_path
):
    blob = bytearray(contextual_checkpoint.read_bytes())
    (meta_len,) = struct.unpack_from("<Q", blob, 8)
    (name_len,) = struct.unpack_from("<I", blob, 16 + meta_len + 4)
    struct.pack_into("<I", blob, 16 + meta_len + 8 + name_len, 100)
    path = tmp_path / "rank.ckpt"
    path.write_bytes(bytes(blob))
    with pytest.raises(CorpusFormatError, match="rank 100"):
        load_checkpoint(path)


def test_checkpoint_refuses_non_finite_parameters(data_dir, tmp_path):
    config = _tiny_config(data_dir, tmp_path, epochs=1)
    result = train(config)
    result.model.parameters()[0].data[0] = np.nan
    with pytest.raises(NonFiniteError):
        save_checkpoint(tmp_path / "nan.ckpt", result.model, 0, result.transitions)


# ---------------------------------------------------------------------------
# Predict and evaluate round trip


def test_predict_evaluate_round_trip(data_dir, tmp_path):
    config = _tiny_config(data_dir, tmp_path, epochs=2)
    train(config)
    config.checkpoint_in = config.checkpoint_out
    config.predictions_path = str(tmp_path / "pred.conll")
    config.metrics_path = str(tmp_path / "metrics.csv")
    predictions = predict(config)
    assert len(predictions) == 6
    report, lines = evaluate(config)
    assert report.bio_repairs == 0  # decoder output is valid BIO
    assert 0.0 <= report.srl[2] <= 1.0
    assert any(line.startswith("srl_precision=") for line in lines)
    assert (tmp_path / "metrics.csv").exists()


def test_predict_leaves_the_callers_config_unchanged(
    data_dir, contextual_checkpoint, tmp_path
):
    config = _tiny_config(
        data_dir, tmp_path, checkpoint_in=contextual_checkpoint,
        test_ctxl_path=data_dir / "test.ctxl", predictions_path=tmp_path / "pred.conll",
    )
    before = dataclasses.replace(config)
    assert config.embedding == "static"
    assert len(predict(config)) == 6  # decoded on the checkpoint's contextual path
    assert config == before


def test_predict_with_gold_source_gives_perfect_uas_without_retraining(
    data_dir, tmp_path
):
    config = _tiny_config(data_dir, tmp_path, epochs=1)
    train(config)
    config.checkpoint_in = config.checkpoint_out
    config.predictions_path = str(tmp_path / "pred.conll")
    config.parse_source = "gold"
    predictions = predict(config)
    gold = read_conll(config.test_path)
    assert corpus_uas(gold, predictions) == 1.0


def test_predict_with_external_heads_echoes_them(data_dir, tmp_path):
    config = _tiny_config(data_dir, tmp_path, epochs=1)
    train(config)
    config.checkpoint_in = config.checkpoint_out
    config.predictions_path = str(tmp_path / "pred.conll")
    config.parse_source = "external"
    config.test_heads_path = str(data_dir / "test.heads")
    predictions = predict(config)
    gold = read_conll(config.test_path)  # error rate 0: sidecar equals gold
    assert corpus_uas(gold, predictions) == 1.0


def test_external_heads_misalignment_is_detected(data_dir, tmp_path):
    from lisa_srl.errors import AlignmentError

    config = _tiny_config(data_dir, tmp_path, parse_source="external",
                          test_heads_path=data_dir / "dev.heads")
    with pytest.raises(AlignmentError):
        load_split(config, "test")


@pytest.mark.parametrize("bad_head", [99, -1])
@pytest.mark.parametrize("split", ["train", "dev", "test"])
def test_cli_heads_outside_their_sentence_are_one_alignment_error_line(
    data_dir, tmp_path, capsys, split, bad_head
):
    heads_flags = []
    for name in ("train", "dev", "test"):
        heads = read_heads_file(data_dir / f"{name}.heads")
        if name == split:
            heads[2][1] = bad_head
        write_heads_file(tmp_path / f"{name}.heads", heads)
        heads_flags += [f"--{name}-heads-path", str(tmp_path / f"{name}.heads")]
    ckpt = tmp_path / "model.ckpt"
    code = main(["train", "--train-path", str(data_dir / "train.conll"),
                 "--dev-path", str(data_dir / "dev.conll"),
                 "--pretrained-path", str(data_dir / "pretrained.vec"),
                 "--parse-source", "external", "--n-heads", "2",
                 "--d-role", "4", "--epochs", "1", "--checkpoint-out", str(ckpt), *heads_flags])
    if split == "test":  # train and dev heads are in range
        assert code == 0
        capsys.readouterr()
        code = main(["predict", "--checkpoint-in", str(ckpt), "--parse-source", "external",
                     "--test-path", str(data_dir / "test.conll"), *heads_flags,
                     "--predictions-path", str(tmp_path / "pred.conll")])
        assert not (tmp_path / "pred.conll").exists()
    else:
        assert not ckpt.exists()
    assert code == 1
    err = _one_error_line(capsys, "alignment")
    assert f"{tmp_path / split}.heads: sentence 2 has head index {bad_head} outside" in err, err


@pytest.mark.parametrize("bad", ["dev.conll", "dev.heads", "pretrained.vec"])
def test_cli_format_errors_name_their_file_once(data_dir, tmp_path, capsys, bad):
    paths = {name: data_dir / name for name in ("dev.conll", "dev.heads", "pretrained.vec")}
    paths[bad] = tmp_path / bad
    lines = (data_dir / bad).read_text().splitlines(keepends=True)
    if bad == "dev.conll":  # a head of 99 on line 3
        cols = lines[2].split("\t")
        lines[2] = "\t".join([*cols[:2], "99", *cols[3:]])
        fault = "line 3: head index 99 outside"
    elif bad == "dev.heads":
        lines[2] = "0 x\n"
        fault = "line 3: bad head index"
    else:  # the first word again, at the end
        lines.append(lines[0])
        fault = f"line {len(lines)}: repeats the word {lines[0].split()[0]!r}"
    paths[bad].write_text("".join(lines))
    code = main(["train", "--train-path", str(data_dir / "train.conll"),
                 "--dev-path", str(paths["dev.conll"]),
                 "--pretrained-path", str(paths["pretrained.vec"]),
                 "--parse-source", "external",
                 "--train-heads-path", str(data_dir / "train.heads"),
                 "--dev-heads-path", str(paths["dev.heads"]),
                 "--n-heads", "2", "--d-role", "4", "--epochs", "1",
                 "--checkpoint-out", str(tmp_path / "model.ckpt")])
    assert code == 1
    err = _one_error_line(capsys, "corpus-format")
    assert err.startswith(f"error category=corpus-format: {paths[bad]}: {fault}"), err
    assert err.count(str(paths[bad])) == 1, err
    assert not (tmp_path / "model.ckpt").exists()


# ---------------------------------------------------------------------------
# CLI surface


def test_cli_gen_synth_and_full_run(tmp_path, capsys):
    data = tmp_path / "data"
    code = main([
        "gen-synth", "--out-dir", str(data),
        "--n-train", "10", "--n-dev", "4", "--n-test", "4",
        "--seed", "1", "--dim", "8",
    ])
    assert code == 0
    assert (data / "train.conll").exists()

    ckpt = tmp_path / "m.ckpt"
    code = main([
        "train",
        "--train-path", str(data / "train.conll"),
        "--dev-path", str(data / "dev.conll"),
        "--pretrained-path", str(data / "pretrained.vec"),
        "--checkpoint-out", str(ckpt),
        "--n-layers", "2", "--n-heads", "2", "--d-role", "4",
        "--epochs", "2", "--lr", "0.1", "--seed", "0",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "epoch=1 " in out and "best_epoch=" in out

    pred = tmp_path / "pred.conll"
    code = main([
        "predict",
        "--checkpoint-in", str(ckpt),
        "--test-path", str(data / "test.conll"),
        "--predictions-path", str(pred),
    ])
    assert code == 0 and pred.exists()

    code = main([
        "evaluate",
        "--test-path", str(data / "test.conll"),
        "--predictions-path", str(pred),
        "--metrics-path", str(tmp_path / "m.csv"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "srl_precision=" in out and "uas=" in out
    assert (tmp_path / "m.csv").exists()


def test_cli_errors_are_one_machine_parseable_line(tmp_path, capsys):
    code = main(["train", "--train-path", str(tmp_path / "missing.conll"),
                 "--dev-path", str(tmp_path / "missing.conll")])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error category=config:")

    code = main(["train", "--variant", "sa", "--parse-source", "gold"])
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error category=config:")


def test_cli_gen_synth_into_an_existing_file_is_one_io_line(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("kept")
    assert main(["gen-synth", "--out-dir", str(taken)]) == 1
    assert _one_error_line(capsys, "io") == (
        f"error category=io: [Errno {errno.EEXIST}] File exists: '{taken}'"
    )
    assert taken.read_text() == "kept"


@pytest.mark.parametrize("missing, message", [
    ("--predictions-path", "predictions_path is required for predict"),
    ("--checkpoint-in", "checkpoint_in is required for this command"),
])
def test_cli_predict_without_a_required_path_is_one_config_line(
    data_dir, static_checkpoint, tmp_path, capsys, missing, message
):
    flags = {"--checkpoint-in": str(static_checkpoint),
             "--test-path": str(data_dir / "test.conll"),
             "--predictions-path": str(tmp_path / "pred.conll")}
    del flags[missing]
    assert main(["predict", *(part for flag in flags.items() for part in flag)]) == 1
    assert _one_error_line(capsys, "config") == f"error category=config: {message}"
    assert not (tmp_path / "pred.conll").exists()


@pytest.mark.parametrize("argv", [
    ["train", "--d-k", "4"],
    ["train", "--parse-head", "1"],
    ["predict", "--shuffle", "false"],
    ["predict", "--harden-self-parse", "true"],
    ["gen-synth", "--out-dir", "x", "--n-ctx-layers", "2"],
], ids="=".join)
def test_cli_flags_of_removed_settings_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments: " + argv[-2] in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["gen-synth", "--out-dir", "g", "--n-train", "abc"],
    ["train", "--bogus", "1"],
    ["gen-synth"],
    [],
], ids=lambda v: "=".join(v) or "bare")
def test_cli_malformed_flags_are_one_config_error_line(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith("error category=config: "), err[0]


@pytest.mark.parametrize("argv, field", [
    (["gen-synth", "--n-train", "0"], "n_train"),
    (["gen-synth", "--n-dev", "0"], "n_dev"),
    (["gen-synth", "--n-test", "-2"], "n_test"),
    (["gen-synth", "--seed", "-1"], "seed"),
    (["gen-synth", "--dim", "0"], "dim"),
    (["gen-synth", "--dim", "7"], "dim"),
    (["gen-synth", "--heads-error-rate", "nan"], "heads_error_rate"),
    (["gen-synth", "--heads-error-rate", "-0.1"], "heads_error_rate"),
    (["gen-synth", "--heads-error-rate", "1.5"], "heads_error_rate"),
    (["train", "--lr", "nan"], "lr"),
    (["train", "--clip-norm", "nan"], "clip_norm"),
    (["train", "--early-stop-f1", "nan"], "early_stop_f1"),
    (["train", "--seed", "-1"], "seed"),
    (["train", "--lr", "0"], "lr"),
    (["train", "--clip-norm", "-1"], "clip_norm"),
    (["train", "--early-stop-f1", "2"], "early_stop_f1"),
    (["train", "--n-layers", "0"], "need at least one layer"),
    (["train", "--embedding", "foo"], "embedding"),
], ids=lambda v: v if isinstance(v, str) else "=".join(v))
def test_cli_bad_parameters_are_one_config_error_line(tmp_path, capsys, argv, field):
    out = tmp_path / "synth"
    if argv[0] == "gen-synth":
        argv = [*argv, "--out-dir", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith(f"error category=config: {field} "), err[0]
    assert not out.exists()


def _one_error_line(capsys, category: str) -> str:
    """The single stderr line of a failed command; no epoch was logged."""
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith(f"error category={category}: "), err[0]
    assert "epoch=" not in captured.out
    return err[0]


@pytest.mark.parametrize("vec_width, n_heads", [(7, 4), (8, 3)])
def test_cli_model_width_that_cannot_carry_the_heads_is_one_config_error_line(
    data_dir, tmp_path, capsys, vec_width, n_heads
):
    vec = data_dir / "pretrained.vec"
    if vec_width != 8:  # a hand-written file; the generator refuses odd widths
        words = [line.split()[0] for line in vec.read_text().splitlines()]
        vec = tmp_path / "odd.vec"
        vec.write_text("".join(f"{w} {' '.join(['0.5'] * vec_width)}\n" for w in words))
    code = main(["train", "--train-path", str(data_dir / "train.conll"),
                 "--dev-path", str(data_dir / "dev.conll"),
                 "--pretrained-path", str(vec), "--n-heads", str(n_heads),
                 "--epochs", "1"])
    assert code == 1
    err = _one_error_line(capsys, "config")
    assert f"width {vec_width} " in err and f"n_heads {n_heads}" in err, err


@pytest.mark.parametrize("train_ctxl", ["dev.ctxl", "test.ctxl"])
def test_cli_ctxl_of_another_corpus_is_one_alignment_error_line(
    data_dir, tmp_path, capsys, train_ctxl
):
    # dev.ctxl has fewer sentences than train.conll; test.ctxl as many as
    # dev.conll but other token counts
    corpus = "train" if train_ctxl == "dev.ctxl" else "dev"
    code = main(["train", "--embedding", "contextual",
                 "--train-path", str(data_dir / f"{corpus}.conll"),
                 "--dev-path", str(data_dir / "dev.conll"),
                 "--train-ctxl-path", str(data_dir / train_ctxl),
                 "--dev-ctxl-path", str(data_dir / "dev.ctxl"),
                 "--n-heads", "2", "--epochs", "1"])
    assert code == 1
    assert train_ctxl in _one_error_line(capsys, "alignment")


@pytest.mark.parametrize("split", ["train", "test-shifted"])
def test_ctxl_stacks_written_back_reproduce_the_file(data_dir, tmp_path, split):
    path = data_dir / f"{split}.ctxl"
    write_contextual(tmp_path / "back.ctxl", read_contextual(path))
    assert (tmp_path / "back.ctxl").read_bytes() == path.read_bytes()


def test_cli_ctxl_with_a_repeated_record_id_is_one_format_line(data_dir, tmp_path, capsys):
    path = tmp_path / "train.ctxl"
    write_contextual(path, [np.zeros((1, 1, 2))] * 2)
    blob = bytearray(path.read_bytes())
    blob[24 + 17] = ord("0")  # a 20-byte header, then 17-byte records: id "0" twice
    path.write_bytes(bytes(blob))
    code = main(["train", "--embedding", "contextual",
                 "--train-path", str(data_dir / "train.conll"),
                 "--dev-path", str(data_dir / "dev.conll"),
                 "--train-ctxl-path", str(path),
                 "--dev-ctxl-path", str(data_dir / "dev.ctxl"),
                 "--n-heads", "2", "--epochs", "1"])
    assert code == 1
    assert _one_error_line(capsys, "corpus-format") == (
        f"error category=corpus-format: {path}: record 1 carries id '0', not '1'"
    )


def test_cli_empty_dev_file_is_one_config_error_line(data_dir, tmp_path, capsys):
    empty = tmp_path / "empty.conll"
    empty.write_text("\n")
    code = main(["train", "--train-path", str(data_dir / "train.conll"),
                 "--dev-path", str(empty),
                 "--pretrained-path", str(data_dir / "pretrained.vec"),
                 "--n-heads", "2", "--epochs", "2",
                 "--checkpoint-out", str(tmp_path / "model.ckpt")])
    assert code == 1
    err = _one_error_line(capsys, "config")
    assert err == f"error category=config: dev_path {empty} holds no sentences"
    assert not (tmp_path / "model.ckpt").exists()


def test_cli_empty_train_file_is_one_config_error_line(data_dir, tmp_path, capsys):
    empty = tmp_path / "empty.conll"
    empty.write_text("")
    code = main(["train", "--train-path", str(empty),
                 "--dev-path", str(data_dir / "dev.conll"),
                 "--pretrained-path", str(data_dir / "pretrained.vec"),
                 "--checkpoint-out", str(tmp_path / "model.ckpt")])
    assert code == 1
    err = _one_error_line(capsys, "config")
    assert err == f"error category=config: train_path {empty} holds no sentences"
    assert not (tmp_path / "model.ckpt").exists()


def test_cli_predict_and_evaluate_on_an_empty_test_file_are_one_config_error_line(
    data_dir, tmp_path, capsys
):
    # an empty gold file scores nothing: no predictions, and no uas of 0 tokens
    empty = tmp_path / "empty.conll"
    empty.write_text("\n")
    train(_tiny_config(data_dir, tmp_path, epochs=1))
    capsys.readouterr()
    code = main(["predict", "--checkpoint-in", str(tmp_path / "model.ckpt"),
                 "--test-path", str(empty),
                 "--predictions-path", str(tmp_path / "pred.conll")])
    assert code == 1
    want = f"error category=config: test_path {empty} holds no sentences"
    assert _one_error_line(capsys, "config") == want
    assert not (tmp_path / "pred.conll").exists()
    code = main(["evaluate", "--test-path", str(empty), "--predictions-path", str(empty),
                 "--metrics-path", str(tmp_path / "metrics.csv")])
    assert code == 1
    assert _one_error_line(capsys, "config") == want
    assert not (tmp_path / "metrics.csv").exists()


def _overwrite_argv(command: str, data_dir, checkpoint, given: Path) -> list[str]:
    """A command whose output path names `given`, the copy of one of its inputs."""
    if command == "train":
        return ["train", "--train-path", str(given), "--dev-path", str(data_dir / "dev.conll"),
                "--pretrained-path", str(data_dir / "pretrained.vec"), "--n-heads", "2",
                "--epochs", "1", "--checkpoint-out", str(given)]
    if command == "predict":  # another spelling of the same file
        return ["predict", "--checkpoint-in", str(checkpoint), "--test-path", str(given),
                "--predictions-path", f"{given.parent}/./{given.name}"]
    return ["evaluate", "--test-path", str(data_dir / "test.conll"),
            "--predictions-path", str(given), "--metrics-path", str(given)]


@pytest.mark.parametrize("command, output, source", [
    ("train", "checkpoint_out", "train_path"),
    ("predict", "predictions_path", "test_path"),
    ("evaluate", "metrics_path", "predictions_path"),
])
def test_cli_output_path_naming_an_input_is_one_config_line_before_any_work(
    data_dir, agnostic_checkpoint, tmp_path, capsys, monkeypatch, command, output, source
):
    monkeypatch.setattr(LisaModel, "predict_sentence", _no_decode)
    given = tmp_path / "input.conll"
    shutil.copy(data_dir / ("train.conll" if command == "train" else "test.conll"), given)
    before = given.read_bytes()
    assert main(_overwrite_argv(command, data_dir, agnostic_checkpoint, given)) == 1
    err = _one_error_line(capsys, "config")
    assert err.startswith(f"error category=config: {output} ") and err.endswith(
        f" is the file {source} names"
    ), err
    assert given.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["input.conll"]


@pytest.mark.parametrize("command", ["train", "predict"])
def test_cli_output_in_a_missing_directory_is_one_config_line_before_any_work(
    data_dir, agnostic_checkpoint, tmp_path, capsys, monkeypatch, command
):
    monkeypatch.setattr(LisaModel, "predict_sentence", _no_decode)
    out = tmp_path / "nodir" / "out"
    if command == "train":
        argv, output = ["train", "--train-path", str(data_dir / "train.conll"),
                        "--dev-path", str(data_dir / "dev.conll"),
                        "--pretrained-path", str(data_dir / "pretrained.vec"),
                        "--n-heads", "2", "--epochs", "1", "--checkpoint-out", str(out)
                        ], "checkpoint_out"
    else:
        argv, output = ["predict", "--checkpoint-in", str(agnostic_checkpoint),
                        "--test-path", str(data_dir / "test.conll"),
                        "--predictions-path", str(out)], "predictions_path"
    assert main(argv) == 1
    assert _one_error_line(capsys, "config") == (
        f"error category=config: {output}: no such directory: {out.parent}"
    )
    assert not out.parent.exists()


@pytest.mark.parametrize("command, output", [
    ("train", "checkpoint_out"),
    ("predict", "predictions_path"),
    ("evaluate", "metrics_path"),
])
def test_cli_output_naming_a_directory_is_one_config_line_before_any_work(
    data_dir, agnostic_checkpoint, tmp_path, capsys, monkeypatch, command, output
):
    monkeypatch.setattr(LisaModel, "predict_sentence", _no_decode)
    out = tmp_path / "out"
    out.mkdir()
    argv = {
        "train": ["train", "--train-path", str(data_dir / "train.conll"),
                  "--dev-path", str(data_dir / "dev.conll"),
                  "--pretrained-path", str(data_dir / "pretrained.vec"),
                  "--n-heads", "2", "--epochs", "1", "--checkpoint-out", str(out)],
        "predict": ["predict", "--checkpoint-in", str(agnostic_checkpoint),
                    "--test-path", str(data_dir / "test.conll"), "--predictions-path", str(out)],
        "evaluate": ["evaluate", "--test-path", str(data_dir / "test.conll"),
                     "--predictions-path", str(data_dir / "test.conll"),
                     "--metrics-path", str(out)],
    }[command]
    assert main(argv) == 1
    assert _one_error_line(capsys, "config") == (
        f"error category=config: {output}: {out} is a directory"
    )
    assert list(out.iterdir()) == []


def test_cli_widths_and_mix_size_come_from_the_inputs(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["gen-synth", "--out-dir", str(data), "--n-train", "8",
                 "--n-dev", "3", "--n-test", "3", "--dim", "32"]) == 0
    for split in ("train", "dev", "test"):  # gen-synth writes 3-layer stacks
        corpus = read_conll(data / f"{split}.conll")
        write_contextual(data / f"{split}.ctxl", gen_contextual_layers(corpus, 2, 32, 0))
    for embedding in ("static", "contextual"):
        ckpt = tmp_path / f"{embedding}.ckpt"
        assert main(["train", "--embedding", embedding, "--n-heads", "4",
                     "--train-path", str(data / "train.conll"),
                     "--dev-path", str(data / "dev.conll"),
                     "--pretrained-path", str(data / "pretrained.vec"),
                     "--train-ctxl-path", str(data / "train.ctxl"),
                     "--dev-ctxl-path", str(data / "dev.ctxl"),
                     "--epochs", "1", "--checkpoint-out", str(ckpt)]) == 0
        assert main(["predict", "--checkpoint-in", str(ckpt),
                     "--test-path", str(data / "test.conll"),
                     "--test-ctxl-path", str(data / "test.ctxl"),
                     "--predictions-path", str(tmp_path / "pred.conll")]) == 0
        model = load_checkpoint(ckpt).model
        assert model.width == 32
        assert (model.mix.n_layers if model.mix else None) == (
            2 if embedding == "contextual" else None
        )
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("n_layers, dim", [(2, 8), (3, 6)])
def test_cli_predict_with_a_ctxl_of_another_shape_is_one_config_error_line(
    data_dir, contextual_checkpoint, tmp_path, capsys, monkeypatch, n_layers, dim
):
    # the checkpoint was trained on 3-layer stacks of width 8; the stack
    # shape is checked once, before any sentence is decoded
    monkeypatch.setattr(LisaModel, "predict_sentence", _no_decode)
    corpus = read_conll(data_dir / "test.conll")
    write_contextual(tmp_path / "other.ctxl", gen_contextual_layers(corpus, n_layers, dim, 5))
    code = main(["predict", "--checkpoint-in", str(contextual_checkpoint),
                 "--test-path", str(data_dir / "test.conll"),
                 "--test-ctxl-path", str(tmp_path / "other.ctxl"),
                 "--predictions-path", str(tmp_path / "pred.conll")])
    assert code == 1
    assert _one_error_line(capsys, "config") == (
        f"error category=config: {tmp_path / 'other.ctxl'}: holds {n_layers} layers of"
        f" width {dim}, the model takes 3 layers of width 8"
    )
    assert not (tmp_path / "pred.conll").exists()


def _no_decode(*args, **kwargs):
    raise AssertionError("a sentence was decoded")


@pytest.fixture(scope="module")
def agnostic_checkpoint(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("sa") / "sa.ckpt"
    train(_tiny_config(data_dir, out.parent, variant="sa", checkpoint_out=out, epochs=1))
    return out


@pytest.mark.parametrize("source", ["hardened", "external", "gold"])
def test_cli_predict_refuses_a_parse_source_the_checkpoint_lacks_before_decoding(
    data_dir, agnostic_checkpoint, tmp_path, capsys, monkeypatch, source
):
    # the variant comes from the checkpoint, so the command needs no --variant
    monkeypatch.setattr(LisaModel, "predict_sentence", _no_decode)
    code = main(["predict", "--checkpoint-in", str(agnostic_checkpoint),
                 "--parse-source", source,
                 "--test-path", str(data_dir / "test.conll"),
                 "--test-heads-path", str(data_dir / "test.heads"),
                 "--predictions-path", str(tmp_path / "pred.conll")])
    assert code == 1
    assert _one_error_line(capsys, "config") == (
        "error category=config: the syntax-agnostic variant has no parse head, so"
        f" parse_source {source!r} is impossible"
    )
    assert not (tmp_path / "pred.conll").exists()


def test_cli_train_agnostic_variant_with_hardened_source_is_one_config_line(
    data_dir, tmp_path, capsys
):
    code = main(["train", "--variant", "sa", "--parse-source", "hardened",
                 "--train-path", str(data_dir / "train.conll"),
                 "--dev-path", str(data_dir / "dev.conll"),
                 "--pretrained-path", str(data_dir / "pretrained.vec"),
                 "--checkpoint-out", str(tmp_path / "model.ckpt")])
    assert code == 1
    assert "parse_source 'hardened' is impossible" in _one_error_line(capsys, "config")
    assert not (tmp_path / "model.ckpt").exists()


def test_cli_predict_hardened_decodes_the_self_parse_made_one_hot(
    data_dir, tmp_path, monkeypatch
):
    config = _tiny_config(data_dir, tmp_path, epochs=20)  # fewer epochs decode no frame
    train(config)
    loaded = load_checkpoint(config.checkpoint_out)
    want = [
        loaded.model.predict_sentence(
            sent, loaded.transitions, source=ParseSource.SELF, harden=True
        ).sentence
        for sent in read_conll(data_dir / "test.conll")
    ]
    assert any(sent.frames for sent in want)
    calls = []
    decode = LisaModel.predict_sentence

    def spy(model, sentence, transitions, **inputs):
        calls.append(inputs)
        return decode(model, sentence, transitions, **inputs)

    monkeypatch.setattr(LisaModel, "predict_sentence", spy)
    assert main(["predict", "--checkpoint-in", str(config.checkpoint_out),
                 "--parse-source", "hardened",
                 "--test-path", str(data_dir / "test.conll"),
                 "--predictions-path", str(tmp_path / "pred.conll")]) == 0
    assert calls == [{"source": ParseSource.SELF, "harden": True}] * len(want)
    write_conll(tmp_path / "want.conll", want)
    assert (tmp_path / "pred.conll").read_bytes() == (tmp_path / "want.conll").read_bytes()


@pytest.mark.parametrize("n_layers, dim", [(2, 8), (3, 6)])
def test_cli_dev_ctxl_of_another_shape_is_one_config_error_line_before_training(
    data_dir, tmp_path, capsys, monkeypatch, n_layers, dim
):
    # train.ctxl holds 3-layer stacks of width 8
    def no_step(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(LisaModel, "loss", no_step)
    corpus = read_conll(data_dir / "dev.conll")
    write_contextual(tmp_path / "dev.ctxl", gen_contextual_layers(corpus, n_layers, dim, 5))
    code = main(["train", "--embedding", "contextual", "--n-heads", "2", "--epochs", "1",
                 "--train-path", str(data_dir / "train.conll"),
                 "--dev-path", str(data_dir / "dev.conll"),
                 "--train-ctxl-path", str(data_dir / "train.ctxl"),
                 "--dev-ctxl-path", str(tmp_path / "dev.ctxl"),
                 "--checkpoint-out", str(tmp_path / "model.ckpt")])
    assert code == 1
    err = _one_error_line(capsys, "config")
    assert "3 layers of width 8" in err and f"{n_layers} layers of width {dim}" in err, err
    assert not (tmp_path / "model.ckpt").exists()


def test_cli_config_file_not_utf8_is_one_format_error_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"epochs = 7\nvariant = caf\xe9\n")
    assert main(["train", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error category=corpus-format: {cfg}: line 2: not UTF-8"]


def test_cli_divergence_prints_one_stderr_line(data_dir, tmp_path):
    # a real process, so numpy's floating-point warnings would reach stderr
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "lisa_srl.cli", "train",
         "--train-path", str(data_dir / "train.conll"),
         "--dev-path", str(data_dir / "dev.conll"),
         "--pretrained-path", str(data_dir / "pretrained.vec"),
         "--n-layers", "2", "--n-heads", "2", "--d-role", "4",
         "--epochs", "3", "--lr", "1e154"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 1
    err = proc.stderr.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith("error category=non-finite: loss diverged"), err[0]


def test_cli_config_file_with_flag_override(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["gen-synth", "--out-dir", str(data), "--n-train", "8",
                 "--n-dev", "3", "--n-test", "3", "--dim", "8"]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "n_layers = 2\nn_heads = 2\n"
        f"d_role = 4\nepochs = 9\nlr = 0.1\ntrain_path = {data}/train.conll\n"
        f"dev_path = {data}/dev.conll\npretrained_path = {data}/pretrained.vec\n"
    )
    code = main(["train", "--config", str(cfg), "--epochs", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "epoch=1 " in out and "epoch=2 " not in out
