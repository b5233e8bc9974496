"""Configuration, checkpoints, the training pipeline and the CLI."""

import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lisa_srl.checkpoint import load_checkpoint, save_checkpoint
from lisa_srl.cli import main
from lisa_srl.config import RunConfig, build_run_config, parse_config_file
from lisa_srl.corpus import read_conll, read_heads_file
from lisa_srl.embed import read_contextual, read_vec_file
from lisa_srl.errors import (
    CompatibilityError,
    ConfigError,
    CorpusFormatError,
    LisaError,
    NonFiniteError,
)
from lisa_srl.evaluation import corpus_uas, srl_prf
from lisa_srl.model import LisaModel
from lisa_srl.numerics import Tape
from lisa_srl.pipeline import (
    GenSynthParams,
    SplitData,
    _predict_corpus,
    evaluate,
    gen_synth,
    load_split,
    predict,
    train,
)


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
        "shuffle = false\n"
    )
    cfg = build_run_config(parse_config_file(path))
    assert cfg.variant == "sa" and cfg.lr == 0.25
    assert cfg.epochs == 7 and cfg.shuffle is False


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
    with pytest.raises(ConfigError):
        build_run_config({"shuffle": "maybe"})
    with pytest.raises(ConfigError):
        build_run_config({"variant": "tree-lstm"})
    with pytest.raises(ConfigError):
        build_run_config({"gold_mix": "1.5"})
    with pytest.raises(ConfigError):
        build_run_config({"gold_mix": "-0.1"})
    bad = tmp_path / "bad.cfg"
    bad.write_text("epochs 7\n")
    with pytest.raises(ConfigError, match="bad.cfg:1"):
        parse_config_file(bad)
    dup = tmp_path / "dup.cfg"
    dup.write_text("seed = 1\nseed = 2\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_file(dup)


def test_agnostic_variant_forbids_parse_injection_sources():
    with pytest.raises(ConfigError):
        build_run_config({"variant": "sa", "parse_source": "gold"})
    with pytest.raises(ConfigError):
        build_run_config({"variant": "sa", "parse_source": "external"})
    build_run_config({"variant": "sa", "parse_source": "self"})


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
        n_layers="2", n_heads="2", d_k="4", d_v="4", d_model="8",
        parse_layer="2", pos_layer="1", d_role="4",
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
        loaded.model, dev, loaded.transitions, config.source()
    )
    f1 = srl_prf(dev.corpus, predictions)[2]
    assert f1 == result.best_dev_f1


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
    model_params = {p.name: p.value.data for p in result.model.parameters()}
    for p in loaded.model.parameters():
        assert np.array_equal(p.value.data, model_params[p.name]), p.name
    assert loaded.step == result.steps
    assert loaded.config == config
    assert np.array_equal(loaded.transitions.matrix, result.transitions.matrix)
    assert np.array_equal(loaded.transitions.start, result.transitions.start)
    assert loaded.transitions.labels == result.transitions.labels

    probe = read_conll(config.dev_path)[:3]
    for sent in probe:
        a = result.model.loss(Tape(), sent).total.item()
        b = loaded.model.loss(Tape(), sent).total.item()
        assert a == b  # bitwise, not approx


def test_checkpoint_rejects_bad_magic_and_version(tmp_path):
    path = tmp_path / "x.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CorpusFormatError, match="magic"):
        load_checkpoint(path)
    for version in (1, 99):
        path.write_bytes(b"LISA" + struct.pack("<I", version) + b"\x00" * 16)
        with pytest.raises(CorpusFormatError, match="version"):
            load_checkpoint(path)


def _drop_tensor(blob: bytes, victim: str) -> bytes:
    """Re-encode a checkpoint without one named tensor."""
    (meta_len,) = struct.unpack_from("<Q", blob, 8)
    head_end = 16 + meta_len
    (count,) = struct.unpack_from("<I", blob, head_end)
    offset = head_end + 4
    records = []
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
        offset += 8 * (int(np.prod(shape)) if rank else 1)
        records.append((name, blob[start:offset]))
    kept = [raw for name, raw in records if name != victim]
    assert len(kept) == count - 1
    return blob[:head_end] + struct.pack("<I", count - 1) + b"".join(kept)


def test_checkpoint_with_missing_tensor_is_incompatible(data_dir, tmp_path):
    config = _tiny_config(data_dir, tmp_path, epochs=1)
    train(config)
    blob = (tmp_path / "model.ckpt").read_bytes()
    broken = tmp_path / "broken.ckpt"
    broken.write_bytes(_drop_tensor(blob, "pos.b"))
    with pytest.raises(CompatibilityError, match="pos.b"):
        load_checkpoint(broken)


def test_checkpoint_with_unknown_config_key_is_incompatible(data_dir, tmp_path):
    config = _tiny_config(data_dir, tmp_path, epochs=1)
    train(config)
    blob = (tmp_path / "model.ckpt").read_bytes()
    (meta_len,) = struct.unpack_from("<Q", blob, 8)
    meta = json.loads(blob[16 : 16 + meta_len])
    meta["config"]["d_q"] = 4
    meta_bytes = json.dumps(meta, sort_keys=True).encode()
    broken = tmp_path / "broken.ckpt"
    broken.write_bytes(
        blob[:8] + struct.pack("<Q", len(meta_bytes)) + meta_bytes
        + blob[16 + meta_len :]
    )
    with pytest.raises(CompatibilityError, match="d_q"):
        load_checkpoint(broken)


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
    blob = bytearray(valid_inputs[kind])
    for _ in range(data.draw(st.integers(0, 3), label="flips")):
        at = data.draw(st.integers(0, len(blob) - 1), label="flip at")
        blob[at] ^= data.draw(st.integers(1, 255), label="xor")
    blob = blob[: data.draw(st.integers(0, len(blob)), label="length")]
    path = tmp_path_factory.getbasetemp() / f"mutated.{kind}"
    path.write_bytes(bytes(blob))
    try:
        READERS[kind](path)
    except LisaError:
        pass


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
    result.model.parameters()[0].value.data[0] = np.nan
    with pytest.raises(NonFiniteError):
        save_checkpoint(tmp_path / "nan.ckpt", result.model, config, 0,
                        result.transitions)


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
        "--n-layers", "2", "--n-heads", "2", "--d-k", "4",
        "--d-v", "4", "--d-model", "8", "--d-role", "4",
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


def test_cli_config_file_with_flag_override(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["gen-synth", "--out-dir", str(data), "--n-train", "8",
                 "--n-dev", "3", "--n-test", "3", "--dim", "8"]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "n_layers = 2\nn_heads = 2\nd_k = 4\nd_v = 4\nd_model = 8\n"
        f"d_role = 4\nepochs = 9\nlr = 0.1\ntrain_path = {data}/train.conll\n"
        f"dev_path = {data}/dev.conll\npretrained_path = {data}/pretrained.vec\n"
    )
    code = main(["train", "--config", str(cfg), "--epochs", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "epoch=1 " in out and "epoch=2 " not in out
