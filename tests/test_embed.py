"""Embedding paths: static table + convs, scalar mix, positional encodings.

Oracles: direct sliding-window loops for the convolution, mpmath-frozen
sinusoid and softmax-saturation values, and finite differences for the
gradient paths.
"""

import struct

import numpy as np
import pytest

from conftest import probe_sum
from lisa_srl.corpus import CorpusFormatError
from lisa_srl.errors import ConfigError, DimensionError
from lisa_srl.numerics import Parameter, Tape, Tensor, finite_difference_check
from lisa_srl.embed import (
    ScalarMix,
    StaticTable,
    gen_contextual_layers,
    init_conv_stack,
    positional_encoding,
    read_contextual,
    read_vec_file,
    static_embed,
    write_contextual,
    write_vec_file,
)
from lisa_srl.synth import gen_synthetic, pretrained_vectors


def _table(d=4, extra_pretrained=()):
    rng = np.random.default_rng(0)
    words = ["dog", "ran", "the"]
    pre = {w: rng.normal(size=d) for w in list(words) + list(extra_pretrained)}
    return StaticTable.build(words, pre)


# ---------------------------------------------------------------------------
# Static path


def test_zero_residual_init_reproduces_pretrained():
    table = _table()
    out = static_embed(Tape(), ["the", "dog", "ran"], table, [])
    expected = np.stack([table.pretrained[w] for w in ("the", "dog", "ran")])
    assert np.array_equal(out.data, expected)


def test_unknown_word_uses_unk_vector():
    table = _table()
    out = static_embed(Tape(), ["wug"], table, [])
    assert np.array_equal(out.data[0], table.unk)


def test_training_word_missing_from_pretrained_gets_unk_plus_residual():
    rng = np.random.default_rng(1)
    pre = {"dog": rng.normal(size=4)}
    table = StaticTable.build(["dog", "wug"], pre)
    table.residual.data[table.index["wug"]] = [1.0, 2.0, 3.0, 4.0]
    out = static_embed(Tape(), ["wug"], table, [])
    assert np.array_equal(out.data[0], table.unk + [1.0, 2.0, 3.0, 4.0])


def test_conv3_matches_sliding_window_oracle():
    rng = np.random.default_rng(2)
    d = 2
    x = np.abs(rng.normal(size=(3, d)))  # relu passes x unchanged
    stack = init_conv_stack(1, d, "emb")
    for p in stack[0]:
        p.data[...] = rng.normal(size=p.shape)
    w_left, w_center, w_right, bias = layer = stack[0]

    out = Tape().conv_block(Tensor(x), *layer)
    padded = np.vstack([np.zeros((1, d)), x, np.zeros((1, d))])
    for t in range(3):
        expected = x[t] + (
            padded[t] @ w_left.data
            + padded[t + 1] @ w_center.data
            + padded[t + 2] @ w_right.data
            + bias.data
        )
        assert np.max(np.abs(out.data[t] - expected)) < 1e-12


def test_conv_stack_zero_init_is_exact_identity():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 4))
    out = Tensor(x)
    for layer in init_conv_stack(3, 4, "emb"):
        out = Tape().conv_block(out, *layer)
    assert np.array_equal(out.data, x)


def test_conv_stack_matches_composed_oracle_when_trained():
    # one residual layer with random taps vs a direct per-token computation
    rng = np.random.default_rng(12)
    d = 3
    x = rng.normal(size=(4, d))
    (layer,) = init_conv_stack(1, d, "emb")
    for p in layer:
        p.data[...] = rng.normal(size=p.shape)
    w_left, w_center, w_right, bias = layer
    out = Tape().conv_block(Tensor(x), *layer)
    r = np.maximum(x, 0.0)
    padded = np.vstack([np.zeros((1, d)), r, np.zeros((1, d))])
    for t in range(4):
        expected = x[t] + (
            padded[t] @ w_left.data
            + padded[t + 1] @ w_center.data
            + padded[t + 2] @ w_right.data
            + bias.data
        )
        assert np.max(np.abs(out.data[t] - expected)) < 1e-12


def test_static_embed_dimension_mismatch_is_a_dimension_error():
    # the width check is the convolution op's own shape check
    table = _table(d=4)
    with pytest.raises(DimensionError):
        static_embed(Tape(), ["dog"], table, init_conv_stack(1, 6, "emb"))


def test_static_gradients_only_reach_parameters():
    table = _table(d=4)
    convs = init_conv_stack(2, 4, "emb")
    frozen_before = {w: v.copy() for w, v in table.pretrained.items()}
    tape = Tape()
    out = static_embed(tape, ["the", "dog", "wug"], table, convs)
    loss = probe_sum(tape, out)
    tape.backward(loss)
    assert np.any(table.residual.grad != 0.0)
    for w, v in table.pretrained.items():
        assert np.array_equal(v, frozen_before[w])
    # out-of-vocabulary token contributes no residual gradient rows beyond vocab
    assert table.residual.grad.shape == table.residual.shape


def test_static_embed_finite_differences():
    table = _table(d=4)
    convs = init_conv_stack(1, 4, "emb")
    rng = np.random.default_rng(4)
    for w_left, _, w_right, _ in convs:
        for p in (w_left, w_right):
            p.data[...] = 0.1 * rng.normal(size=p.shape)
    probe = Tensor(rng.normal(size=(3, 4)))

    def run(backward=False) -> float:
        tape = Tape()
        out = static_embed(tape, ["the", "dog", "ran"], table, convs)
        loss = probe_sum(tape, out, probe)
        if backward:
            tape.backward(loss)
        return loss.item()

    params = [table.residual] + [q for l in convs for q in l]
    for p in params:
        p.reset_gradient()
    run(backward=True)
    for p in params:
        assert finite_difference_check(run, p, 1e-5) < 1e-6


# ---------------------------------------------------------------------------
# Scalar mix


def _layer_stack(rng, n_layers=3, t_len=4, d=6):
    return rng.normal(size=(n_layers, t_len, d))


def _mixed(layers, mix):
    """The contextual embedding, which carries no positional encodings."""
    return Tape().scalar_mix(mix.w, mix.gamma, layers).data


def test_scalar_mix_uniform_weights_average():
    rng = np.random.default_rng(5)
    layers = _layer_stack(rng)
    mix = ScalarMix.build(3)
    assert np.max(np.abs(_mixed(layers, mix) - layers.mean(axis=0))) < 1e-12


def test_scalar_mix_zero_gamma_annihilates():
    rng = np.random.default_rng(6)
    layers = _layer_stack(rng)
    mix = ScalarMix.build(3)
    mix.gamma.data[...] = 0.0
    assert np.array_equal(_mixed(layers, mix), np.zeros((4, 6)))


def test_scalar_mix_saturation_tracks_softmax_oracle():
    # softmax(10, 0, 0) computed at extended precision with mpmath:
    # coeff0 = 0.99990920838434097818, others = 4.5395807829510909425e-05 each
    rng = np.random.default_rng(7)
    layers = _layer_stack(rng)
    mix = ScalarMix.build(3)
    mix.w.data[0, 0] = 10.0
    mixed = _mixed(layers, mix)
    coeffs = mix.coefficients()
    assert abs(coeffs[0] - 0.99990920838434097818) < 1e-15
    assert abs(coeffs[1] - 4.5395807829510909425e-05) < 1e-18
    rel = np.abs(mixed - layers[0]) / np.maximum(np.abs(layers[0]), 1e-9)
    assert np.median(rel) < 1e-3


def test_scalar_mix_coefficients_sum_to_one():
    rng = np.random.default_rng(8)
    mix = ScalarMix.build(4)
    mix.w.data[...] = rng.normal(size=(1, 4)) * 3.0
    assert abs(mix.coefficients().sum() - 1.0) <= 1e-9


def test_scalar_mix_gradients_reach_w_and_gamma_only():
    rng = np.random.default_rng(10)
    layers = _layer_stack(rng, d=6)
    before = layers.copy()
    mix = ScalarMix.build(3)
    mix.w.data[...] = rng.normal(size=(1, 3))
    probe = Tensor(rng.normal(size=layers.shape[1:]))

    def run(backward=False) -> float:
        tape = Tape()
        out = tape.scalar_mix(mix.w, mix.gamma, layers)
        loss = probe_sum(tape, out, probe)
        if backward:
            tape.backward(loss)
        return loss.item()

    mix.w.reset_gradient()
    mix.gamma.reset_gradient()
    run(backward=True)
    assert finite_difference_check(run, mix.w, 1e-5) < 1e-7
    assert finite_difference_check(run, mix.gamma, 1e-5) < 1e-7
    assert np.array_equal(layers, before)


# ---------------------------------------------------------------------------
# Positional encodings


def test_positional_row_zero_alternates():
    pe = positional_encoding(3, 6)
    assert np.array_equal(pe[0], [0.0, 1.0, 0.0, 1.0, 0.0, 1.0])


def test_positional_encoding_is_cached_and_read_only():
    pe = positional_encoding(4, 6)
    assert positional_encoding(4, 6) is pe
    with pytest.raises(ValueError):
        pe[0, 0] = 1.0
    assert np.array_equal(pe[0], [0.0, 1.0, 0.0, 1.0, 0.0, 1.0])


def test_positional_range():
    pe = positional_encoding(50, 16)
    assert np.all(pe <= 1.0) and np.all(pe >= -1.0)


def test_positional_spot_values_pos1_d4():
    # mpmath 50-digit evaluation of sin/cos(1) and sin/cos(1/100)
    pe = positional_encoding(2, 4)
    expected = [
        0.84147098480789650665,
        0.54030230586813971740,
        0.0099998333341666646825,
        0.99995000041666527780,
    ]
    assert np.max(np.abs(pe[1] - expected)) < 1e-15


def test_positional_rejects_odd_width():
    with pytest.raises(ConfigError):
        positional_encoding(3, 5)


# ---------------------------------------------------------------------------
# Files


def test_vec_file_round_trip(tmp_path):
    items = pretrained_vectors(8, 0)
    path = tmp_path / "w.vec"
    write_vec_file(path, items)
    table = read_vec_file(path)
    assert set(table) == {w for w, _ in items}
    for w, v in items:
        assert np.array_equal(table[w], v)


def test_vec_file_rejects_ragged(tmp_path):
    path = tmp_path / "w.vec"
    path.write_text("a 1.0 2.0\nb 1.0\n")
    with pytest.raises(CorpusFormatError, match="line 2"):
        read_vec_file(path)


def test_vec_file_rejects_a_repeated_word(tmp_path):
    path = tmp_path / "w.vec"
    path.write_text("a 1.0 2.0\nb 1.0 2.0\na 3.0 4.0\n")
    with pytest.raises(CorpusFormatError) as err:
        read_vec_file(path)
    assert str(err.value) == f"{path}: line 3: repeats the word 'a'"


def test_contextual_round_trip(tmp_path):
    corpus = gen_synthetic(5, 1)
    stacks = gen_contextual_layers(corpus, 3, 8, seed=2)
    path = tmp_path / "c.ctxl"
    write_contextual(path, stacks)
    back = read_contextual(path)
    assert len(back) == len(stacks) == 5
    for sent, arr, want in zip(corpus, back, stacks):
        assert arr.shape == want.shape == (3, len(sent), 8)
        assert np.array_equal(arr, want.astype("<f4").astype(np.float64))


@pytest.mark.parametrize("ids, record", [("00", 1), ("10", 0), ("02", 1)])
def test_contextual_record_i_must_carry_id_i(tmp_path, ids, record):
    # a repeated, an out-of-order and a skipped id
    path = tmp_path / "c.ctxl"
    write_contextual(path, [np.zeros((1, 1, 2))] * 2)
    blob = bytearray(path.read_bytes())
    for i, sid in enumerate(ids):  # a 20-byte header, then 17-byte records
        blob[24 + 17 * i] = ord(sid)
    path.write_bytes(bytes(blob))
    with pytest.raises(CorpusFormatError) as err:
        read_contextual(path)
    assert str(err.value) == f"{path}: record {record} carries id {ids[record]!r}, not '{record}'"


def test_contextual_bad_magic(tmp_path):
    path = tmp_path / "c.ctxl"
    path.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(CorpusFormatError, match="magic"):
        read_contextual(path)


def test_contextual_version_1_is_refused(tmp_path):
    path = tmp_path / "c.ctxl"
    path.write_bytes(b"CTXL" + struct.pack("<III", 1, 3, 8))
    with pytest.raises(CorpusFormatError, match="unsupported contextual-file version 1"):
        read_contextual(path)


def test_contextual_layers_are_contextual():
    # identical words in different neighborhoods diverge above layer 0
    corpus = gen_synthetic(40, 3)
    stacks = gen_contextual_layers(corpus, 2, 8, seed=0)
    seen = {}
    diverged = False
    for sent, arr in zip(corpus, stacks):
        for t, w in enumerate(sent.tokens):
            if w in seen:
                prev = seen[w]
                assert np.array_equal(prev[0], arr[0, t])  # layer 0 word-pure
                if not np.allclose(prev[1], arr[1, t]):
                    diverged = True
            else:
                seen[w] = (arr[0, t].copy(), arr[1, t].copy())
    assert diverged
