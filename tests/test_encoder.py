"""Attention mechanics, parse injection/extraction, and the parse loss.

Oracles: double loops for weighted sums, mpmath-frozen softmax values for
a calculator-sized attention instance, finite differences for the parse
loss, and bitwise comparisons for the injection-locality contract.
"""

import numpy as np
import pytest

from lisa_srl.config import RunConfig
from lisa_srl.corpus import AnnotatedSentence
from lisa_srl.embed import positional_encoding
from lisa_srl.errors import ConfigError, DimensionError, InjectionError
from lisa_srl.numerics import Parameter, Tape, Tensor, finite_difference_check
from lisa_srl.encoder import (
    Encoder,
    ParseSource,
    extract_parse,
    parse_adjacency,
    parse_loss,
)
from lisa_srl.synth import gen_synthetic


def _head(rng, d_model, d_k):
    """One head's fused [wq | wk | wv] projection."""
    return Parameter("t.qkv", rng.normal(0, 0.5, (d_model, 3 * d_k)))


def _attention_weights(x, qkv):
    """Row-stochastic attention and its pre-softmax logits for one head."""
    _, logits, weights = Tape().attention(x, qkv, 1)
    return weights[0], logits.data


def _attend(attention, values):
    """Row t of the output is the attention-weighted sum of value rows: the
    head attends with `attention` injected, and projects values by identity."""
    d_v = np.shape(values)[1]
    qkv = Tensor(np.hstack([np.zeros((d_v, 2 * d_v)), np.eye(d_v)]))
    out, _, _ = Tape().attention(Tensor(values), qkv, 1, lambda own: attention)
    return out


def _small_config(**kw):
    base = dict(
        n_layers=2, n_heads=2, parse_layer=2, pos_layer=1,
    )
    base.update(kw)
    config = RunConfig(**base)
    config.validate()
    return config


# ---------------------------------------------------------------------------
# Tape.attention: one head's weights and weighted sums


def test_zero_queries_give_uniform_attention():
    rng = np.random.default_rng(0)
    head = _head(rng, 4, 3)
    head.data[:, :3] = 0.0
    x = Tensor(rng.normal(size=(5, 4)))
    attention, _ = _attention_weights(x, head)
    assert np.max(np.abs(attention - 0.2)) < 1e-12


def test_scale_factor_for_dk_64():
    assert 64 ** -0.5 == 0.125
    rng = np.random.default_rng(1)
    head = Parameter("t.qkv", np.hstack([np.eye(64)] * 3))
    x = rng.normal(size=(2, 64))
    _, logits = _attention_weights(Tensor(x), head)
    assert np.max(np.abs(logits - 0.125 * (x @ x.T))) < 1e-12


def test_two_token_attention_matches_frozen_oracle():
    # x=[[1],[2]], wq=[[0.5]], wk=[[2]] -> logits [[1,2],[2,4]]; softmax rows
    # frozen from a 30-digit mpmath evaluation
    head = Parameter("t.qkv", [[0.5, 2.0, 1.0]])
    attention, logits = _attention_weights(Tensor([[1.0], [2.0]]), head)
    assert np.max(np.abs(logits - [[1.0, 2.0], [2.0, 4.0]])) < 1e-12
    expected = [
        [0.26894142136999512075, 0.73105857863000487925],
        [0.11920292202211755594, 0.88079707797788244406],
    ]
    assert np.max(np.abs(attention - expected)) < 1e-15


def test_attend_identity_returns_values():
    rng = np.random.default_rng(2)
    v = rng.normal(size=(4, 3))
    out = _attend(np.eye(4), v)
    assert np.array_equal(out.data, v)


def test_attend_uniform_returns_mean_row():
    rng = np.random.default_rng(3)
    v = rng.normal(size=(4, 3))
    out = _attend(np.full((4, 4), 0.25), v)
    for t in range(4):
        assert np.max(np.abs(out.data[t] - v.mean(axis=0))) < 1e-12


def test_attend_matches_double_loop_oracle():
    rng = np.random.default_rng(4)
    raw = rng.random((5, 5))
    attention = raw / raw.sum(axis=1, keepdims=True)
    v = rng.normal(size=(5, 3))
    out = _attend(attention, v)
    expected = np.zeros((5, 3))
    for t in range(5):
        for q in range(5):
            for d in range(3):
                expected[t, d] += attention[t, q] * v[q, d]
    assert np.max(np.abs(out.data - expected)) < 1e-12


def test_attend_ignores_unattended_value_rows():
    # permutation-sensitivity contract: rows with zero attention weight
    # cannot influence the output
    rng = np.random.default_rng(5)
    attention = np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [0.25, 0.75, 0.0]])
    v1 = rng.normal(size=(3, 2))
    v2 = v1.copy()
    v2[2] = rng.normal(size=2)
    out1 = _attend(attention, v1)
    out2 = _attend(attention, v2)
    assert np.array_equal(out1.data, out2.data)


# ---------------------------------------------------------------------------
# encode_layer / Encoder


def test_single_head_identity_conv_layer_is_pure_attention():
    rng = np.random.default_rng(6)
    config = _small_config(n_layers=1, n_heads=1, parse_layer=1)
    enc = Encoder.build(config, 4, rng)
    x = Tensor(rng.normal(size=(5, 4)))
    out, _ = enc.encode(Tape(), x)
    expected, _, _ = Tape().attention(x, enc.layers[0][0], 1, None, positional_encoding(5, 4))
    assert np.array_equal(out.data, expected.data)


@pytest.mark.parametrize("d, n_heads", [(6, 2), (8, 4), (64, 4)])
def test_query_key_and_value_are_each_d_over_n_heads_wide(d, n_heads):
    # qkv is [d, 3d]: per head a query, a key and a value block of d / H
    config = _small_config(n_heads=n_heads)
    enc = Encoder.build(config, d, np.random.default_rng(16))
    assert [qkv.shape for qkv, _ in enc.layers] == [(d, 3 * d)] * config.n_layers
    x = Tensor(np.random.default_rng(17).normal(size=(3, d)))
    out, trace = enc.encode(Tape(), x)
    assert out.shape == (3, d) and trace.attentions[2].shape == (n_heads, 3, 3)


def test_output_shape_for_all_lengths():
    rng = np.random.default_rng(7)
    enc = Encoder.build(_small_config(), 6, rng)
    for t_len in (1, 2, 7, 50):
        out, _ = enc.encode(Tape(), Tensor(rng.normal(size=(t_len, 6))))
        assert out.shape == (t_len, 6)


def test_attention_is_global_perturbation_probe():
    rng = np.random.default_rng(8)
    enc = Encoder.build(_small_config(), 6, rng)
    x = rng.normal(size=(3, 6))
    base, _ = enc.encode(Tape(), Tensor(x))
    poked = x.copy()
    poked[2] += 1.0
    out, _ = enc.encode(Tape(), Tensor(poked))
    assert np.max(np.abs(out.data[0] - base.data[0])) > 1e-8


def test_encoder_rejects_wrong_width():
    # the width check is the attention op's own shape check
    rng = np.random.default_rng(9)
    enc = Encoder.build(_small_config(), 6, rng)
    with pytest.raises(DimensionError):
        enc.encode(Tape(), Tensor(np.zeros((3, 5))))


def test_config_validation():
    with pytest.raises(ConfigError, match="parse_layer"):
        _small_config(parse_layer=3)
    with pytest.raises(ConfigError, match="pos_layer"):
        _small_config(pos_layer=0)


def test_all_attention_rows_stochastic():
    rng = np.random.default_rng(10)
    enc = Encoder.build(_small_config(), 6, rng)
    x = Tensor(rng.normal(size=(6, 6)))
    for injected in (None, [1, 1, 4, 1, 4, 4]):
        _, trace = enc.encode(Tape(), x, injected)
        assert sorted(trace.attentions) == [1, 2]
        for attention in trace.attentions.values():
            assert attention.shape == (2, 6, 6)
            sums = attention.sum(axis=-1)
            assert np.max(np.abs(sums - 1.0)) <= 1e-9


def test_injection_changes_only_the_parse_head():
    rng = np.random.default_rng(11)
    config = _small_config()
    enc = Encoder.build(config, 6, rng)
    x = Tensor(rng.normal(size=(4, 6)))
    _, self_trace = enc.encode(Tape(), x)
    _, gold_trace = enc.encode(Tape(), x, [1, 1, 1, 2])
    for layer, attention in self_trace.attentions.items():
        for head in range(config.n_heads):
            if (layer, head) == (config.parse_layer, 0):
                continue
            assert np.array_equal(attention[head], gold_trace.attentions[layer][head])
    # pre-injection logits are the model's own either way
    assert np.array_equal(
        self_trace.parse_logits.data, gold_trace.parse_logits.data
    )
    # layers before the parse layer are bitwise unchanged
    assert np.array_equal(
        self_trace.layer_outputs[1].data, gold_trace.layer_outputs[1].data
    )
    injected = gold_trace.parse_attention
    assert np.array_equal(injected, parse_adjacency([1, 1, 1, 2], 4))


def test_parse_attention_is_the_heads_own_softmax():
    rng = np.random.default_rng(15)
    enc = Encoder.build(_small_config(), 6, rng)
    x = Tensor(rng.normal(size=(4, 6)))
    _, self_trace = enc.encode(Tape(), x)
    _, gold_trace = enc.encode(Tape(), x, [1, 1, 1, 2])
    _, hard_trace = enc.encode(Tape(), x, harden=True)
    own = self_trace.parse_attention
    logits = self_trace.parse_logits.data
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    assert np.array_equal(own, e / e.sum(axis=1, keepdims=True))
    assert np.array_equal(gold_trace.parse_logits.data, logits)
    assert np.array_equal(hard_trace.parse_attention, parse_adjacency(extract_parse(own), 4))


# ---------------------------------------------------------------------------
# Injection / extraction


def test_parse_adjacency_examples():
    adj = parse_adjacency([1, 1, 1], 3)
    assert np.array_equal(adj, [[0, 1, 0], [0, 1, 0], [0, 1, 0]])
    assert np.array_equal(parse_adjacency([0], 1), [[1.0]])


def test_parse_adjacency_is_one_hot_rows():
    rng = np.random.default_rng(12)
    for _ in range(20):
        t_len = int(rng.integers(1, 9))
        heads = [int(rng.integers(0, t_len)) for _ in range(t_len)]
        adj = parse_adjacency(heads, t_len)
        assert np.array_equal(adj.sum(axis=1), np.ones(t_len))
        assert np.array_equal(np.sort(np.unique(adj)), [0.0, 1.0] if t_len > 1 else [1.0])


def test_parse_adjacency_rejects_bad_input():
    with pytest.raises(InjectionError):
        parse_adjacency([3], 1)
    with pytest.raises(InjectionError):
        parse_adjacency([0, 1], 3)


def test_extract_inverts_inject():
    rng = np.random.default_rng(13)
    for s in gen_synthetic(40, 1):
        heads = list(s.heads)
        assert extract_parse(parse_adjacency(heads, len(s))) == heads


def test_extract_ties_take_lowest_index():
    assert extract_parse(np.full((3, 3), 1.0 / 3.0)) == [0, 0, 0]


# ---------------------------------------------------------------------------
# Parse loss


def test_parse_loss_zero_on_exact_one_hot():
    # a logit gap of 800 drives the softmax to an exact one-hot in float64
    logits = np.zeros((3, 3))
    gold = [1, 1, 2]
    for t, h in enumerate(gold):
        logits[t, h] = 800.0
    loss = parse_loss(Tape(), Tensor(logits), gold)
    assert loss.item() == 0.0


def test_parse_loss_uniform_is_log_t():
    loss = parse_loss(Tape(), Tensor(np.zeros((4, 4))), [1, 1, 3, 0])
    assert abs(loss.item() - np.log(4.0)) < 1e-15


def test_parse_loss_rejects_misaligned_gold():
    with pytest.raises(InjectionError):
        parse_loss(Tape(), Tensor(np.zeros((3, 3))), [0, 1])


def test_parse_loss_finite_differences():
    rng = np.random.default_rng(14)
    config = _small_config()
    enc = Encoder.build(config, 6, rng)
    x = rng.normal(size=(3, 6))
    gold = [1, 1, 0]

    def run(backward=False) -> float:
        tape = Tape()
        _, trace = enc.encode(tape, Tensor(x))
        loss = parse_loss(tape, trace.parse_logits, gold)
        if backward:
            tape.backward(loss)
        return loss.item()

    params = [p for qkv, conv in enc.layers for p in (qkv, *conv)]
    for p in params:
        p.reset_gradient()
    run(backward=True)
    checked = 0
    for p in params:
        if p.name.startswith("enc.l1") or p.name.endswith(".qkv"):
            assert finite_difference_check(run, p, 1e-5) < 1e-4
            checked += 1
    assert checked == 6


def test_parse_source_enum_values():
    assert {s.value for s in ParseSource} == {"self", "external", "gold"}
