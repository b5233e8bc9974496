import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from conftest import probe_sum, tape_sum
from lisa_srl import numerics
from lisa_srl.errors import ContractError, DimensionError, NonFiniteError
from lisa_srl.numerics import Parameter, Tape, Tensor, finite_difference_check, softmax


def matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Scalar triple loop, independent of any numpy matmul fast path."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for r in range(k):
                acc += a[i, r] * b[r, j]
            out[i, j] = acc
    return out


class TestMatmul:
    def test_identity(self):
        t = Tape()
        out = t.matmul(Tensor(np.eye(2)), Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor(np.zeros(2)))
        assert np.array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_projector_row_select(self):
        t = Tape()
        out = t.matmul(
            Tensor([[1.0, 0.0], [0.0, 0.0]]), Tensor([[5.0, 6.0], [7.0, 8.0]]),
            Tensor(np.zeros(2)),
        )
        assert np.array_equal(out.data, [[5.0, 6.0], [0.0, 0.0]])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        out = Tape().matmul(Tensor(a), Tensor(b), Tensor(np.zeros(2)))
        assert np.abs(out.data - matmul_oracle(a, b)).max() <= 1e-12

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            Tape().matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))

    def test_backward_analytic_gradient(self):
        # d sum(A @ B) / dA == ones @ B^T, exactly
        rng = np.random.default_rng(3)
        a = Tensor(rng.standard_normal((3, 4)))
        b = Tensor(rng.standard_normal((4, 2)))
        t = Tape()
        loss = probe_sum(t, t.matmul(a, b, Tensor(np.zeros(2))))
        t.backward(loss)
        expect_a = np.ones((3, 2)) @ b.data.T
        expect_b = a.data.T @ np.ones((3, 2))
        assert np.abs(a.grad - expect_a).max() <= 1e-12
        assert np.abs(b.grad - expect_b).max() <= 1e-12

    def test_bias_is_added_to_every_row(self):
        out = Tape().matmul(
            Tensor(np.eye(2)), Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([10.0, 20.0])
        )
        assert np.array_equal(out.data, [[11.0, 22.0], [13.0, 24.0]])
        with pytest.raises(DimensionError, match=r"\(2, 2\) \+ \(3,\)"):
            Tape().matmul(Tensor(np.eye(2)), Tensor(np.eye(2)), Tensor(np.zeros(3)))

    @pytest.mark.parametrize("m", [1, 4])
    def test_finite_differences_with_bias(self, m):
        rng = np.random.default_rng(40 + m)
        params = [Parameter(n, rng.standard_normal(s)) for n, s in
                  (("a", (m, 3)), ("b", (3, 5)), ("bias", (5,)))]
        probe = Tensor(rng.standard_normal((m, 5)))

        def run(backward=False) -> float:
            t = Tape()
            loss = probe_sum(t, t.matmul(*params), probe)
            if backward:
                t.backward(loss)
            return loss.item()

        for p in params:
            p.reset_gradient()
        run(backward=True)
        for p in params:
            assert finite_difference_check(run, p, 1e-5) < 1e-8, p.name

    def test_bias_equals_a_separate_row_add_bitwise(self):
        # a @ b, then the bias added to every row as its own op: the bias
        # gradient is the column sum of the upstream gradient
        rng = np.random.default_rng(41)
        a, b = rng.standard_normal((7, 64)), rng.standard_normal((64, 9))
        bias = rng.standard_normal(9)
        g = rng.standard_normal((7, 9))
        inputs = Tensor(a), Tensor(b), Tensor(bias)
        t = Tape()
        out = t.matmul(*inputs)
        t.backward(probe_sum(t, out, g))
        assert np.array_equal(out.data, a @ b + bias[None, :])
        for tensor, want in zip(inputs, (g @ b.T, a.T @ g, g.sum(axis=0))):
            assert np.array_equal(tensor.grad, want)


class TestSoftmaxRows:
    """`softmax` over the last axis, so over the rows of a matrix."""

    def test_all_zero_rows_are_uniform(self):
        assert np.allclose(softmax(np.zeros((2, 3))), 1.0 / 3.0, atol=1e-15)

    def test_huge_equal_logits_no_overflow(self):
        assert np.array_equal(softmax(np.array([[1000.0, 1000.0]])), [[0.5, 0.5]])

    def test_against_extended_precision_oracle(self):
        # frozen from mpmath (60 digits): exp-normalize of [1, 2, 3]
        expected = np.array(
            [0.0900305731703804579980221, 0.2447284710547976524729596, 0.6652409557748218895290183]
        )
        assert np.abs(softmax(np.array([1.0, 2.0, 3.0])) - expected).max() < 1e-15

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_rows_sum_to_one(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((rows, cols)) * rng.uniform(0.1, 50.0)
        out = softmax(x)
        assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-9
        assert (out >= 0.0).all()


class TestTensorInvariants:
    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            Tensor([1.0, np.inf])
        with pytest.raises(NonFiniteError):
            Tensor([[np.nan]])

    def test_scalar_shape(self):
        s = Tensor(3.0)
        assert s.ndim == 0 and s.item() == 3.0


class TestBackward:
    def test_non_scalar_loss_rejected(self):
        t = Tape()
        out = tape_sum(t, Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
        with pytest.raises(ContractError):
            t.backward(out)

    def test_missing_or_non_tensor_loss_rejected(self):
        t = Tape()
        loss = probe_sum(t, Tensor([1.0, 2.0]))
        for losses in ((), (loss, 1.0), (np.ones(()),)):
            with pytest.raises(ContractError):
                t.backward(*losses)
        with pytest.raises(ContractError, match=r"\(2,\)"):
            t.backward(loss, Tensor([1.0, 2.0]))

    def test_several_losses_equal_their_sum_on_the_tape_bitwise(self):
        # seeding each loss with 1.0 gives, bit for bit, the gradients of
        # (a + b) + c recorded as two add ops
        rng = np.random.default_rng(12)
        x = rng.standard_normal((4, 3)) * 3.0
        w, bias = rng.standard_normal((3, 5)), rng.standard_normal(5)
        probe = rng.standard_normal((4, 5))

        def losses(t):
            inputs = Tensor(x), Tensor(w), Tensor(bias)
            h = t.matmul(*inputs)
            a = t.cross_entropy(h, [4, 0, 1, 1])
            b = probe_sum(t, h, probe)
            c = t.cross_entropy(t.matmul(inputs[0], inputs[1], Tensor(np.zeros(5))), [2, 2, 3, 0])
            return inputs, (a, b, c)

        t = Tape()
        summed, (a, b, c) = losses(t)
        t.backward(tape_sum(t, tape_sum(t, a, b), c))
        t = Tape()
        seeded, parts = losses(t)
        t.backward(*parts)
        for want, got in zip(summed, seeded):
            assert np.array_equal(want.grad, got.grad)

    def test_unreachable_parameter_untouched(self):
        p = Parameter("unused", np.ones((2, 2)))
        q = Parameter("used", np.ones((2, 2)))
        t = Tape()
        loss = probe_sum(t, t.gather_add(np.ones((2, 2)), q, [0, 1]), np.full((2, 2), 2.0))
        t.backward(loss)
        assert p.grad is None
        assert np.array_equal(q.grad, 2.0 * np.ones((2, 2)))

    def test_constant_operand_takes_no_gradient(self):
        # gather_add's base is a constant: only the gathered rows take gradient
        x, constant = Parameter("x", np.array([[1.0, 2.0]])), np.array([[3.0, 4.0]])
        t = Tape()
        out = t.gather_add(constant, x, [0])
        t.backward(probe_sum(t, out, [[5.0, 6.0]]))
        assert np.array_equal(out.data, [[4.0, 6.0]])
        assert np.array_equal(x.grad, [[5.0, 6.0]])
        with pytest.raises(DimensionError):
            t.gather_add(np.zeros((1, 3)), x, [0])

    def test_an_op_no_gradient_reached_is_not_run(self):
        # recorded beside the loss, before and after it: its backward raises
        x, y = Tensor([1.0, 2.0]), Tensor([3.0, 4.0])
        t = Tape()

        def back(g):
            raise AssertionError("ran the backward of an op off every loss path")

        unused = numerics._unchecked(x.data * 2.0)
        t._backprops.append(((unused,), back))
        loss = probe_sum(t, y)
        t._backprops.append(((numerics._unchecked(x.data),), back))
        t.backward(loss)
        assert x.grad is None and unused.grad is None
        assert np.array_equal(y.grad, [1.0, 1.0])

    @pytest.mark.parametrize("through", ["output", "logits", "both"])
    def test_attention_backward_takes_none_for_an_output_without_gradient(self, through):
        rng = np.random.default_rng(4)
        x, w = Tensor(rng.standard_normal((3, 4))), Tensor(rng.standard_normal((4, 12)))
        t = Tape()
        out, logits, _ = t.attention(x, w, 2)
        (outputs, back), = t._backprops
        received = []
        t._backprops[0] = (outputs, lambda *grads: received.append(grads) or back(*grads))
        reached = {"output": [out], "logits": [logits], "both": [out, logits]}[through]
        t.backward(*[probe_sum(t, r) for r in reached])
        assert outputs[0] is out and outputs[1] is logits
        (grads,) = received
        for output, g in zip(outputs, grads):
            assert (g is None) == (output not in reached)
        assert x.grad is not None and w.grad is not None

    def test_gradient_accumulates_until_reset(self):
        p = Parameter("p", np.array([2.0, 3.0]))
        assert p.grad is None
        for _ in range(2):
            t = Tape()
            t.backward(probe_sum(t, p))
        assert np.array_equal(p.grad, [2.0, 2.0])
        p.reset_gradient()
        assert p.grad is None


class TestCompositeOps:
    def test_bilinear_matches_triple_loop(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((6, 2))
        w_pred = rng.standard_normal((2, 3))
        u = rng.standard_normal((3, 4, 5))
        w_role = rng.standard_normal((2, 5))
        rows = [3, 1]
        out = Tape().bilinear(Tensor(x), rows, Tensor(w_pred), Tensor(u), Tensor(w_role))
        p, r = matmul_oracle(x, w_pred), matmul_oracle(x, w_role)
        expect = np.zeros((2, 6, 4))
        for k, row in enumerate(rows):
            for tt in range(6):
                for ll in range(4):
                    acc = 0.0
                    for i in range(3):
                        for j in range(5):
                            acc += p[row, i] * u[i, ll, j] * r[tt, j]
                    expect[k, tt, ll] = acc
        assert np.abs(out.data - expect).max() <= 1e-12


def attention_oracle(x, w, n_heads, adjacency=None):
    """Plain per-head numpy: projections, scaled scores, softmax, weighted
    values; `adjacency` replaces head 0's attention."""
    width = w.shape[1] // n_heads
    d_k = width // 3
    outputs, logits = [], []
    for h in range(n_heads):
        block = w[:, h * width : (h + 1) * width]
        q, k, v = x @ block[:, :d_k], x @ block[:, d_k : 2 * d_k], x @ block[:, 2 * d_k :]
        scores = q @ k.T / np.sqrt(d_k)
        a = np.exp(scores - scores.max(axis=1, keepdims=True))
        a /= a.sum(axis=1, keepdims=True)
        if h == 0 and adjacency is not None:
            a = adjacency
        outputs.append(a @ v)
        logits.append(scores)
    return np.concatenate(outputs, axis=1), np.stack(logits)


def _injected(t_len):
    """Row-stochastic, mostly on (t + 1) mod T: unlike any softmax, and not
    one-hot, so a softmax gradient leaking through it would show."""
    return 0.75 * np.eye(t_len)[(np.arange(t_len) + 1) % t_len] + 0.25 / t_len


class TestAttention:
    D, D_K = 4, 2

    def _inputs(self, n_heads, t_len, seed=0):
        rng = np.random.default_rng(seed)
        x = Parameter("x", rng.standard_normal((t_len, self.D)))
        w = Parameter("w", rng.standard_normal((self.D, n_heads * 3 * self.D_K)))
        return rng, x, w

    @pytest.mark.parametrize("inject", [False, True])
    def test_forward_matches_per_head_oracle(self, inject):
        _, x, w = self._inputs(3, 5)
        adjacency = _injected(5) if inject else None
        out, logits, weights = Tape().attention(
            x, w, 3, (lambda own: adjacency) if inject else None
        )
        expect_out, expect_logits = attention_oracle(x.data, w.data, 3, adjacency)
        assert out.shape == (5, 3 * self.D_K)
        assert logits.shape == (5, 5)
        assert np.abs(out.data - expect_out).max() <= 1e-12
        assert np.abs(logits.data - expect_logits[0]).max() <= 1e-12
        assert np.abs(weights.sum(axis=2) - 1.0).max() <= 1e-12
        if inject:
            assert np.array_equal(weights[0], adjacency)

    def test_inject_receives_the_heads_own_softmax(self):
        _, x, w = self._inputs(2, 4)
        seen = []

        def inject(own):
            seen.append(own.copy())
            return np.eye(4)

        _, logits, _ = Tape().attention(x, w, 2, inject)
        s = logits.data
        own = np.exp(s - s.max(axis=1, keepdims=True))
        assert np.abs(seen[0] - own / own.sum(axis=1, keepdims=True)).max() <= 1e-15

    def test_rejects_bad_shapes(self):
        _, x, w = self._inputs(2, 3)
        with pytest.raises(DimensionError):
            Tape().attention(x, w, 3)  # width not a multiple
        with pytest.raises(DimensionError):
            Tape().attention(Tensor(x.data[:, :3]), w, 2)  # rows of w != width of x

    @pytest.mark.parametrize("n_heads", [1, 2, 3])
    def test_width_must_be_three_blocks_of_d_k_per_head(self, n_heads):
        # w is [d, 3*H*d_k] for some d_k >= 1; d_k is read from that width
        x = Tensor(np.ones((2, self.D)))
        for width in range(0, 3 * n_heads * 3 + 1):
            w = Tensor(np.ones((self.D, width)))
            if width and width % (3 * n_heads) == 0:
                out, _, _ = Tape().attention(x, w, n_heads)
                assert out.shape == (2, width // 3)
            else:
                with pytest.raises(DimensionError, match=rf"w \({self.D}, {width}\)"):
                    Tape().attention(x, w, n_heads)

    def test_positional_equals_the_op_on_the_sum_bitwise(self):
        rng, x, w = self._inputs(3, 5, seed=4)
        positional = rng.standard_normal((5, self.D))
        probe_out = rng.standard_normal((5, 3 * self.D_K))
        probe_logits = rng.standard_normal((5, 5))
        summed = Tensor(x.data + positional)
        results = []
        for x_in, pe in ((summed, None), (x, positional)):
            w_in = Tensor(w.data)
            t = Tape()
            out, logits, weights = t.attention(x_in, w_in, 3, None, pe)
            t.backward(probe_sum(t, out, probe_out), probe_sum(t, logits, probe_logits))
            results.append((out.data, logits.data, weights, x_in.grad, w_in.grad))
        for want, got in zip(*results):
            assert np.array_equal(want, got)

    def test_positional_is_a_constant_of_the_shape_of_x(self):
        _, x, w = self._inputs(2, 3)
        positional = np.arange(12.0).reshape(3, 4)
        positional.setflags(write=False)  # backward may not write to it
        t = Tape()
        out, _, _ = t.attention(x, w, 2, None, positional)
        t.backward(probe_sum(t, out))
        assert np.array_equal(positional, np.arange(12.0).reshape(3, 4))
        for bad in (positional[:2], positional[:, :2], positional[0]):
            with pytest.raises(DimensionError, match="positional"):
                Tape().attention(x, w, 2, None, bad)

    @pytest.mark.parametrize("through", ["output", "logits", "both"])
    @pytest.mark.parametrize("inject", [False, True])
    @pytest.mark.parametrize("t_len", [1, 4])
    @pytest.mark.parametrize("n_heads", [1, 3])
    def test_finite_differences(self, n_heads, t_len, inject, through):
        self._check_finite_differences(n_heads, t_len, inject, through, positional=False)

    @pytest.mark.parametrize("through", ["output", "logits", "both"])
    @pytest.mark.parametrize("inject", [False, True])
    @pytest.mark.parametrize("t_len", [1, 4])
    @pytest.mark.parametrize("n_heads", [1, 3])
    def test_finite_differences_with_positional(self, n_heads, t_len, inject, through):
        self._check_finite_differences(n_heads, t_len, inject, through, positional=True)

    def _check_finite_differences(self, n_heads, t_len, inject, through, positional):
        rng, x, w = self._inputs(n_heads, t_len, seed=n_heads * 10 + t_len)
        adjacency = _injected(t_len)
        probe_out = Tensor(rng.standard_normal((t_len, n_heads * self.D_K)))
        probe_logits = Tensor(rng.standard_normal((t_len, t_len)))
        pe = rng.standard_normal((t_len, self.D)) if positional else None

        def run(backward=False) -> float:
            t = Tape()
            out, logits, _ = t.attention(
                x, w, n_heads, (lambda own: adjacency) if inject else None, pe
            )
            terms = []
            if through in ("output", "both"):
                terms.append(probe_sum(t, out, probe_out))
            if through in ("logits", "both"):
                terms.append(probe_sum(t, logits, probe_logits))
            if backward:
                t.backward(*terms)
            return sum(term.item() for term in terms)

        for p in (x, w):
            p.reset_gradient()
        run(backward=True)
        for p in (x, w):
            assert finite_difference_check(run, p, 1e-5) < 1e-7, p.name


def unfused_conv_block(x, w_left, w_center, w_right, bias, g):
    """x + conv3(relu(x)) and its gradients as three separate ops compute
    them: relu, then the width-3 convolution, then the residual add, with
    the backward replayed in reverse (the residual's gradient reaches x
    first, then the relu-masked convolution gradient)."""
    h = np.maximum(x, 0.0)
    before = np.zeros_like(h)
    before[1:] = h[:-1]
    after = np.zeros_like(h)
    after[:-1] = h[1:]
    conv = before @ w_left + h @ w_center + after @ w_right + bias
    out = x + conv
    g_h = g @ w_center.T
    g_h[1:] = (g @ w_right.T)[:-1] + g_h[1:]
    g_h[:-1] += (g @ w_left.T)[1:]
    g_x = np.array(g)
    g_x += np.array(g_h) * (x > 0.0)
    grads = {"x": g_x, "l": before.T @ g, "c": h.T @ g, "r": after.T @ g}
    grads["b"] = g.sum(axis=0)
    return out, grads


class TestConv3:
    """The residual width-3 convolution block x + conv3(relu(x))."""

    def test_matches_sliding_window_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 3))
        taps = [rng.standard_normal((3, 3)) for _ in range(3)]
        bias = rng.standard_normal(3)
        out = Tape().conv_block(Tensor(x), *(Tensor(m) for m in taps), Tensor(bias))
        padded = np.vstack([np.zeros((1, 3)), np.maximum(x, 0.0), np.zeros((1, 3))])
        for t in range(4):
            expect = x[t] + sum(padded[t + i] @ taps[i] for i in range(3)) + bias
            assert np.abs(out.data[t] - expect).max() <= 1e-12

    def test_rejects_mismatched_taps(self):
        x = Tensor(np.zeros((2, 3)))
        good, bad = Tensor(np.zeros((3, 3))), Tensor(np.zeros((3, 2)))
        with pytest.raises(DimensionError):
            Tape().conv_block(x, good, bad, good, Tensor(np.zeros(3)))
        with pytest.raises(DimensionError):
            Tape().conv_block(x, good, good, good, Tensor(np.zeros(2)))

    @pytest.mark.parametrize("t_len", [1, 2, 5])
    def test_finite_differences(self, t_len):
        rng = np.random.default_rng(t_len)
        params = [Parameter("x", rng.standard_normal((t_len, 3)))]
        params += [Parameter(n, rng.standard_normal((3, 3))) for n in ("l", "c", "r")]
        params.append(Parameter("b", rng.standard_normal(3)))
        probe = Tensor(rng.standard_normal((t_len, 3)))

        def run(backward=False) -> float:
            t = Tape()
            loss = probe_sum(t, t.conv_block(*params), probe)
            if backward:
                t.backward(loss)
            return loss.item()

        for p in params:
            p.reset_gradient()
        run(backward=True)
        for p in params:
            assert finite_difference_check(run, p, 1e-5) < 1e-8, p.name

    @pytest.mark.parametrize("t_len,d", [(1, 3), (2, 8), (5, 3), (9, 64)])
    def test_equals_unfused_composition_bitwise(self, t_len, d):
        rng = np.random.default_rng(100 + t_len)
        x = rng.standard_normal((t_len, d))
        x[rng.random((t_len, d)) < 0.2] = 0.0  # the relu's mask is x > 0
        taps = {n: rng.standard_normal((d, d)) for n in ("l", "c", "r")}
        bias = rng.standard_normal(d)
        g = rng.standard_normal((t_len, d))
        want, want_grads = unfused_conv_block(x, *taps.values(), bias, g)

        inputs = {"x": Tensor(x), **{n: Tensor(m) for n, m in taps.items()}}
        inputs["b"] = Tensor(bias)
        t = Tape()
        out = t.conv_block(*inputs.values())
        t.backward(probe_sum(t, out, g))
        assert np.array_equal(out.data, want)
        for name, tensor in inputs.items():
            assert np.array_equal(tensor.grad, want_grads[name]), name


class TestGatherAdd:
    TABLE = np.random.default_rng(31).standard_normal((4, 3))
    ROWS = [2, -1, 0, 2, 2, 2, -1, 1]  # out-of-vocabulary -1, row 2 read 4 times

    def test_forward_equals_the_one_hot_product_bitwise(self):
        rng = np.random.default_rng(32)
        base = rng.standard_normal((len(self.ROWS), 3))
        out = Tape().gather_add(base, Tensor(self.TABLE), self.ROWS)
        one_hot = np.zeros((len(self.ROWS), 4))
        for t, row in enumerate(self.ROWS):
            if row >= 0:
                one_hot[t, row] = 1.0
        assert np.array_equal(out.data, base + one_hot @ self.TABLE)
        assert np.array_equal(out.data[[1, 6]], base[[1, 6]])

    def test_rejects_bad_rows_and_shapes(self):
        table = Tensor(self.TABLE)
        with pytest.raises(DimensionError):
            Tape().gather_add(np.zeros((2, 3)), table, [0, 4])
        with pytest.raises(DimensionError):
            Tape().gather_add(np.zeros((2, 3)), table, [0])
        with pytest.raises(DimensionError):
            Tape().gather_add(np.zeros((2, 2)), table, [0, 1])

    def test_finite_differences(self):
        rng = np.random.default_rng(33)
        table = Parameter("table", self.TABLE.copy())
        base = rng.standard_normal((len(self.ROWS), 3))
        probe = Tensor(rng.standard_normal((len(self.ROWS), 3)))

        def run(backward=False) -> float:
            t = Tape()
            out = t.gather_add(base, table, self.ROWS)
            loss = probe_sum(t, out, probe)
            if backward:
                t.backward(loss)
            return loss.item()

        table.reset_gradient()
        run(backward=True)
        assert finite_difference_check(run, table, 1e-5) < 1e-8
        assert np.array_equal(table.grad[3], np.zeros(3))  # a row nothing reads


def unfused_scalar_mix(w, gamma, layers, g):
    """gamma * sum_l softmax(w)_l layers[l] and the gradients of w and gamma
    as three separate ops compute them: a row softmax, the layer mix and the
    scale, with the backward replayed in reverse."""
    e = np.exp(w - w.max(axis=1, keepdims=True))
    coeffs = e / e.sum(axis=1, keepdims=True)
    mixed = np.einsum("l,ltd->td", coeffs[0], layers)
    out = np.asarray(mixed * gamma)
    g_gamma = np.asarray((g * mixed).sum())
    g_coeffs = np.einsum("td,ltd->l", g * gamma, layers)[None, :]
    g_w = coeffs * (g_coeffs - (g_coeffs * coeffs).sum(axis=1, keepdims=True))
    return out, g_w, g_gamma


class TestScalarMix:
    D = 4

    def _inputs(self, t_len, n_layers, seed):
        rng = np.random.default_rng(seed)
        w = Parameter("w", rng.standard_normal((1, n_layers)) * 2.0)
        gamma = Parameter("gamma", rng.normal(1.0, 0.5))
        layers = rng.standard_normal((n_layers, t_len, self.D))
        return rng, w, gamma, layers

    @pytest.mark.parametrize("n_layers", [1, 3])
    @pytest.mark.parametrize("t_len", [1, 4])
    def test_finite_differences(self, t_len, n_layers):
        rng, w, gamma, layers = self._inputs(t_len, n_layers, t_len + n_layers)
        probe = rng.standard_normal((t_len, self.D))

        def run(backward=False) -> float:
            t = Tape()
            loss = probe_sum(t, t.scalar_mix(w, gamma, layers), probe)
            if backward:
                t.backward(loss)
            return loss.item()

        for p in (w, gamma):
            p.reset_gradient()
        run(backward=True)
        for p in (w, gamma):
            assert finite_difference_check(run, p, 1e-5) < 1e-8, p.name

    @pytest.mark.parametrize("n_layers", [1, 3])
    @pytest.mark.parametrize("t_len", [1, 4])
    def test_equals_unfused_composition_bitwise(self, t_len, n_layers):
        rng, w, gamma, layers = self._inputs(t_len, n_layers, 50 + t_len)
        g = rng.standard_normal((t_len, self.D))
        want, want_w, want_gamma = unfused_scalar_mix(w.data, gamma.data, layers, g)
        inputs = Tensor(w.data), Tensor(gamma.data)
        t = Tape()
        out = t.scalar_mix(*inputs, layers)
        t.backward(probe_sum(t, out, g))
        assert np.array_equal(out.data, want)
        assert np.array_equal(inputs[0].grad, want_w)
        assert np.array_equal(inputs[1].grad, want_gamma)

    def test_rejects_bad_shapes(self):
        _, w, gamma, layers = self._inputs(3, 2, 0)
        for args in (
            (gamma, gamma, layers),
            (w, w, layers),
            (w, gamma, layers[:1]),
            (w, gamma, layers[0]),
        ):
            with pytest.raises(DimensionError):
                Tape().scalar_mix(*args)


class TestCrossEntropy:
    @staticmethod
    def _oracle(logits, gold):
        """Per-frame token mean of -log softmax at gold, then the frame mean."""
        stack = logits.reshape(-1, *logits.shape[-2:])
        gold = np.asarray(gold).reshape(stack.shape[:2])
        frame_losses = []
        for scores, tags in zip(stack, gold):
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            probs = e / e.sum(axis=1, keepdims=True)
            frame_losses.append(-np.mean(np.log(probs[np.arange(len(tags)), tags])))
        return np.mean(frame_losses)

    @pytest.mark.parametrize("shape", [(1, 5), (4, 5), (1, 4, 5), (3, 4, 5)])
    def test_matches_oracle(self, shape):
        rng = np.random.default_rng(len(shape) * 10 + shape[0])
        logits = rng.standard_normal(shape) * 3.0
        gold = rng.integers(0, shape[-1], shape[:-1])
        out = Tape().cross_entropy(Tensor(logits), gold)
        assert out.ndim == 0
        assert abs(out.item() - self._oracle(logits, gold)) <= 1e-12

    def test_stack_keeps_the_two_stage_summation_order(self):
        # frame by frame: -(sum / T), frames added left to right, then * (1 / P)
        rng = np.random.default_rng(9)
        for n_frames in (1, 2, 3, 9):
            logits = rng.standard_normal((n_frames, 7, 5)) * 4.0
            gold = rng.integers(0, 5, (n_frames, 7))
            total = None
            for scores, tags in zip(logits, gold):
                shifted = scores - scores.max(axis=1, keepdims=True)
                log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
                frame = -(log_probs[np.arange(7), tags].sum() / 7)
                total = frame if total is None else total + frame
            out = Tape().cross_entropy(Tensor(logits), gold)
            assert out.item() == total * (1.0 / n_frames)

    def test_rejects_misshapen_or_out_of_range_gold(self):
        logits = Tensor(np.zeros((2, 3)))
        for gold in ([0], [0, 3], [-1, 0], [[0, 1]]):
            with pytest.raises(DimensionError):
                Tape().cross_entropy(logits, gold)
        with pytest.raises(DimensionError):
            Tape().cross_entropy(Tensor(np.zeros((0, 2, 3))), np.zeros((0, 2)))

    @pytest.mark.parametrize("shape", [(1, 5), (4, 5), (1, 4, 5), (3, 4, 5)])
    def test_finite_differences(self, shape):
        rng = np.random.default_rng(len(shape) + shape[0])
        x = Parameter("x", rng.standard_normal(shape) * 2.0)
        gold = rng.integers(0, shape[-1], shape[:-1])
        upstream = -1.7  # so the incoming gradient is not 1

        def run(backward=False) -> float:
            t = Tape()
            loss = probe_sum(t, t.cross_entropy(x, gold), upstream)
            if backward:
                t.backward(loss)
            return loss.item()

        x.reset_gradient()
        run(backward=True)
        assert finite_difference_check(run, x, 1e-5) < 1e-8


def unfused_bilinear(x, rows, w_pred, u, w_role, g, held):
    """The scores and the gradients of x, w_pred, u and w_role as three ops
    compute them: the predicate projection, the role projection, then the
    scorer, with the backward replayed in reverse (the role projection's
    gradient reaches x, which already holds `held`, before the predicate
    projection's)."""
    p, r = x @ w_pred, x @ w_role
    u_flat = u.reshape(u.shape[0], -1)
    pu = (p[rows] @ u_flat).reshape(len(rows), *u.shape[1:])
    out = (pu @ r.T).transpose(0, 2, 1)
    g_pu = (g.transpose(0, 2, 1) @ r).reshape(len(rows), -1)
    g_r = g.transpose(1, 0, 2).reshape(len(x), -1) @ pu.reshape(-1, r.shape[1])
    g_p = np.zeros_like(p)
    np.add.at(g_p, rows, g_pu @ u_flat.T)
    g_x = held + g_r @ w_role.T
    g_x += g_p @ w_pred.T
    grads = {"x": g_x, "w_pred": x.T @ g_p, "w_role": x.T @ g_r}
    grads["u"] = (p[rows].T @ g_pu).reshape(u.shape)
    return out, grads


class TestBilinear:
    @staticmethod
    def _inputs(seed, d=2, d_p=3, n_labels=4, d_r=5, t_len=4):
        rng = np.random.default_rng(seed)
        return rng, [
            Parameter(name, rng.standard_normal(shape)) for name, shape in (
                ("x", (t_len, d)),
                ("w_pred", (d, d_p)),
                ("u", (d_p, n_labels, d_r)),
                ("w_role", (d, d_r)),
            )
        ]

    @staticmethod
    def _call(t, params, rows):
        x, w_pred, u, w_role = params
        return t.bilinear(x, rows, w_pred, u, w_role)

    def test_batched_equals_a_per_row_loop(self):
        # BLAS blocks a batched product differently from one row at a time,
        # so the two agree to rounding, not bitwise
        close = functools.partial(np.testing.assert_allclose, rtol=1e-13, atol=1e-13)
        for seed in range(40):
            t_len = int(seed % 7) + 1
            rng, params = self._inputs(seed, t_len=t_len)
            x, w_pred, u, w_role = (p.data for p in params)
            rows = [int(i) for i in rng.integers(0, t_len, seed % 4 + 1)]
            t = Tape()
            out = self._call(t, params, rows)
            g = rng.standard_normal(out.shape)
            t.backward(probe_sum(t, out, g))
            # the per-row form of the two-matmul contraction
            p, r, u_flat = x @ w_pred, x @ w_role, u.reshape(3, -1)
            expect_p = np.zeros_like(p)
            expect_u = np.zeros_like(u_flat)
            expect_r = np.zeros_like(r)
            for k, row in enumerate(rows):
                pu = (p[row] @ u_flat).reshape(4, 5)
                close(out.data[k], r @ pu.T)
                g_pu = (g[k].T @ r).reshape(-1)
                expect_p[row] += u_flat @ g_pu
                expect_u += np.outer(p[row], g_pu)
                expect_r += g[k] @ pu
            close(params[0].grad, expect_p @ w_pred.T + expect_r @ w_role.T)
            close(params[1].grad, x.T @ expect_p)
            close(params[2].grad, expect_u.reshape(u.shape))
            close(params[3].grad, x.T @ expect_r)

    @pytest.mark.parametrize("t_len,d", [(1, 2), (4, 2), (9, 64)])
    def test_equals_unfused_composition_bitwise(self, t_len, d):
        rng, params = self._inputs(60 + t_len, d=d, d_p=5, d_r=5, t_len=t_len)
        rows = [t_len - 1, 0, t_len - 1]  # repeated rows accumulate
        # a gradient x holds already: the order of the two sums into it shows
        held = rng.standard_normal((t_len, d)) * 1e3
        params[0].grad = held
        t = Tape()
        out = self._call(t, params, rows)
        g = rng.standard_normal(out.shape)
        t.backward(probe_sum(t, out, g))
        x, w_pred, u, w_role = (p.data for p in params)
        want, want_grads = unfused_bilinear(x, rows, w_pred, u, w_role, g, held)
        assert np.array_equal(out.data, want)
        for p in params:
            assert np.array_equal(p.grad, want_grads[p.name]), p.name

    def test_rejects_bad_rows_and_shapes(self):
        _, params = self._inputs(0)
        x, w_pred, u, w_role = params
        with pytest.raises(DimensionError):
            Tape().bilinear(x, [4], w_pred, u, w_role)
        with pytest.raises(DimensionError):
            Tape().bilinear(x, [[0]], w_pred, u, w_role)
        with pytest.raises(DimensionError):
            Tape().bilinear(x, [0], w_role, u, w_role)
        with pytest.raises(DimensionError):
            Tape().bilinear(x, [0], w_pred, u, w_pred)
        with pytest.raises(DimensionError):
            Tape().bilinear(w_pred, [0], w_pred, u, w_role)

    @pytest.mark.parametrize("rows", [[4], [5, 0, 2], [2, 0, 2]])
    def test_finite_differences(self, rows):
        # six tokens, then one token that every row reads
        for t_len, at in ((6, rows), (1, [0] * len(rows))):
            rng, params = self._inputs(len(rows), t_len=t_len)
            probe = Tensor(rng.standard_normal((len(rows), t_len, 4)))

            def run(backward=False) -> float:
                t = Tape()
                loss = probe_sum(t, self._call(t, params, at), probe)
                if backward:
                    t.backward(loss)
                return loss.item()

            for param in params:
                param.reset_gradient()
            run(backward=True)
            for param in params:
                assert finite_difference_check(run, param, 1e-5) < 1e-8, (param.name, t_len)


class TestFirstWriteGradients:
    """Backward stores the first gradient a tensor receives as it is and
    binds each later sum to a new array, so a tensor used twice, or two
    tensors fed one upstream gradient, may share an array, but no later
    accumulation writes through a shared buffer."""

    X = np.random.default_rng(21).standard_normal((3, 4))

    @staticmethod
    def graph(kind, w1, w2, b):
        """The loss of one small graph, its tape and every tensor it made."""
        t = Tape()
        made = [Tensor(TestFirstWriteGradients.X)]
        ops = {
            "add": functools.partial(tape_sum, t),  # both operands take the gradient
            "gather_add": t.gather_add,
            # a zero bias unless one is given: matmul always adds one
            "matmul": lambda a, c, bias=None: t.matmul(
                a, c, Tensor(np.zeros(3)) if bias is None else bias
            ),
        }

        def op(name, *args):
            made.append(ops[name](*args))
            return made[-1]

        # h1 and h2 are square, so any two of them multiply
        h1, h2 = op("matmul", made[0], w1), op("matmul", made[0], w2, b)
        if kind == "add(x, x)":
            out = op("matmul", op("add", h1, h1), h2)
        elif kind == "mul(x, x)":  # the matrix product of h1 with itself
            out = op("add", op("matmul", h1, h1), h2)
        elif kind == "bias":  # one bias vector fed to three products
            a = op("matmul", h1, h2, b)
            out = op("matmul", op("matmul", a, a, b), h2)
        else:
            # add(s, r) feeds s and r, s = add(h1, h2) feeds h1 and h2, and
            # the first matmul's backward, replayed last, adds into both once
            # more; the gather adds u's rows to constant ones, handing u v's
            # gradient
            r = op("matmul", h1, h2)
            s = op("add", h1, h2)
            u = op("add", s, r)
            v = op("gather_add", np.ones((3, 3)), u, [0, 1, 2])
            out = op("matmul", v, v, b)
        made.append(probe_sum(t, out))
        return t, made[-1], made

    @pytest.mark.parametrize("kind", ["add(x, x)", "mul(x, x)", "bias", "fan-out"])
    def test_finite_differences_and_no_shared_buffers(self, monkeypatch, kind):
        rng = np.random.default_rng(8)
        w1 = Parameter("w1", rng.standard_normal((4, 3)))
        w2 = Parameter("w2", rng.standard_normal((4, 3)))
        b = Parameter("b", rng.standard_normal(3))
        params = (w1, w2, b)
        tape, loss, made = self.graph(kind, *params)
        stored = []  # every array a gradient was bound to, with its values then
        accumulate = numerics._accumulate

        def recording(t, g):
            accumulate(t, g)
            stored.append((t.grad, t.grad.copy()))

        with monkeypatch.context() as m:
            for module in (numerics, conftest):  # the package's ops and the test ops
                m.setattr(module, "_accumulate", recording)
            tape.backward(loss)

        def run() -> float:
            return self.graph(kind, *params)[1].item()

        for p in params:
            assert finite_difference_check(run, p, 1e-6) < 1e-6, p.name
        assert all(t.grad is not None for t in (*made, *params))
        assert len(stored) > len(made) + len(params)  # some tensor summed twice
        for array, values in stored:
            assert np.array_equal(array, values)


class TestFiniteDifference:
    def test_linear_function_all_ones(self):
        p = Parameter("p", np.array([[1.0, -2.0], [0.5, 4.0]]))

        def run() -> float:
            return probe_sum(Tape(), p).item()

        t = Tape()
        t.backward(probe_sum(t, p))
        assert np.array_equal(p.grad, np.ones((2, 2)))
        assert finite_difference_check(run, p, 1e-5) < 1e-9

    def test_softmax_conservation_gradient_near_zero(self):
        # identical layers: the mix is gamma * sum_l softmax(w)_l = gamma
        # whatever w is, so w's gradient vanishes
        p = Parameter("p", np.array([[0.3, -1.2, 0.7]]))
        gamma, layers = Tensor(1.3), np.ones((3, 2, 4))

        def loss(t):
            return probe_sum(t, t.scalar_mix(p, gamma, layers))

        def run() -> float:
            return loss(Tape()).item()

        t = Tape()
        t.backward(loss(t))
        assert np.abs(p.grad).max() < 1e-9
        assert finite_difference_check(run, p, 1e-5) < 1e-6

    def test_nondeterministic_f_detected(self):
        p = Parameter("p", np.zeros(2))
        state = {"n": 0}

        def run() -> float:
            state["n"] += 1
            return float(state["n"])

        from lisa_srl.errors import OracleError

        with pytest.raises(OracleError):
            finite_difference_check(run, p, 1e-5)

    def test_eps_must_be_positive(self):
        p = Parameter("p", np.zeros(2))
        with pytest.raises(ContractError, match="^eps must be positive$"):
            finite_difference_check(lambda: 0.0, p, 0.0)

    def test_parameter_without_gradient_named(self):
        p = Parameter("never.reached", np.zeros(2))
        with pytest.raises(ContractError, match=r"^parameter 'never\.reached' has no gradient$"):
            finite_difference_check(lambda: 0.0, p, 1e-5)

    def test_composite_chain(self):
        rng = np.random.default_rng(5)
        w = Parameter("w", rng.standard_normal((3, 3)) * 0.5)
        x = np.abs(rng.standard_normal((4, 3))) + 0.1
        conv = [Tensor(rng.standard_normal((3, 3)) * 0.5) for _ in range(3)]
        conv.append(Tensor(rng.standard_normal(3)))

        def run() -> float:
            t = Tape()
            h = t.conv_block(t.matmul(Tensor(x), w, Tensor(np.zeros(3))), *conv)
            return t.cross_entropy(h, [2, 0, 1, 1]).item()

        w.reset_gradient()
        t = Tape()
        h = t.conv_block(t.matmul(Tensor(x), w, Tensor(np.zeros(3))), *conv)
        t.backward(t.cross_entropy(h, [2, 0, 1, 1]))
        assert finite_difference_check(run, w, 1e-5) < 1e-7
