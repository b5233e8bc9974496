import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lisa_srl.errors import ContractError, DimensionError, NonFiniteError
from lisa_srl.numerics import Parameter, Tape, Tensor, finite_difference_check


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
        out = t.matmul(Tensor(np.eye(2)), Tensor([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_projector_row_select(self):
        t = Tape()
        out = t.matmul(
            Tensor([[1.0, 0.0], [0.0, 0.0]]), Tensor([[5.0, 6.0], [7.0, 8.0]])
        )
        assert np.array_equal(out.data, [[5.0, 6.0], [0.0, 0.0]])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        out = Tape().matmul(Tensor(a), Tensor(b))
        assert np.abs(out.data - matmul_oracle(a, b)).max() <= 1e-12

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            Tape().matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_backward_analytic_gradient(self):
        # d sum(A @ B) / dA == ones @ B^T, exactly
        rng = np.random.default_rng(3)
        a = Tensor(rng.standard_normal((3, 4)))
        b = Tensor(rng.standard_normal((4, 2)))
        t = Tape()
        loss = t.sum_all(t.matmul(a, b))
        t.backward(loss)
        expect_a = np.ones((3, 2)) @ b.data.T
        expect_b = a.data.T @ np.ones((3, 2))
        assert np.abs(a.grad - expect_a).max() <= 1e-12
        assert np.abs(b.grad - expect_b).max() <= 1e-12


class TestSoftmaxRows:
    def test_all_zero_rows_are_uniform(self):
        out = Tape().softmax_rows(Tensor(np.zeros((2, 3))))
        assert np.allclose(out.data, 1.0 / 3.0, atol=1e-15)

    def test_huge_equal_logits_no_overflow(self):
        out = Tape().softmax_rows(Tensor([[1000.0, 1000.0]]))
        assert np.array_equal(out.data, [[0.5, 0.5]])

    def test_against_extended_precision_oracle(self):
        # frozen from mpmath (60 digits): exp-normalize of [1, 2, 3]
        expected = np.array(
            [0.0900305731703804579980221, 0.2447284710547976524729596, 0.6652409557748218895290183]
        )
        out = Tape().softmax_rows(Tensor([[1.0, 2.0, 3.0]]))
        assert np.abs(out.data[0] - expected).max() < 1e-15

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_rows_sum_to_one(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((rows, cols)) * rng.uniform(0.1, 50.0)
        out = Tape().softmax_rows(Tensor(x))
        assert np.abs(out.data.sum(axis=1) - 1.0).max() <= 1e-9
        assert (out.data >= 0.0).all()


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
        out = t.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
        with pytest.raises(ContractError):
            t.backward(out)

    def test_unreachable_parameter_untouched(self):
        p = Parameter("unused", np.ones((2, 2)))
        q = Parameter("used", np.ones((2, 2)))
        t = Tape()
        loss = t.sum_all(t.mul(q.value, q.value))
        t.backward(loss)
        assert np.array_equal(p.gradient, np.zeros((2, 2)))
        assert np.array_equal(q.gradient, 2.0 * np.ones((2, 2)))

    def test_gradient_accumulates_until_reset(self):
        p = Parameter("p", np.array([2.0, 3.0]))
        for _ in range(2):
            t = Tape()
            t.backward(t.sum_all(p.value))
        assert np.array_equal(p.gradient, [2.0, 2.0])
        p.reset_gradient()
        assert np.array_equal(p.gradient, [0.0, 0.0])


class TestCompositeOps:
    def test_bilinear_matches_triple_loop(self):
        rng = np.random.default_rng(11)
        p = rng.standard_normal((4, 3))
        u = rng.standard_normal((3, 4, 5))
        r = rng.standard_normal((6, 5))
        rows = [3, 1]
        out = Tape().bilinear(Tensor(p), rows, Tensor(u), Tensor(r))
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


def attention_oracle(x, w, n_heads, d_k, head=0, adjacency=None):
    """Plain per-head numpy: projections, scaled scores, softmax, weighted values."""
    width = w.shape[1] // n_heads
    outputs, logits = [], []
    for h in range(n_heads):
        block = w[:, h * width : (h + 1) * width]
        q, k, v = x @ block[:, :d_k], x @ block[:, d_k : 2 * d_k], x @ block[:, 2 * d_k :]
        scores = q @ k.T / np.sqrt(d_k)
        a = np.exp(scores - scores.max(axis=1, keepdims=True))
        a /= a.sum(axis=1, keepdims=True)
        if h == head and adjacency is not None:
            a = adjacency
        outputs.append(a @ v)
        logits.append(scores)
    return np.concatenate(outputs, axis=1), np.stack(logits)


def _injected(t_len):
    """Row-stochastic, mostly on (t + 1) mod T: unlike any softmax, and not
    one-hot, so a softmax gradient leaking through it would show."""
    return 0.75 * np.eye(t_len)[(np.arange(t_len) + 1) % t_len] + 0.25 / t_len


class TestAttention:
    D, D_K, D_V = 4, 2, 3

    def _inputs(self, n_heads, t_len, seed=0):
        rng = np.random.default_rng(seed)
        x = Parameter("x", rng.standard_normal((t_len, self.D)))
        w = Parameter(
            "w", rng.standard_normal((self.D, n_heads * (2 * self.D_K + self.D_V)))
        )
        return rng, x, w

    @pytest.mark.parametrize("inject", [False, True])
    def test_forward_matches_per_head_oracle(self, inject):
        _, x, w = self._inputs(3, 5)
        adjacency = _injected(5) if inject else None
        out, logits, weights = Tape().attention(
            x.value, w.value, 3, self.D_K, 1, (lambda own: adjacency) if inject else None
        )
        expect_out, expect_logits = attention_oracle(
            x.value.data, w.value.data, 3, self.D_K, 1, adjacency
        )
        assert out.shape == (5, 3 * self.D_V)
        assert logits.shape == (5, 5)
        assert np.abs(out.data - expect_out).max() <= 1e-12
        assert np.abs(logits.data - expect_logits[1]).max() <= 1e-12
        assert np.abs(weights.sum(axis=2) - 1.0).max() <= 1e-12
        if inject:
            assert np.array_equal(weights[1], adjacency)

    def test_inject_receives_the_heads_own_softmax(self):
        _, x, w = self._inputs(2, 4)
        seen = []

        def inject(own):
            seen.append(own.copy())
            return np.eye(4)

        _, logits, _ = Tape().attention(x.value, w.value, 2, self.D_K, 1, inject)
        s = logits.data
        own = np.exp(s - s.max(axis=1, keepdims=True))
        assert np.abs(seen[0] - own / own.sum(axis=1, keepdims=True)).max() <= 1e-15

    def test_rejects_bad_shapes(self):
        _, x, w = self._inputs(2, 3)
        with pytest.raises(DimensionError):
            Tape().attention(x.value, w.value, 3, self.D_K)  # width not a multiple
        with pytest.raises(DimensionError):
            Tape().attention(x.value, w.value, 2, 4)  # no columns left for values
        with pytest.raises(DimensionError):
            Tape().attention(x.value, w.value, 2, self.D_K, head=2)

    @pytest.mark.parametrize("through", ["output", "logits", "both"])
    @pytest.mark.parametrize("inject", [False, True])
    @pytest.mark.parametrize("t_len", [1, 4])
    @pytest.mark.parametrize("n_heads", [1, 3])
    def test_finite_differences(self, n_heads, t_len, inject, through):
        rng, x, w = self._inputs(n_heads, t_len, seed=n_heads * 10 + t_len)
        head = n_heads - 1
        adjacency = _injected(t_len)
        probe_out = Tensor(rng.standard_normal((t_len, n_heads * self.D_V)))
        probe_logits = Tensor(rng.standard_normal((t_len, t_len)))

        def run(backward=False) -> float:
            t = Tape()
            out, logits, _ = t.attention(
                x.value, w.value, n_heads, self.D_K, head,
                (lambda own: adjacency) if inject else None,
            )
            terms = []
            if through in ("output", "both"):
                terms.append(t.sum_all(t.mul(out, probe_out)))
            if through in ("logits", "both"):
                terms.append(t.sum_all(t.mul(logits, probe_logits)))
            loss = terms[0] if len(terms) == 1 else t.add(*terms)
            if backward:
                t.backward(loss)
            return loss.item()

        for p in (x, w):
            p.reset_gradient()
        run(backward=True)
        for p in (x, w):
            assert finite_difference_check(run, p, 1e-5) < 1e-7, p.name


class TestConv3:
    def test_matches_sliding_window_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 3))
        taps = [rng.standard_normal((3, 2)) for _ in range(3)]
        bias = rng.standard_normal(2)
        out = Tape().conv3(Tensor(x), *(Tensor(m) for m in taps), Tensor(bias))
        padded = np.vstack([np.zeros((1, 3)), x, np.zeros((1, 3))])
        for t in range(4):
            expect = sum(padded[t + i] @ taps[i] for i in range(3)) + bias
            assert np.abs(out.data[t] - expect).max() <= 1e-12

    def test_rejects_mismatched_taps(self):
        x = Tensor(np.zeros((2, 3)))
        good, bad = Tensor(np.zeros((3, 2))), Tensor(np.zeros((2, 2)))
        with pytest.raises(DimensionError):
            Tape().conv3(x, good, bad, good, Tensor(np.zeros(2)))

    @pytest.mark.parametrize("t_len", [1, 2, 5])
    def test_finite_differences(self, t_len):
        rng = np.random.default_rng(t_len)
        params = [Parameter("x", rng.standard_normal((t_len, 3)))]
        params += [Parameter(n, rng.standard_normal((3, 2))) for n in ("l", "c", "r")]
        params.append(Parameter("b", rng.standard_normal(2)))
        probe = Tensor(rng.standard_normal((t_len, 2)))

        def run(backward=False) -> float:
            t = Tape()
            loss = t.sum_all(t.mul(t.conv3(*(p.value for p in params)), probe))
            if backward:
                t.backward(loss)
            return loss.item()

        for p in params:
            p.reset_gradient()
        run(backward=True)
        for p in params:
            assert finite_difference_check(run, p, 1e-5) < 1e-8, p.name


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
        upstream = Tensor(-1.7)  # so the incoming gradient is not 1

        def run(backward=False) -> float:
            t = Tape()
            loss = t.scale_by(t.cross_entropy(x.value, gold), upstream)
            if backward:
                t.backward(loss)
            return loss.item()

        x.reset_gradient()
        run(backward=True)
        assert finite_difference_check(run, x, 1e-5) < 1e-8


class TestBilinear:
    @staticmethod
    def _inputs(seed, n_rows=6, d_p=3, n_labels=4, d_r=5, t_len=4):
        rng = np.random.default_rng(seed)
        return (
            rng,
            Parameter("p", rng.standard_normal((n_rows, d_p))),
            Parameter("u", rng.standard_normal((d_p, n_labels, d_r))),
            Parameter("r", rng.standard_normal((t_len, d_r))),
        )

    def test_batched_equals_a_per_row_loop(self):
        # BLAS blocks a batched product differently from one row at a time,
        # so the two agree to rounding, not bitwise
        close = functools.partial(np.testing.assert_allclose, rtol=1e-13, atol=1e-13)
        for seed in range(40):
            rng, p, u, r = self._inputs(seed, t_len=int(seed % 7) + 1)
            n_rows = seed % 4 + 1
            rows = [int(i) for i in rng.integers(0, 6, n_rows)]
            t = Tape()
            out = t.bilinear(p.value, rows, u.value, r.value)
            g = rng.standard_normal(out.shape)
            t.backward(t.sum_all(t.mul(out, Tensor(g))))
            # the per-row form of the two-matmul contraction
            u_flat = u.value.data.reshape(3, -1)
            expect_p = np.zeros_like(p.value.data)
            expect_u = np.zeros_like(u_flat)
            expect_r = np.zeros_like(r.value.data)
            for k, row in enumerate(rows):
                pu = (p.value.data[row] @ u_flat).reshape(4, 5)
                close(out.data[k], r.value.data @ pu.T)
                g_pu = (g[k].T @ r.value.data).reshape(-1)
                expect_p[row] += u_flat @ g_pu
                expect_u += np.outer(p.value.data[row], g_pu)
                expect_r += g[k] @ pu
            close(p.gradient, expect_p)
            close(u.gradient, expect_u.reshape(u.gradient.shape))
            close(r.gradient, expect_r)

    def test_rejects_bad_rows_and_shapes(self):
        _, p, u, r = self._inputs(0)
        with pytest.raises(DimensionError):
            Tape().bilinear(p.value, [6], u.value, r.value)
        with pytest.raises(DimensionError):
            Tape().bilinear(p.value, [[0]], u.value, r.value)
        with pytest.raises(DimensionError):
            Tape().bilinear(r.value, [0], u.value, r.value)

    @pytest.mark.parametrize("rows", [[4], [5, 0, 2], [2, 0, 2]])
    def test_finite_differences(self, rows):
        for t_len in (4, 1):
            rng, p, u, r = self._inputs(len(rows), t_len=t_len)
            probe = Tensor(rng.standard_normal((len(rows), t_len, 4)))

            def run(backward=False) -> float:
                t = Tape()
                loss = t.sum_all(t.mul(t.bilinear(p.value, rows, u.value, r.value), probe))
                if backward:
                    t.backward(loss)
                return loss.item()

            for param in (p, u, r):
                param.reset_gradient()
            run(backward=True)
            for param in (p, u, r):
                assert finite_difference_check(run, param, 1e-5) < 1e-8, (param.name, t_len)
            unused = [i for i in range(6) if i not in rows]
            assert np.array_equal(p.gradient[unused], np.zeros((len(unused), 3)))


class TestFiniteDifference:
    def test_linear_function_all_ones(self):
        p = Parameter("p", np.array([[1.0, -2.0], [0.5, 4.0]]))

        def run() -> float:
            t = Tape()
            loss = t.sum_all(p.value)
            return loss.item()

        t = Tape()
        t.backward(t.sum_all(p.value))
        assert np.array_equal(p.gradient, np.ones((2, 2)))
        assert finite_difference_check(run, p, 1e-5) < 1e-9

    def test_softmax_conservation_gradient_near_zero(self):
        p = Parameter("p", np.array([[0.3, -1.2, 0.7], [2.0, 0.0, -0.5]]))

        def run() -> float:
            t = Tape()
            return t.sum_all(t.softmax_rows(p.value)).item()

        t = Tape()
        t.backward(t.sum_all(t.softmax_rows(p.value)))
        assert np.abs(p.gradient).max() < 1e-9
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

    def test_composite_chain(self):
        rng = np.random.default_rng(5)
        w = Parameter("w", rng.standard_normal((3, 3)) * 0.5)
        x = np.abs(rng.standard_normal((4, 3))) + 0.1

        def run() -> float:
            t = Tape()
            h = t.relu(t.matmul(Tensor(x), w.value))
            return t.cross_entropy(h, [2, 0, 1, 1]).item()

        w.reset_gradient()
        t = Tape()
        h = t.relu(t.matmul(Tensor(x), w.value))
        t.backward(t.cross_entropy(h, [2, 0, 1, 1]))
        assert finite_difference_check(run, w, 1e-5) < 1e-7
