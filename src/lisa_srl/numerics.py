"""Dense float64 tensors with tape-based reverse-mode differentiation.

The whole model runs on a deliberately small op set: matmuls and elementwise
arithmetic, one fused op for a whole multi-head self-attention layer, one for
a width-3 convolution, one bilinear op scoring every predicate at once in
two matmuls (predicate rows times the flattened operator, then role rows),
scalar mixing, a row softmax, a sum, and one cross-entropy op for all losses.
Everything is float64 and row-major; there is no broadcasting beyond the few
shapes the ops below accept. Tensors are immutable once created (the SGD
optimizer mutates parameter storage only *between* tapes).

A `Tape` records one forward computation. `Tape.backward(loss)` replays the
recorded operations in exact reverse order, accumulating gradients into the
`.grad` buffers of every tensor on the path from `loss` back to the leaves.
`Parameter` wraps a persistent leaf tensor whose gradient buffer survives
across tapes until `reset_gradient()` is called.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NonFiniteError, OracleError


class Tensor:
    """An immutable dense float64 array plus a gradient buffer.

    All entries must be finite; constructing a tensor from data containing
    NaN or infinity raises NonFiniteError, which is how training divergence
    is first detected.
    """

    __slots__ = ("data", "grad")

    def __init__(self, data) -> None:
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NonFiniteError(f"non-finite entries in tensor of shape {arr.shape}")
        self.data = arr
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Tensor(shape={self.data.shape})"


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


class Parameter:
    """A named leaf tensor with a persistent gradient buffer.

    The name must be unique within a model; checkpoints are keyed by it.
    `gradient` is all-zero after `reset_gradient()` and accumulates across
    every `Tape.backward` call in between.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str, data) -> None:
        self.name = name
        self.value = Tensor(data)
        self.value.grad = np.zeros_like(self.value.data)

    @property
    def gradient(self) -> np.ndarray:
        assert self.value.grad is not None
        return self.value.grad

    def reset_gradient(self) -> None:
        self.value.grad = np.zeros_like(self.value.data)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Parameter({self.name!r}, shape={self.value.shape})"


class Tape:
    """Ordered record of differentiable operations for one forward pass.

    Single-writer: one training step owns one tape. Ops are methods so the
    ownership is explicit at every call site.
    """

    __slots__ = ("_backprops",)

    def __init__(self) -> None:
        self._backprops: list[Callable[[], None]] = []

    # -- graph construction helpers -------------------------------------

    def _record(self, fn: Callable[[], None]) -> None:
        self._backprops.append(fn)

    # -- elementwise and shape ops ---------------------------------------

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape != b.shape:
            raise DimensionError(f"add shapes differ: {a.shape} vs {b.shape}")
        out = Tensor(a.data + b.data)

        def back() -> None:
            if out.grad is None:
                return
            _accumulate(a, out.grad)
            _accumulate(b, out.grad)

        self._record(back)
        return out

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape != b.shape:
            raise DimensionError(f"mul shapes differ: {a.shape} vs {b.shape}")
        out = Tensor(a.data * b.data)

        def back() -> None:
            if out.grad is None:
                return
            _accumulate(a, out.grad * b.data)
            _accumulate(b, out.grad * a.data)

        self._record(back)
        return out

    def scale_by(self, a: Tensor, s: Tensor) -> Tensor:
        """Multiply a tensor by a scalar tensor; gradients reach both."""
        if s.ndim != 0:
            raise DimensionError(f"scale_by needs a scalar, got shape {s.shape}")
        out = Tensor(a.data * s.data)

        def back() -> None:
            if out.grad is None:
                return
            _accumulate(a, out.grad * s.data)
            _accumulate(s, np.asarray((out.grad * a.data).sum()))

        self._record(back)
        return out

    def add_row(self, a: Tensor, b: Tensor) -> Tensor:
        """Add a length-n vector to every row of an m-by-n matrix."""
        if a.ndim != 2 or b.ndim != 1 or a.shape[1] != b.shape[0]:
            raise DimensionError(f"add_row shapes: {a.shape} + {b.shape}")
        out = Tensor(a.data + b.data[None, :])

        def back() -> None:
            if out.grad is None:
                return
            _accumulate(a, out.grad)
            _accumulate(b, out.grad.sum(axis=0))

        self._record(back)
        return out

    # -- linear algebra ---------------------------------------------------

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise DimensionError(f"matmul shapes incompatible: {a.shape} x {b.shape}")
        out = Tensor(a.data @ b.data)

        def back() -> None:
            if out.grad is None:
                return
            _accumulate(a, out.grad @ b.data.T)
            _accumulate(b, a.data.T @ out.grad)

        self._record(back)
        return out

    def attention(
        self,
        x: Tensor,
        w: Tensor,
        n_heads: int,
        d_k: int,
        head: int = 0,
        inject: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> tuple[Tensor, Tensor, np.ndarray]:
        """All heads of one scaled dot-product self-attention layer.

        `w` is [d, H*(2*d_k+d_v)]: head h owns columns h*(2*d_k+d_v) onward,
        its query, key and value projections side by side. `inject`, if
        given, receives head `head`'s softmax attention and returns the [T, T]
        matrix that head attends with instead; no gradient flows through
        that matrix, but the head's logits keep theirs.

        Returns the head outputs side by side [T, H*d_v], head `head`'s
        pre-softmax logits [T, T] (gradient may arrive through both) and the
        attention each head applied [H, T, T], a constant.
        """
        t_len = x.shape[0]
        width, extra = divmod(w.shape[-1], n_heads)
        if (
            x.ndim != 2
            or w.ndim != 2
            or x.shape[1] != w.shape[0]
            or extra
            or width <= 2 * d_k
            or not 0 <= head < n_heads
        ):
            raise DimensionError(
                f"attention: x {x.shape}, w {w.shape}, {n_heads} heads of d_k={d_k},"
                f" head {head}"
            )
        d_v = width - 2 * d_k
        c = d_k ** -0.5
        qkv = (x.data @ w.data).reshape(t_len, n_heads, width).transpose(1, 0, 2)
        q, v = qkv[..., :d_k], qkv[..., 2 * d_k :]
        # k^T made contiguous: BLAS rounds a product with a transposed view
        # differently, and this form matches separate per-head matmuls bitwise
        k_t = qkv[..., d_k : 2 * d_k].transpose(0, 2, 1).copy()
        scores = (q @ k_t) * c
        logits = Tensor(scores[head])
        shifted = scores - scores.max(axis=2, keepdims=True)
        e = np.exp(shifted)
        weights = e / e.sum(axis=2, keepdims=True)
        if inject is not None:
            weights[head] = inject(weights[head])
        out = Tensor((weights @ v).transpose(1, 0, 2).reshape(t_len, n_heads * d_v))

        def back() -> None:
            if out.grad is None and logits.grad is None:
                return
            if out.grad is None:
                g_scores = np.zeros_like(scores)
                g_v = np.zeros_like(v)
            else:
                g_out = out.grad.reshape(t_len, n_heads, d_v).transpose(1, 0, 2)
                g_weights = g_out @ v.transpose(0, 2, 1)
                g_v = weights.transpose(0, 2, 1) @ g_out
                g_scores = weights * (
                    g_weights - (g_weights * weights).sum(axis=2, keepdims=True)
                )
                if inject is not None:
                    g_scores[head] = 0.0
            if logits.grad is not None:
                g_scores[head] = logits.grad + g_scores[head]
            g_scores = g_scores * c
            g_q = g_scores @ k_t.transpose(0, 2, 1)
            g_k = (q.transpose(0, 2, 1) @ g_scores).transpose(0, 2, 1)
            g_qkv = np.concatenate([g_q, g_k, g_v], axis=2)
            _accumulate(w, x.data.T @ g_qkv.transpose(1, 0, 2).reshape(t_len, -1))
            # head by head in reverse, v then k then q: the summation order,
            # and so the rounding, of separate per-head projections
            for h in reversed(range(n_heads)):
                for lo, hi in ((2 * d_k, width), (d_k, 2 * d_k), (0, d_k)):
                    cols = slice(h * width + lo, h * width + hi)
                    _accumulate(x, g_qkv[h, :, lo:hi] @ w.data[:, cols].T)

        self._record(back)
        return out, logits, weights

    def conv3(
        self, x: Tensor, w_left: Tensor, w_center: Tensor, w_right: Tensor, bias: Tensor
    ) -> Tensor:
        """Width-3 convolution over rows; out-of-range neighbours read as zero.

        out[t] = x[t-1] @ w_left + x[t] @ w_center + x[t+1] @ w_right + bias
        """
        if x.ndim != 2 or bias.ndim != 1 or any(
            m.shape != (x.shape[1], bias.shape[0]) for m in (w_left, w_center, w_right)
        ):
            raise DimensionError(
                f"conv3 shapes: x {x.shape}, taps {w_left.shape}, {w_center.shape},"
                f" {w_right.shape}, bias {bias.shape}"
            )
        before = np.zeros_like(x.data)
        before[1:] = x.data[:-1]
        after = np.zeros_like(x.data)
        after[:-1] = x.data[1:]
        out = Tensor(
            before @ w_left.data + x.data @ w_center.data + after @ w_right.data
            + bias.data
        )

        def back() -> None:
            if out.grad is None:
                return
            g = out.grad
            _accumulate(bias, g.sum(axis=0))
            _accumulate(w_right, after.T @ g)
            _accumulate(w_center, x.data.T @ g)
            _accumulate(w_left, before.T @ g)
            g_x = g @ w_center.data.T
            g_x[1:] = (g @ w_right.data.T)[:-1] + g_x[1:]
            g_x[:-1] += (g @ w_left.data.T)[1:]
            _accumulate(x, g_x)

        self._record(back)
        return out

    def bilinear(self, p: Tensor, rows: Sequence[int], u: Tensor, r: Tensor) -> Tensor:
        """scores[k, t, l] = p[rows[k]] . U[:, l, :] . r[t]  for a rank-3 operator U.

        Scores the selected rows of `p` against every row of `r` at once,
        giving [len(rows), T, L]. U [d_p, L, d_r] is contracted in two
        matmuls: pu = p[rows] @ U viewed as [d_p, L*d_r], then pu @ r^T, so
        each score sums over the role axis j of the already summed p axis i.
        The backward is three matmuls; repeated rows accumulate their gradients.
        """
        idx = np.asarray(rows, dtype=np.intp)
        if (
            p.ndim != 2 or u.ndim != 3 or r.ndim != 2 or idx.ndim != 1
            or u.shape[0] != p.shape[1] or u.shape[2] != r.shape[1]
            or not np.all((0 <= idx) & (idx < p.shape[0]))
        ):
            raise DimensionError(
                f"bilinear: {p.shape} at rows {idx.tolist()}, {u.shape}, {r.shape}"
            )
        picked = p.data[idx]
        u_flat = u.data.reshape(u.shape[0], -1)
        pu = (picked @ u_flat).reshape(len(idx), *u.shape[1:])
        out = Tensor((pu @ r.data.T).transpose(0, 2, 1))

        def back() -> None:
            if out.grad is None:
                return
            g = out.grad
            g_pu = (g.transpose(0, 2, 1) @ r.data).reshape(len(idx), -1)
            g_r = g.transpose(1, 0, 2).reshape(r.shape[0], -1) @ pu.reshape(-1, r.shape[1])
            _accumulate(r, g_r)
            _accumulate(u, (picked.T @ g_pu).reshape(u.shape))
            g_p = np.zeros_like(p.data)
            np.add.at(g_p, idx, g_pu @ u_flat.T)
            _accumulate(p, g_p)

        self._record(back)
        return out

    def mix_layers(self, coeffs: Tensor, layers: np.ndarray) -> Tensor:
        """Weighted sum over frozen layer stack: out = sum_l coeffs[0,l] layers[l].

        `layers` is a constant [L, T, d] array (never differentiated), which
        is what keeps precomputed contextual representations off the tape.
        """
        if coeffs.ndim != 2 or coeffs.shape[0] != 1 or coeffs.shape[1] != layers.shape[0]:
            raise DimensionError(
                f"mix_layers: coeffs {coeffs.shape} vs {layers.shape[0]} layers"
            )
        out = Tensor(np.einsum("l,ltd->td", coeffs.data[0], layers))

        def back() -> None:
            if out.grad is None:
                return
            _accumulate(coeffs, np.einsum("td,ltd->l", out.grad, layers)[None, :])

        self._record(back)
        return out

    # -- nonlinearities and normalizers -----------------------------------

    def relu(self, a: Tensor) -> Tensor:
        out = Tensor(np.maximum(a.data, 0.0))

        def back() -> None:
            if out.grad is None:
                return
            _accumulate(a, out.grad * (a.data > 0.0))

        self._record(back)
        return out

    def softmax_rows(self, x: Tensor) -> Tensor:
        """Row-wise softmax with per-row max subtraction for stability.

        Every output row is non-negative and sums to 1 (within 1e-9).
        """
        if x.ndim != 2:
            raise DimensionError(f"softmax_rows needs a matrix, got {x.shape}")
        shifted = x.data - x.data.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        y = e / e.sum(axis=1, keepdims=True)
        out = Tensor(y)

        def back() -> None:
            if out.grad is None:
                return
            g = out.grad
            _accumulate(x, y * (g - (g * y).sum(axis=1, keepdims=True)))

        self._record(back)
        return out

    def cross_entropy(self, logits: Tensor, gold) -> Tensor:
        """Mean over tokens of -log softmax(logits)[gold]: every head's loss.

        `logits` is [T, C] with `gold` [T] class indices, or a stack of
        frames [P, T, C] with `gold` [P, T]. A stack takes the token mean
        per frame, then the mean over frames, so its loss does not grow with
        the number of frames.
        """
        idx = np.asarray(gold, dtype=np.intp)
        if (
            logits.ndim not in (2, 3)
            or idx.shape != logits.shape[:-1]
            or 0 in logits.shape
            or idx.min() < 0
            or idx.max() >= logits.shape[-1]
        ):
            raise DimensionError(f"cross_entropy: logits {logits.shape}, gold {idx.tolist()}")
        log_probs = log_softmax(logits.data).reshape(-1, *logits.shape[-2:])
        n_frames, t_len, _ = log_probs.shape
        at = (np.arange(n_frames)[:, None], np.arange(t_len), idx.reshape(n_frames, t_len))
        frame_losses = -(log_probs[at].sum(axis=1) / t_len)
        # frames summed left to right, then scaled by the reciprocal
        out = Tensor(np.add.accumulate(frame_losses)[-1] * (1.0 / n_frames))

        def back() -> None:
            if out.grad is None:
                return
            # the reverse of the forward's scale, negation and token mean
            g_gold = out.grad * (1.0 / n_frames) * -1.0 / t_len
            g = np.zeros_like(log_probs)
            g[at] = g_gold
            _accumulate(logits, (g - np.exp(log_probs) * g_gold).reshape(logits.shape))

        self._record(back)
        return out

    # -- reductions --------------------------------------------------------

    def sum_all(self, a: Tensor) -> Tensor:
        out = Tensor(np.asarray(a.data.sum()))

        def back() -> None:
            if out.grad is None:
                return
            _accumulate(a, np.full_like(a.data, float(out.grad)))

        self._record(back)
        return out

    # -- reverse pass -------------------------------------------------------

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) into every reachable tensor's grad.

        Replays the recorded ops in exact reverse execution order. Tensors
        (and therefore Parameters) not on any path to `loss` are untouched.
        """
        if loss.ndim != 0:
            raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
        if loss.grad is None:
            loss.grad = np.zeros_like(loss.data)
        loss.grad += 1.0
        for fn in reversed(self._backprops):
            fn()


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis, with max subtraction for stability."""
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def finite_difference_check(
    f: Callable[[], float], param: Parameter, eps: float
) -> float:
    """Compare `param.gradient` against central differences of `f`.

    `f` must be a deterministic closure over the current parameter values
    returning the scalar loss as a plain float (no tape needed). The caller
    is expected to have already populated `param.gradient` via a backward
    pass. For each coordinate the relative error is

        |g_tape - g_fd| / max(|g_tape|, |g_fd|, 1.0)

    and the maximum over coordinates is returned. The max(..., 1.0) floor
    keeps near-zero gradients from inflating the ratio with pure roundoff.
    """
    if eps <= 0:
        raise ContractError("eps must be positive")
    if f() != f():
        raise OracleError("f is not deterministic under repeated evaluation")
    values = param.value.data
    analytic = param.gradient
    worst = 0.0
    flat = values.reshape(-1)
    flat_grad = analytic.reshape(-1)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + eps
        up = f()
        flat[i] = saved - eps
        down = f()
        flat[i] = saved
        fd = (up - down) / (2.0 * eps)
        g = flat_grad[i]
        err = abs(g - fd) / max(abs(g), abs(fd), 1.0)
        if err > worst:
            worst = err
    return worst
