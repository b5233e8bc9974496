"""Dense float64 tensors with tape-based reverse-mode differentiation.

The whole model runs on eight tape ops: `add`, `matmul` with an optional
bias added to every row (the POS/predicate head), `gather_add` adding
learned rows to constant ones (the static embedding), `scalar_mix` mixing
frozen layers plus positional encodings (the contextual embedding),
`attention` for a whole multi-head self-attention layer, `conv_block` for a
residual width-3 convolution x + conv3(relu(x)), `bilinear` for the whole
SRL scorer (both projections, then every predicate scored at once in two
matmuls), and `cross_entropy` for all losses. Constant operands are plain
ndarrays and take no gradient. Everything is float64 and row-major; there
is no broadcasting beyond the few shapes the ops below accept. Tensors are
immutable once created (the SGD optimizer mutates parameter storage only
*between* tapes).

A `Tape` records one forward computation. `Tape.backward(*losses)` seeds
each scalar loss with gradient 1.0, so it differentiates their sum without
an op for it, then replays the recorded operations in exact reverse order,
accumulating gradients into the `.grad` buffers of every tensor on a path
from a loss back to the leaves.
A `Parameter` is a named leaf `Tensor` whose `grad` survives across tapes
until `reset_gradient()` is called; ops take it like any other tensor.

Finiteness is checked where values enter, not per op: `Tensor(...)` (so
every `Parameter`), the file readers and `load_checkpoint` reject NaN and
infinity, and training checks each loss and gradient norm and
`predict_sentence` its outputs, raising NonFiniteError. Op outputs skip it.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NonFiniteError, OracleError


class Tensor:
    """An immutable dense float64 array plus a gradient buffer.

    `Tensor(data)` rejects NaN and infinity with NonFiniteError; tape ops
    build their outputs unchecked; see the module docstring.
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


def _unchecked(data: np.ndarray) -> Tensor:
    """An op output: a Tensor over float64 `data` with no finiteness check."""
    t = Tensor.__new__(Tensor)
    t.data, t.grad = data, None
    return t


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)  # a copy: g may be another grad
    else:
        t.grad += g


class Parameter(Tensor):
    """A named leaf tensor whose `grad` survives across tapes.

    The name must be unique within a model; checkpoints are keyed by it.
    `grad` is all-zero after `reset_gradient()` and accumulates across
    every `Tape.backward` call in between.
    """

    __slots__ = ("name",)

    def __init__(self, name: str, data) -> None:
        super().__init__(data)
        self.name = name
        self.grad = np.zeros_like(self.data)

    def reset_gradient(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Parameter({self.name!r}, shape={self.shape})"


def new_parameter(name: str, shape, draw: Callable[[], np.ndarray] | None = None) -> Parameter:
    """A fresh parameter, `draw()` or zeros of `shape`: the default maker
    of model builders, whose parameters a checkpoint supplies instead."""
    return Parameter(name, np.zeros(shape) if draw is None else draw())


class Tape:
    """Ordered record of differentiable operations for one forward pass.

    Single-writer: one training step owns one tape. Ops are methods so the
    ownership is explicit at every call site.
    """

    __slots__ = ("_backprops",)

    def __init__(self) -> None:
        self._backprops: list[Callable[[], None]] = []

    # -- elementwise and shape ops ---------------------------------------

    def add(self, a: Tensor, b: Tensor | np.ndarray) -> Tensor:
        """a + b; a constant ndarray `b` takes no gradient."""
        b_data = b.data if isinstance(b, Tensor) else b
        if a.shape != b_data.shape:
            raise DimensionError(f"add shapes differ: {a.shape} vs {b_data.shape}")
        out = _unchecked(a.data + b_data)

        def back() -> None:
            if out.grad is None:
                return
            _accumulate(a, out.grad)
            if isinstance(b, Tensor):
                _accumulate(b, out.grad)

        self._backprops.append(back)
        return out

    # -- linear algebra ---------------------------------------------------

    def matmul(self, a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
        """a @ b, plus `bias` [n] added to every row if given."""
        bias_shape = b.shape[1:] if bias is None else bias.shape
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0] or bias_shape != b.shape[1:]:
            raise DimensionError(f"matmul shapes: {a.shape} x {b.shape} + {bias_shape}")
        product = a.data @ b.data
        out = _unchecked(product if bias is None else product + bias.data)

        def back() -> None:
            if out.grad is None:
                return
            if bias is not None:
                _accumulate(bias, out.grad.sum(axis=0))
            _accumulate(a, out.grad @ b.data.T)
            _accumulate(b, a.data.T @ out.grad)

        self._backprops.append(back)
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
        logits = _unchecked(scores[head])
        weights = softmax(scores)
        if inject is not None:
            weights[head] = inject(weights[head])
        out = _unchecked((weights @ v).transpose(1, 0, 2).reshape(t_len, n_heads * d_v))

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

        self._backprops.append(back)
        return out, logits, weights

    def conv_block(
        self, x: Tensor, w_left: Tensor, w_center: Tensor, w_right: Tensor, bias: Tensor
    ) -> Tensor:
        """Residual width-3 convolution block: x + conv3(relu(x)).

        conv3(h)[t] = h[t-1] @ w_left + h[t] @ w_center + h[t+1] @ w_right + bias,
        with out-of-range neighbours read as zero; the taps are [d, d].
        """
        if x.ndim != 2 or bias.shape != x.shape[1:] or any(
            m.shape != x.shape[1:] * 2 for m in (w_left, w_center, w_right)
        ):
            raise DimensionError(
                f"conv_block shapes: x {x.shape}, taps {w_left.shape}, {w_center.shape},"
                f" {w_right.shape}, bias {bias.shape}"
            )
        # relu(x) between zero rows: the three taps read shifted views of it
        padded = np.zeros((x.shape[0] + 2, x.shape[1]))
        h = np.maximum(x.data, 0.0, out=padded[1:-1])
        before, after = padded[:-2], padded[2:]
        out = _unchecked(
            x.data
            + (before @ w_left.data + h @ w_center.data + after @ w_right.data + bias.data)
        )

        def back() -> None:
            if out.grad is None:
                return
            g = out.grad
            # the residual's gradient reaches x before the convolution's
            _accumulate(x, g)
            _accumulate(bias, g.sum(axis=0))
            _accumulate(w_right, after.T @ g)
            _accumulate(w_center, h.T @ g)
            _accumulate(w_left, before.T @ g)
            g_h = g @ w_center.data.T
            g_h[1:] = (g @ w_right.data.T)[:-1] + g_h[1:]
            g_h[:-1] += (g @ w_left.data.T)[1:]
            _accumulate(x, g_h * (x.data > 0.0))

        self._backprops.append(back)
        return out

    def gather_add(self, base: np.ndarray, table: Tensor, rows) -> Tensor:
        """base[t] + table[rows[t]], or base[t] alone where rows[t] < 0.

        `base` is a constant [T, d]. Each gathered row of `table` gets the
        sum of the gradients of the output rows that read it, summed by a
        one-hot product: `np.add.at` rounds a row read 4+ times otherwise.
        """
        idx = np.asarray(rows, dtype=np.intp)
        if (
            base.ndim != 2 or table.ndim != 2 or base.shape[1] != table.shape[1]
            or idx.shape != base.shape[:1] or idx.max(initial=-1) >= table.shape[0]
        ):
            raise DimensionError(
                f"gather_add: base {base.shape}, table {table.shape}, rows {idx.tolist()}"
            )
        known = idx >= 0
        if known.all():
            out = _unchecked(base + table.data[idx])
        else:
            out = _unchecked(base.copy())
            out.data[known] += table.data[idx[known]]

        def back() -> None:
            if out.grad is None:
                return
            one_hot = np.zeros((len(idx), table.shape[0]))
            one_hot[known, idx[known]] = 1.0
            _accumulate(table, one_hot.T @ out.grad)

        self._backprops.append(back)
        return out

    def bilinear(
        self, x: Tensor, rows: Sequence[int], w_pred: Tensor, u: Tensor, w_role: Tensor
    ) -> Tensor:
        """scores[k, t, l] = p[rows[k]] . U[:, l, :] . r[t], p = x @ w_pred, r = x @ w_role.

        Scores the selected rows of p against every row of r at once, giving
        [len(rows), T, L]. U [d_p, L, d_r] is contracted in two matmuls:
        pu = p[rows] @ U viewed as [d_p, L*d_r], then pu @ r^T, so each score
        sums over the role axis j of the already summed p axis i. Repeated
        rows accumulate their gradients.
        """
        idx = np.asarray(rows, dtype=np.intp)
        if (
            x.ndim != 2 or w_pred.ndim != 2 or u.ndim != 3 or w_role.ndim != 2
            or idx.ndim != 1 or not w_pred.shape[0] == w_role.shape[0] == x.shape[1]
            or u.shape[0] != w_pred.shape[1] or u.shape[2] != w_role.shape[1]
            or not np.all((0 <= idx) & (idx < x.shape[0]))
        ):
            raise DimensionError(
                f"bilinear: {x.shape} at rows {idx.tolist()}, {w_pred.shape},"
                f" {u.shape}, {w_role.shape}"
            )
        p = x.data @ w_pred.data
        r = x.data @ w_role.data
        picked = p[idx]
        u_flat = u.data.reshape(u.shape[0], -1)
        pu = (picked @ u_flat).reshape(len(idx), *u.shape[1:])
        out = _unchecked((pu @ r.T).transpose(0, 2, 1))

        def back() -> None:
            if out.grad is None:
                return
            g = out.grad
            g_pu = (g.transpose(0, 2, 1) @ r).reshape(len(idx), -1)
            g_r = g.transpose(1, 0, 2).reshape(r.shape[0], -1) @ pu.reshape(-1, r.shape[1])
            _accumulate(u, (picked.T @ g_pu).reshape(u.shape))
            g_p = np.zeros_like(p)
            np.add.at(g_p, idx, g_pu @ u_flat.T)
            # the role projection's gradient reaches x before the predicate one's
            _accumulate(x, g_r @ w_role.data.T)
            _accumulate(w_role, x.data.T @ g_r)
            _accumulate(x, g_p @ w_pred.data.T)
            _accumulate(w_pred, x.data.T @ g_p)

        self._backprops.append(back)
        return out

    def scalar_mix(
        self, w: Tensor, gamma: Tensor, layers: np.ndarray, positional: np.ndarray
    ) -> Tensor:
        """gamma * sum_l softmax(w)_l layers[l] + positional: a contextual embedding.

        `w` is [1, L] and `gamma` a scalar. The frozen [L, T, d] layer stack
        and the [T, d] positional encodings are constants, so gradients
        reach only `w` and `gamma`.
        """
        if (
            w.ndim != 2 or w.shape[0] != 1 or gamma.ndim != 0 or layers.ndim != 3
            or w.shape[1] != layers.shape[0] or positional.shape != layers.shape[1:]
        ):
            raise DimensionError(
                f"scalar_mix: w {w.shape}, gamma {gamma.shape}, layers {layers.shape},"
                f" positional {positional.shape}"
            )
        coeffs = softmax(w.data)
        mixed = np.einsum("l,ltd->td", coeffs[0], layers)
        out = _unchecked(mixed * gamma.data + positional)

        def back() -> None:
            if out.grad is None:
                return
            g = out.grad
            _accumulate(gamma, np.asarray((g * mixed).sum()))
            # through the layer mix, then the softmax's Jacobian
            g_c = np.einsum("td,ltd->l", g * gamma.data, layers)[None, :]
            _accumulate(w, coeffs * (g_c - (g_c * coeffs).sum(axis=1, keepdims=True)))

        self._backprops.append(back)
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
        out = _unchecked(np.asarray(np.add.accumulate(frame_losses)[-1] * (1.0 / n_frames)))

        def back() -> None:
            if out.grad is None:
                return
            # the reverse of the forward's scale, negation and token mean
            g_gold = out.grad * (1.0 / n_frames) * -1.0 / t_len
            g = np.zeros_like(log_probs)
            g[at] = g_gold
            _accumulate(logits, (g - np.exp(log_probs) * g_gold).reshape(logits.shape))

        self._backprops.append(back)
        return out

    # -- reverse pass -------------------------------------------------------

    def backward(self, *losses: Tensor) -> None:
        """Accumulate d(sum of losses)/d(leaf) into every reachable tensor's grad.

        Seeds each scalar loss with 1.0, then replays the recorded ops in
        exact reverse execution order. Tensors (and therefore Parameters)
        not on any path to a loss are untouched.
        """
        if not losses or not all(isinstance(x, Tensor) and x.ndim == 0 for x in losses):
            got = [x.shape if isinstance(x, Tensor) else type(x).__name__ for x in losses]
            raise ContractError(f"backward needs one or more scalar loss tensors, got {got}")
        for loss in losses:
            _accumulate(loss, np.ones(()))
        for fn in reversed(self._backprops):
            fn()


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, with max subtraction for stability."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis, with max subtraction for stability."""
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def finite_difference_check(
    f: Callable[[], float], param: Parameter, eps: float
) -> float:
    """Compare `param.grad` against central differences of `f`.

    `f` must be a deterministic closure over the current parameter values
    returning the scalar loss as a plain float (no tape needed). The caller
    is expected to have already populated `param.grad` via a backward
    pass. For each coordinate the relative error is

        |g_tape - g_fd| / max(|g_tape|, |g_fd|, 1.0)

    and the maximum over coordinates is returned. The max(..., 1.0) floor
    keeps near-zero gradients from inflating the ratio with pure roundoff.
    """
    if eps <= 0:
        raise ContractError("eps must be positive")
    if f() != f():
        raise OracleError("f is not deterministic under repeated evaluation")
    worst = 0.0
    flat = param.data.reshape(-1)
    flat_grad = param.grad.reshape(-1)
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
