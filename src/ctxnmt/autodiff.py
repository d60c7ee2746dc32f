"""Reverse-mode automatic differentiation over dense numpy tensors.

The ops are the ones the model calls, and no more: ``linear`` (x @ w + b),
multi-head ``attention``, ``add``, ``mul``, ``scale``, ``relu``,
``sigmoid``, ``softmax``, ``layer_norm``, ``embedding``, ``concat`` (last
axis), ``dropout``, ``cross_entropy`` and ``reduce_sum`` (a full sum). A
constant operand may be a plain array.

Ops execute eagerly on numpy arrays. While a Tape is active (``with Tape()
as tape:``), every op whose inputs require gradients records a backward rule;
``tape.backward(loss)`` replays the rules in reverse, freeing each record as
it goes, so only leaf gradients survive it and a tape runs backward once; it
adds them into ``Tensor.grad``, or with ``fill_grad=False`` only returns them.
With no active tape, ops are plain numpy (inference mode).

A tape is single-writer: concurrent passes need separate tapes (the active
tape is tracked per thread), and separate tapes also mean separate gradient
stores: while it replays, a tape accumulates into its own store, never into a
shared ``Tensor.grad``, so two threads can run backward over the same
parameters at once. Tensors without gradients are immutable as far as this
module is concerned and safe to share for reading.
"""

from __future__ import annotations

import threading

import numpy as np

LAYER_NORM_EPS = 1e-6
WEIGHT_GRAD_BLOCK = 256
ROW_KERNEL_MIN_ROWS = 256  # rows from which _row_max halves columns

_tls = threading.local()


class AutodiffError(Exception):
    """Base class for tape and op failures."""


class ShapeError(AutodiffError):
    def __init__(self, op: str, *shapes):
        self.op = op
        self.shapes = tuple(tuple(s) for s in shapes)
        super().__init__(f"{op}: incompatible shapes " + " vs ".join(str(s) for s in self.shapes))


class MaskError(AutodiffError):
    pass


class TapeError(AutodiffError):
    pass


class Tensor:
    """Dense array with an accumulated gradient of the same shape."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x))


def _active_tape():
    stack = getattr(_tls, "stack", None)
    return stack[-1] if stack else None


class Tape:
    """Ordered op records; replaying them in reverse computes exact gradients."""

    def __init__(self):
        self._records: list[tuple[Tensor, object]] = []
        self._consumed = False

    def __enter__(self):
        if not hasattr(_tls, "stack"):
            _tls.stack = []
        _tls.stack.append(self)
        return self

    def __exit__(self, *exc):
        _tls.stack.pop()
        return False

    def __len__(self):
        return len(self._records)

    def backward(self, loss: Tensor, fill_grad: bool = True) -> dict[Tensor, np.ndarray]:
        """Return this tape's gradient of every leaf reachable from loss and,
        with fill_grad, add each into the leaf's .grad. Consumes the tape:
        each record is popped as it is replayed and its output's gradient
        dropped from the tape's store once its rule has run, so only leaf
        (parameter, input) gradients survive. Without fill_grad no .grad is
        read or written."""
        if self._consumed:
            raise TapeError("backward already ran on this tape; rebuild the forward pass first")
        if loss.data.size != 1:
            raise TapeError(f"loss must be scalar, got shape {loss.shape}")
        self._consumed = True
        grads = {loss: np.ones_like(loss.data)}
        outer, _tls.grads = getattr(_tls, "grads", None), grads
        try:
            while self._records:
                out, fn = self._records.pop()
                g = grads.pop(out, None)
                if g is not None:
                    fn(g)
        finally:
            _tls.grads = outer
        if fill_grad:
            for t, g in grads.items():
                if t.grad is None:
                    t.grad = g
                else:
                    t.grad += g
        return grads


def _accum(t: Tensor, g: np.ndarray, fresh: bool = False) -> None:
    """Add g to t's gradient in the store of the tape replaying on this thread.
    A fresh g (a new array nothing else holds) of t's dtype is stored as it
    is; any other g (shared, a view, or a numpy scalar) is copied on first use."""
    grads = _tls.grads
    have = grads.get(t)
    if have is None:
        owned = fresh and isinstance(g, np.ndarray) and g.dtype == t.data.dtype
        grads[t] = g if owned else np.array(g, dtype=t.data.dtype, copy=True)
    else:
        have += g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum g back down to `shape` after numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _weight_grad(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of a 2-D right operand: a^T g over every row of the flattened
    batch, summed in order over fixed blocks of WEIGHT_GRAD_BLOCK rows. A few
    large products replace one small product per batch row, and the fixed
    blocks keep the bytes independent of the BLAS thread count (one product
    over all rows is not)."""
    a2, g2 = a.reshape(-1, a.shape[-1]), g.reshape(-1, g.shape[-1])
    out = a2[:WEIGHT_GRAD_BLOCK].T @ g2[:WEIGHT_GRAD_BLOCK]
    for i in range(WEIGHT_GRAD_BLOCK, a2.shape[0], WEIGHT_GRAD_BLOCK):
        out += a2[i:i + WEIGHT_GRAD_BLOCK].T @ g2[i:i + WEIGHT_GRAD_BLOCK]
    return out


def _make(out_data, inputs, backward) -> Tensor:
    tape = _active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out = Tensor(out_data, requires_grad=True)
        tape._records.append((out, backward))
        return out
    return Tensor(out_data)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def linear(x, w, b=None) -> Tensor:
    """x @ w + b in one record: x (..., k), w (k, n), b (n,) or None."""
    x, w = _as_tensor(x), _as_tensor(w)
    b = None if b is None else _as_tensor(b)
    if x.ndim < 2 or w.ndim != 2 or (b is not None and b.shape != w.shape[1:]):
        raise ShapeError("linear", x.shape, w.shape, *(() if b is None else (b.shape,)))
    try:
        out = x.data @ w.data
    except ValueError:
        raise ShapeError("linear", x.shape, w.shape) from None
    if b is not None:
        out += b.data

    def backward(g):
        if x.requires_grad:  # one product per leading index: unlike a single flattened
            _accum(x, g @ w.data.T, fresh=True)  # 2-D product, thread-count-stable bytes
        if w.requires_grad:
            _accum(w, _weight_grad(x.data, g), fresh=True)
        if b is not None and b.requires_grad:
            _accum(b, g.reshape(-1, g.shape[-1]).sum(axis=0), fresh=True)

    return _make(out, (x, w) if b is None else (x, w, b), backward)


def attention(q, k, v, n_heads: int, scale: float, mask: np.ndarray | None = None
              ) -> tuple[Tensor, np.ndarray]:
    """Multi-head scaled dot-product attention in one record.

    q (B, Tq, D), k and v (B, Tk, D), each split into n_heads heads of D /
    n_heads; a True entry of mask (broadcast to (B, n_heads, Tq, Tk)) blocks
    that key. Returns the heads' outputs merged back to (B, Tq, D) and the
    probabilities (B, n_heads, Tq, Tk) as a plain array. The scores are
    scaled and softmaxed in place, and backward keeps only q, k, v and the
    probabilities."""
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if q.ndim != 3 or k.shape != v.shape or k.ndim != 3 or k.shape[0] != q.shape[0] \
            or k.shape[2] != q.shape[2] or q.shape[2] % n_heads:
        raise ShapeError("attention", q.shape, k.shape, v.shape)

    def heads(a):  # (B, T, D) -> (B, h, T, D / h), a view
        return a.reshape(a.shape[0], a.shape[1], n_heads, -1).transpose(0, 2, 1, 3)

    def merge(a):  # (B, h, T, D / h) -> (B, T, D)
        return a.transpose(0, 2, 1, 3).reshape(a.shape[0], a.shape[2], -1)

    p = heads(q.data) @ heads(k.data).transpose(0, 1, 3, 2)
    p *= scale
    _softmax(p, mask, "attention", inplace=True)
    out = merge(p @ heads(v.data))

    def backward(g):
        gh = heads(g)
        if v.requires_grad:
            _accum(v, merge(p.transpose(0, 1, 3, 2) @ gh), fresh=True)
        if q.requires_grad or k.requires_grad:
            ds = gh @ heads(v.data).transpose(0, 1, 3, 2)  # d p, then d scores
            ds -= _row_sum(p, ds)
            ds *= p
            ds *= scale
            if q.requires_grad:
                _accum(q, merge(ds @ heads(k.data)), fresh=True)
            if k.requires_grad:
                _accum(k, merge(ds.transpose(0, 1, 3, 2) @ heads(q.data)), fresh=True)

    return _make(out, (q, k, v), backward), p


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError("add", a.shape, b.shape) from None

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.shape))

    return _make(out, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeError("mul", a.shape, b.shape) from None

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.shape), fresh=True)
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.shape), fresh=True)

    return _make(out, (a, b), backward)


def scale(x, k: float) -> Tensor:
    """x * k for a python scalar k."""
    x = _as_tensor(x)
    k = float(k)

    def backward(g):
        _accum(x, g * k, fresh=True)

    return _make(x.data * k, (x,), backward)


def relu(x) -> Tensor:
    x = _as_tensor(x)
    out = np.maximum(x.data, 0)

    def backward(g):
        _accum(x, g * (x.data > 0), fresh=True)

    return _make(out, (x,), backward)


def sigmoid(x) -> Tensor:
    x = _as_tensor(x)
    z = x.data
    e = np.exp(-np.abs(z))  # exp(-z) for z >= 0, exp(z) below: neither overflows
    d = 1 + e
    out = np.where(z >= 0, 1 / d, e / d)

    def backward(g):
        _accum(x, g * out * (1.0 - out), fresh=True)

    return _make(out, (x,), backward)


def _row_max(z: np.ndarray) -> np.ndarray:
    """Max over the last axis, keepdims, exact. Over many rows it takes
    np.maximum of the two (overlapping) halves until one column is left: a
    few whole-array passes in place of numpy's loop over short rows."""
    if z.size < ROW_KERNEL_MIN_ROWS * z.shape[-1]:
        return z.max(axis=-1, keepdims=True)
    while z.shape[-1] > 1:
        n = z.shape[-1]
        z = np.maximum(z[..., :(n + 1) // 2], z[..., n // 2:])
    return z


def _row_sum(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Sum over the last axis of a, or of a * b, keepdims; einsum calls no BLAS
    and makes no product temporary."""
    out = np.einsum("...k->...", a) if b is None else np.einsum("...k,...k->...", a, b)
    return out[..., None]


def _softmax(z: np.ndarray, mask: np.ndarray | None, op: str, inplace: bool) -> np.ndarray:
    """Softmax over the last axis of z; a True mask entry gets weight 0. With
    inplace, z (an array the caller just made) is overwritten and returned."""
    if mask is not None:
        # the constant in z's dtype: an untyped -inf would promote float32 scores
        blocked = np.where(mask, z.dtype.type(-np.inf), z.dtype.type(0))
        try:
            z = np.add(z, blocked, out=z if inplace else None)
        except ValueError:
            raise ShapeError(op, z.shape, mask.shape) from None
        if mask.all(axis=-1).any():
            raise MaskError(f"{op}: at least one row is fully masked")
        inplace = True
    z = np.subtract(z, _row_max(z), out=z if inplace else None)
    np.exp(z, out=z)
    z /= _row_sum(z)
    return z


def softmax(x, mask: np.ndarray | None = None) -> Tensor:
    """Softmax over the last axis; a True mask entry blocks that position."""
    x = _as_tensor(x)
    out = _softmax(x.data, mask, "softmax", inplace=False)

    def backward(g):
        gx = g - _row_sum(out, g)
        gx *= out
        _accum(x, gx, fresh=True)

    return _make(out, (x,), backward)


def layer_norm(x, gain, bias) -> Tensor:
    """Normalize over the last axis, then scale by gain and shift by bias."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    if gain.shape != x.shape[-1:] or bias.shape != x.shape[-1:]:
        raise ShapeError("layer_norm", x.shape, gain.shape, bias.shape)
    inv_d = 1.0 / x.shape[-1]
    xhat = x.data - _row_sum(x.data) * inv_d  # centred, then scaled in place
    inv = 1.0 / np.sqrt(_row_sum(xhat, xhat) * inv_d + LAYER_NORM_EPS)
    xhat *= inv
    out = xhat * gain.data
    out += bias.data

    def backward(g):
        if gain.requires_grad:
            _accum(gain, (g * xhat).reshape(-1, x.shape[-1]).sum(axis=0), fresh=True)
        if bias.requires_grad:
            _accum(bias, g.reshape(-1, x.shape[-1]).sum(axis=0), fresh=True)
        if x.requires_grad:
            gx = g * gain.data
            shift, tilt = _row_sum(gx) * inv_d, _row_sum(gx, xhat) * inv_d
            gx -= shift
            gx -= xhat * tilt
            gx *= inv
            _accum(x, gx, fresh=True)

    return _make(out, (x, gain, bias), backward)


def embedding(table, ids) -> Tensor:
    """Row lookup: table (V, d), integer ids (...,) -> (..., d)."""
    table = _as_tensor(table)
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ShapeError("embedding", table.shape, ids.shape)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise AutodiffError(
            f"embedding: id out of range [0, {table.shape[0]}), got min {ids.min()} max {ids.max()}")
    out = table.data[ids]

    def backward(g):  # a segment sum over the ids in stable sorted order
        flat = ids.reshape(-1).astype(np.intp, copy=False)
        order = np.argsort(flat, kind="stable")
        ranked = flat[order]
        starts = np.flatnonzero(np.diff(ranked, prepend=-1))
        grad = np.zeros_like(table.data)
        if starts.size:
            grad[ranked[starts]] = np.add.reduceat(
                g.reshape(-1, g.shape[-1])[order], starts, axis=0)
        _accum(table, grad, fresh=True)

    return _make(out, (table,), backward)


def concat(parts) -> Tensor:
    """Join parts along the last axis."""
    parts = [_as_tensor(p) for p in parts]
    try:
        out = np.concatenate([p.data for p in parts], axis=-1)
    except ValueError:
        raise ShapeError("concat", *[p.shape for p in parts]) from None
    offsets = np.cumsum([0] + [p.shape[-1] for p in parts])

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                _accum(p, g[..., lo:hi])

    return _make(out, tuple(parts), backward)


def dropout(x, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: each entry is kept with probability 1 - rate (in
    [0, 1), checked by ModelConfig) and scaled by 1 / (1 - rate)."""
    x = _as_tensor(x)
    keep = (rng.random(x.shape) >= rate).astype(x.data.dtype) / (1.0 - rate)
    out = x.data * keep

    def backward(g):
        _accum(x, g * keep, fresh=True)

    return _make(out, (x,), backward)


def cross_entropy(logits, targets, token_mask=None, label_smoothing: float = 0.0) -> Tensor:
    """Mean per-token cross entropy. logits (..., V), integer targets (...,).

    token_mask (same shape as targets, 1 = count) excludes padding. With
    label smoothing s the target distribution is (1-s) on the true class
    plus s/V spread uniformly over the whole vocabulary.
    """
    logits = _as_tensor(logits)
    targets = np.asarray(targets)
    if logits.shape[:-1] != targets.shape:
        raise ShapeError("cross_entropy", logits.shape, targets.shape)
    vocab = logits.shape[-1]
    m = np.ones(targets.shape, dtype=logits.data.dtype) if token_mask is None \
        else np.asarray(token_mask).astype(logits.data.dtype)
    n_tokens = m.sum()
    if n_tokens <= 0:
        raise AutodiffError("cross_entropy: no unmasked target positions")

    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    logp = z - lse
    nll = -np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]
    s = float(label_smoothing)
    per_pos = (1.0 - s) * nll + (s / vocab) * (-logp.sum(axis=-1))
    out = np.asarray((per_pos * m).sum() / n_tokens, dtype=logits.data.dtype)

    def backward(g):
        p = np.exp(logp)
        q = np.full_like(p, s / vocab)
        np.put_along_axis(q, targets[..., None], 1.0 - s + s / vocab, axis=-1)
        grad = (p - q) * (m / n_tokens)[..., None] * g
        _accum(logits, grad, fresh=True)

    return _make(out, (logits,), backward)


def reduce_sum(x) -> Tensor:
    """The sum of every entry, a scalar."""
    x = _as_tensor(x)

    def backward(g):
        _accum(x, np.broadcast_to(g, x.shape))

    return _make(x.data.sum(), (x,), backward)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


def finite_difference_check(f, params, step: float = 1e-4,
                            max_coords_per_tensor: int = 200, seed: int = 0) -> float:
    """Max relative error between tape gradients of f(params) and central
    finite differences, sampling up to `max_coords_per_tensor` coordinates
    per tensor. f must be deterministic (dropout off) and 64-bit data is
    expected for headroom.
    """
    params = list(params)
    with Tape() as tape:
        loss = f(params)
    grads = tape.backward(loss, fill_grad=False)
    analytic = [grads.get(p, np.zeros_like(p.data)) for p in params]

    rng = np.random.default_rng(seed)
    worst = 0.0
    for p, an in zip(params, analytic):
        n = p.data.size
        coords = np.arange(n) if n <= max_coords_per_tensor \
            else np.sort(rng.choice(n, size=max_coords_per_tensor, replace=False))
        for flat_idx in coords:
            idx = np.unravel_index(flat_idx, p.data.shape)
            orig = p.data[idx]
            p.data[idx] = orig + step
            f_plus = float(f(params).data)
            p.data[idx] = orig - step
            f_minus = float(f(params).data)
            p.data[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * step)
            a = float(an[idx])
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst
