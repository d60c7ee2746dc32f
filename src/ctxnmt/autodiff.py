"""Reverse-mode automatic differentiation over dense numpy tensors.

Ops execute eagerly on numpy arrays. While a Tape is active (``with Tape()
as tape:``), every op whose inputs require gradients records a backward rule;
``tape.backward(loss)`` replays the rules in reverse and accumulates into
``Tensor.grad``, freeing each record as it goes, so only leaf gradients survive
it and a tape runs backward once. With no active tape, ops are plain numpy
(inference mode).

A tape is single-writer: concurrent forward passes need separate tapes (the
active tape is tracked per thread). Tensors without gradients are immutable
as far as this module is concerned and safe to share for reading.
"""

from __future__ import annotations

import threading

import numpy as np

LAYER_NORM_EPS = 1e-6

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

    __slots__ = ("data", "grad", "requires_grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{tag})"

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)


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

    def record(self, out: Tensor, backward) -> None:
        self._records.append((out, backward))

    def backward(self, loss: Tensor) -> None:
        """Fill .grad for every leaf reachable from loss, consuming the tape:
        each record is popped as it is replayed and its output's .grad dropped
        once its rule has run, so only leaf (parameter, input) gradients survive."""
        if self._consumed:
            raise TapeError("backward already ran on this tape; rebuild the forward pass first")
        if loss.data.size != 1:
            raise TapeError(f"loss must be scalar, got shape {loss.shape}")
        self._consumed = True
        loss.grad = np.ones_like(loss.data)
        while self._records:
            out, fn = self._records.pop()
            if out.grad is not None:
                fn(out.grad)
                out.grad = None


def _accum(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.array(g, dtype=t.data.dtype, copy=True)
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum g back down to `shape` after numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _make(out_data, inputs, backward) -> Tensor:
    tape = _active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out = Tensor(out_data, requires_grad=True)
        tape.record(out, backward)
        return out
    return Tensor(out_data)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def matmul(a, b) -> Tensor:
    """(..., m, k) @ (..., k, n) -> (..., m, n), batch dims broadcast."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul", a.shape, b.shape)
    try:
        out = a.data @ b.data
    except ValueError:
        raise ShapeError("matmul", a.shape, b.shape) from None

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return _make(out, (a, b), backward)


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
            _accum(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.shape))

    return _make(out, (a, b), backward)


def scale(x, k: float) -> Tensor:
    """x * k for a python scalar k."""
    x = _as_tensor(x)
    k = float(k)

    def backward(g):
        if x.requires_grad:
            _accum(x, g * k)

    return _make(x.data * k, (x,), backward)


def relu(x) -> Tensor:
    x = _as_tensor(x)
    out = np.maximum(x.data, 0)

    def backward(g):
        if x.requires_grad:
            _accum(x, g * (x.data > 0))

    return _make(out, (x,), backward)


def sigmoid(x) -> Tensor:
    x = _as_tensor(x)
    z = x.data
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)

    def backward(g):
        if x.requires_grad:
            _accum(x, g * out * (1.0 - out))

    return _make(out, (x,), backward)


def softmax(x, mask: np.ndarray | None = None) -> Tensor:
    """Softmax over the last axis; a True mask entry blocks that position."""
    x = _as_tensor(x)
    z = x.data
    if mask is not None:
        try:
            z = np.where(mask, -np.inf, z)
        except ValueError:
            raise ShapeError("softmax", x.shape, mask.shape) from None
        if mask.all(axis=-1).any():
            raise MaskError("softmax: at least one row is fully masked")
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        if x.requires_grad:
            _accum(x, out * (g - (out * g).sum(axis=-1, keepdims=True)))

    return _make(out, (x,), backward)


def layer_norm(x, gain, bias, eps: float = LAYER_NORM_EPS) -> Tensor:
    """Normalize over the last axis, then scale by gain and shift by bias."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    if gain.shape != x.shape[-1:] or bias.shape != x.shape[-1:]:
        raise ShapeError("layer_norm", x.shape, gain.shape, bias.shape)
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out = xhat * gain.data + bias.data

    def backward(g):
        if gain.requires_grad:
            _accum(gain, (g * xhat).reshape(-1, x.shape[-1]).sum(axis=0))
        if bias.requires_grad:
            _accum(bias, g.reshape(-1, x.shape[-1]).sum(axis=0))
        if x.requires_grad:
            dxhat = g * gain.data
            gx = (dxhat - dxhat.mean(axis=-1, keepdims=True)
                  - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)) * inv
            _accum(x, gx)

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

    def backward(g):
        if table.requires_grad:
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, ids, g)

    return _make(out, (table,), backward)


def concat(parts, axis: int = -1) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    try:
        out = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError:
        raise ShapeError("concat", *[p.shape for p in parts]) from None
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        moved = np.moveaxis(g, axis, 0)
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                _accum(p, np.moveaxis(moved[lo:hi], 0, axis))

    return _make(out, tuple(parts), backward)


def dropout(x, rate: float, rng: np.random.Generator, train: bool) -> Tensor:
    """Inverted dropout; the eval path is the identity (no rescale)."""
    if not train or rate == 0.0:
        return _as_tensor(x)
    if not 0.0 <= rate < 1.0:
        raise AutodiffError(f"dropout: rate must be in [0, 1), got {rate}")
    x = _as_tensor(x)
    keep = (rng.random(x.shape) >= rate).astype(x.data.dtype) / (1.0 - rate)
    out = x.data * keep

    def backward(g):
        if x.requires_grad:
            _accum(x, g * keep)

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
        if logits.requires_grad:
            p = np.exp(logp)
            q = np.full_like(p, s / vocab)
            np.put_along_axis(q, targets[..., None], 1.0 - s + s / vocab, axis=-1)
            grad = (p - q) * (m / n_tokens)[..., None] * g
            _accum(logits, grad)

    return _make(out, (logits,), backward)


def reshape(x, shape) -> Tensor:
    x = _as_tensor(x)
    out = x.data.reshape(shape)

    def backward(g):
        if x.requires_grad:
            _accum(x, g.reshape(x.shape))

    return _make(out, (x,), backward)


def transpose(x, axes) -> Tensor:
    x = _as_tensor(x)
    inv = np.argsort(axes)

    def backward(g):
        if x.requires_grad:
            _accum(x, g.transpose(inv))

    return _make(x.data.transpose(axes), (x,), backward)


def reduce_sum(x, axis=None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    out = x.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if x.requires_grad:
            gg = g
            if not keepdims and axis is not None:
                gg = np.expand_dims(gg, axis)
            _accum(x, np.broadcast_to(gg, x.shape))

    return _make(out, (x,), backward)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


def clear_grads(params) -> None:
    for p in params:
        p.grad = None


def finite_difference_check(f, params, step: float = 1e-4,
                            max_coords_per_tensor: int = 200, seed: int = 0) -> float:
    """Max relative error between tape gradients of f(params) and central
    finite differences, sampling up to `max_coords_per_tensor` coordinates
    per tensor. f must be deterministic (dropout off) and 64-bit data is
    expected for headroom.
    """
    params = list(params)
    clear_grads(params)
    with Tape() as tape:
        loss = f(params)
    if loss.data.size != 1:
        raise TapeError(f"finite_difference_check: f must return a scalar, got {loss.shape}")
    tape.backward(loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

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
