"""Parameterized transformer building blocks.

Layers are thin closures over Tensors held in a ParamStore. They follow the
post-norm arrangement: LayerNorm(x + dropout(sublayer(x))). Dropout is passed
in as a callable so the same layer objects serve training and inference.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad


class ParamStore:
    """Named parameter registry with seeded initialization."""

    def __init__(self, rng: np.random.Generator, dtype=np.float32):
        self.rng = rng
        self.dtype = np.dtype(dtype)
        self._params: dict[str, ad.Tensor] = {}

    def _register(self, name: str, data: np.ndarray) -> ad.Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        t = ad.Tensor(data.astype(self.dtype), requires_grad=True)
        self._params[name] = t
        return t

    def xavier(self, name: str, d_in: int, d_out: int) -> ad.Tensor:
        lim = np.sqrt(6.0 / (d_in + d_out))
        return self._register(name, self.rng.uniform(-lim, lim, size=(d_in, d_out)))

    def normal(self, name: str, shape, std: float) -> ad.Tensor:
        return self._register(name, self.rng.normal(0.0, std, size=shape))

    def zeros(self, name: str, shape) -> ad.Tensor:
        return self._register(name, np.zeros(shape))

    def ones(self, name: str, shape) -> ad.Tensor:
        return self._register(name, np.ones(shape))

    def __getitem__(self, name: str) -> ad.Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def items(self):
        return self._params.items()

    def tensors(self) -> list[ad.Tensor]:
        return list(self._params.values())

    def clear_grads(self) -> None:
        for t in self._params.values():
            t.grad = None


def positional_encoding(length: int, d_model: int, dtype=np.float32) -> np.ndarray:
    """Sinusoidal position table, shape (length, d_model)."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    dim = np.arange(d_model, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * (dim // 2) / d_model)
    pe = np.empty((length, d_model))
    pe[:, 0::2] = np.sin(angle[:, 0::2])
    pe[:, 1::2] = np.cos(angle[:, 1::2])
    return pe.astype(dtype)


def padding_mask(is_pad: np.ndarray) -> np.ndarray:
    """(B, Tk) bool -> (B, 1, 1, Tk) mask, True where a key is blocked."""
    return is_pad[:, None, None, :]


def causal_mask(length: int) -> np.ndarray:
    """(1, 1, T, T) mask, True where a query would see a future position."""
    return np.triu(np.ones((length, length), dtype=bool), k=1)[None, None, :, :]


class Linear:
    def __init__(self, store: ParamStore, name: str, d_in: int, d_out: int,
                 bias: bool = True, init_std: float | None = None):
        if init_std is None:
            self.w = store.xavier(f"{name}.w", d_in, d_out)
        else:
            self.w = store.normal(f"{name}.w", (d_in, d_out), init_std)
        self.b = store.zeros(f"{name}.b", (d_out,)) if bias else None

    def __call__(self, x: ad.Tensor) -> ad.Tensor:
        return ad.linear(x, self.w, self.b)


class LayerNorm:
    def __init__(self, store: ParamStore, name: str, d: int):
        self.gain = store.ones(f"{name}.gain", (d,))
        self.bias = store.zeros(f"{name}.bias", (d,))

    def __call__(self, x: ad.Tensor) -> ad.Tensor:
        return ad.layer_norm(x, self.gain, self.bias)


class MultiHeadAttention:
    """Scaled dot-product attention over h heads, one `ad.attention` record.

    Returns (output, weights) where weights are the per-head attention
    probabilities as a plain ndarray (B, h, Tq, Tk), detached for analysis.
    `attend` takes the query projection `wq(query_in)` and the keys and
    values of `project_kv`, all (B, T, d_model); the heads are split inside it.
    """

    def __init__(self, store: ParamStore, name: str, d_model: int, n_heads: int):
        if d_model % n_heads:
            raise ValueError(f"d_model {d_model} not divisible by n_heads {n_heads}")
        self.n_heads = n_heads
        self.scale = float(d_model // n_heads) ** -0.5
        self.wq = Linear(store, f"{name}.wq", d_model, d_model)
        # no key bias: scores are softmax-normalized per row, so a constant
        # shift from a key bias cancels and the parameter would be inert
        self.wk = Linear(store, f"{name}.wk", d_model, d_model, bias=False)
        self.wv = Linear(store, f"{name}.wv", d_model, d_model)
        self.wo = Linear(store, f"{name}.wo", d_model, d_model)

    def project_kv(self, kv_in: ad.Tensor) -> tuple[ad.Tensor, ad.Tensor]:
        return self.wk(kv_in), self.wv(kv_in)

    def attend(self, q: ad.Tensor, k, v, mask: np.ndarray | None = None
               ) -> tuple[ad.Tensor, np.ndarray]:
        out, weights = ad.attention(q, k, v, self.n_heads, self.scale, mask)
        return self.wo(out), weights

    def __call__(self, query_in: ad.Tensor, kv_in: ad.Tensor,
                 mask: np.ndarray | None = None) -> tuple[ad.Tensor, np.ndarray]:
        q = self.wq(query_in)  # before the keys: the backward pass sums in reverse op order
        return self.attend(q, *self.project_kv(kv_in), mask)


class FeedForward:
    def __init__(self, store: ParamStore, name: str, d_model: int, d_ff: int):
        self.lin1 = Linear(store, f"{name}.lin1", d_model, d_ff)
        self.lin2 = Linear(store, f"{name}.lin2", d_ff, d_model)

    def __call__(self, x: ad.Tensor) -> ad.Tensor:
        return self.lin2(ad.relu(self.lin1(x)))


class EncoderLayer:
    """Self-attention and feed-forward sublayers, post-norm."""

    def __init__(self, store: ParamStore, name: str, d_model: int, n_heads: int, d_ff: int):
        self.self_attn = MultiHeadAttention(store, f"{name}.self_attn", d_model, n_heads)
        self.ln1 = LayerNorm(store, f"{name}.ln1", d_model)
        self.ffn = FeedForward(store, f"{name}.ffn", d_model, d_ff)
        self.ln2 = LayerNorm(store, f"{name}.ln2", d_model)

    def __call__(self, x: ad.Tensor, mask: np.ndarray | None, drop) -> ad.Tensor:
        a, _ = self.self_attn(x, x, mask)
        s = self.ln1(ad.add(x, drop(a)))
        return self.ln2(ad.add(s, drop(self.ffn(s))))


class DecoderLayer:
    """Causal self-attention, encoder-decoder attention, feed-forward."""

    def __init__(self, store: ParamStore, name: str, d_model: int, n_heads: int, d_ff: int):
        self.self_attn = MultiHeadAttention(store, f"{name}.self_attn", d_model, n_heads)
        self.ln1 = LayerNorm(store, f"{name}.ln1", d_model)
        self.cross_attn = MultiHeadAttention(store, f"{name}.cross_attn", d_model, n_heads)
        self.ln2 = LayerNorm(store, f"{name}.ln2", d_model)
        self.ffn = FeedForward(store, f"{name}.ffn", d_model, d_ff)
        self.ln3 = LayerNorm(store, f"{name}.ln3", d_model)

    def __call__(self, x: ad.Tensor, enc_hidden: ad.Tensor | None, self_mask: np.ndarray,
                 cross_mask: np.ndarray | None, drop, cache: list | None = None) -> ad.Tensor:
        """With `cache`, this layer's [keys, values, cross keys, cross values], x is
        only the newest position: its keys and values extend the first two, and
        cross-attention reads the last two."""
        q, (k, v) = self.self_attn.wq(x), self.self_attn.project_kv(x)
        if cache is not None:
            k, v = cache[:2] = [np.concatenate([c, n.data], axis=1) for c, n in zip(cache, (k, v))]
        a, _ = self.self_attn.attend(q, k, v, self_mask)
        s = self.ln1(ad.add(x, drop(a)))
        q = self.cross_attn.wq(s)
        k, v = self.cross_attn.project_kv(enc_hidden) if cache is None else cache[2:]
        c, _ = self.cross_attn.attend(q, k, v, cross_mask)
        s2 = self.ln2(ad.add(s, drop(c)))
        return self.ln3(ad.add(s2, drop(self.ffn(s2))))


class GatedFusion:
    """Convex per-coordinate blend of two hidden sequences.

    g = sigmoid(W [a; b] + bias), fused = g * a + (1 - g) * b. Every fused
    coordinate lies between the corresponding a and b coordinates.
    """

    def __init__(self, store: ParamStore, name: str, d_model: int):
        self.proj = Linear(store, f"{name}.gate", 2 * d_model, d_model)

    def __call__(self, a: ad.Tensor, b: ad.Tensor) -> tuple[ad.Tensor, ad.Tensor]:
        if a.shape != b.shape:
            raise ad.ShapeError("gated_fusion", a.shape, b.shape)
        g = ad.sigmoid(self.proj(ad.concat([a, b])))
        # 1 in g's dtype: a float64 constant would promote a float32 model
        one_minus_g = ad.add(ad.scale(g, -1.0), np.ones((), g.dtype))
        fused = ad.add(ad.mul(g, a), ad.mul(one_minus_g, b))
        return fused, g


class ContextFusionLayer:
    """Final encoder layer that mixes in context through a gated sum.

    Order: self-attention sublayer (residual + norm), then attention over the
    context encoder output, combined with the self-attention result by the
    gate in place of a plain residual add (then norm), then FFN sublayer.
    With zero_context=True the context branch is skipped and the gate sees an
    all-zero context path; used to verify context cannot bypass the gate.
    Returns (out, gate, ctx_weights), ctx_weights being the head-averaged
    context attention (B, S, C), or None when the context branch is skipped.
    """

    def __init__(self, store: ParamStore, name: str, d_model: int, n_heads: int, d_ff: int):
        self.self_attn = MultiHeadAttention(store, f"{name}.self_attn", d_model, n_heads)
        self.ln1 = LayerNorm(store, f"{name}.ln1", d_model)
        self.ctx_attn = MultiHeadAttention(store, f"{name}.ctx_attn", d_model, n_heads)
        self.fusion = GatedFusion(store, f"{name}.fusion", d_model)
        self.ln2 = LayerNorm(store, f"{name}.ln2", d_model)
        self.ffn = FeedForward(store, f"{name}.ffn", d_model, d_ff)
        self.ln3 = LayerNorm(store, f"{name}.ln3", d_model)

    def __call__(self, x: ad.Tensor, ctx_hidden: ad.Tensor | None,
                 self_mask: np.ndarray | None, ctx_mask: np.ndarray | None,
                 drop, zero_context: bool = False
                 ) -> tuple[ad.Tensor, ad.Tensor, np.ndarray | None]:
        a, _ = self.self_attn(x, x, self_mask)
        s = self.ln1(ad.add(x, drop(a)))
        if zero_context:
            b, ctx_weights = np.zeros_like(s.data), None
        else:
            c, weights = self.ctx_attn(s, ctx_hidden, ctx_mask)
            b, ctx_weights = drop(c), weights.mean(axis=1)
        fused, g = self.fusion(s, b)
        h = self.ln2(fused)
        out = self.ln3(ad.add(h, drop(self.ffn(h))))
        return out, g, ctx_weights
