import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctxnmt.autodiff as ad
import ctxnmt.layers as ly


def make_store(seed=0, dtype=np.float64):
    return ly.ParamStore(np.random.default_rng(seed), dtype)


def no_drop(t):
    return t


# ---------------------------------------------------------------------------
# positional encodings and masks
# ---------------------------------------------------------------------------


def test_positional_encoding_position_zero():
    pe = ly.positional_encoding(3, 8)
    np.testing.assert_allclose(pe[0, 0::2], np.zeros(4))
    np.testing.assert_allclose(pe[0, 1::2], np.ones(4))


def test_positional_encoding_bounded():
    pe = ly.positional_encoding(50, 16)
    assert pe.min() >= -1.0 and pe.max() <= 1.0


def test_positional_encoding_first_dim_is_plain_sine():
    pe = ly.positional_encoding(2, 4, dtype=np.float64)
    assert pe[1, 0] == pytest.approx(np.sin(1.0), abs=1e-12)


def test_masks_shapes_and_values():
    pad = ly.padding_mask(np.array([[False, True]]))
    assert pad.shape == (1, 1, 1, 2)
    assert pad.dtype == bool and not pad[0, 0, 0, 0] and pad[0, 0, 0, 1]
    causal = ly.causal_mask(3)
    assert causal.shape == (1, 1, 3, 3)
    assert causal.dtype == bool and causal[0, 0, 0, 1] and not causal[0, 0, 1, 0]
    assert not np.diag(causal[0, 0]).any()


# ---------------------------------------------------------------------------
# multi-head attention
# ---------------------------------------------------------------------------


def test_attention_single_key_gets_full_weight():
    store = make_store(1)
    mha = ly.MultiHeadAttention(store, "attn", d_model=4, n_heads=2)
    q = ad.Tensor(np.random.default_rng(2).normal(size=(1, 3, 4)))
    kv = ad.Tensor(np.random.default_rng(3).normal(size=(1, 1, 4)))
    out, weights = mha(q, kv)
    np.testing.assert_allclose(weights, np.ones((1, 2, 3, 1)))
    v = kv.data @ store["attn.wv.w"].data + store["attn.wv.b"].data
    expected = np.tile(v, (1, 3, 1)) @ store["attn.wo.w"].data + store["attn.wo.b"].data
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_attention_identical_keys_uniform_weights():
    store = make_store(4)
    mha = ly.MultiHeadAttention(store, "attn", d_model=6, n_heads=3)
    q = ad.Tensor(np.random.default_rng(5).normal(size=(2, 3, 6)))
    kv = ad.Tensor(np.tile(np.random.default_rng(6).normal(size=(2, 1, 6)), (1, 5, 1)))
    _, weights = mha(q, kv)
    np.testing.assert_allclose(weights, np.full((2, 3, 3, 5), 0.2), atol=1e-9)


def test_single_head_attention_matches_hand_computation():
    store = make_store(7)
    mha = ly.MultiHeadAttention(store, "attn", d_model=2, n_heads=1)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(1, 2, 2))
    out, weights = mha(ad.Tensor(x), ad.Tensor(x))

    def lin(z, name):
        return z @ store[f"attn.{name}.w"].data + store[f"attn.{name}.b"].data

    q, v = lin(x, "wq"), lin(x, "wv")
    k = x @ store["attn.wk.w"].data  # key projection carries no bias
    scores = q[0] @ k[0].T / np.sqrt(2.0)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    expected = (attn @ v[0]) @ store["attn.wo.w"].data + store["attn.wo.b"].data
    np.testing.assert_allclose(out.data[0], expected, atol=1e-6)
    np.testing.assert_allclose(weights[0, 0], attn, atol=1e-6)


def test_attention_weights_row_stochastic_under_padding():
    store = make_store(9)
    mha = ly.MultiHeadAttention(store, "attn", d_model=4, n_heads=2)
    x = ad.Tensor(np.random.default_rng(10).normal(size=(2, 4, 4)))
    mask = ly.padding_mask(np.array([[False, False, True, True],
                                     [False, False, False, True]]))
    _, weights = mha(x, x, mask)
    np.testing.assert_allclose(weights.sum(axis=-1), np.ones((2, 2, 4)), atol=1e-9)
    assert weights[0, :, :, 2:].max() < 1e-12  # padded keys draw no mass


def test_attention_rejects_indivisible_heads():
    with pytest.raises(ValueError):
        ly.MultiHeadAttention(make_store(), "attn", d_model=6, n_heads=4)


# ---------------------------------------------------------------------------
# gated fusion
# ---------------------------------------------------------------------------


def test_gated_fusion_zero_params_is_even_blend():
    store = make_store(11)
    fusion = ly.GatedFusion(store, "f", d_model=4)
    store["f.gate.w"].data[:] = 0.0
    a = ad.Tensor(np.ones((1, 2, 4)))
    b = ad.Tensor(np.zeros((1, 2, 4)))
    fused, g = fusion(a, b)
    np.testing.assert_allclose(g.data, np.full((1, 2, 4), 0.5))
    np.testing.assert_allclose(fused.data, np.full((1, 2, 4), 0.5))


def test_gated_fusion_saturated_gate_passes_first_input():
    store = make_store(12)
    fusion = ly.GatedFusion(store, "f", d_model=4)
    store["f.gate.w"].data[:] = 0.0
    store["f.gate.b"].data[:] = 30.0
    rng = np.random.default_rng(13)
    a = ad.Tensor(rng.normal(size=(2, 3, 4)))
    b = ad.Tensor(rng.normal(size=(2, 3, 4)))
    fused, _ = fusion(a, b)
    assert np.abs(fused.data - a.data).max() < 1e-5


def test_gated_fusion_matches_hand_arithmetic():
    store = make_store(14)
    fusion = ly.GatedFusion(store, "f", d_model=4)
    rng = np.random.default_rng(15)
    a, b = rng.normal(size=(1, 2, 4)), rng.normal(size=(1, 2, 4))
    fused, g = fusion(ad.Tensor(a), ad.Tensor(b))
    z = np.concatenate([a, b], axis=-1) @ store["f.gate.w"].data + store["f.gate.b"].data
    g_ref = 1.0 / (1.0 + np.exp(-z))
    np.testing.assert_allclose(g.data, g_ref, atol=1e-6)
    np.testing.assert_allclose(fused.data, g_ref * a + (1 - g_ref) * b, atol=1e-6)


def test_gated_fusion_width_mismatch():
    fusion = ly.GatedFusion(make_store(16), "f", d_model=4)
    with pytest.raises(ad.ShapeError):
        fusion(ad.Tensor(np.ones((1, 2, 4))), ad.Tensor(np.ones((1, 3, 4))))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_gated_fusion_output_is_convex(seed):
    """Every fused coordinate sits between the two branch values."""
    store = make_store(17)
    fusion = ly.GatedFusion(store, "f", d_model=4)
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(1, 3, 4)), rng.normal(size=(1, 3, 4))
    fused, g = fusion(ad.Tensor(a), ad.Tensor(b))
    assert ((g.data > 0) & (g.data < 1)).all()
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    assert (fused.data >= lo - 1e-12).all() and (fused.data <= hi + 1e-12).all()


# ---------------------------------------------------------------------------
# gradient checks over composite layers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_attention_layer_gradients(seed):
    store = make_store(seed)
    mha = ly.MultiHeadAttention(store, "attn", d_model=4, n_heads=2)
    rng = np.random.default_rng(seed + 100)
    x_data = rng.normal(size=(2, 3, 4))

    def f(params):
        out, _ = mha(ad.Tensor(x_data), ad.Tensor(x_data))
        return ad.reduce_sum(ad.mul(out, out))

    assert ad.finite_difference_check(f, store.tensors(), step=1e-5) < 1e-4


@pytest.mark.parametrize("seed", [3, 4])
def test_feed_forward_gradients(seed):
    store = make_store(seed)
    ffn = ly.FeedForward(store, "ffn", d_model=4, d_ff=8)
    x_data = np.random.default_rng(seed + 100).normal(size=(2, 3, 4))

    def f(params):
        out = ffn(ad.Tensor(x_data))
        return ad.reduce_sum(ad.mul(out, out))

    assert ad.finite_difference_check(f, store.tensors(), step=1e-5) < 1e-4


def test_gated_fusion_gradients():
    store = make_store(5)
    fusion = ly.GatedFusion(store, "f", d_model=4)
    rng = np.random.default_rng(105)
    a_data, b_data = rng.normal(size=(1, 3, 4)), rng.normal(size=(1, 3, 4))
    a = ad.Tensor(a_data, requires_grad=True)
    b = ad.Tensor(b_data, requires_grad=True)

    def f(params):
        fused, _ = fusion(a, b)
        return ad.reduce_sum(ad.mul(fused, fused))

    assert ad.finite_difference_check(f, store.tensors() + [a, b], step=1e-5) < 1e-4


def test_encoder_layer_gradients():
    # a fixed random functional: sum(out * out) is blind to anything behind
    # the closing layer norm (row mean and variance are pinned)
    store = make_store(6)
    layer = ly.EncoderLayer(store, "enc", d_model=4, n_heads=2, d_ff=8)
    rng = np.random.default_rng(106)
    x_data = rng.normal(size=(2, 3, 4))
    probe = rng.normal(size=(2, 3, 4))

    def f(params):
        out = layer(ad.Tensor(x_data), None, no_drop)
        return ad.reduce_sum(ad.mul(out, probe))

    assert ad.finite_difference_check(f, store.tensors(), step=1e-5) < 1e-4


def test_context_fusion_layer_gradients():
    store = make_store(7)
    layer = ly.ContextFusionLayer(store, "fuse", d_model=4, n_heads=2, d_ff=8)
    rng = np.random.default_rng(107)
    x_data = rng.normal(size=(1, 3, 4))
    ctx_data = rng.normal(size=(1, 4, 4))
    probe = rng.normal(size=(1, 3, 4))

    def f(params):
        out, _, _ = layer(ad.Tensor(x_data), ad.Tensor(ctx_data), None, None, no_drop)
        return ad.reduce_sum(ad.mul(out, probe))

    assert ad.finite_difference_check(f, store.tensors(), step=1e-5) < 1e-4


def test_param_store_rejects_duplicate_names():
    store = make_store(8)
    store.zeros("w", (2,))
    with pytest.raises(ValueError):
        store.zeros("w", (2,))
