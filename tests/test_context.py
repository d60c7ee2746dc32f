"""Context conditioning: the gated fusion path and the concatenation baseline."""

import numpy as np
import pytest

import ctxnmt.autodiff as ad
from ctxnmt.model import ModelConfig, ModelError, Transformer
from ctxnmt.vocab import BOS, EOS, PAD, TBOS, TEOS


def gated_model(seed=0, **overrides):
    base = dict(n_layers=2, n_heads=2, d_model=8, d_ff=16, src_vocab=14,
                tgt_vocab=11, dropout=0.0, label_smoothing=0.0, max_len=32,
                context_mode="gated-context")
    base.update(overrides)
    return Transformer(ModelConfig(**base), np.random.default_rng(seed))


def concat_model(seed=0, **overrides):
    return gated_model(seed, context_mode="concat", **overrides)


SRC = np.array([[6, 7, 8, EOS]])
CTX = np.array([[BOS, 9, 10, 11, EOS]])


def saturate_gate(model):
    model.store["enc.fuse.fusion.gate.w"].data[:] = 0.0
    model.store["enc.fuse.fusion.gate.b"].data[:] = 30.0


# ---------------------------------------------------------------------------
# gated context encoder
# ---------------------------------------------------------------------------


def test_build_requires_room_for_role_token():
    with pytest.raises(ModelError):
        gated_model(src_vocab=2)


def test_shared_layers_have_single_storage():
    """Only the final context layer owns private encoder parameters."""
    model = gated_model()
    ctx_owned = [n for n, _ in model.store.items() if n.startswith("ctx.")]
    assert ctx_owned and all(n.startswith("ctx.final.") for n in ctx_owned)
    enc_named = {n for n, _ in model.store.items() if n.startswith("enc.")}
    # one shared layer (N-1 = 1) plus the fusion layer, nothing duplicated
    assert {n.split(".")[1] for n in enc_named} == {"0", "fuse"}


def test_shared_layers_seen_identically_from_both_paths():
    model = gated_model(1)
    ids = np.array([[6, 7, 8]])
    mask = np.zeros((1, 1, 1, 3), dtype=np.float32)
    x = model._embed(model.src_embed, ids)
    before = model.enc_layers[0](x, mask, lambda t: t)
    model.store["enc.0.self_attn.wq.w"].data += 0.25  # an in-place update
    after = model.enc_layers[0](x, mask, lambda t: t)
    assert np.abs(before.data - after.data).max() > 1e-6  # both paths see the new values


def test_empty_context_is_valid():
    model = gated_model(2)
    empty = np.array([[BOS, EOS]])
    out = model.encode(SRC, empty)
    assert out.hidden.shape == (1, 4, 8)
    assert np.isfinite(out.hidden.data).all()
    assert out.ctx_attention.shape == (1, 4, 2)


def test_context_rows_get_role_token_when_missing():
    model = gated_model(3)
    bare = np.array([[9, 10, 11, EOS]])
    a = model.encode(SRC, CTX[:, :]).hidden.data
    b = model.encode(SRC, bare).hidden.data
    np.testing.assert_array_equal(a, b)


def test_mixed_role_token_batch_rejected():
    model = gated_model()
    mixed = np.array([[BOS, 9, 10, EOS], [9, 10, 11, EOS]])
    src = np.repeat(SRC, 2, axis=0)
    with pytest.raises(ModelError):
        model.encode(src, mixed)


def test_saturated_gate_ignores_context_content():
    """With g pinned at 1 the encoder cannot see the context at all."""
    model = gated_model(4)
    saturate_gate(model)
    a = model.encode(SRC, CTX)
    b = model.encode(SRC, np.array([[BOS, 12, 13, EOS]]))  # different tokens and length
    assert a.gates.min() > 1.0 - 1e-6
    assert np.abs(a.hidden.data - b.hidden.data).max() < 1e-5


def test_zeroed_context_path_equals_self_attention_only_layer():
    model = gated_model(5)
    saturate_gate(model)
    out = model.encode(SRC, CTX, zero_context=True)

    # reference: same parameters, context branch never wired in
    drop = lambda t: t
    mask = (SRC == PAD)[:, None, None, :]
    x = model._embed(model.src_embed, SRC)
    for layer in model.enc_layers:
        x = layer(x, mask, drop)
    fuse = model.fusion_layer
    a, _ = fuse.self_attn(x, x, mask)
    s = fuse.ln1(ad.add(x, a))
    h = fuse.ln2(s)
    ref = fuse.ln3(ad.add(h, fuse.ffn(h)))

    assert np.abs(out.hidden.data - ref.data).max() < 1e-6


def test_context_attention_is_row_stochastic():
    model = gated_model(6)
    out = model.encode(SRC, CTX)
    np.testing.assert_allclose(out.ctx_attention.sum(axis=-1),
                               np.ones((1, SRC.shape[1])), atol=1e-6)
    assert (out.ctx_attention >= 0).all()


def test_context_path_receives_gradient():
    model = gated_model(8)
    tgt = np.array([[TBOS, 6, 7, TEOS]])
    with ad.Tape() as tape:
        loss = model.loss(SRC, tgt, ctx_ids=CTX)
    tape.backward(loss)
    grad = model.store["ctx.final.self_attn.wq.w"].grad
    assert grad is not None and np.abs(grad).sum() > 0
    gate_grad = model.store["enc.fuse.fusion.gate.w"].grad
    assert gate_grad is not None and np.abs(gate_grad).sum() > 0


def test_gated_model_full_gradient_check():
    model64 = Transformer(ModelConfig(n_layers=2, n_heads=2, d_model=8, d_ff=16,
                                      src_vocab=14, tgt_vocab=11, dropout=0.0,
                                      label_smoothing=0.1, max_len=32,
                                      context_mode="gated-context"),
                          np.random.default_rng(9), dtype=np.float64)
    tgt = np.array([[TBOS, 6, 7, TEOS]])

    def f(params):
        return model64.loss(SRC, tgt, ctx_ids=CTX)

    err = ad.finite_difference_check(f, model64.store.tensors(), step=1e-5,
                                     max_coords_per_tensor=20)
    assert err < 1e-4


# ---------------------------------------------------------------------------
# concatenation baseline
# ---------------------------------------------------------------------------


def test_concat_flags_mark_segments():
    model = concat_model()
    merged, flags = model._repack_concat(np.array([[9, 10, 11]]), np.array([[6, 7]]))
    np.testing.assert_array_equal(flags, [[0, 0, 0, 1, 1]])
    np.testing.assert_array_equal(merged, [[9, 10, 11, 6, 7]])


def test_concat_strips_role_token_and_padding():
    model = concat_model()
    ctx = np.array([[BOS, 9, 10, EOS, PAD]])
    src = np.array([[6, 7, EOS, PAD]])
    merged, flags = model._repack_concat(ctx, src)
    np.testing.assert_array_equal(merged, [[9, 10, EOS, 6, 7, EOS]])
    np.testing.assert_array_equal(flags, [[0, 0, 0, 1, 1, 1]])


def test_concat_zeroed_segment_table_is_plain_encoding():
    model = concat_model(1)
    model.store["seg_embed"].data[:] = 0.0
    enc = model.encode(SRC, CTX)
    merged, _ = model._repack_concat(CTX, SRC)
    plain, _, _ = model._encoder_stack(merged, lambda t: t)
    np.testing.assert_allclose(enc.hidden.data, plain.data, atol=1e-7)


def test_concat_segment_rows_are_consumed():
    model = concat_model(2)
    before = model.encode(SRC, CTX).hidden.data.copy()
    model.store["seg_embed"].data = model.store["seg_embed"].data[::-1].copy()
    after = model.encode(SRC, CTX).hidden.data
    assert np.abs(before - after).max() > 1e-6


def test_concat_overflow_reports_lengths():
    model = concat_model(max_len=6)
    with pytest.raises(ModelError, match="context"):
        model.encode(np.full((1, 4), 6), np.full((1, 4), 9))


def test_context_required_for_context_modes():
    with pytest.raises(ModelError):
        gated_model().encode(SRC, None)
    with pytest.raises(ModelError):
        concat_model().encode(SRC, None)
