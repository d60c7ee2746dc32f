import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ctxnmt.autodiff as ad


def finite_floats(shape, lo=-5.0, hi=5.0):
    from hypothesis.extra.numpy import arrays
    return arrays(np.float64, shape, elements=st.floats(lo, hi, allow_nan=False))


# ---------------------------------------------------------------------------
# forward fixtures
# ---------------------------------------------------------------------------


def test_softmax_uniform_logits():
    out = ad.softmax(ad.Tensor(np.zeros((1, 2))))
    np.testing.assert_allclose(out.data, [[0.5, 0.5]])


def test_sigmoid_at_zero():
    assert ad.sigmoid(ad.Tensor(np.array([0.0]))).data[0] == pytest.approx(0.5)


def test_sigmoid_stable_at_extremes():
    out = ad.sigmoid(ad.Tensor(np.array([-1000.0, 1000.0]))).data
    assert out[0] == pytest.approx(0.0, abs=1e-12)
    assert out[1] == pytest.approx(1.0, abs=1e-12)
    assert np.isfinite(out).all()


def test_layer_norm_constant_row_returns_bias():
    # a constant row normalizes to zeros, so only the bias survives
    x = ad.Tensor(np.full((2, 4), 3.0))
    gain = ad.Tensor(np.ones(4))
    bias = ad.Tensor(np.array([1.0, 2.0, 3.0, 4.0]))
    out = ad.layer_norm(x, gain, bias)
    np.testing.assert_allclose(out.data, np.tile([1.0, 2.0, 3.0, 4.0], (2, 1)), atol=1e-9)


def test_cross_entropy_uniform_logits_is_log_vocab():
    logits = ad.Tensor(np.zeros((3, 7)))
    loss = ad.cross_entropy(logits, np.array([0, 3, 6]))
    assert loss.item() == pytest.approx(np.log(7.0))


def test_cross_entropy_label_smoothing_matches_manual():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(2, 5))
    t = np.array([1, 4])
    s = 0.1
    loss = ad.cross_entropy(ad.Tensor(z), t, label_smoothing=s)
    logp = z - z.max(axis=-1, keepdims=True)
    logp = logp - np.log(np.exp(logp).sum(axis=-1, keepdims=True))
    q = np.full_like(z, s / 5)
    q[np.arange(2), t] += 1.0 - s
    expected = -(q * logp).sum(axis=-1).mean()
    assert loss.item() == pytest.approx(expected, rel=1e-12)


def test_cross_entropy_token_mask_excludes_positions():
    z = np.array([[[4.0, 0.0], [0.0, 4.0]]])
    t = np.array([[0, 0]])
    full = ad.cross_entropy(ad.Tensor(z), t)
    first_only = ad.cross_entropy(ad.Tensor(z), t, token_mask=np.array([[1, 0]]))
    assert first_only.item() < full.item()
    assert first_only.item() == pytest.approx(np.log(1 + np.exp(-4.0)))


def test_cross_entropy_all_masked_raises():
    with pytest.raises(ad.AutodiffError):
        ad.cross_entropy(ad.Tensor(np.zeros((1, 2, 3))), np.zeros((1, 2), dtype=int),
                         token_mask=np.zeros((1, 2)))


# ---------------------------------------------------------------------------
# backward fixtures
# ---------------------------------------------------------------------------


def test_square_gradient():
    x = ad.Tensor(np.array([3.0]), requires_grad=True)
    with ad.Tape() as tape:
        y = ad.reduce_sum(ad.mul(x, x))
    tape.backward(y)
    np.testing.assert_allclose(x.grad, [6.0])


def test_sigmoid_gradient_at_zero():
    x = ad.Tensor(np.array([0.0]), requires_grad=True)
    with ad.Tape() as tape:
        y = ad.reduce_sum(ad.sigmoid(x))
    tape.backward(y)
    np.testing.assert_allclose(x.grad, [0.25])


def test_reuse_accumulates_gradient():
    x = ad.Tensor(np.array([2.0]), requires_grad=True)
    with ad.Tape() as tape:
        y = ad.reduce_sum(ad.add(x, x))
    tape.backward(y)
    np.testing.assert_allclose(x.grad, [2.0])


@pytest.mark.parametrize("shape", [
    (1, 1, 3), (15, 17, 3), (16, 16, 3), (257, 1, 3), (24, 25, 3),
    (1, 1, 1, 3), (3, 5, 17, 3), (4, 8, 8, 3), (1, 257, 1, 3), (4, 6, 25, 3),
], ids=lambda shape: "x".join(map(str, shape)))
def test_blocked_weight_gradient_equals_batched_sum(shape):
    """A 2-D right operand's gradient, summed over fixed row blocks, is the
    per-row batched product summed down, for 1, 255, 256, 257 and 600 rows."""
    rng = np.random.default_rng(int(np.prod(shape)))
    a = rng.normal(size=shape)
    w = ad.Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    probe = rng.normal(size=shape[:-1] + (5,))
    with ad.Tape() as tape:
        loss = ad.reduce_sum(ad.mul(ad.linear(a, w), probe))
    tape.backward(loss)
    batched = ad._unbroadcast(np.swapaxes(a, -1, -2) @ probe, w.shape)
    np.testing.assert_allclose(w.grad, batched, rtol=0, atol=1e-12)


def test_broadcast_bias_gradient_sums_over_batch():
    b = ad.Tensor(np.zeros(3), requires_grad=True)
    x = ad.Tensor(np.ones((4, 3)))
    with ad.Tape() as tape:
        y = ad.reduce_sum(ad.add(x, b))
    tape.backward(y)
    np.testing.assert_allclose(b.grad, [4.0, 4.0, 4.0])


def test_embedding_repeated_ids_accumulate():
    table = ad.Tensor(np.zeros((5, 2)), requires_grad=True)
    with ad.Tape() as tape:
        out = ad.embedding(table, np.array([1, 1, 3]))
        loss = ad.reduce_sum(out)
    tape.backward(loss)
    np.testing.assert_allclose(table.grad[1], [2.0, 2.0])
    np.testing.assert_allclose(table.grad[3], [1.0, 1.0])
    np.testing.assert_allclose(table.grad[0], [0.0, 0.0])


def test_concat_backward_splits():
    a = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    b = ad.Tensor(np.ones((2, 3)), requires_grad=True)
    with ad.Tape() as tape:
        y = ad.reduce_sum(ad.mul(ad.concat([a, b]), np.arange(5.0)))
    tape.backward(y)
    np.testing.assert_allclose(a.grad, [[0.0, 1.0], [0.0, 1.0]])
    np.testing.assert_allclose(b.grad, [[2.0, 3.0, 4.0], [2.0, 3.0, 4.0]])


def test_no_tape_records_nothing():
    x = ad.Tensor(np.array([1.0]), requires_grad=True)
    y = ad.mul(x, x)
    assert y.requires_grad is False
    with ad.Tape() as tape:
        ad.mul(ad.Tensor(np.array([1.0])), 2.0)  # no grad-requiring inputs
    assert len(tape) == 0


# ---------------------------------------------------------------------------
# error behavior
# ---------------------------------------------------------------------------


def test_backward_twice_raises():
    x = ad.Tensor(np.array([1.0]), requires_grad=True)
    with ad.Tape() as tape:
        y = ad.reduce_sum(x)
    tape.backward(y)
    with pytest.raises(ad.TapeError):
        tape.backward(y)


def test_backward_consumes_tape_and_keeps_only_leaf_grads():
    x = ad.Tensor(np.array([[1.0, -2.0, 0.5], [0.0, 3.0, -1.0]]), requires_grad=True)
    w = ad.Tensor(np.array([[0.5, 1.0], [-1.0, 2.0], [0.25, -0.5]]), requires_grad=True)
    with ad.Tape() as tape:
        h = ad.linear(x, w)
        z = ad.mul(h, h)
        loss = ad.add(ad.reduce_sum(z), ad.reduce_sum(h))
    n_records = len(tape)
    with pytest.raises(ad.TapeError):
        tape.backward(z)  # not scalar: raises before anything is consumed
    assert len(tape) == n_records > 0 and x.grad is None and w.grad is None
    tape.backward(loss)
    assert len(tape) == 0
    assert h.grad is None and z.grad is None and loss.grad is None
    dh = 2.0 * h.data + 1.0
    np.testing.assert_allclose(x.grad, dh @ w.data.T)
    np.testing.assert_allclose(w.grad, x.data.T @ dh)
    with pytest.raises(ad.TapeError):
        tape.backward(loss)


@pytest.mark.parametrize("later_use", [False, True], ids=["add(x, x)", "add(a, b) then a"])
def test_shared_incoming_gradient_is_never_aliased(later_use):
    """_accum keeps a fresh gradient array without copying it, but add hands
    one incoming gradient to both its inputs, so that one is copied: adding a
    later contribution into a's gradient must not change b's. Checked against
    float64 analytic values."""
    rng = np.random.default_rng(3)
    v, w = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
    a = ad.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    with ad.Tape() as tape:
        if later_use:  # a's other use is replayed after the add
            u = ad.reduce_sum(ad.mul(a, v))
            loss = ad.add(u, ad.reduce_sum(ad.mul(ad.add(a, b), w)))
        else:
            loss = ad.reduce_sum(ad.mul(ad.add(a, a), w))
    tape.backward(loss)
    if later_use:
        np.testing.assert_array_equal(a.grad, w + v)
        np.testing.assert_array_equal(b.grad, w)
    else:
        np.testing.assert_array_equal(a.grad, 2.0 * w)
        assert b.grad is None


def test_backward_without_fill_grad_touches_no_grad():
    """fill_grad=False returns the tape's leaf gradients from its own store
    and leaves .grad alone; two such tapes over the same parameters can
    replay on two threads at once and give the gradients of one thread."""
    rng = np.random.default_rng(4)
    w = ad.Tensor(rng.normal(size=(8, 8)), requires_grad=True)
    w.grad = np.full((8, 8), 7.0)
    xs = [rng.normal(size=(300, 8)) for _ in range(2)]

    def grads_of(x):
        with ad.Tape() as tape:
            loss = ad.reduce_sum(ad.mul(ad.relu(ad.linear(x, w)), 0.5))
        return tape.backward(loss, fill_grad=False)

    alone = [grads_of(x) for x in xs]
    together = [None, None]
    threads = [threading.Thread(target=lambda k=k: together.__setitem__(k, grads_of(xs[k])))
               for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    np.testing.assert_array_equal(w.grad, np.full((8, 8), 7.0))
    for x, one, two in zip(xs, alone, together):
        assert list(one) == list(two) == [w]
        np.testing.assert_array_equal(one[w], two[w])
        np.testing.assert_allclose(one[w], 0.5 * x.T @ (x @ w.data > 0), rtol=1e-12)


def test_nonscalar_loss_raises():
    x = ad.Tensor(np.ones(3), requires_grad=True)
    with ad.Tape() as tape:
        y = ad.mul(x, x)
    with pytest.raises(ad.TapeError):
        tape.backward(y)


def test_linear_shape_mismatch():
    with pytest.raises(ad.ShapeError) as err:
        ad.linear(np.ones((2, 3)), np.ones((4, 2)))
    assert err.value.shapes == ((2, 3), (4, 2))
    with pytest.raises(ad.ShapeError) as err:
        ad.linear(np.ones((2, 3)), np.ones((3, 2)), np.ones(3))
    assert err.value.shapes == ((2, 3), (3, 2), (3,))


def test_fully_masked_softmax_row_raises():
    mask = np.ones((1, 3), dtype=bool)
    with pytest.raises(ad.MaskError):
        ad.softmax(ad.Tensor(np.zeros((1, 3))), mask=mask)


def test_embedding_id_out_of_range():
    with pytest.raises(ad.AutodiffError):
        ad.embedding(ad.Tensor(np.zeros((4, 2))), np.array([4]))


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(finite_floats((3, 6)))
def test_softmax_rows_are_distributions(x):
    out = ad.softmax(ad.Tensor(x)).data
    assert (out >= 0).all()
    np.testing.assert_allclose(out.sum(axis=-1), np.ones(3), atol=1e-9)


@settings(max_examples=50, deadline=None)
@given(finite_floats((2, 4)))
def test_masked_positions_get_zero_weight(x):
    mask = np.array([[False, True, False, True]])
    out = ad.softmax(ad.Tensor(x), mask=mask).data
    assert out[:, 1].max() < 1e-12
    assert out[:, 3].max() < 1e-12
    np.testing.assert_allclose(out.sum(axis=-1), np.ones(2), atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(finite_floats((4, 5), lo=-3.0, hi=3.0))
def test_layer_norm_output_is_standardized(x):
    assume((x.std(axis=-1) > 0.1).all())  # constant rows normalize to zero, not unit variance
    out = ad.layer_norm(ad.Tensor(x), ad.Tensor(np.ones(5)), ad.Tensor(np.zeros(5))).data
    np.testing.assert_allclose(out.mean(axis=-1), np.zeros(4), atol=1e-7)
    assert (np.abs(out.std(axis=-1) - 1.0) < 1e-2).all()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_dropout_train_mean_preserving(seed):
    rng = np.random.default_rng(seed)
    x = ad.Tensor(np.ones((64, 64)))
    out = ad.dropout(x, 0.3, rng).data
    kept = out[out > 0]
    np.testing.assert_allclose(kept, np.full_like(kept, 1.0 / 0.7))


def test_dropout_eval_is_identity():
    """The model's dropout hands its input back untouched in eval mode and
    at rate 0, without drawing from (or needing) an rng."""
    from ctxnmt.model import ModelConfig, Transformer

    def drop_fn(rate, train, rng):
        config = ModelConfig(n_layers=1, n_heads=1, d_model=4, d_ff=4, src_vocab=8,
                             tgt_vocab=8, dropout=rate, max_len=8)
        return Transformer(config, np.random.default_rng(0))._drop_fn(train, rng)

    x = ad.Tensor(np.ones((3, 3)))
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    assert drop_fn(0.5, False, rng)(x) is x
    assert drop_fn(0.0, True, rng)(x) is x
    assert drop_fn(0.5, False, None)(x) is x
    assert rng.bit_generator.state == state
    assert drop_fn(0.5, True, rng)(x) is not x


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def _mlp_loss_fn(x_data, targets):
    def f(params):
        w1, b1, w2, b2 = params
        h = ad.relu(ad.linear(x_data, w1, b1))
        return ad.cross_entropy(ad.linear(h, w2, b2), targets, label_smoothing=0.1)
    return f


def test_mlp_gradients_match_finite_differences():
    """Two-layer MLP with relu, bias broadcast, and smoothed cross entropy."""
    rng = np.random.default_rng(7)
    params = [
        ad.Tensor(rng.normal(0, 0.5, size=(6, 8)), requires_grad=True),
        ad.Tensor(rng.normal(0, 0.5, size=(8,)), requires_grad=True),
        ad.Tensor(rng.normal(0, 0.5, size=(8, 5)), requires_grad=True),
        ad.Tensor(rng.normal(0, 0.5, size=(5,)), requires_grad=True),
    ]
    f = _mlp_loss_fn(rng.normal(size=(4, 6)), rng.integers(0, 5, size=4))
    assert ad.finite_difference_check(f, params) < 1e-4


def test_softmax_linear_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    a = ad.Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True)

    def f(params):
        p, q = params
        scores = ad.softmax(ad.linear(p, q))
        return ad.reduce_sum(ad.mul(scores, scores))

    assert ad.finite_difference_check(f, [a, b]) < 1e-4


def test_layer_norm_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    x = ad.Tensor(rng.normal(size=(3, 6)), requires_grad=True)
    gain = ad.Tensor(rng.normal(1.0, 0.1, size=6), requires_grad=True)
    bias = ad.Tensor(rng.normal(0.0, 0.1, size=6), requires_grad=True)

    def f(params):
        xx, g, b = params
        out = ad.layer_norm(xx, g, b)
        return ad.reduce_sum(ad.mul(out, out))

    assert ad.finite_difference_check(f, [x, gain, bias]) < 1e-4


# ---------------------------------------------------------------------------
# fused ops and row kernels
# ---------------------------------------------------------------------------


def _two_branch_sigmoid(z):
    """The formula sigmoid replaced: boolean-mask indexing into two branches."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_bytes_equal_the_two_branch_formula(dtype):
    grid = np.array([0.0, -0.0, 88.0, -88.0, 100.0, -100.0, 1e4, -1e4, np.inf, -np.inf])
    z = np.concatenate([grid, np.random.default_rng(5).normal(scale=20.0, size=100_000)])
    z = z.astype(dtype)
    got = ad.sigmoid(ad.Tensor(z)).data
    assert got.dtype == dtype
    assert got.tobytes() == _two_branch_sigmoid(z).tobytes()


@pytest.mark.parametrize("ids", [
    np.array([3, 1, 3, 3, 0, 1]),
    np.random.default_rng(6).integers(0, 5, size=(4, 3, 7)),
    np.zeros((2, 0), dtype=np.int64),
], ids=["repeated", "3-d", "empty"])
def test_embedding_gradient_is_the_add_at_sum(ids):
    rng = np.random.default_rng(7)
    table = ad.Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    probe = rng.normal(size=ids.shape + (3,))
    with ad.Tape() as tape:
        loss = ad.reduce_sum(ad.mul(ad.embedding(table, ids), probe))
    tape.backward(loss)
    expected = np.zeros((6, 3))
    np.add.at(expected, ids, probe)
    np.testing.assert_allclose(table.grad, expected, rtol=1e-12, atol=1e-12)


def test_softmax_leaves_its_input_unchanged():
    x = np.random.default_rng(8).normal(size=(300, 4, 11))
    kept = x.copy()
    ad.softmax(ad.Tensor(x))
    ad.softmax(ad.Tensor(x), mask=np.arange(11) > 8)
    np.testing.assert_array_equal(x, kept)


@pytest.mark.parametrize("rows", [1, 255, 256, 257, 1000])
def test_row_max_is_exact(rows):
    z = np.random.default_rng(rows).normal(size=(rows, 11)).astype(np.float32)
    z[0, 3] = -np.inf
    np.testing.assert_array_equal(ad._row_max(z), z.max(axis=-1, keepdims=True))


@pytest.mark.parametrize("shape,bias", [((2, 3, 4), True), ((2, 3, 4), False),
                                        ((3, 200, 4), True)],
                         ids=["3-d", "no bias", "600 rows"])
def test_linear_gradients_match_finite_differences(shape, bias):
    """600 rows: two full weight-gradient blocks and a ragged third."""
    rng = np.random.default_rng(sum(shape))
    x = ad.Tensor(rng.normal(size=shape), requires_grad=True)
    w = ad.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=5), requires_grad=True) if bias else None
    probe = rng.normal(size=shape[:-1] + (5,))

    def f(params):
        return ad.reduce_sum(ad.mul(ad.linear(*params), probe))

    assert ad.finite_difference_check(f, [x, w] + ([b] if bias else [])) < 1e-4


def test_linear_counts_one_record():
    w = ad.Tensor(np.ones((2, 3)), requires_grad=True)
    with ad.Tape() as tape:
        ad.linear(np.ones((1, 4, 2)), w, ad.Tensor(np.zeros(3), requires_grad=True))
    assert len(tape) == 1


def _attention_case(tq, tk, mask_kind, seed=0):
    """q (2, tq, 6), k and v (2, tk, 6), three heads, and a mask: key padding
    (the second row's last two keys), or that or-ed with a causal mask."""
    rng = np.random.default_rng(seed)
    q, k, v = (rng.normal(size=(2, t, 6)) for t in (tq, tk, tk))
    pad = np.zeros((2, tk), dtype=bool)
    pad[1, tk - 2:] = tk > 2
    mask = None
    if mask_kind == "pad":
        mask = pad[:, None, None, :]
    elif mask_kind == "causal|pad":
        mask = np.triu(np.ones((tq, tk), dtype=bool), k=1)[None, None] | pad[:, None, None, :]
    return q, k, v, mask, rng.normal(size=(2, tq, 6))


_ATTENTION_CASES = [(4, 4, None), (4, 4, "pad"), (4, 4, "causal|pad"), (1, 5, "pad"),
                    (3, 6, "pad"), (5, 2, None)]
_ATTENTION_IDS = ["self", "key padding", "causal|pad", "Tq=1", "Tq<Tk", "Tq>Tk"]


@pytest.mark.parametrize("tq,tk,mask_kind", _ATTENTION_CASES, ids=_ATTENTION_IDS)
def test_attention_gradients_match_finite_differences(tq, tk, mask_kind):
    q, k, v, mask, probe = _attention_case(tq, tk, mask_kind)
    params = [ad.Tensor(a, requires_grad=True) for a in (q, k, v)]

    def f(ps):
        out, _ = ad.attention(*ps, 3, 0.5, mask)
        return ad.reduce_sum(ad.mul(out, probe))

    assert ad.finite_difference_check(f, params) < 1e-4


@pytest.mark.parametrize("tq,tk,mask_kind", _ATTENTION_CASES, ids=_ATTENTION_IDS)
def test_attention_equals_the_unfused_composition(tq, tk, mask_kind):
    """The one record against linear, scale, softmax and linear per (row,
    head), each head's q (Tq, d_head), k^T (d_head, Tk) and v (Tk, d_head) a
    leaf, in float64: outputs, probabilities and the gradients of q, k and v
    within 1e-12."""
    q, k, v, mask, probe = _attention_case(tq, tk, mask_kind, seed=1)

    def heads(a):
        return a.reshape(2, a.shape[1], 3, 2).transpose(0, 2, 1, 3)

    def merge(a):
        return a.transpose(0, 2, 1, 3).reshape(2, a.shape[2], 6)

    fused = [ad.Tensor(a, requires_grad=True) for a in (q, k, v)]
    with ad.Tape() as tape:
        out, p = ad.attention(*fused, 3, 0.5, mask)
        loss = ad.reduce_sum(ad.mul(out, probe))
    tape.backward(loss)

    masks = None if mask is None else np.broadcast_to(mask, p.shape)
    qh, kt, vh = ([[ad.Tensor(np.ascontiguousarray(a[b, h]), requires_grad=True)
                    for h in range(3)] for b in range(2)]
                  for a in (heads(q), heads(k).transpose(0, 1, 3, 2), heads(v)))
    attn, ctx = [[None] * 3 for _ in range(2)], [[None] * 3 for _ in range(2)]
    with ad.Tape() as tape:
        loss = 0.0
        for b in range(2):
            for h in range(3):
                scores = ad.scale(ad.linear(qh[b][h], kt[b][h]), 0.5)
                attn[b][h] = ad.softmax(scores, mask=None if masks is None else masks[b, h])
                ctx[b][h] = ad.linear(attn[b][h], vh[b][h])
                loss = ad.add(loss, ad.reduce_sum(ad.mul(ctx[b][h], heads(probe)[b, h])))
    tape.backward(loss)

    def stack(rows, key):
        return np.array([[key(t) for t in row] for row in rows])

    tol = dict(rtol=0, atol=1e-12)
    np.testing.assert_allclose(out.data, merge(stack(ctx, lambda t: t.data)), **tol)
    np.testing.assert_allclose(p, stack(attn, lambda t: t.data), **tol)
    np.testing.assert_allclose(fused[0].grad, merge(stack(qh, lambda t: t.grad)), **tol)
    np.testing.assert_allclose(fused[1].grad, merge(stack(kt, lambda t: t.grad.T)), **tol)
    np.testing.assert_allclose(fused[2].grad, merge(stack(vh, lambda t: t.grad)), **tol)


def test_attention_keeps_float32_and_counts_one_record():
    rng = np.random.default_rng(2)
    q, k, v = (ad.Tensor(rng.normal(size=(2, 3, 8)).astype(np.float32), requires_grad=True)
               for _ in range(3))
    mask = np.array([False, False, True])[None, None, None, :]
    with ad.Tape() as tape:
        out, p = ad.attention(q, k, v, 2, 0.5, mask)
    assert len(tape) == 1
    assert out.data.dtype == p.dtype == np.float32
    assert (p[..., 2] == 0).all()


def test_attention_rejects_a_fully_masked_row_and_bad_shapes():
    x = ad.Tensor(np.zeros((1, 2, 4)))
    with pytest.raises(ad.MaskError):
        ad.attention(x, x, x, 2, 1.0, np.ones((1, 1, 1, 2), dtype=bool))
    with pytest.raises(ad.ShapeError):
        ad.attention(x, x, ad.Tensor(np.zeros((1, 3, 4))), 2, 1.0)
    with pytest.raises(ad.ShapeError):
        ad.attention(x, x, x, 3, 1.0)
