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
        y = ad.reduce_sum(ad.mul(ad.concat([a, b], axis=-1), np.arange(5.0)))
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
        h = ad.matmul(x, w)
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


def test_nonscalar_loss_raises():
    x = ad.Tensor(np.ones(3), requires_grad=True)
    with ad.Tape() as tape:
        y = ad.mul(x, x)
    with pytest.raises(ad.TapeError):
        tape.backward(y)


def test_matmul_shape_mismatch():
    with pytest.raises(ad.ShapeError) as err:
        ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((4, 2))))
    assert err.value.shapes == ((2, 3), (4, 2))


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
    out = ad.dropout(x, 0.3, rng, train=True).data
    kept = out[out > 0]
    np.testing.assert_allclose(kept, np.full_like(kept, 1.0 / 0.7))


def test_dropout_eval_is_identity():
    x = ad.Tensor(np.ones((3, 3)))
    assert ad.dropout(x, 0.5, np.random.default_rng(0), train=False) is x
    assert ad.dropout(x, 0.0, np.random.default_rng(0), train=True) is x


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def _mlp_loss_fn(x_data, targets):
    def f(params):
        w1, b1, w2, b2 = params
        x = ad.Tensor(x_data)
        h = ad.relu(ad.add(ad.matmul(x, w1), b1))
        logits = ad.add(ad.matmul(h, w2), b2)
        return ad.cross_entropy(logits, targets, label_smoothing=0.1)
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
    assert ad.finite_difference_check(f, params, step=1e-5) < 1e-4


def test_softmax_matmul_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    a = ad.Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)

    def f(params):
        p, q = params
        scores = ad.softmax(ad.matmul(p, q))
        return ad.reduce_sum(ad.mul(scores, scores))

    assert ad.finite_difference_check(f, [a, b], step=1e-5) < 1e-4


def test_layer_norm_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    x = ad.Tensor(rng.normal(size=(3, 6)), requires_grad=True)
    gain = ad.Tensor(rng.normal(1.0, 0.1, size=6), requires_grad=True)
    bias = ad.Tensor(rng.normal(0.0, 0.1, size=6), requires_grad=True)

    def f(params):
        xx, g, b = params
        out = ad.layer_norm(xx, g, b)
        return ad.reduce_sum(ad.mul(out, out))

    assert ad.finite_difference_check(f, [x, gain, bias], step=1e-5) < 1e-4
