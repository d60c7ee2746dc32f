import math
import os

import numpy as np
import pytest

from ctxnmt import autodiff as ad
from ctxnmt import trainer as tr
from ctxnmt.data import Example
from ctxnmt.model import ModelConfig, Transformer, load_checkpoint
from ctxnmt.vocab import EOS, TBOS, TEOS


# ---------------------------------------------------------------------------
# learning-rate schedule
# ---------------------------------------------------------------------------


def test_noam_lr_at_warmup():
    assert tr.noam_lr(4000, 512, 4000) == pytest.approx(6.9877e-4, abs=1e-7)


def test_noam_lr_at_step_one():
    assert tr.noam_lr(1, 512, 4000) == pytest.approx(1.7470e-7, abs=1e-10)


def test_noam_lr_continuous_at_warmup():
    # the two min() branches coincide at step == warmup (up to float rounding)
    w = 4000
    rising = 512 ** -0.5 * (w * w ** -1.5)
    decaying = 512 ** -0.5 * w ** -0.5
    assert rising == pytest.approx(decaying, rel=1e-14)
    assert tr.noam_lr(w, 512, w) == pytest.approx(decaying, rel=1e-14)


def test_noam_lr_monotone_rise_then_decay():
    w = 50
    values = [tr.noam_lr(s, 64, w) for s in range(1, 4 * w)]
    for a, b in zip(values[: w - 1], values[1:w]):
        assert b > a
    for a, b in zip(values[w - 1 : -1], values[w:]):
        assert b < a


def test_noam_lr_rejects_step_zero():
    with pytest.raises(tr.TrainerError):
        tr.noam_lr(0, 512, 4000)


def test_optimizer_config_validation():
    with pytest.raises(tr.TrainerError):
        tr.OptimizerConfig(d_model=64, beta1=0.98, beta2=0.9).validate()
    with pytest.raises(tr.TrainerError):
        tr.OptimizerConfig(d_model=64, warmup_steps=0).validate()
    tr.OptimizerConfig(d_model=64).validate()


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


class _ScalarModel:
    """Minimal stand-in exposing the store interface adam_step needs."""

    class _Store:
        def __init__(self, x0):
            self.x = ad.Tensor(np.array([x0]))

        def items(self):
            return [("x", self.x)]

        def clear_grads(self):
            self.x.grad = None

    def __init__(self, x0=5.0):
        self.store = self._Store(x0)


def test_adam_zero_gradient_leaves_parameters_unchanged():
    model = _ScalarModel(3.0)
    model.store.x.grad = np.zeros(1)
    tr.adam_step(model, tr.TrainState(), 0.1, tr.OptimizerConfig(d_model=64))
    assert model.store.x.data[0] == 3.0


def test_adam_first_step_moves_by_lr():
    # with constant g=1 the bias-corrected ratio m_hat/sqrt(v_hat) is 1
    model = _ScalarModel(0.0)
    model.store.x.grad = np.ones(1)
    tr.adam_step(model, tr.TrainState(), 0.1, tr.OptimizerConfig(d_model=64))
    assert model.store.x.data[0] == pytest.approx(-0.1, rel=1e-6)


def test_adam_descends_on_quadratic():
    model = _ScalarModel(5.0)
    state = tr.TrainState()
    cfg = tr.OptimizerConfig(d_model=64)
    trail = [5.0]
    for _ in range(10):
        model.store.x.grad = 2.0 * model.store.x.data.copy()
        tr.adam_step(model, state, 0.1, cfg)
        trail.append(abs(float(model.store.x.data[0])))
    for a, b in zip(trail, trail[1:]):
        assert b < a


def test_adam_clears_gradients():
    model = _ScalarModel()
    model.store.x.grad = np.ones(1)
    tr.adam_step(model, tr.TrainState(), 0.1, tr.OptimizerConfig(d_model=64))
    assert model.store.x.grad is None


def test_adam_rejects_non_finite_gradient():
    model = _ScalarModel()
    model.store.x.grad = np.array([np.nan])
    with pytest.raises(tr.TrainerError, match="x"):
        tr.adam_step(model, tr.TrainState(), 0.1, tr.OptimizerConfig(d_model=64))


def test_clip_global_norm_scales_joint_norm():
    a = ad.Tensor(np.zeros(3))
    a.grad = np.array([3.0, 0.0, 0.0])
    b = ad.Tensor(np.zeros(1))
    b.grad = np.array([4.0])
    norm = tr.clip_global_norm([a, b], 1.0)
    assert norm == pytest.approx(5.0)
    joint = math.sqrt(float((a.grad**2).sum() + (b.grad**2).sum()))
    assert joint == pytest.approx(1.0)


def test_clip_global_norm_no_op_below_threshold():
    a = ad.Tensor(np.zeros(2))
    a.grad = np.array([0.3, 0.4])
    tr.clip_global_norm([a], 5.0)
    assert a.grad == pytest.approx([0.3, 0.4])


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


def _example(i, src_len, tgt_len=3):
    return Example(
        example_id=str(i),
        context_ids=[2, 3],
        source_ids=list(range(6, 6 + src_len - 1)) + [EOS],
        target_ids=[TBOS] + list(range(6, 6 + tgt_len)) + [TEOS],
    )


def test_make_batches_in_order_packing():
    examples = [_example(i, 4) for i in range(3)]
    batches = tr.make_batches(examples, token_budget=10)
    assert [b.n_src_tokens for b in batches] == [8, 4]
    assert [len(b.example_ids) for b in batches] == [2, 1]


def test_make_batches_partitions_dataset():
    rng = np.random.default_rng(0)
    examples = [_example(i, int(rng.integers(2, 12))) for i in range(40)]
    batches = tr.make_batches(examples, token_budget=20)
    seen = [eid for b in batches for eid in b.example_ids]
    assert sorted(seen) == sorted(ex.example_id for ex in examples)
    for b in batches:
        assert b.n_src_tokens <= 20 or len(b.example_ids) == 1


def test_make_batches_overlong_example_stands_alone():
    batches = tr.make_batches([_example(0, 50)], token_budget=10)
    assert len(batches) == 1
    assert batches[0].n_src_tokens == 50


def test_make_batches_seeded_shuffle_reproducible():
    examples = [_example(i, 2 + i % 5) for i in range(30)]
    first = tr.make_batches(examples, 12, np.random.default_rng(9))
    second = tr.make_batches(examples, 12, np.random.default_rng(9))
    assert [b.example_ids for b in first] == [b.example_ids for b in second]


def test_make_batches_empty_dataset_rejected():
    with pytest.raises(tr.TrainerError):
        tr.make_batches([], 10)


def test_make_batches_pads_with_pad_id():
    examples = [_example(0, 3), _example(1, 6)]
    (batch,) = tr.make_batches(examples, 100)
    assert batch.src.shape == (2, 6)
    short = batch.src[[ex == "0" for ex in batch.example_ids].index(True)]
    assert (short[3:] == 0).all()


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------


def _tiny_config(**kw):
    base = dict(
        src_vocab=16, tgt_vocab=16, d_model=32, n_heads=2, d_ff=64,
        n_layers=1, dropout=0.0, label_smoothing=0.0, max_len=24,
        context_mode="none",
    )
    base.update(kw)
    return ModelConfig(**base)


def _toy_dataset():
    pairs = [([6, 7], [8, 9]), ([7, 8], [9, 10]), ([9], [11]),
             ([10, 6, 7], [12, 8]), ([11, 12], [13, 14])]
    return [
        Example(str(i), [2, 3], src + [EOS], [TBOS] + tgt + [TEOS])
        for i, (src, tgt) in enumerate(pairs)
    ]


def test_initial_loss_near_log_vocab():
    model = Transformer(_tiny_config(), np.random.default_rng(0))
    (batch,) = tr.make_batches(_toy_dataset(), 100)
    loss = model.loss(batch.src, batch.tgt, ctx_ids=batch.ctx, train=False)
    assert float(loss.data) == pytest.approx(math.log(16), rel=0.10)


def test_train_overfits_toy_set(tmp_path):
    model = Transformer(_tiny_config(), np.random.default_rng(1))
    cfg = tr.OptimizerConfig(d_model=32, warmup_steps=40, token_budget=200,
                             max_steps=600, checkpoint_every=200, seed=3)
    result = tr.train(model, _toy_dataset(), None, cfg, str(tmp_path))
    assert result.steps == 600
    assert result.final_train_loss < 0.01
    assert os.path.exists(result.last_checkpoint)


def test_train_writes_metrics_log(tmp_path):
    model = Transformer(_tiny_config(), np.random.default_rng(1))
    cfg = tr.OptimizerConfig(d_model=32, warmup_steps=10, token_budget=200,
                             max_steps=12, checkpoint_every=6, seed=3)
    result = tr.train(model, _toy_dataset(), _toy_dataset()[:2], cfg, str(tmp_path))
    lines = open(result.metrics_path).read().splitlines()
    assert lines[0] == "step\tlr\ttrain_loss\tdev_loss"
    assert len(lines) == 13
    step, lr, loss, dev = lines[1].split("\t")
    assert step == "1"
    assert float(lr) == pytest.approx(tr.noam_lr(1, 32, 10))
    float(loss)
    # dev loss recorded on checkpoint steps only
    assert lines[6].split("\t")[3] != ""
    assert lines[2].split("\t")[3] == ""


def test_train_selects_best_by_dev_loss(tmp_path):
    model = Transformer(_tiny_config(), np.random.default_rng(1))
    cfg = tr.OptimizerConfig(d_model=32, warmup_steps=20, token_budget=200,
                             max_steps=60, checkpoint_every=20, seed=3)
    result = tr.train(model, _toy_dataset(), _toy_dataset(), cfg, str(tmp_path))
    assert result.best_checkpoint is not None
    best = load_checkpoint(result.best_checkpoint)
    (batch,) = tr.make_batches(_toy_dataset(), 100)
    dev = tr.evaluate_loss(best, [batch])
    assert dev == pytest.approx(result.best_dev_loss, rel=1e-6)


def test_train_same_seed_bit_identical_checkpoints(tmp_path):
    def run(sub):
        model = Transformer(_tiny_config(dropout=0.1), np.random.default_rng(5))
        cfg = tr.OptimizerConfig(d_model=32, warmup_steps=10, token_budget=8,
                                 max_steps=25, checkpoint_every=25, seed=11)
        return tr.train(model, _toy_dataset(), None, cfg, str(tmp_path / sub))

    a, b = run("a"), run("b")
    with open(a.last_checkpoint, "rb") as fa, open(b.last_checkpoint, "rb") as fb:
        assert fa.read() == fb.read()


def test_train_different_seed_diverges(tmp_path):
    def run(sub, seed):
        model = Transformer(_tiny_config(dropout=0.1), np.random.default_rng(5))
        cfg = tr.OptimizerConfig(d_model=32, warmup_steps=10, token_budget=8,
                                 max_steps=25, checkpoint_every=25, seed=seed)
        return tr.train(model, _toy_dataset(), None, cfg, str(tmp_path / sub))

    a, b = run("a", 11), run("b", 12)
    ma = load_checkpoint(a.last_checkpoint)
    mb = load_checkpoint(b.last_checkpoint)
    diff = max(np.abs(pa.data - pb.data).max()
               for (_, pa), (_, pb) in zip(ma.store.items(), mb.store.items()))
    assert diff > 0


def test_train_aborts_on_non_finite_loss(tmp_path):
    model = Transformer(_tiny_config(), np.random.default_rng(1))
    # poison a weight so the forward pass produces nan
    model.store.tensors()[0].data[:] = np.nan
    cfg = tr.OptimizerConfig(d_model=32, warmup_steps=10, token_budget=200,
                             max_steps=10, checkpoint_every=5, seed=3)
    with pytest.raises(tr.TrainerError, match="non-finite"):
        tr.train(model, _toy_dataset(), None, cfg, str(tmp_path))


def test_train_saves_last_checkpoint_once_per_period(tmp_path, monkeypatch):
    saves, save = [], tr.save_checkpoint

    def counting(model, path):
        saves.append(os.path.basename(path))
        save(model, path)

    monkeypatch.setattr(tr, "save_checkpoint", counting)
    model = Transformer(_tiny_config(), np.random.default_rng(1))
    cfg = tr.OptimizerConfig(d_model=32, warmup_steps=10, token_budget=200,
                             max_steps=6, checkpoint_every=3, seed=3)
    result = tr.train(model, _toy_dataset(), None, cfg, str(tmp_path))
    assert saves == ["last.ckpt", "last.ckpt"]  # after steps 3 and 6
    assert load_checkpoint(result.last_checkpoint) is not None


def test_train_rejects_mismatched_schedule_width(tmp_path):
    model = Transformer(_tiny_config(), np.random.default_rng(1))
    cfg = tr.OptimizerConfig(d_model=64)
    with pytest.raises(tr.TrainerError, match="d_model"):
        tr.train(model, _toy_dataset(), None, cfg, str(tmp_path))


def test_evaluate_loss_token_weighted():
    model = Transformer(_tiny_config(), np.random.default_rng(2))
    data = _toy_dataset()
    joint = tr.make_batches(data, 1000)
    split = tr.make_batches(data, 4)
    assert tr.evaluate_loss(model, joint) == pytest.approx(
        tr.evaluate_loss(model, split), rel=1e-5)
