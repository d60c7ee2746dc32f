import math
import os
import subprocess
import sys
import threading
from concurrent import futures

import numpy as np
import pytest

from ctxnmt import autodiff as ad
from ctxnmt import trainer as tr
from ctxnmt.data import Example
from ctxnmt.model import ModelConfig, ModelError, Transformer, load_checkpoint
from ctxnmt.vocab import BOS, EOS, TBOS, TEOS


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


_SEEDED_STEPS = """
import hashlib, tempfile
import numpy as np
from ctxnmt import autodiff as ad, trainer as tr
from ctxnmt.data import Example
from ctxnmt.model import ModelConfig, Transformer
from ctxnmt.vocab import BOS, EOS, TBOS, TEOS
for vocab in (60, 600):
    for mode in ("none", "gated-context", "concat"):
        config = ModelConfig(n_layers=2, n_heads=4, d_model=64, d_ff=128, src_vocab=60,
                             tgt_vocab=vocab, dropout=0.1, label_smoothing=0.1,
                             max_len=16, context_mode=mode)
        model = Transformer(config, np.random.default_rng(0))
        state, rng = tr.TrainState(), np.random.default_rng(1)
        for _ in range(3):
            src, ctx = rng.integers(6, 60, (300, 4)), rng.integers(6, 60, (300, 4))
            ctx[:, 0] = BOS
            tgt = rng.integers(6, vocab, (300, 5))
            with ad.Tape() as tape:
                loss = model.loss(src, tgt, None if mode == "none" else ctx, train=True, rng=rng)
            tape.backward(loss)
            tr.adam_step(model, state, 1e-3, tr.OptimizerConfig(d_model=64))
        digest = hashlib.sha256(b"".join(p.data.tobytes() for p in model.store.tensors()))
        print(vocab, mode, digest.hexdigest())
# the trainer's sharded step: one batch of 320 rows of mixed lengths, over
# SHARD_MIN_CELLS, so every step runs two shards (on two threads when
# tr.shard_workers() is 2, inline when it is 1)
rng = np.random.default_rng(2)
ids = lambda lo, hi: rng.integers(6, 60, int(rng.integers(lo, hi))).tolist()
examples = [Example(str(i), [BOS] + ids(1, 7), ids(2, 6) + [EOS], [TBOS] + ids(2, 6) + [TEOS])
            for i in range(320)]
(batch,) = tr.make_batches(examples, 10 ** 6)
print("shards", len(tr.shard_batch(batch)), "workers", tr.shard_workers())
for mode in ("none", "gated-context", "concat"):
    config = ModelConfig(n_layers=2, n_heads=4, d_model=64, d_ff=128, src_vocab=60,
                         tgt_vocab=60, dropout=0.1, label_smoothing=0.1,
                         max_len=16, context_mode=mode)
    model = Transformer(config, np.random.default_rng(0))
    with tempfile.TemporaryDirectory() as out:
        tr.train(model, examples, None, tr.OptimizerConfig(
            d_model=64, warmup_steps=10, token_budget=10 ** 6, max_steps=3, seed=4), out)
    digest = hashlib.sha256(b"".join(p.data.tobytes() for p in model.store.tensors()))
    print("sharded", mode, digest.hexdigest())
"""


def test_trained_bytes_do_not_depend_on_blas_thread_count():
    """Seeded steps on 300-row batches (over 1,200 flattened rows, where one
    weight-gradient product over all rows changes with the thread count)
    give the same parameter bytes at 1 and 2 BLAS threads. So do the
    trainer's sharded steps, which at 1 BLAS thread also run on two worker
    threads (given two CPUs) and on one at 2. The thread count is read when
    numpy loads, so each run is its own process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(tr.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", _SEEDED_STEPS], env=env,
                              capture_output=True, text=True, check=True)
        digests.append(proc.stdout.splitlines())
    workers = [d.pop(6) for d in digests]
    two_cpus = len(os.sched_getaffinity(0)) >= 2 if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1) >= 2
    assert workers == [f"shards 2 workers {2 if two_cpus else 1}", "shards 2 workers 1"]
    assert len(digests[0]) == 9 and digests[0] == digests[1]


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


# ---------------------------------------------------------------------------
# the sharded step
# ---------------------------------------------------------------------------


def _wide_dataset(n=300, vocab=16, seed=0):
    """n examples of mixed lengths whose one batch passes SHARD_MIN_CELLS;
    the last one is the longest in every stream and sorts last, so the shard
    without it is narrower than the batch."""
    rng = np.random.default_rng(seed)

    def ids(lo, hi):
        return rng.integers(6, vocab, int(rng.integers(lo, hi))).tolist()

    out = [Example(str(i), [BOS] + ids(1, 7), ids(2, 6) + [EOS], [TBOS] + ids(2, 6) + [TEOS])
           for i in range(n - 1)]
    return out + [Example(str(n - 1), [BOS] + ids(9, 10), ids(8, 9) + [EOS],
                          [TBOS] + ids(8, 9) + [TEOS])]


def test_shard_batch_splits_only_large_batches():
    (wide,) = tr.make_batches(_wide_dataset(), 10 ** 6)
    shards = tr.shard_batch(wide)
    assert len(shards) == 2
    assert all(a.shape[1] < b.shape[1] for a, b in zip(shards[0], (wide.src, wide.tgt, wide.ctx)))
    for k, (src, tgt, ctx) in enumerate(shards):
        for part, whole in ((src, wide.src), (tgt, wide.tgt), (ctx, wide.ctx)):
            rows = whole[k::2]
            assert part.shape[1] <= whole.shape[1]
            assert (part != 0).any(axis=0)[-1]  # repadded to its own width
            np.testing.assert_array_equal(part, rows[:, :part.shape[1]])
            assert (rows[:, part.shape[1]:] == 0).all()
    (small,) = tr.make_batches(_toy_dataset(), 100)
    assert len(tr.shard_batch(small)) == 1


@pytest.mark.parametrize("mode", ["none", "gated-context", "concat"])
def test_shard_gradients_sum_to_whole_batch_gradient(mode):
    """In float64, the loss and gradient summed over the shards equal those
    of one tape over the whole batch, label smoothing included."""
    model = Transformer(_tiny_config(context_mode=mode, label_smoothing=0.1),
                        np.random.default_rng(6), dtype=np.float64)
    (batch,) = tr.make_batches(_wide_dataset(), 10 ** 6)
    assert len(tr.shard_batch(batch)) == 2
    loss = tr.batch_gradients(model, batch, np.random.SeedSequence(0), 1)
    sharded = {name: p.grad for name, p in model.store.items()}
    model.store.clear_grads()
    with ad.Tape() as tape:
        whole = model.loss(batch.src, batch.tgt, ctx_ids=batch.ctx, train=True,
                           rng=np.random.default_rng(0))
    tape.backward(whole)
    assert loss == pytest.approx(float(whole.data), rel=1e-10)
    for name, p in model.store.items():
        assert np.abs(sharded[name] - p.grad).max() <= 1e-10 * np.abs(p.grad).max(), name


@pytest.mark.parametrize("on_worker", [False, True], ids=["first shard", "second shard"])
def test_shard_failure_surfaces_and_joins_the_worker(tmp_path, monkeypatch, on_worker):
    """A shard that raises, on this thread or on the worker's, surfaces from
    train as its own exception type, and no thread outlives train."""
    loss, ran_on = Transformer.loss, []

    def failing(self, *args, **kwargs):
        worker = threading.current_thread() is not threading.main_thread()
        ran_on.append(worker)
        if worker == on_worker:
            raise ModelError("shard failed")
        return loss(self, *args, **kwargs)

    monkeypatch.setattr(tr, "shard_workers", lambda: 2)
    monkeypatch.setattr(Transformer, "loss", failing)
    model = Transformer(_tiny_config(), np.random.default_rng(1))
    cfg = tr.OptimizerConfig(d_model=32, warmup_steps=10, token_budget=10 ** 6,
                             max_steps=3, seed=3)
    before = threading.active_count()
    with pytest.raises(ModelError, match="shard failed"):
        tr.train(model, _wide_dataset(), None, cfg, str(tmp_path))
    assert threading.active_count() == before
    assert sorted(ran_on) == [False, True]


def test_first_shard_failure_surfaces_when_both_fail(monkeypatch):
    def failing(self, *args, **kwargs):
        on_pool = threading.current_thread() is not threading.main_thread()
        raise ModelError(f"shard {int(on_pool)} failed")

    monkeypatch.setattr(Transformer, "loss", failing)
    model = Transformer(_tiny_config(), np.random.default_rng(1))
    (batch,) = tr.make_batches(_wide_dataset(), 10 ** 6)
    with futures.ThreadPoolExecutor(1) as pool, pytest.raises(ModelError, match="shard 0"):
        tr.batch_gradients(model, batch, np.random.SeedSequence(0), 1, pool)


@pytest.mark.parametrize("dataset, workers, trims", [
    (_wide_dataset, 2, 1), (_toy_dataset, 2, 0), (_wide_dataset, 1, 0),
], ids=["split batches, two workers", "no split batch", "one worker"])
def test_arena_is_trimmed_once_only_after_the_pool_started(tmp_path, monkeypatch,
                                                           dataset, workers, trims):
    """The shard thread starts on the first split batch; only then is its
    arena trimmed, once, when train returns."""
    calls = []
    monkeypatch.setattr(tr, "_release_freed_memory", lambda: calls.append(1))
    monkeypatch.setattr(tr, "shard_workers", lambda: workers)
    model = Transformer(_tiny_config(), np.random.default_rng(1))
    cfg = tr.OptimizerConfig(d_model=32, warmup_steps=10, token_budget=10 ** 6,
                             max_steps=3, seed=3)
    tr.train(model, dataset(), None, cfg, str(tmp_path))
    assert len(calls) == trims
