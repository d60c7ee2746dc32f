"""Training loop: Adam with the inverse-square-root warmup schedule,
token-budget batching, periodic dev evaluation and checkpointing.

A large batch is split into SHARDS fixed row shards whose forward and backward
passes run at once when the machine allows it (see `shard_workers`): the last
shard on the one thread of a `ThreadPoolExecutor`, which starts on the first
split batch and is joined before `train` returns or raises. The shard
gradients are added in shard order, then clipped, then one Adam step is
taken. Runs are deterministic for a fixed seed: batch order, dropout, and
parameter trajectories reproduce bit-identically, whatever the number of
workers.
"""

from __future__ import annotations

import contextlib
import math
import os
import threading
from concurrent import futures
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .data import Example
from .model import Transformer, save_checkpoint
from .vocab import PAD


SHARDS = 2
# a batch is split into shards only from this many padded cells,
# rows x (source + context + target widths); below it two threads lose to one
SHARD_MIN_CELLS = 4096


class TrainerError(RuntimeError):
    pass


class NonFiniteError(TrainerError):
    """A loss or gradient left the finite range mid-run."""


def noam_lr(step_num: int, d_model: int, warmup_steps: int) -> float:
    """d_model^-0.5 * min(step^-0.5, step * warmup^-1.5).

    Rises linearly for warmup_steps, then decays as inverse square root; the
    two branches meet exactly at step_num == warmup_steps.
    """
    if step_num < 1:
        raise TrainerError(f"step_num must be >= 1, got {step_num}")
    return d_model ** -0.5 * min(step_num ** -0.5, step_num * warmup_steps ** -1.5)


@dataclass
class OptimizerConfig:
    d_model: int
    beta1: float = 0.9
    beta2: float = 0.98
    epsilon: float = 1e-9
    warmup_steps: int = 4000
    grad_clip: float = 5.0
    token_budget: int = 5000
    max_steps: int = 10000
    checkpoint_every: int = 500
    seed: int = 0

    def validate(self) -> "OptimizerConfig":
        if not 0.0 < self.beta1 < self.beta2 < 1.0:
            raise TrainerError(f"need 0 < beta1 < beta2 < 1, got {self.beta1}, {self.beta2}")
        if self.warmup_steps < 1:
            raise TrainerError(f"warmup_steps must be >= 1, got {self.warmup_steps}")
        if self.token_budget < 1 or self.max_steps < 1 or self.checkpoint_every < 1:
            raise TrainerError("token_budget, max_steps, checkpoint_every must be positive")
        if not 0.0 < self.grad_clip < math.inf:
            raise TrainerError(f"grad_clip must be finite and positive, got {self.grad_clip}")
        return self


@dataclass
class TrainState:
    step_num: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    best_dev_loss: float = math.inf


def clip_global_norm(tensors: list[ad.Tensor], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm."""
    total = 0.0
    for t in tensors:
        if t.grad is not None:
            total += float((t.grad.astype(np.float64) ** 2).sum())
    norm = math.sqrt(total)
    if norm > max_norm > 0:
        factor = max_norm / norm
        for t in tensors:
            if t.grad is not None:
                t.grad *= factor
    return norm


def adam_step(model: Transformer, state: TrainState, lr: float,
              cfg: OptimizerConfig) -> None:
    """One bias-corrected Adam update over every parameter with a gradient;
    gradients are cleared afterward."""
    state.step_num += 1
    t = state.step_num
    bc1 = 1.0 - cfg.beta1 ** t
    bc2 = 1.0 - cfg.beta2 ** t
    for name, p in model.store.items():
        g = p.grad
        if g is None:
            continue
        if not np.isfinite(g).all():
            raise NonFiniteError(f"non-finite gradient in parameter {name}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m, v = state.m[name], state.v[name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g * g
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.epsilon)
    model.store.clear_grads()


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


@dataclass
class Batch:
    example_ids: list[str]
    ctx: np.ndarray
    src: np.ndarray
    tgt: np.ndarray
    n_src_tokens: int


def pad_ids(rows: list[list[int]]) -> np.ndarray:
    width = max(len(r) for r in rows)
    out = np.full((len(rows), width), PAD, dtype=np.int64)
    for i, r in enumerate(rows):
        out[i, :len(r)] = r
    return out


def decode_batches(examples: list[Example], batch_size: int, with_context: bool):
    """Fixed-size batches in file order, for decoding and attention dumps:
    yields (examples, padded source ids, padded context ids or None)."""
    if batch_size < 1:
        raise TrainerError(f"batch size must be >= 1, got {batch_size}")
    for start in range(0, len(examples), batch_size):
        chunk = examples[start:start + batch_size]
        ctx = pad_ids([ex.context_ids for ex in chunk]) if with_context else None
        yield chunk, pad_ids([ex.source_ids for ex in chunk]), ctx


def _to_batch(group: list[Example]) -> Batch:
    return Batch(
        example_ids=[ex.example_id for ex in group],
        ctx=pad_ids([ex.context_ids for ex in group]),
        src=pad_ids([ex.source_ids for ex in group]),
        tgt=pad_ids([ex.target_ids for ex in group]),
        n_src_tokens=sum(len(ex.source_ids) for ex in group),
    )


def make_batches(examples: list[Example], token_budget: int,
                 rng: np.random.Generator | None = None) -> list[Batch]:
    """Length-sorted in-order packing: each batch holds at most token_budget
    source tokens (an over-long single example stands alone). Batch order is
    shuffled when an rng is given; membership is rng-independent."""
    if not examples:
        raise TrainerError("empty dataset")
    ordered = sorted(examples, key=lambda ex: len(ex.source_ids))
    batches = []
    group: list[Example] = []
    group_tokens = 0
    for ex in ordered:
        n = len(ex.source_ids)
        if group and group_tokens + n > token_budget:
            batches.append(_to_batch(group))
            group, group_tokens = [], 0
        group.append(ex)
        group_tokens += n
    if group:
        batches.append(_to_batch(group))
    if rng is not None:
        perm = rng.permutation(len(batches))
        batches = [batches[i] for i in perm]
    return batches


# ---------------------------------------------------------------------------
# the sharded step
# ---------------------------------------------------------------------------


def _repad(ids: np.ndarray) -> np.ndarray:
    """ids without the trailing columns that are PAD in every row."""
    used = (ids != PAD).any(axis=0).nonzero()[0]
    return ids[:, :int(used.max(initial=0)) + 1]


def shard_batch(batch: Batch) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(src, tgt, ctx) of each shard: rows k::SHARDS, each repadded to its own
    widths. Batches are length-sorted, so the shards get the same length mix.
    A batch under SHARD_MIN_CELLS padded cells is one shard. The rule reads
    only the batch, never the number of workers."""
    rows = batch.src.shape[0]
    cells = rows * (batch.src.shape[1] + batch.ctx.shape[1] + batch.tgt.shape[1])
    if rows < SHARDS or cells < SHARD_MIN_CELLS:
        return [(batch.src, batch.tgt, batch.ctx)]
    return [(_repad(batch.src[k::SHARDS]), _repad(batch.tgt[k::SHARDS]),
             _repad(batch.ctx[k::SHARDS])) for k in range(SHARDS)]


def shard_workers() -> int:
    """2 when the process may use two CPUs and BLAS is pinned to one thread
    (OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS, is 1), else 1. Concurrent
    calls into a multi-threaded BLAS pool contend, and then one thread wins."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    blas = os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS"))
    return SHARDS if cpus >= 2 and (blas or "").strip() == "1" else 1


def _release_freed_memory() -> None:
    """Return the free pages of every malloc arena to the OS (glibc's
    malloc_trim; elsewhere nothing). glibc gives the worker thread an arena
    of its own, and what the thread freed there otherwise stays resident
    after it ends (about 75 MB after training on a subtitle corpus), on top
    of every later allocation."""
    import ctypes  # numpy has loaded it already

    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (AttributeError, OSError, TypeError):
        pass


def _shard_pass(model: Transformer, src, tgt, ctx, share: float, rng):
    """(loss, leaf gradients) of one shard, its loss scaled by its share of
    the batch's target tokens; the gradients come from the tape's own store,
    and are None for a loss that is not finite."""
    with ad.Tape() as tape:
        loss = model.loss(src, tgt, ctx_ids=ctx, train=True, rng=rng)
        if share != 1.0:
            loss = ad.scale(loss, share)
    if not np.isfinite(loss.data):
        return float(loss.data), None
    return float(loss.data), tape.backward(loss, fill_grad=False)


def _dropout_rng(seed: np.random.SeedSequence, step_num: int, shard: int):
    """The dropout stream of one shard of one step: a child of seed keyed by
    (step_num, shard), so it does not depend on which thread draws it."""
    return np.random.default_rng(np.random.SeedSequence(
        seed.entropy, spawn_key=seed.spawn_key + (step_num, shard)))


def batch_gradients(model: Transformer, batch: Batch, drop_seed: np.random.SeedSequence,
                    step_num: int, pool: futures.Executor | None = None) -> float:
    """Set .grad of every parameter to the batch's gradient, the shards'
    gradients added in shard order, and return the batch loss (if it is not
    finite, no .grad is set). With a pool, the last shard runs on it while
    this thread runs the others; the step returns or raises only after that
    shard has finished, and an exception of an earlier shard comes first."""
    shards = shard_batch(batch)
    counts = [int((tgt[:, 1:] != PAD).sum()) for _, tgt, _ in shards]
    total = sum(counts) or 1  # no target token: cross_entropy raises
    calls = [lambda k=k: _shard_pass(model, *shards[k], counts[k] / total,
                                     _dropout_rng(drop_seed, step_num, k))
             for k in range(len(shards))]
    if pool is None or len(calls) == 1:
        results = [call() for call in calls]
    else:
        last = pool.submit(calls[-1])
        try:
            results = [call() for call in calls[:-1]]
        finally:
            futures.wait([last])
        results.append(last.result())
    loss = sum(value for value, _ in results)
    if not math.isfinite(loss):
        return loss
    summed = results[0][1]
    for _, grads in results[1:]:
        for t, g in grads.items():
            if t in summed:
                summed[t] += g
            else:
                summed[t] = g
    for t, g in summed.items():
        t.grad = g
    return loss


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    steps: int
    final_train_loss: float
    best_dev_loss: float
    last_checkpoint: str
    best_checkpoint: str | None
    metrics_path: str


def evaluate_loss(model: Transformer, batches: list[Batch]) -> float:
    """Token-weighted mean dev loss, dropout off."""
    total, tokens = 0.0, 0
    for batch in batches:
        n = int((batch.tgt[:, 1:] != PAD).sum())
        loss = model.loss(batch.src, batch.tgt, ctx_ids=batch.ctx, train=False)
        total += float(loss.data) * n
        tokens += n
    if tokens == 0:
        raise TrainerError("dev set has no target tokens")
    return total / tokens


def train(model: Transformer, train_examples: list[Example],
          dev_examples: list[Example] | None, cfg: OptimizerConfig,
          out_dir: str, quiet: bool = True) -> TrainResult:
    """Optimize until max_steps; keep last.ckpt plus dev-best best.ckpt.

    Aborts on a non-finite loss, leaving the last periodic checkpoint on disk.
    """
    cfg.validate()
    if cfg.d_model != model.config.d_model:
        raise TrainerError(
            f"schedule d_model {cfg.d_model} does not match model d_model "
            f"{model.config.d_model}")
    os.makedirs(out_dir, exist_ok=True)
    metrics_path = os.path.join(out_dir, "metrics.tsv")
    last_path = os.path.join(out_dir, "last.ckpt")
    best_path = os.path.join(out_dir, "best.ckpt")

    order_seed, drop_seed = np.random.SeedSequence(cfg.seed).spawn(2)
    order_rng = np.random.default_rng(order_seed)

    dev_batches = make_batches(dev_examples, cfg.token_budget) if dev_examples else None
    state = TrainState()
    train_loss = math.nan
    wrote_best = False

    started = threading.Event()  # set when the pool starts its thread, on the first split batch
    try:
        with (futures.ThreadPoolExecutor(1, "ctxnmt-shard", initializer=started.set)
              if shard_workers() > 1 else contextlib.nullcontext()) as pool, \
                open(metrics_path, "w", encoding="utf-8") as metrics:
            metrics.write("step\tlr\ttrain_loss\tdev_loss\n")
            while state.step_num < cfg.max_steps:
                for batch in make_batches(train_examples, cfg.token_budget, order_rng):
                    loss = batch_gradients(model, batch, drop_seed, state.step_num + 1, pool)
                    if not math.isfinite(loss):
                        # keep the last periodic checkpoint untouched
                        kept = last_path if os.path.exists(last_path) else "none written yet"
                        raise NonFiniteError(
                            f"loss became non-finite at step {state.step_num + 1}; "
                            f"last good checkpoint: {kept}")
                    clip_global_norm(model.store.tensors(), cfg.grad_clip)
                    lr = noam_lr(state.step_num + 1, cfg.d_model, cfg.warmup_steps)
                    adam_step(model, state, lr, cfg)
                    train_loss = loss

                    dev_loss = ""
                    if (state.step_num % cfg.checkpoint_every == 0
                            or state.step_num == cfg.max_steps):
                        save_checkpoint(model, last_path)
                        if dev_batches:
                            dev = evaluate_loss(model, dev_batches)
                            dev_loss = f"{dev:.6f}"
                            if dev < state.best_dev_loss:
                                state.best_dev_loss = dev
                                save_checkpoint(model, best_path)
                                wrote_best = True
                        if not quiet:
                            print(f"step {state.step_num}  lr {lr:.3e}  "
                                  f"loss {train_loss:.4f}  dev {dev_loss or '-'}")
                    metrics.write(f"{state.step_num}\t{lr:.8e}\t{train_loss:.6f}\t{dev_loss}\n")
                    if state.step_num >= cfg.max_steps:
                        break
    finally:  # after the pool's `with` has joined its thread
        if started.is_set():
            _release_freed_memory()

    return TrainResult(
        steps=state.step_num,
        final_train_loss=train_loss,
        best_dev_loss=state.best_dev_loss,
        last_checkpoint=last_path,
        best_checkpoint=best_path if wrote_best else None,
        metrics_path=metrics_path,
    )
