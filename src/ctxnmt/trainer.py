"""Training loop: Adam with the inverse-square-root warmup schedule,
token-budget batching, periodic dev evaluation and checkpointing.

Runs are deterministic for a fixed seed: batch order, dropout, and parameter
trajectories reproduce bit-identically.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .data import Example
from .model import Transformer, save_checkpoint
from .vocab import PAD


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

    seeds = np.random.SeedSequence(cfg.seed).spawn(2)
    order_rng = np.random.default_rng(seeds[0])
    drop_rng = np.random.default_rng(seeds[1])

    dev_batches = make_batches(dev_examples, cfg.token_budget) if dev_examples else None
    state = TrainState()
    train_loss = math.nan
    wrote_best = False

    with open(metrics_path, "w", encoding="utf-8") as metrics:
        metrics.write("step\tlr\ttrain_loss\tdev_loss\n")
        while state.step_num < cfg.max_steps:
            for batch in make_batches(train_examples, cfg.token_budget, order_rng):
                with ad.Tape() as tape:
                    loss = model.loss(batch.src, batch.tgt, ctx_ids=batch.ctx,
                                      train=True, rng=drop_rng)
                if not np.isfinite(loss.data):
                    # keep the last periodic checkpoint untouched
                    kept = last_path if os.path.exists(last_path) else "none written yet"
                    raise NonFiniteError(
                        f"loss became non-finite at step {state.step_num + 1}; "
                        f"last good checkpoint: {kept}")
                tape.backward(loss)
                clip_global_norm(model.store.tensors(), cfg.grad_clip)
                lr = noam_lr(state.step_num + 1, cfg.d_model, cfg.warmup_steps)
                adam_step(model, state, lr, cfg)
                train_loss = float(loss.data)

                dev_loss = ""
                if state.step_num % cfg.checkpoint_every == 0 or state.step_num == cfg.max_steps:
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

    return TrainResult(
        steps=state.step_num,
        final_train_loss=train_loss,
        best_dev_loss=state.best_dev_loss,
        last_checkpoint=last_path,
        best_checkpoint=best_path if wrote_best else None,
        metrics_path=metrics_path,
    )
