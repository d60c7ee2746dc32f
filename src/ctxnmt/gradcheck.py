"""Finite-difference verification of every differentiable building block.

Each named check builds a small 64-bit instance of one component, backprops a
scalar functional through it, and compares tape gradients against central
differences. The full-model check drives a complete gated-context translation
model through its training loss. Layer outputs that end in a layer norm are
probed with a fixed random linear functional: the row mean and variance there
are pinned, so a plain sum of squares would be constant and its true gradient
zero, telling us nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import layers as ly
from .model import ModelConfig, Transformer
from .vocab import BOS, EOS, TBOS, TEOS

DEFAULT_THRESHOLD = 1e-4
DEFAULT_SEEDS = 20


class GradCheckError(ValueError):
    pass


def check_attention(seed: int) -> float:
    rng = np.random.default_rng(seed)
    store = ly.ParamStore(rng, np.float64)
    mha = ly.MultiHeadAttention(store, "attn", d_model=6, n_heads=2)
    x = rng.normal(size=(2, 3, 6))
    probe = rng.normal(size=(2, 3, 6))

    def f(params):
        out, _ = mha(x, x)
        return ad.reduce_sum(ad.mul(out, probe))

    return ad.finite_difference_check(f, store.tensors(), step=1e-5, seed=seed)


def check_feed_forward(seed: int) -> float:
    rng = np.random.default_rng(seed)
    store = ly.ParamStore(rng, np.float64)
    ffn = ly.FeedForward(store, "ffn", d_model=5, d_ff=11)
    x = rng.normal(size=(2, 3, 5))
    probe = rng.normal(size=(2, 3, 5))

    def f(params):
        return ad.reduce_sum(ad.mul(ffn(x), probe))

    return ad.finite_difference_check(f, store.tensors(), step=1e-5, seed=seed)


def check_layer_norm(seed: int) -> float:
    rng = np.random.default_rng(seed)
    store = ly.ParamStore(rng, np.float64)
    norm = ly.LayerNorm(store, "ln", 7)
    # non-trivial gain/bias so the functional sees both parameters
    norm.gain.data += rng.normal(scale=0.3, size=7)
    norm.bias.data += rng.normal(scale=0.3, size=7)
    x = ad.Tensor(rng.normal(size=(2, 4, 7)), requires_grad=True)
    probe = rng.normal(size=(2, 4, 7))

    def f(params):
        return ad.reduce_sum(ad.mul(norm(x), probe))

    return ad.finite_difference_check(f, store.tensors() + [x], step=1e-5, seed=seed)


def check_gated_fusion(seed: int) -> float:
    rng = np.random.default_rng(seed)
    store = ly.ParamStore(rng, np.float64)
    fusion = ly.GatedFusion(store, "gate", d_model=5)
    a = ad.Tensor(rng.normal(size=(1, 3, 5)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=(1, 3, 5)), requires_grad=True)
    probe = rng.normal(size=(1, 3, 5))

    def f(params):
        fused, _ = fusion(a, b)
        return ad.reduce_sum(ad.mul(fused, probe))

    return ad.finite_difference_check(f, store.tensors() + [a, b], step=1e-5, seed=seed)


def check_full_model(seed: int, max_coords_per_tensor: int = 12) -> float:
    config = ModelConfig(n_layers=2, n_heads=2, d_model=8, d_ff=16,
                         src_vocab=12, tgt_vocab=12, dropout=0.0,
                         label_smoothing=0.1, max_len=16,
                         context_mode="gated-context")
    rng = np.random.default_rng(seed)
    model = Transformer(config, rng, dtype=np.float64)
    ctx = np.array([[BOS, 6, 7, EOS], [BOS, 8, EOS, 0]])
    src = np.array([[6, 9, EOS], [7, EOS, 0]])
    tgt = np.array([[TBOS, 10, 11, TEOS], [TBOS, 9, TEOS, 0]])

    def f(params):
        return model.loss(src, tgt, ctx_ids=ctx, train=False)

    return ad.finite_difference_check(f, model.store.tensors(), step=1e-5,
                                      max_coords_per_tensor=max_coords_per_tensor,
                                      seed=seed)


CHECKS = {
    "attention": check_attention,
    "feed_forward": check_feed_forward,
    "layer_norm": check_layer_norm,
    "gated_fusion": check_gated_fusion,
    "full_model": check_full_model,
}


@dataclass
class CheckReport:
    name: str
    seeds: int
    max_rel_err: float
    passed: bool


def run_checks(names=None, n_seeds: int = DEFAULT_SEEDS,
               threshold: float = DEFAULT_THRESHOLD) -> list[CheckReport]:
    """Every named check over seeds 0..n_seeds-1; each report carries the
    worst relative error seen for that component."""
    names = list(CHECKS) if names is None else list(names)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise GradCheckError(f"unknown gradient checks: {unknown}; expected {list(CHECKS)}")
    if n_seeds < 1:
        raise GradCheckError(f"need at least 1 seed, got {n_seeds}")
    if not 0.0 < threshold < np.inf:
        raise GradCheckError(f"threshold must be finite and positive, got {threshold}")
    reports = []
    for name in names:
        worst = max(CHECKS[name](seed) for seed in range(n_seeds))
        reports.append(CheckReport(name, n_seeds, worst, worst < threshold))
    return reports
