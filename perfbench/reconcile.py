#!/usr/bin/env python3
"""Re-measure the ROADMAP baselines on the machine it runs on, for the README.

    python3 perfbench/reconcile.py

Prints the median of five timings each of: one gated-context training step
at the acceptance config (d_model 64, token budget 1600) on the synthetic
language; decode_step for a batch of 32 at prefix length 1 and 63
(max_len 64); and a greedy decode of 32 sentences to 63 tokens. The decode
timings use an untrained model with a 400-word target vocabulary, whose
greedy outputs seldom stop before max_out.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import numpy as np  # noqa: E402

from ctxnmt import autodiff, data, synthetic, trainer  # noqa: E402
from ctxnmt import model as M  # noqa: E402
from ctxnmt.vocab import TBOS, Vocab  # noqa: E402


def median_ms(fn, reps: int = 5) -> float:
    fn()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(1000.0 * (time.perf_counter() - t0))
    return statistics.median(times)


def main() -> None:
    spec = synthetic.SyntheticSpec(40, 0.5, 2000, 1)
    triples, _ = synthetic.generate(spec)
    src_words, tgt_words = synthetic.vocabulary_words(spec)
    sv, tv = Vocab.from_symbols(src_words), Vocab.from_symbols(tgt_words)
    examples, _ = data.encode_examples(triples, sv, tv, 24)
    batch = trainer.make_batches(examples, 1600)[0]
    config = M.ModelConfig(2, 4, 64, 128, len(sv), len(tv), dropout=0.0, label_smoothing=0.0,
                           max_len=24, context_mode="gated-context")
    model = M.Transformer(config, np.random.default_rng(5))
    opt = trainer.OptimizerConfig(d_model=64, warmup_steps=200)
    state = trainer.TrainState()

    def step():
        with autodiff.Tape() as tape:
            loss = model.loss(batch.src, batch.tgt, ctx_ids=batch.ctx, train=True,
                              rng=np.random.default_rng(0))
        tape.backward(loss)
        trainer.clip_global_norm(model.store.tensors(), opt.grad_clip)
        trainer.adam_step(model, state, 1e-4, opt)

    print(f"gated train step, d64, budget 1600 ({batch.src.shape[0]} sentences): "
          f"{median_ms(step):.1f} ms")

    rng = np.random.default_rng(7)
    config = M.ModelConfig(2, 4, 64, 128, 400, 400, max_len=64, context_mode="gated-context")
    model = M.Transformer(config, np.random.default_rng(5))
    src = rng.integers(6, 400, size=(32, 20))
    ctx = rng.integers(6, 400, size=(32, 20))
    enc = model.encode(src, ctx)
    for length in (1, 63):
        prefix = np.concatenate([np.full((32, 1), TBOS), rng.integers(6, 400, (32, length - 1))],
                                axis=1)
        print(f"decode_step, batch 32, prefix {length}: "
              f"{median_ms(lambda: model.decode_step(prefix, enc)):.1f} ms")
    results = model.translate(src, ctx, max_out=63)
    lengths = [len(r.ids) for r in results]
    print(f"greedy decode of 32 sentences to max_out 63 ({min(lengths)}..{max(lengths)} ids): "
          f"{median_ms(lambda: model.translate(src, ctx, max_out=63), reps=3) / 1000:.2f} s")


if __name__ == "__main__":
    main()
