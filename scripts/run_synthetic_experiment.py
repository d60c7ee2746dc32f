#!/usr/bin/env python3
"""End-to-end anaphora experiment on the synthetic dataset.

Generates the corpus, trains one model per context mode, scores them, and
reports the context ablation plus the attention-vs-heuristics agreement
table. It runs `ctxnmt.experiment.synthetic`, as the acceptance gate does,
so each stage leaves a replayable manifest in the output directory.

    python3 scripts/run_synthetic_experiment.py --out-dir runs/synthetic

The defaults are sized for a laptop CPU: 20k train / 2k test examples, 40
nouns, distractor probability 0.5, and 2-layer models with d_model 64.
Regularization defaults to off; the closed synthetic language cannot
overfit, and dropout noise disperses the context attention this experiment
measures. Use --quick for a fast shakedown run: a smoke test that the
pipeline runs, too small to show the gated model's gain.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from ctxnmt import evaluation, experiment


def main() -> int:
    fields = dataclasses.fields(experiment.SyntheticConfig)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="runs/synthetic")
    for field in fields:
        ap.add_argument("--" + field.name.replace("_", "-"),
                        type=type(field.default), default=field.default)
    ap.add_argument("--quick", action="store_true",
                    help="tiny sizes and step counts for a shakedown run; a smoke "
                         "test that does not show the gated model's gain")
    args = ap.parse_args()
    if args.quick:
        args.train_size, args.test_size, args.steps, args.warmup = 600, 100, 150, 40
    cfg = experiment.SyntheticConfig(**{f.name: getattr(args, f.name) for f in fields})

    try:
        summary = experiment.synthetic(args.out_dir, cfg)
    except experiment.ExperimentError as exc:
        raise SystemExit(str(exc)) from None

    rows = [[name, f"{s['bleu']:.2f}", f"{s['pronoun_accuracy']:.3f}"]
            for name, s in summary["systems"].items()]
    print()
    print(evaluation.render_table(["context mode", "BLEU", "pronoun accuracy"], rows))
    print(f"\ngated > context-agnostic: p = {summary['p_gated_over_none']:.4f}")
    print(f"real > shuffled contexts: p = {summary['p_real_over_shuffled']:.4f}  "
          f"(1000 bootstrap samples)")
    print(f"\nsummary written to {os.path.join(args.out_dir, 'summary.json')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
