#!/usr/bin/env python3
"""Benchmark of ctxnmt, one workload per process.

    python3 perfbench/run.py --workload anaphora --seed 1 --seconds 30 --trace 0

Builds nothing: it imports ctxnmt from the `src` directory beside this one,
generates the workload's inputs from --seed, and times one round of the
workload's phases (prepare, train, then cycles of greedy, beam, score and
attention), after one untimed warm-up round at reduced sizes. The workload's
sizes fix the round, so that every run attempts the same operations; they
give runs of 26-55 s on a shared 2-core machine, and --seconds is only
reported. Every output is checked; a failed check fails the run. The last
line of standard output is a JSON object {"correct", "attempted", "failed", "metrics"}:
end-to-end metrics with --trace 0, per-layer metrics of a traced run with
--trace 1. See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread per process, set before numpy loads: with the default pool
# the same decode spreads several times wider on a 2-core machine.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("anaphora", "subtitles", "ablation")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="run at warm-up sizes (for the benchmark's own quick test)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ctxnmt", "__init__.py")):
        print(f"perfbench: no ctxnmt sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import ctxnmt
    if os.path.dirname(os.path.abspath(ctxnmt.__file__)) != os.path.join(SRC, "ctxnmt"):
        print(f"perfbench: imported ctxnmt from {ctxnmt.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads  # imports numpy and every ctxnmt module

    workloads.print_environment(THREAD_VARS)
    out_dir = os.path.join(ROOT, "runs", "perfbench",
                           f"{args.workload}{'-trace' if args.trace else ''}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    bench = workloads.Bench(args.workload, args.seed, bool(args.trace), args.tiny, out_dir,
                            declared)
    try:
        result = bench.run(args.seconds)
    except workloads.CheckError as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(bench.attempted, 1),
                          "failed": bench.failed, "metrics": {}}))
        return 1
    finally:
        bench.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
