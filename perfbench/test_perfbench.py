"""Quick test of the benchmark at warm-up sizes.

    python3 -m pytest perfbench -q

Runs every workload traced and untraced with --tiny and checks that each
metric BENCHMARK.json names is printed with its unit; checks that a corrupted
hypothesis fails the BLEU check, that a wrong beam score fails the beam
check, and that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))


def test_corrupted_hypothesis_fails_the_bleu_check(tmp_path):
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    import checks
    from ctxnmt import evaluation

    refs = [["on", "upal", "."], ["ona", "upala", "."], ["oni", "upali", "."]]
    hyps = [["on", "upal", "."], ["ono", "upala", "."], ["oni", "upali", "."]]
    reported = evaluation.corpus_bleu(hyps, refs).bleu
    path = tmp_path / "gated.hyp"
    path.write_text("".join(" ".join(h) + "\n" for h in hyps), encoding="utf-8")
    checks.check_bleu(reported, str(path), refs)

    path.write_text("on upal .\nona upala .\noni upali .\n", encoding="utf-8")
    with pytest.raises(checks.CheckError, match="BLEU check"):
        checks.check_bleu(reported, str(path), refs)


def test_a_wrong_beam_score_fails_the_beam_check():
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    import dataclasses

    import checks
    import numpy as np
    from ctxnmt import model as M

    config = M.ModelConfig(n_layers=1, n_heads=2, d_model=16, d_ff=32, src_vocab=20,
                           tgt_vocab=20, dropout=0.0, max_len=8, context_mode="gated-context")
    model = M.Transformer(config, np.random.default_rng(0))
    src = np.array([[7, 8, 9], [10, 11, 0]])
    ctx = np.array([[12, 13], [14, 0]])
    greedy = model.translate(src, ctx, mode="greedy", max_out=5)
    beam = model.translate(src, ctx, mode="beam", width=3, max_out=5)
    checks.check_beam(model, src, ctx, beam, greedy, 5)

    wrong = [dataclasses.replace(beam[0], score=beam[0].score + 0.01), beam[1]]
    with pytest.raises(checks.CheckError, match="re-fed"):
        checks.check_beam(model, src, ctx, wrong, greedy, 5)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(str(tmp_path), "--workload", "anaphora", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
