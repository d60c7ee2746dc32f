"""The synthetic anaphora experiment, end to end: the one code path behind
`scripts/run_synthetic_experiment.py` and the acceptance gate, which differ
only in the systems they ask for. Every stage runs through the ctxnmt command
line, so each leaves a replayable manifest in the output directory.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time

from . import analysis, evaluation
from .cli import _read_token_lines
from .cli import main as ctxnmt


class ExperimentError(RuntimeError):
    pass


@dataclasses.dataclass(frozen=True)
class SyntheticConfig:
    """Corpus and training settings; the defaults are the README's run."""

    train_size: int = 20000
    test_size: int = 2000
    noun_inventory: int = 40
    distractor_prob: float = 0.5
    steps: int = 800
    warmup: int = 200
    token_budget: int = 1600
    dropout: float = 0.0
    label_smoothing: float = 0.0
    seed: int = 13


def _run(*argv) -> None:
    code = ctxnmt([str(a) for a in argv])
    if code != 0:
        raise ExperimentError(f"ctxnmt {argv[0]} failed with exit code {code}")


def synthetic(out_dir: str, cfg: SyntheticConfig,
              systems: tuple[str, ...] = ("none", "prev", "shuffled", "concat")) -> dict:
    """Run the experiment into `out_dir` and return the summary it writes to
    `out_dir/summary.json`.

    `systems` are the `train --context-mode` values to train; they must hold
    "none" and "prev", which the ablation compares. Models decode their last
    checkpoint, as no dev set is used. The summary holds each system's BLEU
    and pronoun accuracy, each training's wall seconds, both p-values, the
    antecedent agreement and the attention records' path within `out_dir`.
    """
    data = os.path.join(out_dir, "data")
    test, ref = os.path.join(data, "test.tsv"), os.path.join(out_dir, "ref.txt")
    vocabs = ("--src-vocab", os.path.join(data, "src.vocab"),
              "--tgt-vocab", os.path.join(data, "tgt.vocab"))
    _run("gen-synthetic", "--out-dir", data,
         "--train-size", cfg.train_size, "--test-size", cfg.test_size,
         "--noun-inventory", cfg.noun_inventory,
         "--distractor-prob", cfg.distractor_prob, "--seed", cfg.seed)

    train_seconds, checkpoints = {}, {}
    for mode in systems:
        run_dir = os.path.join(out_dir, f"model_{mode}")
        t0 = time.perf_counter()
        _run("train", "--data", os.path.join(data, "train.tsv"), "--out-dir", run_dir,
             *vocabs, "--context-mode", mode,
             "--n-layers", 2, "--n-heads", 4, "--d-model", 64, "--d-ff", 128,
             "--dropout", cfg.dropout, "--label-smoothing", cfg.label_smoothing,
             "--max-len", 24, "--warmup", cfg.warmup,
             "--token-budget", cfg.token_budget, "--max-steps", cfg.steps,
             "--checkpoint-every", max(cfg.steps // 4, 1),
             "--quiet", "--seed", cfg.seed)
        train_seconds[mode] = time.perf_counter() - t0
        checkpoints[mode] = os.path.join(run_dir, "last.ckpt")

    def translate(ckpt: str, tag: str, override: str = "as-is") -> list[list[str]]:
        hyp = os.path.join(out_dir, f"hyp_{tag}.txt")
        _run("translate", "--model", ckpt, "--data", test, *vocabs,
             "--output", hyp, "--refs-out", ref,
             "--context-override", override, "--seed", cfg.seed)
        return _read_token_lines(hyp)

    hyps = {mode: translate(checkpoints[mode], mode) for mode in systems}
    hyps["prev, shuffled contexts"] = translate(checkpoints["prev"], "prev_shuffled",
                                                "shuffled")
    refs = _read_token_lines(ref)

    records = os.path.join(out_dir, "attention.jsonl")
    annotations = os.path.join(data, "test.annotations")
    _run("dump-attention", "--model", checkpoints["prev"], "--data", test, *vocabs,
         "--output", records, "--seed", cfg.seed)
    print("\nantecedent agreement on multi-noun contexts:")
    _run("analyze", "agreement", "--records", records, "--annotations", annotations,
         "--min-nouns", 2, "--seed", cfg.seed)
    _run("analyze", "confusion", "--records", records, "--annotations", annotations,
         "--heuristic", "last", "--min-nouns", 2, "--seed", cfg.seed)
    agreement = analysis.agreement_report(
        analysis.read_records(records), evaluation.read_annotations(annotations),
        min_nouns=2, seed=cfg.seed)

    def p_value(baseline: str, candidate: str) -> float:
        return evaluation.bootstrap_significance(hyps[baseline], hyps[candidate], refs,
                                                 samples=1000, seed=cfg.seed)

    summary = {
        "systems": {name: {"bleu": evaluation.corpus_bleu(hyp, refs).bleu,
                           "pronoun_accuracy": evaluation.pronoun_form_accuracy(hyp, refs)}
                    for name, hyp in hyps.items()},
        "train_seconds": train_seconds,
        "p_gated_over_none": p_value("none", "prev"),
        "p_real_over_shuffled": p_value("prev, shuffled contexts", "prev"),
        "agreement": {"n": agreement.n_examples, "percent": agreement.agreement},
        "attention_records": os.path.basename(records),
        "config": dataclasses.asdict(cfg),
    }
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary
