"""Command-line front end wiring the pipeline into reproducible runs.

Every artifact-producing command writes a JSON manifest beside its outputs
recording the command, the fully resolved configuration, the seed, and the
input/output paths, so a run can be replayed exactly. Exit codes: 0 on
success, 2 on a validation error, 3 on a numeric failure (a failed gradient
check or a non-finite loss). The compare command additionally exits 1 when
the candidate's improvement is not significant, so scripts can branch on it.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import os
import sys
import time

import numpy as np

from . import __version__, analysis, bpe, data, evaluation, gradcheck, synthetic, trainer
from .autodiff import AutodiffError
from .model import CheckpointError, ModelConfig, ModelError, Transformer, load_checkpoint
from .vocab import Vocab, VocabError, numbered_lines

EXIT_OK = 0
EXIT_NOT_SIGNIFICANT = 1  # compare mode only: ran fine, improvement not significant
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

MANIFEST_NAME = "manifest.json"


class CliError(ValueError):
    pass


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------


class _Laps(dict):
    """Wall seconds of each phase: calling it with a name stores the time
    since the previous call (or since creation) under that name."""

    def __init__(self):
        super().__init__()
        self._last = time.perf_counter()

    def __call__(self, name: str) -> None:
        now = time.perf_counter()
        self[name], self._last = now - self._last, now


def write_manifest(path: str, args: argparse.Namespace,
                   inputs: list[str], outputs: list[str], timings: dict | None = None) -> None:
    command = args.command + (f" {args.what}" if getattr(args, "what", None) else "")
    config = {k: v for k, v in sorted(vars(args).items())
              if k not in ("func", "command", "what")}
    manifest = {
        "command": command,
        "config": config,
        "seed": getattr(args, "seed", None),
        "inputs": [os.path.abspath(p) for p in inputs],
        "outputs": [os.path.abspath(p) for p in outputs],
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    if timings is not None:
        manifest["timings"] = timings
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _manifest_beside(output_path: str) -> str:
    return output_path + ".manifest.json"


def _check_no_overwrite(inputs: list[str], outputs: list[str]) -> None:
    taken = {os.path.abspath(p) for p in inputs if p}
    for out in outputs:
        if os.path.abspath(out) in taken:
            raise CliError(f"output {out} would overwrite an input file")


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


def read_config_entries(path: str) -> list[tuple[str, str]]:
    entries = []
    for lineno, line in numbered_lines(path, CliError):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
        entries.append((key.strip(), value.strip()))
    return entries


def config_flags(parser: argparse.ArgumentParser, path: str) -> list[str]:
    """The key=value entries of `path` as flags of `parser`'s command: each
    becomes --key=value, a true boolean a bare flag (a false one nothing) and a
    list flag its whitespace-separated values, for argparse to check."""
    actions = {opt: action for action in parser._actions
               for opt in action.option_strings if opt.startswith("--")}
    flags = []
    for key, value in read_config_entries(path):
        flag = "--" + key.replace("_", "-")
        action = actions.get(flag)
        if action is None or flag in ("--config", "--help"):
            raise CliError(f"config key {key!r} does not match any flag of "
                           f"this command")
        if action.nargs == 0:  # store_true style flags
            lowered = value.lower()
            if lowered in ("1", "true", "yes", "on"):
                flags.append(flag)
            elif lowered not in ("0", "false", "no", "off"):
                raise CliError(f"config key {key!r}: expected a boolean, got {value!r}")
        elif action.nargs == "+":
            flags += [flag, *value.split()]
        else:
            flags.append(f"{flag}={value}")
    return flags


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _read_token_lines(path: str) -> list[list[str]]:
    return [line.split() for _, line in numbered_lines(path, CliError)]


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def _child_seed(seq: np.random.SeedSequence) -> int:
    return int(seq.generate_state(1)[0])


def _load_vocabs(args) -> tuple[Vocab, Vocab]:
    return Vocab.load(args.src_vocab), Vocab.load(args.tgt_vocab)


def _override_contexts(triples: list[tuple[str, str, str]], override: str,
                       seed: int) -> list[tuple[str, str, str]]:
    if override == "shuffled":
        return data.shuffle_contexts(triples, seed)
    if override == "none":
        return [("", src, tgt) for _, src, tgt in triples]
    return triples


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_prepare(args) -> int:
    lap = _Laps()
    direction = "previous" if args.direction == "prev" else args.direction
    pairs, skipped = data.ingest_file(args.input, args.max_malformed_fraction)
    kept = data.filter_pairs(pairs, args.min_overlap)
    ctxed = data.attach_context(kept, direction, args.max_gap,
                                seed=args.seed if direction == "shuffled" else None)
    lap("ingest")

    src_model = bpe.learn_bpe((cp.pair.source_text for cp in ctxed), args.bpe_merges)
    tgt_model = bpe.learn_bpe((cp.pair.target_text for cp in ctxed), args.bpe_merges)
    lap("learn_bpe")

    def seg(model: bpe.BpeModel, text: str) -> str:
        return " ".join(bpe.apply_bpe(model, text.split())) if text else ""

    triples = [(seg(src_model, cp.context_text),
                seg(src_model, cp.pair.source_text),
                seg(tgt_model, cp.pair.target_text)) for cp in ctxed]
    lap("apply_bpe")
    src_vocab = Vocab.from_symbols(
        bpe.vocab_symbols([t[0] for t in triples] + [t[1] for t in triples]))
    tgt_vocab = Vocab.from_symbols(bpe.vocab_symbols([t[2] for t in triples]))
    lap("vocabularies")

    os.makedirs(args.out_dir, exist_ok=True)
    paths = {name: os.path.join(args.out_dir, name)
             for name in ("prepared.tsv", "src.bpe", "tgt.bpe", "src.vocab", "tgt.vocab")}
    _check_no_overwrite([args.input], list(paths.values()))
    data.write_prepared(paths["prepared.tsv"], triples)
    src_model.save(paths["src.bpe"])
    tgt_model.save(paths["tgt.bpe"])
    src_vocab.save(paths["src.vocab"])
    tgt_vocab.save(paths["tgt.vocab"])
    lap("write")
    write_manifest(os.path.join(args.out_dir, MANIFEST_NAME), args,
                   [args.input], list(paths.values()), timings=lap)

    n_ctx = sum(1 for cp in ctxed if cp.has_real_context)
    print(f"read {len(pairs)} pairs ({skipped} malformed lines skipped)")
    print(f"kept {len(kept)} after the overlap filter (min {args.min_overlap:.2f})")
    print(f"attached {n_ctx} contexts (direction {direction}, max gap {args.max_gap:.1f}s)")
    print(f"vocabulary {len(src_vocab)} source / {len(tgt_vocab)} target symbols "
          f"after {args.bpe_merges} merges")
    print(f"wrote {paths['prepared.tsv']}")
    return EXIT_OK


def cmd_gen_synthetic(args) -> int:
    train_ss, test_ss = np.random.SeedSequence(args.seed).spawn(2)
    train_spec = synthetic.SyntheticSpec(args.noun_inventory, args.distractor_prob,
                                         args.train_size, _child_seed(train_ss))
    test_spec = synthetic.SyntheticSpec(args.noun_inventory, args.distractor_prob,
                                        args.test_size, _child_seed(test_ss))
    train_triples, train_ann = synthetic.generate(train_spec)
    test_triples, test_ann = synthetic.generate(test_spec)
    src_words, tgt_words = synthetic.vocabulary_words(train_spec)

    os.makedirs(args.out_dir, exist_ok=True)
    paths = {name: os.path.join(args.out_dir, name)
             for name in ("train.tsv", "test.tsv", "train.annotations",
                          "test.annotations", "src.vocab", "tgt.vocab")}
    data.write_prepared(paths["train.tsv"], train_triples)
    data.write_prepared(paths["test.tsv"], test_triples)
    evaluation.write_annotations(paths["train.annotations"], train_ann)
    evaluation.write_annotations(paths["test.annotations"], test_ann)
    Vocab.from_symbols(src_words).save(paths["src.vocab"])
    Vocab.from_symbols(tgt_words).save(paths["tgt.vocab"])
    write_manifest(os.path.join(args.out_dir, MANIFEST_NAME), args, [],
                   list(paths.values()))

    n_multi = sum(1 for a in test_ann if a.context_noun_count >= 2)
    print(f"generated {len(train_triples)} train / {len(test_triples)} test examples "
          f"({args.noun_inventory} nouns, distractor probability {args.distractor_prob})")
    print(f"test multi-noun examples: {n_multi}")
    print(f"wrote {args.out_dir}")
    return EXIT_OK


MODEL_MODE_BY_CONTEXT_MODE = {
    "none": "none",
    "prev": "gated-context",
    "next": "gated-context",
    "shuffled": "gated-context",
    "concat": "concat",
}


def cmd_train(args) -> int:
    init_ss, train_shuffle_ss, dev_shuffle_ss = np.random.SeedSequence(args.seed).spawn(3)
    model_mode = MODEL_MODE_BY_CONTEXT_MODE[args.context_mode]

    triples = data.read_prepared(args.data)
    if args.context_mode == "shuffled":
        triples = data.shuffle_contexts(triples, _child_seed(train_shuffle_ss))
    if model_mode != "none" and not any(ctx for ctx, _, _ in triples):
        raise CliError(
            f"--context-mode {args.context_mode} needs attached contexts, but every "
            f"context field in {args.data} is empty; re-run prepare with "
            f"--direction prev or next")

    src_vocab, tgt_vocab = _load_vocabs(args)
    examples, stats = data.encode_examples(triples, src_vocab, tgt_vocab, args.max_len)
    dev_examples = None
    if args.dev:
        dev_triples = data.read_prepared(args.dev)
        if args.context_mode == "shuffled":
            dev_triples = data.shuffle_contexts(dev_triples, _child_seed(dev_shuffle_ss))
        dev_examples, _ = data.encode_examples(dev_triples, src_vocab, tgt_vocab,
                                               args.max_len)

    config = ModelConfig(
        n_layers=args.n_layers, n_heads=args.n_heads, d_model=args.d_model,
        d_ff=args.d_ff, src_vocab=len(src_vocab), tgt_vocab=len(tgt_vocab),
        dropout=args.dropout, label_smoothing=args.label_smoothing,
        max_len=args.max_len, context_mode=model_mode).validate()
    model = Transformer(config, np.random.default_rng(init_ss))
    opt = trainer.OptimizerConfig(
        d_model=args.d_model, warmup_steps=args.warmup, grad_clip=args.grad_clip,
        token_budget=args.token_budget, max_steps=args.max_steps,
        checkpoint_every=args.checkpoint_every, seed=args.seed)

    if (stats.unk_count or stats.truncated_contexts or stats.truncated_sources
            or stats.truncated_targets):
        print(f"encoding: {stats.unk_count} unknown tokens, "
              f"{stats.truncated_contexts + stats.truncated_sources + stats.truncated_targets} "
              f"truncated sequences")
    result = trainer.train(model, examples, dev_examples, opt, args.out_dir,
                           quiet=args.quiet)

    inputs = [args.data, args.src_vocab, args.tgt_vocab] + ([args.dev] if args.dev else [])
    outputs = [p for p in (result.last_checkpoint, result.best_checkpoint,
                           result.metrics_path) if p]
    write_manifest(os.path.join(args.out_dir, MANIFEST_NAME), args, inputs, outputs)

    best = "n/a" if result.best_checkpoint is None else f"{result.best_dev_loss:.4f}"
    print(f"trained {result.steps} steps; final train loss {result.final_train_loss:.4f}; "
          f"best dev loss {best}")
    print(f"checkpoints: {result.last_checkpoint}"
          + (f" (best: {result.best_checkpoint})" if result.best_checkpoint else ""))
    return EXIT_OK


def _load_model_and_data(args) -> tuple:
    model = load_checkpoint(args.model)
    src_vocab, tgt_vocab = _load_vocabs(args)
    if len(src_vocab) != model.config.src_vocab or len(tgt_vocab) != model.config.tgt_vocab:
        raise CliError(
            f"vocabulary sizes {len(src_vocab)}/{len(tgt_vocab)} do not match the "
            f"checkpoint ({model.config.src_vocab}/{model.config.tgt_vocab}); pass the "
            f"vocab files the model was trained with")
    triples = data.read_prepared(args.data)
    triples = _override_contexts(triples, args.context_override, args.seed)
    examples, _ = data.encode_examples(triples, src_vocab, tgt_vocab,
                                       model.config.max_len)
    return model, src_vocab, tgt_vocab, triples, examples


def cmd_translate(args) -> int:
    inputs = [args.model, args.data, args.src_vocab, args.tgt_vocab]
    _check_no_overwrite(inputs, [args.output])
    if args.refs_out:
        _check_no_overwrite(inputs + [args.output], [args.refs_out])
    model, _, tgt_vocab, triples, examples = _load_model_and_data(args)
    needs_ctx = model.config.context_mode != "none"

    hyps = []
    truncated = 0
    for _, src, ctx in trainer.decode_batches(examples, args.batch_size, needs_ctx):
        results = model.translate(src, ctx, mode=args.mode, width=args.width,
                                  max_out=args.max_out)
        for res in results:
            truncated += res.truncated
            pieces = tgt_vocab.decode(res.ids, strip_specials=True)
            hyps.append(" ".join(bpe.detokenize(pieces)))

    outputs = [args.output]
    _write_lines(args.output, hyps)
    if args.refs_out:
        refs = [" ".join(bpe.detokenize(tgt.split())) for _, _, tgt in triples]
        _write_lines(args.refs_out, refs)
        outputs.append(args.refs_out)
    write_manifest(_manifest_beside(args.output), args, inputs, outputs)

    note = f" ({truncated} hit the length limit)" if truncated else ""
    print(f"translated {len(hyps)} sentences{note} -> {args.output}")
    return EXIT_OK


def cmd_bleu(args) -> int:
    report = evaluation.corpus_bleu(_read_token_lines(args.hyp),
                                    _read_token_lines(args.ref))
    print(f"{report.bleu:.2f}")
    p1, p2, p3, p4 = report.precisions
    print(f"precisions {p1:.3f}/{p2:.3f}/{p3:.3f}/{p4:.3f}  "
          f"brevity penalty {report.brevity_penalty:.3f}  "
          f"lengths {report.hyp_len}/{report.ref_len}")
    return EXIT_OK


def cmd_compare(args) -> int:
    if not 0.0 < args.threshold <= 1.0:
        raise CliError(f"--threshold is a p-value and must be in (0, 1], got {args.threshold}")
    hyp_a = _read_token_lines(args.baseline)
    hyp_b = _read_token_lines(args.candidate)
    refs = _read_token_lines(args.ref)
    bleu_a = evaluation.corpus_bleu(hyp_a, refs).bleu
    bleu_b = evaluation.corpus_bleu(hyp_b, refs).bleu
    p = evaluation.bootstrap_significance(hyp_a, hyp_b, refs, samples=args.samples,
                                          seed=args.seed)
    significant = p < args.threshold
    print(f"baseline  BLEU {bleu_a:.2f}")
    print(f"candidate BLEU {bleu_b:.2f}")
    print(f"p-value {p:.4f} over {args.samples} bootstrap samples "
          f"(testing candidate > baseline)")
    print(f"improvement {'significant' if significant else 'not significant'} "
          f"at threshold {args.threshold}")
    return EXIT_OK if significant else EXIT_NOT_SIGNIFICANT


def cmd_dump_attention(args) -> int:
    inputs = [args.model, args.data, args.src_vocab, args.tgt_vocab]
    _check_no_overwrite(inputs, [args.output])
    model, src_vocab, _, _, examples = _load_model_and_data(args)
    if model.config.context_mode != "gated-context":
        raise CliError(
            f"attention dumps need a gated-context checkpoint; this model was trained "
            f"with context mode {model.config.context_mode!r}")

    records = analysis.attention_records(
        model, trainer.decode_batches(examples, args.batch_size, True), src_vocab)
    analysis.write_records(args.output, records)
    write_manifest(_manifest_beside(args.output), args, inputs, [args.output])
    print(f"wrote {len(records)} attention records -> {args.output}")
    return EXIT_OK


def cmd_build_testset(args) -> int:
    @dataclasses.dataclass
    class Row:
        example_id: str
        triple: tuple[str, str, str]

    triples = data.read_prepared(args.data)
    annotations = evaluation.read_annotations(args.annotations)
    rows = [Row(str(i), t) for i, t in enumerate(triples)]
    pronouns = set(args.pronouns.split(",")) if args.pronouns else None
    sub_rows, sub_anns, counts = evaluation.build_pronoun_testset(
        rows, annotations, pronouns=pronouns,
        require_noun_antecedent=args.require_noun_antecedent,
        min_context_nouns=args.min_nouns)
    # the subset file is a fresh dataset, so ids are renumbered to match it
    sub_anns = [dataclasses.replace(a, example_id=str(i))
                for i, a in enumerate(sub_anns)]

    os.makedirs(args.out_dir, exist_ok=True)
    subset_path = os.path.join(args.out_dir, "subset.tsv")
    ann_path = os.path.join(args.out_dir, "subset.annotations")
    data.write_prepared(subset_path, [r.triple for r in sub_rows])
    evaluation.write_annotations(ann_path, sub_anns)
    outputs = [subset_path, ann_path]
    by_gender = evaluation.split_by_gender(sub_anns)
    for gender, anns in by_gender.items():
        path = os.path.join(args.out_dir, f"subset.{gender}.annotations")
        evaluation.write_annotations(path, anns)
        outputs.append(path)
    write_manifest(os.path.join(args.out_dir, MANIFEST_NAME), args,
                   [args.data, args.annotations], outputs)

    print(f"selected {len(sub_rows)} of {len(rows)} examples "
          f"(min context nouns {args.min_nouns})")
    print("pronoun counts: " + (", ".join(f"{p} {n}" for p, n in sorted(counts.items()))
                                or "none"))
    print("gender sizes:   " + ", ".join(f"{g} {len(v)}" for g, v in by_gender.items()))
    print(f"wrote {subset_path}")
    return EXIT_OK


def cmd_grad_check(args) -> int:
    reports = gradcheck.run_checks(args.checks, n_seeds=args.seeds,
                                   threshold=args.threshold)
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(f"{rep.name:<13} max rel err {rep.max_rel_err:.3e} "
              f"over {rep.seeds} seeds  {status}")
    worst = max(rep.max_rel_err for rep in reports)
    if all(rep.passed for rep in reports):
        print(f"max rel err {worst:.3e} < {args.threshold:.0e}")
        return EXIT_OK
    print(f"max rel err {worst:.3e} >= {args.threshold:.0e}")
    return EXIT_NUMERIC


# ---------------------------------------------------------------------------
# analyze subcommands
# ---------------------------------------------------------------------------


def _read_records(path: str) -> list[analysis.AttentionRecord]:
    records = analysis.read_records(path)
    if not records:
        raise CliError(f"no attention records in {path}")
    return records


def cmd_analyze_useful_mass(args) -> int:
    records = _read_records(args.records)
    masses = np.array([analysis.useful_mass(r) for r in records])
    print(f"records {len(records)}")
    print(f"mean useful mass {masses.mean():.4f} "
          f"(min {masses.min():.4f}, max {masses.max():.4f})")
    return EXIT_OK


def cmd_analyze_top_words(args) -> int:
    records = _read_records(args.records)
    stats = analysis.top_context_words(
        records, min_count=args.min_count, k=args.k,
        position_filter="after_first" if args.after_first else "all")
    rows = [[s.word, f"{s.mean_mass:.3f}", f"{s.mean_position:.1f}", str(s.count)]
            for s in stats]
    print(evaluation.render_table(["word", "mean mass", "mean position", "count"], rows))
    return EXIT_OK


def cmd_analyze_curves(args) -> int:
    records = _read_records(args.records)
    bleu_per_sentence = None
    if args.bleu_hyp or args.bleu_ref:
        if not (args.bleu_hyp and args.bleu_ref):
            raise CliError("--bleu-hyp and --bleu-ref must be given together")
        hyp = _read_token_lines(args.bleu_hyp)
        ref = _read_token_lines(args.bleu_ref)
        if len(hyp) != len(ref):
            raise CliError(f"{args.bleu_hyp} and {args.bleu_ref} differ in length")
        bleu_per_sentence = evaluation._bleu_rows(
            evaluation._corpus_stats(hyp, ref))[0].tolist()
    series = analysis.curves(records, bleu_per_sentence, args.cohort_length)

    os.makedirs(args.out_dir, exist_ok=True)
    outputs = []
    for s in series:
        path = os.path.join(args.out_dir, s.name + ".csv")
        analysis.write_series(path, s)
        outputs.append(path)
    inputs = [args.records] + [p for p in (args.bleu_hyp, args.bleu_ref) if p]
    write_manifest(os.path.join(args.out_dir, MANIFEST_NAME), args, inputs, outputs)
    print(f"wrote {len(outputs)} series -> {args.out_dir}")
    return EXIT_OK


def cmd_analyze_agreement(args) -> int:
    records = _read_records(args.records)
    annotations = evaluation.read_annotations(args.annotations)
    report = analysis.agreement_report(records, annotations,
                                       min_nouns=args.min_nouns, seed=args.seed)
    rows = [[method,
             f"{report.agreement[method]:.1f}",
             str(report.n_examples - report.abstains[method]),
             str(report.abstains[method])]
            for method in analysis.METHODS]
    print(f"examples {report.n_examples} (min context nouns {report.min_nouns})")
    print(evaluation.render_table(["method", "agreement %", "decided", "abstained"],
                                  rows))
    return EXIT_OK


def cmd_analyze_confusion(args) -> int:
    records = _read_records(args.records)
    annotations = evaluation.read_annotations(args.annotations)
    by_id = {r.example_id: r for r in records}
    joined = [(by_id[a.example_id], a) for a in annotations if a.example_id in by_id]
    joined = [(r, a) for r, a in joined if a.context_noun_count >= args.min_nouns]
    if not joined:
        raise CliError("no annotation matches any attention record after filtering")
    rng = np.random.default_rng(args.seed)
    att_picks = [analysis.attention_pick(r, a) for r, a in joined]
    heur_picks = [analysis.heuristic_pick(a, args.heuristic, rng) for _, a in joined]
    table = analysis.confusion_table(att_picks, heur_picks,
                                     [a.antecedent_span for _, a in joined])
    rows = [["attention right", f"{table[0, 0]:.1f}", f"{table[0, 1]:.1f}"],
            ["attention wrong", f"{table[1, 0]:.1f}", f"{table[1, 1]:.1f}"]]
    print(f"examples {len(joined)} (heuristic: {args.heuristic})")
    print(evaluation.render_table(
        ["", f"{args.heuristic} right", f"{args.heuristic} wrong"], rows))
    return EXIT_OK


def cmd_analyze_heatmap(args) -> int:
    records = _read_records(args.records)
    if args.example_id is None:
        record = records[0]
    else:
        record = next((r for r in records if r.example_id == args.example_id), None)
        if record is None:
            raise CliError(f"no record with example id {args.example_id!r} "
                           f"in {args.records}")
    _check_no_overwrite([args.records], [args.output])
    analysis.heatmap_export(record, args.output)
    write_manifest(_manifest_beside(args.output), args, [args.records], [args.output])
    print(f"wrote heatmap for example {record.example_id} -> {args.output}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

PARSERS: dict[str, argparse.ArgumentParser] = {}

_OPT_DEFAULTS = trainer.OptimizerConfig(d_model=1)


def _add_config_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE",
                   help="key=value file mirroring this command's flags; "
                        "explicit flags win")
    PARSERS[p.prog.split(" ", 1)[1]] = p  # by command words: prog is "ctxnmt <words>"


def _add_seed_flag(p: argparse.ArgumentParser, default: int = 0) -> None:
    p.add_argument("--seed", type=int, default=default,
                   help="single source of all randomness in this command")


def _add_model_io_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, help="checkpoint file")
    p.add_argument("--data", required=True, help="prepared dataset (context/source/target)")
    p.add_argument("--src-vocab", required=True)
    p.add_argument("--tgt-vocab", required=True)
    p.add_argument("--context-override", choices=("as-is", "none", "shuffled"),
                   default="as-is",
                   help="replace contexts at evaluation time; shuffled permutes "
                        "them across examples with --seed")
    p.add_argument("--batch-size", type=int, default=32)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctxnmt",
        description="Context-aware translation models: data preparation, training, "
                    "evaluation, and attention analysis.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    p = sub.add_parser("prepare", help="ingest a raw corpus into a prepared dataset")
    p.add_argument("--input", required=True, help="raw tab-separated corpus file")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--direction", choices=("prev", "next", "none", "shuffled"),
                   default="prev", help="where each example's context comes from")
    p.add_argument("--min-overlap", type=float, default=0.9)
    p.add_argument("--max-gap", type=float, default=7.0,
                   help="max seconds between neighboring subtitles")
    p.add_argument("--bpe-merges", type=int, default=8000)
    p.add_argument("--max-malformed-fraction", type=float, default=0.10)
    _add_seed_flag(p)
    _add_config_flag(p)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("gen-synthetic",
                       help="generate the synthetic anaphora dataset")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--train-size", type=int, default=20000)
    p.add_argument("--test-size", type=int, default=2000)
    p.add_argument("--noun-inventory", type=int, default=40)
    p.add_argument("--distractor-prob", type=float, default=0.5)
    _add_seed_flag(p, default=13)
    _add_config_flag(p)
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("train", help="train a model on a prepared dataset")
    p.add_argument("--data", required=True, help="prepared training set")
    p.add_argument("--dev", help="prepared dev set for best-checkpoint selection")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--src-vocab", required=True)
    p.add_argument("--tgt-vocab", required=True)
    p.add_argument("--context-mode", required=True,
                   choices=tuple(MODEL_MODE_BY_CONTEXT_MODE),
                   help="none: ignore contexts; prev/next: gated context encoder; "
                        "shuffled: gated encoder on permuted contexts; "
                        "concat: contexts joined onto the source")
    p.add_argument("--n-layers", type=int, default=2)
    p.add_argument("--n-heads", type=int, default=4)
    p.add_argument("--d-model", type=int, default=64)
    p.add_argument("--d-ff", type=int, default=128)
    p.add_argument("--dropout", type=float, default=0.1)
    p.add_argument("--label-smoothing", type=float, default=0.1)
    p.add_argument("--max-len", type=int, default=64)
    p.add_argument("--warmup", type=int, default=_OPT_DEFAULTS.warmup_steps)
    p.add_argument("--token-budget", type=int, default=_OPT_DEFAULTS.token_budget)
    p.add_argument("--max-steps", type=int, default=_OPT_DEFAULTS.max_steps)
    p.add_argument("--checkpoint-every", type=int, default=_OPT_DEFAULTS.checkpoint_every)
    p.add_argument("--grad-clip", type=float, default=_OPT_DEFAULTS.grad_clip)
    p.add_argument("--quiet", action="store_true", help="suppress progress lines")
    _add_seed_flag(p)
    _add_config_flag(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("translate", help="decode a prepared dataset with a checkpoint")
    _add_model_io_flags(p)
    p.add_argument("--output", required=True, help="hypothesis file, one line per example")
    p.add_argument("--refs-out",
                   help="also write the dataset's references, detokenized, for scoring")
    p.add_argument("--mode", choices=("greedy", "beam"), default="greedy")
    p.add_argument("--width", type=int, default=None, help="beam width")
    p.add_argument("--max-out", type=int, default=None, help="decode length limit")
    _add_seed_flag(p)
    _add_config_flag(p)
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("bleu", help="corpus BLEU of a hypothesis file against a reference")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    _add_config_flag(p)
    p.set_defaults(func=cmd_bleu)

    p = sub.add_parser("compare",
                       help="paired bootstrap significance of candidate over baseline; "
                            "exit 0 when significant, 1 when not")
    p.add_argument("--baseline", required=True)
    p.add_argument("--candidate", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--threshold", type=float, default=0.01)
    _add_seed_flag(p)
    _add_config_flag(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("dump-attention",
                       help="write per-example context attention records")
    _add_model_io_flags(p)
    p.add_argument("--output", required=True, help="records file (one JSON per line)")
    _add_seed_flag(p)
    _add_config_flag(p)
    p.set_defaults(func=cmd_dump_attention)

    p = sub.add_parser("build-testset",
                       help="filter a dataset to pronoun examples and split by gender")
    p.add_argument("--data", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--min-nouns", type=int, default=0,
                   help="minimum context noun count")
    p.add_argument("--pronouns", help="comma-separated pronoun allowlist")
    p.add_argument("--require-noun-antecedent", action="store_true")
    _add_config_flag(p)
    p.set_defaults(func=cmd_build_testset)

    p = sub.add_parser("grad-check", help="finite-difference audit of the gradients")
    p.add_argument("--checks", nargs="+", choices=sorted(gradcheck.CHECKS),
                   default=None, metavar="CHECK",
                   help=f"subset of {', '.join(sorted(gradcheck.CHECKS))} (default all)")
    p.add_argument("--seeds", type=int, default=gradcheck.DEFAULT_SEEDS)
    p.add_argument("--threshold", type=float, default=gradcheck.DEFAULT_THRESHOLD)
    _add_config_flag(p)
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("analyze", help="attention analysis reports")
    suba = p.add_subparsers(dest="what", metavar="what", required=True)

    q = suba.add_parser("useful-mass", help="mean attention mass on content words")
    q.add_argument("--records", required=True)
    _add_config_flag(q)
    q.set_defaults(func=cmd_analyze_useful_mass)

    q = suba.add_parser("top-words", help="source words ranked by context attention")
    q.add_argument("--records", required=True)
    q.add_argument("--min-count", type=int, default=10)
    q.add_argument("--k", type=int, default=10)
    q.add_argument("--after-first", action="store_true",
                   help="only occurrences past the first source position")
    _add_config_flag(q)
    q.set_defaults(func=cmd_analyze_top_words)

    q = suba.add_parser("curves", help="attention mass and BLEU curves as CSV series")
    q.add_argument("--records", required=True)
    q.add_argument("--out-dir", required=True)
    q.add_argument("--bleu-hyp", help="hypothesis file for the BLEU-by-length series")
    q.add_argument("--bleu-ref", help="reference file for the BLEU-by-length series")
    q.add_argument("--cohort-length", type=int, default=None,
                   help="source length for the by-position series")
    _add_config_flag(q)
    q.set_defaults(func=cmd_analyze_curves)

    q = suba.add_parser("agreement",
                        help="antecedent agreement of attention vs heuristics")
    q.add_argument("--records", required=True)
    q.add_argument("--annotations", required=True)
    q.add_argument("--min-nouns", type=int, default=0)
    _add_seed_flag(q)
    _add_config_flag(q)
    q.set_defaults(func=cmd_analyze_agreement)

    q = suba.add_parser("confusion",
                        help="2x2 right/wrong table of attention vs one heuristic")
    q.add_argument("--records", required=True)
    q.add_argument("--annotations", required=True)
    q.add_argument("--heuristic", choices=("first", "last", "random"), default="last")
    q.add_argument("--min-nouns", type=int, default=0)
    _add_seed_flag(q)
    _add_config_flag(q)
    q.set_defaults(func=cmd_analyze_confusion)

    q = suba.add_parser("heatmap", help="render one record as an SVG heatmap")
    q.add_argument("--records", required=True)
    q.add_argument("--example-id", default=None,
                   help="record to render (default: the first)")
    q.add_argument("--output", required=True, help="SVG path")
    _add_config_flag(q)
    q.set_defaults(func=cmd_analyze_heatmap)

    return parser


def _with_config_flags(argv: list[str]) -> list[str]:
    """argv with the flags of its command's --config file placed after the
    command words and before the user's own flags, so that the user's win and
    the file may supply required ones. The file is found before argv is
    parsed as a whole."""
    words = 2 if " ".join(argv[:2]) in PARSERS else 1
    command = PARSERS.get(" ".join(argv[:words]))
    finder = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    finder.add_argument("--config")
    try:
        path = finder.parse_known_args(argv[words:])[0].config
    except argparse.ArgumentError:  # --config without a value: the full parse reports it
        return argv
    if command is None or not path:
        return argv
    return argv[:words] + config_flags(command, path) + argv[words:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_with_config_flags(argv))
        return args.func(args)
    except SystemExit as exc:  # argparse exits 2 on bad flags, 0 on --help
        return int(exc.code or 0)
    except trainer.NonFiniteError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CliError, VocabError, ModelError, CheckpointError, AutodiffError,
            trainer.TrainerError, data.DataError, bpe.BpeError,
            evaluation.EvalError, analysis.AnalysisError, synthetic.SyntheticError,
            gradcheck.GradCheckError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
