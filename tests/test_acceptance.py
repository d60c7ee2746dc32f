"""Release gate: the nine acceptance criteria, one test per criterion.

Each test prints a single `criterion N (<name>): PASS/FAIL` line (visible
under `pytest -s`) and asserts the same condition, so the suite doubles as a
release checklist. Criteria 3, 4 and 5 share one desk-scale synthetic
experiment that trains three small models from scratch; expect the whole
module to take roughly half an hour on a laptop CPU. Everything else is
seconds. `pytest -m "not acceptance"` deselects this module for quick runs.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest

import ctxnmt.analysis as an
import ctxnmt.autodiff as ad
import ctxnmt.data as data
import ctxnmt.evaluation as ev
import ctxnmt.gradcheck as gc
import ctxnmt.synthetic as syn
import ctxnmt.trainer as tr
from ctxnmt.cli import main as cli_main
from ctxnmt.model import ModelConfig, Transformer
from ctxnmt.vocab import BOS, EOS, PAD, Vocab

pytestmark = pytest.mark.acceptance


def conclude(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# criterion 1: gradient integrity
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_integrity():
    t0 = time.perf_counter()
    reports = gc.run_checks(n_seeds=20)
    elapsed = time.perf_counter() - t0
    assert {r.name for r in reports} == {"attention", "feed_forward", "layer_norm",
                                         "gated_fusion", "full_model"}
    worst = max(r.max_rel_err for r in reports)
    ok = all(r.passed for r in reports) and worst < 1e-4 and elapsed < 120.0
    conclude(1, "gradient integrity", ok,
             f"5 checks x 20 seeds, max rel err {worst:.2e} < 1e-4, {elapsed:.1f}s < 120s")


# ---------------------------------------------------------------------------
# criterion 2: gate bottleneck
# ---------------------------------------------------------------------------


def _tiny_gated_model(seed: int) -> Transformer:
    config = ModelConfig(n_layers=2, n_heads=2, d_model=8, d_ff=16, src_vocab=14,
                         tgt_vocab=11, dropout=0.0, label_smoothing=0.0, max_len=32,
                         context_mode="gated-context")
    return Transformer(config, np.random.default_rng(seed))


def test_criterion_2_gate_bottleneck():
    src = np.array([[6, 7, 8, EOS]])
    ctx = np.array([[BOS, 9, 10, 11, EOS]])

    model = _tiny_gated_model(4)
    model.store["enc.fuse.fusion.gate.w"].data[:] = 0.0
    model.store["enc.fuse.fusion.gate.b"].data[:] = 30.0
    a = model.encode(src, ctx)
    b = model.encode(src, np.array([[BOS, 12, 13, EOS]]))
    replace_diff = float(np.abs(a.hidden.data - b.hidden.data).max())

    # zeroed context path against a reference wired without the context branch
    model = _tiny_gated_model(5)
    model.store["enc.fuse.fusion.gate.w"].data[:] = 0.0
    model.store["enc.fuse.fusion.gate.b"].data[:] = 30.0
    out = model.encode(src, ctx, zero_context=True)
    mask = np.where(src == PAD, ad.MASK_SENTINEL, 0.0).astype(np.float32)[:, None, None, :]
    x = model._embed(model.src_embed, src)
    for layer in model.enc_layers:
        x = layer(x, mask, lambda t: t)
    fuse = model.fusion_layer
    attn_out, _ = fuse.self_attn(x, x, mask)
    s = fuse.ln1(ad.add(x, attn_out))
    h = fuse.ln2(s)
    ref = fuse.ln3(ad.add(h, fuse.ffn(h)))
    zero_diff = float(np.abs(out.hidden.data - ref.data).max())

    ok = replace_diff < 1e-5 and zero_diff < 1e-6
    conclude(2, "gate bottleneck", ok,
             f"saturated-gate context swap diff {replace_diff:.2e} < 1e-5, "
             f"zeroed-path vs self-attention-only diff {zero_diff:.2e} < 1e-6")


# ---------------------------------------------------------------------------
# criteria 3-5: the synthetic anaphora experiment
# ---------------------------------------------------------------------------

EXP = dict(
    train_size=20_000, test_size=2_000, noun_inventory=40, distractor_prob=0.5,
    data_seed=13,
    n_layers=2, n_heads=4, d_model=64, d_ff=128, max_len=24,
    dropout=0.0, label_smoothing=0.0,
    max_steps=800, warmup=200, token_budget=1600, train_seed=5,
)

TRAIN_BUDGET_SECONDS = 30 * 60
STEP_BUDGET = 20_000


@dataclasses.dataclass
class ExperimentResult:
    steps: int
    train_seconds: dict
    accuracy: dict
    bleu: dict
    p_gated_over_none: float
    p_real_over_shuffled: float
    agreement: an.AgreementReport
    records: list


def _decode_all(model, examples, tgt_vocab, batch_size=256):
    hyps = []
    for _, src, ctx in tr.decode_batches(examples, batch_size, True):
        for res in model.translate(src, ctx, mode="greedy", max_out=8):
            hyps.append(tgt_vocab.decode(res.ids, strip_specials=True))
    return hyps


@pytest.fixture(scope="session")
def experiment(tmp_path_factory):
    cfg = EXP
    work = tmp_path_factory.mktemp("acceptance_experiment")

    train_ss, test_ss = np.random.SeedSequence(cfg["data_seed"]).spawn(2)
    train_spec = syn.SyntheticSpec(cfg["noun_inventory"], cfg["distractor_prob"],
                                   cfg["train_size"], int(train_ss.generate_state(1)[0]))
    test_spec = syn.SyntheticSpec(cfg["noun_inventory"], cfg["distractor_prob"],
                                  cfg["test_size"], int(test_ss.generate_state(1)[0]))
    train_triples, _ = syn.generate(train_spec)
    test_triples, test_ann = syn.generate(test_spec)
    src_words, tgt_words = syn.vocabulary_words(train_spec)
    src_vocab = Vocab.from_symbols(src_words)
    tgt_vocab = Vocab.from_symbols(tgt_words)

    train_ex, _ = data.encode_examples(train_triples, src_vocab, tgt_vocab, cfg["max_len"])
    test_ex, _ = data.encode_examples(test_triples, src_vocab, tgt_vocab, cfg["max_len"])
    dev_ex = test_ex[:256]
    refs = [tgt_vocab.decode(e.target_ids, strip_specials=True) for e in test_ex]
    annotations = {a.example_id: a for a in test_ann}

    shuffled_triples = data.shuffle_contexts(test_triples, seed=cfg["data_seed"] + 1)
    shuffled_ex, _ = data.encode_examples(shuffled_triples, src_vocab, tgt_vocab,
                                          cfg["max_len"])

    def build(mode: str) -> Transformer:
        config = ModelConfig(
            n_layers=cfg["n_layers"], n_heads=cfg["n_heads"], d_model=cfg["d_model"],
            d_ff=cfg["d_ff"], src_vocab=len(src_vocab), tgt_vocab=len(tgt_vocab),
            dropout=cfg["dropout"], label_smoothing=cfg["label_smoothing"],
            max_len=cfg["max_len"], context_mode=mode).validate()
        rng = np.random.default_rng(np.random.SeedSequence(cfg["train_seed"]))
        return Transformer(config, rng)

    opt = tr.OptimizerConfig(
        d_model=cfg["d_model"], warmup_steps=cfg["warmup"],
        token_budget=cfg["token_budget"], max_steps=cfg["max_steps"],
        checkpoint_every=cfg["max_steps"], seed=cfg["train_seed"])

    models, train_seconds = {}, {}
    for mode in ("none", "gated-context", "concat"):
        model = build(mode)
        t0 = time.perf_counter()
        tr.train(model, train_ex, dev_ex, opt, out_dir=str(work / f"model_{mode}"))
        train_seconds[mode] = time.perf_counter() - t0
        models[mode] = model

    hyps = {
        "none": _decode_all(models["none"], test_ex, tgt_vocab),
        "gated": _decode_all(models["gated-context"], test_ex, tgt_vocab),
        "concat": _decode_all(models["concat"], test_ex, tgt_vocab),
        "gated-shuffled": _decode_all(models["gated-context"], shuffled_ex, tgt_vocab),
    }
    accuracy = {k: ev.pronoun_form_accuracy(h, refs) for k, h in hyps.items()}
    bleu = {k: ev.corpus_bleu(h, refs).bleu for k, h in hyps.items()}
    p_gated = ev.bootstrap_significance(hyps["none"], hyps["gated"], refs,
                                        samples=1000, seed=0)
    p_real = ev.bootstrap_significance(hyps["gated-shuffled"], hyps["gated"], refs,
                                       samples=1000, seed=0)

    records = an.attention_records(models["gated-context"],
                                   tr.decode_batches(test_ex, 256, True), src_vocab)
    report = an.agreement_report(records, list(annotations.values()), min_nouns=2,
                                 seed=cfg["data_seed"])

    return ExperimentResult(
        steps=cfg["max_steps"], train_seconds=train_seconds, accuracy=accuracy,
        bleu=bleu, p_gated_over_none=p_gated, p_real_over_shuffled=p_real,
        agreement=report, records=records)


def test_criterion_3_synthetic_anaphora_end_to_end(experiment):
    r = experiment
    slowest = max(r.train_seconds.values())
    ok = (r.steps <= STEP_BUDGET
          and slowest < TRAIN_BUDGET_SECONDS
          and r.accuracy["gated"] >= 0.95
          and r.accuracy["none"] <= 0.35
          and r.bleu["gated"] > r.bleu["none"]
          and r.p_gated_over_none < 0.01)
    conclude(3, "synthetic anaphora end-to-end", ok,
             f"gated accuracy {r.accuracy['gated']:.3f} >= 0.95, "
             f"context-agnostic {r.accuracy['none']:.3f} <= 0.35, "
             f"BLEU {r.bleu['gated']:.2f} > {r.bleu['none']:.2f} at p {r.p_gated_over_none:.4f} < 0.01, "
             f"{r.steps} steps <= {STEP_BUDGET}, slowest model {slowest / 60:.1f} min < 30 min")


def test_criterion_4_shuffled_context_ablation(experiment):
    r = experiment
    gap = abs(r.accuracy["gated-shuffled"] - r.accuracy["none"])
    ok = gap <= 0.10 and r.p_real_over_shuffled < 0.01
    conclude(4, "shuffled-context ablation", ok,
             f"shuffled-eval accuracy {r.accuracy['gated-shuffled']:.3f} within "
             f"{gap:.3f} <= 0.10 of context-agnostic {r.accuracy['none']:.3f}, "
             f"real {r.bleu['gated']:.2f} > shuffled {r.bleu['gated-shuffled']:.2f} "
             f"at p {r.p_real_over_shuffled:.4f} < 0.01")


def test_criterion_5_latent_anaphora(experiment):
    a = experiment.agreement.agreement
    ok = (a["attention"] >= a["last"] + 15.0
          and a["attention"] >= a["random"] + 15.0)
    conclude(5, "latent anaphora", ok,
             f"multi-noun subset n={experiment.agreement.n_examples}: attention "
             f"{a['attention']:.1f}% vs last {a['last']:.1f}% and random {a['random']:.1f}% "
             f"(need +15 over both)")


# ---------------------------------------------------------------------------
# criterion 6: schedule fixtures
# ---------------------------------------------------------------------------


def test_criterion_6_schedule_fixtures():
    at_warmup = tr.noam_lr(4000, 512, 4000)
    at_one = tr.noam_lr(1, 512, 4000)
    rising = 512 ** -0.5 * (4000 * 4000 ** -1.5)
    decaying = 512 ** -0.5 * 4000 ** -0.5
    ok = (abs(at_warmup - 6.9877e-4) <= 1e-7
          and abs(at_one - 1.7470e-7) <= 1e-10
          and rising == pytest.approx(decaying, rel=1e-14)
          and tr.noam_lr(4000, 512, 4000) == min(rising, decaying))
    conclude(6, "schedule fixtures", ok,
             f"lr(4000)={at_warmup:.4e} (6.9877e-4 +- 1e-7), "
             f"lr(1)={at_one:.4e} (1.7470e-7 +- 1e-10), branches meet at warmup")


# ---------------------------------------------------------------------------
# criterion 7: BLEU oracle
# ---------------------------------------------------------------------------


def test_criterion_7_bleu_oracle():
    sent = "the cat sat on the mat".split()
    identity = ev.corpus_bleu([sent], [sent]).bleu
    brevity = ev.corpus_bleu([["a", "b", "c", "d"]], [["a", "b", "c", "d", "e"]]).bleu
    disjoint = ev.corpus_bleu([["x", "y", "z", "w"]], [["a", "b", "c", "d"]]).bleu
    ok = (identity == pytest.approx(100.0)
          and brevity == pytest.approx(77.88, abs=0.01)
          and disjoint == 0.0)
    conclude(7, "BLEU oracle", ok,
             f"identity {identity:.2f} = 100, 4-vs-5-token {brevity:.2f} = 77.88 +- 0.01, "
             f"disjoint {disjoint:.2f} = 0")


# ---------------------------------------------------------------------------
# criterion 8: analysis oracles
# ---------------------------------------------------------------------------

TOP_WORDS_REFERENCE = [
    # mean attention to context and mean source position at full corpus scale,
    # all positions / positions after the first
    ("it", 0.376, 5.5), ("yours", 0.338, 8.4), ("yes", 0.332, 2.5),
    ("i", 0.328, 3.3), ("yeah", 0.314, 1.4), ("you", 0.311, 4.8),
    ("ones", 0.309, 8.3), ("'m", 0.298, 5.1), ("wait", 0.281, 3.8),
    ("well", 0.273, 2.1),
]

AGREEMENT_REFERENCE = {"random": 40.0, "first": 36.0, "last": 52.0, "attention": 58.0}
CONFUSION_REFERENCE = [[53.0, 19.0], [24.0, 4.0]]


def test_criterion_8_analysis_oracles(experiment):
    # hand-counted fixtures
    record = an.AttentionRecord("0", ["w"], ["<bos>", "the", "cat", ".", "<eos>"],
                                [[0.6, 0.1, 0.2, 0.05, 0.05]])
    mass_ok = an.useful_mass(record) == pytest.approx(0.30)

    ctx = ["<bos>", "nounA", "x", "nounB", "<eos>"]
    records, annotations = [], []
    for i in range(10):
        row = [0.0, 0.6, 0.1, 0.3, 0.0] if i < 7 else [0.0, 0.3, 0.1, 0.6, 0.0]
        records.append(an.AttentionRecord(str(i), ["it"], ctx, [row]))
        annotations.append(ev.CorefAnnotation(
            example_id=str(i), pronoun="it", pronoun_index=0, antecedent_span=(1, 1),
            antecedent_has_noun=True, context_noun_count=2, gender_label="masc",
            noun_positions=[1, 3]))
    report = an.agreement_report(records, annotations, min_nouns=2, seed=4)
    agreement_ok = (report.agreement["first"] == 100.0
                    and report.agreement["last"] == 0.0
                    and report.agreement["attention"] == pytest.approx(70.0))

    spans = [(1, 1)] * 8
    table = an.confusion_table([1, 1, 1, 1, 0, 0, 1, 0],
                               [1, 1, 0, 0, 1, 1, None, 0], spans)
    confusion_ok = np.allclose(table, [[25.0, 37.5], [25.0, 12.5]])

    # every dumped attention row from the experiment is a distribution
    worst_row = 0.0
    for rec in experiment.records:
        sums = np.asarray(rec.weights).sum(axis=1)
        worst_row = max(worst_row, float(np.abs(sums - 1.0).max()))
    stochastic_ok = worst_row < 1e-4

    # reference tables render in the reporting layout
    top_table = ev.render_table(
        ["word", "attn to context", "position"],
        [[w, f"{m:.3f}", f"{p:.1f}"] for w, m, p in TOP_WORDS_REFERENCE])
    layout_ok = top_table.splitlines()[2].split() == ["it", "0.376", "5.5"]

    agree_table = ev.render_table(
        ["method", "agreement %"],
        [[k, f"{v:.0f}"] for k, v in AGREEMENT_REFERENCE.items()])
    layout_ok = layout_ok and "attention" in agree_table and "58" in agree_table

    confusion_render = ev.render_table(
        ["", "CoreNLP right", "CoreNLP wrong"],
        [["attention right", "53", "19"], ["attention wrong", "24", "4"]])
    layout_ok = layout_ok and "53" in confusion_render and "4" in confusion_render
    reference_ok = (sum(sum(r) for r in CONFUSION_REFERENCE) == 100.0
                    and AGREEMENT_REFERENCE["attention"] > AGREEMENT_REFERENCE["last"])

    ok = mass_ok and agreement_ok and confusion_ok and stochastic_ok and layout_ok \
        and reference_ok
    conclude(8, "analysis oracles", ok,
             f"useful-mass/agreement/confusion hand fixtures exact, "
             f"{len(experiment.records)} dumped records row-stochastic "
             f"(worst row deviation {worst_row:.1e} < 1e-4), reference tables render")


# ---------------------------------------------------------------------------
# criterion 9: pipeline boundaries and determinism
# ---------------------------------------------------------------------------


def _pair(movie="m1", t0=0.0, t1=2.0, overlap=0.95, src="hello there", tgt="hallo du"):
    return data.RawPair(movie, t0, t1, overlap, src, tgt)


def _tree_bytes(root: Path) -> dict:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file() and "manifest" not in path.name:
            out[str(path.relative_to(root))] = path.read_bytes()
    return out


def _run_cli(*argv):
    code = cli_main(list(argv))
    assert code == 0, f"cli exited {code} for {argv}"


def test_criterion_9_pipeline_boundaries(tmp_path, capsys):
    kept = data.filter_pairs([_pair(overlap=0.90), _pair(overlap=0.85)])
    overlap_ok = [p.overlap for p in kept] == [0.90]

    pairs = [_pair(t0=0.0, t1=3.0), _pair(t0=10.0, t1=12.0, src="second line")]
    attached = data.attach_context(pairs, "previous", max_gap_seconds=7.0)
    gap_ok = attached[1].has_real_context  # gap exactly 7.0 attaches
    pairs = [_pair(t0=0.0, t1=3.0), _pair(t0=10.5, t1=12.0, src="second line")]
    attached = data.attach_context(pairs, "previous", max_gap_seconds=7.0)
    gap_ok = gap_ok and not attached[1].has_real_context  # 7.5 does not

    triples = [("a b", "c d", "e f"), ("", "x", "y")]
    p1, p2 = tmp_path / "set1.tsv", tmp_path / "set2.tsv"
    data.write_prepared(str(p1), triples)
    data.write_prepared(str(p2), data.read_prepared(str(p1)))
    roundtrip_ok = p1.read_bytes() == p2.read_bytes()

    # fixed-seed reruns: prepare, train, analyze twice into separate trees
    raw = tmp_path / "raw.tsv"
    lines = []
    words = ["the", "cat", "sat", "mat", "dog", "ran", "far", "now"]
    for i in range(40):
        src = " ".join(words[(i + j) % 8] for j in range(4))
        tgt = " ".join(words[(i + j + 1) % 8] for j in range(4))
        lines.append(f"m{i % 3}\t{i * 2.0}\t{i * 2.0 + 1.5}\t0.95\t{src}\t{tgt}")
    raw.write_text("\n".join(lines) + "\n", encoding="utf-8")

    for attempt in ("one", "two"):
        prep = tmp_path / f"prep_{attempt}"
        _run_cli("prepare", "--input", str(raw), "--out-dir", str(prep),
                 "--direction", "prev", "--bpe-merges", "30", "--seed", "11")
        gen = tmp_path / f"gen_{attempt}"
        _run_cli("gen-synthetic", "--out-dir", str(gen), "--train-size", "60",
                 "--test-size", "20", "--noun-inventory", "8", "--seed", "11")
        run = tmp_path / f"train_{attempt}"
        _run_cli("train", "--data", str(gen / "train.tsv"),
                 "--src-vocab", str(gen / "src.vocab"),
                 "--tgt-vocab", str(gen / "tgt.vocab"),
                 "--out-dir", str(run), "--context-mode", "prev",
                 "--n-layers", "1", "--n-heads", "2", "--d-model", "16",
                 "--d-ff", "32", "--dropout", "0.0", "--max-len", "24",
                 "--warmup", "10", "--token-budget", "200", "--max-steps", "20",
                 "--checkpoint-every", "10", "--seed", "11", "--quiet")
        dump = tmp_path / f"records_{attempt}.jsonl"
        _run_cli("dump-attention", "--model", str(run / "last.ckpt"),
                 "--data", str(gen / "test.tsv"),
                 "--src-vocab", str(gen / "src.vocab"),
                 "--tgt-vocab", str(gen / "tgt.vocab"), "--output", str(dump))
        curves = tmp_path / f"curves_{attempt}"
        _run_cli("analyze", "curves", "--records", str(dump),
                 "--out-dir", str(curves))
    capsys.readouterr()

    rerun_ok = True
    for family in ("prep", "gen", "train", "curves"):
        one = _tree_bytes(tmp_path / f"{family}_one")
        two = _tree_bytes(tmp_path / f"{family}_two")
        rerun_ok = rerun_ok and one and one == two
    one = (tmp_path / "records_one.jsonl").read_bytes()
    two = (tmp_path / "records_two.jsonl").read_bytes()
    rerun_ok = rerun_ok and one == two

    ok = overlap_ok and gap_ok and roundtrip_ok and rerun_ok
    conclude(9, "pipeline boundaries", ok,
             "overlap 0.90 kept / 0.85 dropped, gap 7.0s attached / 7.5s not, "
             "prepared round trip bit-exact, fixed-seed prepare/train/analyze "
             "reruns bit-identical")
