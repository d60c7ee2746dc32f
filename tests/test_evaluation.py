import collections
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctxnmt import evaluation as ev


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------


def test_bleu_identity_is_100():
    hyp = [["the", "cat", "sat", "on", "the", "mat"]]
    report = ev.corpus_bleu(hyp, [list(hyp[0])])
    assert report.bleu == pytest.approx(100.0)
    assert report.precisions == (1.0, 1.0, 1.0, 1.0)
    assert report.brevity_penalty == pytest.approx(1.0)


def test_bleu_brevity_penalty_fixture():
    report = ev.corpus_bleu([["a", "b", "c", "d"]], [["a", "b", "c", "d", "e"]])
    assert report.precisions == (1.0, 1.0, 1.0, 1.0)
    assert report.brevity_penalty == pytest.approx(np.exp(1 - 5 / 4))
    assert report.bleu == pytest.approx(77.88, abs=0.01)
    assert (report.hyp_len, report.ref_len) == (4, 5)


def test_bleu_disjoint_vocabulary_is_zero():
    report = ev.corpus_bleu([["x", "y", "z", "w"]], [["a", "b", "c", "d"]])
    assert report.bleu == 0.0
    assert report.precisions[0] == 0.0


def test_bleu_zero_fourgram_precision_zeroes_score():
    # trigrams match but no 4-gram does; without smoothing the score collapses
    report = ev.corpus_bleu([["a", "b", "c", "x"]], [["a", "b", "c", "d"]])
    assert report.precisions[2] > 0.0
    assert report.precisions[3] == 0.0
    assert report.bleu == 0.0


def test_bleu_clipped_counts():
    # "the" appears twice in hyp but once in ref: clipped to 1
    report = ev.corpus_bleu([["the", "the"]], [["the", "cat"]])
    assert report.precisions[0] == pytest.approx(0.5)


def test_bleu_non_identical_scores_below_100():
    hyp = [["a", "b", "c", "d", "e"]]
    ref = [["a", "b", "c", "d", "f"]]
    assert ev.corpus_bleu(hyp, ref).bleu < 100.0


def test_bleu_permutation_invariant():
    hyps = [["a", "b", "c", "d"], ["e", "f", "g", "h"], ["i", "j", "k", "l"]]
    refs = [["a", "b", "c", "x"], ["e", "f", "g", "h"], ["i", "j", "y", "l"]]
    direct = ev.corpus_bleu(hyps, refs).bleu
    rev = ev.corpus_bleu(hyps[::-1], refs[::-1]).bleu
    assert direct == pytest.approx(rev)


def test_bleu_length_mismatch_rejected():
    with pytest.raises(ev.EvalError):
        ev.corpus_bleu([["a"]], [])
    with pytest.raises(ev.EvalError):
        ev.corpus_bleu([], [])


def test_sentence_stats_hand_check():
    stats = ev.sentence_stats(["a", "b", "a"], ["a", "b"])
    # unigram: a clipped to 1, b 1 -> 2 of 3; bigram: (a,b) -> 1 of 2
    assert list(stats) == [2, 1, 0, 0, 3, 2, 1, 0, 3, 2]


@given(st.lists(st.lists(st.sampled_from("abcde"), min_size=1, max_size=8),
                min_size=1, max_size=6))
def test_bleu_bounds(hyps):
    refs = [["a", "b", "c", "d", "e"][: max(1, len(h))] for h in hyps]
    report = ev.corpus_bleu(hyps, refs)
    assert 0.0 <= report.bleu <= 100.0
    assert report.brevity_penalty <= 1.0


def _per_order_stats(hyp, ref):
    # the statistics counted one n-gram order at a time, as a reference
    stats = [0] * (2 * ev.MAX_ORDER + 2)
    for n in range(1, ev.MAX_ORDER + 1):
        hyp_counts = collections.Counter(tuple(hyp[i:i + n]) for i in range(len(hyp) - n + 1))
        ref_counts = collections.Counter(tuple(ref[i:i + n]) for i in range(len(ref) - n + 1))
        stats[n - 1] = sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
        stats[ev.MAX_ORDER + n - 1] = max(len(hyp) - n + 1, 0)
    stats[-2:] = [len(hyp), len(ref)]
    return stats


sentences = st.lists(st.sampled_from("abcd"), max_size=7)


@given(st.lists(st.tuples(sentences, sentences, sentences), min_size=1, max_size=6),
       st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 20))
def test_corpus_bleu_is_the_bootstrap_formula(triples, seed, samples, block_cells):
    # the reported score and every bootstrap resample come from one formula;
    # the blocked resampling equals one (samples, n) gather of the statistics
    hyps_a, hyps_b, refs = (list(side) for side in zip(*triples))
    stats_a = np.array([_per_order_stats(h, r) for h, r in zip(hyps_a, refs)])
    stats_b = np.array([_per_order_stats(h, r) for h, r in zip(hyps_b, refs)])
    bleu, precisions, bp = ev._bleu_rows(stats_a.sum(axis=0)[None, :])
    report = ev.corpus_bleu(hyps_a, refs)
    assert report.bleu == bleu[0]
    assert report.precisions == tuple(precisions[0])
    assert report.brevity_penalty == bp[0]
    assert (report.hyp_len, report.ref_len) == tuple(stats_a.sum(axis=0)[-2:])

    idx = np.random.default_rng(seed).integers(0, len(refs), (samples, len(refs)))
    expected = float(np.mean(ev._bleu_rows(stats_b[idx].sum(axis=1))[0]
                             <= ev._bleu_rows(stats_a[idx].sum(axis=1))[0]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ev, "BOOTSTRAP_BLOCK_CELLS", block_cells)
        p = ev.bootstrap_significance(hyps_a, hyps_b, refs, samples=samples, seed=seed)
    assert p == expected


def test_empty_hypothesis_sentence_scores_zero():
    report = ev.corpus_bleu([[]], [["a", "b"]])
    assert report.bleu == 0.0


def test_bleu_identity_on_short_sentences_is_100():
    # a corpus with no 4-grams anywhere: the order carries no evidence and is
    # skipped, keeping the identity-scores-100 equivalence at any length
    hyps = [["ona", "upala", "."], ["on", "upal", "."]]
    report = ev.corpus_bleu(hyps, [list(h) for h in hyps])
    assert report.bleu == pytest.approx(100.0)
    assert report.precisions[3] == 1.0  # vacuous order reported as 1


def test_bleu_short_sentences_still_rank_quality():
    refs = [["ona", "upala", "."], ["on", "upal", "."]]
    right = ev.corpus_bleu([list(r) for r in refs], refs).bleu
    wrong = ev.corpus_bleu([["oni", "upali", "."], ["oni", "upali", "."]], refs).bleu
    assert right == pytest.approx(100.0)
    assert 0.0 <= wrong < right


def test_bootstrap_distinguishes_systems_on_short_sentences():
    rng = np.random.default_rng(3)
    refs = [[["ona", "on", "ono", "oni"][rng.integers(4)], "upal", "."]
            for _ in range(120)]
    perfect = [list(r) for r in refs]
    broken = [["oni" if r[0] != "oni" else "on"] + r[1:] for r in refs]
    p = ev.bootstrap_significance(broken, perfect, refs, samples=1000, seed=0)
    assert p < 0.01


# ---------------------------------------------------------------------------
# bootstrap significance
# ---------------------------------------------------------------------------


def _toy_corpus(n=200, length=6, seed=0):
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(30)]
    return [[vocab[i] for i in rng.choice(30, size=length, replace=False)]
            for _ in range(n)]


def test_bootstrap_identical_systems_never_significant():
    refs = _toy_corpus()
    hyp = [list(s) for s in refs]
    p = ev.bootstrap_significance(hyp, hyp, refs, samples=1000, seed=1)
    assert p == 1.0


def test_bootstrap_clear_improvement_significant():
    refs = _toy_corpus()
    perfect = [list(s) for s in refs]
    degraded = [s[1:] + s[:1] for s in refs]     # rotation breaks every n-gram run
    p = ev.bootstrap_significance(degraded, perfect, refs, samples=1000, seed=2)
    assert p < 0.01


def test_bootstrap_deterministic_under_seed():
    refs = _toy_corpus(n=50)
    a = [s[1:] + s[:1] for s in refs]
    b = [list(s) for s in refs]
    b[::3] = [s[1:] + s[:1] for s in b[::3]]     # partial improvement
    p1 = ev.bootstrap_significance(a, b, refs, samples=500, seed=7)
    p2 = ev.bootstrap_significance(a, b, refs, samples=500, seed=7)
    assert p1 == p2
    assert 0.0 <= p1 <= 1.0


def test_bootstrap_misaligned_lists_rejected():
    refs = _toy_corpus(n=4)
    with pytest.raises(ev.EvalError):
        ev.bootstrap_significance(refs[:3], refs, refs, samples=10)
    with pytest.raises(ev.EvalError):
        ev.bootstrap_significance(refs, refs, refs, samples=0)


def test_bootstrap_empty_set_rejected():
    with pytest.raises(ev.EvalError, match="empty evaluation set"):
        ev.bootstrap_significance([], [], [])


@pytest.mark.parametrize("n, samples", [(48, 50_000), (2_000, 2_000)])
def test_bootstrap_memory_does_not_grow_with_samples(n, samples):
    # one (samples, n, 10) gather of the statistics would take 192 MB and
    # 320 MB here; the blocked count matrices stay a few MB
    refs = _toy_corpus(n=n)
    rotated = [s[1:] + s[:1] for s in refs]
    tracemalloc.start()
    try:
        ev.bootstrap_significance(rotated, refs, refs, samples=samples, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# ---------------------------------------------------------------------------
# pronoun form accuracy
# ---------------------------------------------------------------------------


def test_pronoun_form_accuracy_counts_leading_token():
    hyps = [["ona", "upala", "."], ["on", "upala", "."], ["ono", "x"]]
    refs = [["ona", "upala", "."], ["ona", "upala", "."], ["ono", "upalo", "."]]
    assert ev.pronoun_form_accuracy(hyps, refs) == pytest.approx(2 / 3)


def test_pronoun_form_accuracy_empty_hypothesis_is_miss():
    assert ev.pronoun_form_accuracy([[]], [["ona"]]) == 0.0


def test_pronoun_form_accuracy_rejects_empty_set():
    with pytest.raises(ev.EvalError):
        ev.pronoun_form_accuracy([], [])


# ---------------------------------------------------------------------------
# coreference annotations
# ---------------------------------------------------------------------------


def _ann(eid, pronoun="it", has_noun=True, count=1, gender="fem", positions=(2,)):
    return ev.CorefAnnotation(
        example_id=eid, pronoun=pronoun, pronoun_index=0, antecedent_span=(1, 2),
        antecedent_has_noun=has_noun, context_noun_count=count,
        gender_label=gender if has_noun else None, noun_positions=list(positions))


def test_annotation_validation():
    with pytest.raises(ev.EvalError, match="span"):
        ev.CorefAnnotation("x", "it", 0, (3, 1), True, 1)
    with pytest.raises(ev.EvalError, match="negative"):
        ev.CorefAnnotation("x", "it", 0, (0, 1), True, -1)
    with pytest.raises(ev.EvalError, match="gender label"):
        ev.CorefAnnotation("x", "it", 0, (0, 1), False, 1, gender_label="fem")
    with pytest.raises(ev.EvalError, match="unknown gender"):
        ev.CorefAnnotation("x", "it", 0, (0, 1), True, 1, gender_label="????")


def test_annotation_file_roundtrip(tmp_path):
    annotations = [
        _ann("0", count=2, positions=(2, 8)),
        _ann("1", has_noun=False, count=0, positions=()),
        _ann("2", gender="plur"),
    ]
    path = str(tmp_path / "gold.tsv")
    ev.write_annotations(path, annotations)
    assert ev.read_annotations(path) == annotations


def test_read_annotations_rejects_bad_line(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("too\tfew\tfields\n")
    with pytest.raises(ev.EvalError, match="8 tab-separated"):
        ev.read_annotations(str(path))


class _Ex:
    def __init__(self, eid):
        self.example_id = eid


def test_build_pronoun_testset_hand_fixture():
    examples = [_Ex(str(i)) for i in range(6)]
    annotations = [
        _ann("0", count=2, positions=(2, 8)),
        _ann("1", count=1),
        _ann("2", has_noun=False, count=3, positions=(2, 5, 7)),
        _ann("3", pronoun="you", count=2, positions=(2, 8)),
        _ann("4", count=5, positions=(1, 2, 3, 4, 5)),
        _ann("5", count=2, positions=(2, 8)),
    ]
    subset, sub_ann, counts = ev.build_pronoun_testset(
        examples, annotations, pronouns={"it"},
        require_noun_antecedent=True, min_context_nouns=2)
    assert [ex.example_id for ex in subset] == ["0", "4", "5"]
    assert len(sub_ann) == 3
    assert counts == {"it": 3}


def test_build_pronoun_testset_monotone_in_noun_filter():
    examples = [_Ex(str(i)) for i in range(4)]
    annotations = [_ann(str(i), count=i) for i in range(4)]
    loose, _, _ = ev.build_pronoun_testset(examples, annotations, min_context_nouns=1)
    tight, _, _ = ev.build_pronoun_testset(examples, annotations, min_context_nouns=2)
    loose_ids = {ex.example_id for ex in loose}
    assert {ex.example_id for ex in tight} <= loose_ids


def test_build_pronoun_testset_dangling_id():
    with pytest.raises(ev.EvalError, match="ghost"):
        ev.build_pronoun_testset([_Ex("0")], [_ann("ghost")])


def test_split_by_gender_partition():
    annotations = [_ann("0", gender="fem"), _ann("1", gender="fem"),
                   _ann("2", gender="masc"), _ann("3", gender="plur")]
    buckets = ev.split_by_gender(annotations)
    sizes = {g: len(v) for g, v in buckets.items()}
    assert sizes == {"masc": 1, "fem": 2, "neut": 0, "plur": 1}
    assert sorted(a.example_id for v in buckets.values() for a in v) == \
        ["0", "1", "2", "3"]


def test_split_by_gender_requires_labels():
    with pytest.raises(ev.EvalError, match="missing"):
        ev.split_by_gender([_ann("0", has_noun=False, count=0, positions=())])


# ---------------------------------------------------------------------------
# table rendering
# ---------------------------------------------------------------------------


def test_render_table_layout():
    out = ev.render_table(["system", "bleu"],
                          [["baseline", "29.46"], ["context encoder", "30.14"]])
    lines = out.splitlines()
    assert lines[0].split() == ["system", "bleu"]
    assert set(lines[1]) <= {"-", " "}
    assert "29.46" in lines[2] and "30.14" in lines[3]


def test_render_table_pads_columns():
    out = ev.render_table(["a"], [["long-value"]])
    header, rule, row = out.splitlines()
    assert len(rule) == len("long-value")
