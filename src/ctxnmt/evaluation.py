"""Translation quality measurement and pronoun-focused test subsets.

Corpus BLEU-4 without smoothing: the geometric mean of modified n-gram
precisions times the brevity penalty, so any zero precision zeroes the score.
An order with no hypothesis n-grams (every sentence shorter than n) carries no
evidence: it leaves the geometric mean and is reported as a vacuous 1.0, so
identical corpora score 100 at any sentence length. Significance between
systems comes from paired bootstrap resampling over per-sentence sufficient
statistics.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field

import numpy as np

from .vocab import numbered_lines

MAX_ORDER = 4
# Resampled sentence indices drawn per bootstrap block (rows x n cells), so
# that the block's temporaries stay a few MB whatever the sample count.
BOOTSTRAP_BLOCK_CELLS = 1 << 18


class EvalError(ValueError):
    pass


@dataclass
class BleuReport:
    bleu: float
    precisions: tuple[float, float, float, float]
    brevity_penalty: float
    hyp_len: int
    ref_len: int


def _ngram_counts(tokens: list[str]) -> collections.Counter:
    """Every n-gram of orders 1..MAX_ORDER, as a token tuple, with its count."""
    grams = []
    for n in range(1, MAX_ORDER + 1):
        grams += zip(*(tokens[i:] for i in range(n)))
    return collections.Counter(grams)


def _corpus_stats(hypotheses: list[list[str]], references: list[list[str]]) -> np.ndarray:
    """Sufficient statistics of each sentence pair, (n, 10) int64 rows of
    [matches 1..4, totals 1..4, hyp_len, ref_len]; one n-gram pass per side,
    matches clipped by the reference count and summed by n-gram length."""
    rows = []
    for hyp, ref in zip(hypotheses, references):
        ref_counts = _ngram_counts(ref)
        matches = [0] * MAX_ORDER
        for gram, count in _ngram_counts(hyp).items():
            matches[len(gram) - 1] += min(count, ref_counts.get(gram, 0))
        rows.append(matches + [max(len(hyp) - n + 1, 0) for n in range(1, MAX_ORDER + 1)]
                    + [len(hyp), len(ref)])
    return np.array(rows, dtype=np.int64).reshape(len(rows), 2 * MAX_ORDER + 2)


def sentence_stats(hyp: list[str], ref: list[str]) -> np.ndarray:
    """Sufficient statistics [matches 1..4, totals 1..4, hyp_len, ref_len]."""
    return _corpus_stats([hyp], [ref])[0]


def _bleu_rows(stats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Corpus BLEU-4 of each row of summed statistics (k, 10), by the rules
    above: (bleu (k,), precisions (k, 4), brevity penalty (k,)). An empty
    hypothesis scores 0 with a brevity penalty of 0."""
    matches = stats[:, :MAX_ORDER].astype(np.float64)
    totals = stats[:, MAX_ORDER:2 * MAX_ORDER].astype(np.float64)
    hyp_len = stats[:, -2].astype(np.float64)
    ref_len = stats[:, -1].astype(np.float64)
    defined = totals > 0
    prec = np.where(defined, matches / np.maximum(totals, 1), 1.0)
    logp = np.where(defined, np.log(np.maximum(prec, 1e-300)), 0.0)
    bp = np.where(hyp_len > 0,
                  np.exp(np.minimum(0.0, 1.0 - ref_len / np.maximum(hyp_len, 1))), 0.0)
    score = 100.0 * bp * np.exp(logp.sum(axis=1) / np.maximum(defined.sum(axis=1), 1))
    valid = (prec > 0).all(axis=1) & (hyp_len > 0)
    return np.where(valid, score, 0.0), prec, bp


def corpus_bleu(hypotheses: list[list[str]], references: list[list[str]]) -> BleuReport:
    if len(hypotheses) != len(references):
        raise EvalError(
            f"{len(hypotheses)} hypotheses vs {len(references)} references")
    if not hypotheses:
        raise EvalError("empty evaluation set")
    total = _corpus_stats(hypotheses, references).sum(axis=0)
    bleu, prec, bp = _bleu_rows(total[None, :])
    return BleuReport(float(bleu[0]), tuple(float(p) for p in prec[0]), float(bp[0]),
                      int(total[-2]), int(total[-1]))


def bootstrap_significance(hyp_a: list[list[str]], hyp_b: list[list[str]],
                           references: list[list[str]], samples: int = 1000,
                           seed: int = 0) -> float:
    """Paired bootstrap p-value for "system b beats system a".

    Resamples sentence indices with replacement; p is the fraction of
    resamples where BLEU(b) <= BLEU(a), so small p means b is reliably ahead.
    The indices are drawn from one generator in blocks of about
    BOOTSTRAP_BLOCK_CELLS, the same integers as one (samples, n) draw; each
    block becomes a count matrix (how often each sentence was drawn) whose
    product with the statistics gives the resampled sums, exact in float64.
    """
    if not len(hyp_a) == len(hyp_b) == len(references):
        raise EvalError("bootstrap needs aligned hypothesis/reference lists")
    if not references:
        raise EvalError("empty evaluation set")
    if samples < 1:
        raise EvalError(f"samples must be >= 1, got {samples}")
    stats = np.concatenate([_corpus_stats(hyp_a, references),
                            _corpus_stats(hyp_b, references)], axis=1).astype(np.float64)
    n, width = len(references), 2 * MAX_ORDER + 2
    block = max(1, BOOTSTRAP_BLOCK_CELLS // n)
    rng = np.random.default_rng(seed)
    hits = 0
    for start in range(0, samples, block):
        rows = min(block, samples - start)
        idx = rng.integers(0, n, size=(rows, n))
        idx += np.arange(0, rows * n, n)[:, None]
        counts = np.bincount(idx.ravel(), minlength=rows * n).reshape(rows, n)
        sums = counts @ stats
        hits += int(np.count_nonzero(
            _bleu_rows(sums[:, width:])[0] <= _bleu_rows(sums[:, :width])[0]))
    return hits / samples


def pronoun_form_accuracy(hypotheses: list[list[str]], references: list[list[str]]) -> float:
    """Fraction of sentence pairs whose leading token (the pronoun slot in the
    synthetic language) matches exactly."""
    if len(hypotheses) != len(references):
        raise EvalError("accuracy needs aligned lists")
    if not hypotheses:
        raise EvalError("empty evaluation set")
    hits = sum(1 for h, r in zip(hypotheses, references) if h and r and h[0] == r[0])
    return hits / len(hypotheses)


# ---------------------------------------------------------------------------
# coreference annotations
# ---------------------------------------------------------------------------

GENDER_LABELS = ("masc", "fem", "neut", "plur")


@dataclass
class CorefAnnotation:
    example_id: str
    pronoun: str
    pronoun_index: int
    antecedent_span: tuple[int, int]
    antecedent_has_noun: bool
    context_noun_count: int
    gender_label: str | None = None
    noun_positions: list[int] = field(default_factory=list)

    def __post_init__(self):
        start, end = self.antecedent_span
        if start < 0 or end < start:
            raise EvalError(f"{self.example_id}: bad antecedent span {self.antecedent_span}")
        if self.context_noun_count < 0:
            raise EvalError(f"{self.example_id}: negative noun count")
        if self.gender_label is not None and not self.antecedent_has_noun:
            raise EvalError(f"{self.example_id}: gender label without a noun antecedent")
        if self.gender_label is not None and self.gender_label not in GENDER_LABELS:
            raise EvalError(f"{self.example_id}: unknown gender {self.gender_label!r}")


def write_annotations(path: str, annotations: list[CorefAnnotation]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for a in annotations:
            span = f"{a.antecedent_span[0]}:{a.antecedent_span[1]}"
            nouns = ",".join(str(p) for p in a.noun_positions) if a.noun_positions else "-"
            fh.write("\t".join([
                a.example_id, a.pronoun, str(a.pronoun_index), span,
                "1" if a.antecedent_has_noun else "0", str(a.context_noun_count),
                a.gender_label or "-", nouns]) + "\n")


def read_annotations(path: str) -> list[CorefAnnotation]:
    annotations = []
    for lineno, line in numbered_lines(path, EvalError):
        fields = line.rstrip("\n").split("\t")
        if len(fields) != 8:
            raise EvalError(f"{path}:{lineno}: expected 8 tab-separated fields")
        eid, pron, pidx, span, has_noun, count, gender, nouns = fields
        start, _, end = span.partition(":")
        try:
            annotations.append(CorefAnnotation(
                example_id=eid,
                pronoun=pron,
                pronoun_index=int(pidx),
                antecedent_span=(int(start), int(end)),
                antecedent_has_noun=has_noun == "1",
                context_noun_count=int(count),
                gender_label=None if gender == "-" else gender,
                noun_positions=[] if nouns == "-" else [int(p) for p in nouns.split(",")],
            ))
        except ValueError as exc:
            raise EvalError(f"{path}:{lineno}: malformed annotation ({exc})") from None
    return annotations


def build_pronoun_testset(examples, annotations: list[CorefAnnotation],
                          pronouns: set[str] | None = None,
                          require_noun_antecedent: bool = False,
                          min_context_nouns: int = 0):
    """Subset of (examples, annotations) passing all filters, order preserved.

    Annotations must reference existing example ids; dangling ids are an
    error. Also returns per-pronoun counts over the selected subset.
    """
    by_id = {ex.example_id: ex for ex in examples}
    dangling = [a.example_id for a in annotations if a.example_id not in by_id]
    if dangling:
        raise EvalError(f"annotations reference unknown example ids: {dangling[:10]}")
    sub_examples, sub_annotations = [], []
    counts: collections.Counter = collections.Counter()
    for a in annotations:
        if pronouns is not None and a.pronoun not in pronouns:
            continue
        if require_noun_antecedent and not a.antecedent_has_noun:
            continue
        if a.context_noun_count < min_context_nouns:
            continue
        sub_examples.append(by_id[a.example_id])
        sub_annotations.append(a)
        counts[a.pronoun] += 1
    return sub_examples, sub_annotations, dict(counts)


def split_by_gender(annotations: list[CorefAnnotation]) -> dict[str, list[CorefAnnotation]]:
    buckets: dict[str, list[CorefAnnotation]] = {g: [] for g in GENDER_LABELS}
    for a in annotations:
        if a.gender_label is None:
            raise EvalError(f"{a.example_id}: gender label missing")
        buckets[a.gender_label].append(a)
    return buckets


# ---------------------------------------------------------------------------
# plain-text tables
# ---------------------------------------------------------------------------


def render_table(headers: list[str], rows: list[list[str]]) -> str:
    """Fixed-width text table; callers format numerics themselves."""
    table = [headers] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = []
    for r, row in enumerate(table):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
