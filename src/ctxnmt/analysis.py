"""Attention analysis: useful mass, word tables, curves, anaphora agreement.

Everything here consumes attention dump records (example id, source tokens,
context tokens, head-averaged S×C weight matrix) and the coreference
annotation format, so analyses can run long after training from files alone.
"""

from __future__ import annotations

import json
import unicodedata
from dataclasses import dataclass, field
from importlib import resources
from xml.sax.saxutils import escape

import numpy as np

from . import bpe
from .evaluation import CorefAnnotation
from .vocab import numbered_lines

EXCLUDED_TOKENS = ("<bos>", "<eos>", "<pad>")


class AnalysisError(ValueError):
    pass


def _load_extra_punctuation() -> frozenset[str]:
    text = resources.files("ctxnmt").joinpath("data/punct_extra.txt").read_text("utf-8")
    return frozenset(line.strip() for line in text.splitlines() if line.strip())


EXTRA_PUNCTUATION = _load_extra_punctuation()


def is_punctuation(token: str, extra: frozenset[str] = EXTRA_PUNCTUATION) -> bool:
    if token in extra:
        return True
    return bool(token) and all(unicodedata.category(ch).startswith("P") for ch in token)


@dataclass
class AttentionRecord:
    example_id: str
    src_tokens: list[str]
    ctx_tokens: list[str]
    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.shape != (len(self.src_tokens), len(self.ctx_tokens)):
            raise AnalysisError(
                f"{self.example_id}: weights shape {self.weights.shape} does not match "
                f"{len(self.src_tokens)} source x {len(self.ctx_tokens)} context tokens")
        sums = self.weights.sum(axis=1)
        if np.abs(sums - 1.0).max() > 1e-4:
            raise AnalysisError(f"{self.example_id}: attention rows do not sum to 1")


def write_records(path: str, records: list[AttentionRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps({
                "example_id": r.example_id,
                "src_tokens": r.src_tokens,
                "ctx_tokens": r.ctx_tokens,
                "weights": [[round(float(w), 8) for w in row] for row in r.weights],
            }) + "\n")


def read_records(path: str) -> list[AttentionRecord]:
    records = []
    for lineno, line in numbered_lines(path, AnalysisError):
        if line.strip():
            try:
                d = json.loads(line)
                records.append(AttentionRecord(d["example_id"], d["src_tokens"],
                                               d["ctx_tokens"], d["weights"]))
            except (KeyError, TypeError, ValueError) as exc:
                raise AnalysisError(f"{path}:{lineno}: malformed record ({exc})") from None
    return records


def attention_records(model, batches, src_vocab) -> list[AttentionRecord]:
    """A gated-context model's head-averaged context attention, one record per
    example of `batches` (which yields what `trainer.decode_batches` does)."""
    records = []
    for chunk, src, ctx in batches:
        enc = model.encode(src, ctx)
        for i, ex in enumerate(chunk):
            weights = enc.ctx_attention[i, :len(ex.source_ids), :len(ex.context_ids)]
            records.append(AttentionRecord(ex.example_id, src_vocab.decode(ex.source_ids),
                                           src_vocab.decode(ex.context_ids), weights))
    return records


def included_context_positions(record: AttentionRecord) -> np.ndarray:
    """Boolean mask of context positions that carry useful (content) mass."""
    return np.array([t not in EXCLUDED_TOKENS and not is_punctuation(t)
                     for t in record.ctx_tokens])


def useful_mass(record: AttentionRecord, per_source_token: bool = False):
    """Attention mass on content context words, per source token or averaged."""
    mask = included_context_positions(record)
    per_token = record.weights[:, mask].sum(axis=1) if mask.any() \
        else np.zeros(len(record.src_tokens))
    return per_token if per_source_token else float(per_token.mean())


# ---------------------------------------------------------------------------
# word-level statistics
# ---------------------------------------------------------------------------


@dataclass
class WordStat:
    word: str
    mean_mass: float
    mean_position: float
    count: int


def top_context_words(records: list[AttentionRecord], min_count: int = 10,
                      k: int = 10, position_filter: str = "all") -> list[WordStat]:
    """Source word types ranked by mean useful attention mass.

    Subword pieces are merged back into words; a word's mass is the mean over
    its pieces and its position is the 1-based word position. after_first
    keeps only occurrences beyond the first position.
    """
    if position_filter not in ("all", "after_first"):
        raise AnalysisError(f"position_filter must be all|after_first, got {position_filter!r}")
    if k < 1:
        raise AnalysisError(f"k must be >= 1, got {k}")
    mass_sum: dict[str, float] = {}
    pos_sum: dict[str, float] = {}
    counts: dict[str, int] = {}
    for record in records:
        per_token = useful_mass(record, per_source_token=True)
        for w_idx, piece_idxs in enumerate(bpe.group_pieces(record.src_tokens)):
            position = w_idx + 1
            if position_filter == "after_first" and position == 1:
                continue
            word = bpe.detokenize([record.src_tokens[i] for i in piece_idxs])[0].lower()
            if word in EXCLUDED_TOKENS:
                continue
            mass = float(np.mean([per_token[i] for i in piece_idxs]))
            mass_sum[word] = mass_sum.get(word, 0.0) + mass
            pos_sum[word] = pos_sum.get(word, 0.0) + position
            counts[word] = counts.get(word, 0) + 1
    stats = [WordStat(w, mass_sum[w] / c, pos_sum[w] / c, c)
             for w, c in counts.items() if c >= min_count]
    stats.sort(key=lambda s: (-s.mean_mass, s.word))
    return stats[:k]


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------


@dataclass
class Series:
    name: str
    rows: list[tuple[float, float, int]]  # (bucket, mean, count)


def _bucket_means(pairs: list[tuple[int, float]]) -> list[tuple[float, float, int]]:
    by_bucket: dict[int, list[float]] = {}
    for bucket, value in pairs:
        by_bucket.setdefault(bucket, []).append(value)
    return [(float(b), float(np.mean(vs)), len(vs)) for b, vs in sorted(by_bucket.items())]


def curves(records: list[AttentionRecord],
           bleu_per_sentence: list[float] | None = None,
           cohort_length: int | None = None) -> list[Series]:
    """Mass vs source/context length, mass vs position, BLEU vs source length.

    The position series uses a single cohort of same-length sources: the most
    common length by default, or cohort_length when given (an empty cohort is
    an error naming it).
    """
    if not records:
        raise AnalysisError("no attention records")
    masses = [useful_mass(r) for r in records]
    out = [
        Series("mass_vs_source_length",
               _bucket_means([(len(r.src_tokens), m) for r, m in zip(records, masses)])),
        Series("mass_vs_context_length",
               _bucket_means([(len(r.ctx_tokens), m) for r, m in zip(records, masses)])),
    ]

    lengths = [len(r.src_tokens) for r in records]
    if cohort_length is None:
        counts = {}
        for n in lengths:
            counts[n] = counts.get(n, 0) + 1
        cohort_length = max(sorted(counts), key=lambda n: counts[n])
    cohort = [r for r in records if len(r.src_tokens) == cohort_length]
    if not cohort:
        raise AnalysisError(f"no source sentences of length {cohort_length}")
    per_pos = np.stack([useful_mass(r, per_source_token=True) for r in cohort])
    out.append(Series("mass_vs_source_position",
                      [(float(i + 1), float(per_pos[:, i].mean()), len(cohort))
                       for i in range(cohort_length)]))

    if bleu_per_sentence is not None:
        if len(bleu_per_sentence) != len(records):
            raise AnalysisError("per-sentence BLEU list does not align with records")
        out.append(Series("bleu_vs_source_length",
                          _bucket_means(list(zip(lengths, bleu_per_sentence)))))
    return out


def write_series(path: str, series: Series) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("bucket,mean,count\n")
        for bucket, mean, count in series.rows:
            fh.write(f"{bucket:g},{mean:.6f},{count}\n")


# ---------------------------------------------------------------------------
# anaphora agreement
# ---------------------------------------------------------------------------


def attention_pick(record: AttentionRecord, annotation: CorefAnnotation) -> int | None:
    """Context position with the highest attention from the pronoun token,
    specials and punctuation excluded; None when nothing is eligible."""
    if not 0 <= annotation.pronoun_index < len(record.src_tokens):
        raise AnalysisError(
            f"{record.example_id}: pronoun index {annotation.pronoun_index} out of range")
    mask = included_context_positions(record)
    if not mask.any():
        return None
    row = np.where(mask, record.weights[annotation.pronoun_index], -np.inf)
    return int(row.argmax())  # argmax takes the lowest index on ties


def heuristic_pick(annotation: CorefAnnotation, which: str,
                   rng: np.random.Generator | None = None) -> int | None:
    """Antecedent guess from annotated noun positions; None when there are none."""
    positions = annotation.noun_positions
    if not positions:
        return None
    if which == "first":
        return positions[0]
    if which == "last":
        return positions[-1]
    if which == "random":
        if rng is None:
            raise AnalysisError("random heuristic needs an rng")
        return int(positions[rng.integers(len(positions))])
    raise AnalysisError(f"unknown heuristic {which!r}")


def in_span(pick: int | None, span: tuple[int, int]) -> bool:
    return pick is not None and span[0] <= pick <= span[1]


METHODS = ("random", "first", "last", "attention")


@dataclass
class AgreementReport:
    agreement: dict[str, float]  # method -> percentage over its decided cases
    n_examples: int
    abstains: dict[str, int] = field(default_factory=dict)
    min_nouns: int = 0


def agreement_report(records: list[AttentionRecord],
                     annotations: list[CorefAnnotation],
                     min_nouns: int = 0, seed: int = 0) -> AgreementReport:
    """Percentage of examples where each method's pick lands in the gold span.

    Joined on example_id; examples below the noun-count filter are dropped;
    abstaining picks leave that method's denominator.
    """
    by_id = {r.example_id: r for r in records}
    joined = [(by_id[a.example_id], a) for a in annotations if a.example_id in by_id]
    if not joined:
        raise AnalysisError("no annotation matches any attention record")
    joined = [(r, a) for r, a in joined if a.context_noun_count >= min_nouns]
    rng = np.random.default_rng(seed)
    hits = {m: 0 for m in METHODS}
    decided = {m: 0 for m in METHODS}
    abstains = {m: 0 for m in METHODS}
    for record, ann in joined:
        picks = {
            "random": heuristic_pick(ann, "random", rng),
            "first": heuristic_pick(ann, "first"),
            "last": heuristic_pick(ann, "last"),
            "attention": attention_pick(record, ann),
        }
        for method, pick in picks.items():
            if pick is None:
                abstains[method] += 1
            else:
                decided[method] += 1
                hits[method] += in_span(pick, ann.antecedent_span)
    agreement = {m: 100.0 * hits[m] / decided[m] if decided[m] else 0.0 for m in METHODS}
    return AgreementReport(agreement=agreement, n_examples=len(joined),
                           abstains=abstains, min_nouns=min_nouns)


def confusion_table(picks_a: list[int | None], picks_b: list[int | None],
                    truth_spans: list[tuple[int, int]]) -> np.ndarray:
    """2x2 percentages over (a right / a wrong) x (b right / b wrong).

    An abstaining pick counts as wrong. Cells sum to 100.
    """
    if not len(picks_a) == len(picks_b) == len(truth_spans):
        raise AnalysisError("confusion table needs aligned pick and span lists")
    if not truth_spans:
        raise AnalysisError("confusion table needs at least one example")
    cells = np.zeros((2, 2), dtype=np.int64)
    for a, b, span in zip(picks_a, picks_b, truth_spans):
        cells[0 if in_span(a, span) else 1, 0 if in_span(b, span) else 1] += 1
    return 100.0 * cells / cells.sum()


# ---------------------------------------------------------------------------
# heatmaps
# ---------------------------------------------------------------------------

CELL = 26
LABEL_SPACE = 110


def heatmap_export(record: AttentionRecord, path: str) -> None:
    """Deterministic SVG grid: source tokens down the side, context tokens
    across the top, cell opacity proportional to attention weight."""
    n_src, n_ctx = record.weights.shape
    width = LABEL_SPACE + n_ctx * CELL + 10
    height = LABEL_SPACE + n_src * CELL + 10
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<style>text{font-family:monospace;font-size:11px;fill:#222}</style>',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for j, tok in enumerate(record.ctx_tokens):
        x = LABEL_SPACE + j * CELL + CELL // 2
        parts.append(f'<text x="{x}" y="{LABEL_SPACE - 6}" '
                     f'transform="rotate(-60 {x} {LABEL_SPACE - 6})">{escape(tok)}</text>')
    for i, tok in enumerate(record.src_tokens):
        y = LABEL_SPACE + i * CELL + CELL // 2 + 4
        parts.append(f'<text x="{LABEL_SPACE - 6}" y="{y}" text-anchor="end">{escape(tok)}</text>')
    for i in range(n_src):
        for j in range(n_ctx):
            x, y = LABEL_SPACE + j * CELL, LABEL_SPACE + i * CELL
            parts.append(
                f'<rect x="{x}" y="{y}" width="{CELL}" height="{CELL}" fill="#0d3b66" '
                f'fill-opacity="{record.weights[i, j]:.6f}" stroke="#ccc" stroke-width="0.5"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
