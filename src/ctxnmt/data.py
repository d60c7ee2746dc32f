"""Corpus ingestion, context attachment, and the prepared-dataset format.

Raw input is a UTF-8 stream of tab-separated records: movie_id, time_start,
time_end, overlap, source_text, target_text. A prepared dataset is one line
per example, "context<TAB>source<TAB>target", tokens space-separated (already
subword-segmented); token ids are only assigned at load time via a Vocab.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .bpe import CONNECTOR
from .vocab import BOS, EOS, TBOS, TEOS, Vocab, numbered_lines

CONTEXT_DIRECTIONS = ("previous", "next", "none", "shuffled")


class DataError(ValueError):
    pass


@dataclass
class RawPair:
    movie_id: str
    time_start: float
    time_end: float
    overlap: float
    source_text: str
    target_text: str


@dataclass
class ContextedPair:
    pair: RawPair
    context_text: str
    has_real_context: bool


@dataclass
class Example:
    example_id: str
    context_ids: list[int]
    source_ids: list[int]
    target_ids: list[int]

    def __post_init__(self):
        if not self.source_ids or not self.target_ids:
            raise DataError(f"example {self.example_id}: empty source or target")


# ---------------------------------------------------------------------------
# raw corpus handling
# ---------------------------------------------------------------------------


def ingest(lines, max_malformed_fraction: float = 0.10) -> tuple[list[RawPair], int]:
    """Parse raw records; malformed lines are skipped and counted. Among them
    are lines with bytes that are not UTF-8, and records with a token ending
    in the BPE connector, which detokenizing would glue to the next word."""
    if not 0.0 <= max_malformed_fraction <= 1.0:
        raise DataError(f"max_malformed_fraction must be in [0, 1], got {max_malformed_fraction}")
    pairs = []
    skipped = 0
    total = 0
    for line in lines:
        line = line.rstrip("\n")
        if not line:
            continue
        total += 1
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            skipped += 1
            continue
        fields = line.split("\t")
        if len(fields) != 6:
            skipped += 1
            continue
        movie_id, t0, t1, overlap, src, tgt = fields
        try:
            t0, t1, overlap = float(t0), float(t1), float(overlap)
        except ValueError:
            skipped += 1
            continue
        if t1 < t0 or not 0.0 <= overlap <= 1.0 or not src.strip() or not tgt.strip():
            skipped += 1
            continue
        if CONNECTOR in line and any(t.endswith(CONNECTOR) for t in src.split() + tgt.split()):
            skipped += 1
            continue
        pairs.append(RawPair(movie_id, t0, t1, overlap, src.strip(), tgt.strip()))
    if total and skipped / total > max_malformed_fraction:
        raise DataError(
            f"{skipped} of {total} lines malformed, above the "
            f"{max_malformed_fraction:.0%} tolerance")
    return pairs, skipped


def ingest_file(path: str, max_malformed_fraction: float = 0.10) -> tuple[list[RawPair], int]:
    try:
        # bytes that are not UTF-8 decode to lone surrogates: ingest skips those lines
        fh = open(path, encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with fh:
        return ingest(fh, max_malformed_fraction)


def filter_pairs(pairs: list[RawPair], min_overlap: float = 0.9) -> list[RawPair]:
    """Keep pairs whose alignment overlap is at least min_overlap (inclusive)."""
    return [p for p in pairs if p.overlap >= min_overlap]


def attach_context(pairs: list[RawPair], direction: str, max_gap_seconds: float = 7.0,
                   seed: int | None = None) -> list[ContextedPair]:
    """Pick each pair's context sentence from its movie-internal neighbor.

    previous: the preceding pair's source, if current.time_start minus
    previous.time_end is at most max_gap_seconds (inclusive). next: symmetric.
    shuffled: previous-mode contexts permuted across the whole set (seeded).
    none: every context empty. Pairs must be time-sorted within each movie.
    """
    if direction not in CONTEXT_DIRECTIONS:
        raise DataError(f"direction must be one of {CONTEXT_DIRECTIONS}, got {direction!r}")

    base = "previous" if direction == "shuffled" else direction
    out = []
    for movie_id, group_iter in itertools.groupby(pairs, key=lambda p: p.movie_id):
        group = list(group_iter)
        starts = [p.time_start for p in group]
        if starts != sorted(starts):
            raise DataError(f"movie {movie_id}: pairs not sorted by time_start")
        for i, cur in enumerate(group):
            ctx = ""
            if base == "previous" and i > 0:
                prev = group[i - 1]
                if cur.time_start - prev.time_end <= max_gap_seconds:
                    ctx = prev.source_text
            elif base == "next" and i + 1 < len(group):
                nxt = group[i + 1]
                if nxt.time_start - cur.time_end <= max_gap_seconds:
                    ctx = nxt.source_text
            out.append(ContextedPair(cur, ctx, bool(ctx)))

    if direction == "shuffled":
        shuffled = shuffle_contexts([(cp.context_text, "", "") for cp in out], seed)
        out = [ContextedPair(cp.pair, ctx, cp.has_real_context)
               for cp, (ctx, _, _) in zip(out, shuffled)]
    return out


def shuffle_contexts(triples: list[tuple[str, str, str]], seed: int) -> list[tuple[str, str, str]]:
    """Permute the non-empty context fields of prepared triples (seeded)."""
    real_idx = [i for i, (ctx, _, _) in enumerate(triples) if ctx]
    contexts = [triples[i][0] for i in real_idx]
    perm = np.random.default_rng(seed).permutation(len(contexts))
    out = list(triples)
    for slot, j in zip(real_idx, perm):
        _, src, tgt = out[slot]
        out[slot] = (contexts[j], src, tgt)
    return out


# ---------------------------------------------------------------------------
# prepared-dataset files
# ---------------------------------------------------------------------------


def write_prepared(path: str, triples: list[tuple[str, str, str]]) -> None:
    """Each triple is (context, source, target) as space-joined token strings."""
    with open(path, "w", encoding="utf-8") as fh:
        for ctx, src, tgt in triples:
            if "\t" in ctx or "\t" in src or "\t" in tgt:
                raise DataError("prepared fields must not contain tabs")
            fh.write(f"{ctx}\t{src}\t{tgt}\n")


def read_prepared(path: str) -> list[tuple[str, str, str]]:
    triples = []
    for lineno, line in numbered_lines(path, DataError):
        fields = line.rstrip("\n").split("\t")
        if len(fields) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 tab-separated fields")
        triples.append((fields[0], fields[1], fields[2]))
    return triples


@dataclass
class EncodeStats:
    unk_count: int = 0
    truncated_contexts: int = 0
    truncated_sources: int = 0
    truncated_targets: int = 0


def encode_examples(triples: list[tuple[str, str, str]], src_vocab: Vocab,
                    tgt_vocab: Vocab, max_len: int) -> tuple[list[Example], EncodeStats]:
    """Turn prepared triples into id sequences with specials attached.

    Context rows become [bos, ..., eos] (a bare [bos, eos] when empty), source
    rows [..., eos], target rows [tbos, ..., teos]. Sequences are truncated to
    fit max_len, counted in the returned stats.
    """
    stats = EncodeStats()
    examples = []
    for i, (ctx, src, tgt) in enumerate(triples):
        if not src.split() or not tgt.split():
            raise DataError(f"example {i}: empty source or target")
        ctx_ids, unk_c = src_vocab.encode(ctx.split())
        src_ids, unk_s = src_vocab.encode(src.split())
        tgt_ids, unk_t = tgt_vocab.encode(tgt.split())
        stats.unk_count += unk_c + unk_s + unk_t
        if len(ctx_ids) > max_len - 2:
            ctx_ids = ctx_ids[: max_len - 2]
            stats.truncated_contexts += 1
        if len(src_ids) > max_len - 1:
            src_ids = src_ids[: max_len - 1]
            stats.truncated_sources += 1
        if len(tgt_ids) > max_len - 2:
            tgt_ids = tgt_ids[: max_len - 2]
            stats.truncated_targets += 1
        examples.append(Example(
            example_id=str(i),
            context_ids=[BOS] + ctx_ids + [EOS],
            source_ids=src_ids + [EOS],
            target_ids=[TBOS] + tgt_ids + [TEOS],
        ))
    return examples, stats
