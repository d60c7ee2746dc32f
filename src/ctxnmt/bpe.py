"""Byte-pair encoding over whitespace-tokenized text.

Merges are learned greedily on pair frequency with a lexicographic tie-break,
so a corpus maps to exactly one model. Subword pieces carry a trailing "@@"
connector on every non-final piece; joining on that connector inverts the
segmentation for any text whose characters were seen in training and none of
whose tokens ends in the connector (`data.ingest` rejects records that hold one).

Both directions scale as in Sennrich et al. 2016 (arXiv 1508.07909): the
learner counts pairs once and, after each merge, recounts only the words that
hold the merged pair; the segmenter segments each distinct token once per
model, visiting only the merges that change it.
"""

from __future__ import annotations

import bisect
import collections
import heapq
from dataclasses import dataclass, field

from .vocab import numbered_lines

CONNECTOR = "@@"


class BpeError(ValueError):
    pass


@dataclass(frozen=True)
class BpeModel:
    """A merge list fixed at construction, with the tables that segment by it:
    each pair's ascending ranks (a pair may appear more than once), and the
    pieces of every token segmented so far."""
    merges: tuple[tuple[str, str], ...] = ()
    _ranks: dict = field(init=False, repr=False, compare=False)
    _pieces: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "merges", tuple(self.merges))
        ranks = collections.defaultdict(list)
        for rank, pair in enumerate(self.merges):
            ranks[pair].append(rank)
        object.__setattr__(self, "_ranks", dict(ranks))
        object.__setattr__(self, "_pieces", {})

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for a, b in self.merges:
                fh.write(f"{a} {b}\n")

    @classmethod
    def load(cls, path: str) -> "BpeModel":
        merges = []
        for lineno, line in numbered_lines(path, BpeError):
            parts = line.rstrip("\n").split(" ")
            if len(parts) != 2:
                raise BpeError(f"{path}:{lineno}: bad merge line {line!r}")
            merges.append((parts[0], parts[1]))
        return cls(merges)


def _merge_word(word: tuple[str, ...], pair: tuple[str, str]) -> tuple[str, ...]:
    out = []
    i = 0
    while i < len(word):
        if i + 1 < len(word) and (word[i], word[i + 1]) == pair:
            out.append(word[i] + word[i + 1])
            i += 2
        else:
            out.append(word[i])
            i += 1
    return tuple(out)


def learn_bpe(lines, num_merges: int) -> BpeModel:
    """Learn `num_merges` merges from an iterable of whitespace-tokenized lines."""
    if num_merges < 0:
        raise BpeError(f"num_merges must be >= 0, got {num_merges}")
    token_freqs: collections.Counter = collections.Counter()
    for line in lines:
        token_freqs.update(line.split())
    words = [tuple(token) for token in token_freqs]
    freqs = list(token_freqs.values())
    counts: collections.Counter = collections.Counter()
    holders = collections.defaultdict(set)  # pair -> indices of the words that hold it
    for i, word in enumerate(words):
        for pair in zip(word, word[1:]):
            counts[pair] += freqs[i]
            holders[pair].add(i)
    # deterministic: the most frequent pair, the smallest among equals; an
    # entry whose count is no longer the pair's is stale and skipped
    heap = [(-count, pair) for pair, count in counts.items()]
    heapq.heapify(heap)

    merges = []
    while heap and len(merges) < num_merges:
        neg_count, best = heapq.heappop(heap)
        if counts.get(best) != -neg_count:
            continue
        merges.append(best)
        delta: collections.Counter = collections.Counter()
        for i in holders.pop(best):
            old = words[i]
            words[i] = new = _merge_word(old, best)
            for pair in zip(old, old[1:]):
                delta[pair] -= freqs[i]
                holders[pair].discard(i)
            for pair in zip(new, new[1:]):
                delta[pair] += freqs[i]
                holders[pair].add(i)
        for pair, change in delta.items():
            if change:
                counts[pair] += change
                if counts[pair]:
                    heapq.heappush(heap, (-counts[pair], pair))
                else:
                    del counts[pair], holders[pair]
    return BpeModel(merges)


def _replay(ranks: dict, token: str) -> tuple[str, ...]:
    """The pieces of `token` after every merge in rank order. After rank k
    the next merge that changes the word is the smallest rank above k whose
    pair it holds, so only those merges are applied."""
    word = tuple(token)
    done = -1
    while True:
        best = None
        for pair in zip(word, word[1:]):
            later = ranks.get(pair, ())
            j = bisect.bisect_right(later, done)
            if j < len(later) and (best is None or later[j] < best[0]):
                best = (later[j], pair)
        if best is None:
            return tuple(p + CONNECTOR for p in word[:-1]) + word[-1:]
        done = best[0]
        word = _merge_word(word, best[1])


def segment_word(model: BpeModel, token: str) -> list[str]:
    return apply_bpe(model, [token])


def apply_bpe(model: BpeModel, tokens: list[str]) -> list[str]:
    ranks, pieces = model._ranks, model._pieces
    out = []
    for token in tokens:
        got = pieces.get(token)
        if got is None:
            got = pieces[token] = _replay(ranks, token)
        out.extend(got)
    return out


def detokenize(pieces: list[str]) -> list[str]:
    """Invert apply_bpe: glue each connector-marked piece onto its successor."""
    words: list[str] = []
    buf = ""
    for piece in pieces:
        if piece.endswith(CONNECTOR):
            buf += piece[: -len(CONNECTOR)]
        else:
            words.append(buf + piece)
            buf = ""
    if buf:
        words.append(buf)  # dangling connector at end of line
    return words


def group_pieces(pieces: list[str]) -> list[list[int]]:
    """Indices of the pieces belonging to each detokenized word, in order."""
    groups: list[list[int]] = []
    current: list[int] = []
    for i, piece in enumerate(pieces):
        current.append(i)
        if not piece.endswith(CONNECTOR):
            groups.append(current)
            current = []
    if current:
        groups.append(current)
    return groups


def vocab_symbols(lines) -> list[str]:
    """Corpus symbols by descending frequency, ties alphabetical."""
    counts: collections.Counter = collections.Counter()
    for line in lines:
        counts.update(line.split())
    return [s for s, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]
