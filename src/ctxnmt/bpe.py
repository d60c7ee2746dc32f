"""Byte-pair encoding over whitespace-tokenized text.

Merges are learned greedily on pair frequency with a lexicographic tie-break,
so a corpus maps to exactly one model. Subword pieces carry a trailing "@@"
connector on every non-final piece; joining on that connector inverts the
segmentation for any text whose characters were seen in training.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field

from .vocab import numbered_lines

CONNECTOR = "@@"


class BpeError(ValueError):
    pass


@dataclass
class BpeModel:
    merges: list[tuple[str, str]] = field(default_factory=list)

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


def _pair_counts(word_freqs: dict[tuple[str, ...], int]) -> collections.Counter:
    counts: collections.Counter = collections.Counter()
    for word, freq in word_freqs.items():
        for pair in zip(word, word[1:]):
            counts[pair] += freq
    return counts


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
    word_freqs: dict[tuple[str, ...], int] = collections.Counter()
    for line in lines:
        for token in line.split():
            word_freqs[tuple(token)] += 1

    merges = []
    for _ in range(num_merges):
        counts = _pair_counts(word_freqs)
        if not counts:
            break
        best_freq = max(counts.values())
        # deterministic: among equally frequent pairs take the smallest
        best = min(p for p, c in counts.items() if c == best_freq)
        merges.append(best)
        word_freqs = collections.Counter(
            {_merge_word(w, best): f for w, f in word_freqs.items()})
    return BpeModel(merges)


def segment_word(model: BpeModel, token: str) -> list[str]:
    word = tuple(token)
    for pair in model.merges:
        if len(word) == 1:
            break
        word = _merge_word(word, pair)
    return [p + CONNECTOR for p in word[:-1]] + [word[-1]]


def apply_bpe(model: BpeModel, tokens: list[str]) -> list[str]:
    out = []
    for token in tokens:
        out.extend(segment_word(model, token))
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
