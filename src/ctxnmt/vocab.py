"""Vocabulary files: one symbol per line, line number = id, specials first.

Source-side sequences use <bos> (a context-role marker prepended to context
sentences only) and <eos>; target-side sequences use <tbos>/<teos>. Both
vocabularies reserve all six specials at the same fixed ids so that models
never have to look them up.
"""

from __future__ import annotations

from pathlib import Path

PAD, UNK, BOS, EOS, TBOS, TEOS = range(6)
SPECIALS = ("<pad>", "<unk>", "<bos>", "<eos>", "<tbos>", "<teos>")


class VocabError(ValueError):
    pass


def numbered_lines(path: str, error: type[Exception]):
    """Yield (line number, line) of a UTF-8 text file; a line holding bytes
    that are not UTF-8 raises `error` naming path:line."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise error(f"{path}:{lineno}: not valid UTF-8") from None
            yield lineno, line


class Vocab:
    def __init__(self, symbols: list[str]):
        if tuple(symbols[: len(SPECIALS)]) != SPECIALS:
            raise VocabError(f"vocabulary must start with the reserved specials {SPECIALS}")
        if len(set(symbols)) != len(symbols):
            raise VocabError("duplicate symbols in vocabulary")
        self.symbols = list(symbols)
        self._ids = {s: i for i, s in enumerate(symbols)}

    @classmethod
    def from_symbols(cls, symbols) -> "Vocab":
        """Build from non-special symbols; specials are prepended."""
        extra = [s for s in symbols if s not in SPECIALS]
        return cls(list(SPECIALS) + extra)

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._ids

    def id_of(self, symbol: str) -> int:
        return self._ids.get(symbol, UNK)

    def encode(self, tokens) -> tuple[list[int], int]:
        """Map tokens to ids; unknowns become UNK. Returns (ids, unk_count)."""
        ids = [self._ids.get(t, UNK) for t in tokens]
        return ids, sum(1 for i in ids if i == UNK)

    def decode(self, ids, strip_specials: bool = False) -> list[str]:
        toks = [self.symbols[i] for i in ids]
        if strip_specials:
            toks = [t for t in toks if t not in SPECIALS]
        return toks

    def save(self, path) -> None:
        Path(path).write_text("\n".join(self.symbols) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Vocab":
        return cls([ln.rstrip("\n") for _, ln in numbered_lines(path, VocabError) if ln != "\n"])
