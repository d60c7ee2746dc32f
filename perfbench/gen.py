"""Seeded inputs the benchmark feeds to ctxnmt.

The subtitle generator writes raw records in the six-field ingest format
(movie_id, time_start, time_end, overlap, source_text, target_text) and
counts, by its own bookkeeping, what the prepare path must find: well-formed
pairs, malformed lines, pairs kept by the overlap filter and pairs that get a
previous-sentence context. The program never sees those counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_GAP_SECONDS = 7.0
MIN_OVERLAP = 0.9
CONSONANTS = "bdfgklmnprstvz"
VOWELS = "aeiou"
TARGET_ONSETS = "cfhjkqwxy"
TARGET_NUCLEI = "aeiouy"


@dataclass
class SubtitleCorpus:
    lines: list[str]
    n_pairs: int
    n_malformed: int
    n_kept: int
    n_contexts: int
    kept_sources: list[str]
    kept_targets: list[str]


def _lexicon(rng: np.random.Generator, size: int, onsets: str, nuclei: str,
             lengths: list[int] | None = None) -> list[str]:
    """`size` distinct words of one to three syllables (`lengths[i]` for
    word i when given)."""
    syllables = [c + v for c in onsets for v in nuclei]
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        n = lengths[len(words)] if lengths else 1 + int(rng.integers(3))
        w = "".join(syllables[int(i)] for i in rng.integers(len(syllables), size=n))
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


def _malformed(rng: np.random.Generator, movie: str, t: float) -> str:
    kind = int(rng.integers(5))
    if kind == 0:
        return f"{movie}\t{t:.2f}\t{t + 1:.2f}\t0.95\tonly five fields"
    if kind == 1:
        return f"{movie}\tx{t:.2f}\t{t + 1:.2f}\t0.95\tba\tpo"
    if kind == 2:
        return f"{movie}\t{t + 2:.2f}\t{t:.2f}\t0.95\tba\tpo"  # ends before it starts
    if kind == 3:
        return f"{movie}\t{t:.2f}\t{t + 1:.2f}\t1.30\tba\tpo"  # overlap above 1
    return f"{movie}\t{t:.2f}\t{t + 1:.2f}\t0.95\t \tpo"  # blank source


def subtitle_corpus(seed: int, n_movies: int, lines_per_movie: int, n_words: int = 1500,
                    max_words: int = 30, malformed_every: int = 25) -> SubtitleCorpus:
    """Raw subtitle records for `n_movies` movies, each line of 1 to
    `max_words` Zipf-distributed words.

    Line lengths follow one fixed histogram, the quantiles of a geometric
    distribution of mean 12 capped at `max_words` (11 words on average, one
    line in six of one or two words), dealt out in an order drawn from the
    seed: the seed moves which lines are short, not how many are.

    Gaps between consecutive lines fall on both sides of the 7 s context
    limit, overlaps on both sides of the 0.9 filter, and one line in every
    `malformed_every` is malformed in one of five ways (a fixed share, so
    that even a short corpus stays under ingest's 10 % tolerance). The
    target side translates word by word through a second lexicon.
    """
    # How many syllables the word of each Zipf rank has comes from one fixed
    # draw: the seed picks the words, not whether the frequent ones are long.
    # Drawn per seed, that moved the kept lines' length in letters, and with
    # it the BPE work, over 114k-133k on seeds 11-20; fixed, over 126k-130k.
    shape = np.random.default_rng(0)
    src_lengths = [len(w) // 2 for w in _lexicon(shape, n_words, CONSONANTS, VOWELS)]
    tgt_lengths = [len(w) // 2 for w in _lexicon(shape, n_words, TARGET_ONSETS, TARGET_NUCLEI)]
    rng = np.random.default_rng(seed)
    src_words = _lexicon(rng, n_words, CONSONANTS, VOWELS, src_lengths)
    tgt_words = _lexicon(rng, n_words, TARGET_ONSETS, TARGET_NUCLEI, tgt_lengths)
    weights = 1.0 / np.arange(1, n_words + 1) ** 1.1
    weights /= weights.sum()

    p = 1.0 / 12
    quantiles = (np.arange(n_movies * lines_per_movie) + 0.5) / (n_movies * lines_per_movie)
    lengths = np.minimum(max_words, np.ceil(np.log1p(-quantiles) / np.log1p(-p))).astype(int)
    lengths = iter(rng.permutation(lengths).tolist())

    lines: list[str] = []
    out = SubtitleCorpus([], 0, 0, 0, 0, [], [])
    for m in range(n_movies):
        movie = f"movie{m:03d}"
        t = 0.0
        prev_kept_end: float | None = None
        for i in range(lines_per_movie):
            if i % malformed_every == malformed_every - 1:
                lines.append(_malformed(rng, movie, t))
                out.n_malformed += 1
            gap = rng.uniform(0.2, 6.5) if rng.random() < 0.7 else rng.uniform(7.5, 15.0)
            start = round(t + gap, 2)
            end = round(start + rng.uniform(0.8, 5.0), 2)
            t = end
            overlap = round(rng.uniform(0.9, 1.0), 3) if rng.random() < 0.85 \
                else round(rng.uniform(0.5, 0.88), 3)
            ids = rng.choice(n_words, size=next(lengths), p=weights)
            src = " ".join(src_words[i] for i in ids)
            tgt = " ".join(tgt_words[i] for i in ids)
            lines.append(f"{movie}\t{start:.2f}\t{end:.2f}\t{overlap:.3f}\t{src}\t{tgt}")
            out.n_pairs += 1
            if overlap >= MIN_OVERLAP:
                out.n_kept += 1
                out.kept_sources.append(src)
                out.kept_targets.append(tgt)
                if prev_kept_end is not None and start - prev_kept_end <= MAX_GAP_SECONDS:
                    out.n_contexts += 1
                prev_kept_end = end
    out.lines = lines
    return out


def overlong_pairs(n_pairs: int, n_long: int, max_len: int,
                   batch_size: int) -> list[tuple[str, str, str]]:
    """Context/source/target triples of fixed make-up, independent of any seed.

    Every pair but `n_long` has two-word sides, which fit `max_len` jointly
    under any segmentation into at most six pieces a word. The `n_long`
    pairs, one per batch from the first batch on, have a context and a
    source of `max_len` words each, so once each side is truncated to
    max_len separately their concatenation is still too long.
    """
    rng = np.random.default_rng(0)
    words = _lexicon(rng, 64, CONSONANTS, VOWELS)
    tgt_words = _lexicon(rng, 64, TARGET_ONSETS, TARGET_NUCLEI)

    def sentence(n: int, lex: list[str]) -> str:
        return " ".join(lex[int(i)] for i in rng.integers(len(lex), size=n))

    triples = [(sentence(2, words), sentence(2, words), sentence(2, tgt_words))
               for _ in range(n_pairs)]
    for b in range(n_long):
        triples[b * batch_size] = (sentence(max_len, words), sentence(max_len, words),
                                   sentence(2, tgt_words))
    return triples
