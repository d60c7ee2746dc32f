"""Correctness checks made apart from the program.

Each check raises CheckError with a message naming what failed; the runner
turns that into a failed run. The BLEU recount here shares no code with
ctxnmt.evaluation.
"""

from __future__ import annotations

import math

import numpy as np


class CheckError(AssertionError):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def bleu4(hypotheses: list[list[str]], references: list[list[str]]) -> float:
    """Unsmoothed corpus BLEU-4 counted from scratch.

    Same conventions as the program documents: an order without any
    hypothesis n-gram leaves the geometric mean, a zero precision among the
    rest gives 0, and the brevity penalty is exp(min(0, 1 - ref/hyp)).
    """
    matches = [0] * 4
    totals = [0] * 4
    hyp_len = ref_len = 0
    for hyp, ref in zip(hypotheses, references, strict=True):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, 5):
            ref_counts: dict[tuple, int] = {}
            for i in range(len(ref) - n + 1):
                g = tuple(ref[i:i + n])
                ref_counts[g] = ref_counts.get(g, 0) + 1
            for i in range(len(hyp) - n + 1):
                g = tuple(hyp[i:i + n])
                totals[n - 1] += 1
                if ref_counts.get(g, 0) > 0:
                    ref_counts[g] -= 1
                    matches[n - 1] += 1
    if hyp_len == 0:
        return 0.0
    logs = []
    for m, t in zip(matches, totals):
        if t == 0:
            continue
        if m == 0:
            return 0.0
        logs.append(math.log(m / t))
    bp = math.exp(min(0.0, 1.0 - ref_len / hyp_len))
    return 100.0 * bp * math.exp(sum(logs) / len(logs))


def read_tokens(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.split() for line in fh.read().splitlines()]


def check_bleu(reported: float, hyp_path: str, references: list[list[str]]) -> None:
    """The program's BLEU over its hypotheses equals a recount over the
    hypothesis file as written."""
    recount = bleu4(read_tokens(hyp_path), references)
    require(abs(reported - recount) <= 1e-9,
            f"BLEU check: corpus_bleu gave {reported!r}, the recount of {hyp_path} "
            f"gives {recount!r}")


def check_decodes(results, max_out: int, label: str) -> None:
    from ctxnmt.vocab import TEOS
    for i, r in enumerate(results):
        if r.truncated:
            require(len(r.ids) == max_out and TEOS not in r.ids,
                    f"{label}: truncated hypothesis {i} has {len(r.ids)} ids, "
                    f"expected exactly {max_out} without the end token")
        else:
            require(len(r.ids) >= 1 and r.ids[-1] == TEOS and TEOS not in r.ids[:-1],
                    f"{label}: untruncated hypothesis {i} does not end in the end token")


def check_greedy_refeed(model, src, ctx, results, max_out: int) -> None:
    """Each greedy token is (within 1e-5) the most probable next token when
    its prefix is fed back to decode_step, and every row sums to 1."""
    from ctxnmt.vocab import TBOS, TEOS
    enc = model.encode(src, ctx, train=False)
    longest = max(len(r.ids) for r in results)
    rows = np.array([[TBOS] + r.ids + [TEOS] * (longest - len(r.ids)) for r in results],
                    dtype=np.int64)
    for t in range(min(longest, max_out)):
        probs = model.decode_step(rows[:, :t + 1], enc)
        sums = probs.sum(axis=1, dtype=np.float64)
        require(np.abs(sums - 1.0).max() <= 1e-5,
                f"decode_step rows sum to {sums.min()!r}..{sums.max()!r}, not 1 within 1e-5")
        for i, r in enumerate(results):
            if t < len(r.ids):
                tok = r.ids[t]
                require(probs[i, tok] >= probs[i].max() - 1e-5,
                        f"greedy token {t} of hypothesis {i} has probability "
                        f"{probs[i, tok]!r}, below the maximum {probs[i].max()!r}")


def _rows(enc, index):
    """The encoder state of the given batch rows, in that order."""
    from ctxnmt import autodiff
    from ctxnmt.model import EncoderState
    index = np.asarray(index)
    return EncoderState(hidden=autodiff.Tensor(enc.hidden.data[index]), mask=enc.mask[index],
                        is_pad=enc.is_pad[index])


def refed_scores(model, enc, index, sequences) -> np.ndarray:
    """Length-normalised log-probability of each id sequence, fed back one
    prefix at a time through decode_step against encoder row index[i]; the
    normalisation is the GNMT length penalty ((5 + n) / 6) ** alpha."""
    from ctxnmt.vocab import TBOS, TEOS
    longest = max(len(ids) for ids in sequences)
    rows = np.array([[TBOS] + ids + [TEOS] * (longest - len(ids)) for ids in sequences],
                    dtype=np.int64)
    state = _rows(enc, index)
    logp = np.zeros(len(sequences))
    for t in range(longest):
        probs = model.decode_step(rows[:, :t + 1], state)
        for i, ids in enumerate(sequences):
            if t < len(ids):
                logp[i] += math.log(float(probs[i, ids[t]]) + 1e-30)
    alpha = model.config.length_penalty
    return np.array([lp / ((5.0 + max(len(ids), 1)) / 6.0) ** alpha
                     for lp, ids in zip(logp, sequences)])


def check_beam(model, src, ctx, beam, greedy, max_out: int) -> None:
    """On one decode batch: greedy equals a width-1 beam search of each row
    (up to a tie within 1e-5 where they part); every greedy and beam score
    equals its sequence's re-fed score within 1e-4; and each beam result's
    re-fed score is at least its greedy one's."""
    from ctxnmt.vocab import TBOS
    require(len(beam) == len(greedy) == src.shape[0], "beam check: result counts differ")
    enc = model.encode(src, ctx, train=False)
    for i, g in enumerate(greedy):
        w = model._beam_single(_rows(enc, [i]), 1, max_out)
        if w.ids == g.ids:
            continue
        t = next((k for k, (a, b) in enumerate(zip(w.ids, g.ids)) if a != b), None)
        require(t is not None, f"beam width 1 and greedy differ in length on sentence {i}")
        probs = model.decode_step(np.array([[TBOS] + g.ids[:t]], dtype=np.int64),
                                  _rows(enc, [i]))[0]
        require(abs(float(probs[w.ids[t]]) - float(probs[g.ids[t]])) <= 1e-5,
                f"beam width 1 differs from greedy on sentence {i} at token {t}, "
                f"which is no tie: {probs[w.ids[t]]!r} against {probs[g.ids[t]]!r}")
    n = len(greedy)
    refed = refed_scores(model, enc, list(range(n)) * 2,
                         [r.ids for r in greedy] + [r.ids for r in beam])
    for i, (r, score) in enumerate(zip(list(greedy) + list(beam), refed)):
        kind, k = ("greedy", i) if i < n else ("beam", i - n)
        require(abs(r.score - score) <= 1e-4,
                f"{kind} result {k} reports score {r.score!r}, its ids re-fed give {score!r}")
    for k in range(n):
        require(refed[n + k] >= refed[k] - 1e-4,
                f"beam result {k} scores {refed[n + k]!r}, below its greedy {refed[k]!r}")
    check_decodes(beam, max_out, "beam")


def check_losses(metrics_path: str, tgt_vocab_size: int) -> list[float]:
    """First loss near ln(target vocab), all finite, last < first.

    At initialisation the logits have a variance near 0.25, which puts the
    expected first loss about 0.13 nats above ln(V); across seeds it spreads
    by a few tenths, so "near" is within 0.75 nats.
    """
    with open(metrics_path, encoding="utf-8") as fh:
        losses = [float(line.split("\t")[2]) for line in fh.read().splitlines()[1:]]
    require(len(losses) > 1, f"{metrics_path}: fewer than two training steps logged")
    require(all(math.isfinite(x) for x in losses), f"{metrics_path}: non-finite loss")
    uniform = math.log(tgt_vocab_size)
    require(abs(losses[0] - uniform) <= 0.75,
            f"first loss {losses[0]} is not near ln({tgt_vocab_size}) = {uniform:.4f}")
    require(losses[-1] < losses[0], f"final loss {losses[-1]} not below first {losses[0]}")
    return losses


def check_roundtrip(model, loaded) -> None:
    ours = dict(model.store.items())
    theirs = dict(loaded.store.items())
    require(ours.keys() == theirs.keys(), "checkpoint round trip changed the parameter set")
    for name, p in ours.items():
        q = theirs[name]
        require(p.data.dtype == q.data.dtype and p.data.shape == q.data.shape
                and p.data.tobytes() == q.data.tobytes(),
                f"checkpoint round trip changed parameter {name}")


def check_records(written, read_back, masses) -> None:
    require(len(written) == len(read_back), "attention records lost in the round trip")
    for a, b in zip(written, read_back):
        require(a.example_id == b.example_id and a.src_tokens == b.src_tokens
                and a.ctx_tokens == b.ctx_tokens,
                f"attention record {a.example_id} changed tokens in the round trip")
        require(np.abs(a.weights - b.weights).max() <= 1e-8,
                f"attention record {a.example_id} weights moved more than 1e-8")
    # 1e-9 of slack for rows that sum to 1 only to float rounding
    require(all(-1e-9 <= m <= 1 + 1e-9 for m in masses), "useful_mass outside [0, 1]")


def check_scoring(evaluation, hypotheses, references) -> None:
    """References score 100 against themselves; a system bootstrapped
    against itself gives p = 1."""
    self_bleu = evaluation.corpus_bleu(references, references).bleu
    require(abs(self_bleu - 100.0) <= 1e-9, f"references against themselves score {self_bleu}")
    p = evaluation.bootstrap_significance(hypotheses, hypotheses, references, samples=50)
    require(p == 1.0, f"a system bootstrapped against itself gives p = {p}")
