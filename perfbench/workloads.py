"""The benchmark's workloads: inputs, timed phases, checks and metrics.

A run times one round: prepare and train once, then `reps` cycles of prepare
(again), greedy, beam, score, attention and, on `subtitles`, the concat loss
calls. Each end-to-end metric is the median of its phase's samples. All
timing is done here, around calls into ctxnmt's public functions.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from ctxnmt import analysis, autodiff, bpe, data, evaluation, synthetic, trainer
from ctxnmt import model as M
from ctxnmt.vocab import PAD, TEOS, Vocab

import checks
import gen
from checks import CheckError, require
from spans import Tracer

DECODE_BATCH = 32  # the default --batch-size of `ctxnmt translate` and `dump-attention`
BEAM_WIDTH = 4
SYSTEM_OF_MODE = {"none": "none", "gated-context": "gated", "concat": "concat"}
MODE_OF_SYSTEM = {"none": "none", "gated": "gated-context", "concat": "concat",
                  "gated-shuffled": "gated-context"}


@dataclass(frozen=True)
class Config:
    kind: str  # "synthetic" or "subtitles"
    modes: tuple[str, ...]  # context modes trained, from the same seed
    train_size: int  # synthetic: train examples; subtitles: lines per movie
    dev_size: int
    test_size: int
    budget: int  # token budget of a training batch
    steps: int  # training steps per mode; a whole number of epochs when epoch_batches is set
    warmup: int
    checkpoint_every: int
    max_len: int
    max_out: int
    dropout: float
    label_smoothing: float
    beam_size: int  # test sentences decoded by beam search
    bootstrap_samples: int
    reps: int  # cycles of the phases after train within a round
    score_reps: int  # score repetitions per cycle, so that the short phase gets more samples
    movies: int = 0
    merges: int = 0
    # when set, the token budget is fitted to the seed's training set so that
    # an epoch is exactly this many batches, and checkpoint_every equals it:
    # each timed segment is then one whole epoch, the batch of the shortest
    # sources (which carries the most contexts) included
    epoch_batches: int = 0
    concat_pairs: int = 0  # fixed concat dev pairs, `concat_long` of them too long
    concat_long: int = 0
    concat_batch: int = 16


CONFIGS = {
    # the acceptance model and batch size
    "anaphora": Config(
        kind="synthetic", modes=("gated-context",), train_size=20000, dev_size=200,
        test_size=1000, budget=1600, steps=30, warmup=60, checkpoint_every=6,
        max_len=24, max_out=3, dropout=0.0, label_smoothing=0.0, beam_size=128,
        bootstrap_samples=500, reps=6, score_reps=2),
    "subtitles": Config(
        kind="subtitles", modes=("gated-context",), train_size=160, dev_size=64,
        test_size=48, budget=800, steps=60, warmup=40, checkpoint_every=20,
        max_len=40, max_out=39, dropout=0.1, label_smoothing=0.1, beam_size=12,
        bootstrap_samples=50000, reps=4, score_reps=3, movies=8, merges=100,
        epoch_batches=20, concat_pairs=128, concat_long=2),
    # a smaller batch so that three models train in the time of one
    "ablation": Config(
        kind="synthetic", modes=("none", "gated-context", "concat"), train_size=10000,
        dev_size=200, test_size=1000, budget=400, steps=30, warmup=60,
        checkpoint_every=6, max_len=24, max_out=3, dropout=0.0, label_smoothing=0.0,
        beam_size=128, bootstrap_samples=500, reps=6, score_reps=1),
}


def shrink(cfg: Config) -> Config:
    """The same workload at warm-up sizes."""
    return dataclasses.replace(
        cfg, train_size=min(cfg.train_size, 120 if cfg.kind == "synthetic" else 40),
        dev_size=16, test_size=32, steps=4, warmup=40, checkpoint_every=2, beam_size=2,
        bootstrap_samples=20, reps=1, score_reps=1, movies=min(cfg.movies, 2),
        merges=min(cfg.merges, 20), epoch_batches=min(cfg.epoch_batches, 2),
        concat_pairs=min(cfg.concat_pairs, 32))


def print_environment(thread_vars) -> None:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    threads = " ".join(f"{v}={os.environ.get(v)}" for v in thread_vars)
    print(f"env nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={np.__version__} blas={blas} {threads}")


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def child_seeds(seed: int, n: int) -> list[int]:
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(n)]


@dataclass
class Sample:
    seconds: float
    units: float  # sentences, records or target tokens done in the rep
    traced: bool
    parts: dict | None = None  # train: mode -> [Segment] in order


@dataclass
class Segment:
    """checkpoint_every training steps, from the end of one periodic save of
    last.ckpt (or the start of training) to the end of the next."""
    start: float
    end: float
    tokens: int
    traced: bool

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Prepared:
    src_vocab: Vocab
    tgt_vocab: Vocab
    train: list
    dev: list
    test: dict  # system name -> test examples (real or shuffled contexts)
    references: list[list[str]]
    attend: list  # examples whose attention is dumped and analysed
    annotations: list = field(default_factory=list)
    bpe_models: tuple | None = None
    counts: tuple | None = None  # subtitles: (read, malformed, kept, contexts)
    triples: list | None = None  # subtitles: the prepared file as read back


def fingerprint(prep: Prepared) -> str:
    """Digest of every encoded example, to compare repetitions."""
    h = hashlib.sha256()
    for examples in (prep.train, prep.dev, *prep.test.values()):
        for e in examples:
            h.update(repr((e.context_ids, e.source_ids, e.target_ids)).encode())
    return h.hexdigest()


@dataclass
class Out:
    value: object = None
    units: float = 0.0
    ops: int = 0
    failed: int = 0
    same: object = None  # what every repetition must reproduce exactly
    parts: dict | None = None


class Bench:
    def __init__(self, workload: str, seed: int, trace: bool, tiny: bool, out_dir: str,
                 declared_layers: set[str]):
        self.cfg = shrink(CONFIGS[workload]) if tiny else CONFIGS[workload]
        self.trace = trace
        # the per-layer metrics every workload measures; the result carries
        # these, and the workload-specific ones (synthetic.generate, bpe.learn,
        # trainer.step_ms.none, ...) are printed as `layer` lines above it
        self.declared_layers = declared_layers
        self.out_dir = out_dir
        (self.data_seed, self.init_seed, self.train_seed,
         self.shuffle_seed) = child_seeds(seed, 4)
        self.tr = Tracer()
        self.samples: dict[str, list[Sample]] = {}
        self.setup_parts: dict[str, list[float]] = {"imports": [], "inputs": [], "model": []}
        self._same: dict[str, object] = {}
        self.counts: dict[str, float] = {}
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self._train_batches: list = []
        self._saves: list[float] = []
        self._alternate = False  # trace every other training segment
        self._undo: list[tuple[object, str, object]] = []
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        self._count_batches()
        self._declare_spans()

    # -- instrumentation -------------------------------------------------------

    def _count_batches(self) -> None:
        """Keep the training batches trainer.train draws (one call per epoch)
        and the time of each periodic last.ckpt save, which splits training
        into segments of checkpoint_every steps; in traced and untraced runs.

        In a traced run's training the segments are traced and untraced in
        turn, the switch made as each segment's closing save ends, so that
        the tracing overhead of training can be measured within one run.
        """
        make_batches, save = trainer.make_batches, trainer.save_checkpoint

        def recording(examples, token_budget, rng=None):
            drawn = make_batches(examples, token_budget, rng)
            if rng is not None:
                self._train_batches.extend(drawn)
            return drawn

        def marking(model, path):
            out = save(model, path)
            if os.path.basename(path) == "last.ckpt":
                self._saves.append(time.perf_counter())
                if self._alternate:
                    self.tr.trace(len(self._saves) % 2 == 1)
            return out

        trainer.make_batches = recording
        trainer.save_checkpoint = marking
        self._undo += [(trainer, "make_batches", make_batches),
                       (trainer, "save_checkpoint", save)]

    def _declare_spans(self) -> None:
        """The program's own calls that become spans while tracing."""
        p = self.tr.patch
        p(trainer, "make_batches", "trainer.make_batches", lambda a: {"examples": len(a[0])})
        p(trainer, "save_checkpoint", "trainer.checkpoint")
        p(trainer, "evaluate_loss", "trainer.dev_eval")
        p(trainer, "clip_global_norm", "trainer.clip")
        p(trainer, "adam_step", "trainer.adam")
        p(autodiff.Tape, "backward", "autodiff.backward",
          lambda a: {"records": len(a[0])})
        p(M.Transformer, "loss", "model.loss")
        p(M.Transformer, "encode", "model.encode")
        p(M.Transformer, "translate", "model.translate")
        p(M.Transformer, "decode_step", "model.decode_step",
          lambda a: {"prefix": int(np.asarray(a[1]).shape[1])})
        p(M, "load_checkpoint", "model.load_checkpoint")

    def close(self) -> None:
        self.tr.trace(False)
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- running -----------------------------------------------------------------

    def run(self, seconds: float) -> dict:
        """Set up, warm up, then time one round. The workload's sizes, not
        `seconds`, fix the work, so that every run attempts the same
        operations however fast the machine is. `seconds` is only reported."""
        cfg = self.cfg
        raw = self.setup(cfg)
        warm_cfg = shrink(cfg)
        self.round(warm_cfg, self.make_inputs(warm_cfg, "warmup"), record=False)
        began = time.perf_counter()
        self.round(cfg, raw, record=True)
        print(f"round of {time.perf_counter() - began:.3f} s (nominal {seconds:g} s); "
              f"attempted {self.attempted}, failed {self.failed}")
        for name, digest in sorted(self.digests.items()):
            print(f"digest {name} sha256 {digest}")
        for phase, samples in self.samples.items():
            print(f"phase {phase}: " + " ".join(
                f"{s.seconds:.4f}s{'*' if s.traced else ''}" for s in samples))
        for mode, segments in (self.samples["train"][0].parts or {}).items():
            print(f"segments {mode}: " + " ".join(
                f"{g.tokens / g.seconds:.1f}tok/s{'*' if g.traced else ''}" for g in segments))
        if self.trace:
            self.tr.write(os.path.join(self.out_dir, "spans.jsonl"))
            metrics = self.layer_metrics()
        else:
            metrics = self.end_to_end_metrics()
        return {"correct": True, "attempted": self.attempted, "failed": self.failed,
                "metrics": metrics}

    def phase(self, name: str, fn, record: bool, traced: bool = False):
        """Time one call of fn and return its value.

        Before the call, a collection runs and every object alive is frozen
        out of later collections, so that the phase's own collections cost
        what they would in a fresh `ctxnmt` process, whatever the benchmark
        holds from earlier phases. Every recorded call of a phase must
        reproduce the first one's outputs.
        """
        gc.unfreeze()
        gc.collect()
        gc.freeze()
        self.tr.trace(traced)
        with self.tr.span("phase." + name):
            t0 = time.perf_counter()
            out = fn()
            dt = time.perf_counter() - t0
        self.tr.trace(False)
        if record:
            self.samples.setdefault(name, []).append(Sample(dt, out.units, traced, out.parts))
            self.attempted += out.ops
            self.failed += out.failed
            require(self._same.setdefault(name, out.same) == out.same,
                    f"phase {name}: repetitions gave different outputs")
        return out.value

    # -- inputs --------------------------------------------------------------------

    def setup(self, cfg: Config):
        """Time process start with imports and input generation, three
        times each; their medians go into setup_s."""
        child = [sys.executable, "-c", "import sys; sys.path[:0] = sys.argv[1:]; import workloads",
                 os.path.dirname(os.path.dirname(M.__file__)), os.path.dirname(__file__)]
        for _ in range(3):
            t0 = time.perf_counter()
            subprocess.run(child, check=True)
            self.setup_parts["imports"].append(time.perf_counter() - t0)
        raw = None
        for _ in range(3):
            t0 = time.perf_counter()
            raw = self.make_inputs(cfg, "inputs")
            self.setup_parts["inputs"].append(time.perf_counter() - t0)
        return raw

    def make_inputs(self, cfg: Config, tag: str):
        if cfg.kind == "synthetic":
            seeds = child_seeds(self.data_seed, 3)
            return [synthetic.SyntheticSpec(40, 0.5, size, s) for size, s in
                    zip((cfg.train_size, cfg.dev_size, cfg.test_size), seeds)]
        corpus = gen.subtitle_corpus(self.data_seed, cfg.movies, cfg.train_size)
        path = os.path.join(self.out_dir, f"{tag}.raw.tsv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(corpus.lines) + "\n")
        return corpus, path

    # -- one round -------------------------------------------------------------------

    def round(self, cfg: Config, raw, record: bool) -> None:
        """prepare, model construction, train, then `cfg.reps` cycles of the
        other phases. Cycling spreads each phase's samples over the round, so
        a few slow seconds on a shared machine move one sample per phase,
        not all of them. In a traced run the even cycles and every other
        training segment are traced; the rest run untraced, with no
        wrapper installed, for the tracing overhead."""
        prep_fn = self.prepare_synthetic if cfg.kind == "synthetic" else self.prepare_subtitles
        traced = record and self.trace
        prep = self.phase("prepare", lambda: prep_fn(cfg, raw), record, traced)
        if record and cfg.kind == "subtitles":
            self.check_subtitles(raw[0], prep)

        models = None
        for _ in range(3 if record else 1):
            gc.collect()
            self.tr.trace(traced)
            with self.tr.span("setup"):
                t0 = time.perf_counter()
                models = {mode: self.build_model(cfg, prep, mode) for mode in cfg.modes}
                dt = time.perf_counter() - t0
            self.tr.trace(False)
            if record:
                self.setup_parts["model"].append(dt)

        budget = self.epoch_budget(cfg, prep)
        run_dir = os.path.join(self.out_dir, "round" if record else "warmup")
        ckpts = self.phase("train", lambda: self.train(cfg, prep, models, run_dir, budget,
                                                       alternate=traced), record, traced)
        if record:
            for mode, path in ckpts.items():
                self.keep_digest(f"{SYSTEM_OF_MODE[mode]}.ckpt", path)
            self.check_training(cfg, prep, models, ckpts, run_dir)
        del models

        for cycle in range(cfg.reps if record else 1):
            traced = record and self.trace and cycle % 2 == 0
            if cycle:
                prep = None
                prep = self.phase("prepare", lambda: prep_fn(cfg, raw), record, traced)
            self.cycle(cfg, prep, ckpts, run_dir, record, traced, record and cycle == 0)

    def cycle(self, cfg, prep, ckpts, run_dir, record, traced, check) -> None:
        hyps, results, loaded = self.phase(
            "greedy", lambda: self.greedy(cfg, prep, ckpts, run_dir), record, traced)
        if record:
            self.counts["model.out_tokens"] = sum(len(r.ids) for rs in results.values()
                                                  for r in rs)
            self.counts["model.truncated"] = sum(r.truncated for rs in results.values()
                                                 for r in rs)
            for system in hyps:
                self.keep_digest(f"{system}.hyp", os.path.join(run_dir, f"{system}.hyp"))
        gated = loaded["gated"]
        beam = self.phase("beam", lambda: self.beam(cfg, prep, gated), record, traced)

        for _ in range(cfg.score_reps if record else 1):
            scores, p_values = self.phase("score", lambda: self.score(cfg, prep, hyps), record,
                                          traced)
        if check:
            for system, (bleu_score, _) in scores.items():
                checks.check_bleu(bleu_score, os.path.join(run_dir, f"{system}.hyp"),
                                  prep.references)
            checks.check_scoring(evaluation, hyps["gated"], prep.references)
            self.check_decoding(cfg, prep, gated, results, beam)
            self.reference_figures(scores, p_values, results)

        att = self.phase("attention", lambda: self.attention(cfg, prep, gated, run_dir),
                         record, traced)
        if check:
            records, back, masses, agreement = att
            checks.check_records(records, back, masses)
            if agreement is not None:
                require(agreement["first"] == 100.0 and agreement["last"] == 0.0,
                        f"first/last heuristics score {agreement['first']}/"
                        f"{agreement['last']} on multi-noun examples, not 100/0")
        if cfg.concat_pairs:
            self.phase("concat_loss", lambda: self.concat_loss(cfg, prep), record, traced)

    def keep_digest(self, name: str, path: str) -> None:
        digest = sha256(path)
        require(self.digests.setdefault(name, digest) == digest,
                f"{name} differs between repetitions of the same seed")

    # -- phases --------------------------------------------------------------------

    def prepare_synthetic(self, cfg: Config, specs) -> Out:
        sp = self.tr.span
        train_spec, dev_spec, test_spec = specs
        with sp("synthetic.generate"):
            train_t, _ = synthetic.generate(train_spec)
            dev_t, _ = synthetic.generate(dev_spec)
            test_t, annotations = synthetic.generate(test_spec)
        with sp("vocab.build"):
            src_words, tgt_words = synthetic.vocabulary_words(train_spec)
            sv, tv = Vocab.from_symbols(src_words), Vocab.from_symbols(tgt_words)
        prep = self.encode(cfg, sv, tv, train_t, dev_t, test_t)
        prep.annotations = annotations
        return Out(value=prep, units=1, same=fingerprint(prep))

    def prepare_subtitles(self, cfg: Config, raw) -> Out:
        sp = self.tr.span
        _, path = raw
        with sp("data.ingest"):
            pairs, skipped = data.ingest_file(path)
            kept = data.filter_pairs(pairs, gen.MIN_OVERLAP)
        with sp("data.attach_context"):
            ctxed = data.attach_context(kept, "previous", gen.MAX_GAP_SECONDS)
        with sp("bpe.learn"):
            src_model = bpe.learn_bpe((cp.pair.source_text for cp in ctxed), cfg.merges)
            tgt_model = bpe.learn_bpe((cp.pair.target_text for cp in ctxed), cfg.merges)
        with sp("bpe.apply"):
            def seg(m, text):
                return " ".join(bpe.apply_bpe(m, text.split())) if text else ""
            triples = [(seg(src_model, cp.context_text), seg(src_model, cp.pair.source_text),
                        seg(tgt_model, cp.pair.target_text)) for cp in ctxed]
        with sp("vocab.build"):
            sv = Vocab.from_symbols(bpe.vocab_symbols(
                [t[0] for t in triples] + [t[1] for t in triples]))
            tv = Vocab.from_symbols(bpe.vocab_symbols([t[2] for t in triples]))
        with sp("data.prepared_io"):
            prepared = os.path.join(self.out_dir, "prepared.tsv")
            data.write_prepared(prepared, triples)
            triples = data.read_prepared(prepared)
        n_dev, n_test = cfg.dev_size, cfg.test_size
        train_t = triples[:-(n_dev + n_test)]
        dev_t = triples[-(n_dev + n_test):-n_test]
        test_t = triples[-n_test:]
        prep = self.encode(cfg, sv, tv, train_t, dev_t, test_t)
        # the short test set alone gives too few records to time
        prep.attend = prep.train[:256] + prep.dev + prep.attend
        prep.bpe_models = (src_model, tgt_model)
        prep.counts = (len(pairs), skipped, len(kept), sum(cp.has_real_context for cp in ctxed))
        prep.triples = triples
        return Out(value=prep, units=1, same=fingerprint(prep))

    def encode(self, cfg, sv, tv, train_t, dev_t, test_t) -> Prepared:
        with self.tr.span("data.shuffle_contexts"):
            shuffled_t = data.shuffle_contexts(test_t, self.shuffle_seed)
        with self.tr.span("data.encode_examples"):
            train, _ = data.encode_examples(train_t, sv, tv, cfg.max_len)
            dev, _ = data.encode_examples(dev_t, sv, tv, cfg.max_len)
            test, _ = data.encode_examples(test_t, sv, tv, cfg.max_len)
            shuffled, _ = data.encode_examples(shuffled_t, sv, tv, cfg.max_len)
        test_sets = {SYSTEM_OF_MODE[m]: test for m in cfg.modes}
        test_sets["gated-shuffled"] = shuffled
        references = [bpe.detokenize(t.split()) for _, _, t in test_t]
        return Prepared(sv, tv, train, dev, test_sets, references, attend=test)

    def build_model(self, cfg: Config, prep: Prepared, mode: str) -> M.Transformer:
        """The acceptance model's shape (2 layers, d_model 64, 4 heads, d_ff 128)."""
        with self.tr.span("model.init", mode=mode):
            config = M.ModelConfig(
                n_layers=2, n_heads=4, d_model=64, d_ff=128,
                src_vocab=len(prep.src_vocab), tgt_vocab=len(prep.tgt_vocab),
                dropout=cfg.dropout, label_smoothing=cfg.label_smoothing,
                max_len=cfg.max_len, context_mode=mode)
            return M.Transformer(config, np.random.default_rng(self.init_seed))

    def epoch_budget(self, cfg: Config, prep: Prepared) -> int:
        """cfg.budget, or with epoch_batches the smallest token budget at
        which trainer.make_batches packs the training set into that many
        batches; untimed."""
        if not cfg.epoch_batches:
            return cfg.budget
        lo, hi = 1, sum(len(e.source_ids) for e in prep.train)
        while lo < hi:
            mid = (lo + hi) // 2
            if len(trainer.make_batches(prep.train, mid)) <= cfg.epoch_batches:
                hi = mid
            else:
                lo = mid + 1
        n = len(trainer.make_batches(prep.train, lo))
        require(n == cfg.epoch_batches,
                f"no token budget packs the training set into {cfg.epoch_batches} batches "
                f"(budget {lo} gives {n})")
        return lo

    def train(self, cfg: Config, prep, models: dict, run_dir: str, budget: int,
              alternate: bool) -> Out:
        """Train each mode; units are target tokens, and `parts` holds each
        mode's segments of checkpoint_every steps. With `alternate` (a traced
        run), the even segments are traced and the odd ones not."""
        ckpts, parts, tokens = {}, {}, 0
        every = cfg.checkpoint_every
        for mode, model in models.items():
            opt = trainer.OptimizerConfig(
                d_model=64, warmup_steps=cfg.warmup, token_budget=budget,
                max_steps=cfg.steps, checkpoint_every=every, seed=self.train_seed)
            self._train_batches.clear()
            self._saves[:] = [time.perf_counter()]
            self._alternate = alternate
            traced = self.tr.enabled
            try:
                with self.tr.span("trainer.train", mode=mode):
                    result = trainer.train(model, prep.train, prep.dev, opt,
                                           os.path.join(run_dir, f"train-{mode}"))
            finally:
                self._alternate = False
                self.tr.trace(traced)
            ckpts[mode] = result.last_checkpoint
            counts = [int((b.tgt[:, 1:] != PAD).sum())
                      for b in self._train_batches[:cfg.steps]]
            tokens += sum(counts)
            parts[mode] = [Segment(self._saves[i], self._saves[i + 1],
                                   sum(counts[i * every:(i + 1) * every]),
                                   traced and (i % 2 == 0 or not alternate))
                           for i in range(cfg.steps // every)]
        return Out(value=ckpts, units=tokens, ops=cfg.steps * len(models), parts=parts)

    def greedy(self, cfg: Config, prep, ckpts: dict, run_dir: str) -> Out:
        hyps, results, loaded, ops = {}, {}, {}, 0
        for system, examples in prep.test.items():
            model = M.load_checkpoint(ckpts[MODE_OF_SYSTEM[system]])
            # Decode as if the end token could not be produced (the ignore-EOS
            # of decoding benchmarks), so that every hypothesis runs to
            # max_out: after so short a training, where and whether a model
            # stops varies with the seed, and the decode time with it, up to
            # fortyfold. On the synthetic language max_out is the 3-word target.
            model.out_proj.b.data[TEOS] = -1e4
            loaded[system] = model
            rs = []
            for _, src, ctx in batches(examples, model.config.context_mode != "none"):
                rs += model.translate(src, ctx, mode="greedy", max_out=cfg.max_out)
                ops += 1
            lines = [" ".join(bpe.detokenize(prep.tgt_vocab.decode(r.ids, strip_specials=True)))
                     for r in rs]
            with open(os.path.join(run_dir, f"{system}.hyp"), "w", encoding="utf-8") as fh:
                fh.write("".join(line + "\n" for line in lines))
            hyps[system] = [line.split() for line in lines]
            results[system] = rs
        units = sum(len(rs) for rs in results.values())
        return Out(value=(hyps, results, loaded), units=units, ops=ops, same=hyps)

    def beam(self, cfg: Config, prep, model) -> Out:
        subset = prep.test["gated"][:cfg.beam_size]
        rs, ops = [], 0
        for _, src, ctx in batches(subset, True):
            rs += model.translate(src, ctx, mode="beam", width=BEAM_WIDTH, max_out=cfg.max_out)
            ops += 1
        return Out(value=rs, units=len(subset), ops=ops,
                   same=[(r.ids, r.score, r.truncated) for r in rs])

    def score(self, cfg: Config, prep, hyps: dict) -> Out:
        sp = self.tr.span
        refs = prep.references
        scores, p_values = {}, {}
        for system, hyp in hyps.items():
            with sp("evaluation.corpus_bleu"):
                b = evaluation.corpus_bleu(hyp, refs).bleu
            with sp("evaluation.pronoun_accuracy"):
                acc = evaluation.pronoun_form_accuracy(hyp, refs)
            scores[system] = (b, acc)
        for system in hyps:
            if system != "gated":
                with sp("evaluation.bootstrap"):
                    p_values[system] = evaluation.bootstrap_significance(
                        hyps[system], hyps["gated"], refs,
                        samples=cfg.bootstrap_samples, seed=self.shuffle_seed)
        return Out(value=(scores, p_values), units=1, ops=len(p_values),
                   same=(scores, p_values))

    def attention(self, cfg: Config, prep, model, run_dir: str) -> Out:
        sp = self.tr.span
        examples = prep.attend
        sv = prep.src_vocab
        with sp("analysis.dump"):
            records = []
            for chunk, src, ctx in batches(examples, True):
                enc = model.encode(src, ctx)
                for i, ex in enumerate(chunk):
                    n_src, n_ctx = len(ex.source_ids), len(ex.context_ids)
                    records.append(analysis.AttentionRecord(
                        ex.example_id, sv.decode(ex.source_ids), sv.decode(ex.context_ids),
                        enc.ctx_attention[i, :n_src, :n_ctx]))
        path = os.path.join(run_dir, "attention.jsonl")
        with sp("analysis.write_records"):
            analysis.write_records(path, records)
        with sp("analysis.read_records"):
            back = analysis.read_records(path)
        with sp("analysis.useful_mass"):
            masses = [analysis.useful_mass(r) for r in back]
        with sp("analysis.top_words"):
            top = analysis.top_context_words(back, min_count=10)
        with sp("analysis.curves"):
            series = analysis.curves(back)
        agreement = None
        if prep.annotations:
            with sp("analysis.agreement"):
                agreement = analysis.agreement_report(back, prep.annotations,
                                                      min_nouns=2).agreement
        same = (sha256(path), masses, [(w.word, w.mean_mass) for w in top],
                [s.rows for s in series], agreement)
        return Out(value=(records, back, masses, agreement), units=len(records),
                   ops=len(records), same=same)

    def concat_loss(self, cfg: Config, prep) -> Out:
        """One loss call per fixed dev batch of a concat-mode model.

        The over-long pairs make their batches fail with ModelError until
        encode_examples truncates context and source jointly.
        """
        src_model, tgt_model = prep.bpe_models
        triples = [(" ".join(bpe.apply_bpe(src_model, c.split())),
                    " ".join(bpe.apply_bpe(src_model, s.split())),
                    " ".join(bpe.apply_bpe(tgt_model, t.split())))
                   for c, s, t in gen.overlong_pairs(cfg.concat_pairs, cfg.concat_long,
                                                     cfg.max_len, cfg.concat_batch)]
        examples, _ = data.encode_examples(triples, prep.src_vocab, prep.tgt_vocab, cfg.max_len)
        model = self.build_model(cfg, prep, "concat")
        ops = failed = 0
        losses = []
        for chunk, src, ctx in batches(examples, True, cfg.concat_batch):
            ops += 1
            try:
                loss = model.loss(src, trainer.pad_ids([e.target_ids for e in chunk]),
                                  ctx_ids=ctx)
            except M.ModelError:
                failed += 1
                continue
            require(math.isfinite(float(loss.data)), "concat loss is not finite")
            losses.append(float(loss.data))
        require(failed == cfg.concat_long,
                f"concat loss: {failed} batches failed, the fixed set has {cfg.concat_long} "
                f"over-long pairs")
        return Out(value=losses, units=ops, ops=ops, failed=failed, same=losses)

    # -- checks made once per run ------------------------------------------------

    def check_subtitles(self, corpus, prep: Prepared) -> None:
        counts, triples = prep.counts, prep.triples
        expected = (corpus.n_pairs, corpus.n_malformed, corpus.n_kept, corpus.n_contexts)
        require(counts == expected,
                f"prepare counts (read, malformed, kept, contexts) {counts} differ from "
                f"the generator's {expected}")
        for (_, src, tgt), want_src, want_tgt in zip(triples, corpus.kept_sources,
                                                     corpus.kept_targets):
            require(bpe.detokenize(src.split()) == want_src.split()
                    and bpe.detokenize(tgt.split()) == want_tgt.split(),
                    f"detokenize(apply_bpe(line)) changed {want_src!r}")
        require(len(triples) == corpus.n_kept, "prepared file lost kept lines")

    def check_training(self, cfg, prep, models, ckpts, run_dir) -> None:
        for mode, model in models.items():
            checks.check_losses(os.path.join(run_dir, f"train-{mode}", "metrics.tsv"),
                                len(prep.tgt_vocab))
            checks.check_roundtrip(model, M.load_checkpoint(ckpts[mode]))

    def check_decoding(self, cfg, prep, gated, results, beam) -> None:
        for system, rs in results.items():
            checks.check_decodes(rs, cfg.max_out, f"greedy {system}")
        test = prep.test["gated"]
        _, src, ctx = next(batches(test, True))
        checks.check_greedy_refeed(gated, src, ctx, results["gated"][:len(src)], cfg.max_out)
        subset = test[:cfg.beam_size]
        for start, (_, src, ctx) in zip(range(0, len(subset), DECODE_BATCH),
                                        batches(subset, True)):
            n = src.shape[0]
            checks.check_beam(gated, src, ctx, beam[start:start + n],
                              results["gated"][start:start + n], cfg.max_out)

    def reference_figures(self, scores, p_values, results) -> None:
        for system, (b, acc) in scores.items():
            mean_len = statistics.fmean(len(r.ids) for r in results[system])
            print(f"reference {system}: BLEU {b:.2f}, pronoun accuracy {acc:.3f}, "
                  f"mean output length {mean_len:.2f} ids")
        for system, p in p_values.items():
            print(f"reference bootstrap p({system} >= gated) = {p:.4f}")

    # -- metrics -------------------------------------------------------------------

    def _untraced(self, phase: str) -> list[Sample]:
        return [s for s in self.samples.get(phase, []) if not s.traced]

    def end_to_end_metrics(self) -> dict:
        med = statistics.median

        def rate(phase):
            return med(s.units / s.seconds for s in self._untraced(phase))

        def train_rate():
            """Tokens over time with each mode's time taken at the median
            segment rate: segments spread the measurement like repetitions."""
            tokens = seconds = 0.0
            for sample in self._untraced("train"):
                for segments in sample.parts.values():
                    n = sum(g.tokens for g in segments)
                    tokens += n
                    seconds += n / med(g.tokens / g.seconds for g in segments)
            return tokens / seconds

        def secs(phase):
            return med(s.seconds for s in self._untraced(phase))

        setup = sum(med(parts) for parts in self.setup_parts.values())
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "setup_s": (setup, "s"),
            "prepare_s": (secs("prepare"), "s"),
            "train_tok_s": (train_rate(), "tokens/s"),
            "greedy_sent_s": (rate("greedy"), "sentences/s"),
            "beam_sent_s": (rate("beam"), "sentences/s"),
            "score_s": (secs("score"), "s"),
            "attention_rec_s": (rate("attention"), "records/s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    def layer_metrics(self) -> dict:
        tr = self.tr
        kids = tr.children()
        by_id = {s.span_id: s for s in tr.spans}
        med = statistics.median

        def median_or_zero(xs):
            xs = list(xs)
            return med(xs) if xs else 0.0

        def per_rep(phase, name):
            return median_or_zero(sum(s.ms for s in tr.within(rep, name, kids))
                                  for rep in tr.named("phase." + phase))

        def parent_name(s):
            return by_id[s.parent].name if s.parent is not None else None

        values: dict[str, tuple[float, str]] = {}
        for name in ("synthetic.generate", "data.ingest", "data.attach_context",
                     "data.prepared_io", "bpe.learn", "bpe.apply", "vocab.build",
                     "data.encode_examples"):
            values[f"{name}_ms"] = (per_rep("prepare", name), "ms")
        setup_inits = [sum(c.ms for c in kids.get(s.span_id, ()) if c.name == "model.init")
                       for s in tr.named("setup")]
        values["model.init_ms"] = (median_or_zero(setup_inits), "ms")
        # per call; make_batches over the training set, not the dev set
        calls = tr.named("trainer.make_batches")
        largest = max((s.attrs["examples"] for s in calls), default=0)
        values["trainer.make_batches_ms"] = (median_or_zero(
            s.ms for s in calls if s.attrs["examples"] == largest), "ms")
        for name in ("checkpoint", "dev_eval"):
            values[f"trainer.{name}_ms"] = (median_or_zero(
                s.ms for s in tr.named(f"trainer.{name}")), "ms")
        values["trainer.forward_ms"] = (median_or_zero(
            s.ms for s in tr.named("model.loss") if parent_name(s) == "trainer.train"), "ms")
        values["trainer.backward_ms"] = (median_or_zero(
            s.ms for s in tr.named("autodiff.backward")), "ms")
        values["trainer.clip_ms"] = (median_or_zero(s.ms for s in tr.named("trainer.clip")), "ms")
        values["trainer.adam_ms"] = (median_or_zero(s.ms for s in tr.named("trainer.adam")), "ms")
        values["autodiff.tape_records"] = (median_or_zero(
            s.attrs["records"] for s in tr.named("autodiff.backward")), "count")
        # a traced segment's time, less its batching, saves and dev
        # evaluations, per step
        outside_steps = {"trainer.make_batches", "trainer.checkpoint", "trainer.dev_eval"}
        train_samples = [s for s in self.samples.get("train", []) if s.traced]
        for mode in ("none", "gated-context", "concat"):
            outside = [c for s in tr.named("trainer.train", mode=mode)
                       for c in kids.get(s.span_id, ()) if c.name in outside_steps]
            steps = [(1000.0 * g.seconds - sum(c.ms for c in outside
                                               if g.start <= c.start < g.end))
                     / self.cfg.checkpoint_every
                     for sample in train_samples for g in sample.parts.get(mode, ())
                     if g.traced]
            values[f"trainer.step_ms.{mode}"] = (median_or_zero(steps), "ms")
        values["model.load_checkpoint_ms"] = (median_or_zero(
            s.ms for s in tr.named("model.load_checkpoint")), "ms")
        values["model.encode_ms"] = (median_or_zero(
            s.ms for s in tr.named("model.encode")
            if parent_name(s) in ("model.translate", "analysis.dump")), "ms")
        steps = [s for rep in tr.named("phase.greedy")
                 for s in tr.within(rep, "model.decode_step", kids)]
        longest = max((s.attrs["prefix"] for s in steps), default=1)
        values["model.decode_step_ms.first"] = (median_or_zero(
            s.ms for s in steps if s.attrs["prefix"] == 1), "ms")
        values["model.decode_step_ms.last"] = (median_or_zero(
            s.ms for s in steps if s.attrs["prefix"] == longest), "ms")
        values["model.decode_step_last_prefix"] = (longest, "count")
        values["model.out_tokens"] = (self.counts["model.out_tokens"], "count")
        values["model.truncated"] = (self.counts["model.truncated"], "count")
        for name, span in (("corpus_bleu", "evaluation.corpus_bleu"),
                           ("pronoun_accuracy", "evaluation.pronoun_accuracy"),
                           ("bootstrap", "evaluation.bootstrap")):
            values[f"evaluation.{name}_ms"] = (per_rep("score", span), "ms")
        for name in ("dump", "write_records", "read_records", "useful_mass", "top_words",
                     "curves", "agreement"):
            values[f"analysis.{name}_ms"] = (per_rep("attention", f"analysis.{name}"), "ms")

        # traced against untraced repetitions of the same phases in this run:
        # the median of each phase's traced samples (training: segments at
        # the median traced segment rate) over that of its untraced ones
        traced_s = untraced_s = 0.0
        for phase, samples in self.samples.items():
            if phase == "train":
                for segments in (g for s in samples for g in s.parts.values()):
                    n = sum(g.tokens for g in segments)
                    t = [g.tokens / g.seconds for g in segments if g.traced]
                    u = [g.tokens / g.seconds for g in segments if not g.traced]
                    if t and u:
                        traced_s += n / med(t)
                        untraced_s += n / med(u)
                continue
            t = [s.seconds for s in samples if s.traced]
            u = [s.seconds for s in samples if not s.traced]
            if t and u:
                traced_s += med(t)
                untraced_s += med(u)
        values["trace.overhead_pct"] = (100.0 * (traced_s / untraced_s - 1.0)
                                        if untraced_s else 0.0, "%")

        self_ms = sorted(tr.self_ms().items(), key=lambda kv: -kv[1])
        print("self time by span (ms, whole run): " + ", ".join(
            f"{name} {ms:.1f}" for name, ms in self_ms[:16]))
        for name, (v, unit) in values.items():
            print(f"layer {name} = {v!r} {unit}")
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()
                if k in self.declared_layers}


def batches(examples, with_context: bool, size: int = DECODE_BATCH):
    """Fixed-size batches in order, padded the way `ctxnmt translate` pads:
    (examples, source ids, context ids or None)."""
    for start in range(0, len(examples), size):
        chunk = examples[start:start + size]
        src = trainer.pad_ids([e.source_ids for e in chunk])
        ctx = trainer.pad_ids([e.context_ids for e in chunk]) if with_context else None
        yield chunk, src, ctx
