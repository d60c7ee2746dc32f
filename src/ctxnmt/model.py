"""Encoder-decoder translation model with optional context conditioning.

Three context modes share one decoder:

* ``none``: a standard transformer encoder over the source sentence.
* ``gated-context``: the context sentence runs through the encoder layers
  shared with the source path (all but the last) plus its own final layer;
  the source encoder's last layer attends over that output and blends it
  with its self-attention result through a learned sigmoid gate.
* ``concat``: context and source are concatenated into one sequence with a
  learned two-way segment embedding marking which side each token came from.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import layers as ly
from .vocab import BOS, PAD, TBOS, TEOS

CONTEXT_MODES = ("none", "gated-context", "concat")
CHECKPOINT_MAGIC = b"CTXNMTCK"
CHECKPOINT_VERSION = 1
HEADER_KEYS = {"format_version", "config", "dtype", "tensors", "payload_sha256"}


class ModelError(ValueError):
    pass


class CheckpointError(RuntimeError):
    pass


@dataclass
class ModelConfig:
    n_layers: int
    n_heads: int
    d_model: int
    d_ff: int
    src_vocab: int
    tgt_vocab: int
    dropout: float = 0.1
    label_smoothing: float = 0.1
    max_len: int = 256
    context_mode: str = "none"
    beam_width: int = 4
    length_penalty: float = 0.6

    def validate(self) -> "ModelConfig":
        for name in ("n_layers", "n_heads", "d_model", "d_ff", "src_vocab", "tgt_vocab", "max_len"):
            if getattr(self, name) <= 0:
                raise ModelError(f"{name} must be positive, got {getattr(self, name)}")
        if self.d_model % self.n_heads:
            raise ModelError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        for name in ("dropout", "label_smoothing"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ModelError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if self.context_mode not in CONTEXT_MODES:
            raise ModelError(f"context_mode must be one of {CONTEXT_MODES}, got {self.context_mode!r}")
        if self.beam_width < 1:
            raise ModelError(f"beam_width must be >= 1, got {self.beam_width}")
        return self

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d).validate()


@dataclass
class EncoderState:
    """What ``encode`` returns; the decoder attends over ``hidden`` under ``mask``.

    ``is_pad`` marks the pad positions of the encoded ids. Gated-context models
    also fill ``gates``, the fusion gate values (B, S, d_model), and, unless the
    context path is zeroed, ``ctx_attention``, head-averaged (B, S, C)."""
    hidden: ad.Tensor
    mask: np.ndarray
    is_pad: np.ndarray | None = None
    gates: np.ndarray | None = None
    ctx_attention: np.ndarray | None = None


@dataclass
class DecodeCache:
    """What a cached ``decode_step`` reads and extends, one row per prefix: each
    decoder layer's [keys, values, cross keys, cross values] (rows, heads, length,
    d_head), the encoder's key mask, and which fed tokens are PAD."""
    layers: list[list[np.ndarray]]
    cross_mask: np.ndarray
    is_pad: np.ndarray

    def take(self, rows: np.ndarray) -> "DecodeCache":
        return DecodeCache([[a[rows] for a in kv] for kv in self.layers],
                           self.cross_mask[rows], self.is_pad[rows])


@dataclass
class TranslationResult:
    ids: list[int]
    score: float
    truncated: bool


def _no_drop(t: ad.Tensor) -> ad.Tensor:
    return t


class Transformer:
    def __init__(self, config: ModelConfig, rng: np.random.Generator, dtype=np.float32):
        self.config = config.validate()
        self.dtype = np.dtype(dtype)
        store = ly.ParamStore(rng, dtype)
        self.store = store
        c = config

        if c.context_mode == "gated-context" and c.src_vocab <= BOS:
            raise ModelError(
                f"source vocabulary of size {c.src_vocab} has no room for the "
                f"context role token (id {BOS})")

        self.src_embed = store.normal("src_embed", (c.src_vocab, c.d_model), c.d_model ** -0.5)
        self.tgt_embed = store.normal("tgt_embed", (c.tgt_vocab, c.d_model), c.d_model ** -0.5)
        self._pe = ly.positional_encoding(c.max_len, c.d_model, dtype=dtype)

        n_shared = c.n_layers - 1 if c.context_mode == "gated-context" else c.n_layers
        self.enc_layers = [ly.EncoderLayer(store, f"enc.{i}", c.d_model, c.n_heads, c.d_ff)
                           for i in range(n_shared)]
        if c.context_mode == "gated-context":
            self.fusion_layer = ly.ContextFusionLayer(store, "enc.fuse", c.d_model,
                                                      c.n_heads, c.d_ff)
            self.ctx_final = ly.EncoderLayer(store, "ctx.final", c.d_model, c.n_heads, c.d_ff)
        if c.context_mode == "concat":
            self.seg_embed = store.normal("seg_embed", (2, c.d_model), c.d_model ** -0.5)

        self.dec_layers = [ly.DecoderLayer(store, f"dec.{i}", c.d_model, c.n_heads, c.d_ff)
                           for i in range(c.n_layers)]
        # modest classifier init: initial logit variance ~0.25 keeps fresh
        # predictions near uniform without flattening upstream gradients
        self.out_proj = ly.Linear(store, "out_proj", c.d_model, c.tgt_vocab,
                                  init_std=0.5 / np.sqrt(c.d_model))

    # -- embedding ---------------------------------------------------------

    def _drop_fn(self, train: bool, rng: np.random.Generator | None):
        if not train or self.config.dropout == 0.0:
            return _no_drop
        if rng is None:
            raise ModelError("training forward pass needs a dropout rng")
        rate = self.config.dropout
        return lambda t: ad.dropout(t, rate, rng, train=True)

    def _embed(self, table: ad.Tensor, ids: np.ndarray, flags: np.ndarray | None = None,
               start: int = 0) -> ad.Tensor:
        end = start + ids.shape[1]
        if end > self.config.max_len:
            raise ModelError(f"sequence length {end} exceeds max_len {self.config.max_len}")
        x = ad.scale(ad.embedding(table, ids), float(np.sqrt(self.config.d_model)))
        if flags is not None:
            x = ad.add(x, ad.embedding(self.seg_embed, flags))
        return ad.add(x, self._pe[None, start:end, :])

    # -- encoding ----------------------------------------------------------

    def encode(self, src_ids: np.ndarray, ctx_ids: np.ndarray | None = None,
               train: bool = False, rng: np.random.Generator | None = None,
               zero_context: bool = False) -> EncoderState:
        src_ids = np.asarray(src_ids)
        if src_ids.ndim != 2 or src_ids.shape[1] == 0:
            raise ModelError(f"source batch must be 2-d and nonempty, got shape {src_ids.shape}")
        drop = self._drop_fn(train, rng)
        mode = self.config.context_mode

        if mode == "gated-context":
            if ctx_ids is None:
                raise ModelError("gated-context mode needs context ids")
            return self._encode_gated(src_ids, self._normalize_context(np.asarray(ctx_ids)),
                                      drop, zero_context)
        flags = None
        if mode == "concat":
            if ctx_ids is None:
                raise ModelError("concat mode needs context ids")
            src_ids, flags = self._repack_concat(np.asarray(ctx_ids), src_ids)
        return EncoderState(*self._encoder_stack(src_ids, drop, flags))

    def _encoder_stack(self, ids: np.ndarray, drop, flags: np.ndarray | None = None
                       ) -> tuple[ad.Tensor, np.ndarray, np.ndarray]:
        """Embed ids and run the shared encoder layers: (hidden, mask, is_pad)."""
        is_pad = ids == PAD
        mask = ly.padding_mask(is_pad)
        x = drop(self._embed(self.src_embed, ids, flags=flags))
        for layer in self.enc_layers:
            x = layer(x, mask, drop)
        return x, mask, is_pad

    def _normalize_context(self, ctx_ids: np.ndarray) -> np.ndarray:
        """Ensure every context row carries the leading role token."""
        if ctx_ids.ndim != 2 or ctx_ids.shape[1] == 0:
            raise ModelError(f"context batch must be 2-d and nonempty, got shape {ctx_ids.shape}")
        has_role = ctx_ids[:, 0] == BOS
        if has_role.all():
            return ctx_ids
        if has_role.any():
            raise ModelError("context batch mixes rows with and without the leading role token")
        lead = np.full((ctx_ids.shape[0], 1), BOS, dtype=ctx_ids.dtype)
        return np.concatenate([lead, ctx_ids], axis=1)

    def _encode_gated(self, src_ids: np.ndarray, ctx_ids: np.ndarray, drop,
                      zero_context: bool) -> EncoderState:
        x, src_mask, src_pad = self._encoder_stack(src_ids, drop)
        ctx_hidden = ctx_mask = None
        if not zero_context:
            h, ctx_mask, _ = self._encoder_stack(ctx_ids, drop)
            ctx_hidden = self.ctx_final(h, ctx_mask, drop)
        out, gate, ctx_attention = self.fusion_layer(x, ctx_hidden, src_mask, ctx_mask, drop,
                                                     zero_context=zero_context)
        return EncoderState(out, src_mask, src_pad, gates=gate.data.copy(),
                            ctx_attention=ctx_attention)

    def _repack_concat(self, ctx_ids: np.ndarray, src_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Join [context ; source] per row, dropping pads and the role token."""
        rows, flag_rows = [], []
        for ctx_row, src_row in zip(ctx_ids, src_ids):
            c = ctx_row[ctx_row != PAD]
            if c.size and c[0] == BOS:
                c = c[1:]
            s = src_row[src_row != PAD]
            if c.size + s.size > self.config.max_len:
                raise ModelError(
                    f"concatenation of context ({c.size}) and source ({s.size}) "
                    f"exceeds max_len {self.config.max_len}")
            rows.append(np.concatenate([c, s]))
            flag_rows.append(np.concatenate([np.zeros(c.size, dtype=np.int64),
                                             np.ones(s.size, dtype=np.int64)]))
        width = max(r.size for r in rows)
        merged = np.full((len(rows), width), PAD, dtype=np.int64)
        flags = np.zeros((len(rows), width), dtype=np.int64)
        for i, (r, f) in enumerate(zip(rows, flag_rows)):
            merged[i, :r.size] = r
            flags[i, :f.size] = f
        return merged, flags

    # -- decoding ----------------------------------------------------------

    def _decode_logits(self, enc: EncoderState, tgt_in: np.ndarray, drop,
                       cache: DecodeCache | None = None) -> ad.Tensor:
        """Logits at every position of tgt_in, or with a cache at its one new position."""
        start, is_pad = (0 if cache is None else cache.is_pad.shape[1]), tgt_in == PAD
        if cache is not None:
            is_pad = cache.is_pad = np.concatenate([cache.is_pad, is_pad], axis=1)
        self_mask = ly.causal_mask(is_pad.shape[1])[:, :, start:] | ly.padding_mask(is_pad)
        hidden, cross_mask = (enc.hidden, enc.mask) if cache is None else (None, cache.cross_mask)
        y = drop(self._embed(self.tgt_embed, tgt_in, start=start))
        for i, layer in enumerate(self.dec_layers):
            y = layer(y, hidden, self_mask, cross_mask, drop, cache and cache.layers[i])
        return self.out_proj(y)

    def loss(self, src_ids: np.ndarray, tgt_ids: np.ndarray,
             ctx_ids: np.ndarray | None = None, train: bool = False,
             rng: np.random.Generator | None = None) -> ad.Tensor:
        """Label-smoothed mean per-token cross entropy, teacher forced."""
        tgt_ids = np.asarray(tgt_ids)
        enc = self.encode(src_ids, ctx_ids, train=train, rng=rng)
        drop = self._drop_fn(train, rng)
        logits = self._decode_logits(enc, tgt_ids[:, :-1], drop)
        tgt_out = tgt_ids[:, 1:]
        return ad.cross_entropy(logits, tgt_out, token_mask=(tgt_out != PAD),
                                label_smoothing=self.config.label_smoothing)

    def new_cache(self, enc: EncoderState) -> DecodeCache:
        """An empty DecodeCache of the rows of `enc`, cross-attention projected."""
        rows, c = enc.mask.shape[0], self.config
        empty = np.zeros((rows, c.n_heads, 0, c.d_model // c.n_heads), self.dtype)
        return DecodeCache([[empty, empty] + [a.data for a in dec.cross_attn.project_kv(enc.hidden)]
                            for dec in self.dec_layers], enc.mask, np.zeros((rows, 0), bool))

    def decode_step(self, prefix: np.ndarray, enc: EncoderState,
                    cache: DecodeCache | None = None) -> np.ndarray:
        """Next-token probabilities (B, tgt_vocab) for each prefix row.

        Without a cache the decoder runs over the whole prefix. A cache (from
        `new_cache`) holding the first t - 1 of t positions of the same rows
        feeds only the last token, at t - 1, and grows by it; `enc` is unread."""
        prefix = np.asarray(prefix)
        if prefix.ndim != 2 or prefix.shape[1] == 0:
            raise ModelError(f"prefix must be 2-d and nonempty, got shape {prefix.shape}")
        if (prefix[:, 0] != TBOS).any():
            raise ModelError("prefix must start with the target begin token")
        if cache is not None and cache.is_pad.shape != (prefix.shape[0], prefix.shape[1] - 1):
            raise ModelError(f"a cache of (rows, positions) {cache.is_pad.shape} cannot "
                             f"precede a prefix of shape {prefix.shape}")
        logits = self._decode_logits(enc, prefix[:, -1:] if cache else prefix, _no_drop, cache)
        return ad.softmax(ad.Tensor(logits.data[:, -1, :])).data

    def _search(self, enc: EncoderState, width: int, max_out: int) -> list[TranslationResult]:
        """Beam search of every batch row at once; width 1 is greedy decoding.

        Each sentence has `width` slots (all but the first start dead, at -inf)
        and keeps the top `width` of their extensions, ties to the lower flat
        index; those ending in TEOS are finished. It stops with no live slot or
        `width` finished, keeping live slots as truncated. Scores are GNMT
        length-normalized log-probabilities, added in float64; steps use a DecodeCache."""
        sent = np.arange(enc.hidden.shape[0])  # batch row of each sentence still searching
        cache = self.new_cache(enc).take(np.repeat(sent, width))
        prefix = np.full((sent.size, width, 1), TBOS, dtype=np.int64)
        logp = np.full((sent.size, width), -np.inf)
        logp[:, 0] = 0.0
        n_finished = np.zeros(sent.size, dtype=np.int64)
        finished: list[list[TranslationResult]] = [[] for _ in sent]

        def keep(hyps: np.ndarray, truncated: bool) -> None:  # hyps: (sentence, slot) mask
            norm = ((5.0 + max(prefix.shape[2] - 1, 1)) / 6.0) ** self.config.length_penalty
            for b, ids, lp in zip(sent[hyps.nonzero()[0]].tolist(), prefix[hyps][:, 1:].tolist(),
                                  logp[hyps].tolist()):
                finished[b].append(TranslationResult(ids, lp / norm, truncated))

        for step in range(max_out + 1):
            stop = (n_finished >= width) | (logp == -np.inf).all(axis=1) | (step == max_out)
            if stop.any():
                keep(stop[:, None] & (logp > -np.inf), truncated=True)
                go = ~stop
                sent, logp, prefix, n_finished = sent[go], logp[go], prefix[go], n_finished[go]
                cache = cache.take(np.repeat(go, width))
                if not sent.size:
                    break
            probs = self.decode_step(prefix.reshape(sent.size * width, -1), enc, cache)
            cand = (logp[:, :, None] + np.log(probs + 1e-30).reshape(sent.size, width, -1)
                    ).reshape(sent.size, -1)
            top = np.empty((sent.size, width), dtype=np.int64)
            rank = np.arange(sent.size)
            for k in range(width):  # argmax takes the lower flat index among ties
                top[:, k] = best = cand.argmax(axis=1)
                logp[:, k] = cand[rank, best]
                cand[rank, best] = -np.inf
            slot, tok = np.divmod(top, probs.shape[1])
            prefix = np.concatenate([prefix[rank[:, None], slot], tok[:, :, None]], axis=2)
            if width > 1:  # at width 1 the reorder is the identity
                cache = cache.take((rank[:, None] * width + slot).ravel())
            ends = (tok == TEOS) & (logp > -np.inf)
            if ends.any():
                keep(ends, truncated=False)
                logp[ends] = -np.inf
                n_finished += ends.sum(axis=1)
        return [max(f, key=lambda r: r.score) for f in finished]

    def _beam_single(self, enc_row: EncoderState, width: int, max_out: int) -> TranslationResult:
        # perfbench/checks.py checks greedy against a width-1 search of each row through this
        return self._search(enc_row, width, max_out)[0]

    def translate(self, src_ids: np.ndarray, ctx_ids: np.ndarray | None = None,
                  mode: str = "greedy", width: int | None = None,
                  max_out: int | None = None) -> list[TranslationResult]:
        """Decode a batch with one batched beam search; greedy is its width 1.
        Beam mode keeps, per row, the better of width 1 and `width` by length-
        normalized log-probability, so it never scores below greedy."""
        if mode not in ("greedy", "beam"):
            raise ModelError(f"unknown decode mode {mode!r}")
        width = self.config.beam_width if width is None else width
        if width < 1:
            raise ModelError(f"beam width must be >= 1, got {width}")
        max_out = (self.config.max_len - 1) if max_out is None else max_out
        if not 0 <= max_out <= self.config.max_len - 1:
            raise ModelError(f"max_out must be in [0, {self.config.max_len - 1}] "
                             f"(max_len - 1), got {max_out}")
        enc = self.encode(src_ids, ctx_ids, train=False)
        greedy = self._search(enc, 1, max_out)
        if mode == "greedy" or width == 1:
            return greedy
        beam = self._search(enc, width, max_out)
        return [b if b.score >= g.score else g for g, b in zip(greedy, beam)]


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(model: Transformer, path: str) -> None:
    """Binary container: magic, JSON header, raw little-endian payload."""
    entries = []
    chunks = []
    offset = 0
    for name, tensor in model.store.items():
        raw = np.ascontiguousarray(tensor.data).tobytes()
        entries.append({"name": name, "shape": list(tensor.shape),
                        "dtype": tensor.data.dtype.str, "offset": offset, "nbytes": len(raw)})
        chunks.append(raw)
        offset += len(raw)
    payload = b"".join(chunks)
    header = {
        "format_version": CHECKPOINT_VERSION,
        "config": model.config.to_dict(),
        "dtype": model.dtype.str,
        "tensors": entries,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    blob = json.dumps(header).encode("utf-8")
    # write beside the target and rename over it, so that a crash mid-write
    # leaves the previous checkpoint whole
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path: str) -> Transformer:
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a model checkpoint")
        size = fh.read(4)
        if len(size) < 4:
            raise CheckpointError(f"{path}: file ends inside the header length")
        (header_len,) = struct.unpack("<I", size)
        blob = fh.read(header_len)
        if len(blob) < header_len:
            raise CheckpointError(f"{path}: header length {header_len} runs past the end of the file")
        payload = fh.read()
    try:
        header = json.loads(blob.decode("utf-8"))
    except ValueError as exc:
        raise CheckpointError(f"{path}: unreadable header ({exc})") from None
    if not isinstance(header, dict) or not HEADER_KEYS <= header.keys():
        raise CheckpointError(f"{path}: header lacks one of {sorted(HEADER_KEYS)}")
    if header["format_version"] != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {header['format_version']}")
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header["payload_sha256"]:
        raise CheckpointError(f"{path}: checksum mismatch, file corrupted")

    try:  # the header is not checksummed: any field may be malformed
        config = ModelConfig.from_dict(header["config"])
        model = Transformer(config, np.random.default_rng(0), dtype=np.dtype(header["dtype"]))
        stored = {e["name"]: e for e in header["tensors"]}
        have = {name for name, _ in model.store.items()}
        if set(stored) != have:
            missing = sorted(have - set(stored))
            extra = sorted(set(stored) - have)
            raise CheckpointError(f"{path}: tensor set mismatch (missing {missing}, extra {extra})")
        for name, tensor in model.store.items():
            e = stored[name]
            raw = payload[e["offset"]:e["offset"] + e["nbytes"]]
            data = np.frombuffer(raw, dtype=np.dtype(e["dtype"])).reshape(e["shape"])
            if tuple(data.shape) != tensor.shape:
                raise CheckpointError(f"{path}: shape mismatch for {name}")
            tensor.data = data.copy()
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed header ({exc})") from None
    return model
