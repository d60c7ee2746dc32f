import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctxnmt.autodiff as ad
import ctxnmt.model as model_module
from ctxnmt.model import (CheckpointError, EncoderState, ModelConfig, ModelError,
                          Transformer, load_checkpoint, save_checkpoint)
from ctxnmt.vocab import BOS, EOS, PAD, TBOS, TEOS


def small_config(**overrides):
    base = dict(n_layers=2, n_heads=2, d_model=8, d_ff=16, src_vocab=12,
                tgt_vocab=11, dropout=0.1, label_smoothing=0.1, max_len=32)
    base.update(overrides)
    return ModelConfig(**base)


def small_model(seed=0, dtype=np.float32, **overrides):
    return Transformer(small_config(**overrides), np.random.default_rng(seed), dtype=dtype)


def test_config_rejects_indivisible_width():
    with pytest.raises(ModelError):
        small_config(d_model=10, n_heads=4).validate()


def test_config_rejects_unknown_context_mode():
    with pytest.raises(ModelError):
        small_config(context_mode="document").validate()


def test_config_rejects_nonpositive_sizes():
    with pytest.raises(ModelError):
        small_config(n_layers=0).validate()
    with pytest.raises(ModelError):
        small_config(dropout=1.0).validate()


def test_config_dict_round_trip():
    cfg = small_config(context_mode="concat")
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg


def test_encode_deterministic_in_eval_mode():
    """Dropout is the identity in eval mode and at rate 0: neither needs an
    rng, and repeated passes agree bit for bit."""
    model = small_model()
    src = np.array([[6, 7, 8, 9], [10, 11, PAD, PAD]])
    tgt = np.array([[TBOS, 6, 7, TEOS], [TBOS, 8, TEOS, PAD]])
    a = model.encode(src).hidden.data
    b = model.encode(src).hidden.data
    np.testing.assert_array_equal(a, b)
    assert model.loss(src, tgt).data.tobytes() == model.loss(src, tgt).data.tobytes()
    still = small_model(dropout=0.0)
    assert still.loss(src, tgt, train=True).data.tobytes() == still.loss(src, tgt).data.tobytes()


def test_encoder_padding_invariance():
    """Non-pad positions come out the same whether or not pad columns exist."""
    model = small_model(1)
    batch = np.array([[6, 7, 8, 9, 10], [9, 8, 7, PAD, PAD]])
    batched = model.encode(batch).hidden.data
    solo_full = model.encode(batch[:1]).hidden.data
    solo_short = model.encode(batch[1:2, :3]).hidden.data
    np.testing.assert_allclose(batched[0], solo_full[0], atol=1e-6)
    np.testing.assert_allclose(batched[1, :3], solo_short[0], atol=1e-6)


def test_empty_source_rejected():
    with pytest.raises(ModelError):
        small_model().encode(np.zeros((1, 0), dtype=int))


def test_sequence_longer_than_max_len_rejected():
    model = small_model(max_len=4)
    with pytest.raises(ModelError):
        model.encode(np.full((1, 5), 6))


def test_decode_step_returns_distribution():
    model = small_model(2)
    enc = model.encode(np.array([[6, 7, 8]]))
    probs = model.decode_step(np.array([[TBOS, 6, 7]]), enc)
    assert probs.shape == (1, 11)
    assert probs.sum() == pytest.approx(1.0, abs=1e-6)
    assert (probs >= 0).all()


def test_decode_step_requires_begin_token():
    model = small_model()
    enc = model.encode(np.array([[6, 7]]))
    with pytest.raises(ModelError):
        model.decode_step(np.array([[6, 7]]), enc)


def test_decode_step_rejects_overlong_prefix():
    model = small_model(max_len=4)
    enc = model.encode(np.array([[6, 7]]))
    prefix = np.array([[TBOS, 6, 6, 6, 6]])
    with pytest.raises(ModelError):
        model.decode_step(prefix, enc)


def test_causal_mask_blocks_future_tokens():
    """Logits at step t ignore prefix tokens after t."""
    model = small_model(3)
    enc = model.encode(np.array([[6, 7, 8]]))
    a = np.array([[TBOS, 6, 7, 8]])
    b = np.array([[TBOS, 6, 9, 10]])  # diverges strictly after position 1
    la = model._decode_logits(enc, a, lambda t: t).data
    lb = model._decode_logits(enc, b, lambda t: t).data
    np.testing.assert_allclose(la[:, :2], lb[:, :2], atol=1e-9)
    assert np.abs(la[:, 2:] - lb[:, 2:]).max() > 1e-6


def test_loss_is_finite_scalar_and_differentiable():
    model = small_model(4)
    src = np.array([[6, 7, 8], [9, 10, PAD]])
    tgt = np.array([[TBOS, 6, 7, TEOS], [TBOS, 8, TEOS, PAD]])
    with ad.Tape() as tape:
        loss = model.loss(src, tgt, train=True, rng=np.random.default_rng(0))
    assert loss.data.shape == ()
    assert np.isfinite(loss.data)
    tape.backward(loss)
    assert model.store["src_embed"].grad is not None
    assert np.abs(model.store["src_embed"].grad).sum() > 0


def _step_batch(mode):
    """B = 8 rows, S = C = T = 20 columns, some of them padded."""
    rng = np.random.default_rng(3)
    src, tgt, ctx = (rng.integers(6, 11, (8, 20)) for _ in range(3))
    src[:3, 15:] = tgt[:2, 12:] = PAD
    return src, tgt, (None if mode == "none" else ctx)


@pytest.mark.parametrize("mode", ["none", "gated-context", "concat"])
def test_backward_empties_tape_and_keeps_parameter_grads(mode):
    model = small_model(11, context_mode=mode, max_len=64)
    src, tgt, ctx = _step_batch(mode)
    with ad.Tape() as tape:
        loss = model.loss(src, tgt, ctx_ids=ctx, train=True, rng=np.random.default_rng(0))
    outputs = [out for out, _ in tape._records]
    tape.backward(loss)
    assert len(tape) == 0 and outputs
    assert all(out.grad is None for out in outputs)
    grads = [p.grad for p in model.store.tensors() if p.grad is not None]
    assert grads and all(np.isfinite(g).all() for g in grads)
    with pytest.raises(ad.TapeError):
        tape.backward(loss)


@pytest.mark.parametrize("mode", ["none", "gated-context", "concat"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_model_keeps_its_dtype_through_training_and_decoding(mode, dtype):
    """No constant promotes a float32 model to float64: not a tape record, the
    loss, a parameter gradient, the encoder state or a decode_step."""
    model = small_model(11, dtype, context_mode=mode, max_len=64)
    src, tgt, ctx = _step_batch(mode)
    with ad.Tape() as tape:
        loss = model.loss(src, tgt, ctx_ids=ctx, train=True, rng=np.random.default_rng(0))
    assert {out.dtype for out, _ in tape._records} == {np.dtype(dtype)}
    tape.backward(loss)
    assert loss.dtype == dtype
    assert {p.grad.dtype for p in model.store.tensors() if p.grad is not None} == {np.dtype(dtype)}
    src, ctx = _padded_batch(mode)
    enc = model.encode(src, ctx)
    prefix = np.array([[TBOS]] * len(src))
    cache = model.new_cache(enc)
    assert enc.hidden.dtype == dtype
    assert model.decode_step(prefix, enc).dtype == dtype
    assert model.decode_step(prefix, enc, cache).dtype == dtype


@pytest.mark.parametrize("mode", ["none", "gated-context", "concat"])
def test_training_step_peaks_near_its_forward_pass(mode):
    """Backward frees activations as it goes, so it adds little to the peak
    that the forward pass set (about 2x when the tape was kept whole)."""
    model = small_model(12, context_mode=mode, max_len=64)
    src, tgt, ctx = _step_batch(mode)

    def forward():
        with ad.Tape() as tape:
            loss = model.loss(src, tgt, ctx_ids=ctx, train=True, rng=np.random.default_rng(0))
        return tape, loss

    tape, loss = forward()  # warm-up: lazily built tables are not part of a step
    tape.backward(loss)
    model.store.clear_grads()
    del tape, loss
    tracemalloc.start()
    try:
        tape, loss = forward()
        forward_peak = tracemalloc.get_traced_memory()[1]
        tape.backward(loss)
        step_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert step_peak <= 1.25 * forward_peak


def test_greedy_equals_beam_width_one():
    model = small_model(5)
    src = np.array([[6, 7, 8], [9, 10, 11]])
    greedy = model.translate(src, mode="greedy", max_out=8)
    beam1 = model.translate(src, mode="beam", width=1, max_out=8)
    for g, b in zip(greedy, beam1):
        assert g.ids == b.ids


def test_beam_never_scores_below_greedy():
    model = small_model(6)
    src = np.array([[6, 7, 8, 9]])
    greedy = model.translate(src, mode="greedy", max_out=8)[0]
    beam = model.translate(src, mode="beam", width=4, max_out=8)[0]
    assert beam.score >= greedy.score - 1e-12


def test_translate_flags_truncation():
    model = small_model(7)
    out = model.translate(np.array([[6, 7]]), mode="greedy", max_out=1)[0]
    if out.ids[-1] != TEOS:
        assert out.truncated
    assert len(out.ids) <= 1


@pytest.mark.parametrize("max_out", [-1, 8, 20])
def test_translate_rejects_max_out_outside_range_before_encoding(max_out):
    model = small_model(max_len=8)
    model.encode = lambda *a, **k: pytest.fail("encoded before max_out was checked")
    with pytest.raises(ModelError, match="max_out"):
        model.translate(np.array([[6, 7]]), max_out=max_out)


def test_translate_decodes_up_to_max_len_minus_one():
    model = small_model(max_len=8)
    model.store["out_proj.b"].data[TEOS] = -1e4  # no hypothesis ends early
    for mode in ("greedy", "beam"):
        (out,) = model.translate(np.array([[6, 7]]), mode=mode, width=2, max_out=7)
        assert len(out.ids) == 7 and out.truncated


def test_translate_rejects_unknown_mode():
    with pytest.raises(ModelError):
        small_model().translate(np.array([[6]]), mode="sampled")


def reference_beam(model, enc, row, width, max_out):
    """One sentence's beam search over Python candidate lists, the oracle for
    translate. Log-probabilities add in float64; ties go to the earlier
    hypothesis, then to the lower token id. Returns (ids, score, truncated)."""
    hidden, mask = enc.hidden.data[row:row + 1], enc.mask[row:row + 1]
    norm = lambda n: ((5.0 + n) / 6.0) ** model.config.length_penalty
    live, finished = [([], 0.0)], []
    for _ in range(max_out):
        prefix = np.array([[TBOS] + ids for ids, _ in live], dtype=np.int64)
        state = EncoderState(ad.Tensor(np.repeat(hidden, len(live), axis=0)),
                             np.repeat(mask, len(live), axis=0), enc.is_pad[row:row + 1])
        logp = np.log(model.decode_step(prefix, state) + 1e-30)
        candidates = []
        for (ids, lp), row_lp in zip(live, logp):
            for tok in np.argsort(-row_lp, kind="stable")[:width]:
                candidates.append((ids + [int(tok)], lp + float(row_lp[tok])))
        candidates.sort(key=lambda c: c[1], reverse=True)
        live = []
        for ids, lp in candidates[:width]:
            if ids[-1] == TEOS:
                finished.append((ids, lp / norm(len(ids)), False))
            else:
                live.append((ids, lp))
        if not live or len(finished) >= width:
            break
    finished += [(ids, lp / norm(max(len(ids), 1)), True) for ids, lp in live]
    return max(finished, key=lambda f: f[1])


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**16), mode=st.sampled_from(["none", "gated-context", "concat"]),
       tgt_vocab=st.integers(7, 10), eos_bias=st.sampled_from([None, -1e4, 1.5]),
       flat=st.booleans(), extra_width=st.integers(0, 10),
       lengths=st.lists(st.tuples(st.integers(1, 5), st.integers(0, 4)), min_size=1, max_size=4))
def test_batched_search_matches_reference_beam(seed, mode, tgt_vocab, eos_bias, flat,
                                               extra_width, lengths):
    """translate's ids, scores and truncation flags equal the per-sentence
    reference, for widths up to one past the target vocabulary, on padded
    batches whose rows finish at different steps (a TEOS bias of 1.5 ends
    many early, -1e4 none). Zeroed output weights make every step a tie.
    The model is float64: the search's cached steps and the reference's
    full-prefix steps round differently, by about 1e-7 in float32."""
    width = 1 + extra_width % (tgt_vocab + 1)
    model = small_model(seed, np.float64, tgt_vocab=tgt_vocab, n_layers=1 + seed % 2,
                        context_mode=mode, dropout=0.0)
    if eos_bias is not None:
        model.out_proj.b.data[TEOS] = eos_bias
    if flat:
        model.out_proj.w.data[:] = 0.0
    rng = np.random.default_rng(seed)
    src = np.full((len(lengths), max(s for s, _ in lengths)), PAD, dtype=np.int64)
    ctx = np.full((len(lengths), 2 + max(c for _, c in lengths)), PAD, dtype=np.int64)
    for i, (s, c) in enumerate(lengths):
        src[i, :s] = rng.integers(6, 12, size=s)
        ctx[i, :c + 2] = [BOS, *rng.integers(6, 12, size=c), EOS]
    ctx = None if mode == "none" else ctx
    enc = model.encode(src, ctx)
    max_out = 6
    greedy = model.translate(src, ctx, mode="greedy", max_out=max_out)
    beam = model.translate(src, ctx, mode="beam", width=width, max_out=max_out)
    for i, (g, b) in enumerate(zip(greedy, beam)):
        ref_g = reference_beam(model, enc, i, 1, max_out)
        ref_b = reference_beam(model, enc, i, width, max_out)
        ref_b = ref_b if ref_b[1] >= ref_g[1] else ref_g
        for got, (ids, score, truncated) in ((g, ref_g), (b, ref_b)):
            assert got.ids == ids and got.truncated == truncated
            assert got.score == pytest.approx(score, abs=1e-9)


def _padded_batch(mode):
    src = np.array([[6, 7, 8, 9], [10, 11, PAD, PAD], [7, PAD, PAD, PAD]])
    ctx = np.array([[BOS, 6, EOS, PAD], [BOS, 7, 8, EOS], [BOS, EOS, PAD, PAD]])
    return src, None if mode == "none" else ctx


def _rows(enc, index):
    return EncoderState(ad.Tensor(enc.hidden.data[index]), enc.mask[index])


@pytest.mark.parametrize("mode", ["none", "gated-context", "concat"])
@pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-5), (np.float64, 1e-10)])
def test_cached_step_matches_full_prefix(mode, dtype, tol):
    """A cached decode_step gives the full-prefix probabilities on a padded
    source batch, with PAD among the fed tokens, while the rows of each
    sentence are reordered as beam slots are and sentences retire."""
    width, vocab = 3, 11
    model = small_model(11, dtype, context_mode=mode, dropout=0.0)
    src, ctx = _padded_batch(mode)
    enc = model.encode(src, ctx)
    rng = np.random.default_rng(0)
    sent = np.repeat(np.arange(len(src)), width)  # sentence of each row
    prefix = np.full((sent.size, 1), TBOS, dtype=np.int64)
    cache = model.new_cache(enc).take(sent)
    for step in range(10):
        cached = model.decode_step(prefix, enc, cache)
        np.testing.assert_allclose(cached, model.decode_step(prefix, _rows(enc, sent)),
                                   rtol=0, atol=tol)
        if step in (3, 6):  # the first sentence still searching retires
            keep = sent != sent[0]
            sent, prefix, cache = sent[keep], prefix[keep], cache.take(keep)
        order = np.arange(sent.size) // width * width + rng.integers(0, width, sent.size)
        tok = np.where(rng.random(sent.size) < 0.3, PAD, rng.integers(0, vocab, sent.size))
        prefix = np.concatenate([prefix[order], tok[:, None]], axis=1)
        cache = cache.take(order)
    assert (prefix == PAD).any() and sent.size == width


def test_cached_step_rejects_mismatched_cache():
    model = small_model(12)
    enc = model.encode(np.array([[6, 7], [8, 9]]))
    cache = model.new_cache(enc)
    with pytest.raises(ModelError, match=r"\(rows, positions\) \(2, 0\)"):
        model.decode_step(np.array([[TBOS]]), enc, cache)
    with pytest.raises(ModelError, match=r"prefix of shape \(2, 2\)"):
        model.decode_step(np.array([[TBOS, 6], [TBOS, 7]]), enc, cache)
    prefix = np.full((2, 1), TBOS)  # the rejected calls left the cache as it was
    np.testing.assert_allclose(model.decode_step(prefix, enc, cache),
                               model.decode_step(prefix, enc), rtol=0, atol=1e-5)


@pytest.mark.parametrize("mode", ["none", "gated-context", "concat"])
def test_cached_search_scores_match_full_prefix_refeed(mode):
    """In float32, greedy and width-3 results score what their ids score fed
    back through full-prefix steps, within 1e-5, on a padded batch whose
    search emits PAD (a PAD bias of +3) and whose sentences end at different
    steps."""
    model = small_model(13, context_mode=mode, dropout=0.0)
    model.out_proj.b.data[PAD] = 3.0
    model.out_proj.b.data[TEOS] = 2.5
    src, ctx = _padded_batch(mode)
    enc = model.encode(src, ctx)
    results = model._search(enc, 1, 8) + model._search(enc, 3, 8)
    assert any(PAD in r.ids for r in results)
    assert len({len(r.ids) for r in results}) > 1
    for i, r in enumerate(results):
        ids = [TBOS] + r.ids
        logp = sum(np.log(model.decode_step(np.array([ids[:t + 1]]), _rows(enc, [i % len(src)]))
                          [0, ids[t + 1]] + 1e-30) for t in range(len(r.ids)))
        norm = ((5.0 + max(len(r.ids), 1)) / 6.0) ** model.config.length_penalty
        assert r.score == pytest.approx(logp / norm, abs=1e-5)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    model = small_model(8, context_mode="gated-context")
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    for (name, tensor), (name2, tensor2) in zip(model.store.items(), loaded.store.items()):
        assert name == name2
        np.testing.assert_array_equal(tensor.data, tensor2.data)


def test_checkpoint_detects_corruption(tmp_path):
    model = small_model(9)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)
    blob = bytearray(open(path, "rb").read())
    blob[-3] ^= 0xFF
    open(path, "wb").write(bytes(blob))
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(path)


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = str(tmp_path / "noise.bin")
    open(path, "wb").write(b"definitely not a checkpoint")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_write_failing_midway_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "last.ckpt"
    save_checkpoint(small_model(13), str(path))
    before = path.read_bytes()

    class TornFile:
        """Writes half of the payload (the fourth write), then fails."""

        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()
            return False

        def write(self, data):
            self.writes += 1
            if self.writes == 4:
                self.fh.write(data[:len(data) // 2])
                raise OSError("no space left on device")
            return self.fh.write(data)

    monkeypatch.setattr(model_module, "open", lambda *a, **k: TornFile(open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError, match="no space"):
        save_checkpoint(small_model(14), str(path))
    monkeypatch.undo()
    assert os.listdir(tmp_path) == ["last.ckpt"]
    assert path.read_bytes() == before
    loaded = load_checkpoint(str(path))
    np.testing.assert_array_equal(loaded.store["src_embed"].data,
                                  small_model(13).store["src_embed"].data)


def test_loaded_model_translates_identically(tmp_path):
    model = small_model(10)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    src = np.array([[6, 7, 8]])
    a = model.translate(src, mode="greedy", max_out=6)[0]
    b = loaded.translate(src, mode="greedy", max_out=6)[0]
    assert a.ids == b.ids
