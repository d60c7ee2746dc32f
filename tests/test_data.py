import collections
import hashlib
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ctxnmt import bpe, data, synthetic
from ctxnmt.vocab import BOS, EOS, TBOS, TEOS, UNK, Vocab, VocabError


# ---------------------------------------------------------------------------
# byte-pair encoding
# ---------------------------------------------------------------------------


def test_learn_bpe_hand_fixture():
    model = bpe.learn_bpe(["low low low lower"], 2)
    assert list(model.merges) == [("l", "o"), ("lo", "w")]


def test_apply_bpe_after_fixture_merges():
    model = bpe.learn_bpe(["low low low lower"], 2)
    assert bpe.apply_bpe(model, ["low"]) == ["low"]
    assert bpe.apply_bpe(model, ["lower"]) == ["low@@", "e@@", "r"]


def test_zero_merges_yields_characters():
    model = bpe.learn_bpe(["low"], 0)
    assert bpe.apply_bpe(model, ["low"]) == ["l@@", "o@@", "w"]


def test_negative_merges_rejected():
    with pytest.raises(bpe.BpeError):
        bpe.learn_bpe(["a"], -1)


def test_learn_bpe_deterministic():
    corpus = ["the cat sat on the mat", "the bat sat"]
    a = bpe.learn_bpe(corpus, 8)
    b = bpe.learn_bpe(corpus, 8)
    assert a.merges == b.merges


def test_learn_bpe_exhausts_gracefully():
    # a 2-char word supports a single merge however many are requested
    model = bpe.learn_bpe(["ab"], 10)
    assert list(model.merges) == [("a", "b")]


def test_bpe_model_save_load_roundtrip(tmp_path):
    model = bpe.learn_bpe(["low low low lower"], 2)
    path = str(tmp_path / "merges.txt")
    model.save(path)
    assert bpe.BpeModel.load(path).merges == model.merges


def test_bpe_model_load_names_bad_line(tmp_path):
    path = tmp_path / "merges.txt"
    path.write_bytes(b"l o\nlo w\xff\n")
    with pytest.raises(bpe.BpeError, match=f"{path}:2: not valid UTF-8"):
        bpe.BpeModel.load(str(path))
    path.write_bytes(b"l o\nlow\n")
    with pytest.raises(bpe.BpeError, match=f"{path}:2: bad merge line"):
        bpe.BpeModel.load(str(path))


@given(st.lists(st.text(alphabet="abcdef", min_size=1, max_size=8), min_size=1, max_size=6),
       st.integers(min_value=0, max_value=12))
def test_detokenize_inverts_apply(words, n_merges):
    model = bpe.learn_bpe([" ".join(words)], n_merges)
    assert bpe.detokenize(bpe.apply_bpe(model, words)) == words


# The quadratic learner and segmenter that bpe.py replaced, kept as the
# oracle: recount every pair and rebuild the word table after each merge;
# replay every merge, in order, on every token.


def _reference_merge_word(word, pair):
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


def _reference_learn_bpe(lines, num_merges):
    word_freqs = collections.Counter()
    for line in lines:
        for token in line.split():
            word_freqs[tuple(token)] += 1
    merges = []
    for _ in range(num_merges):
        counts = collections.Counter()
        for word, freq in word_freqs.items():
            for pair in zip(word, word[1:]):
                counts[pair] += freq
        if not counts:
            break
        best_freq = max(counts.values())
        best = min(p for p, c in counts.items() if c == best_freq)
        merges.append(best)
        word_freqs = collections.Counter(
            {_reference_merge_word(w, best): f for w, f in word_freqs.items()})
    return merges


def _reference_segment_word(merges, token):
    word = tuple(token)
    for pair in merges:
        if len(word) == 1:
            break
        word = _reference_merge_word(word, pair)
    return [p + bpe.CONNECTOR for p in word[:-1]] + [word[-1]]


def _reference_apply_bpe(merges, tokens):
    return [piece for token in tokens for piece in _reference_segment_word(merges, token)]


# small alphabets with one non-ASCII letter make ties and multi-character
# symbols common
_TOKENS = st.text(alphabet="abcé", min_size=1, max_size=7)
_LINES = st.lists(st.lists(_TOKENS, min_size=1, max_size=5).map(" ".join),
                  min_size=1, max_size=12)


@given(_LINES, st.integers(min_value=0, max_value=40))
def test_learn_and_apply_equal_the_quadratic_reference(lines, n_merges):
    model = bpe.learn_bpe(lines, n_merges)
    assert list(model.merges) == _reference_learn_bpe(lines, n_merges)
    for line in lines:
        assert bpe.apply_bpe(model, line.split()) == \
            _reference_apply_bpe(model.merges, line.split())


_SYMBOLS = st.sampled_from(["a", "b", "c", "é", "ab", "bc", "ca", "aé", "abc", ""])


@st.composite
def _loaded_merges(draw):
    """A merge list as BpeModel.load may return one, and tokens to segment:
    learned merges, with arbitrary pairs (some no word holds) and copies of
    learned merges inserted anywhere, also ahead of the merges that make
    their pieces."""
    lines = draw(_LINES)
    merges = _reference_learn_bpe(lines, draw(st.integers(min_value=0, max_value=20)))
    extra = draw(st.lists(st.tuples(_SYMBOLS, _SYMBOLS), max_size=6))
    if merges:
        extra += draw(st.lists(st.sampled_from(merges), max_size=6))
    for pair in extra:
        merges.insert(draw(st.integers(min_value=0, max_value=len(merges))), pair)
    return merges, " ".join(lines).split()


@example(([("ab", "c"), ("a", "b"), ("ab", "c")], ["abc", "cabcab"]))
@given(_loaded_merges())
def test_any_merge_list_segments_as_the_reference(case):
    merges, tokens = case
    model = bpe.BpeModel(merges)
    assert bpe.apply_bpe(model, tokens) == _reference_apply_bpe(merges, tokens)
    for token in tokens:
        assert bpe.segment_word(model, token) == _reference_segment_word(merges, token)


def _golden_corpus():
    """2,000 seeded lines of Zipf-distributed pseudo-words over an alphabet with
    one non-ASCII letter and some punctuation."""
    rng = random.Random(1508)
    syllables = [c + v for c in "bdgklmnprstvzž" for v in "aeiouy"] + ["'", ",", "?"]
    words = ["".join(rng.choices(syllables, k=rng.randint(1, 4))) for _ in range(900)]
    weights = [1.0 / (rank + 1) for rank in range(len(words))]
    return [" ".join(rng.choices(words, weights, k=rng.randint(1, 12))) for _ in range(2000)]


def test_golden_merges_and_segmentations():
    # digests recorded with the quadratic learner and segmenter above
    lines = _golden_corpus()
    model = bpe.learn_bpe(lines, 300)
    merges = "".join(f"{a} {b}\n" for a, b in model.merges)
    segmented = "".join(" ".join(bpe.apply_bpe(model, line.split())) + "\n" for line in lines)
    assert len(model.merges) == 300
    assert hashlib.sha256(merges.encode()).hexdigest() == \
        "a38e4888c5c10f663af74d0fb490083e64e8fe0e29fc4dd49ff7b347df1f5e94"
    assert hashlib.sha256(segmented.encode()).hexdigest() == \
        "19c777c024c5b98ba6ed103c51aca08c16051581364df3878c7dc9b18e67ac02"


@pytest.mark.parametrize("change", [
    lambda m: m.merges.append(("ab", "c")), lambda m: m.merges.__setitem__(0, ("b", "c")),
    lambda m: setattr(m, "merges", []),
    lambda m: m.merges.extend([("ab", "c")]), lambda m: m.merges.insert(0, ("b", "c")),
    lambda m: m.merges.__iadd__([("ab", "c")]),
    lambda m: m.merges.__setitem__(slice(0, 1), [("b", "c")]),
    lambda m: m.merges.pop(), lambda m: m.merges.remove(("a", "b")),
    lambda m: m.merges.clear(), lambda m: m.merges.__delitem__(0),
    lambda m: m.merges.__imul__(0),
], ids=["append", "item", "reassign", "extend", "insert", "+=", "slice", "pop", "remove",
        "clear", "del", "*=0"])
def test_merges_cannot_change_after_construction(change):
    """A model's merges are fixed when it is built, so the segmenter's
    tables, built once, always match them."""
    model = bpe.BpeModel([("a", "b")])
    assert bpe.apply_bpe(model, ["abc"]) == ["ab@@", "c"]
    with pytest.raises((AttributeError, TypeError)):
        change(model)
    assert list(model.merges) == [("a", "b")]
    assert bpe.apply_bpe(model, ["abc", "bcab"]) == \
        _reference_apply_bpe([("a", "b")], ["abc", "bcab"])


def test_empty_token_has_no_pieces():
    model = bpe.learn_bpe(["low low lower"], 3)
    assert bpe.segment_word(model, "") == []
    assert bpe.apply_bpe(model, ["low", "", "low"]) == ["low", "low"]


def test_group_pieces():
    assert bpe.group_pieces(["lo@@", "w", "and", "hi@@", "gh@@", "er"]) == \
        [[0, 1], [2], [3, 4, 5]]
    assert bpe.group_pieces([]) == []


def test_vocab_symbols_frequency_then_alpha():
    symbols = bpe.vocab_symbols(["b a a", "c b a"])
    assert symbols == ["a", "b", "c"]
    symbols = bpe.vocab_symbols(["z y", "y z"])
    assert symbols == ["y", "z"]


# ---------------------------------------------------------------------------
# ingestion and filtering
# ---------------------------------------------------------------------------


def _line(movie="m1", t0=0.0, t1=2.0, overlap=0.95, src="hello there", tgt="hallo du"):
    return f"{movie}\t{t0}\t{t1}\t{overlap}\t{src}\t{tgt}"


def test_ingest_well_formed_line():
    pairs, skipped = data.ingest([_line()])
    assert skipped == 0
    (p,) = pairs
    assert p.movie_id == "m1"
    assert p.time_start == 0.0 and p.time_end == 2.0
    assert p.overlap == 0.95
    assert p.source_text == "hello there" and p.target_text == "hallo du"


def test_ingest_three_line_fixture_with_one_malformed():
    lines = [_line(), "m1\t3.0\tnot-a-number", _line(t0=4.0, t1=6.0)]
    pairs, skipped = data.ingest(lines, max_malformed_fraction=0.5)
    assert len(pairs) == 2
    assert skipped == 1


def test_ingest_skips_bad_field_values():
    bad = [
        _line(overlap=1.5),                  # overlap out of range
        _line(t0=5.0, t1=1.0),               # end before start
        _line(src=" "),                      # empty source
        _line().replace("\t0.95\t", "\tx\t"),  # unparseable overlap
    ]
    pairs, skipped = data.ingest(bad + [_line()] * 10, max_malformed_fraction=0.5)
    assert len(pairs) == 10
    assert skipped == 4


def test_ingest_skips_tokens_ending_in_the_connector():
    # such a token would detokenize glued to its successor; inside a token,
    # or as a prefix, the connector is harmless
    bad = [_line(src="hello there@@ you"), _line(tgt="hallo @@"), _line(src="@@")]
    good = [_line(src="a@@b c"), _line(tgt="@@x y")]
    pairs, skipped = data.ingest(bad + good + [_line()] * 10, max_malformed_fraction=0.5)
    assert skipped == 3
    assert [p.source_text for p in pairs[:2]] == ["a@@b c", "hello there"]
    model = bpe.learn_bpe(["a@@b c @@x y"], 6)
    for text in ("a@@b c", "@@x y"):
        assert bpe.detokenize(bpe.apply_bpe(model, text.split())) == text.split()


def test_ingest_too_many_malformed_lines_is_an_error():
    lines = [_line(), "garbage", _line(t0=4.0, t1=6.0)]
    with pytest.raises(data.DataError, match="malformed"):
        data.ingest(lines)  # 1 of 3 exceeds the default tolerance


def test_ingest_file_unreadable_path():
    with pytest.raises(data.DataError, match="cannot read"):
        data.ingest_file("/nonexistent/corpus.tsv")


def test_filter_pairs_boundary_fixture():
    overlaps = [0.95, 0.9, 0.89, 1.0, 0.0]
    pairs = [data.RawPair("m", 0, 1, ov, "s", "t") for ov in overlaps]
    kept = data.filter_pairs(pairs)
    assert len(kept) == 3
    assert [p.overlap for p in kept] == [0.95, 0.9, 1.0]


def test_filter_pairs_idempotent_and_order_stable():
    pairs = [data.RawPair("m", i, i + 1, 0.9 + 0.01 * i, f"s{i}", "t") for i in range(5)]
    once = data.filter_pairs(pairs)
    assert data.filter_pairs(once) == once
    assert [p.source_text for p in once] == [p.source_text for p in pairs if p.overlap >= 0.9]


# ---------------------------------------------------------------------------
# context attachment
# ---------------------------------------------------------------------------


def _movie(movie_id, spans, texts=None):
    texts = texts or [f"sent{i}" for i in range(len(spans))]
    return [data.RawPair(movie_id, t0, t1, 1.0, txt, f"tgt-{txt}")
            for (t0, t1), txt in zip(spans, texts)]


def test_attach_previous_within_gap():
    pairs = _movie("m", [(0.0, 5.0), (11.9, 13.0)])
    out = data.attach_context(pairs, "previous")
    assert out[1].context_text == "sent0"          # gap 6.9 s
    assert out[1].has_real_context


def test_attach_previous_beyond_gap():
    pairs = _movie("m", [(0.0, 5.0), (12.5, 13.0)])
    out = data.attach_context(pairs, "previous")
    assert out[1].context_text == ""               # gap 7.5 s
    assert not out[1].has_real_context


def test_attach_gap_boundary_inclusive():
    pairs = _movie("m", [(0.0, 5.0), (12.0, 13.0)])
    out = data.attach_context(pairs, "previous")
    assert out[1].has_real_context                 # gap exactly 7.0 s


def test_attach_first_pair_has_no_previous_context():
    pairs = _movie("m", [(0.0, 1.0), (1.5, 2.0)])
    out = data.attach_context(pairs, "previous")
    assert not out[0].has_real_context
    assert out[0].context_text == ""


def test_attach_respects_movie_boundaries():
    pairs = _movie("a", [(0.0, 1.0)]) + _movie("b", [(1.2, 2.0)])
    out = data.attach_context(pairs, "previous")
    assert not out[1].has_real_context


def test_attach_next_mode_symmetric():
    pairs = _movie("m", [(0.0, 5.0), (8.0, 9.0)])
    out = data.attach_context(pairs, "next")
    assert out[0].context_text == "sent1"          # next starts 3.0 s later
    assert not out[1].has_real_context


def test_attach_none_mode_empty_contexts():
    pairs = _movie("m", [(0.0, 1.0), (1.5, 2.0), (2.5, 3.0)])
    out = data.attach_context(pairs, "none")
    assert all(not cp.has_real_context for cp in out)


def test_attach_unsorted_input_rejected():
    pairs = _movie("m", [(5.0, 6.0), (0.0, 1.0)])
    with pytest.raises(data.DataError, match="not sorted"):
        data.attach_context(pairs, "previous")


def test_attach_unknown_direction_rejected():
    with pytest.raises(data.DataError):
        data.attach_context([], "sideways")


def test_attach_shuffled_reproducible_and_permutes():
    spans = [(float(i * 2), float(i * 2 + 1)) for i in range(8)]
    pairs = _movie("m", spans)
    base = data.attach_context(pairs, "previous")
    s1 = data.attach_context(pairs, "shuffled", seed=3)
    s2 = data.attach_context(pairs, "shuffled", seed=3)
    assert [cp.context_text for cp in s1] == [cp.context_text for cp in s2]
    real = lambda cps: sorted(cp.context_text for cp in cps if cp.has_real_context)
    assert real(s1) == real(base)                  # a permutation of the same contexts
    assert [cp.has_real_context for cp in s1] == [cp.has_real_context for cp in base]
    prepared = [(cp.context_text, "s", "t") for cp in base]
    assert [c for c, _, _ in data.shuffle_contexts(prepared, seed=3)] == \
        [cp.context_text for cp in s1]             # the same permutation as on prepared files


def test_shuffle_contexts_on_prepared_triples():
    triples = [("c1", "s1", "t1"), ("", "s2", "t2"), ("c3", "s3", "t3"),
               ("c4", "s4", "t4")]
    out = data.shuffle_contexts(triples, seed=1)
    assert data.shuffle_contexts(triples, seed=1) == out
    assert out[1] == ("", "s2", "t2")              # empty slots untouched
    assert sorted(c for c, _, _ in out if c) == ["c1", "c3", "c4"]
    assert [(s, t) for _, s, t in out] == [(s, t) for _, s, t in triples]


# ---------------------------------------------------------------------------
# prepared files and encoding
# ---------------------------------------------------------------------------


def test_prepared_roundtrip(tmp_path):
    triples = [("the cat is here .", "it fell .", "ona upala ."),
               ("", "hello .", "hallo .")]
    path = str(tmp_path / "prep.tsv")
    data.write_prepared(path, triples)
    assert data.read_prepared(path) == triples
    assert len(open(path).read().splitlines()) == len(triples)


def test_prepared_rejects_tabs():
    with pytest.raises(data.DataError):
        data.write_prepared("/dev/null", [("a\tb", "s", "t")])


def test_read_prepared_rejects_bad_line(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("only two\tfields\n")
    with pytest.raises(data.DataError, match="3 tab-separated"):
        data.read_prepared(str(path))


def test_encode_examples_attaches_specials():
    src_vocab = Vocab.from_symbols(["the", "cat", "it", "fell", "."])
    tgt_vocab = Vocab.from_symbols(["ona", "upala", "."])
    triples = [("the cat", "it fell .", "ona upala ."), ("", "it .", "ona .")]
    examples, stats = data.encode_examples(triples, src_vocab, tgt_vocab, max_len=32)
    assert stats.unk_count == 0
    first, second = examples
    assert first.context_ids[0] == BOS and first.context_ids[-1] == EOS
    assert first.source_ids[-1] == EOS
    assert first.target_ids[0] == TBOS and first.target_ids[-1] == TEOS
    assert second.context_ids == [BOS, EOS]        # empty context keeps the frame


def test_encode_examples_counts_unks():
    src_vocab = Vocab.from_symbols(["it"])
    tgt_vocab = Vocab.from_symbols(["ona"])
    examples, stats = data.encode_examples([("", "it mystery", "ona")],
                                           src_vocab, tgt_vocab, max_len=32)
    assert stats.unk_count == 1
    assert examples[0].source_ids.count(UNK) == 1


def test_encode_examples_truncates_and_counts():
    src_vocab = Vocab.from_symbols(["w"])
    tgt_vocab = Vocab.from_symbols(["w"])
    long = " ".join(["w"] * 20)
    _, stats = data.encode_examples([(long, long, long)], src_vocab, tgt_vocab, max_len=8)
    assert (stats.truncated_contexts, stats.truncated_sources,
            stats.truncated_targets) == (1, 1, 1)
    examples, _ = data.encode_examples([(long, long, long)], src_vocab, tgt_vocab, max_len=8)
    assert len(examples[0].context_ids) == 8
    assert len(examples[0].source_ids) == 8
    assert len(examples[0].target_ids) == 8


def test_encode_examples_rejects_empty_source():
    v = Vocab.from_symbols(["x"])
    with pytest.raises(data.DataError, match="empty source"):
        data.encode_examples([("", "", "x")], v, v, max_len=8)


# ---------------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------------


def test_vocab_roundtrip(tmp_path):
    v = Vocab.from_symbols(["b", "a"])
    path = str(tmp_path / "vocab.txt")
    v.save(path)
    loaded = Vocab.load(path)
    assert loaded.symbols == v.symbols
    assert loaded.id_of("a") == v.id_of("a")


def test_vocab_load_rejects_non_utf8(tmp_path):
    path = tmp_path / "vocab.txt"
    Vocab.from_symbols(["a"]).save(str(path))
    path.write_bytes(path.read_bytes() + b"b\xff\n")
    with pytest.raises(VocabError, match=f"{path}:8: not valid UTF-8"):
        Vocab.load(str(path))


def test_vocab_unknowns_map_to_unk():
    v = Vocab.from_symbols(["a"])
    ids, n_unk = v.encode(["a", "zzz"])
    assert ids[1] == UNK and n_unk == 1


def test_vocab_decode_strip_specials():
    v = Vocab.from_symbols(["a"])
    assert v.decode([BOS, 6, EOS], strip_specials=True) == ["a"]


def test_vocab_requires_specials_prefix():
    with pytest.raises(VocabError):
        Vocab(["a", "b"])


def test_vocab_rejects_duplicates():
    with pytest.raises(VocabError):
        Vocab.from_symbols(["a", "a"])


# ---------------------------------------------------------------------------
# synthetic toy language
# ---------------------------------------------------------------------------


def test_gender_rule_noun5_is_feminine():
    assert synthetic.noun_gender(5) == "fem"
    spec = synthetic.SyntheticSpec(noun_inventory=8, distractor_prob=0.0, size=40, seed=0)
    triples, annotations = synthetic.generate(spec)
    for (ctx, _, tgt), ann in zip(triples, annotations):
        if "noun5" in ctx.split():
            assert tgt == "ona upala ."
            assert ann.gender_label == "fem"
            break
    else:
        pytest.fail("noun5 never sampled at this size/seed")


def test_target_forms_track_subject_gender():
    spec = synthetic.SyntheticSpec(noun_inventory=12, distractor_prob=0.5, size=200, seed=1)
    triples, annotations = synthetic.generate(spec)
    for (ctx, src, tgt), ann in zip(triples, annotations):
        subject = ctx.split()[1]                   # "the NOUN ..." before model offsets
        k = int(subject.removeprefix("noun"))
        g = synthetic.GENDERS[k % 4]
        assert tgt.split() == [synthetic.PRONOUN_FORMS[g], synthetic.VERB_FORMS[g], "."]
        assert src == "it fell ."
        assert ann.gender_label == g


def test_noun_counts_and_positions():
    spec = synthetic.SyntheticSpec(noun_inventory=6, distractor_prob=0.5, size=300, seed=2)
    triples, annotations = synthetic.generate(spec)
    for (ctx, _, _), ann in zip(triples, annotations):
        words = ctx.split()
        if ann.context_noun_count == 1:
            assert ann.noun_positions == [2]
            assert len(words) == 5
        else:
            assert ann.context_noun_count == 2
            assert ann.noun_positions == [2, 8]
            assert len(words) == 9
            # model position 8 is context word index 7 (role token occupies 0)
            assert words[7].startswith("noun")
            assert words[7] != words[1]            # distractor differs from subject
        assert words[1].startswith("noun")
        assert ann.antecedent_span == (1, 2)
        assert ann.pronoun == "it" and ann.pronoun_index == 0


def test_distractor_rate_binomial_bound():
    spec = synthetic.SyntheticSpec(noun_inventory=8, distractor_prob=0.5, size=1000, seed=7)
    _, annotations = synthetic.generate(spec)
    with_distractor = sum(1 for a in annotations if a.context_noun_count == 2)
    assert 450 <= with_distractor <= 550


def test_generate_deterministic():
    spec = synthetic.SyntheticSpec(noun_inventory=8, distractor_prob=0.3, size=50, seed=9)
    assert synthetic.generate(spec) == synthetic.generate(spec)


def test_small_inventory_rejected():
    with pytest.raises(synthetic.SyntheticError, match="four genders"):
        synthetic.SyntheticSpec(noun_inventory=3, distractor_prob=0.0, size=1, seed=0).validate()


def test_gender_classes_roughly_uniform():
    spec = synthetic.SyntheticSpec(noun_inventory=8, distractor_prob=0.0, size=2000, seed=3)
    _, annotations = synthetic.generate(spec)
    counts = collections.Counter(a.gender_label for a in annotations)
    for g in synthetic.GENDERS:
        assert 400 <= counts[g] <= 600             # 500 expected per class


def test_synthetic_vocabulary_is_closed():
    spec = synthetic.SyntheticSpec(noun_inventory=10, distractor_prob=0.5, size=100, seed=4)
    triples, _ = synthetic.generate(spec)
    src_words, tgt_words = synthetic.vocabulary_words(spec)
    src_vocab = Vocab.from_symbols(src_words)
    tgt_vocab = Vocab.from_symbols(tgt_words)
    _, stats = data.encode_examples(triples, src_vocab, tgt_vocab, max_len=32)
    assert stats.unk_count == 0
