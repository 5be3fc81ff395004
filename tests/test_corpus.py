import dataclasses
import json
import pickle
import random
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import (ListIndex, batch_index, batch_ingest, scan_cooccurrences, scan_windows,
                     search_phrases)
from relmap import corpus as corpus_module
from relmap.corpus import (CorpusIndex, _find_windows, cache_path, cached_index,
                           cooccurrence_counts, corpus_digest, ingest,
                           ingest_dir, load_index, save_index)
from relmap.errors import CorpusError
from relmap.terms import Term, TermPair

from conftest import occurrences, token_texts, write_corpus


def occ_key(occ):
    return (occ.doc, occ.start + occ.x_span[0], occ.start + occ.y_span[0],
            occ.pre, occ.mid, occ.post)


def doc_tokens(index):
    """The index's documents as token lists, decoded from its arrays."""
    offsets = index.doc_offsets.tolist()
    return [[index.vocab[i] for i in index.ids[a:b].tolist()]
            for a, b in zip(offsets[:-1], offsets[1:])]


# --- ingestion --------------------------------------------------------------

def test_ingest_empty_list():
    index = ingest([])
    assert index.total_tokens == 0
    assert index.n_documents == 0
    assert list(index.vocab) == []
    assert occurrences(index, Term.parse("sun")) == []


def test_ingest_single_sentence(tmp_path):
    index = write_corpus(tmp_path, ["The sun attracts the planet."])
    assert index.total_tokens == 5
    assert len(occurrences(index, Term.parse("sun"))) == 1
    assert occurrences(index, Term.parse("the")) == [(0, 0), (0, 3)]


def test_ingest_twice_doubles_counts(tmp_path):
    text = "the sun attracts the planet"
    once = write_corpus(tmp_path, [text])
    twice = write_corpus(tmp_path, [text, text], prefix="dup")
    assert twice.total_tokens == 2 * once.total_tokens
    assert list(twice.vocab) == list(once.vocab)
    for tok in once.vocab:
        term = Term((tok,))
        assert len(occurrences(twice, term)) == 2 * len(occurrences(once, term))


def test_ingest_unreadable_file_names_path(tmp_path):
    missing = tmp_path / "nope.txt"
    with pytest.raises(CorpusError, match="nope.txt"):
        ingest([missing])


def test_ingest_non_utf8_names_path(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe broken")
    with pytest.raises(CorpusError, match="bad.txt"):
        ingest([bad])


def test_ingest_dir_reads_lexicographically(tmp_path):
    (tmp_path / "b.txt").write_text("beta")
    (tmp_path / "a.txt").write_text("alpha")
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "c.txt").write_text("gamma")
    index = ingest_dir(tmp_path)
    assert [d[0] for d in doc_tokens(index)] == ["alpha", "beta", "gamma"]


@given(st.lists(token_texts, max_size=5))
@settings(max_examples=150, deadline=None)
def test_ingest_equals_batch_oracle(file_texts):
    """Streamed ingest gives the batch design's ids, offsets, vocabulary and digest."""
    with tempfile.TemporaryDirectory() as root:
        paths = [Path(root) / f"doc{i}.txt" for i in range(len(file_texts))]
        for path, text in zip(paths, file_texts):
            path.write_bytes(text.encode("utf-8"))
        index = ingest(paths)
        ids, offsets, vocab, digest = batch_ingest(paths)
    assert index.ids.dtype == np.int32 and index.doc_offsets.dtype == np.int64
    assert index.ids.tolist() == ids.tolist()
    assert index.doc_offsets.tolist() == offsets.tolist()
    assert list(index.vocab) == vocab
    assert index.digest == digest


def test_ingest_memory_is_one_file_of_tokens(tmp_path):
    """20 files of 20k tokens over 500 words: the traced peak stays near one
    file's tokens (about 1.2 MB as Python strings) plus the ids (1.6 MB, and
    as much again while they are joined). Tokenizing every file first, as a
    batch ingest does, holds all 400k tokens at once: over 25 MB."""
    rng = random.Random(5)
    words = ["".join(rng.choices("abcdefghij", k=rng.randint(3, 10))) for _ in range(500)]
    paths = []
    for i in range(20):
        path = tmp_path / f"doc{i:02d}.txt"
        path.write_text(" ".join(rng.choices(words, k=20_000)) + "\n", encoding="utf-8")
        paths.append(path)
    tracemalloc.start()
    try:
        index = ingest(paths)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert index.total_tokens == 400_000
    assert peak_mb < 8, f"peak {peak_mb:.1f} MB"


def test_ingest_memory_of_distinct_words(tmp_path):
    """200k distinct words, each a token once, in 20 files, as in the
    benchmark's planted corpora, whose filler words are all distinct: the
    traced peak stays under 18 MB. It is 14.4 MB: the batches' bytes, the
    sort's arrays of one entry per word and the ids. One first-seen dict
    over the whole corpus and a Python sort of its words, the earlier
    design (`oracles.batch_index`), traced 26.2 MB."""
    rng = random.Random(7)
    words = [f"w{i:07d}" for i in range(200_000)]
    rng.shuffle(words)
    paths = []
    for i in range(20):
        path = tmp_path / f"doc{i:02d}.txt"
        path.write_text(" ".join(words[i * 10_000:(i + 1) * 10_000]) + "\n", encoding="utf-8")
        paths.append(path)
    del words
    tracemalloc.start()
    try:
        index = ingest(paths)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert len(index.vocab) == 200_000
    assert peak_mb < 18, f"peak {peak_mb:.1f} MB"


# Words for the sort of the batches' words: stems of 7, 8, 15, 16 and 32
# bytes, so that words tie on their first 8, 16 or 32 bytes; 2-, 3- and
# 4-byte characters after them, which straddle byte 8 or 16; and NUL
# endings, so that pairs such as "a" and "a\x00" are drawn.
SORT_STEMS = ["", "a", "abcdefg", "abcdefgh", "abcdefghijklmno", "abcdefghijklmnop",
              "abcdefgh" * 4]
SORT_CHARS = ["a", "b", "\x00", "\x01", "é", "中", "😀"]
stem_word = st.builds(lambda stem, tail: stem + tail, st.sampled_from(SORT_STEMS),
                      st.text(SORT_CHARS, max_size=3)).filter(bool)
sort_word = st.one_of(stem_word, stem_word.map(lambda word: word + "\x00"))


@st.composite
def sort_docs(draw):
    """Documents over a few sort words, so that words repeat within and
    across documents."""
    words = draw(st.lists(sort_word, min_size=1, max_size=12))
    return draw(st.lists(st.lists(st.sampled_from(words), max_size=12), max_size=4))


@given(sort_docs(), st.sampled_from([1, 2, 3, 8, 1 << 14]))
@example([["a\x00", "a", "a\x00"], ["a", "abcdefgh\x00", "abcdefgh"]], 1)
@example([["abcdefghijklmnopé", "abcdefghijklmnop", "abcdefghijklmnop中"]], 2)
@settings(max_examples=200, deadline=None)
def test_index_equals_dict_oracle_on_sort_edge_cases(documents, batch_words):
    """`from_token_lists` and `ingest` give the ids, offsets, vocabulary
    bytes and digest of one first-seen dict and a Python sort, with the
    batch dict flushed every 1-3 words (mid-document and between repeats
    of a word), every 8 or not at all. `_BATCH_WORDS` also sets how many
    8-byte prefixes a sort round reads: one a word at 1, several at 8 or
    more."""
    ids, offsets, vocab = batch_index(documents)
    with tempfile.TemporaryDirectory() as root:
        paths = [Path(root) / f"doc{i}.txt" for i in range(len(documents))]
        for path, doc in zip(paths, documents):
            path.write_bytes(" ".join(doc).encode("utf-8"))
        with mock.patch.object(corpus_module, "_BATCH_WORDS", batch_words):
            got = [CorpusIndex.from_token_lists(documents), ingest(paths)]
        digest = batch_ingest(paths)[3]
    for index in got:
        assert index.ids.dtype == np.int32 and index.doc_offsets.dtype == np.int64
        assert index.ids.tolist() == ids.tolist()
        assert index.doc_offsets.tolist() == offsets.tolist()
        assert len(index.vocab) == len(vocab)
        assert bytes(index.vocab.blob) == "\n".join(vocab).encode("utf-8")
    assert got[1].digest == digest


def test_sort_of_long_tied_words_takes_few_rounds(monkeypatch):
    """Two copies of a 1 MiB word, from two batches, tie on every prefix:
    the sort tells them equal in 17 rounds (one over all words, then 16
    of 8,192 prefixes), not in one round per 8 bytes (131,072)."""
    rounds = []
    prefixes = corpus_module._prefixes
    monkeypatch.setattr(corpus_module, "_prefixes",
                        lambda *args: rounds.append(1) or prefixes(*args))
    long_word = "x" * (1 << 20)
    index = CorpusIndex.from_token_lists(
        [[long_word, *(f"w{i}" for i in range(1 << 14))], [long_word]])
    assert len(index.vocab) == (1 << 14) + 1
    assert index.ids[0] == index.ids[-1] == len(index.vocab) - 1
    assert index.vocab[len(index.vocab) - 1] == long_word
    assert len(rounds) == 17

def test_load_memory_holds_no_word_objects(tmp_path):
    """200k distinct words, each a token once: loading the cached index and
    one window search trace a peak under 9 MB (about 6 MB: the ids, the
    vocabulary's 1.8 MB of bytes and its offsets). The words as a list of
    strings take about 13 MB alone, and the old full postings 3 MB more."""
    rng = random.Random(7)
    words = [f"w{i:07d}" for i in range(200_000)]
    rng.shuffle(words)
    documents = [words[i:i + 10_000] + ["sun", "warms", "the", "planet"]
                 for i in range(0, len(words), 10_000)]
    path = save_index(CorpusIndex.from_token_lists(documents), tmp_path)
    del words, documents
    pairs = [TermPair.parse("sun", "planet"), TermPair.parse("warms", "planet")]
    tracemalloc.start()
    try:
        index = load_index(path)
        windows = _find_windows(index, pairs)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert len(index.vocab) == 200_004
    assert windows[0].tolist() == [0] * 20 + [1] * 20
    assert peak_mb < 9, f"peak {peak_mb:.1f} MB"


def test_window_search_memory_on_dense_occurrences():
    """20k tokens over four words, six terms and all 30 pairs of them:
    80,956 windows (3.7 MB of output). The term-level search traces a
    peak of 6.7 MB; the earlier search, in blocks of pairs with each
    pair's own copy of its x starts, peaked at 14.0 MB (numpy 2.4)."""
    rng = random.Random(3)
    index = CorpusIndex.from_token_lists([rng.choices("abcd", k=5000) for _ in range(4)])
    terms = [Term.parse(t) for t in ["a", "b", "c", "d", "a b", "c d"]]
    pairs = [TermPair(x, y) for x in terms for y in terms if x != y]
    tracemalloc.start()
    try:
        windows = _find_windows(index, pairs)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert windows[0].size == 80_956
    assert peak_mb < 10, f"peak {peak_mb:.1f} MB"


def test_window_search_shared_heads_repeated_pairs_and_document_ends():
    """Terms with one first token as x and as y, a pair listed twice, and
    runs that would cross a document end."""
    index = CorpusIndex.from_token_lists([["a", "b", "a", "b"], ["a"], ["b", "a", "b"]])
    a, ab, b = Term.parse("a"), Term.parse("a b"), Term.parse("b")
    pairs = [TermPair(a, ab), TermPair(ab, a), TermPair(a, b), TermPair(a, ab)]
    got = [w.tolist() for w in _find_windows(index, pairs)]
    # "a b" at 4-5 crosses from document 1 into 2, so it is no start, and
    # the "b" at 5 lies past the end of the "a" at 4.
    assert got == [[0, 1, 2, 2, 2, 2, 3],   # pair slot
                   [0, 0, 0, 0, 0, 2, 0],   # document
                   [0, 0, 0, 0, 2, 6, 0],   # x start
                   [2, 2, 1, 3, 3, 7, 2],   # y start
                   [0, 0, 0, 0, 1, 1, 0],   # pre
                   [0, 1, 1, 0, 0, 0, 0]]   # post


shared_head = st.sampled_from([("a",), ("a", "b"), ("b",), ("b", "a"), ("a", "b", "c")])


@given(st.lists(st.lists(st.sampled_from(["a", "b", "c"]), max_size=10), max_size=4),
       st.lists(st.tuples(shared_head, shared_head).filter(lambda xy: xy[0] != xy[1]),
                max_size=6), st.data())
@settings(max_examples=200, deadline=None)
def test_window_search_matches_scan_per_pair(documents, xys, data):
    """All pairs searched at once give each pair's brute-force windows, in
    (pair, document, x start, y start) order; a pair listed twice gets its
    windows twice."""
    pairs = [TermPair(Term(x), Term(y)) for x, y in xys]
    pairs += data.draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []
    index = CorpusIndex.from_token_lists(documents)
    got = _find_windows(index, pairs)
    assert all(w.dtype == np.int64 for w in got)
    starts = index.doc_offsets.tolist()
    want = [(k, d, starts[d] + x, starts[d] + y, pre, post)
            for k, pair in enumerate(pairs)
            for d, x, y, pre, _mid, post in sorted(
                scan_windows(documents, pair.x.tokens, pair.y.tokens))]
    assert list(zip(*(w.tolist() for w in got))) == want


def test_postings_are_built_on_first_search(tmp_path):
    """Ingest finds no word offsets and no postings. A search keeps the
    positions of the terms it names, and only those, and a term asked for
    again is served from them."""
    index = write_corpus(tmp_path, ["the sun attracts the planet"])
    assert "_offsets" not in vars(index.vocab)
    loaded = load_index(save_index(index, tmp_path / "cache"))
    the, sun = Term.parse("the"), Term.parse("sun")
    for idx in (index, loaded):
        assert idx._found == {}
        assert occurrences(idx, the) == [(0, 0), (0, 3)]
        assert set(idx._found) == {the}
        kept = idx._found[the]
        assert not kept.flags.writeable
        starts = idx._starts([sun, the])
        assert starts[the] is kept
        assert starts[sun].tolist() == [1]
        assert set(idx._found) == {the, sun}


# Words over characters that sort differently by UTF-16 and by UTF-8, of
# one to four UTF-8 bytes, with NUL and other control characters; words
# are short, so many are prefixes of others.
vocab_word = st.text(st.sampled_from(["a", "b", "\x00", "\x01", "\x7f", "\x80", "é", "\u07ff",
                                      "\u0800", "中", "\uffff", "\U00010000", "😀"]),
                     min_size=1, max_size=4)
vocab_docs = st.lists(st.lists(vocab_word, max_size=12), max_size=4)


@given(vocab_docs, st.lists(vocab_word, max_size=6), st.data())
@settings(max_examples=150, deadline=None)
def test_blob_vocabulary_matches_list_oracle(documents, probes, data):
    """Lookup, item access and bulk decoding agree with a list of the words,
    before and after a cache round trip."""
    ids, offsets, vocab = batch_index(documents)
    ref = ListIndex(ids, offsets, vocab)
    index = CorpusIndex.from_token_lists(documents)
    with tempfile.TemporaryDirectory() as cache:
        loaded = load_index(save_index(index, cache))
    pick = data.draw(st.lists(st.integers(0, len(vocab) - 1), max_size=10)) if vocab else []
    near = [w + "\x00" for w in vocab] + [w[:-1] for w in vocab if len(w) > 1]
    for got in (index, loaded):
        assert len(got.vocab) == len(vocab)
        assert list(got.vocab) == vocab
        assert [got.vocab[i] for i in range(len(vocab))] == vocab
        assert got.vocab.words(pick) == [vocab[i] for i in pick]
        assert got.vocab.words(np.array(pick, dtype=np.int32)) == [vocab[i] for i in pick]
        for word in vocab + probes + near:
            assert got.vocab.find(word) == ref.token_id(word)


@given(vocab_docs, st.data())
@settings(max_examples=150, deadline=None)
def test_term_starts_match_argsort_postings(documents, data):
    """The start positions found for a batch of terms equal those read from
    postings over every token id, in any batch order and after a reload."""
    ref = ListIndex(*batch_index(documents))
    index = CorpusIndex.from_token_lists(documents)
    words = ref.vocab + ["absent"]
    terms = data.draw(st.lists(st.lists(st.sampled_from(words), min_size=1, max_size=3)
                               .map(lambda toks: Term(tuple(toks))), max_size=8))
    with tempfile.TemporaryDirectory() as cache:
        loaded = load_index(save_index(index, cache))
    for got in (index, loaded):
        first = got._starts(terms)
        again = got._starts(terms[::-1])
        for term in terms:
            want = ref.starts(term.tokens).tolist()
            assert first[term].tolist() == want
            assert again[term].tolist() == want


# --- phrase search ----------------------------------------------------------

def test_search_worked_example(tmp_path):
    index = write_corpus(tmp_path, ["a sun centered solar system illustrates"])
    occs = search_phrases(index, TermPair.parse("sun", "solar system"))
    assert len(occs) == 1
    occ = occs[0]
    assert (occ.pre, occ.mid, occ.post) == (1, 1, 1)
    assert occ.window == ("a", "sun", "centered", "solar", "system", "illustrates")
    assert occ.window[occ.x_span[0]:occ.x_span[1]] == ("sun",)
    assert occ.window[occ.y_span[0]:occ.y_span[1]] == ("solar", "system")


def test_search_absent_term(tmp_path):
    index = write_corpus(tmp_path, ["nothing relevant here"])
    assert search_phrases(index, TermPair.parse("sun", "planet")) == []


def test_search_gap_too_wide(tmp_path):
    index = write_corpus(tmp_path, ["x w1 w2 w3 w4 y"])
    pair = TermPair.parse("x", "y")
    assert search_phrases(index, pair) == []
    # the independent scanner agrees there is no in-bounds window
    assert scan_windows(doc_tokens(index), ("x",), ("y",)) == []


def test_search_stays_within_documents(tmp_path):
    index = write_corpus(tmp_path, ["left x", "y right"])
    assert search_phrases(index, TermPair.parse("x", "y")) == []


def test_search_counts_occurrences_not_types(tmp_path):
    index = write_corpus(tmp_path, ["x w y", "x w y"])
    occs = search_phrases(index, TermPair.parse("x", "y"))
    assert len(occs) == 2


def test_search_multiword_contiguous_only(tmp_path):
    index = write_corpus(tmp_path, ["solar bright system orbits sun"])
    assert search_phrases(index, TermPair.parse("solar system", "sun")) == []


token = st.sampled_from(["x", "y", "w", "v", "sun", "dust"])
docs = st.lists(st.lists(token, max_size=12), max_size=3)


@given(docs)
@settings(max_examples=120)
def test_search_matches_bruteforce_scan(documents):
    index = CorpusIndex.from_token_lists(documents)
    pair = TermPair.parse("x", "y")
    got = sorted(occ_key(o) for o in search_phrases(index, pair))
    want = sorted(scan_windows(documents, ("x",), ("y",)))
    assert got == want


@given(docs)
@settings(max_examples=80)
def test_order_duality_covers_both_directions(documents):
    index = CorpusIndex.from_token_lists(documents)
    fwd = search_phrases(index, TermPair.parse("x", "y"))
    bwd = search_phrases(index, TermPair.parse("y", "x"))
    got = sorted([occ_key(o) for o in fwd] +
                 [occ_key(o) for o in bwd])
    want = sorted(scan_windows(documents, ("x",), ("y",)) +
                  scan_windows(documents, ("y",), ("x",)))
    assert got == want


small_token = st.sampled_from(["a", "b", "c"])
small_docs = st.lists(st.lists(small_token, max_size=10), max_size=4)
run = st.lists(small_token, min_size=1, max_size=3).map(tuple)


@given(small_docs, run, run)
@settings(max_examples=200)
def test_search_multiword_matches_scan_in_order(documents, x, y):
    if x == y:
        return
    index = CorpusIndex.from_token_lists(documents)
    occs = search_phrases(index, TermPair(Term(x), Term(y)))
    # same windows, and in the scanner's (document, x, y) order
    assert [occ_key(o) for o in occs] == scan_windows(documents, x, y)
    for occ in occs:
        toks = documents[occ.doc]
        assert occ.window == tuple(toks[occ.start:occ.start + len(occ.window)])
        assert occ.window[occ.x_span[0]:occ.x_span[1]] == x
        assert occ.window[occ.y_span[0]:occ.y_span[1]] == y
        assert all(type(v) is int for v in (occ.doc, occ.start, occ.pre,
                                             occ.mid, occ.post))


def test_search_windows_at_document_edges():
    documents = [["x", "y"], ["x", "w", "w", "w", "y"], ["y", "x"], ["a", "x"],
                 ["y", "b"]]
    index = CorpusIndex.from_token_lists(documents)
    occs = search_phrases(index, TermPair.parse("x", "y"))
    assert [(o.doc, o.start, o.window, o.pre, o.post) for o in occs] == [
        (0, 0, ("x", "y"), 0, 0),
        (1, 0, ("x", "w", "w", "w", "y"), 0, 0),
    ]
    # "x" ends document 3 and "y" starts document 4: no window across them
    assert [occ_key(o) for o in occs] == scan_windows(documents, ("x",), ("y",))


def test_occurrences_of_multiword_term_stay_in_documents():
    index = CorpusIndex.from_token_lists([["a", "solar"], ["system", "a"],
                                          ["the", "solar", "system"]])
    assert occurrences(index, Term.parse("solar system")) == [(2, 1)]
    assert occurrences(index, Term.parse("a")) == [(0, 0), (1, 1)]
    assert occurrences(index, Term.parse("absent word")) == []


def test_search_linear_in_corpus_duplication(tmp_path):
    texts = ["a x near y b", "x y and x w w y"]
    once = write_corpus(tmp_path, texts)
    twice = write_corpus(tmp_path, texts + texts, prefix="dup")
    pair = TermPair.parse("x", "y")
    assert len(search_phrases(twice, pair)) == 2 * len(search_phrases(once, pair))


# --- co-occurrence counts ---------------------------------------------------

def test_cooccurrence_empty_corpus():
    index = ingest([])
    counts = cooccurrence_counts(index, Term.parse("sun"), Term.parse("planet"), 5)
    assert counts == (0, 0, 0)


def test_cooccurrence_adjacent(tmp_path):
    index = write_corpus(tmp_path, ["sun planet"])
    assert cooccurrence_counts(index, Term.parse("sun"),
                               Term.parse("planet"), 5) == (1, 1, 1)


def test_cooccurrence_outside_window(tmp_path):
    index = write_corpus(tmp_path, ["sun w w w w w w planet"])
    assert cooccurrence_counts(index, Term.parse("sun"),
                               Term.parse("planet"), 5) == (1, 1, 0)


@given(st.lists(st.sampled_from(["a", "b", "w"]), max_size=14),
       st.integers(min_value=1, max_value=6))
@settings(max_examples=100)
def test_cooccurrence_matches_scan(tokens, window):
    index = CorpusIndex.from_token_lists([tokens])
    got = cooccurrence_counts(index, Term.parse("a"), Term.parse("b"), window)
    want = scan_cooccurrences([tokens], ("a",), ("b",), window)
    assert got == want


# Both terms are runs over one alphabet, so occurrences of two different
# terms often start at the same token.
ab_run = st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=3).map(tuple)
abcd_docs = st.lists(st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=12),
                     max_size=4)


@given(abcd_docs, ab_run, ab_run, st.integers(min_value=1, max_value=6))
@settings(max_examples=150)
def test_cooccurrence_multiword_matches_scan(documents, a, b, window):
    index = CorpusIndex.from_token_lists(documents)
    got = cooccurrence_counts(index, Term(a), Term(b), window)
    assert got == scan_cooccurrences(documents, a, b, window)
    assert all(type(v) is int for v in got)
    # a term against itself counts pairs of distinct positions
    assert (cooccurrence_counts(index, Term(a), Term(a), window) ==
            scan_cooccurrences(documents, a, a, window))


def test_cooccurrence_same_multiword_term():
    documents = [["solar", "system", "w", "solar", "system"], ["solar", "system"]]
    index = CorpusIndex.from_token_lists(documents)
    term = Term.parse("solar system")
    assert cooccurrence_counts(index, term, term, 3) == (3, 3, 1)
    assert cooccurrence_counts(index, term, term, 2) == (3, 3, 0)


def test_cooccurrence_terms_starting_at_one_token():
    # a at 0, 1, 2 and "a a" at 0, 1 make the position pairs {0,1}, {0,2}, {1,2}
    index = CorpusIndex.from_token_lists([["a", "a", "a"]])
    one, two = Term.parse("a"), Term.parse("a a")
    assert cooccurrence_counts(index, one, two, 5) == (3, 2, 3)
    assert cooccurrence_counts(index, two, one, 5) == (2, 3, 3)
    assert cooccurrence_counts(index, one, two, 1) == (3, 2, 2)


def test_cooccurrence_doubles_with_corpus(tmp_path):
    text = "sun a planet b sun"
    once = write_corpus(tmp_path, [text])
    twice = write_corpus(tmp_path, [text, text], prefix="dup")
    a, b = Term.parse("sun"), Term.parse("planet")
    ca, cb, cab = cooccurrence_counts(once, a, b, 4)
    assert cooccurrence_counts(twice, a, b, 4) == (2 * ca, 2 * cb, 2 * cab)


# --- persistence ------------------------------------------------------------

def test_index_roundtrip_preserves_search(tmp_path):
    index = write_corpus(tmp_path, ["a sun centered solar system illustrates",
                                    "the sun warms the planet"])
    cache = tmp_path / "cache"
    path = save_index(index, cache)
    loaded = load_index(path)
    assert loaded.digest == index.digest
    assert loaded.total_tokens == index.total_tokens
    for pair in (TermPair.parse("sun", "solar system"),
                 TermPair.parse("sun", "planet")):
        assert ([occ_key(o) for o in search_phrases(loaded, pair)] ==
                [occ_key(o) for o in search_phrases(index, pair)])


def test_load_rejects_foreign_file(tmp_path):
    bogus = tmp_path / "bogus.pkl"
    bogus.write_bytes(b"not a pickle")
    with pytest.raises(CorpusError):
        load_index(bogus)
    for name, payload in (("empty.npz", b""), ("cut.npz", b"PK\x03\x04 cut")):
        (tmp_path / name).write_bytes(payload)
        with pytest.raises(CorpusError, match=name):
            load_index(tmp_path / name)
    np.save(tmp_path / "plain.npy", np.arange(3))
    with pytest.raises(CorpusError, match="plain.npy"):
        load_index(tmp_path / "plain.npy")


def test_digest_tracks_content(tmp_path):
    a = write_corpus(tmp_path, ["one two"], prefix="a")
    b = write_corpus(tmp_path, ["one two"], prefix="b")
    c = write_corpus(tmp_path, ["one three"], prefix="c")
    assert a.digest == b.digest
    assert a.digest != c.digest


@given(small_docs, run, run)
@settings(max_examples=60, deadline=None)
def test_saved_index_gives_identical_windows(documents, x, y):
    index = dataclasses.replace(CorpusIndex.from_token_lists(documents), digest="d" * 64)
    with tempfile.TemporaryDirectory() as cache:
        loaded = load_index(save_index(index, cache))
    assert list(loaded.vocab) == list(index.vocab)
    assert loaded.ids.tolist() == index.ids.tolist()
    assert loaded.doc_offsets.tolist() == index.doc_offsets.tolist()
    assert loaded.digest == index.digest
    assert doc_tokens(loaded) == documents
    if x != y:
        pair = TermPair(Term(x), Term(y))
        assert search_phrases(loaded, pair) == search_phrases(index, pair)


def test_saved_empty_index_roundtrips(tmp_path):
    for documents in ([], [[]], [[], []]):
        index = CorpusIndex.from_token_lists(documents)
        loaded = load_index(save_index(index, tmp_path / str(len(documents))))
        assert loaded.total_tokens == 0
        assert loaded.n_documents == len(documents)
        assert list(loaded.vocab) == []
        assert search_phrases(loaded, TermPair.parse("x", "y")) == []


# --- cache safety -----------------------------------------------------------

UNPICKLED = []


class Trap:
    """Records that it was unpickled; loading must never get this far."""

    def __reduce__(self):
        return (UNPICKLED.append, ("unpickled",))


def _saved_arrays(tmp_path):
    index = write_corpus(tmp_path, ["the sun warms the planet", "a sun"])
    path = save_index(index, tmp_path / "cache")
    with np.load(path, allow_pickle=False) as data:
        arrays = {key: data[key] for key in data.files}
    return path, arrays


def test_load_refuses_object_arrays_without_unpickling(tmp_path):
    path, arrays = _saved_arrays(tmp_path)
    for key in ("ids", "meta"):
        bad = dict(arrays, **{key: np.array([Trap()], dtype=object)})
        with open(path, "wb") as fh:
            np.savez(fh, **bad)
        with pytest.raises(CorpusError, match=path.name):
            load_index(path)
    path.write_bytes(pickle.dumps(Trap()))
    with pytest.raises(CorpusError, match=path.name):
        load_index(path)
    assert UNPICKLED == []


def _meta(arrays, **changes):
    meta = json.loads(str(arrays["meta"]))
    meta.update(changes)
    return json.dumps(meta)


def _vocab(arrays, words):
    """A replacement vocabulary of these byte words, its size stated to match."""
    return {"vocab": np.frombuffer(b"\n".join(words), np.uint8),
            "meta": _meta(arrays, vocab_size=len(words))}


# The saved vocabulary is a, planet, sun, the, warms.
@pytest.mark.parametrize("corrupt", [
    lambda a: {"meta": _meta(a, format="relmap-corpus-index-v2")},
    lambda a: {"meta": _meta(a, vocab_size=99)},
    lambda a: {"meta": "[1, 2]"},
    lambda a: {"ids": a["ids"].astype(np.int64)},
    lambda a: {"doc_offsets": a["doc_offsets"].astype(np.int32)},
    lambda a: {"vocab": a["vocab"].astype(np.int16)},
    lambda a: {"doc_offsets": np.array([0, a["ids"].size + 1, a["ids"].size])},
    lambda a: {"doc_offsets": a["doc_offsets"] + 1},
    lambda a: {"doc_offsets": a["doc_offsets"][:-1].copy()},
    lambda a: {"ids": np.where(a["ids"] == 0, 10**6, a["ids"]).astype(np.int32)},
    lambda a: {"ids": np.where(a["ids"] == 0, -1, a["ids"]).astype(np.int32)},
    lambda a: {"vocab": np.frombuffer(b"\n".join(sorted(bytes(a["vocab"]).split(b"\n"),
                                                       reverse=True)), np.uint8)},
    lambda a: {"vocab": np.frombuffer(b"\xff" + bytes(a["vocab"]), np.uint8)},
    lambda a: _vocab(a, [b"a", b"planet", b"planet", b"sun", b"the", b"warms"]),
    lambda a: _vocab(a, [b"a", b"planet", b"sun", b"warms", b"warm"]),
    lambda a: _vocab(a, [b"a", b"", b"planet", b"sun", b"the", b"warms"]),
    lambda a: _vocab(a, [b"", b"a", b"planet", b"sun", b"the", b"warms"]),
    lambda a: _vocab(a, [b"a", b"planet", b"sun", b"the", b"warms", b""]),
    lambda a: {"vocab": np.frombuffer(bytes(a["vocab"]) + b"\n", np.uint8)},
    lambda a: {"meta": _meta(a, vocab_size=-1)},
], ids=["format", "vocab-size", "meta-type",
        "ids-dtype", "offsets-dtype", "vocab-dtype", "offsets-order", "offsets-start",
        "offsets-end", "id-too-large", "id-negative", "vocab-unsorted", "vocab-utf8",
        "vocab-duplicate", "vocab-after-extension", "vocab-empty-word",
        "vocab-empty-first-word", "vocab-empty-last-word", "vocab-trailing-newline",
        "vocab-size-negative"])
def test_load_checks_what_it_reads(tmp_path, corrupt):
    path, arrays = _saved_arrays(tmp_path)
    with open(path, "wb") as fh:
        np.savez(fh, **dict(arrays, **corrupt(arrays)))
    with pytest.raises(CorpusError, match=path.name):
        load_index(path)


def test_load_checks_order_across_check_chunks(tmp_path, monkeypatch):
    """Words checked two at a time: a disorder at any place is refused,
    between two chunks too."""
    monkeypatch.setattr(corpus_module, "_CHECK_WORDS", 2)
    path, arrays = _saved_arrays(tmp_path)
    words = bytes(arrays["vocab"]).split(b"\n")
    load_index(path)
    for i in range(len(words) - 1):
        swapped = words[:i] + [words[i + 1], words[i]] + words[i + 2:]
        with open(path, "wb") as fh:
            np.savez(fh, **dict(arrays, **_vocab(arrays, swapped)))
        with pytest.raises(CorpusError, match="not strictly increasing"):
            load_index(path)


# Words for the vocabulary check: NUL and control bytes; words of 8 bytes
# or fewer that are prefixes of one another; long words that share 8 or
# more leading bytes; and 2-, 3- and 4-byte characters across byte 8.
WORD_HEADS = ["", "a", "abcdefg", "abcdefgh", "abcdefghij"]
WORD_CHARS = ["a", "b", "\x00", "\x01", "\x1b", "é", "€", "😀"]
TRICKY_WORDS = sorted([b"a", b"a\x00", b"a\x00\x00", b"a\x01", b"abcdefgh", b"abcdefgh\x00",
                       b"abcdefghA", b"abcdefghB", b"abcdefghijA", b"abcdefghijB",
                       "abcdefgé".encode(), "abcdefg€".encode(), "abcdefg😀".encode(),
                       b"b\x1b"])


def _vocabulary(words, size=None):
    blob = b"\n".join(words)
    return corpus_module.Vocabulary(np.frombuffer(blob, dtype=np.uint8),
                                    len(words) if size is None else size)


def _outcome(check):
    try:
        check()
    except ValueError as exc:
        return type(exc), str(exc)
    return None


@st.composite
def vocabularies(draw):
    """(words, size): a sorted vocabulary, often with one defect."""
    word = st.builds(lambda head, tail: (head + tail).encode("utf-8"),
                     st.sampled_from(WORD_HEADS), st.text(WORD_CHARS, max_size=6))
    words = sorted(set(draw(st.lists(word, max_size=40))))
    defect = draw(st.sampled_from(["none", "swap", "duplicate", "empty", "invalid", "size"]))
    if words and defect != "none":
        i = draw(st.integers(0, len(words) - 1))
        if defect == "swap" and i + 1 < len(words):
            words[i], words[i + 1] = words[i + 1], words[i]
        elif defect == "duplicate":
            words.insert(i, words[i])
        elif defect == "empty":
            words.insert(i, b"")
        elif defect == "invalid":
            words[i] += draw(st.sampled_from([b"\xff", b"\xe2\x82"]))
    size = len(words) + (draw(st.sampled_from([-1, 1])) if defect == "size" else 0)
    return words, size


@given(vocabularies(), st.sampled_from([1, 2, 3, 7, 1 << 14]))
@settings(max_examples=500, deadline=None)
def test_check_equals_chunked_reference(vocab, chunk):
    """The prefix-compared check accepts and refuses as the earlier chunked
    check does, with the same message, whatever the chunk size."""
    words, size = vocab
    with mock.patch.object(corpus_module, "_CHECK_WORDS", chunk):
        got = _outcome(_vocabulary(words, size).check)
    assert got == _outcome(lambda: oracles.check_vocabulary(b"\n".join(words), size, chunk))


@pytest.mark.parametrize("chunk", [2, 3, 1 << 14])
def test_check_refuses_each_swap_duplicate_and_empty_word(chunk, monkeypatch):
    """Each swapped or duplicated neighbour pair, and an empty word at each
    place, is refused: inside a chunk, across a chunk boundary, and for
    words that differ only past byte 8."""
    monkeypatch.setattr(corpus_module, "_CHECK_WORDS", chunk)
    words = TRICKY_WORDS
    _vocabulary(words).check()
    for i in range(len(words) - 1):
        for bad in (words[:i] + [words[i + 1], words[i]] + words[i + 2:],
                    words[:i + 1] + words[i:], words[:i + 1] + [b""] + words[i + 1:]):
            with pytest.raises(ValueError, match="not strictly increasing"):
                _vocabulary(bad).check()


def test_load_names_path_of_missing_array(tmp_path):
    path, arrays = _saved_arrays(tmp_path)
    del arrays["vocab"]
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(CorpusError, match=path.name):
        load_index(path)


def _files(tmp_path, texts):
    paths = []
    for i, text in enumerate(texts):
        p = tmp_path / f"doc{i:03d}.txt"
        p.write_text(text, encoding="utf-8")
        paths.append(p)
    return paths


def test_cache_refuses_another_corpus_under_this_key(tmp_path):
    files = _files(tmp_path, ["The Sun warms the Planet"])
    (tmp_path / "other").mkdir()
    other = _files(tmp_path / "other", ["a moon"])
    cache = tmp_path / "cache"
    foreign = save_index(ingest(other), cache)
    digest = corpus_digest(files)
    assert foreign != cache_path(cache, digest)
    index, hit = cached_index(files, cache)
    assert not hit
    assert list(index.vocab) == ["planet", "sun", "the", "warms"]
    assert cached_index(files, cache)[1]
    # a file copied under this corpus's key is refused, not served
    cache_path(cache, digest).write_bytes(foreign.read_bytes())
    with pytest.raises(CorpusError, match="another corpus"):
        cached_index(files, cache)


def test_cache_never_opens_stale_pickles(tmp_path):
    files = _files(tmp_path, ["the sun warms the planet"])
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / f"index-{corpus_digest(files)}.pkl").write_bytes(pickle.dumps(Trap()))
    index, hit = cached_index(files, cache)
    assert not hit
    assert index.total_tokens == 5
    assert UNPICKLED == []


def test_failed_save_leaves_nothing(tmp_path, monkeypatch):
    index = write_corpus(tmp_path, ["the sun warms the planet"])
    cache = tmp_path / "cache"

    def broken_savez(fh, **arrays):
        fh.write(b"PK\x03\x04 partial")
        raise RuntimeError("disk full")

    monkeypatch.setattr(corpus_module.np, "savez", broken_savez)
    with pytest.raises(RuntimeError, match="disk full"):
        save_index(index, cache)
    assert not cache_path(cache, index.digest).exists()
    assert list(cache.iterdir()) == []


def test_index_refuses_newline_in_vocabulary():
    with pytest.raises(CorpusError, match="newline"):
        CorpusIndex.from_token_lists([["a", "a\nb"]])
    with pytest.raises(CorpusError, match="empty"):
        CorpusIndex.from_token_lists([["a"], [""]])


@pytest.mark.parametrize("batch_words", [1, 2, 1 << 14])
@pytest.mark.parametrize("documents", [[["a", "b", "a\nb", "c"]], [["\n"]], [["a"], ["b", ""]],
                                       [[""]], [["b", "a", "b"], ["", "a"]]])
def test_index_refuses_bad_word_in_any_batch(documents, batch_words, monkeypatch):
    """An empty word or one holding a newline is refused wherever the
    batch dict was flushed."""
    monkeypatch.setattr(corpus_module, "_BATCH_WORDS", batch_words)
    with pytest.raises(CorpusError, match="a vocabulary word is empty or holds a newline"):
        CorpusIndex.from_token_lists(documents)
