import dataclasses
import hashlib
import json
import pickle
import random
import shutil
import string
import sys
import tempfile
import tracemalloc
import zlib
from bisect import bisect_left
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import (ListIndex, batch_index, batch_ingest, scan_cooccurrences, scan_windows,
                     search_phrases, word_keys)
from relmap import corpus as corpus_module
from relmap.corpus import (_find_windows, cache_path, cached_index, cooccurrence_counts,
                           corpus_digest, corpus_files, ingest, load_index, save_index)
from relmap.errors import CorpusError
from relmap.planted import PlantedConfig, generate_planted_corpus
from relmap.terms import _PUNCT, MARKERS, Term, TermPair, tokenize

from conftest import WHITESPACE, index_token_lists, occurrences, token_texts, write_corpus


def occ_key(occ):
    return (occ.doc, occ.start + occ.x_span[0], occ.start + occ.y_span[0],
            occ.pre, occ.mid, occ.post)


def all_words(vocab):
    """Every word of the vocabulary, in id order."""
    return vocab.words(np.arange(len(vocab)))


def doc_tokens(index):
    """The index's documents as token lists, decoded from its arrays."""
    offsets = index.doc_offsets.tolist()
    return [index.vocab.words(index.ids[a:b]) for a, b in zip(offsets[:-1], offsets[1:])]


# --- ingestion --------------------------------------------------------------

def test_ingest_empty_list():
    index = ingest([])
    assert index.total_tokens == 0
    assert index.n_documents == 0
    assert all_words(index.vocab) == []
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
    assert all_words(twice.vocab) == all_words(once.vocab)
    for tok in all_words(once.vocab):
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


def test_ingest_skips_a_leading_byte_order_mark(tmp_path):
    """A BOM is not text: the first word is indexed as itself, like the
    oracle's, and the digest still hashes the file's raw bytes."""
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(b"sun attracts planet")
    marked.write_bytes(b"\xef\xbb\xbfsun attracts planet")
    want, got = ingest([plain]), ingest([marked])
    assert got.vocab.find(["sun"])[0] == want.vocab.find(["sun"])[0] >= 0
    assert all_words(got.vocab) == all_words(want.vocab)
    assert got.ids.tolist() == want.ids.tolist()
    assert got.digest == corpus_digest([marked]) != want.digest
    ids, _, vocab, digest = batch_ingest([marked])
    assert (ids.tolist(), vocab, digest) == (got.ids.tolist(), all_words(got.vocab), got.digest)


def test_ingest_dir_reads_lexicographically(tmp_path):
    (tmp_path / "b.txt").write_text("beta")
    (tmp_path / "a.txt").write_text("alpha")
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "c.txt").write_text("gamma")
    index = ingest(corpus_files(tmp_path))
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
    assert all_words(index.vocab) == vocab
    assert index.digest == digest


def test_ingest_memory_is_one_file_of_tokens(tmp_path):
    """20 files of 20k tokens over 500 words: the traced peak stays under
    8 MB. It is 5.5 MB: the tokens waiting for their batch, one batch of
    65,536 tokens sorted, and the ids. Sorting all 400k tokens as one
    batch traces 22.0 MB, and tokenizing every file first, as a batch
    ingest does, holds all 400k tokens at once: over 25 MB."""
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
    traced peak stays under 18 MB. It is 8.8 MB: the batches' words as
    keys, the sort of all of them (arrays of one entry per word) and the
    ids.
    One first-seen dict over the whole corpus and a Python sort of its
    words, the earlier design (`oracles.batch_index`), traced 26.2 MB."""
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


def test_no_file_outlives_its_keys(tmp_path):
    """8 files of 2 MiB, each two words and otherwise whitespace, all in
    one batch: the traced peak stays under 20 MB. It is 12.0 MB, the
    tokenizing of one file. Holding each file's bytes until its tokens'
    batch is sorted, as an earlier design did, traced 32.2 MB."""
    paths = []
    for i in range(8):
        path = tmp_path / f"doc{i}.txt"
        path.write_bytes(b"sun " + b" " * (2 ** 21 - 11) + b"planet\n")
        paths.append(path)
    tracemalloc.start()
    try:
        index = ingest(paths)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert index.ids.tolist() == [1, 0] * 8
    assert index.doc_offsets.tolist() == list(range(0, 17, 2))
    assert all_words(index.vocab) == ["planet", "sun"]
    assert peak_mb < 20, f"peak {peak_mb:.1f} MB"


def ingest_peak_mb(paths):
    """The traced peak of ingesting these files, in MB."""
    tracemalloc.start()
    try:
        ingest(paths)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_ingest_memory_grows_with_the_batch_not_the_corpus(tmp_path, monkeypatch):
    """Files of 4,096 tokens over 500 words, sorted in batches of 16,384
    tokens: a corpus of one batch and one of four trace peaks under one
    cap of 2 MB (1.15 and 1.35 MB; the four-batch corpus adds its ids and
    four batches' keys). Sorting the four batches' tokens at once
    traces 4.5 MB."""
    rng = random.Random(11)
    words = ["".join(rng.choices("abcdefghij", k=rng.randint(3, 10))) for _ in range(500)]
    paths = []
    for i in range(16):
        path = tmp_path / f"doc{i:02d}.txt"
        path.write_text(" ".join(rng.choices(words, k=4096)) + "\n", encoding="utf-8")
        paths.append(path)
    monkeypatch.setattr(corpus_module, "_BATCH_TOKENS", 1 << 14)
    one, four = ingest_peak_mb(paths[:4]), ingest_peak_mb(paths)
    assert one < 2 and four < 2, f"peaks {one:.1f} and {four:.1f} MB"


# The ten ASCII bytes `str.split` splits on.
ASCII_WHITESPACE = "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "
ascii_text = st.lists(st.one_of(
    st.text(st.sampled_from(["a", "Z", "q", "0", "\x00", "\x7f"]), min_size=1, max_size=4),
    st.sampled_from(ASCII_WHITESPACE),
    st.sampled_from(string.punctuation),
    st.sampled_from(["\r\n", "Sun.", "--", "'o'", "A.B", "(x)y", "U.S.A."]),
), max_size=30).map("".join)


# The characters past ASCII that split or are stripped, and the ones
# whose lowercase or context needs the whole text: the Kelvin sign, "İ",
# capital sigma where a word ends and a byte-order mark inside the text.
WIDE = [c for c in WHITESPACE + list(_PUNCT) if not c.isascii()]
WIDE_TEXT = " ".join(f"{c}A{c}b{c}" for c in WIDE) + " \u212a İx ΟΔΟΣ ΣΑ. a\ufeffb \ufeff"


@given(st.one_of(ascii_text, token_texts))
@example("\x1cSun\x1d--\x1e'o'\x1f\r\nA.B. ...\x00\x7f!")
# Every ASCII byte: all in one run, and each at a word's edges and inside it.
@example("".join(map(chr, range(128))))
@example(" ".join(f"{chr(c)}A{chr(c)}b{chr(c)}" for c in range(128)))
# Each wide character at a word's edges and inside it, and all in one run;
# and so every character of 2 or 3 bytes, and one of 4.
@example(WIDE_TEXT)
@example("x" + "".join(WIDE) + "y")
# Kana and kanji, whose lead bytes are those of the ideographic space and
# the em dash, around and between both.
@example("ひらがなカタカナ\u3000漢字\u2014かな、。「カナ」\u3000\u2014ー・ゐ\u3000")
@example(" ".join(f"{c}A{c}b{c}" for c in map(chr, range(0x80, 0x10000))
                  if not 0xD800 <= ord(c) < 0xE000) + " 😀A😀b😀")
@settings(max_examples=300, deadline=None)
def test_byte_tokenizer_equals_tokenize(text):
    """On lowercased UTF-8 text the byte tokenizer gives `tokenize`'s
    tokens: all ten ASCII whitespace bytes and the wide whitespace split,
    every punctuation character is stripped at a token's edges and kept
    inside it, and NUL, DEL and every other character are word bytes."""
    data, starts, sizes = corpus_module._byte_tokens(text.lower().encode("utf-8"))
    got = [data[a:a + n].tobytes().decode("utf-8")
           for a, n in zip(starts.tolist(), sizes.tolist())]
    assert got == tokenize(text)


def test_wide_characters_are_every_one_that_splits_or_is_stripped():
    """The byte tokenizer's wide characters are exactly those past ASCII
    that `str.split` splits on or `tokenize` strips, over every code
    point, each with its kind and of 2 or 3 bytes in UTF-8: a Unicode
    version that adds one would show here. Every other byte past ASCII
    is a word byte, whatever `chr` of it is."""
    wide = {c: corpus_module._SPACE if c.isspace() else corpus_module._EDGE
            for c in map(chr, range(0x80, sys.maxunicode + 1)) if c.isspace() or c in _PUNCT}
    assert corpus_module._WIDE_KIND == wide
    assert {len(c.encode("utf-8")) for c in wide} == {2, 3}
    leads = {c.encode("utf-8")[0] for c in wide}
    assert list(corpus_module._BYTE_KIND[0x80:]) == [
        corpus_module._LEAD if b in leads else corpus_module._WORD for b in range(0x80, 0x100)]


# Text full of the slot markers: alone, doubled, around and inside words
# and in brackets, between the bytes that split and strip tokens.
marker_text = st.lists(st.one_of(
    st.sampled_from(["X", "Y", "*", "**", "*a*", "(Y)", "X*Y", "'X'", "Y.", "*\x00*"]),
    st.text(st.sampled_from(["X", "Y", "*", "a", "\x7f"]), min_size=1, max_size=4),
    st.sampled_from(ASCII_WHITESPACE),
    st.sampled_from(string.punctuation),
    st.text(max_size=3),
), max_size=30).map("".join)


@given(marker_text)
@example("X Y * ** *a* (Y)")
@example("«X» Y\u2014*")
@settings(max_examples=300, deadline=None)
def test_no_token_is_a_slot_marker(text):
    """Neither `tokenize` nor the byte tokenizer emits "X", "Y" or "*": both
    lowercase, and "*" is edge punctuation. So no index that `ingest`
    builds holds a slot marker."""
    assert not set(tokenize(text)) & set(MARKERS)
    data, starts, sizes = corpus_module._byte_tokens(text.lower().encode("utf-8"))
    got = {data[a:a + n].tobytes().decode("utf-8")
           for a, n in zip(starts.tolist(), sizes.tolist())}
    assert not got & set(MARKERS)


@given(st.lists(st.tuples(st.one_of(ascii_text, token_texts), st.booleans()), max_size=5),
       st.sampled_from([1, 3, corpus_module._BATCH_TOKENS]))
@settings(max_examples=150, deadline=None)
def test_ingest_of_ascii_and_other_files_equals_batch_oracle(files, batch_tokens):
    """Files of ASCII and of any other text, some with a byte-order mark
    before it, index as the batch design does, which tokenizes each word
    on its own, in batches that mix them."""
    with tempfile.TemporaryDirectory() as root:
        paths = [Path(root) / f"doc{i}.txt" for i in range(len(files))]
        for path, (text, bom) in zip(paths, files):
            path.write_bytes(b"\xef\xbb\xbf" * bom + text.encode("utf-8"))
        with mock.patch.object(corpus_module, "_BATCH_TOKENS", batch_tokens):
            index = ingest(paths)
        ids, offsets, vocab, digest = batch_ingest(paths)
    assert index.ids.tolist() == ids.tolist()
    assert index.doc_offsets.tolist() == offsets.tolist()
    assert all_words(index.vocab) == vocab
    assert index.digest == digest


# SHA-256 of the index arrays of the seed-0 planted corpus of 20k tokens
# (5 problems, m = 5), as written before the byte tokenizer.
PLANTED_INDEX_SHA256 = {
    "ids": "9008a0e5ebd1d02cf0e7f16551c9cfc2c1a1468e3826d127dbbb9b28f861f377",
    "doc_offsets": "1ee78e98b39a40da0e70985ed8020363d61c5ca56549e8c444a927e2f923dbaf",
    "vocab": "141993f723d18849e4a0d3140e421bf1f9946c50defc330136b635eb0fc37a45",
}


def decorate(text):
    """The text with a byte-order mark, its first word in curly quotes, its
    next two spaces a no-break and an ideographic space, and an em dash
    stuck to the word before its next space: the same tokens."""
    head, space, rest = text.partition(" ")
    rest = rest.replace(" ", "\u00a0", 1).replace(" ", "\u3000", 1).replace(" ", "\u2014 ", 1)
    return f"\ufeff\u201c{head}\u201d{space}{rest}"


def test_index_of_the_planted_corpus_keeps_its_bytes(tmp_path, monkeypatch):
    """The index arrays of a planted corpus keep their bytes: a tokenizer
    that changed them would need a new `_CACHE_FORMAT`. They do not
    depend on the batch size: the corpus's 32,900 tokens are one batch of
    the default size, and nine of 4,096 tokens, whose keys are merged.
    Nor do they change when every file is then decorated past ASCII."""
    generate_planted_corpus(tmp_path, PlantedConfig(target_tokens=20_000, seed=0))
    for decorated in (False, True):
        if decorated:
            for path in corpus_files(tmp_path):
                path.write_text(decorate(path.read_text(encoding="utf-8")), encoding="utf-8")
        for batch_tokens in (corpus_module._BATCH_TOKENS, 4096):
            monkeypatch.setattr(corpus_module, "_BATCH_TOKENS", batch_tokens)
            index = ingest(corpus_files(tmp_path))
            vocab = "\n".join(index.vocab.words(np.arange(len(index.vocab)))).encode("utf-8")
            arrays = {"ids": index.ids, "doc_offsets": index.doc_offsets, "vocab": vocab}
            assert {name: hashlib.sha256(a).hexdigest()
                    for name, a in arrays.items()} == PLANTED_INDEX_SHA256


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


@given(sort_docs(), st.sampled_from([1, 2, 3, 8, corpus_module._BATCH_TOKENS]),
       st.sampled_from([1, 8, corpus_module._SORT_CHUNK]))
@example([["a\x00", "a", "a\x00"], ["a", "abcdefgh\x00", "abcdefgh"]], 1, 1)
@example([["abcdefghijklmnopé", "abcdefghijklmnop", "abcdefghijklmnop中"]], 2, 1)
# Each word of the cases below in a batch of its own: an 8-byte word and
# that word with a "\x00" after it; a 9-byte word whose first 8 bytes are
# an 8-byte word; a long word tied on 8 and 16 bytes, in three batches;
# and characters of 2 and 3 bytes that straddle byte 8.
@example([["abcdefgh\x00", "abcdefgh"], ["abcdefgh\x00"]], 1, 8)
@example([["abcdefgha"], ["abcdefgh", "abcdefgha"]], 1, 8)
@example([[SORT_STEMS[-1], "abcdefghabcdefghz"], [SORT_STEMS[-1]],
          ["abcdefghabcdefgh", SORT_STEMS[-1]]], 1, 1)
@example([[SORT_STEMS[-1], "abcdefghabcdefghz"], [SORT_STEMS[-1]],
          ["abcdefghabcdefgh", SORT_STEMS[-1]]], 1, corpus_module._SORT_CHUNK)
@example([["abcdefg中"], ["abcdefgé", "abcdefg"], ["abcdefg中a", "abcdefgé"]], 1, 1)
@settings(max_examples=200, deadline=None)
def test_index_equals_dict_oracle_on_sort_edge_cases(documents, batch_tokens, sort_chunk):
    """`index_token_lists` and `ingest` give the ids, offsets, vocabulary
    keys and digest of one first-seen dict and a Python sort, with the
    tokens sorted in batches of 1-3 tokens (batches that end mid-document
    and between repeats of a word, whose words are then sorted again), of
    8 or in one batch. `_SORT_CHUNK` sets how many 8-byte prefixes a sort
    round reads: one a word at 1, several at 8 or more."""
    ids, offsets, vocab = batch_index(documents)
    with tempfile.TemporaryDirectory() as root:
        paths = [Path(root) / f"doc{i}.txt" for i in range(len(documents))]
        for path, doc in zip(paths, documents):
            path.write_bytes(" ".join(doc).encode("utf-8"))
        with mock.patch.object(corpus_module, "_BATCH_TOKENS", batch_tokens), \
                mock.patch.object(corpus_module, "_SORT_CHUNK", sort_chunk):
            got = [index_token_lists(documents), ingest(paths)]
        digest = batch_ingest(paths)[3]
    for index in got:
        assert index.ids.dtype == np.int32 and index.doc_offsets.dtype == np.int64
        assert index.ids.tolist() == ids.tolist()
        assert index.doc_offsets.tolist() == offsets.tolist()
        keys = (index.vocab.prefix, index.vocab.sizes, index.vocab.tails)
        for key, want in zip(keys, word_keys([w.encode("utf-8") for w in vocab])):
            assert key.dtype == want.dtype and key.tolist() == want.tolist()
    assert got[1].digest == digest


def test_sort_of_long_tied_words_takes_few_rounds(monkeypatch):
    """Two copies of a 1 MiB word, in one batch, tie on every prefix: the
    batch's sort tells them equal in 17 rounds (one over all words, then
    16 of 8,192 prefixes), not in one round per 8 bytes (131,072). The
    vocabulary's sort holds one copy, and takes one round."""
    rounds = []  # for each call of `_sort_words`, its rounds
    sorting = []
    sort_words, prefixes = corpus_module._sort_words, corpus_module._prefixes

    def counted_sort(*args):
        rounds.append(1)  # the round over all words
        sorting.append(True)
        try:
            return sort_words(*args)
        finally:
            sorting.pop()

    def counted_prefixes(*args):
        if sorting:  # a round of refinement; the keys' own prefixes are not
            rounds[-1] += 1
        return prefixes(*args)

    monkeypatch.setattr(corpus_module, "_sort_words", counted_sort)
    monkeypatch.setattr(corpus_module, "_prefixes", counted_prefixes)
    long_word = "x" * (1 << 20)
    index = index_token_lists(
        [[long_word, *(f"w{i}" for i in range(1 << 14))], [long_word]])
    assert len(index.vocab) == (1 << 14) + 1
    assert index.ids[0] == index.ids[-1] == len(index.vocab) - 1
    assert index.vocab.words([len(index.vocab) - 1]) == [long_word]
    assert rounds == [17, 1]

def test_load_memory_holds_no_word_objects(tmp_path):
    """200k distinct words, each a token once: loading the cached index and
    one window search trace a peak under 9 MB. It is 3.5 MB: the arrays
    are mapped from the cache, which tracemalloc does not see, and what is
    traced is the vocabulary check of one chunk of words and the search.
    Copied from an ``.npz``, with the vocabulary as newline-joined bytes
    and an array of word offsets, it traced 5.7 MB. The words as a list
    of strings take about 13 MB alone, and the old full postings 3 MB
    more."""
    rng = random.Random(7)
    words = [f"w{i:07d}" for i in range(200_000)]
    rng.shuffle(words)
    documents = [words[i:i + 10_000] + ["sun", "warms", "the", "planet"]
                 for i in range(0, len(words), 10_000)]
    path = save_index(index_token_lists(documents), tmp_path)
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
    index = index_token_lists([rng.choices("abcd", k=5000) for _ in range(4)])
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
    index = index_token_lists([["a", "b", "a", "b"], ["a"], ["b", "a", "b"]])
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
    index = index_token_lists(documents)
    got = _find_windows(index, pairs)
    assert all(w.dtype == np.int64 for w in got)
    starts = index.doc_offsets.tolist()
    want = [(k, d, starts[d] + x, starts[d] + y, pre, post)
            for k, pair in enumerate(pairs)
            for d, x, y, pre, _mid, post in sorted(
                scan_windows(documents, pair.x.tokens, pair.y.tokens))]
    assert list(zip(*(w.tolist() for w in got))) == want


def test_postings_are_built_on_first_search(tmp_path):
    """Ingest finds no tail offsets and no postings. A search keeps the
    positions of the terms it names, and only those, and a term asked for
    again is served from them."""
    index = write_corpus(tmp_path, ["the sun attracts the planet"])
    assert "_tail_starts" not in vars(index.vocab)
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
    index = index_token_lists(documents)
    with tempfile.TemporaryDirectory() as cache:
        loaded = load_index(save_index(index, cache))
    pick = data.draw(st.lists(st.integers(0, len(vocab) - 1), max_size=10)) if vocab else []
    near = [w + "\x00" for w in vocab] + [w[:-1] for w in vocab if len(w) > 1]
    for got in (index, loaded):
        assert len(got.vocab) == len(vocab)
        assert all_words(got.vocab) == vocab
        assert got.vocab.words(pick) == [vocab[i] for i in pick]
        assert got.vocab.words(np.array(pick, dtype=np.int32)) == [vocab[i] for i in pick]
        words = vocab + probes + near
        assert got.vocab.find(words).tolist() == [ref.token_id(word) for word in words]


@given(st.lists(sort_word, max_size=30), st.lists(sort_word, max_size=8))
@example(["abcdefghijklmnopa", "abcdefghijklmnopb", "abcdefgh"], ["abcdefghijklmnop"])
@settings(max_examples=200, deadline=None)
def test_find_equals_bisect_over_decoded_words(words, absent):
    """Words found in one batch, among words that tie on their first 8 or
    16 bytes, are placed as `bisect` places them in the decoded words:
    the words themselves, absent ones, and ones a byte longer or shorter."""
    index = index_token_lists([words])
    with tempfile.TemporaryDirectory() as cache:
        loaded = load_index(save_index(index, cache))
    probes = words + absent + [w + "\x00" for w in words] + [w[:-1] for w in words]
    for got in (index, loaded):
        decoded = got.vocab.words(np.arange(len(got.vocab)))
        assert decoded == sorted(set(words))
        below, found = got.vocab.locate(probes)
        assert below.tolist() == [bisect_left(decoded, w) for w in probes]
        assert found.tolist() == [w in decoded for w in probes]
        assert got.vocab.find(probes).tolist() == [
            decoded.index(w) if w in decoded else -1 for w in probes]


@given(vocab_docs, st.data())
@settings(max_examples=150, deadline=None)
def test_term_starts_match_argsort_postings(documents, data):
    """The start positions found for a batch of terms equal those read from
    postings over every token id, in any batch order and after a reload."""
    ref = ListIndex(*batch_index(documents))
    index = index_token_lists(documents)
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
    index = index_token_lists(documents)
    pair = TermPair.parse("x", "y")
    got = sorted(occ_key(o) for o in search_phrases(index, pair))
    want = sorted(scan_windows(documents, ("x",), ("y",)))
    assert got == want


@given(docs)
@settings(max_examples=80)
def test_order_duality_covers_both_directions(documents):
    index = index_token_lists(documents)
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
    index = index_token_lists(documents)
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
    index = index_token_lists(documents)
    occs = search_phrases(index, TermPair.parse("x", "y"))
    assert [(o.doc, o.start, o.window, o.pre, o.post) for o in occs] == [
        (0, 0, ("x", "y"), 0, 0),
        (1, 0, ("x", "w", "w", "w", "y"), 0, 0),
    ]
    # "x" ends document 3 and "y" starts document 4: no window across them
    assert [occ_key(o) for o in occs] == scan_windows(documents, ("x",), ("y",))


def test_occurrences_of_multiword_term_stay_in_documents():
    index = index_token_lists([["a", "solar"], ["system", "a"],
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
    index = index_token_lists([tokens])
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
    index = index_token_lists(documents)
    got = cooccurrence_counts(index, Term(a), Term(b), window)
    assert got == scan_cooccurrences(documents, a, b, window)
    assert all(type(v) is int for v in got)
    # a term against itself counts pairs of distinct positions
    assert (cooccurrence_counts(index, Term(a), Term(a), window) ==
            scan_cooccurrences(documents, a, a, window))


def test_cooccurrence_same_multiword_term():
    documents = [["solar", "system", "w", "solar", "system"], ["solar", "system"]]
    index = index_token_lists(documents)
    term = Term.parse("solar system")
    assert cooccurrence_counts(index, term, term, 3) == (3, 3, 1)
    assert cooccurrence_counts(index, term, term, 2) == (3, 3, 0)


def test_cooccurrence_terms_starting_at_one_token():
    # a at 0, 1, 2 and "a a" at 0, 1 make the position pairs {0,1}, {0,2}, {1,2}
    index = index_token_lists([["a", "a", "a"]])
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
    index = dataclasses.replace(index_token_lists(documents), digest="d" * 64)
    with tempfile.TemporaryDirectory() as cache:
        loaded = load_index(save_index(index, cache))
    assert all_words(loaded.vocab) == all_words(index.vocab)
    assert loaded.ids.tolist() == index.ids.tolist()
    assert loaded.doc_offsets.tolist() == index.doc_offsets.tolist()
    assert loaded.digest == index.digest
    assert doc_tokens(loaded) == documents
    if x != y:
        pair = TermPair(Term(x), Term(y))
        assert search_phrases(loaded, pair) == search_phrases(index, pair)


def test_saved_empty_index_roundtrips(tmp_path):
    for documents in ([], [[]], [[], []]):
        index = index_token_lists(documents)
        loaded = load_index(save_index(index, tmp_path / str(len(documents))))
        assert loaded.total_tokens == 0
        assert loaded.n_documents == len(documents)
        assert all_words(loaded.vocab) == []
        assert search_phrases(loaded, TermPair.parse("x", "y")) == []


# --- cache safety -----------------------------------------------------------

UNPICKLED = []


class Trap:
    """Records that it was unpickled; loading must never get this far."""

    def __reduce__(self):
        return (UNPICKLED.append, ("unpickled",))


def _saved_arrays(tmp_path, texts=("the sun warms the planet", "a sun")):
    """A saved index's directory, and its arrays and metadata as read back."""
    path = save_index(write_corpus(tmp_path, list(texts)), tmp_path / "cache")
    arrays = {name: np.load(path / f"{name}.npy") for name in corpus_module._ARRAYS}
    arrays["meta"] = json.loads((path / "meta.json").read_text())
    return path, arrays


def _write(path, arrays):
    """Write these arrays into the index directory, and the metadata, given
    as a dict with each array's CRC-32 put in, or as its text."""
    meta = arrays["meta"]
    for name in corpus_module._ARRAYS:
        np.save(path / f"{name}.npy", arrays[name])
    if isinstance(meta, dict):
        meta = json.dumps(dict(meta, crc32={name: zlib.crc32(arrays[name])
                                            for name in corpus_module._ARRAYS
                                            if arrays[name].dtype != object}))
    (path / "meta.json").write_text(meta)


def test_load_refuses_object_arrays_without_unpickling(tmp_path):
    path, arrays = _saved_arrays(tmp_path)
    for name in corpus_module._ARRAYS:
        _write(path, dict(arrays, **{name: np.array([Trap()], dtype=object)}))
        with pytest.raises(CorpusError, match=path.name):
            load_index(path)
    _write(path, arrays)
    load_index(path)
    (path / "meta.json").write_bytes(pickle.dumps(Trap()))
    with pytest.raises(CorpusError, match=path.name):
        load_index(path)
    shutil.rmtree(path)
    path.write_bytes(pickle.dumps(Trap()))
    with pytest.raises(CorpusError, match=path.name):
        load_index(path)
    assert UNPICKLED == []


def _meta(arrays, **changes):
    return dict(arrays["meta"], **changes)


def _vocab(arrays, words):
    """The keys of a replacement vocabulary of these byte words, its size
    stated to match."""
    prefix, sizes, tails = word_keys(words)
    return {"prefix": prefix, "sizes": sizes, "tails": tails,
            "meta": _meta(arrays, vocab_size=len(words))}


SAVED_WORDS = [b"a", b"planet", b"sun", b"the", b"warms"]


def _with_bit(a, i, bit):
    """A copy of the array with bit `bit` of entry i set."""
    a = a.copy()
    a[i] |= a.dtype.type(1 << bit)
    return a


@pytest.mark.parametrize("corrupt", [
    lambda a: {"meta": _meta(a, format="relmap-corpus-index-v4")},
    lambda a: {"meta": _meta(a, vocab_size=99)},
    lambda a: {"meta": "[1, 2]"},
    lambda a: {"ids": a["ids"].astype(np.int64)},
    lambda a: {"doc_offsets": a["doc_offsets"].astype(np.int32)},
    lambda a: {"prefix": a["prefix"].astype(np.int64)},
    lambda a: {"sizes": a["sizes"].astype(np.int64)},
    lambda a: {"tails": a["tails"].astype(np.int16)},
    lambda a: {"doc_offsets": np.array([0, a["ids"].size + 1, a["ids"].size])},
    lambda a: {"doc_offsets": a["doc_offsets"] + 1},
    lambda a: {"doc_offsets": a["doc_offsets"][:-1].copy()},
    lambda a: {"ids": np.where(a["ids"] == 0, 10**6, a["ids"]).astype(np.int32)},
    lambda a: {"ids": np.where(a["ids"] == 0, -1, a["ids"]).astype(np.int32)},
    lambda a: _vocab(a, SAVED_WORDS[::-1]),
    lambda a: _vocab(a, [b"a", b"planet", b"sun", b"the", b"warms\xff"]),
    lambda a: _vocab(a, [b"a", b"planet", b"planet", b"sun", b"the", b"warms"]),
    lambda a: _vocab(a, [b"a", b"planet", b"sun", b"warms", b"warm"]),
    lambda a: _vocab(a, [b"a", b"", b"planet", b"sun", b"the", b"warms"]),
    lambda a: _vocab(a, [b"", b"a", b"planet", b"sun", b"the", b"warms"]),
    lambda a: _vocab(a, [b"a", b"planet", b"sun", b"the", b"warms", b""]),
    lambda a: {"sizes": np.append(a["sizes"], np.int32(1))},
    lambda a: {"meta": _meta(a, vocab_size=-1)},
    lambda a: {"prefix": _with_bit(a["prefix"], 0, 0)},
    lambda a: {"prefix": _with_bit(a["prefix"], 0, 48)},
    lambda a: {"tails": np.append(a["tails"], np.uint8(ord("a")))},
    lambda a: {"sizes": _with_bit(a["sizes"], 1, 3)},
    lambda a: _vocab(a, [b"a", b"abcdefghij", b"abcdefghij", b"sun", b"the", b"warms"]),
    lambda a: _vocab(a, [b"a", b"abcdefghijklmnopz", b"abcdefghijklmnopy", b"sun", b"the"]),
    lambda a: _vocab(a, [b"a", b"abcdefghijklmnop", b"abcdefghijklmnop", b"sun", b"the"]),
], ids=["format", "vocab-size", "meta-type",
        "ids-dtype", "offsets-dtype", "vocab-dtype", "sizes-dtype", "tails-dtype",
        "offsets-order", "offsets-start",
        "offsets-end", "id-too-large", "id-negative", "vocab-unsorted", "vocab-utf8",
        "vocab-duplicate", "vocab-after-extension", "vocab-empty-word",
        "vocab-empty-first-word", "vocab-empty-last-word", "vocab-trailing-newline",
        "vocab-size-negative", "prefix-last-byte-past-size", "prefix-second-byte-past-size",
        "tails-longer", "tails-shorter", "long-duplicate", "unsorted-past-byte-16",
        "duplicate-of-16-bytes"])
def test_load_checks_what_it_reads(tmp_path, corrupt):
    """Each defect is refused by its own check: the CRC-32 of every array
    is written to match it. The saved vocabulary is a, planet, sun, the
    and warms; `tails-shorter` makes "planet" a word of 14 bytes, with
    none of its bytes past the 8th in `tails`."""
    path, arrays = _saved_arrays(tmp_path)
    _write(path, dict(arrays, **corrupt(arrays)))
    with pytest.raises(CorpusError, match=path.name):
        load_index(path)


@pytest.mark.parametrize("name", corpus_module._ARRAYS)
def test_load_refuses_an_array_that_fails_its_crc(tmp_path, name):
    """One changed bit in any array, the saved CRC-32s kept, is refused."""
    path, arrays = _saved_arrays(tmp_path, ["the sun illuminates the planet"])
    assert all(arrays[key].size for key in corpus_module._ARRAYS)
    changed = arrays[name].copy()
    changed.view(np.uint8)[0] ^= 1
    for key in corpus_module._ARRAYS:
        np.save(path / f"{key}.npy", changed if key == name else arrays[key])
    with pytest.raises(CorpusError, match=f"{name}.npy does not match its CRC-32"):
        load_index(path)


@pytest.mark.parametrize("word", [b"a b", b"a\tb", b"a\nb", b"a\x1cb", b"a\xc2\x85b",
                                  b"a\xc2\xa0b", b"a\xe3\x80\x80b", b"abcdefgh b"])
def test_load_refuses_a_word_with_whitespace(tmp_path, word):
    """`tokenize` never emits whitespace, and mining's order of pattern
    pieces relies on that: a cached word holding any, ASCII or not,
    inside its first 8 bytes or past them, is refused."""
    path, arrays = _saved_arrays(tmp_path)
    _write(path, dict(arrays, **_vocab(arrays, [b"a", word, b"sun", b"the", b"warms"])))
    with pytest.raises(CorpusError, match=f"{path.name}.*whitespace"):
        load_index(path)


@pytest.mark.parametrize("marker", MARKERS)
def test_load_refuses_slot_marker_words(tmp_path, marker):
    """`tokenize` never emits "X", "Y" or "*", and mining relies on that: a
    cache whose vocabulary holds one is refused, naming the path."""
    path = save_index(index_token_lists([["a", marker, "b"]]), tmp_path)
    with pytest.raises(CorpusError, match=f"{path.name}.*slot marker"):
        load_index(path)


def test_load_checks_order_across_check_chunks(tmp_path, monkeypatch):
    """Words checked two at a time: a disorder at any place is refused,
    between two chunks too."""
    monkeypatch.setattr(corpus_module, "_CHECK_WORDS", 2)
    path, arrays = _saved_arrays(tmp_path)
    words = SAVED_WORDS
    load_index(path)
    for i in range(len(words) - 1):
        swapped = words[:i] + [words[i + 1], words[i]] + words[i + 2:]
        _write(path, dict(arrays, **_vocab(arrays, swapped)))
        with pytest.raises(CorpusError, match="not strictly increasing"):
            load_index(path)


# Words for the vocabulary check: NUL and control bytes; words of 8 bytes
# or fewer that are prefixes of one another; long words that share 8 or
# 16 or more leading bytes; and 2-, 3- and 4-byte characters across byte 8.
WORD_HEADS = ["", "a", "abcdefg", "abcdefgh", "abcdefghij", "abcdefghijklmnop"]
WORD_CHARS = ["a", "b", "\x00", "\x01", "\x1b", "é", "€", "😀"]
TRICKY_WORDS = sorted([b"a", b"a\x00", b"a\x00\x00", b"a\x01", b"abcdefgh", b"abcdefgh\x00",
                       b"abcdefghA", b"abcdefghB", b"abcdefghijA", b"abcdefghijB",
                       b"abcdefghijklmnopA", b"abcdefghijklmnopB",
                       "abcdefgé".encode(), "abcdefg€".encode(), "abcdefg😀".encode(),
                       b"b\x1b"])


def _outcome(check):
    """The type and message of the ValueError `check` raises; a decoder's
    message, which gives positions in the bytes decoded, is left out."""
    try:
        check()
    except UnicodeDecodeError as exc:
        return type(exc), None
    except ValueError as exc:
        return type(exc), str(exc)
    return None


@st.composite
def vocabularies(draw):
    """The keys of a sorted vocabulary, often with one defect."""
    word = st.builds(lambda head, tail: (head + tail).encode("utf-8"),
                     st.sampled_from(WORD_HEADS), st.text(WORD_CHARS, max_size=6))
    words = sorted(set(draw(st.lists(word, max_size=40))))
    defect = draw(st.sampled_from(["none", "swap", "duplicate", "empty", "invalid", "space",
                                   "size", "past", "tails"]))
    i = draw(st.integers(0, len(words) - 1)) if words else 0
    if words and defect == "swap" and i + 1 < len(words):
        words[i], words[i + 1] = words[i + 1], words[i]
    elif words and defect == "duplicate":
        words.insert(i, words[i])
    elif defect == "empty":
        words.insert(i, b"")
    elif words and defect == "invalid":
        words[i] += draw(st.sampled_from([b"\xff", b"\xe2\x82"]))
    elif words and defect == "space":
        words[i] += draw(st.sampled_from([b" ", b"\n", b"\xe2\x80\x83"]))
    prefix, sizes, tails = word_keys(words)
    if defect == "size":
        sizes = np.append(sizes, np.int32(1)) if draw(st.booleans()) else sizes[:-1]
    elif words and defect == "past" and sizes[i] < 8:
        prefix = _with_bit(prefix, i, draw(st.integers(0, 8 * (8 - int(sizes[i])) - 1)))
    elif defect == "tails":
        tails = np.append(tails, np.uint8(1)) if draw(st.booleans()) or not tails.size \
            else tails[:-1]
    return prefix, sizes, tails


@given(vocabularies(), st.sampled_from([1, 2, 3, 7, 1 << 14]))
@settings(max_examples=500, deadline=None)
def test_check_equals_chunked_reference(keys, chunk):
    """The key-compared check accepts and refuses as a check of the words
    rebuilt in Python does, with the same message, whatever the chunk
    size."""
    with mock.patch.object(corpus_module, "_CHECK_WORDS", chunk):
        got = _outcome(corpus_module.Vocabulary(*keys).check)
    assert got == _outcome(lambda: oracles.check_vocabulary(*keys, chunk))


@pytest.mark.parametrize("chunk", [2, 3, 1 << 14])
def test_check_refuses_each_swap_duplicate_and_empty_word(chunk, monkeypatch):
    """Each swapped or duplicated neighbour pair, and an empty word at each
    place, is refused: inside a chunk, across a chunk boundary, and for
    words that differ only past byte 8 or past byte 16."""
    monkeypatch.setattr(corpus_module, "_CHECK_WORDS", chunk)
    words = TRICKY_WORDS
    corpus_module.Vocabulary(*word_keys(words)).check()
    for i in range(len(words) - 1):
        for bad in (words[:i] + [words[i + 1], words[i]] + words[i + 2:],
                    words[:i + 1] + words[i:]):
            with pytest.raises(ValueError, match="not strictly increasing"):
                corpus_module.Vocabulary(*word_keys(bad)).check()
        with pytest.raises(ValueError, match="empty word"):
            corpus_module.Vocabulary(*word_keys(words[:i + 1] + [b""] + words[i + 1:])).check()


def test_load_names_path_of_missing_array(tmp_path):
    """A missing, empty or cut `.npy` file, or a missing `meta.json`, is
    refused naming the index's directory."""
    path, arrays = _saved_arrays(tmp_path, ["the sun illuminates the planet"])
    for name in [*corpus_module._ARRAYS, "meta"]:
        file = path / (f"{name}.npy" if name != "meta" else "meta.json")
        raw = file.read_bytes()
        for damage in (file.unlink, lambda: file.write_bytes(b""),
                       lambda: file.write_bytes(raw[:-1])):
            damage()
            with pytest.raises(CorpusError, match=path.name):
                load_index(path)
        file.write_bytes(raw)
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
    assert all_words(index.vocab) == ["planet", "sun", "the", "warms"]
    assert cached_index(files, cache)[1]
    # an index copied under this corpus's key is refused, not served
    shutil.rmtree(cache_path(cache, digest))
    shutil.copytree(foreign, cache_path(cache, digest))
    with pytest.raises(CorpusError, match="another corpus"):
        cached_index(files, cache)


def test_cache_never_opens_stale_pickles(tmp_path):
    """Neither a pickle nor an index of format v4 (an ``.npz`` file, here
    a trap) under the corpus's old keys is opened."""
    files = _files(tmp_path, ["the sun warms the planet"])
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / f"index-{corpus_digest(files)}.pkl").write_bytes(pickle.dumps(Trap()))
    v4 = json.dumps({"format": "relmap-corpus-index-v4", "digest": corpus_digest(files)},
                    sort_keys=True)
    (cache / f"index-{hashlib.sha256(v4.encode()).hexdigest()}.npz").write_bytes(
        pickle.dumps(Trap()))
    index, hit = cached_index(files, cache)
    assert not hit
    assert index.total_tokens == 5
    assert UNPICKLED == []


def test_failed_save_leaves_nothing(tmp_path, monkeypatch):
    index = write_corpus(tmp_path, ["the sun warms the planet"])
    cache = tmp_path / "cache"
    saved = []

    def broken_save(file, array, allow_pickle=True):
        Path(file).write_bytes(b"\x93NUMPY partial")
        saved.append(file)
        if len(saved) == 3:
            raise RuntimeError("disk full")

    monkeypatch.setattr(corpus_module.np, "save", broken_save)
    with pytest.raises(RuntimeError, match="disk full"):
        save_index(index, cache)
    assert not cache_path(cache, index.digest).exists()
    assert list(cache.iterdir()) == []


def test_save_keeps_an_index_already_in_place(tmp_path):
    """A second save under a key whose directory another writer has
    renamed into place keeps that one and leaves no temporary directory."""
    index = write_corpus(tmp_path, ["the sun warms the planet"])
    cache = tmp_path / "cache"
    path = save_index(index, cache)
    before = {f.name: f.read_bytes() for f in path.iterdir()}
    assert save_index(index, cache) == path
    assert {f.name: f.read_bytes() for f in path.iterdir()} == before
    assert list(cache.iterdir()) == [path]


def test_index_refuses_newline_in_vocabulary():
    with pytest.raises(CorpusError, match="newline"):
        index_token_lists([["a", "a\nb"]])
    with pytest.raises(CorpusError, match="empty"):
        index_token_lists([["a"], [""]])


@pytest.mark.parametrize("batch_tokens", [1, 2, 3, 8, 1 << 14, corpus_module._BATCH_TOKENS])
@pytest.mark.parametrize("documents", [[["a", "b", "a\nb", "c"]], [["\n"]], [["a"], ["b", ""]],
                                       [[""]], [["b", "a", "b"], ["", "a"]]])
def test_index_refuses_bad_word_in_any_batch(documents, batch_tokens, monkeypatch):
    """An empty word or one holding a newline is refused wherever the
    batches of tokens end: after every 1, 2, 3 or 8 tokens, or in one
    batch (16,384 tokens, or the default)."""
    monkeypatch.setattr(corpus_module, "_BATCH_TOKENS", batch_tokens)
    with pytest.raises(CorpusError, match="a vocabulary word is empty or holds a newline"):
        index_token_lists(documents)
