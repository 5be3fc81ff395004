"""The integer-coded miner against the string-pattern reference in oracles.

Both mine the same index and pair list; the phrase counts, the pruned
rows, the ordered column selection at several t and the frequency
matrix (values and positions) must be identical.
"""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from relmap.config import Config
from relmap.corpus import _stable_argsort, corpus_files, ingest
from relmap.dataset import Dataset
from relmap.errors import ConfigError, RelmapError
from relmap.evaluation import sensitivity_sweep
from relmap.patterns import (MAX_SLOTS, build_frequency_matrix, build_pair_list,
                             mine_patterns, prune_rows, select_columns)
from relmap.planted import PlantedConfig, generate_planted_corpus
from relmap.terms import Term, TermPair

from conftest import column_ids, index_token_lists, mined_counts

# "a\x01" sorts after "a" but "a\x01 X" before "a X".
# Terms come from the first four tokens, so most pairs have windows and
# many patterns have several generating pairs.
ALPHABET = ["a", "b", "a\x01", "c", "a\x00b", "b\x1b"]
T_VALUES = (1, 2, 3, 7, 1000)

# Words that extend one another and hold no byte at or below U+0020, so
# that each slot string has one code: "a" < "a!b" < "ab" < "a~" as strings,
# and "a X" < "a!b X" as patterns, because " " sorts below every byte.
EXTENDING = ["a", "ab", "abc", "b", "ba", "a!b", "a~"]


def term_pairs(words):
    """Up to 8 pairs of distinct terms of one or two of these words."""
    terms = st.lists(st.sampled_from(words), min_size=1, max_size=2).map(
        lambda t: Term(tokens=tuple(t)))
    return st.lists(st.tuples(terms, terms).filter(lambda xy: xy[0] != xy[1])
                    .map(lambda xy: TermPair(*xy)), max_size=8)


def documents(words):
    return st.lists(st.lists(st.sampled_from(words), max_size=40), min_size=1, max_size=4)


caps = st.one_of(st.none(), st.integers(1, 3))


def assert_same_mining(index, pairs, cap):
    stats = mine_patterns(index, pairs, max_phrases_per_pair=cap)
    ref = oracles.mine_patterns(index, pairs, max_phrases_per_pair=cap)
    assert stats.phrase_counts == ref.phrase_counts
    rows = prune_rows(pairs, stats.phrase_counts)
    assert rows == prune_rows(pairs, ref.phrase_counts)
    rows = list(dict.fromkeys(rows))   # a pair listed twice is mined twice
    n_r = max(len(rows), 1)
    for t in T_VALUES:
        cols = select_columns(stats, t, n_r)
        assert cols.dtype == np.int64
        patterns = oracles.decode(stats, cols)
        assert patterns == oracles.select_columns(ref, t, n_r)
        F = oracles.as_scipy(build_frequency_matrix(rows, cols, stats))
        G = oracles.build_frequency_matrix(rows, patterns, ref)
        assert F.shape == G.shape
        assert F.dtype == G.dtype
        assert np.array_equal(F.indptr, G.indptr)
        assert np.array_equal(F.indices, G.indices)
        assert np.array_equal(F.data, G.data)
    table = list(ref.counts)
    assert mined_counts(stats, table) == {p: ref.counts[p] for p in table}
    return stats


@given(docs=documents(ALPHABET), pairs=term_pairs(ALPHABET[:4]), cap=caps)
@settings(max_examples=300, deadline=None)
def test_random_corpora_match_reference(docs, pairs, cap):
    assert_same_mining(index_token_lists(docs), pairs, cap)


@given(docs=st.lists(st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=60),
                     min_size=1, max_size=3),
       cap=caps)
@settings(max_examples=60, deadline=None)
def test_multiword_terms_and_missing_reverses(docs, cap):
    x, y, z = (Term(tokens=t) for t in (("a", "b"), ("c",), ("d", "a")))
    pairs = [TermPair(x, y), TermPair(y, z), TermPair(z, x), TermPair(x, z),
             TermPair(Term(tokens=("q",)), x)]   # "q" never occurs
    assert_same_mining(index_token_lists(docs), pairs, cap)


@given(docs=documents(EXTENDING), pairs=term_pairs(EXTENDING[:4]), cap=caps)
@settings(max_examples=500, deadline=None)
def test_words_that_extend_one_another_take_one_code(docs, pairs, cap):
    stats = assert_same_mining(index_token_lists(docs), pairs, cap)
    assert np.array_equal(stats.codes[0], stats.codes[1])


def test_wide_alphabet_keeps_slot_codes_in_rows():
    rng = np.random.default_rng(5)
    fillers = [f"f{i}" for i in range(3000)] + [f"f{i}\x01" for i in range(300)]
    docs = [[str(w) for w in rng.choice(["a", "b", "c"] + fillers, size=400,
                                        p=[0.1] * 3 + [0.7 / len(fillers)] * len(fillers))]
            for _ in range(10)]
    a, b, c = (Term(tokens=(t,)) for t in "abc")
    pairs = [TermPair(a, b), TermPair(b, c), TermPair(c, a), TermPair(a, c)]
    stats = assert_same_mining(index_token_lists(docs), pairs, None)
    # "\x01" sends the strings down the decoded path: two codes each.
    assert int(stats.codes.max()) == 2 * stats.slots.size > 255
    assert stats.keys.shape == (MAX_SLOTS, len(stats.starts) - 1)
    assert stats.keys.dtype == np.uint16


def test_past_65535_codes_rows_are_uint32():
    # Each document's four context words are its own, so the slot strings
    # are those 68,000 words and the three markers, one code each.
    n = 17_000
    index = index_token_lists([[f"p{i}", "a", f"m{i}", f"n{i}", "b", f"q{i}"]
                               for i in range(n)])
    pairs = [TermPair.parse("a", "b")]
    stats = mine_patterns(index, pairs)
    ref = oracles.mine_patterns(index, pairs)
    assert int(stats.codes.max()) == 4 * n + 3
    assert stats.keys.shape == (MAX_SLOTS, len(stats.starts) - 1)
    assert stats.keys.dtype == np.uint32
    assert stats.phrase_counts == ref.phrase_counts == {pairs[0]: n}
    assert oracles.decode(stats, select_columns(stats, 1000, 1)) == \
        oracles.select_columns(ref, 1000, 1)


def index_of(*docs):
    return index_token_lists([doc.split() for doc in docs])


def test_columns_ordered_by_generating_pairs():
    pairs = [TermPair.parse("x", "y"), TermPair.parse("a", "b")]
    stats = assert_same_mining(index_of("x w y", "a w b", "x v y"), pairs, None)
    assert [" ".join(c) for c in oracles.decode(stats, select_columns(stats, 3, 2))] == [
        "X * Y", "X w Y", "Y * X", "Y w X", "X v Y", "Y v X"]
    counts = mined_counts(stats, pairs)
    assert counts[pairs[0]] == {("X", "*", "Y"): 2, ("X", "w", "Y"): 1, ("X", "v", "Y"): 1}
    assert counts[pairs[1]] == {("X", "*", "Y"): 1, ("X", "w", "Y"): 1}


def test_unmined_columns_are_refused():
    pair = TermPair.parse("x", "y")
    stats = assert_same_mining(index_of("x w y"), [pair], None)
    n_patterns = len(stats.starts) - 1
    mined = oracles.decode(stats, np.arange(n_patterns))
    for unmined in [("X", "zz", "Y"), ("X",), ("X", "w", "w", "w", "w", "w", "Y"),
                    ("w", "X", "w", "Y")]:
        assert unmined not in mined
    ok = column_ids(stats, [("X", "w", "Y")])
    assert oracles.as_scipy(build_frequency_matrix([pair], ok, stats)).toarray().tolist() == [[1.0]]
    for bad in ([-1], [n_patterns], [ok[0], n_patterns + 5]):
        with pytest.raises(RelmapError, match="not a mined pattern id"):
            build_frequency_matrix([pair], bad, stats)
    with pytest.raises(RelmapError, match="duplicate column ids"):
        build_frequency_matrix([pair], [ok[0], ok[0]], stats)


def test_reverse_outside_pair_list_gets_counts():
    pair = TermPair.parse("x", "y")
    stats = assert_same_mining(index_of("u x w y v"), [pair], None)
    assert mined_counts(stats, [pair.reversed()])[pair.reversed()][("u", "Y", "w", "X", "v")] == 1
    assert stats.phrase_counts == {pair: 1}


def test_pairs_without_windows():
    pairs = [TermPair.parse("x", "y"), TermPair.parse("p", "q")]
    stats = assert_same_mining(index_of("x y", "p z z z z q"), pairs, None)
    assert stats.phrase_counts == {pairs[0]: 1, pairs[1]: 0}
    empty = assert_same_mining(index_of("x y"), [], None)
    assert select_columns(empty, 5, 1).tolist() == []
    assert build_frequency_matrix([], [], empty).shape == (0, 0)


def test_below_space_token_orders_as_serialized():
    # One window each, so every pattern has one generating pair and the
    # serialized string alone orders them.
    pairs = [TermPair.parse("x", "y")]
    index = index_token_lists([["a", "x", "y"], ["a\x01", "x", "y"]])
    stats = assert_same_mining(index, pairs, None)
    cols = [" ".join(c) for c in oracles.decode(stats, select_columns(stats, 100, 1))]
    assert cols.index("a\x01 X Y") < cols.index("a X Y")
    assert ("a", "X", "Y") < ("a\x01", "X", "Y")


def test_cap_takes_first_windows_in_corpus_order():
    pair = TermPair.parse("x", "y")
    index = index_of("x y a x b y", "c x y")   # three windows
    for cap in (1, 2, 3):
        stats = assert_same_mining(index, [pair], cap)
        assert stats.phrase_counts[pair] == min(cap, 3)


@pytest.mark.parametrize("cap", [0, -1])
def test_bad_cap_is_refused(cap):
    with pytest.raises(ConfigError):
        mine_patterns(index_of("x y"), [TermPair.parse("x", "y")], max_phrases_per_pair=cap)


def test_sweep_over_t_matches_separate_runs(planted_all):
    data, index = planted_all
    dataset = Dataset(data.problems)
    grid = [1, 3, 20]
    swept = sensitivity_sweep(dataset, Config(k=20), index, t_grid=grid)
    for t, row in zip(grid, swept.rows):
        alone = sensitivity_sweep(dataset, Config(k=20, t=t), index).rows[0]
        assert (row.k, row.t, row.n_c, row.accuracy) == \
            (alone.k, alone.t, alone.n_c, alone.accuracy)


# --- the sort kernel ----------------------------------------------------------

@st.composite
def unsigned_fields(draw, n):
    """A field of n values below 2**width, drawn from a few values so that
    records tie: uint64, or the smallest unsigned dtype that holds them, as
    mining's slot rows are."""
    width = draw(st.sampled_from([0, 1, 3, 17, 31, 44, 45, 46, 63, 64]))
    pool = draw(st.lists(st.integers(0, 2 ** width - 1), min_size=1, max_size=3))
    values = draw(st.lists(st.one_of(st.sampled_from(pool), st.integers(0, 2 ** width - 1)),
                           min_size=n, max_size=n))
    narrow = draw(st.booleans())
    return np.array(values, dtype=np.min_scalar_type(max(values, default=0)) if narrow
                    else np.uint64)


@st.composite
def records(draw):
    """1-4 unsigned fields, whose widths make records straddle the digits of
    a pass, and maybe an int32 owner id up to a pair table's size last."""
    n = draw(st.integers(0, 50))
    fields = draw(st.lists(unsigned_fields(n), min_size=1, max_size=4))
    if draw(st.booleans()):
        table = draw(st.sampled_from([1, 2, 180, 2240, 2 ** 31 - 1]))
        fields.append(np.array(draw(st.lists(st.integers(0, table - 1), min_size=n, max_size=n)),
                               dtype=np.int32))
    return fields


@given(records())
@example([np.zeros(0, dtype=np.uint64)])
@example([np.array([7], dtype=np.uint64)])
@example([np.array([2 ** 64 - 1, 2 ** 64 - 1], dtype=np.uint64),
          np.array([1, 0], dtype=np.int32)])
# A field whose lowest used bit is not bit 0, which is shifted but not
# masked, beside one that is neither.
@example([np.array([12, 4, 8, 4], dtype=np.uint8), np.array([1, 3, 2, 0], dtype=np.uint64)])
@settings(max_examples=300, deadline=None)
def test_stable_argsort_equals_lexsort(fields):
    order = _stable_argsort(*fields)
    assert order.dtype == np.int64
    assert order.tolist() == np.lexsort(fields[::-1]).tolist()


def test_stable_argsort_takes_wide_fields_in_several_passes():
    # 2**17 positions leave 47 bits beside them; a 64-bit field takes two passes.
    rng = np.random.default_rng(3)
    fields = [rng.integers(0, 2 ** 63, 2 ** 17, dtype=np.uint64) * np.uint64(2) + np.uint64(1),
              rng.integers(0, 5, 2 ** 17).astype(np.int32)]
    assert np.array_equal(_stable_argsort(*fields), np.lexsort(fields[::-1]))


# --- memory -------------------------------------------------------------------

# Before the sort kernel, with np.lexsort of all variants at once and a
# copy of every key in sorted order, mining this corpus peaked at 6.01 MB;
# the cap is that plus 10%. Traced as here, from a fresh index, that code
# peaked at 7.02 MB, and the code that decoded the words seen in windows
# at 5.55 MB; the code that placed the markers among them by the
# vocabulary's keys and packed each variant's codes into uint64 words, at
# 4.40 MB; this code, which holds the variants as uint16 slot rows, one
# code per slot string, peaks at 4.25 MB.
MINING_PEAK_CAP_MB = 6.61


def test_mining_memory_is_capped(tmp_path):
    data = generate_planted_corpus(tmp_path / "corpus", PlantedConfig(
        n_problems=1, m=10, target_tokens=100_000, seed=0))
    index = ingest(corpus_files(tmp_path / "corpus"))
    pairs = build_pair_list(data.problems)
    gc.collect()
    tracemalloc.start()
    try:
        mine_patterns(index, pairs)
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak <= MINING_PEAK_CAP_MB, f"peak {peak:.2f} MB"
