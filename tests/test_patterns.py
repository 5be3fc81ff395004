import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import (PhraseOccurrence, enumerate_pattern_strings, generate_patterns,
                     is_template_shaped, swap_pattern)
from relmap.dataset import builtin_dataset
from relmap.errors import ConfigError, RelmapError
from relmap.patterns import (build_frequency_matrix, build_pair_list,
                             mine_patterns, prune_rows, select_columns)
from relmap.problems import MappingProblem
from relmap.terms import TermPair

from conftest import column_ids, index_token_lists, mined_counts, write_corpus


def occurrence(window, x_span, y_span, pre, mid, post):
    return PhraseOccurrence(doc=0, start=0, window=tuple(window),
                            x_span=x_span, y_span=y_span,
                            pre=pre, mid=mid, post=post)


WORKED = occurrence(("a", "sun", "centered", "solar", "system", "illustrates"),
                    (1, 2), (3, 5), 1, 1, 1)
WORKED_PAIR = TermPair.parse("sun", "solar system")


# --- pattern generation -----------------------------------------------------

def mined_patterns(window, pair):
    """Patterns the package mines from a one-window corpus, both pairs together."""
    stats = mine_patterns(index_token_lists([list(window)]), [pair])
    mined = mined_counts(stats, [pair, pair.reversed()])
    return set(mined[pair]) | set(mined[pair.reversed()])


def test_worked_example_sixteen_patterns():
    pats = generate_patterns(WORKED, WORKED_PAIR)
    assert len(pats) == 16
    texts = {" ".join(p) for p in pats}
    assert "a X centered Y illustrates" in texts
    assert "a X * Y illustrates" in texts
    assert "a Y centered X *" in texts
    assert texts == enumerate_pattern_strings(WORKED.window, (1, 2), (3, 5))
    assert mined_patterns(WORKED.window, WORKED_PAIR) == pats


def test_two_token_window():
    occ = occurrence(("x", "y"), (0, 1), (1, 2), 0, 0, 0)
    pats = generate_patterns(occ, TermPair.parse("x", "y"))
    assert {" ".join(p) for p in pats} == {"X Y", "Y X"}


def test_single_gap_window_matches_bruteforce():
    occ = occurrence(("x", "w", "y"), (0, 1), (2, 3), 0, 1, 0)
    pats = {" ".join(p)
            for p in generate_patterns(occ, TermPair.parse("x", "y"))}
    assert pats == enumerate_pattern_strings(("x", "w", "y"), (0, 1), (2, 3))
    assert pats == {"X w Y", "X * Y", "Y w X", "Y * X"}


def test_generation_checks_recorded_spans():
    with pytest.raises(RelmapError):
        generate_patterns(WORKED, TermPair.parse("moon", "solar system"))


words = st.sampled_from(["alpha", "beta", "gamma", "delta", "epsilon"])


@given(pre=st.integers(0, 1), mid=st.integers(0, 3), post=st.integers(0, 1),
       x_len=st.integers(1, 2), y_len=st.integers(1, 2),
       data=st.data())
@settings(max_examples=120)
def test_pattern_count_law(pre, mid, post, x_len, y_len, data):
    # remaining words pairwise distinct: the count is exactly 2^(n+1)
    n = pre + mid + post
    fillers = data.draw(st.lists(words, min_size=n, max_size=n, unique=True))
    x_toks = [f"x{i}" for i in range(x_len)]
    y_toks = [f"y{i}" for i in range(y_len)]
    window = (fillers[:pre] + x_toks + fillers[pre:pre + mid]
              + y_toks + fillers[pre + mid:])
    xs = (pre, pre + x_len)
    ys = (pre + x_len + mid, pre + x_len + mid + y_len)
    occ = occurrence(window, xs, ys, pre, mid, post)
    pair = TermPair.parse(" ".join(x_toks), " ".join(y_toks))
    pats = generate_patterns(occ, pair)
    assert len(pats) == 2 ** (n + 1)
    assert all(is_template_shaped(p) for p in pats)
    assert {" ".join(p) for p in pats} == \
        enumerate_pattern_strings(window, xs, ys)
    assert mined_patterns(window, pair) == pats


@given(pre=st.integers(0, 1), mid=st.integers(0, 3), post=st.integers(0, 1),
       data=st.data())
@settings(max_examples=80)
def test_pattern_count_never_exceeds_bound(pre, mid, post, data):
    n = pre + mid + post
    fillers = data.draw(st.lists(words, min_size=n, max_size=n))
    window = (fillers[:pre] + ["x"] + fillers[pre:pre + mid]
              + ["y"] + fillers[pre + mid:])
    occ = occurrence(window, (pre, pre + 1), (pre + 1 + mid, pre + 2 + mid),
                     pre, mid, post)
    pats = generate_patterns(occ, TermPair.parse("x", "y"))
    assert len(pats) <= 2 ** (n + 1)


def test_swap_is_involutive():
    pats = generate_patterns(WORKED, WORKED_PAIR)
    for p in pats:
        assert swap_pattern(swap_pattern(p)) == p
        assert swap_pattern(p) in pats


# --- pair list --------------------------------------------------------------

def problem(pid, source, target):
    return MappingProblem.build(id=pid, source=source, target=target)


def test_pair_list_m2():
    pairs = build_pair_list([problem("p", ["a", "b"], ["c", "d"])])
    assert [p.text for p in pairs] == ["a:b", "b:a", "c:d", "d:c"]


def test_pair_list_dedups_across_problems():
    p1 = problem("p1", ["sun", "planet"], ["c", "d"])
    p2 = problem("p2", ["sun", "planet"], ["e", "f"])
    pairs = build_pair_list([p1, p2])
    assert len(pairs) == 6  # not 8: the two source sides coincide


def test_pair_list_builtin_dataset_size():
    pairs = build_pair_list(list(builtin_dataset()))
    assert len(pairs) == 1694


def test_pair_list_contains_both_orders():
    pairs = build_pair_list(list(builtin_dataset()))
    pair_set = set(pairs)
    for p in pairs:
        assert p.reversed() in pair_set


# --- pruning ----------------------------------------------------------------

def test_prune_drops_only_phraseless_pairs():
    a, b, c = (TermPair.parse(*xy) for xy in
               (("a", "b"), ("b", "a"), ("c", "d")))
    counts = {a: 3, b: 0, c: 0}
    kept = prune_rows([a, b, c], counts)
    assert kept == [a, b]  # b:a kept because a:b has phrases


def test_prune_identity_when_all_have_phrases():
    pairs = [TermPair.parse("a", "b"), TermPair.parse("b", "a")]
    assert prune_rows(pairs, {p: 1 for p in pairs}) == pairs


def test_prune_empty_corpus_removes_everything():
    pairs = [TermPair.parse("a", "b"), TermPair.parse("b", "a")]
    assert prune_rows(pairs, {p: 0 for p in pairs}) == []


# --- column selection -------------------------------------------------------

def stats_from_corpus(tmp_path, texts, pair_texts):
    index = write_corpus(tmp_path, texts)
    pairs = [TermPair.parse(*xy) for xy in pair_texts]
    return pairs, mine_patterns(index, pairs)


def test_select_columns_orders_by_generating_pairs(tmp_path):
    # one document each: "X w Y" comes from two pairs, "X v Y" from one
    index = write_corpus(tmp_path, ["x w y", "a w b", "x v y"])
    pairs = [TermPair.parse("x", "y"), TermPair.parse("a", "b")]
    stats = mine_patterns(index, pairs)
    cols = oracles.decode(stats, select_columns(stats, t=100, n_r=2))
    counts = oracles.mine_patterns(index, pairs).generating_pair_counts()
    for earlier, later in zip(cols, cols[1:]):
        assert (-counts[earlier], " ".join(earlier)) <= \
            (-counts[later], " ".join(later))
    top = cols[0]
    assert counts[top] == max(counts.values()) == 2


def test_select_columns_truncates_to_t_times_nr(tmp_path):
    pairs, stats = stats_from_corpus(tmp_path, ["x w y v x u y"], [("x", "y")])
    all_cols = select_columns(stats, t=1000, n_r=1)
    limited = select_columns(stats, t=2, n_r=1)
    assert len(limited) == 2
    assert limited.tolist() == all_cols[:2].tolist()


def test_select_columns_monotone_in_t(tmp_path):
    pairs, stats = stats_from_corpus(
        tmp_path, ["x w y . x v y . x u y"], [("x", "y")])
    previous = []
    for t in range(1, 8):
        cols = select_columns(stats, t=t, n_r=1).tolist()
        assert cols[:len(previous)] == previous
        previous = cols


def test_select_columns_rejects_bad_t(tmp_path):
    pairs, stats = stats_from_corpus(tmp_path, ["x y"], [("x", "y")])
    with pytest.raises(ConfigError):
        select_columns(stats, t=0, n_r=1)


# --- frequency matrix -------------------------------------------------------

def test_matrix_single_phrase_counts(tmp_path):
    index = write_corpus(tmp_path, ["x w y"])
    pair = TermPair.parse("x", "y")
    stats = mine_patterns(index, [pair, pair.reversed()])
    cols = column_ids(stats, [("X", "w", "Y"), ("X", "*", "Y")])
    F = build_frequency_matrix([pair], cols, stats)
    assert oracles.as_scipy(F).toarray().tolist() == [[1.0, 1.0]]


def test_matrix_mirrors_counts_for_reversed_rows(tmp_path):
    index = write_corpus(tmp_path, ["x w y", "x w y", "u x v y"])
    pair = TermPair.parse("x", "y")
    rev = pair.reversed()
    stats = mine_patterns(index, [pair, rev])
    counts = mined_counts(stats, [pair, rev])
    for pattern, count in counts[pair].items():
        assert counts[rev][swap_pattern(pattern)] == count


def test_matrix_doubles_with_corpus(tmp_path):
    pair = TermPair.parse("x", "y")
    rows = [pair, pair.reversed()]

    def matrix(texts, prefix):
        index = write_corpus(tmp_path, texts, prefix=prefix)
        stats = mine_patterns(index, rows)
        kept = prune_rows(rows, stats.phrase_counts)
        cols = select_columns(stats, t=100, n_r=len(kept))
        return build_frequency_matrix(kept, cols, stats)

    texts = ["a x w y b", "x y"]
    once = matrix(texts, "one")
    twice = matrix(texts + texts, "two")
    assert (oracles.as_scipy(twice).toarray() == 2 * oracles.as_scipy(once).toarray()).all()


def test_matrix_row_sum_bounded_by_phrases(tmp_path):
    index = write_corpus(tmp_path, ["a x w w y b . x y . c x y d"])
    pair = TermPair.parse("x", "y")
    rows = [pair, pair.reversed()]
    stats = mine_patterns(index, rows)
    cols = select_columns(stats, t=1000, n_r=2)
    F = oracles.as_scipy(build_frequency_matrix(rows, cols, stats))
    phrases = stats.phrase_counts[pair] + stats.phrase_counts[pair.reversed()]
    for i in range(F.shape[0]):
        assert F[i].sum() <= phrases * 2 ** 6


def test_matrix_rejects_duplicate_labels(tmp_path):
    pair = TermPair.parse("x", "y")
    stats = mine_patterns(write_corpus(tmp_path, ["x y"]), [pair])
    with pytest.raises(RelmapError, match="duplicate row labels"):
        build_frequency_matrix([pair, pair], [], stats)
    col = select_columns(stats, t=1, n_r=1)
    with pytest.raises(RelmapError, match="duplicate column ids"):
        build_frequency_matrix([pair], [col[0], col[0]], stats)


def test_generating_pair_counts_match_nonzero_rows(tmp_path):
    index = write_corpus(tmp_path, ["x w y . a w b . b w a"])
    pairs = [TermPair.parse("x", "y"), TermPair.parse("y", "x"),
             TermPair.parse("a", "b"), TermPair.parse("b", "a")]
    stats = mine_patterns(index, pairs)
    counts = oracles.mine_patterns(index, pairs).generating_pair_counts()
    mined = mined_counts(stats, pairs)
    for pattern, n in counts.items():
        nonzero = sum(1 for pair in pairs if mined[pair].get(pattern, 0) > 0)
        assert n == nonzero


def test_phrase_cap_limits_occurrences(tmp_path):
    index = write_corpus(tmp_path, ["x y p q r s x y p q r s x y p q r s x y"])
    pair = TermPair.parse("x", "y")
    capped = mine_patterns(index, [pair], max_phrases_per_pair=2)
    assert capped.phrase_counts[pair] == 2
    uncapped = mine_patterns(index, [pair])
    assert uncapped.phrase_counts[pair] == 4


def test_matrix_allows_all_zero_rows(tmp_path):
    # a pair can survive pruning yet match none of the selected columns
    index = write_corpus(tmp_path, ["x w y p q r s a v b"])
    xy = TermPair.parse("x", "y")
    ab = TermPair.parse("a", "b")
    stats = mine_patterns(index, [xy, ab])
    cols = column_ids(stats, mined_counts(stats, [xy])[xy])  # only xy-generated patterns
    F = oracles.as_scipy(build_frequency_matrix([xy, ab], cols, stats))
    assert F[0].nnz > 0
    assert F[1].nnz == 0
