import math

import numpy as np
import pytest

from relmap.attributes import (CombinedSimilarity, PmiIrSimilarity,
                               PosSimilarity, TableSimilarity,
                               load_external_similarity)
from relmap.corpus import cooccurrence_counts
from relmap.dataset import builtin_dataset
from relmap.errors import DataError
from relmap.terms import Term

from conftest import problem_by_id, write_corpus


def T(text):
    return Term.parse(text)


# --- POS similarity ---------------------------------------------------------

def test_pos_values_from_solar_system_problem():
    tags = problem_by_id(builtin_dataset(), "A1").pos_tags
    pos = PosSimilarity(tags)
    assert pos.sim(T("attracts"), T("attracts")) == 100.0
    assert pos.sim(T("sun"), T("nucleus")) == 10.0
    assert pos.sim(T("sun"), T("revolves")) == 0.0


def test_pos_range_is_fixed():
    tags = {"a": "NN", "b": "NN", "c": "VB"}
    pos = PosSimilarity(tags)
    values = {pos.sim(T(x), T(y)) for x in "abc" for y in "abc"}
    assert values <= {0.0, 10.0, 100.0}
    for t in "abc":
        assert pos.sim(T(t), T(t)) == 100.0


def test_pos_missing_tag_scores_zero_with_warning(caplog):
    pos = PosSimilarity({"a": "NN"})
    with caplog.at_level("WARNING"):
        assert pos.sim(T("a"), T("mystery")) == 0.0
    assert any("mystery" in rec.message for rec in caplog.records)
    # identical unknown terms still hit the exact-match branch
    assert pos.sim(T("mystery"), T("mystery")) == 100.0


def test_pos_symmetry():
    tags = problem_by_id(builtin_dataset(), "A5").pos_tags
    pos = PosSimilarity(tags)
    terms = [T(t) for t in tags]
    for a in terms:
        for b in terms:
            assert pos.sim(a, b) == pos.sim(b, a)


# --- PMI-IR -----------------------------------------------------------------

def test_pmi_absent_term_scores_zero(tmp_path):
    index = write_corpus(tmp_path, ["only these words"])
    provider = PmiIrSimilarity(index, window=5)
    assert provider.sim(T("only"), T("ghost")) == 0.0
    assert provider.sim(T("ghost"), T("only")) == 0.0


def test_pmi_always_cooccurring_matches_hand_formula(tmp_path):
    index = write_corpus(tmp_path, ["sun planet " + "w " * 48])
    provider = PmiIrSimilarity(index, window=5)
    count_a, count_b, count_ab = cooccurrence_counts(
        index, T("sun"), T("planet"), 5)
    assert (count_a, count_b, count_ab) == (1, 1, 1)
    want = math.log((count_ab + 1) * (index.total_tokens / (2 * 5))
                    / (count_a * count_b))
    assert provider.sim(T("sun"), T("planet")) == pytest.approx(want, abs=1e-12)


def test_pmi_independent_terms_near_zero(tmp_path):
    # two terms scattered independently through a large random corpus
    rng = np.random.default_rng(0)
    vocab = [f"w{i}" for i in range(50)]
    tokens = []
    for _ in range(60_000):
        r = rng.random()
        if r < 0.01:
            tokens.append("alpha")
        elif r < 0.02:
            tokens.append("beta")
        else:
            tokens.append(vocab[int(rng.integers(len(vocab)))])
    index = write_corpus(tmp_path, [" ".join(tokens)])
    provider = PmiIrSimilarity(index, window=10)
    assert abs(provider.sim(T("alpha"), T("beta"))) <= 0.5


def test_pmi_symmetry(tmp_path):
    index = write_corpus(tmp_path, ["a b c a b c b a"])
    provider = PmiIrSimilarity(index, window=3)
    assert provider.sim(T("a"), T("b")) == provider.sim(T("b"), T("a"))


# --- external tables --------------------------------------------------------

def test_external_empty_file(tmp_path):
    path = tmp_path / "table.tsv"
    path.write_text("", encoding="utf-8")
    provider = load_external_similarity(path)
    assert provider.sim(T("sun"), T("nucleus")) == 0.0


def test_external_symmetric_lookup(tmp_path):
    path = tmp_path / "table.tsv"
    path.write_text("sun\tnucleus\t2.5\n", encoding="utf-8")
    provider = load_external_similarity(path)
    assert provider.sim(T("sun"), T("nucleus")) == 2.5
    assert provider.sim(T("nucleus"), T("sun")) == 2.5
    assert provider.sim(T("sun"), T("sun")) == 0.0


def test_external_table_skips_a_leading_byte_order_mark(tmp_path):
    path = tmp_path / "table.tsv"
    path.write_bytes(b"\xef\xbb\xbfsun\tnucleus\t5.0\n")
    assert load_external_similarity(path).sim(T("sun"), T("nucleus")) == 5.0


def test_external_duplicate_last_wins(tmp_path, caplog):
    path = tmp_path / "table.tsv"
    path.write_text("a\tb\t1.0\nb\ta\t9.0\n", encoding="utf-8")
    with caplog.at_level("WARNING"):
        provider = load_external_similarity(path)
    assert provider.sim(T("a"), T("b")) == 9.0
    assert any("duplicate" in rec.message for rec in caplog.records)


def test_external_malformed_line_reports_number(tmp_path):
    path = tmp_path / "table.tsv"
    path.write_text("a\tb\t1.0\nbroken line\n", encoding="utf-8")
    with pytest.raises(DataError, match=":2"):
        load_external_similarity(path)


@pytest.mark.parametrize("line", ["...\tc\t2", "c\t--\t2", "a b c d e\tc\t2"])
def test_external_bad_term_reports_file_and_number(tmp_path, line):
    path = tmp_path / "table.tsv"
    path.write_text(f"a\tb\t1.0\n{line}\n", encoding="utf-8")
    with pytest.raises(DataError, match="table.tsv:2: bad term"):
        load_external_similarity(path)


def test_external_bad_score_reports_number(tmp_path):
    path = tmp_path / "table.tsv"
    path.write_text("a\tb\tmuch\n", encoding="utf-8")
    with pytest.raises(DataError, match=":1"):
        load_external_similarity(path)


@pytest.mark.parametrize("score", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_external_non_finite_score_reports_file_and_number(tmp_path, score):
    path = tmp_path / "table.tsv"
    path.write_text(f"a\tb\t1.0\nc\td\t{score}\n", encoding="utf-8")
    with pytest.raises(DataError, match=f"table.tsv:2: score '{score}' is not finite"):
        load_external_similarity(path)


# --- combination ------------------------------------------------------------

def test_combination_with_zero_base_equals_pos():
    tags = problem_by_id(builtin_dataset(), "A1").pos_tags
    pos = PosSimilarity(tags)
    combined = CombinedSimilarity(TableSimilarity({}), pos)
    for a in ("sun", "planet", "attracts"):
        for b in ("nucleus", "electron", "attracts"):
            assert combined.sim(T(a), T(b)) == pos.sim(T(a), T(b))


def test_combination_adds_values():
    pos = PosSimilarity({"sun": "NN", "nucleus": "NN"})
    base = TableSimilarity({("sun", "nucleus"): 2.5})
    combined = CombinedSimilarity(base, pos)
    assert combined.sim(T("sun"), T("nucleus")) == 12.5


def test_combination_additivity_exact():
    pos = PosSimilarity({"a": "NN", "b": "NN", "c": "VB"})
    base = TableSimilarity({("a", "b"): 0.37, ("a", "c"): 1.21})
    combined = CombinedSimilarity(base, pos)
    for x in "abc":
        for y in "abc":
            diff = (combined.sim(T(x), T(y)) - base.sim(T(x), T(y))
                    - pos.sim(T(x), T(y)))
            assert diff == 0.0


def test_identical_terms_dominate_combined_scores():
    pos = PosSimilarity({"a": "NN", "b": "NN", "c": "NN"})
    base = TableSimilarity({("a", "b"): 50.0})
    combined = CombinedSimilarity(base, pos)
    assert combined.sim(T("c"), T("c")) > combined.sim(T("a"), T("b"))
