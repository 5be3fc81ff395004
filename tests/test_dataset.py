import json

import pytest

from relmap.config import Config
from relmap.dataset import builtin_dataset, dump_problems, load_problems, mean
from relmap.errors import DataError
from relmap.evaluation import run_batch
from relmap.patterns import build_pair_list

from conftest import problem_by_id

# per-problem (m, mean agreement) as published with the problem set
EXPECTED = {
    "A1": (7, 90.9), "A2": (8, 86.9), "A3": (8, 81.8), "A4": (8, 79.0),
    "A5": (7, 79.2), "A6": (7, 97.4), "A7": (7, 74.7), "A8": (8, 88.1),
    "A9": (9, 84.3), "A10": (5, 83.6),
    "M1": (7, 93.5), "M2": (7, 96.1), "M3": (6, 87.9), "M4": (7, 100.0),
    "M5": (6, 77.3), "M6": (7, 89.0), "M7": (7, 98.7), "M8": (5, 89.1),
    "M9": (8, 96.6), "M10": (6, 78.8),
}


def test_twenty_problems_split_evenly():
    ds = builtin_dataset()
    assert len(ds) == 20
    assert sum(1 for p in ds if p.id.startswith("A")) == 10
    assert sum(1 for p in ds if p.id.startswith("M")) == 10


def test_problem_sizes_match_published_table():
    ds = builtin_dataset()
    for pid, (m, _) in EXPECTED.items():
        assert problem_by_id(ds, pid).m == m
    assert sum(p.m for p in ds) == 140


def test_per_problem_agreement_averages():
    ds = builtin_dataset()
    for pid, (_, agreement) in EXPECTED.items():
        assert ds.mean_agreement(problem_by_id(ds, pid)) == pytest.approx(agreement,
                                                                 abs=0.1)


def test_overall_human_average():
    """The report's agreement column averages to the published 87.6; its
    Average row prints the unrounded 87.655 as 87.7."""
    report = run_batch(builtin_dataset(), Config(mode="attributional"))
    assert mean([row.agreement for row in report.rows]) == pytest.approx(87.6, abs=0.1)
    assert report.to_tsv().splitlines()[-1].endswith("\t87.7")


def test_mean_adds_left_to_right_on_every_python_version():
    # From Python 3.12, whose sum() of floats is compensated,
    # sum([0.1] * 10) / 10 is 0.1; the reports keep the plain sum's bits.
    assert mean([0.1] * 10) == 0.09999999999999999


def test_solar_system_problem_content():
    a1 = problem_by_id(builtin_dataset(), "A1")
    assert a1.m == 7
    assert a1.intended["sun"] == "nucleus"
    assert a1.agreement["sun"] == 100.0
    assert a1.pos_tags["sun"] == "NN"
    assert a1.pos_tags["nucleus"] == "NN"
    assert a1.mnemonic == "solar system -> atom"


def test_computer_mind_is_largest():
    ds = builtin_dataset()
    assert problem_by_id(ds, "A9").m == 9
    assert max(p.m for p in ds) == 9


def test_projectile_agreements():
    a6 = problem_by_id(builtin_dataset(), "A6")
    for term in ("projectile", "trajectory", "earth", "parabolic", "air"):
        assert a6.agreement[term] == 100.0
    assert a6.agreement["gravity"] == 90.9
    assert a6.agreement["attracts"] == 90.9


def test_impediments_has_full_agreement():
    m4 = problem_by_id(builtin_dataset(), "M4")
    assert all(v == 100.0 for v in m4.agreement.values())
    assert builtin_dataset().mean_agreement(m4) == 100.0


def test_intended_pairs_share_pos_tags():
    for p in builtin_dataset():
        for src, tgt in p.intended.items():
            assert p.pos_tags[src] == p.pos_tags[tgt], (p.id, src, tgt)


def test_every_agreement_is_majority():
    # every individual intended mapping was chosen by at least half the raters
    for p in builtin_dataset():
        for value in p.agreement.values():
            assert value >= 50.0


def test_pair_list_size():
    assert len(build_pair_list(list(builtin_dataset()))) == 1694


def test_terms_may_repeat_across_sides_but_not_within():
    a1 = problem_by_id(builtin_dataset(), "A1")
    source = {t.text for t in a1.source}
    target = {t.text for t in a1.target}
    assert "attracts" in source and "attracts" in target
    assert len(source) == a1.m and len(target) == a1.m


def test_multiword_terms_parsed_as_token_runs():
    a1 = problem_by_id(builtin_dataset(), "A1")
    solar = next(t for t in a1.source if t.text == "solar system")
    assert solar.tokens == ("solar", "system")


# --- problem files ----------------------------------------------------------

def test_json_roundtrip(tmp_path):
    path = tmp_path / "problems.json"
    dump_problems(builtin_dataset(), path)
    loaded = load_problems(path)
    assert len(loaded) == 20
    for original, parsed in zip(builtin_dataset(), loaded):
        assert parsed.id == original.id
        assert parsed.source == original.source
        assert parsed.target == original.target
        assert parsed.intended == original.intended
        assert parsed.agreement == original.agreement
        assert parsed.pos_tags == original.pos_tags


def test_load_single_problem_object(tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"id": "x", "source": ["a", "b"],
                                "target": ["c", "d"]}), encoding="utf-8")
    ds = load_problems(path)
    assert len(ds) == 1
    assert problem_by_id(ds, "x").m == 2


def test_load_skips_a_leading_byte_order_mark(tmp_path):
    path = tmp_path / "one.json"
    entry = {"id": "x", "source": ["a", "b"], "target": ["c", "d"]}
    path.write_bytes(b"\xef\xbb\xbf" + json.dumps(entry).encode("utf-8"))
    assert problem_by_id(load_problems(path), "x").m == 2


def test_load_rejects_uneven_sides(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"id": "bad", "source": ["a", "b"],
                                "target": ["c"]}), encoding="utf-8")
    with pytest.raises(DataError, match="bad"):
        load_problems(path)


def test_load_rejects_duplicate_terms(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({"id": "dup", "source": ["a", "a"],
                                "target": ["c", "d"]}), encoding="utf-8")
    with pytest.raises(DataError, match="dup"):
        load_problems(path)


def test_load_rejects_unknown_pos_tag(tmp_path):
    path = tmp_path / "tag.json"
    path.write_text(json.dumps({"id": "tag", "source": ["a", "b"],
                                "target": ["c", "d"],
                                "pos": {"a": "XX"}}), encoding="utf-8")
    with pytest.raises(DataError, match="tag"):
        load_problems(path)


def test_load_rejects_non_bijective_intended(tmp_path):
    path = tmp_path / "nb.json"
    path.write_text(json.dumps({"id": "nb", "source": ["a", "b"],
                                "target": ["c", "d"],
                                "intended": {"a": "c", "b": "c"}}),
                    encoding="utf-8")
    with pytest.raises(DataError, match="nb"):
        load_problems(path)


GOOD = {"id": "P", "source": ["a", "b"], "target": ["c", "d"]}


@pytest.mark.parametrize("payload, message", [
    (["x"], "'x' is not an object"),
    (dict(GOOD, source=[1, 2]), "problem P: source must be a list of term strings"),
    (dict(GOOD, source="ab"), "problem P: source must be a list of term strings"),
    (dict(GOOD, target=None), "problem P: target must be a list of term strings"),
    (dict(GOOD, intended=["a"]), "problem P: intended must map terms to terms"),
    (dict(GOOD, intended={"a": 1, "b": 2}), "problem P: intended must map terms to terms"),
    (dict(GOOD, pos=["NN"]), "problem P: pos must map terms to tags"),
    (dict(GOOD, agreement={"a": "high"}), "problem P: agreement must map terms to numbers"),
    (dict(GOOD, agreement={"a": 90.0}), "problem P: agreement gives no value for b"),
    (dict(GOOD, intended={"a": "c", "b": "c"}), "problem P: intended mapping is not a"),
    (dict(GOOD, source=["a", "..."]), "problem P: term '...' is empty after normalization"),
    (dict(GOOD, source=["a", "a b c d e"]), "problem P: term .* exceeds 4 tokens"),
    ({"source": ["a", "b"], "target": ["c", "d"]}, "missing field 'id'"),
    ([GOOD, dict(GOOD, source=["x", "y"])], "two problems have the id 'P'"),
    ([dict(GOOD, id=1), dict(GOOD, id="1")], "two problems have the id '1'"),
    (dict(GOOD, pos={"a": "NN", "b": "NN", "c": "VB", "d": "NN"},
          intended={"a": "c", "b": "d"}), "problem P: intended pair a->c mixes POS tags"),
    ({"problems": [GOOD]}, "missing field 'id'"),
], ids=["entry-not-object", "term-not-string", "terms-a-string", "terms-null",
        "intended-list", "intended-numbers", "pos-list", "agreement-strings",
        "agreement-partial", "intended-not-bijective", "term-empty",
        "term-too-long", "no-id", "duplicate-id", "duplicate-id-as-string",
        "intended-pos-mixed", "problems-envelope"])
def test_load_refuses_malformed_entry_naming_file(tmp_path, payload, message):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(DataError, match=f"malformed.json: .*{message}"):
        load_problems(path)


def test_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError):
        load_problems(tmp_path / "absent.json")
