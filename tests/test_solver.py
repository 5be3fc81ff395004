import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (all_permutations, attributional_score, brute_force_best,
                     hybrid_probabilities, relational_score)
from relmap.attributes import TableSimilarity
from relmap.errors import BudgetError, DataError
from relmap.problems import MappingProblem
from relmap.solver import (AttributionalScorer, HybridScorer, RelationalScorer,
                           _mapping_blocks, solve, solve_constrained)
from relmap.terms import TermPair

from conftest import assignment


def make_problem(m, pid="p"):
    return MappingProblem.build(id=pid,
                                source=[f"s{i}" for i in range(m)],
                                target=[f"t{i}" for i in range(m)],
                                intended={f"s{i}": f"t{i}" for i in range(m)})


class SimTable:
    """Relational similarity stub keyed by (pair, pair) text."""

    def __init__(self, values):
        self.values = values

    def sim_r(self, p, q):
        return self.values.get((p.text, q.text), 0.0)

    def sim_grid(self, ps, qs):
        return np.array([[self.sim_r(p, q) for q in qs] for p in ps]).reshape(len(ps), len(qs))


def random_relational_table(problem, rng):
    values = {}
    src, tgt = problem.source, problem.target
    m = problem.m
    for i in range(m):
        for j in range(i + 1, m):
            for a in range(m):
                for b in range(m):
                    if a != b:
                        key = (f"{src[i].text}:{src[j].text}",
                               f"{tgt[a].text}:{tgt[b].text}")
                        values[key] = float(rng.integers(0, 1000))
    return SimTable(values)


def random_attributional_provider(problem, rng):
    entries = {}
    for s in problem.source:
        for t in problem.target:
            entries[(s.text, t.text)] = float(rng.integers(0, 1000))
    return TableSimilarity(entries)


# --- enumeration ------------------------------------------------------------

def mappings(m):
    """The rows of every block the search scores, in order."""
    return [tuple(row) for block in _mapping_blocks(m) for row in block.tolist()]


def test_enumerate_m1():
    assert mappings(1) == [(0,)]


def test_enumerate_m3_lexicographic():
    perms = mappings(3)
    assert len(perms) == 6
    assert perms == sorted(perms)
    assert perms == all_permutations(3)


def test_enumerate_m9_count():
    assert sum(len(block) for block in _mapping_blocks(9)) == 362_880


def test_enumerate_budget_refusal_names_factorial():
    with pytest.raises(BudgetError, match="39,916,800"):
        solve(make_problem(11), RelationalScorer(SimTable({})))


def test_budget_is_configurable():
    problem, space, provider = make_problem(4), SimTable({}), TableSimilarity({})
    scorer = RelationalScorer(space)
    for search in (lambda: solve(problem, scorer, m_max=3),
                   lambda: solve(problem, HybridScorer(space, provider), m_max=3),
                   lambda: solve_constrained(problem, {"s0": "t0", "s1": "t1"}, scorer,
                                             m_max=3)):
        with pytest.raises(BudgetError, match="over the budget of m <= 3"):
            search()
    assert solve(make_problem(3), scorer, m_max=3).diagnostics["n_mappings"] == 6


# --- scoring ----------------------------------------------------------------

def test_relational_score_m2_is_single_similarity():
    problem = make_problem(2)
    table = SimTable({("s0:s1", "t0:t1"): 0.75, ("s0:s1", "t1:t0"): 0.25})
    score = RelationalScorer(table).prepare(problem)
    assert score((0, 1)) == 0.75
    assert score((1, 0)) == 0.25


def test_relational_score_zero_field():
    problem = make_problem(4)
    score = RelationalScorer(SimTable({})).prepare(problem)
    assert all(score(p) == 0.0 for p in itertools.permutations(range(4)))


def test_relational_score_matches_double_loop_oracle():
    rng = np.random.default_rng(0)
    problem = make_problem(3)
    table = random_relational_table(problem, rng)
    score = RelationalScorer(table).prepare(problem)

    def lookup(i, j, a, b):
        return table.sim_r(TermPair(problem.source[i], problem.source[j]),
                           TermPair(problem.target[a], problem.target[b]))

    for perm in itertools.permutations(range(3)):
        assert score(perm) == relational_score(perm, lookup)


def test_relational_breakdown_sums_to_score():
    """The breakdown's values, added one by one from 0.0, give the score's
    bits, for relational and attributional scores alike."""
    rng = np.random.default_rng(1)
    problem = make_problem(4)
    # fractional values, so a sum in another order could move a last bit
    table = random_relational_table(problem, rng)
    relational = RelationalScorer(SimTable({k: v / 7.0 for k, v in table.values.items()}))
    attributional = AttributionalScorer(TableSimilarity(
        {(s.text, t.text): rng.random() for s in problem.source for t in problem.target}))
    for scorer, n_terms in ((relational, 4 * 3 // 2), (attributional, 4)):
        result = solve(problem, scorer, seed=0)
        total = 0.0
        for _, value in result.breakdown:
            total += value
        assert result.tie_count == 1  # a drawn near-tie has its own last bits
        assert total.hex() == result.score.hex()
        assert len(result.breakdown) == n_terms


def test_attributional_identity_indicator():
    problem = MappingProblem.build(id="same", source=["a", "b", "c"],
                                   target=["c", "a", "b"])
    provider = TableSimilarity({(t, t): 1.0 for t in "abc"})
    result = solve(problem, AttributionalScorer(provider), seed=0)
    assert result.score == 3.0
    assert assignment(result) == {"a": "a", "b": "b", "c": "c"}


def test_attributional_m2_example():
    problem = make_problem(2)
    provider = TableSimilarity({("s0", "t0"): 2.0, ("s1", "t1"): 3.0})
    score = AttributionalScorer(provider).prepare(problem)
    assert score((0, 1)) == 5.0
    assert score.explain(problem, (0, 1)) == [("s0 -> t0", 2.0), ("s1 -> t1", 3.0)]


def test_attributional_matches_direct_sum():
    rng = np.random.default_rng(2)
    problem = make_problem(4)
    provider = random_attributional_provider(problem, rng)
    score = AttributionalScorer(provider).prepare(problem)
    table = [[provider.sim(problem.source[i], problem.target[j])
              for j in range(4)] for i in range(4)]
    for perm in itertools.permutations(range(4)):
        assert score(perm) == attributional_score(perm, table)


# --- solve ------------------------------------------------------------------

def test_solve_total_tie_is_seed_determined():
    problem = make_problem(4)
    scorer = RelationalScorer(SimTable({}))
    r1 = solve(problem, scorer, seed=123)
    r2 = solve(problem, scorer, seed=123)
    assert r1.tie_count == math.factorial(4)
    assert r1.mapping == r2.mapping
    picks = {solve(problem, scorer, seed=s).mapping.perm for s in range(30)}
    assert len(picks) > 1  # different seeds explore the tied set


def test_unknown_tie_policy_is_refused():
    problem = make_problem(3)
    scorer = RelationalScorer(SimTable({}))
    searches = (lambda: solve(problem, scorer, tie_policy="frist"),
                lambda: solve_constrained(problem, {"s0": "t0", "s1": "t1"}, scorer,
                                          tie_policy="frist"),
                lambda: solve(problem.restricted([0, 1]), scorer, tie_policy="frist"))
    for search in searches:
        with pytest.raises(DataError, match="unknown tie policy 'frist'"):
            search()


def test_solve_unique_argmax():
    problem = make_problem(3)
    values = {("s0:s1", "t0:t1"): 10.0}
    for perm in itertools.permutations(range(3)):
        if perm != (0, 1, 2):
            values.setdefault((f"s0:s1", f"t{perm[0]}:t{perm[1]}"), 1.0)
    table = SimTable(values)
    result = solve(problem, RelationalScorer(table), seed=0)
    score = RelationalScorer(table).prepare(problem)
    best, tied = brute_force_best(3, score)
    assert result.score == best
    assert result.tie_count == len(tied)
    assert result.mapping.perm in tied
    assert result.mapping.perm == (0, 1, 2)


@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 6))
@settings(max_examples=60, deadline=None)
def test_solve_matches_bruteforce_oracle(seed, m):
    rng = np.random.default_rng(seed)
    problem = make_problem(m)
    if seed % 2 == 0:
        scorer = RelationalScorer(random_relational_table(problem, rng))
    else:
        scorer = AttributionalScorer(random_attributional_provider(problem, rng))
    result = solve(problem, scorer, seed=seed)
    best, tied = brute_force_best(m, scorer.prepare(problem))
    assert result.score == best
    assert result.mapping.perm in tied
    assert result.tie_count == len(tied)


def test_solve_scale_invariance_of_argmax_set():
    rng = np.random.default_rng(9)
    problem = make_problem(4)
    table = random_relational_table(problem, rng)
    scaled = SimTable({k: 7.5 * v for k, v in table.values.items()})
    _, tied = brute_force_best(4, RelationalScorer(table).prepare(problem))
    _, tied_scaled = brute_force_best(4, RelationalScorer(scaled).prepare(problem))
    assert tied == tied_scaled


def test_permutation_completeness():
    problem = make_problem(4)
    score = RelationalScorer(SimTable({})).prepare(problem)
    scores = [score(p) for p in itertools.permutations(range(4))]
    assert len(scores) == math.factorial(4)


def test_solve_never_m_minus_one_correct():
    rng = np.random.default_rng(33)
    for trial in range(50):
        m = int(rng.integers(3, 6))
        problem = make_problem(m, pid=f"p{trial}")
        provider = random_attributional_provider(problem, rng)
        result = solve(problem, AttributionalScorer(provider), seed=trial)
        intended = problem.intended_mapping()
        hits = sum(1 for a, b in zip(result.mapping.perm, intended.perm)
                   if a == b)
        assert hits != m - 1  # bijections cannot disagree in exactly one place


# --- hybrid -----------------------------------------------------------------

def test_hybrid_m2_worked_arithmetic():
    # relational scores (3, 1), attributional (1, 3) over the two mappings:
    # probabilities (3/4, 1/4) and (1/4, 3/4); add -> (0.5, 0.5) tie;
    # multiply -> (0.1875, 0.1875) tie.
    problem = make_problem(2)
    table = SimTable({("s0:s1", "t0:t1"): 3.0, ("s0:s1", "t1:t0"): 1.0})
    provider = TableSimilarity({("s0", "t0"): 0.5, ("s1", "t1"): 0.5,
                                ("s0", "t1"): 1.5, ("s1", "t0"): 1.5})
    add = solve(problem, HybridScorer(table, provider, "add"), seed=0)
    assert add.score == pytest.approx(0.5, abs=1e-12)
    assert add.tie_count == 2
    mul = solve(problem, HybridScorer(table, provider, "multiply"), seed=0)
    assert mul.score == pytest.approx(0.1875, abs=1e-12)
    assert mul.tie_count == 2
    with pytest.raises(DataError, match="unknown hybrid combination 'mean'"):
        HybridScorer(table, provider, "mean")


@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 5))
@settings(max_examples=40, deadline=None)
def test_hybrid_probabilities_normalize(seed, m):
    rng = np.random.default_rng(seed)
    problem = make_problem(m)
    table = random_relational_table(problem, rng)
    provider = random_attributional_provider(problem, rng)
    perms, prob_r, prob_a = hybrid_probabilities(problem, table, provider)
    assert sum(prob_r) == pytest.approx(1.0, abs=1e-9)
    assert sum(prob_a) == pytest.approx(1.0, abs=1e-9)
    assert len(perms) == math.factorial(m)


def test_hybrid_negative_scores_are_shifted():
    problem = make_problem(2)
    table = SimTable({("s0:s1", "t0:t1"): -2.0, ("s0:s1", "t1:t0"): -1.0})
    provider = TableSimilarity({})
    perms, prob_r, _ = hybrid_probabilities(problem, table, provider)
    assert prob_r == [0.0, 1.0]  # shifted by the minimum before normalizing


def test_hybrid_uniform_relational_reduces_to_attributional():
    rng = np.random.default_rng(17)
    problem = make_problem(4)
    uniform = SimTable({})  # every mapping scores 0 -> uniform probabilities
    provider = random_attributional_provider(problem, rng)
    hybrid = solve(problem, HybridScorer(uniform, provider, "add"), seed=5)
    att = solve(problem, AttributionalScorer(provider), seed=5)
    assert hybrid.mapping.perm == att.mapping.perm
    best, tied = brute_force_best(4, AttributionalScorer(provider).prepare(problem))
    assert hybrid.mapping.perm in tied


def test_hybrid_all_zero_field_falls_back_to_uniform():
    problem = make_problem(3)
    perms, prob_r, prob_a = hybrid_probabilities(
        problem, SimTable({}), TableSimilarity({}))
    assert prob_r == [1.0 / 6] * 6
    assert prob_a == [1.0 / 6] * 6


# --- constrained solving ----------------------------------------------------

def test_constrained_full_subset_equals_unconstrained():
    rng = np.random.default_rng(4)
    problem = make_problem(4)
    table = random_relational_table(problem, rng)
    scorer = RelationalScorer(table)
    fixed = dict(problem.intended)
    full = solve(problem, scorer, seed=3)
    total = solve_constrained(problem, fixed, scorer, seed=3)
    internal = solve(problem.restricted(range(4)), scorer, seed=3)
    for constrained in (total, internal):
        assert constrained.score == full.score
        assert constrained.diagnostics["n_mappings"] == math.factorial(4)


def test_constrained_search_space_sizes():
    problem = make_problem(5)
    scorer = RelationalScorer(SimTable({}))
    fixed = {f"s{i}": f"t{i}" for i in range(3)}
    total = solve_constrained(problem, fixed, scorer, seed=0)
    internal = solve(problem.restricted(range(3)), scorer, seed=0)
    # |P'| = m'! * (m - m')!
    assert total.diagnostics["n_mappings"] == math.factorial(3) * math.factorial(2)
    assert internal.diagnostics["n_mappings"] == math.factorial(3)


def test_constrained_rejects_non_injective():
    problem = make_problem(3)
    scorer = RelationalScorer(SimTable({}))
    with pytest.raises(DataError, match="constraint is not injective"):
        solve_constrained(problem, {"s0": "t0", "s1": "t0"}, scorer)
    # nor can an internal subproblem send two sources to one target
    with pytest.raises(DataError, match="duplicate terms in target"):
        MappingProblem.build(id="p#sub", source=["s0", "s1"], target=["t0", "t0"])


def test_constrained_rejects_unknown_terms():
    problem = make_problem(3)
    scorer = RelationalScorer(SimTable({}))
    with pytest.raises(DataError):
        solve_constrained(problem, {"s0": "zz"}, scorer)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_attributional_total_equals_internal_with_first_policy(seed):
    # the attributional score decomposes over the subset and its
    # complement, so with identical tie-breaking the sub-mappings agree
    rng = np.random.default_rng(seed)
    m = int(rng.integers(4, 7))
    problem = make_problem(m)
    provider = random_attributional_provider(problem, rng)
    scorer = AttributionalScorer(provider)
    size = int(rng.integers(2, m))
    subset = sorted(rng.choice(m, size=size, replace=False).tolist())
    fixed = {f"s{i}": f"t{i}" for i in subset}
    total = solve_constrained(problem, fixed, scorer, tie_policy="first")
    internal = solve(problem.restricted(subset), scorer, tie_policy="first")
    assert {s: t for s, t in assignment(total).items() if s in fixed} == \
        assignment(internal)


def test_solve_result_serialization_deterministic():
    problem = make_problem(3)
    scorer = RelationalScorer(SimTable({}))
    r1 = solve(problem, scorer, seed=7)
    r2 = solve(problem, scorer, seed=7)
    assert r1.to_text() == r2.to_text()
    assert "\t->\t" in r1.to_text()
    assert '"tie_count": 6' in r1.to_text()


def test_proportional_planted_analogous_beats_non_analogous(planted_all):
    from relmap.config import Config
    from relmap.evaluation import build_space_for_problems

    data, index = planted_all
    space, _ = build_space_for_problems(index, data.problems,
                                        Config(mode="relational"))
    problem = data.problems[0]
    a1, a2 = problem.source[0], problem.source[1]
    b1, b2 = problem.target[0], problem.target[1]
    wrong = problem.target[2]
    analogous = space.sim_r(TermPair(a1, a2), TermPair(b1, b2))
    non_analogous = space.sim_r(TermPair(a1, a2), TermPair(b1, wrong))
    assert analogous > non_analogous
