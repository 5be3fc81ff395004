"""The block search core against the tuple-at-a-time references in oracles.py.

Scores must carry the same bits, and the tie set, its size and the drawn
mapping must be equal, not merely close. Fields include ones built for
the tolerance chain rule: scores 0.6e-12 apart, so that a score more than
1e-12 above the running best resets the tie set and drops near-ties that
joined it earlier. m = 8 spans eight blocks of 7! rows.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (argmax_with_ties, attributional_scorer, constrained_perms,
                     hybrid_probabilities, pick_tied, relational_scorer)
from relmap.attributes import TableSimilarity
from relmap.solver import (BLOCK_ROWS, AttributionalScorer, RelationalScorer,
                           _argmax_blocks, _channel_probability, _mapping_blocks,
                           solve, solve_constrained, solve_hybrid)
from test_solver import SimTable, make_problem

FIELDS = ("random", "chain", "equal", "negative")
POLICIES = ("random", "first")
CHAIN_STEP = 0.6e-12


def field_values(kind, rng, n):
    """n similarity values of one kind of field."""
    if kind == "random":
        return rng.standard_normal(n)
    if kind == "chain":
        base = float(rng.choice([0.0, 1.0]))
        return base + CHAIN_STEP * rng.integers(0, 4, n)
    if kind == "equal":
        return np.full(n, float(rng.choice([0.0, 0.25, -3.0])))
    return -rng.uniform(0.0, 5.0, n)


def relational_field(problem, kind, rng):
    src, tgt, m = problem.source, problem.target, problem.m
    keys = [(f"{src[i].text}:{src[j].text}", f"{tgt[a].text}:{tgt[b].text}")
            for i in range(m) for j in range(i + 1, m)
            for a in range(m) for b in range(m) if a != b]
    return SimTable(dict(zip(keys, field_values(kind, rng, len(keys)).tolist())))


def attributional_field(problem, kind, rng):
    keys = [(s.text, t.text) for s in problem.source for t in problem.target]
    return TableSimilarity(dict(zip(keys, field_values(kind, rng, len(keys)).tolist())))


def oracle_search(problem, perms, score_fn, seed, policy):
    best, tied, total = argmax_with_ties(perms, score_fn)
    return best, tied, total, pick_tied(tied, seed, problem.id, policy)


CASES = dict(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(2, 8),
             kind=st.sampled_from(FIELDS), policy=st.sampled_from(POLICIES))


@given(**CASES, relational=st.booleans())
@settings(max_examples=40, deadline=None)
@example(seed=1, m=8, kind="chain", policy="random", relational=True)
@example(seed=2, m=8, kind="random", policy="first", relational=False)
def test_solve_equals_oracle(seed, m, kind, policy, relational):
    rng = np.random.default_rng(seed)
    problem = make_problem(m)
    if relational:
        space = relational_field(problem, kind, rng)
        scorer, reference = RelationalScorer(space), relational_scorer(problem, space)
    else:
        provider = attributional_field(problem, kind, rng)
        scorer = AttributionalScorer(provider)
        reference = attributional_scorer(problem, provider)
    result = solve(problem, scorer, seed=seed, tie_policy=policy)
    best, tied, total, perm = oracle_search(
        problem, itertools.permutations(range(m)), reference, seed, policy)
    assert result.score.hex() == best.hex()
    assert result.tie_count == len(tied)
    assert result.mapping.perm == perm
    assert result.diagnostics["n_mappings"] == total


@given(**CASES, combine=st.sampled_from(("add", "multiply")))
@settings(max_examples=40, deadline=None)
@example(seed=3, m=8, kind="negative", policy="random", combine="add")
@example(seed=4, m=8, kind="chain", policy="first", combine="multiply")
def test_hybrid_equals_oracle(seed, m, kind, policy, combine):
    rng = np.random.default_rng(seed)
    problem = make_problem(m)
    space = relational_field(problem, kind, rng)
    provider = attributional_field(problem, rng.choice(FIELDS), rng)
    result = solve_hybrid(problem, space, provider, combine, seed=seed,
                          tie_policy=policy)
    perms, prob_r, prob_a = hybrid_probabilities(problem, space, provider)
    if combine == "add":
        combined = [(r + a) / 2.0 for r, a in zip(prob_r, prob_a)]
    else:
        combined = [r * a for r, a in zip(prob_r, prob_a)]
    by_perm = dict(zip(perms, combined))
    best, tied, total, perm = oracle_search(problem, perms, by_perm.__getitem__,
                                            seed, policy)
    idx = perms.index(perm)
    assert result.score.hex() == best.hex()
    assert result.tie_count == len(tied)
    assert result.mapping.perm == perm
    assert result.diagnostics["n_mappings"] == total
    assert result.diagnostics["prob_r"].hex() == prob_r[idx].hex()
    assert result.diagnostics["prob_a"].hex() == prob_a[idx].hex()
    if combine == "multiply":
        assert result.breakdown[0][1].hex() == combined[idx].hex()


@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(2, 7),
       kind=st.sampled_from(FIELDS))
@settings(max_examples=20, deadline=None)
def test_streamed_probabilities_equal_list_oracle(seed, m, kind):
    rng = np.random.default_rng(seed)
    problem = make_problem(m)
    space = relational_field(problem, kind, rng)
    provider = attributional_field(problem, kind, rng)
    _, prob_r, prob_a = hybrid_probabilities(problem, space, provider)
    blocks = lambda: _mapping_blocks(m)  # noqa: E731
    for scorer, expected in ((RelationalScorer(space), prob_r),
                             (AttributionalScorer(provider), prob_a)):
        probability = _channel_probability(scorer.prepare(problem), blocks)
        got = np.concatenate([probability(b) for b in blocks()]).tolist()
        assert [p.hex() for p in got] == [p.hex() for p in expected]


@given(**CASES, relational=st.booleans())
@settings(max_examples=40, deadline=None)
@example(seed=5, m=8, kind="chain", policy="random", relational=True)
def test_constrained_total_equals_oracle(seed, m, kind, policy, relational):
    rng = np.random.default_rng(seed)
    problem = make_problem(m)
    size = int(rng.integers(2, m + 1))
    sub = sorted(rng.choice(m, size=size, replace=False).tolist())
    sub_tgt = sorted(rng.choice(m, size=size, replace=False).tolist())
    fixed = {f"s{i}": f"t{j}" for i, j in zip(sub, sub_tgt)}
    if relational:
        space = relational_field(problem, kind, rng)
        scorer, reference = RelationalScorer(space), relational_scorer(problem, space)
    else:
        provider = attributional_field(problem, kind, rng)
        scorer = AttributionalScorer(provider)
        reference = attributional_scorer(problem, provider)
    result = solve_constrained(problem, fixed, scorer, mode="total", seed=seed,
                               tie_policy=policy)
    best, tied, total, perm = oracle_search(
        problem, constrained_perms(m, sub, sub_tgt), reference, seed, policy)
    assert result.score.hex() == best.hex()
    assert result.tie_count == len(tied)
    assert result.diagnostics["full_perm"] == list(perm)
    assert result.diagnostics["n_mappings"] == total == \
        math.factorial(size) * math.factorial(m - size)


# --- the tie rule on score sequences built for it ------------------------------

def sequence_scorer(scores):
    """A block score function handing out `scores` in enumeration order."""
    position = 0

    def score(block):
        nonlocal position
        out = scores[position:position + len(block)]
        position += len(block)
        return out

    return score


@pytest.mark.parametrize("pattern", ["ramp", "steps", "chain", "late_reset"])
def test_tie_chain_rule_across_blocks(pattern):
    m = 8
    n = math.factorial(m)
    rng = np.random.default_rng(len(pattern))
    if pattern == "ramp":  # every row 0.6e-12 above the last
        scores = CHAIN_STEP * np.arange(n)
    elif pattern == "steps":  # near-ties build up, then a reset drops them
        scores = CHAIN_STEP * (np.arange(n) // 997 % 3)
    elif pattern == "chain":
        scores = 1.0 + CHAIN_STEP * rng.integers(0, 4, n)
    else:  # ties in every block, then a reset in the last one
        scores = np.zeros(n)
        scores[-7:] = 2 * CHAIN_STEP
    found = _argmax_blocks(_mapping_blocks(m), sequence_scorer(scores))
    values = dict(zip(itertools.permutations(range(m)), scores.tolist()))
    best, tied, total = argmax_with_ties(itertools.permutations(range(m)),
                                         values.__getitem__)
    assert found.best.hex() == best.hex()
    assert found.n_mappings == total
    assert [tuple(r) for rows in found.tied for r in rows.tolist()] == tied
    if pattern == "late_reset":
        assert found.tie_count == 7  # the reset dropped n - 7 earlier ties


# --- enumeration order ---------------------------------------------------------

@pytest.mark.parametrize("m", range(1, 9))
def test_blocks_follow_itertools_order(m):
    blocks = list(_mapping_blocks(m))
    assert all(len(b) <= BLOCK_ROWS for b in blocks)
    rows = [tuple(r) for b in blocks for r in b.tolist()]
    assert rows == list(itertools.permutations(range(m)))


@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 8))
@settings(max_examples=30, deadline=None)
def test_constrained_blocks_follow_oracle_order(seed, m):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(0, m + 1))
    sub_src = sorted(rng.choice(m, size=size, replace=False).tolist())
    sub_tgt = sorted(rng.choice(m, size=size, replace=False).tolist())
    blocks = list(_mapping_blocks(m, sub_src, sub_tgt))
    assert all(len(b) <= BLOCK_ROWS for b in blocks)
    rows = [tuple(r) for b in blocks for r in b.tolist()]
    assert rows == list(constrained_perms(m, sub_src, sub_tgt))


# --- bounded memory ------------------------------------------------------------

MEMORY_CAP_MB = 16


def traced_peak_mb(fn):
    """fn()'s result and the peak of traced allocation while it ran, in MB."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_hybrid_memory_is_bounded_at_m9():
    rng = np.random.default_rng(9)
    problem = make_problem(9)
    space = relational_field(problem, "random", rng)
    provider = attributional_field(problem, "random", rng)
    _, peak = traced_peak_mb(lambda: solve_hybrid(problem, space, provider, "add"))
    assert peak < MEMORY_CAP_MB, f"peak {peak:.1f} MB"


def test_all_zero_field_memory_is_bounded_at_m9():
    problem = make_problem(9)
    result, peak = traced_peak_mb(
        lambda: solve(problem, RelationalScorer(SimTable({})), seed=1))
    assert result.tie_count == math.factorial(9)
    assert peak < MEMORY_CAP_MB, f"peak {peak:.1f} MB"
