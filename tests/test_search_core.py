"""The block search core against the tuple-at-a-time references in oracles.py.

Scores must carry the same bits, and the tie set, its size and the drawn
mapping must be equal, not merely close. Fields include ones built for
the tolerance chain rule: scores 0.6e-12 apart, so that a score more than
1e-12 above the running best resets the tie set and drops near-ties that
joined it earlier. m = 8 spans eight blocks of 7! rows.

`solve` and total-mode `solve_constrained` skip, under every scorer, each
head whose bound cannot reach the running best, and the hybrid finds each
channel's minimum with the same head bounds on the negated scores. The
pruning tests use fields where that happens: a strong planted mapping,
in shuffled target order, with near-ties placed around the 1e-12 band of
the eventual best. They check the pruned search against the oracle and
against the unpruned core, and that the bound holds at every depth.
"""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (argmax_with_ties, attributional_scorer, constrained_perms,
                     hybrid_probabilities, pick_tied, relational_scorer)
from relmap import solver
from relmap.attributes import TableSimilarity
from relmap.config import Config
from relmap.corpus import corpus_files, ingest
from relmap.evaluation import build_space_for_problems
from relmap.planted import PlantedConfig, generate_planted_corpus
from relmap.solver import (BLOCK_ROWS, AttributionalScorer, HybridScorer, RelationalScorer,
                           _argmax_blocks, _mapping_blocks, _PairSum, _Probability,
                           _shift, solve, solve_constrained)
from test_solver import SimTable, make_problem

FIELDS = ("random", "chain", "equal", "negative", "negative-equal", "negative-chain",
          "negative-inexact")
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
    if kind == "negative-equal":
        return np.full(n, -3.0)
    if kind == "negative-inexact":  # each score a rounded sum, the total a residue of it
        return np.full(n, -0.1)
    if kind == "negative-chain":  # minima a chain step or two apart
        return -1.0 - CHAIN_STEP * rng.integers(0, 4, n)
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


def score_of(score_fn, perm):
    """The block score of one mapping, the drawn mapping's own score."""
    return float(score_fn(np.array([perm], dtype=np.intp))[0])


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
    _, tied, total, perm = oracle_search(
        problem, itertools.permutations(range(m)), reference, seed, policy)
    assert result.score.hex() == reference(perm).hex()
    assert result.tie_count == len(tied)
    assert result.mapping.perm == perm
    assert result.diagnostics["n_mappings"] == total


@given(**CASES, combine=st.sampled_from(("add", "multiply")))
@settings(max_examples=40, deadline=None)
@example(seed=3, m=8, kind="negative", policy="random", combine="add")
@example(seed=4, m=8, kind="chain", policy="first", combine="multiply")
# the relational total is a rounding residue: without the margin rule
# every probability is 0.0 and all 5040 products tie
@example(seed=5, m=7, kind="negative-inexact", policy="random", combine="multiply")
def test_hybrid_equals_oracle(seed, m, kind, policy, combine):
    rng = np.random.default_rng(seed)
    problem = make_problem(m)
    space = relational_field(problem, kind, rng)
    provider = attributional_field(problem, rng.choice(FIELDS), rng)
    scorer = HybridScorer(space, provider, combine)
    result = solve(problem, scorer, seed=seed, tie_policy=policy)
    perms, prob_r, prob_a = hybrid_probabilities(problem, space, provider)
    if combine == "add":
        combined = [(r + a) / 2.0 for r, a in zip(prob_r, prob_a)]
    else:
        combined = [r * a for r, a in zip(prob_r, prob_a)]
    by_perm = dict(zip(perms, combined))
    _, tied, total, perm = oracle_search(problem, perms, by_perm.__getitem__,
                                            seed, policy)
    idx = perms.index(perm)
    assert result.score.hex() == combined[idx].hex()
    assert result.tie_count == len(tied)
    assert result.mapping.perm == perm
    assert result.diagnostics["n_mappings"] == total
    score = scorer.prepare(problem)
    row = np.array([perm], dtype=np.intp)
    assert score.relational(row)[0].hex() == prob_r[idx].hex()
    assert score.attributional(row)[0].hex() == prob_a[idx].hex()
    assert score.explain(problem, perm) == result.breakdown
    if combine == "add":
        assert [v.hex() for _, v in result.breakdown] == [
            (prob_r[idx] / 2.0).hex(), (prob_a[idx] / 2.0).hex()]
    else:
        assert result.breakdown[0][1].hex() == combined[idx].hex()


def test_hybrid_solve_builds_each_channel_once(monkeypatch):
    """The winner's breakdown reads the channels the search built: one shift walk each."""
    calls = {"_Probability": 0, "_shift": 0}

    def counted(name):
        original = getattr(solver, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(solver, name, counted(name))
    problem = make_problem(6)
    rng = np.random.default_rng(6)
    space = relational_field(problem, "negative", rng)
    provider = attributional_field(problem, "negative", rng)
    result = solve(problem, HybridScorer(space, provider, "multiply"), seed=6)
    assert calls == {"_Probability": 2, "_shift": 2}
    assert result.breakdown[0][1].hex() == result.score.hex()


@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(2, 7),
       kind=st.sampled_from(FIELDS))
@settings(max_examples=20, deadline=None)
def test_streamed_probabilities_equal_list_oracle(seed, m, kind):
    rng = np.random.default_rng(seed)
    problem = make_problem(m)
    space = relational_field(problem, kind, rng)
    provider = attributional_field(problem, kind, rng)
    _, prob_r, prob_a = hybrid_probabilities(problem, space, provider)
    channels = [_Probability(RelationalScorer(space).prepare(problem), m),
                _Probability(AttributionalScorer(provider).prepare(problem), m)]
    for probability, expected in zip(channels, (prob_r, prob_a)):
        got = np.concatenate([probability(b) for b in _mapping_blocks(m)]).tolist()
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
    result = solve_constrained(problem, fixed, scorer, seed=seed, tie_policy=policy)
    _, tied, total, perm = oracle_search(
        problem, constrained_perms(m, sub, sub_tgt), reference, seed, policy)
    assert result.score.hex() == reference(perm).hex()
    assert result.tie_count == len(tied)
    assert result.mapping.perm == perm
    assert result.diagnostics["n_mappings"] == total == \
        math.factorial(size) * math.factorial(m - size)
    assert result.diagnostics["n_scored"] <= total


# --- pruning --------------------------------------------------------------------

PLANTED = ("planted", "planted-near", "planted-equal", "planted-negative")
MODES = ("relational", "attributional", "hybrid-add", "hybrid-mul")
# near-tie offsets in units of 1e-12: inside the tie band of the planted
# score, just beyond it, and above it (a later reset of the tie set)
NEAR_OFFSETS = (-1.2, -1.05, -0.6, -0.3, 0.0, 0.6, 1.05)


def mapping_cells(image, relational):
    """The grid cells a mapping reads: (i, j, a, b) per source pair, or (i, a) per source."""
    m = len(image)
    if relational:
        return [(i, j, image[i], image[j]) for i in range(m) for j in range(i + 1, m)]
    return [(i, image[i]) for i in range(m)]


def planted_scorers(problem, kind, rng, relational):
    """(scorer, tuple reference) on a field with a strong planted mapping.

    The planted mapping's cells hold 1.0, over a base of noise, a constant
    or negative values, and its targets come in shuffled order. With
    "planted-near", four variants that swap two sources also hold 1.0 on
    their cells but one, which holds 1.0 plus a near-tie offset, so each
    variant scores that offset away from the planted mapping.
    """
    m, src, tgt = problem.m, problem.source, problem.target
    image = rng.permutation(m).tolist()
    if relational:
        keys = [(i, j, a, b) for i in range(m) for j in range(i + 1, m)
                for a in range(m) for b in range(m) if a != b]
    else:
        keys = [(i, a) for i in range(m) for a in range(m)]
    if kind == "planted-equal":
        base = np.full(len(keys), 0.25)
    elif kind == "planted-negative":
        base = -rng.uniform(2.0, 3.0, len(keys))
    else:
        base = rng.uniform(0.0, 0.3, len(keys))
    values = dict(zip(keys, base.tolist()))
    planted = mapping_cells(image, relational)
    values.update(dict.fromkeys(planted, 1.0))
    for _ in range(4 if kind == "planted-near" else 0):
        p, q = rng.choice(m, size=2, replace=False).tolist()
        variant = list(image)
        variant[p], variant[q] = variant[q], variant[p]
        cells = mapping_cells(variant, relational)
        values.update(dict.fromkeys(cells, 1.0))
        near = next(c for c in cells if c not in planted)
        values[near] = 1.0 + 1e-12 * float(rng.choice(NEAR_OFFSETS))
    if relational:
        space = SimTable({(f"{src[i].text}:{src[j].text}", f"{tgt[a].text}:{tgt[b].text}"): x
                          for (i, j, a, b), x in values.items()})
        return RelationalScorer(space), relational_scorer(problem, space)
    provider = TableSimilarity({(src[i].text, tgt[a].text): x
                                for (i, a), x in values.items()})
    return AttributionalScorer(provider), attributional_scorer(problem, provider)


def rows_of(found):
    return [tuple(r) for rows in found.tied for r in rows.tolist()]


PRUNE_CASES = dict(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(PLANTED),
                   policy=st.sampled_from(POLICIES), relational=st.booleans())


@given(**PRUNE_CASES)
@settings(max_examples=25, deadline=None)
@example(seed=6, kind="planted-near", policy="random", relational=True)
@example(seed=7, kind="planted-near", policy="first", relational=False)
def test_pruned_solve_equals_oracle_at_m8(seed, kind, policy, relational):
    rng = np.random.default_rng(seed)
    problem = make_problem(8)
    scorer, reference = planted_scorers(problem, kind, rng, relational)
    result = solve(problem, scorer, seed=seed, tie_policy=policy)
    _, tied, total, perm = oracle_search(
        problem, itertools.permutations(range(8)), reference, seed, policy)
    assert result.score.hex() == reference(perm).hex()
    assert result.tie_count == len(tied)
    assert result.mapping.perm == perm
    assert result.diagnostics["n_mappings"] == total


@given(**PRUNE_CASES)
@settings(max_examples=15, deadline=None)
@example(seed=8, kind="planted-near", policy="random", relational=True)
def test_pruned_core_equals_full_scan_at_m9(seed, kind, policy, relational):
    rng = np.random.default_rng(seed)
    problem = make_problem(9)
    scorer, _ = planted_scorers(problem, kind, rng, relational)
    score_fn = scorer.prepare(problem)
    full = _argmax_blocks(score_fn, 9)
    pruned = _argmax_blocks(score_fn, 9, prune=True)
    assert pruned.best.hex() == full.best.hex()
    assert rows_of(pruned) == rows_of(full)
    assert pruned.pick(seed, problem.id, policy) == full.pick(seed, problem.id, policy)
    assert pruned.n_mappings == full.n_mappings == full.n_scored == math.factorial(9)
    assert pruned.n_scored < full.n_scored


def constrained_completions(walk, sub_tgt, size, m):
    """Walk-order target rows of every mapping that extends `walk`, with the
    first `size` walk positions on `sub_tgt` and the others off it."""
    sub_left = [t for t in sub_tgt if t not in walk]
    rest_left = [t for t in range(m) if t not in sub_tgt and t not in walk]
    tails = itertools.product(itertools.permutations(sub_left),
                              itertools.permutations(rest_left))
    return [walk + a + b for a, b in tails]


def field_scorer(problem, kind, mode, seed):
    """A scorer of `mode` on a field of `kind`; a planted field as in planted_scorers."""
    rng = np.random.default_rng(seed)
    if mode.startswith("hybrid"):
        if kind in PLANTED:
            space, provider = planted_hybrid_inputs(problem, kind, seed)
        else:
            space = relational_field(problem, kind, rng)
            provider = attributional_field(problem, kind, rng)
        return HybridScorer(space, provider, "add" if mode == "hybrid-add" else "multiply")
    if kind in PLANTED:
        return planted_scorers(problem, kind, rng, mode == "relational")[0]
    if mode == "relational":
        return RelationalScorer(relational_field(problem, kind, rng))
    return AttributionalScorer(attributional_field(problem, kind, rng))


@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(2, 8),
       kind=st.sampled_from(FIELDS + PLANTED), mode=st.sampled_from(MODES))
@settings(max_examples=60, deadline=None)
def test_bound_covers_every_mapping_under_its_head(seed, m, kind, mode):
    """In any walk order, over the unplaced targets: at least every constrained completion."""
    problem = make_problem(m)
    score_fn = field_scorer(problem, kind, mode, seed).prepare(problem)
    rng = np.random.default_rng(seed + 1)
    order = rng.permutation(m)  # walk position d places source order[d]
    size = int(rng.integers(0, m + 1))  # the first `size` walk positions are the subset
    sub_tgt = sorted(rng.choice(m, size=size, replace=False).tolist())
    relabelled = score_fn.relabel(order)
    walk = tuple(rng.permutation(sub_tgt).tolist()
                 + rng.permutation([t for t in range(m) if t not in sub_tgt]).tolist())
    for d in range(m - 1):  # every depth at which a head leaves a source open
        head = walk[:d]
        unplaced = tuple(sorted(set(range(m)) - set(head)))
        bounds = relabelled.bound(head, unplaced)
        for c, upper in zip(unplaced, bounds.tolist()):
            if (c in sub_tgt) != (d < size):
                continue
            rows = np.array(constrained_completions(head + (c,), sub_tgt, size, m))
            mappings = np.empty_like(rows)
            mappings[:, order] = rows
            assert score_fn(mappings).max() <= upper


@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(2, 8),
       kind=st.sampled_from(FIELDS + PLANTED), relational=st.booleans())
@settings(max_examples=60, deadline=None)
@example(seed=11, m=8, kind="negative-chain", relational=True)
@example(seed=12, m=8, kind="negative-equal", relational=True)
@example(seed=13, m=8, kind="chain", relational=False)
# a near-tie of the minimum is reached first, and the minimum's head
# bound lies within 1e-12 of it: pruning that head would be wrong
@example(seed=4, m=8, kind="planted-near", relational=True)
@example(seed=11, m=8, kind="planted-near", relational=False)
def test_shift_is_the_exact_minimum(seed, m, kind, relational):
    rng = np.random.default_rng(seed)
    problem = make_problem(m)
    if kind in PLANTED:
        scorer, _ = planted_scorers(problem, kind, rng, relational)
        planted = scorer.prepare(problem)
        # negated, the planted mapping and its near-ties are the minima
        score_fn = _PairSum(-planted.grids, planted.pairs)
    else:
        if relational:
            scorer = RelationalScorer(relational_field(problem, kind, rng))
        else:
            scorer = AttributionalScorer(attributional_field(problem, kind, rng))
        score_fn = scorer.prepare(problem)
    lo = min(float(score_fn(block).min()) for block in _mapping_blocks(m))
    assert _shift(score_fn, m).hex() == (lo if lo < 0 else 0.0).hex()
    if kind.startswith("negative") or kind in PLANTED:
        assert _shift(score_fn, m) == lo < 0


@pytest.mark.parametrize("relational", [True, False])
def test_strong_signal_prunes(relational):
    """A change that stops pruning, or loosens the bound to nothing, fails here."""
    rng = np.random.default_rng(10)
    problem = make_problem(10)
    scorer, _ = planted_scorers(problem, "planted", rng, relational)
    result = solve(problem, scorer, seed=0)
    assert result.diagnostics["n_mappings"] == math.factorial(10)
    assert result.diagnostics["n_scored"] < math.factorial(10) // 10


@pytest.fixture(scope="module")
def planted_m10(tmp_path_factory):
    """One planted m=10 problem and its relation space."""
    root = tmp_path_factory.mktemp("planted_m10")
    data = generate_planted_corpus(root, PlantedConfig(n_problems=1, m=10,
                                                       target_tokens=20_000, seed=3))
    space, _ = build_space_for_problems(ingest(corpus_files(data.corpus_dir)), data.problems,
                                        Config())
    return data.problems[0], space


@pytest.mark.parametrize("order", ["intended", "reversed", "shuffled"])
@pytest.mark.parametrize("policy", POLICIES)
def test_planted_m10_solve_equals_full_scan(planted_m10, order, policy):
    problem, space = planted_m10
    targets = list(range(10))
    if order == "reversed":
        targets.reverse()
    elif order == "shuffled":
        targets = np.random.default_rng(4).permutation(10).tolist()
    problem = dataclasses.replace(problem, target=tuple(problem.target[j] for j in targets))
    result = solve(problem, RelationalScorer(space), seed=2, tie_policy=policy)
    score_fn = RelationalScorer(space).prepare(problem)
    full = _argmax_blocks(score_fn, 10)
    pruned = _argmax_blocks(score_fn, 10, prune=True)
    assert rows_of(pruned) == rows_of(full)
    assert pruned.best.hex() == full.best.hex()
    assert result.tie_count == full.tie_count
    assert result.mapping.perm == full.pick(2, problem.id, policy)
    assert result.score.hex() == score_of(score_fn, result.mapping.perm).hex()
    assert result.diagnostics["n_mappings"] == full.n_scored == math.factorial(10)
    assert result.diagnostics["n_scored"] < math.factorial(10)


def test_planted_grids_have_no_negative_cosine(tmp_path, monkeypatch):
    """Rows in different components of the relation space have disjoint
    supports in U, so their cosine is exactly 0.0, not rounding noise
    around it: on the seed-0 m=10 problem every relational grid is
    non-negative, at m=10 and m=9, and the relational channel's shift is
    0.0 with no walk."""
    data = generate_planted_corpus(tmp_path, PlantedConfig(n_problems=1, m=10, seed=0))
    space, _ = build_space_for_problems(ingest(corpus_files(data.corpus_dir)), data.problems, Config())
    problem = data.problems[0]

    def no_walk(*args):
        raise AssertionError("a shift walk")

    monkeypatch.setattr(solver, "_mapping_blocks", no_walk)
    for sub in (problem, problem.restricted(list(range(9)), suffix="m9")):
        score_fn = RelationalScorer(space).prepare(sub)
        assert (score_fn.grids >= 0.0).all()
        assert _shift(score_fn, sub.m) == 0.0


def planted_hybrid_inputs(problem, kind, seed):
    """A relation space and a provider with the same planted mapping (see planted_scorers)."""
    relational, _ = planted_scorers(problem, kind, np.random.default_rng(seed), True)
    attributional, _ = planted_scorers(problem, kind, np.random.default_rng(seed), False)
    return relational.space, attributional.provider


def unpruned_hybrid(problem, space, provider, combine):
    """The hybrid's argmax over every mapping, with no bound."""
    prob_r = _Probability(RelationalScorer(space).prepare(problem), problem.m)
    prob_a = _Probability(AttributionalScorer(provider).prepare(problem), problem.m)
    if combine == "add":
        return _argmax_blocks(lambda block: (prob_r(block) + prob_a(block)) / 2.0, problem.m)
    return _argmax_blocks(lambda block: prob_r(block) * prob_a(block), problem.m)


@given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(PLANTED),
       policy=st.sampled_from(POLICIES), combine=st.sampled_from(("add", "multiply")))
@settings(max_examples=8, deadline=None)
@example(seed=14, kind="planted-near", policy="random", combine="add")
@example(seed=15, kind="planted-near", policy="first", combine="add")
@example(seed=16, kind="planted-near", policy="random", combine="multiply")
@example(seed=17, kind="planted-near", policy="first", combine="multiply")
def test_pruned_hybrid_equals_unpruned_core_at_m9(seed, kind, policy, combine):
    problem = make_problem(9)
    space, provider = planted_hybrid_inputs(problem, kind, seed)
    result = solve(problem, HybridScorer(space, provider, combine), seed=seed,
                   tie_policy=policy)
    full = unpruned_hybrid(problem, space, provider, combine)
    assert result.tie_count == full.tie_count
    assert result.mapping.perm == full.pick(seed, problem.id, policy)
    assert result.score.hex() == score_of(
        HybridScorer(space, provider, combine).prepare(problem), result.mapping.perm).hex()
    assert result.diagnostics["n_mappings"] == full.n_scored == math.factorial(9)
    assert result.diagnostics["n_scored"] < full.n_scored


@given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(PLANTED),
       policy=st.sampled_from(POLICIES), mode=st.sampled_from(MODES),
       m_prime=st.sampled_from((9, 7, 4, 2)))
@settings(max_examples=30, deadline=None)
@example(seed=18, kind="planted", policy="random", mode="relational", m_prime=9)
@example(seed=19, kind="planted", policy="first", mode="hybrid-add", m_prime=7)
@example(seed=20, kind="planted-near", policy="random", mode="attributional", m_prime=4)
@example(seed=21, kind="planted-near", policy="first", mode="hybrid-mul", m_prime=2)
def test_pruned_total_equals_unpruned_core_at_m9(seed, kind, policy, mode, m_prime):
    """At m' = m, the walk of `solve`; with a rest of 2 or 5 terms, whose
    blocks take in the last subset positions (at m' = 4 all of them, so
    there is no head); and with a rest of 7. The subset keeps its planted
    image. Below m' = m the heads are too few for pruning to be sure;
    test_strong_signal_total_prunes checks it on fixed fields."""
    problem = make_problem(9)
    image = np.random.default_rng(seed).permutation(9).tolist()  # planted_scorers' first draw
    sub_src = sorted(np.random.default_rng(seed + 1).choice(9, m_prime, replace=False).tolist())
    sub_tgt = sorted(image[i] for i in sub_src)
    scorer = field_scorer(problem, kind, mode, seed)
    score_fn = scorer.prepare(problem)
    full = _argmax_blocks(score_fn, 9, sub_src, sub_tgt)
    pruned = _argmax_blocks(score_fn, 9, sub_src, sub_tgt, prune=True)
    result = solve_constrained(problem, {f"s{i}": f"t{image[i]}" for i in sub_src}, scorer,
                               seed=seed, tie_policy=policy)
    assert pruned.best.hex() == full.best.hex()
    assert rows_of(pruned) == rows_of(full)
    assert result.tie_count == full.tie_count
    assert result.mapping.perm == full.pick(seed, problem.id, policy)
    assert result.score.hex() == score_of(score_fn, result.mapping.perm).hex()
    assert result.diagnostics["n_mappings"] == full.n_scored
    assert result.diagnostics["n_scored"] == pruned.n_scored
    if kind == "planted" and m_prime == 9:
        assert pruned.n_scored < full.n_scored


@pytest.mark.parametrize("sub_src", [[1, 5], [1, 5, 8], [0, 1, 2, 3, 5, 6, 8, 9]])
@pytest.mark.parametrize("relational", [True, False])
def test_strong_signal_total_prunes(relational, sub_src):
    """Total mode at m = 10: at m' = 2 the rest of 8 terms puts a head past
    the subset, and at m' = 8 a block takes in the last subset positions."""
    problem = make_problem(10)
    image = np.random.default_rng(10).permutation(10).tolist()  # planted_scorers' first draw
    scorer, _ = planted_scorers(problem, "planted", np.random.default_rng(10), relational)
    sub_tgt = sorted(image[i] for i in sub_src)
    score_fn = scorer.prepare(problem)
    full = _argmax_blocks(score_fn, 10, sub_src, sub_tgt)
    result = solve_constrained(problem, {f"s{i}": f"t{image[i]}" for i in sub_src}, scorer,
                               seed=0)
    assert result.mapping.perm == full.pick(0, problem.id, "random")
    assert result.score.hex() == score_of(score_fn, result.mapping.perm).hex()
    assert result.diagnostics["n_mappings"] == full.n_scored
    assert result.diagnostics["n_scored"] < full.n_scored


def test_strong_signal_hybrid_prunes():
    """A change that stops pruning the hybrid's argmax, or loosens its bound to nothing, fails here.

    Only "add": at m = 10 a product of two probabilities is of the order
    of the 1e-12 tie tolerance, so head bounds within it prune nothing.
    """
    problem = make_problem(10)
    space, provider = planted_hybrid_inputs(problem, "planted", 10)
    result = solve(problem, HybridScorer(space, provider, "add"))
    assert result.diagnostics["n_mappings"] == math.factorial(10)
    assert result.diagnostics["n_scored"] < math.factorial(10) // 10


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
    found = _argmax_blocks(sequence_scorer(scores), m)
    values = dict(zip(itertools.permutations(range(m)), scores.tolist()))
    best, tied, total = argmax_with_ties(itertools.permutations(range(m)),
                                         values.__getitem__)
    assert found.best.hex() == best.hex()
    assert found.n_mappings == total
    assert [tuple(r) for rows in found.tied for r in rows.tolist()] == tied
    if pattern == "late_reset":
        assert found.tie_count == 7  # the reset dropped n - 7 earlier ties


NEAR_TIES = st.tuples(st.integers(-20, 20), st.integers(-3, 3))


@given(magnitude=st.one_of(st.sampled_from((0.0, 1.0, 4096.0, 1e4, 1e6)),
                           st.floats(-15, 6).map(lambda e: 10.0 ** e)),
       sign=st.sampled_from((1.0, -1.0)),
       steps=st.lists(NEAR_TIES, min_size=1, max_size=40),
       prior=st.one_of(st.none(), NEAR_TIES))
@example(magnitude=10240.252842451815, sign=-1.0, steps=[(0, 0), (0, -1), (0, -2), (0, -1)],
         prior=(0, -1))
@example(magnitude=1e6, sign=1.0, steps=[(0, 0), (-20, 0), (-20, -3), (0, -2), (0, 1)],
         prior=None)
@settings(max_examples=500, deadline=None)
def test_unpassed_rows_leave_the_tie_replay_unchanged(magnitude, sign, steps, prior):
    """Rows k * 1e-13 plus u ulps from one magnitude, near-ties at the
    tolerance and at the rounding: dropping the rows an earlier row has
    left behind gives the replay's best and tied positions."""
    base = sign * magnitude
    ulp = abs(np.spacing(base))
    scores = np.array([base + k * 1e-13 + u * ulp for k, u in steps])
    best = -math.inf if prior is None else base + prior[0] * 1e-13 + prior[1] * ulp
    want_best, want = solver._replay_ties(scores.tolist(), best)
    live = solver._unpassed(scores, best)
    got_best, kept = solver._replay_ties(scores[live].tolist(), best)
    assert got_best == want_best
    assert live[kept].tolist() == want


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
    """Also on an all-equal negative field: both minimum searches prune nothing, and every mapping ties."""
    problem = make_problem(9)
    for kind in ("random", "negative-equal"):
        rng = np.random.default_rng(9)
        space = relational_field(problem, kind, rng)
        provider = attributional_field(problem, kind, rng)
        result, peak = traced_peak_mb(
            lambda: solve(problem, HybridScorer(space, provider, "add")))
        if kind == "negative-equal":
            assert result.tie_count == math.factorial(9)
        assert peak < MEMORY_CAP_MB, f"{kind}: peak {peak:.1f} MB"


def test_all_zero_field_memory_is_bounded_at_m9():
    problem = make_problem(9)
    result, peak = traced_peak_mb(
        lambda: solve(problem, RelationalScorer(SimTable({})), seed=1))
    assert result.tie_count == math.factorial(9)
    assert peak < MEMORY_CAP_MB, f"peak {peak:.1f} MB"
