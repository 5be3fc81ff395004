"""Exhaustive bijection search with relational, attributional, and hybrid scores.

All m! mappings of a problem are enumerated in lexicographic order of
the target-index permutation, the order of `itertools.permutations`.
They come in blocks of up to 7! = 5040 rows, one (n, m) integer array
per block: the first m - 7 positions, the block's head, are walked
depth-first, and the last seven are filled from one precomputed table
of the 7! permutations, indexed through the sorted remaining targets.
Every mode, the hybrid included, is a scorer whose `prepare` returns a
score with `__call__`, `bound`, `relabel` and `explain`. Calling it
scores a whole block at once, adding the terms in the same order as a
per-mapping loop, so every score is bit-identical to a scalar sum from
0.0. `explain` gives the winner's breakdown from the same grids, so its
terms are the cells the search ranked, not a second lookup.

The search keeps a running best and the set of mappings tied with it.
The tie rule is sequential, in enumeration order, with an absolute
tolerance of 1e-12: a score more than 1e-12 above the running best
becomes the new best and resets the tie set, dropping the earlier
near-ties; a score within 1e-12 of the running best joins the set.
The best never falls, so only rows within 1e-12 below it or higher can
change the state; a block is filtered to those before the rule is
replayed on them. One tied mapping is drawn with a seeded generator, so
runs are reproducible; a "first" tie policy is also available for
analyses where both search spaces must break ties identically. The
result's score is the drawn mapping's own, which for a drawn near-tie
is up to 1e-12 away from the running best.

`solve` prunes that walk without changing its outcome. Both scores are
sums over source pairs, so a head has a cheap upper bound: per pair,
the exact grid value when both sources are placed, the largest value
over the targets still free when one is, and the largest over distinct
free targets when neither is (Gilmore 1962; Lawler 1963). A rounding
margin, fixed per `prepare`, covers the float error of the score's
sequential sum and of the bound's own sum. The walk skips a head, and
every block under it, when its bound plus margin is below the running
best - 1e-12 at the moment the walk reaches it. Every mapping skipped
so would score below that best, where the full scan ignores it too:
it neither joins nor resets the tie set, so by induction the best, the
tie set and the seeded draw are those of the full scan. Scored blocks
go through the same score function and tie replay. Total-mode
coherence takes the same walk, its subset placed first, and is pruned too.
`n_mappings` in a result's diagnostics is the size of the search
space, `n_scored` the rows actually scored.

The hybrid normalizes each channel's scores to a probability, which
needs the channel's minimum and its sum over all m! mappings. The
minimum takes no walk when no grid cell is negative (it then cannot be
below 0.0, and the shift is 0.0). Otherwise it is minus the maximum
under the negated grids, found by a walk that skips every head whose
bound cannot raise the running maximum, which starts at 0.0 since a
positive minimum gives no shift. The sum takes no walk: each cell of
a pair i < j is read by (m - 2)! mappings and each diagonal cell of a
pair (i, i) by (m - 1)!, so it is a weighted sum of the cells less m!
shifts, taken exactly on integers. The combined argmax is pruned too:
each channel's head bound goes through the same monotone arithmetic as
its probability and the combination, so it bounds every combined
value under the head.

Memory stays O(block) for any budget: the hybrid holds no score per
mapping, and the tie set is kept as compact integer rows. At m = 10
the full scan of 3,628,800 mappings takes about 0.42 s on one core of
a 2-vCPU x86 host. On a planted problem, the pruned relational search
takes 0.006-0.016 s there and scores 5,040 to 80,640 rows, with the
targets in intended, reversed or shuffled order; on a uniform-noise
field nothing is pruned and the bounds add about 3%. A planted hybrid
solve at m = 10, add or multiply, takes about 0.007-0.015 s there and
scores one block of 5,040 rows; its grids hold no negative cell, so no
shift walk runs.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .errors import BudgetError, DataError
from .problems import Mapping, MappingProblem
from .terms import TermPair

TIE_TOLERANCE = 1e-12
TIE_POLICIES = ("random", "first")
DEFAULT_M_MAX = 10
BLOCK_TAIL = 7  # trailing positions filled from one table: blocks of 7! rows
BLOCK_ROWS = math.factorial(BLOCK_TAIL)

# scorer contract: `mode` names it; prepare(problem) returns score(perms),
# which maps an (n, m) block of target-index rows to n float64 scores, and
# has score.bound(head, free), the head bounds the search prunes with,
# score.relabel(order), the score over sources renamed to walk order, and
# score.explain(problem, perm), the labeled terms of one mapping's score.
# Scores are _PairSum sums, or the hybrid's _HybridScore of two. A scorer
# keeps no per-problem state.


@functools.lru_cache(maxsize=None)
def _tail_table(k: int, s: int) -> np.ndarray:
    """Lexicographic permutations of range(k) putting range(s) first; one per column, read-only."""
    table = np.array([a + b for a in itertools.permutations(range(s))
                      for b in itertools.permutations(range(s, k))], dtype=np.intp).T.copy()
    table.setflags(write=False)
    return table


def _mapping_blocks(m: int, sub_src: Sequence[int] = (), sub_tgt: Sequence[int] = (),
                    score=None, keep=None) -> Iterator[np.ndarray]:
    """Mappings of m terms as blocks of rows (row[i] = target of source i).

    One depth-first walk places the sorted sources `sub_src`, then the
    rest, drawing targets in increasing order from the remaining sorted
    `sub_tgt` while subset sources remain, then from the others. So the
    subset assignment is the major key (the first maximum has the first
    maximal one), and with no subset the order is itertools.permutations'.
    The last rest positions (at most 7), and the last subset ones while a
    block stays within 7! rows, come from one table; blocks are stored by
    columns, the layout the scorers read. With a score, a head joins the
    walk only if keep(u), asked when the walk reaches it, holds for its
    bound u from the score relabelled to walk order over all unplaced
    targets (a superset of the allowed ones); else it and its blocks are skipped.
    """
    rest_src = [i for i in range(m) if i not in sub_src]
    order = np.array([*sub_src, *rest_src], dtype=np.intp)
    r = min(len(rest_src), BLOCK_TAIL)
    s = 0 if r < len(rest_src) else max(
        n for n in range(len(sub_src) + 1) if math.factorial(n) * math.factorial(r) <= BLOCK_ROWS)
    tail = _tail_table(s + r, s)
    n_head, subset = m - len(tail), set(sub_tgt)
    bound = None if score is None else score.relabel(order).bound
    # a block's row for source i reads the walk's targets, head + free, at index[i]
    index = np.vstack([np.tile(np.arange(n_head)[:, None], len(tail[0])), n_head + tail])
    index = index[np.argsort(order)]

    def walk(head: tuple, free: tuple) -> Iterator[np.ndarray]:
        d = len(head)
        if d == n_head:
            yield np.take(np.array(head + free, dtype=np.intp), index).T
            return
        bounds = None if bound is None else bound(head, free)
        for t, c in enumerate(free):
            if (d >= len(sub_src) or c in subset) and (bounds is None or keep(bounds[t])):
                yield from walk(head + (c,), free[:t] + free[t + 1:])

    return walk((), tuple(sorted(range(m), key=lambda c: c not in subset)))  # subset first


def _max_without(values: np.ndarray) -> np.ndarray:
    """out[..., t] = the largest values[..., s] over s != t (at least two entries)."""
    ordered = np.sort(values, axis=-1)
    first, second = ordered[..., -1:], ordered[..., -2:-1]
    return np.where(values == first, second, first)  # a tied maximum gives second == first


class _PairSum:
    """A score over source pairs: sum over k of grids[k][perm[i] * m + perm[j]], (i, j) = pairs[k].

    Calling it scores a block (or one tuple), adding term by term from
    0.0, the order of a scalar loop, so a block's scores carry the same
    bits as that loop's. `bound(head, free)` gives, for each c in
    `free`, an upper bound on the float score of every mapping whose
    first len(head) + 1 targets are head + (c,): for each pair, the
    exact grid value if both sources are placed, the largest value over
    the targets still free if one is, and the largest over distinct
    free targets (the diagonal for a pair (i, i)) if neither is. Each
    bound carries `margin`, which covers the rounding of both the
    score's sequential sum and the bound's own sum: n terms summed in
    any order are off by at most (n - 1) * eps / 2 * sum |term|, and
    |term| <= max |grid|.
    """

    def __init__(self, grids: np.ndarray, pairs: Sequence[tuple[int, int]]):
        self.grids = grids
        self.pairs = list(pairs)
        self.m = m = math.isqrt(grids.shape[1])
        self._i = np.array([i for i, _ in self.pairs], dtype=np.intp)
        self._j = np.array([j for _, j in self.pairs], dtype=np.intp)
        self._cells = grids.reshape(len(self.pairs), m, m)
        # a bijection reads a != b for i < j and a == b for (i, i)
        reachable = np.eye(m, dtype=bool)[None] == (self._i == self._j)[:, None, None]
        self._reachable = np.where(reachable, self._cells, -np.inf)
        scale = float(np.abs(grids).max(axis=1, initial=0.0).sum())
        self.margin = 2.0 * (len(self.pairs) + 1) * np.finfo(np.float64).eps * scale
        self._groups: dict[int, tuple[np.ndarray, ...]] = {}

    def __call__(self, perms):
        P = np.asarray(perms, dtype=np.intp)
        if P.ndim == 1:
            return float(self(P[None, :])[0])
        cols = np.ascontiguousarray(P.T)
        scaled = cols * self.m
        acc = np.zeros(len(P))
        for grid, (i, j) in zip(self.grids, self.pairs):
            acc += grid.take(scaled[i] + cols[j])
        return acc

    def relabel(self, order: np.ndarray) -> "_PairSum":
        """Source order[d] renamed d; a pair whose sources swap has its grid transposed."""
        rank = np.argsort(order)
        i, j = rank[self._i], rank[self._j]
        swapped = self._cells.transpose(0, 2, 1).reshape(self.grids.shape)
        return _PairSum(np.where((i > j)[:, None], swapped, self.grids),
                        zip(np.minimum(i, j).tolist(), np.maximum(i, j).tolist()))

    def _by_depth(self, d: int) -> tuple[np.ndarray, ...]:
        """Pair indices by how they stand once sources 0..d are placed."""
        if d not in self._groups:
            i, j = self._i, self._j
            self._groups[d] = tuple(np.flatnonzero(mask) for mask in (
                j < d,                    # both placed before source d
                (i < d) & (j == d),       # closed by source d
                (i == d) & (j == d),      # (d, d)
                (i < d) & (j > d),        # one placed, row from the head
                (i == d) & (j > d),       # one placed, row from source d
                i > d))                   # neither placed
        return self._groups[d]

    def bound(self, head: Sequence[int], free: Sequence[int]) -> np.ndarray:
        """Upper bounds plus margin for the heads head + (c,), c in free."""
        h = np.asarray(head, dtype=np.intp)
        f = np.asarray(free, dtype=np.intp)
        i, j, cells, reach = self._i, self._j, self._cells, self._reachable
        placed, closed, own, from_head, from_new, open_ = self._by_depth(len(h))
        total = cells[placed, h[i[placed]], h[j[placed]]].sum()
        total = total + cells[closed[:, None], h[i[closed]][:, None], f].sum(axis=0)
        total = total + cells[own[:, None], f, f].sum(axis=0)
        total = total + _max_without(
            reach[from_head[:, None], h[i[from_head]][:, None], f]).sum(axis=0)
        total = total + reach[from_new[:, None, None], f[:, None], f].max(axis=2).sum(axis=0)
        # neither placed: the best cell off row c and column c
        rows = _max_without(reach[open_[:, None, None], f[:, None], f])
        rows[:, np.arange(len(f)), np.arange(len(f))] = -np.inf
        total = total + rows.max(axis=1).sum(axis=0)
        return total + self.margin

    def explain(self, problem: MappingProblem, perm: Sequence[int]) -> list[tuple[str, float]]:
        """The terms of perm's score, labeled, in the order the score adds them.

        A pair (i, i) reads "s -> t", a pair i < j "x:y ~ a:b"; each value
        is the grid cell the search read, so the values summed from 0.0
        give the score's bits.
        """
        src, tgt, m = problem.source, problem.target, self.m
        return [(f"{src[i].text} -> {tgt[perm[i]].text}" if i == j else
                 f"{src[i].text}:{src[j].text} ~ {tgt[perm[i]].text}:{tgt[perm[j]].text}",
                 float(grid[perm[i] * m + perm[j]]))
                for grid, (i, j) in zip(self.grids, self.pairs)]


class RelationalScorer:
    """Sum of pair similarities over all i < j, via a precomputed table."""

    mode = "relational"

    def __init__(self, space):
        self.space = space

    def prepare(self, problem: MappingProblem) -> _PairSum:
        # one flattened m x m grid per source pair i < j, indexed by
        # target indices a * m + b
        m = problem.m
        src, tgt = problem.source, problem.target
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
        cells = [(a, b) for a in range(m) for b in range(m) if a != b]
        grids = np.zeros((len(pairs), m * m))
        grids[:, [a * m + b for a, b in cells]] = self.space.sim_grid(
            [TermPair(src[i], src[j]) for i, j in pairs],
            [TermPair(tgt[a], tgt[b]) for a, b in cells])
        return _PairSum(grids, pairs)


class AttributionalScorer:
    """Sum of term similarities between each source term and its image."""

    mode = "attributional"

    def __init__(self, provider):
        self.provider = provider

    def prepare(self, problem: MappingProblem) -> _PairSum:
        # term i is the pair (i, i): grid i holds sim(source i, target a)
        # at a * m + a
        m = problem.m
        grids = np.zeros((m, m * m))
        for i in range(m):
            for a in range(m):
                grids[i, a * m + a] = self.provider.sim(problem.source[i],
                                                        problem.target[a])
        return _PairSum(grids, [(i, i) for i in range(m)])


def _shift(score_fn: _PairSum, m: int) -> float:
    """A channel's shift: its exact minimum score over all m! mappings if negative, else 0.0.

    Without a negative cell every score is a sum of non-negative terms
    from 0.0, so none is negative and no walk is needed. Otherwise the
    shift is minus the largest score under the negated grids, floored at
    0.0. Negation is exact under round-to-nearest, so each negated sum
    is exactly the negated score. The walk skips a head when its bound
    is at most the running top, which starts at the floor: no mapping
    under it can raise the top.
    """
    if not (score_fn.grids < 0).any():
        return 0.0
    negated = _PairSum(-score_fn.grids, score_fn.pairs)
    top = 0.0
    for block in _mapping_blocks(m, (), (), negated,
                                 lambda upper: not upper <= top):  # a NaN bound prunes nothing
        top = max(top, float(negated(block).max()))
    return -top if top > 0 else 0.0


def _units(values) -> int:
    """The exact sum of the floats `values` in units of 2**-1074, of which each is a whole number."""
    return sum(n << (1075 - d.bit_length()) for n, d in map(float.as_integer_ratio, values))


class _Probability:
    """One channel's probability of a mapping: (score - shift) / total.

    `shift` is the minimum score when it is negative, else 0.0, and
    `total` the shifted sum over all `count` = m! mappings, exact on
    integers and rounded once by the int division. Every float score
    is within `margin` of its exact sum, so a total of at most count *
    margin is rounding residue (a constant field of a value floats
    cannot hold leaves one): the field is degenerate and every mapping
    gets 1 / count. `bound(head, free)` puts the score's head bounds
    through the same arithmetic. Subtracting a constant and dividing by
    a positive one are monotone in IEEE arithmetic, so it bounds the
    float probability of every mapping under each head.
    """

    def __init__(self, score_fn: _PairSum, m: int):
        self.score_fn = score_fn
        self.shift = _shift(score_fn, m)
        self.count = math.factorial(m)
        own, eye = score_fn._i == score_fn._j, np.eye(m, dtype=bool)
        # a cell of a pair i < j is read by the (m - 2)! mappings sending
        # i and j onto its targets, one of a pair (i, i) by (m - 1)!
        cells_ij = score_fn._cells[~own][:, ~eye].ravel().tolist()
        cells_ii = score_fn._cells[own][:, eye].ravel().tolist()
        exact = (math.factorial(m - 2) * _units(cells_ij) + math.factorial(m - 1) * _units(cells_ii)
                 - self.count * _units([self.shift]))
        self.total = exact / (1 << 1074)
        self.uniform = self.total <= self.count * score_fn.margin

    def _scale(self, scores: np.ndarray) -> np.ndarray:
        if self.uniform:
            return np.full(len(scores), 1.0 / self.count)
        return (scores - self.shift) / self.total

    def __call__(self, perms: np.ndarray) -> np.ndarray:
        return self._scale(self.score_fn(perms))

    def bound(self, head: Sequence[int], free: Sequence[int]) -> np.ndarray:
        return self._scale(self.score_fn.bound(head, free))

    def relabel(self, order: np.ndarray) -> "_Probability":
        """The same shift and total over the score relabelled to `order`."""
        relabelled = copy.copy(self)
        relabelled.score_fn = self.score_fn.relabel(order)
        return relabelled


class _HybridScore:
    """Two channels' probability of a mapping, averaged ("add") or multiplied.

    The join is monotone in each probability (halving a sum, or
    multiplying two non-negative factors), so joining the channels'
    head bounds bounds every joined value under the head.
    """

    def __init__(self, relational: _Probability, attributional: _Probability, combine: str):
        self.relational, self.attributional, self.combine = relational, attributional, combine

    def _join(self, r: np.ndarray, a: np.ndarray) -> np.ndarray:
        return (r + a) / 2.0 if self.combine == "add" else r * a

    def __call__(self, perms: np.ndarray) -> np.ndarray:
        return self._join(self.relational(perms), self.attributional(perms))

    def bound(self, head: Sequence[int], free: Sequence[int]) -> np.ndarray:
        return self._join(self.relational.bound(head, free),
                          self.attributional.bound(head, free))

    def relabel(self, order: np.ndarray) -> "_HybridScore":
        return _HybridScore(self.relational.relabel(order), self.attributional.relabel(order),
                            self.combine)

    def explain(self, problem: MappingProblem, perm: Sequence[int]) -> list[tuple[str, float]]:
        """perm's joined value as the channel terms the join adds, or as one product."""
        row = np.array([perm], dtype=np.intp)
        r, a = float(self.relational(row)[0]), float(self.attributional(row)[0])
        if self.combine == "add":
            return [("relational probability / 2", r / 2.0),
                    ("attributional probability / 2", a / 2.0)]
        return [("relational x attributional probability", r * a)]


class HybridScorer:
    """The relational and attributional probability of a mapping, averaged ("add") or multiplied."""

    def __init__(self, space, provider, combine: str = "add"):
        if combine not in ("add", "multiply"):
            raise DataError(f"unknown hybrid combination {combine!r}")
        self.relational = RelationalScorer(space)
        self.attributional = AttributionalScorer(provider)
        self.combine = combine
        self.mode = "hybrid-add" if combine == "add" else "hybrid-mul"

    def prepare(self, problem: MappingProblem) -> _HybridScore:
        return _HybridScore(_Probability(self.relational.prepare(problem), problem.m),
                            _Probability(self.attributional.prepare(problem), problem.m),
                            self.combine)


@dataclass
class SolveResult:
    problem: MappingProblem
    mapping: Mapping
    score: float
    tie_count: int
    breakdown: list[tuple[str, float]]
    diagnostics: dict = field(default_factory=dict)

    def assignment(self) -> dict[str, str]:
        return self.mapping.assignment(self.problem)

    def to_text(self) -> str:
        """Tab-separated assignment lines followed by a JSON diagnostics block."""
        import json

        lines = [f"{self.problem.source[i].text}\t->\t{self.problem.target[j].text}"
                 for i, j in enumerate(self.mapping.perm)]
        diag = {"problem": self.problem.id,
                "score": self.score,
                "tie_count": self.tie_count,
                "mode": self.diagnostics.get("mode", ""),
                "seed": self.diagnostics.get("seed")}
        return "\n".join(lines) + "\n" + json.dumps(diag, sort_keys=True) + "\n"


def _replay_ties(scores: list[float], best: float) -> tuple[float, list[int]]:
    """The sequential tie rule over a block's candidate scores.

    Returns the new best and the positions of the candidates tied with it.
    """
    kept: list[int] = []
    for k, s in enumerate(scores):
        if s > best + TIE_TOLERANCE:
            best, kept = s, [k]
        elif s >= best - TIE_TOLERANCE:
            kept.append(k)
    return best, kept


@dataclass
class _Argmax:
    """Outcome of a block search: the best score and the rows tied with it."""

    best: float
    tied: list[np.ndarray]  # chunks of compact rows, in enumeration order
    n_mappings: int         # the size of the search space
    n_scored: int           # the rows actually scored

    @property
    def tie_count(self) -> int:
        return sum(len(rows) for rows in self.tied)

    def pick(self, seed, problem_id: str, tie_policy: str) -> tuple[int, ...]:
        """The first tied mapping, or one drawn with the seed; decodes only it."""
        k = 0
        if tie_policy != "first" and self.tie_count > 1:
            k = random.Random(f"{seed}:{problem_id}").randrange(self.tie_count)
        for rows in self.tied:
            if k < len(rows):
                return tuple(rows[k].tolist())
            k -= len(rows)
        raise DataError(f"problem {problem_id}: no mapping has a comparable score")


def _argmax_blocks(score_fn, m: int, sub_src: Sequence[int] = (),
                   sub_tgt: Sequence[int] = (), prune: bool = False) -> _Argmax:
    """Best score and tie set over the mappings of `_mapping_blocks`, by the sequential tie rule.

    The running best never falls, so rows scoring below best - 1e-12
    can neither join the tie set nor reset it. When no remaining row
    exceeds best + 1e-12 they all join; otherwise the rule is replayed
    over them alone. With `prune`, the walk skips every head whose bound
    under `score_fn` is below the running best - 1e-12: all its mappings
    would be ignored, so the outcome is that of the full enumeration.
    """
    best = -math.inf
    tied: list[np.ndarray] = []
    n_scored = 0

    def keep(upper: float) -> bool:
        return not upper < best - TIE_TOLERANCE  # a NaN bound prunes nothing

    for block in _mapping_blocks(m, sub_src, sub_tgt, score_fn if prune else None, keep):
        n_scored += len(block)
        scores = score_fn(block)
        candidates = np.flatnonzero(scores >= best - TIE_TOLERANCE)
        if not candidates.size:
            continue
        compact = np.min_scalar_type(block.shape[1])
        candidate_scores = scores[candidates]
        if candidate_scores.max() <= best + TIE_TOLERANCE:
            tied.append(block[candidates].astype(compact))
            continue
        best, kept = _replay_ties(candidate_scores.tolist(), best)
        tied = [block[candidates[kept]].astype(compact)]
    n_mappings = math.factorial(len(sub_src)) * math.factorial(m - len(sub_src))
    return _Argmax(best, tied, n_mappings, n_scored)


def _solve(problem: MappingProblem, scorer, seed, tie_policy: str, m_max: int,
           sub_src: Sequence[int] = (), sub_tgt: Sequence[int] = ()) -> SolveResult:
    """The step every solve shares: budget check, prepare, argmax and the tie pick."""
    if tie_policy not in TIE_POLICIES:
        raise DataError(f"unknown tie policy {tie_policy!r}; expected one of {TIE_POLICIES}")
    if problem.m > m_max:
        raise BudgetError(f"m={problem.m} means {math.factorial(problem.m):,} mappings, "
                          f"over the budget of m <= {m_max}")
    score_fn = scorer.prepare(problem)
    found = _argmax_blocks(score_fn, problem.m, sub_src, sub_tgt, prune=True)
    perm = found.pick(seed, problem.id, tie_policy)
    return SolveResult(
        problem=problem,
        mapping=Mapping(problem_id=problem.id, perm=perm),
        score=float(score_fn(np.array([perm], dtype=np.intp))[0]),
        tie_count=found.tie_count,
        breakdown=score_fn.explain(problem, perm),
        diagnostics={"mode": scorer.mode, "seed": seed,
                     "n_mappings": found.n_mappings, "n_scored": found.n_scored},
    )


def solve(problem: MappingProblem, scorer, seed=0, *,
          tie_policy: str = "random", m_max: int = DEFAULT_M_MAX) -> SolveResult:
    """Best mapping under the scorer, ties broken per the policy."""
    return _solve(problem, scorer, seed, tie_policy, m_max)


def solve_constrained(problem: MappingProblem, fixed: dict[str, str], scorer, seed=0, *,
                      tie_policy: str = "random",
                      m_max: int = DEFAULT_M_MAX) -> SolveResult:
    """Best mapping of the whole problem under a setwise subset constraint.

    `fixed` associates a subset of source terms with an equal-size
    subset of target terms (by normalized text). Only mappings sending
    the source subset onto the target subset, in any order, are
    searched; the result is the whole problem's winner among them.
    """
    src_index = {t.text: i for i, t in enumerate(problem.source)}
    tgt_index = {t.text: j for j, t in enumerate(problem.target)}
    try:
        sub_src = sorted(src_index[s] for s in fixed)
        sub_tgt = sorted(tgt_index[t] for t in fixed.values())
    except KeyError as exc:
        raise DataError(f"constraint names unknown term {exc.args[0]!r}") from exc
    if len(set(fixed.values())) != len(fixed):
        raise DataError("constraint is not injective")
    return _solve(problem, scorer, seed, tie_policy, m_max, sub_src, sub_tgt)
