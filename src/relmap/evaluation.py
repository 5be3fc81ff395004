"""Batch evaluation, coherence comparisons, and parameter sweeps.

A batch run mines the corpus once across all problems in the dataset,
builds one relation space, solves every problem, and reports per-problem
and average accuracy. Reports serialize to TSV plus a JSON diagnostics
sidecar; everything written is deterministic given (corpus digest,
config, seed).
"""

from __future__ import annotations

import json
import logging
import random
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import patterns as pt
from . import space as sp
from .attributes import (CombinedSimilarity, PmiIrSimilarity, PosSimilarity,
                         load_external_similarity)
from .config import TRANSFORMS, Config, provider_parts
from .corpus import CorpusIndex
from .dataset import Dataset, mean
from .errors import ConfigError, DataError
from .problems import Mapping, MappingProblem
from .solver import (AttributionalScorer, HybridScorer, RelationalScorer,
                     SolveResult, solve, solve_constrained)

logger = logging.getLogger(__name__)


def accuracy(predicted: Mapping, intended: Mapping) -> float:
    """Percentage of source terms mapped to their intended targets."""
    if predicted.problem_id != intended.problem_id:
        raise DataError(f"cannot score mapping for {predicted.problem_id!r} "
                        f"against {intended.problem_id!r}")
    if len(predicted.perm) != len(intended.perm):
        raise DataError("mappings cover different numbers of terms")
    m = len(predicted.perm)
    hits = sum(1 for a, b in zip(predicted.perm, intended.perm) if a == b)
    return 100.0 * hits / m


# --- relational pipeline ----------------------------------------------------

def mine_for_problems(index: CorpusIndex, problems: list[MappingProblem],
                      max_phrases_per_pair: Optional[int] = None
                      ) -> tuple[list, pt.PatternStats]:
    pairs = pt.build_pair_list(problems)
    stats = pt.mine_patterns(index, pairs, max_phrases_per_pair=max_phrases_per_pair)
    return pairs, stats


def space_from_stats(pairs: list, stats: pt.PatternStats, config: Config
                     ) -> tuple[sp.RelationSpace, dict]:
    """Prune, select columns, weight, smooth; also returns stage diagnostics."""
    rows = pt.prune_rows(pairs, stats.phrase_counts)
    diag = {"n_pairs": len(pairs), "n_r": len(rows)}
    if not rows:
        diag.update(n_c=0, f_density=0.0, x_density=0.0)
        return sp.RelationSpace(row_index={}, W=np.zeros((0, 1))), diag
    cols = pt.select_columns(stats, config.t, len(rows))
    F = pt.build_frequency_matrix(rows, cols, stats)
    diag["n_c"] = len(cols)
    diag["f_density"] = F.nnz / (F.shape[0] * F.shape[1]) if F.shape[1] else 0.0
    if config.transform not in TRANSFORMS:
        raise ConfigError(f"unknown transform {config.transform!r}; expected one of {TRANSFORMS}")
    X = (sp.transform_ppmic(F) if config.transform == "ppmic"
         else sp.transform_log_entropy(F)[0])
    diag["x_density"] = X.nnz / (X.shape[0] * X.shape[1]) if X.shape[1] else 0.0
    return sp.build_space_from_matrix(X, rows, k=config.k if config.svd else None), diag


def build_space_for_problems(index: Optional[CorpusIndex], problems: list[MappingProblem],
                             config: Config) -> tuple[Optional[sp.RelationSpace], dict]:
    """The relation space `config.mode` solves with: none in attributional mode.

    The diagnostics carry the digest of the corpus whenever one is given.
    """
    if config.mode == "attributional":
        return None, {} if index is None else {"corpus_digest": index.digest}
    if index is None:
        raise ConfigError(f"mode {config.mode!r} needs an indexed corpus")
    pairs, stats = mine_for_problems(
        index, problems, max_phrases_per_pair=config.max_phrases_per_pair)
    space, diag = space_from_stats(pairs, stats, config)
    return space, dict(diag, corpus_digest=index.digest)


# --- providers --------------------------------------------------------------

def make_provider(spec: str, problem: MappingProblem,
                  index: Optional[CorpusIndex], config: Config):
    """Build the attributional provider named by a spec like "pmi-ir+pos".

    The POS component uses the problem's own tags (tags are scoped to a
    problem: the same word can be tagged differently in two problems).
    """
    base: list = []
    for name, path in provider_parts(spec):
        if name == "pos":
            base.append(PosSimilarity(problem.pos_tags))
        elif name == "pmi-ir":
            if index is None:
                raise ConfigError("provider pmi-ir needs a corpus index")
            base.append(PmiIrSimilarity(index, window=config.pmi_window))
        else:
            base.append(load_external_similarity(path))
    provider = base[0]
    for extra in base[1:]:
        provider = CombinedSimilarity(provider, extra)
    return provider


# --- reports ----------------------------------------------------------------

@dataclass
class ReportRow:
    problem_id: str
    mnemonic: str
    m: int
    accuracy: float
    tie_count: int
    agreement: Optional[float] = None


@dataclass
class Report:
    rows: list[ReportRow]
    average: float
    metadata: dict = field(default_factory=dict)

    def split_averages(self) -> Optional[dict[str, float]]:
        """Mean accuracy for A-prefixed and M-prefixed problems, if both occur."""
        science = [r.accuracy for r in self.rows if r.problem_id.startswith("A")]
        metaphor = [r.accuracy for r in self.rows if r.problem_id.startswith("M")]
        if not science or not metaphor:
            return None
        return {"science": mean(science), "metaphor": mean(metaphor)}

    def to_tsv(self) -> str:
        lines = ["mapping\tsource_target\tm\taccuracy\tagreement"]
        for r in self.rows:
            agreement = f"{r.agreement:.1f}" if r.agreement is not None else ""
            lines.append(f"{r.problem_id}\t{r.mnemonic}\t{r.m}"
                         f"\t{r.accuracy:.1f}\t{agreement}")
        mean_agreement = [r.agreement for r in self.rows if r.agreement is not None]
        avg_agr = (f"{mean(mean_agreement):.1f}"
                   if len(mean_agreement) == len(self.rows) and self.rows else "")
        lines.append(f"Average\t\t\t{self.average:.1f}\t{avg_agr}")
        return "\n".join(lines) + "\n"

    def sidecar(self) -> str:
        payload = dict(self.metadata)
        payload["average"] = self.average
        split = self.split_averages()
        if split:
            payload["split"] = split
        payload["rows"] = [{"problem": r.problem_id, "accuracy": r.accuracy,
                            "tie_count": r.tie_count} for r in self.rows]
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def make_scorer(config: Config, problem: MappingProblem,
                space: Optional[sp.RelationSpace], index: Optional[CorpusIndex]):
    """The scorer of `config.mode` for one problem, whose POS tags its provider reads."""
    if config.mode == "relational":
        return RelationalScorer(space)
    provider = make_provider(config.provider, problem, index, config)
    if config.mode == "attributional":
        return AttributionalScorer(provider)
    return HybridScorer(space, provider, "add" if config.mode == "hybrid-add" else "multiply")


def solve_one(problem: MappingProblem, config: Config,
              space: Optional[sp.RelationSpace],
              index: Optional[CorpusIndex]) -> SolveResult:
    return solve(problem, make_scorer(config, problem, space, index), config.seed,
                 m_max=config.m_max)


def solve_batch(dataset: Dataset, config: Config,
                index: Optional[CorpusIndex] = None
                ) -> tuple[list[SolveResult], dict]:
    """Solve every problem under one shared relation space; no accuracy."""
    config.validate()
    problems = list(dataset)
    space, diag = build_space_for_problems(index, problems, config)
    diag.update(mode=config.mode, seed=config.seed)
    results = [solve_one(p, config, space, index) for p in problems]
    diag["tie_counts"] = {r.problem.id: r.tie_count for r in results}
    return results, diag


def run_batch(dataset: Dataset, config: Config,
              index: Optional[CorpusIndex] = None) -> Report:
    """Solve the whole dataset and score it against the intended mappings."""
    results, diag = solve_batch(dataset, config, index)
    rows = []
    for result in results:
        problem = result.problem
        acc = accuracy(result.mapping, problem.intended_mapping())
        agreement = dataset.mean_agreement(problem) if problem.agreement else None
        rows.append(ReportRow(problem_id=problem.id, mnemonic=problem.mnemonic,
                              m=problem.m, accuracy=acc,
                              tie_count=result.tie_count, agreement=agreement))
    average = mean([r.accuracy for r in rows]) if rows else 0.0
    diag["config"] = config.summary()
    return Report(rows=rows, average=average, metadata=diag)


# --- coherence experiment ---------------------------------------------------

@dataclass
class CoherenceRow:
    problem_id: str
    trials: int
    internal_accuracy: float
    total_accuracy: float


@dataclass
class CoherenceReport:
    rows: list[CoherenceRow]
    internal_average: float
    total_average: float
    metadata: dict = field(default_factory=dict)

    def to_tsv(self) -> str:
        lines = ["mapping\ttrials\tinternal\ttotal"]
        for r in self.rows:
            lines.append(f"{r.problem_id}\t{r.trials}"
                         f"\t{r.internal_accuracy:.1f}\t{r.total_accuracy:.1f}")
        lines.append(f"Average\t{sum(r.trials for r in self.rows)}"
                     f"\t{self.internal_average:.1f}\t{self.total_average:.1f}")
        return "\n".join(lines) + "\n"

    def sidecar(self) -> str:
        payload = dict(self.metadata)
        payload["internal_average"] = self.internal_average
        payload["total_average"] = self.total_average
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


class _PreparedOnce:
    """A scorer that prepares one problem once and serves it to every trial.

    Total mode searches the same full problem in each trial; the reduced
    problems of internal mode differ per trial and are prepared as usual.
    Like every scorer it offers `mode` and `prepare`: a solve explains its
    winner from the score `prepare` returned.
    """

    def __init__(self, scorer, problem: MappingProblem):
        self.scorer = scorer
        self.problem = problem
        self.mode = scorer.mode
        self._score = None

    def prepare(self, problem: MappingProblem):
        if problem is not self.problem:
            return self.scorer.prepare(problem)
        if self._score is None:
            self._score = self.scorer.prepare(problem)
        return self._score


def coherence_experiment(dataset: Dataset, m_prime: int, trials_per_problem: int,
                         seed: int, config: Config,
                         index: Optional[CorpusIndex] = None,
                         tie_policy: str = "random") -> CoherenceReport:
    """Compare solving random subproblems in isolation vs inside the whole.

    For each problem, `trials_per_problem` subsets of size m_prime are
    drawn (uniformly over the index subsets, without replacement inside
    a subset) and their intended images taken as the reduced target
    side. Internal mode solves only the reduced problem; total mode
    solves the full problem under the setwise subset constraint and is
    scored by the subset's hits in its winner. Accuracy is measured on
    the subproblem either way. m_prime == m degenerates to a single
    full-size trial; larger m_prime skips the problem with a warning.
    """
    if m_prime < 2:
        raise ConfigError(f"m_prime must be >= 2, got {m_prime}")
    if trials_per_problem < 1:
        raise ConfigError(f"trials must be >= 1, got {trials_per_problem}")
    config.validate()
    if config.mode not in ("relational", "attributional"):
        raise ConfigError(f"coherence experiment supports relational or "
                          f"attributional mode, not {config.mode!r}")
    problems = [p for p in dataset if p.intended]
    if len(problems) != len(dataset):
        raise DataError("coherence experiment needs intended mappings")
    space, diag = build_space_for_problems(index, problems, config)
    diag.update(mode=config.mode, seed=seed, m_prime=m_prime, tie_policy=tie_policy)
    rows = []
    for problem in problems:
        if m_prime > problem.m:
            logger.warning("skipping %s: m_prime=%d exceeds m=%d",
                           problem.id, m_prime, problem.m)
            continue
        rng = random.Random(f"{seed}:{problem.id}")
        trials = 1 if m_prime == problem.m else trials_per_problem
        internal_scores, total_scores = [], []
        scorer = _PreparedOnce(make_scorer(config, problem, space, index), problem)
        gold = problem.intended_mapping().perm
        for trial in range(trials):
            indices = rng.sample(range(problem.m), m_prime)
            sub = problem.restricted(indices)
            internal = solve(sub, scorer, f"{seed}:{trial}", tie_policy=tie_policy,
                             m_max=config.m_max)
            internal_scores.append(accuracy(internal.mapping, sub.intended_mapping()))
            total = solve_constrained(problem, sub.intended, scorer, f"{seed}:{trial}",
                                      tie_policy=tie_policy, m_max=config.m_max)
            hits = sum(total.mapping.perm[i] == gold[i] for i in indices)
            total_scores.append(100.0 * hits / m_prime)
        rows.append(CoherenceRow(
            problem_id=problem.id, trials=trials,
            internal_accuracy=mean(internal_scores),
            total_accuracy=mean(total_scores)))
    if not rows:
        raise DataError("coherence experiment: every problem was skipped")
    diag["config"] = config.summary()
    diag["subproblems"] = sum(r.trials for r in rows)
    return CoherenceReport(
        rows=rows,
        internal_average=mean([r.internal_accuracy for r in rows]),
        total_average=mean([r.total_accuracy for r in rows]),
        metadata=diag)


# --- sensitivity sweep ------------------------------------------------------

@dataclass
class SweepRow:
    label: str
    k: int
    t: int
    n_c: int
    accuracy: float


@dataclass
class SweepReport:
    rows: list[SweepRow]
    metadata: dict = field(default_factory=dict)

    def to_tsv(self) -> str:
        lines = ["experiment\tk\tt\tn_c\taccuracy"]
        for r in self.rows:
            lines.append(f"{r.label}\t{r.k}\t{r.t}\t{r.n_c}\t{r.accuracy:.1f}")
        return "\n".join(lines) + "\n"

    def sidecar(self) -> str:
        payload = dict(self.metadata)
        payload["rows"] = [{"label": r.label, "k": r.k, "t": r.t, "n_c": r.n_c,
                            "accuracy": r.accuracy} for r in self.rows]
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def sensitivity_sweep(dataset: Dataset, config: Config, index: CorpusIndex,
                      k_grid: Optional[list[int]] = None,
                      t_grid: Optional[list[int]] = None,
                      include_no_svd: bool = False,
                      transform_grid: Optional[list[str]] = None) -> SweepReport:
    """One relational batch run per grid point, mining the corpus only once."""
    config.validate()
    if config.mode != "relational":
        raise ConfigError(f"a sweep is relational; it cannot run mode {config.mode!r}")
    problems = list(dataset)
    pairs, stats = mine_for_problems(
        index, problems, max_phrases_per_pair=config.max_phrases_per_pair)

    points = [("varying k", replace(config, k=k)) for k in k_grid or []]
    points += [("varying t", replace(config, t=t)) for t in t_grid or []]
    if include_no_svd:
        points.append(("dropping SVD", replace(config, svd=False)))
    points += [(transform, replace(config, transform=transform))
               for transform in transform_grid or []]

    rows = []
    for label, point in points or [("baseline", config)]:
        space, diag = space_from_stats(pairs, stats, point)
        accs = [accuracy(solve_one(p, point, space, index).mapping, p.intended_mapping())
                for p in problems]
        rows.append(SweepRow(
            label=label, k=point.k if point.svd else diag["n_r"], t=point.t,
            n_c=diag["n_c"], accuracy=mean(accs) if accs else 0.0))
    return SweepReport(rows=rows, metadata={
        "config": config.summary(), "corpus_digest": index.digest,
        "n_pairs": len(pairs)})
