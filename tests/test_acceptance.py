"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line
per criterion.
"""

import time

import numpy as np
import pytest

from oracles import (PhraseOccurrence, as_csr, as_scipy, brute_force_best,
                     enumerate_pattern_strings, generate_patterns, hybrid_probabilities,
                     ppmi_cell)
from relmap.attributes import TableSimilarity
from relmap.config import Config
from relmap.corpus import corpus_files, ingest
from relmap.dataset import Dataset, builtin_dataset, mean
from relmap.evaluation import (accuracy, coherence_experiment, run_batch)
from relmap.patterns import build_pair_list
from relmap.planted import PlantedConfig, generate_planted_corpus
from relmap.problems import MappingProblem
from relmap.solver import (AttributionalScorer, HybridScorer, RelationalScorer,
                           solve, solve_constrained)
from relmap.space import transform_ppmic, truncated_svd
from relmap.terms import TermPair
from test_solver import SimTable

from conftest import assignment, problem_by_id


def report(line):
    print(f"PASS  {line}")


def make_problem(m, pid="p"):
    return MappingProblem.build(id=pid,
                                source=[f"s{i}" for i in range(m)],
                                target=[f"t{i}" for i in range(m)],
                                intended={f"s{i}": f"t{i}" for i in range(m)})


def random_relational_table(problem, rng):
    values = {}
    src, tgt = problem.source, problem.target
    m = problem.m
    for i in range(m):
        for j in range(i + 1, m):
            for a in range(m):
                for b in range(m):
                    if a != b:
                        values[(f"{src[i].text}:{src[j].text}",
                                f"{tgt[a].text}:{tgt[b].text}")] = \
                            float(rng.integers(0, 1000))
    return SimTable(values)


def random_attributional_provider(problem, rng):
    return TableSimilarity({(s.text, t.text): float(rng.integers(0, 1000))
                            for s in problem.source for t in problem.target})


def test_solver_oracle_equivalence():
    """100 random similarity tables at each m in 2..6, exact agreement."""
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    for m in range(2, 7):
        problem = make_problem(m)
        for trial in range(100):
            if trial % 2 == 0:
                scorer = RelationalScorer(random_relational_table(problem, rng))
            else:
                scorer = AttributionalScorer(
                    random_attributional_provider(problem, rng))
            result = solve(problem, scorer, seed=trial)
            best, tied = brute_force_best(m, scorer.prepare(problem))
            assert result.score == best, (m, trial)
            assert result.mapping.perm in tied, (m, trial)
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report(f"solver-oracle equivalence: {checked} solves match brute force "
           f"exactly in {elapsed:.1f}s")


def test_ppmic_conformance():
    """Random 20x50 integer matrices match the scalar oracle to 1e-9."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        F = rng.integers(0, 6, size=(20, 50)).astype(float)
        if F.sum() == 0:
            F[0, 0] = 1.0
        out = as_scipy(transform_ppmic(as_csr(F))).toarray()
        rows = F.tolist()
        for i in range(20):
            for j in range(50):
                delta = abs(out[i][j] - ppmi_cell(rows, i, j))
                worst = max(worst, delta)
                assert delta <= 1e-9
        assert np.count_nonzero(out) <= np.count_nonzero(F)
    uniform = transform_ppmic(as_csr(np.full((20, 50), 3.0)))
    assert uniform.nnz == 0
    report(f"ppmic conformance: 50 matrices, max |delta| = {worst:.2e}, "
           f"nnz never grew, uniform -> all zeros")


def test_svd_contracts():
    """Orthonormality, exact full-rank reconstruction, best-rank-k optimality."""
    rng = np.random.default_rng(11)
    # orthonormality and k >= rank reconstruction
    for _ in range(10):
        low_rank = (rng.standard_normal((30, 4)) @ rng.standard_normal((4, 80)))
        u, s = truncated_svd(as_csr(low_rank), 10)
        nonzero = s > 1e-12
        gram = u[:, nonzero].T @ u[:, nonzero]
        assert np.linalg.norm(gram - np.eye(int(nonzero.sum()))) <= 1e-8
        rel_err = (np.linalg.norm(u @ u.T @ low_rank - low_rank)
                   / np.linalg.norm(low_rank))
        assert rel_err <= 1e-8
    # best-rank-k beats 50 random rank-k competitors on 20 random matrices
    k = 5
    for _ in range(20):
        X = rng.standard_normal((30, 80))
        u, s = truncated_svd(as_csr(X), k)
        ours = np.linalg.norm(u @ u.T @ X - X)
        for _ in range(50):
            B = rng.standard_normal((30, k)) @ rng.standard_normal((k, 80))
            assert ours <= np.linalg.norm(B - X) + 1e-8
    report("svd contracts: orthonormal factors, rank-exact reconstruction, "
           "beat 20x50 random rank-k competitors")


def test_pattern_combinatorics():
    """2^(n+1) patterns for distinct remaining words; worked example = 16."""
    rng = np.random.default_rng(3)
    vocab = [f"word{i}" for i in range(1000)]
    for trial in range(200):
        pre = int(rng.integers(0, 2))
        mid = int(rng.integers(0, 4))
        post = int(rng.integers(0, 2))
        x_len = int(rng.integers(1, 3))
        y_len = int(rng.integers(1, 3))
        n = pre + mid + post
        fillers = list(rng.choice(vocab, size=n, replace=False))
        x_toks = [f"x{trial}a", f"x{trial}b"][:x_len]
        y_toks = [f"y{trial}a", f"y{trial}b"][:y_len]
        window = tuple(fillers[:pre] + x_toks + fillers[pre:pre + mid]
                       + y_toks + fillers[pre + mid:])
        xs = (pre, pre + x_len)
        ys = (pre + x_len + mid, pre + x_len + mid + y_len)
        occ = PhraseOccurrence(doc=0, start=0, window=window, x_span=xs,
                               y_span=ys, pre=pre, mid=mid, post=post)
        pair = TermPair.parse(" ".join(x_toks), " ".join(y_toks))
        pats = generate_patterns(occ, pair)
        assert len(pats) == 2 ** (n + 1), (trial, window)
        assert ({" ".join(p) for p in pats} ==
                enumerate_pattern_strings(window, xs, ys))
    worked = PhraseOccurrence(
        doc=0, start=0,
        window=("a", "sun", "centered", "solar", "system", "illustrates"),
        x_span=(1, 2), y_span=(3, 5), pre=1, mid=1, post=1)
    pats = generate_patterns(worked, TermPair.parse("sun", "solar system"))
    texts = {" ".join(p) for p in pats}
    assert len(pats) == 16
    assert "a X centered Y illustrates" in texts
    report("pattern combinatorics: 200 random phrases hit 2^(n+1) exactly; "
           "worked example yields 16 patterns")


def test_planted_end_to_end(tmp_path):
    """Five planted 5-term problems recovered at 100% from ~1e5 tokens."""
    started = time.perf_counter()
    data = generate_planted_corpus(tmp_path / "corpus",
                                   PlantedConfig(n_problems=5, m=5,
                                                 target_tokens=100_000,
                                                 seed=2024))
    index = ingest(corpus_files(data.corpus_dir))
    assert 90_000 <= index.total_tokens <= 130_000
    reportout = run_batch(Dataset(data.problems), Config(mode="relational"),
                          index)
    elapsed = time.perf_counter() - started
    assert reportout.average == 100.0
    assert all(row.accuracy == 100.0 for row in reportout.rows)
    assert len(reportout.rows) == 5
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(f"planted end-to-end: 5/5 problems at 100% from "
           f"{index.total_tokens} tokens in {elapsed:.1f}s")


def test_coherence_direction(planted_star):
    """Total coherence >= internal on planted 7-term problems, m'=3."""
    data, index = planted_star
    rel = coherence_experiment(Dataset(data.problems), m_prime=3,
                               trials_per_problem=10,
                               config=Config(mode="relational", seed=9), index=index)
    assert rel.total_average >= rel.internal_average
    assert sum(r.trials for r in rel.rows) == 10 * len(data.problems)
    # attributional solving cannot benefit: with a deterministic
    # tie-break the total-mode sub-mapping equals the internal one
    rng = np.random.default_rng(40)
    for problem in data.problems:
        provider = random_attributional_provider(problem, rng)
        scorer = AttributionalScorer(provider)
        for trial in range(10):
            subset = sorted(rng.choice(problem.m, size=3, replace=False))
            fixed = {problem.source[i].text:
                     problem.intended[problem.source[i].text] for i in subset}
            total = solve_constrained(problem, fixed, scorer, tie_policy="first")
            internal = solve(problem.restricted(subset), scorer, tie_policy="first")
            assert {s: t for s, t in assignment(total).items() if s in fixed} == \
                assignment(internal)
    report(f"coherence direction: total {rel.total_average:.1f} >= "
           f"internal {rel.internal_average:.1f}; attributional total == "
           f"internal under deterministic ties")


def test_dataset_fidelity():
    """Builtin problems match the published tables."""
    ds = builtin_dataset()
    assert len(ds) == 20
    sizes = {"A1": 7, "A2": 8, "A3": 8, "A4": 8, "A5": 7, "A6": 7, "A7": 7,
             "A8": 8, "A9": 9, "A10": 5, "M1": 7, "M2": 7, "M3": 6, "M4": 7,
             "M5": 6, "M6": 7, "M7": 7, "M8": 5, "M9": 8, "M10": 6}
    for pid, m in sizes.items():
        assert problem_by_id(ds, pid).m == m
    for p in ds:
        for src, tgt in p.intended.items():
            assert p.pos_tags[src] == p.pos_tags[tgt]
    human = mean([row.agreement for row in run_batch(ds, Config(mode="attributional")).rows])
    assert human == pytest.approx(87.6, abs=0.1)
    assert len(build_pair_list(list(ds))) == 1694
    report(f"dataset fidelity: 20 problems, sizes match, POS-consistent "
           f"intended mappings, human average {human:.2f}, 1694 pairs")


def test_hybrid_normalization():
    """Probabilities sum to one; uniform relational field defers to attributional."""
    rng = np.random.default_rng(77)
    for trial in range(30):
        m = int(rng.integers(2, 6))
        problem = make_problem(m, pid=f"h{trial}")
        table = random_relational_table(problem, rng)
        provider = random_attributional_provider(problem, rng)
        perms, prob_r, prob_a = hybrid_probabilities(problem, table, provider)
        assert abs(sum(prob_r) - 1.0) <= 1e-9
        assert abs(sum(prob_a) - 1.0) <= 1e-9
    for trial in range(20):
        m = int(rng.integers(2, 6))
        problem = make_problem(m, pid=f"u{trial}")
        provider = random_attributional_provider(problem, rng)
        hybrid = solve(problem, HybridScorer(SimTable({}), provider, "add"),
                       seed=trial)
        att_best, att_tied = brute_force_best(
            m, AttributionalScorer(provider).prepare(problem))
        assert hybrid.mapping.perm in att_tied
    report("hybrid normalization: both channels sum to 1 +/- 1e-9; uniform "
           "relational field reduces hybrid-add to attributional ranking")


def test_accuracy_arithmetic():
    """5-of-7 displays as 71.4; no solver output is exactly m-1 correct."""
    from relmap.problems import Mapping

    two_wrong = accuracy(Mapping(problem_id="x", perm=(0, 1, 2, 3, 4, 6, 5)),
                         Mapping(problem_id="x", perm=(0, 1, 2, 3, 4, 5, 6)))
    assert abs(round(two_wrong, 1) - 71.4) <= 0.05
    rng = np.random.default_rng(13)
    for trial in range(100):
        m = int(rng.integers(2, 7))
        problem = make_problem(m, pid=f"a{trial}")
        if trial % 2 == 0:
            scorer = RelationalScorer(random_relational_table(problem, rng))
        else:
            scorer = AttributionalScorer(
                random_attributional_provider(problem, rng))
        result = solve(problem, scorer, seed=trial)
        acc = accuracy(result.mapping, problem.intended_mapping())
        hits = round(acc * m / 100)
        assert hits != m - 1
    report(f"accuracy arithmetic: 2-wrong-of-7 -> {two_wrong:.5f} (displays "
           f"71.4); no m-1-correct outcome in 100 solver runs")
