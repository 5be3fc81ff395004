import dataclasses
import math
import random

import pytest

from relmap.config import Config
from relmap.corpus import ingest
from relmap.dataset import Dataset, builtin_dataset, mean
from relmap.errors import ConfigError, DataError
from relmap import solver as solver_module
from relmap.evaluation import (accuracy, coherence_experiment, make_scorer, run_batch,
                               sensitivity_sweep, solve_batch)
from relmap.problems import Mapping
from relmap.solver import RelationalScorer, solve, solve_constrained

from conftest import assignment, problem_by_id


def mapping(pid, perm):
    return Mapping(problem_id=pid, perm=tuple(perm))


# --- accuracy ---------------------------------------------------------------

def test_accuracy_perfect():
    assert accuracy(mapping("p", (0, 1, 2)), mapping("p", (0, 1, 2))) == 100.0


def test_accuracy_two_wrong_of_seven():
    predicted = mapping("p", (0, 1, 2, 3, 4, 6, 5))
    intended = mapping("p", (0, 1, 2, 3, 4, 5, 6))
    value = accuracy(predicted, intended)
    assert value == pytest.approx(5 / 7 * 100, abs=1e-9)
    assert round(value, 1) == 71.4


def test_accuracy_two_wrong_of_five():
    predicted = mapping("p", (1, 0, 2, 3, 4))
    intended = mapping("p", (0, 1, 2, 3, 4))
    assert accuracy(predicted, intended) == 60.0


def test_accuracy_rejects_mismatched_problems():
    with pytest.raises(DataError):
        accuracy(mapping("p", (0, 1)), mapping("q", (0, 1)))


def test_accuracy_invariant_under_relabeling():
    # permuting the term order consistently leaves accuracy unchanged
    rng = random.Random(0)
    for _ in range(50):
        m = rng.randrange(3, 8)
        predicted = list(range(m))
        rng.shuffle(predicted)
        intended = list(range(m))
        rng.shuffle(intended)
        base = accuracy(mapping("p", predicted), mapping("p", intended))
        relabel = list(range(m))
        rng.shuffle(relabel)
        inverse = [0] * m
        for i, v in enumerate(relabel):
            inverse[v] = i
        pred2 = [relabel[predicted[inverse[i]]] for i in range(m)]
        int2 = [relabel[intended[inverse[i]]] for i in range(m)]
        assert accuracy(mapping("p", pred2), mapping("p", int2)) == \
            pytest.approx(base, abs=1e-9)


def test_accuracy_parity_gap():
    # two distinct bijections can never agree in exactly m-1 places
    rng = random.Random(1)
    for _ in range(200):
        m = rng.randrange(2, 8)
        a = list(range(m))
        b = list(range(m))
        rng.shuffle(a)
        rng.shuffle(b)
        hits = sum(1 for x, y in zip(a, b) if x == y)
        assert hits != m - 1


# --- batch runs -------------------------------------------------------------

def test_attributional_batch_on_builtin_is_deterministic():
    cfg = Config(mode="attributional", provider="pos", seed=3)
    r1 = run_batch(builtin_dataset(), cfg)
    r2 = run_batch(builtin_dataset(), cfg)
    assert r1.to_tsv() == r2.to_tsv()
    assert r1.sidecar() == r2.sidecar()
    assert len(r1.rows) == 20
    assert r1.average == pytest.approx(
        sum(row.accuracy for row in r1.rows) / 20, abs=1e-9)


def test_batch_report_has_split_and_agreement():
    cfg = Config(mode="attributional", provider="pos", seed=0)
    report = run_batch(builtin_dataset(), cfg)
    split = report.split_averages()
    science = [r.accuracy for r in report.rows if r.problem_id.startswith("A")]
    assert split["science"] == pytest.approx(sum(science) / 10, abs=1e-9)
    a1 = next(r for r in report.rows if r.problem_id == "A1")
    assert a1.agreement == pytest.approx(90.9, abs=0.1)


def test_empty_corpus_relational_batch_full_ties(tmp_path):
    index = ingest([])
    cfg = Config(mode="relational", seed=0)
    results, diag = solve_batch(builtin_dataset(), cfg, index)
    assert diag["n_r"] == 0
    for result in results:
        assert result.tie_count == math.factorial(result.problem.m)
        assert result.score == 0.0


def test_empty_corpus_accuracy_matches_random_choice():
    # with no corpus signal every mapping ties, so the expected accuracy
    # is that of a uniformly random bijection: 100/m per problem
    small = Dataset([p for p in builtin_dataset() if p.m == 5])
    index = ingest([])
    expected = sum(100.0 / p.m for p in small) / len(small)
    total = 0.0
    trials = 400
    for seed in range(trials):
        report = run_batch(small, Config(mode="relational", seed=seed), index)
        total += report.average
    observed = total / trials
    # std error of the mean is about 1.5 here; allow 4 sigma
    assert observed == pytest.approx(expected, abs=6.0)


def test_planted_corpus_relational_batch_perfect(planted_all):
    data, index = planted_all
    report = run_batch(Dataset(data.problems), Config(mode="relational"), index)
    assert report.average == 100.0
    assert all(row.accuracy == 100.0 for row in report.rows)


def test_planted_hybrid_modes_stay_perfect(planted_all):
    data, index = planted_all
    for mode in ("hybrid-add", "hybrid-mul"):
        cfg = Config(mode=mode, provider="pos", seed=1)
        report = run_batch(Dataset(data.problems), cfg, index)
        assert report.average == 100.0


def test_relational_mode_requires_corpus():
    with pytest.raises(ConfigError):
        solve_batch(builtin_dataset(), Config(mode="relational"), None)


# --- coherence --------------------------------------------------------------

def test_coherence_degenerate_subset_equal(planted_all):
    data, index = planted_all
    report = coherence_experiment(Dataset(data.problems), m_prime=5,
                                  trials_per_problem=3,
                                  config=Config(mode="relational", seed=0),
                                  index=index)
    # m' == m degenerates to one full-size trial per problem
    assert all(row.trials == 1 for row in report.rows)
    for row in report.rows:
        assert row.internal_accuracy == row.total_accuracy


@pytest.mark.parametrize("trials", [0, -1])
def test_coherence_refuses_no_trials(trials):
    with pytest.raises(ConfigError, match="trials must be >= 1"):
        coherence_experiment(builtin_dataset(), m_prime=3, trials_per_problem=trials,
                             config=Config(mode="attributional", seed=0))


@pytest.mark.parametrize("mode", ["hybrid-add", "hybrid-mul"])
def test_coherence_refuses_hybrid_modes(planted_all, mode):
    data, index = planted_all
    with pytest.raises(ConfigError, match=f"attributional mode, not '{mode}'"):
        coherence_experiment(Dataset(data.problems), m_prime=3, trials_per_problem=1,
                             config=Config(mode=mode, seed=0), index=index)


def test_coherence_skips_oversized_subsets(planted_all, caplog):
    data, index = planted_all
    mixed = Dataset(data.problems[:2])
    with caplog.at_level("WARNING"):
        with pytest.raises(DataError):
            coherence_experiment(mixed, m_prime=6, trials_per_problem=2,
                                 config=Config(mode="relational", seed=0),
                                 index=index)
    assert any("skipping" in rec.message for rec in caplog.records)


def test_coherence_direction_on_star_problems(planted_star):
    data, index = planted_star
    report = coherence_experiment(Dataset(data.problems), m_prime=3,
                                  trials_per_problem=10,
                                  config=Config(mode="relational", seed=5),
                                  index=index)
    assert report.total_average >= report.internal_average
    assert sum(r.trials for r in report.rows) == 10 * len(data.problems)


def test_coherence_attributional_modes_agree(planted_star):
    data, _ = planted_star
    cfg = Config(mode="attributional", provider="pos", seed=2)
    report = coherence_experiment(Dataset(data.problems), m_prime=3,
                                  trials_per_problem=5, config=cfg,
                                  index=None, tie_policy="first")
    for row in report.rows:
        assert row.internal_accuracy == row.total_accuracy


def test_coherence_prepares_each_full_problem_once(planted_star, monkeypatch):
    """Total mode reuses one prepared grid per problem; each trial's reduced
    problem is prepared on its own. The report is the same either way."""
    data, index = planted_star
    dataset, cfg = Dataset(data.problems[:2]), Config(mode="relational", seed=1)
    want = coherence_experiment(dataset, m_prime=3, trials_per_problem=4,
                                config=cfg, index=index)
    prepared = []
    real = RelationalScorer.prepare

    def counting(self, problem):
        prepared.append(problem.id)
        return real(self, problem)

    monkeypatch.setattr(RelationalScorer, "prepare", counting)
    got = coherence_experiment(dataset, m_prime=3, trials_per_problem=4,
                               config=cfg, index=index)
    assert got.to_tsv() == want.to_tsv()
    for problem in dataset:
        assert prepared.count(problem.id) == 1
        assert prepared.count(f"{problem.id}#sub") == 4


def test_coherence_at_full_size_walks_once(monkeypatch):
    """At m' = m one search serves both modes. On a field where every
    mapping ties (one POS tag for every term) it walks once per problem,
    not twice, and each mode draws its tied winner with its own problem
    id, as a solve of the reduced problem and a constrained solve do."""
    problems = [p.restricted(range(5), suffix="m5") for p in builtin_dataset()
                if p.m >= 5][:4]
    problems = [dataclasses.replace(p, pos_tags={t.text: "NN" for t in (*p.source, *p.target)})
                for p in problems]
    cfg = Config(mode="attributional", provider="pos", seed=3)
    want = []
    for problem in problems:
        scorer = make_scorer(cfg, problem, None, None)
        sub = problem.restricted(range(problem.m))
        internal = solve(sub, scorer, f"{cfg.seed}:0").mapping
        total = solve_constrained(problem, sub.intended, scorer, f"{cfg.seed}:0").mapping
        want.append((accuracy(internal, sub.intended_mapping()),
                     accuracy(dataclasses.replace(total, problem_id=sub.id),
                              sub.intended_mapping())))
    walks = []
    real = solver_module._argmax_blocks
    monkeypatch.setattr(solver_module, "_argmax_blocks",
                        lambda *args, **kwargs: walks.append(1) or real(*args, **kwargs))
    report = coherence_experiment(Dataset(problems), m_prime=5, trials_per_problem=3,
                                  config=cfg)
    assert len(walks) == len(problems)
    assert [(r.internal_accuracy, r.total_accuracy) for r in report.rows] == want
    assert any(a != b for a, b in want)


@pytest.mark.parametrize("tie_policy", ["random", "first"])
@pytest.mark.parametrize("m_prime", [2, 3, 5, 6])
def test_coherence_equals_the_public_solves(m_prime, tie_policy):
    """Each row is the mean, over the subsets and seeds coherence draws, of
    `solve` on the reduced problem and of `solve_constrained` on the whole
    one. With one POS tag for every term every mapping ties, so each tied
    winner is drawn, and drawn with its own problem's id."""
    problems = [p.restricted(range(6), suffix="m6") for p in builtin_dataset()
                if p.m >= 6][:5]
    problems = [dataclasses.replace(p, pos_tags={t.text: "NN" for t in (*p.source, *p.target)})
                for p in problems]
    cfg = Config(mode="attributional", provider="pos", seed=4)
    report = coherence_experiment(Dataset(problems), m_prime=m_prime, trials_per_problem=3,
                                  config=cfg, tie_policy=tie_policy)
    want = []
    for problem in problems:
        rng = random.Random(f"{cfg.seed}:{problem.id}")
        scorer = make_scorer(cfg, problem, None, None)
        gold = problem.intended_mapping().perm
        internal, total = [], []
        for trial in range(1 if m_prime == problem.m else 3):
            indices = rng.sample(range(problem.m), m_prime)
            sub = problem.restricted(indices)
            seed = f"{cfg.seed}:{trial}"
            alone = solve(sub, scorer, seed, tie_policy=tie_policy).mapping
            whole = solve_constrained(problem, sub.intended, scorer, seed,
                                      tie_policy=tie_policy).mapping
            internal.append(accuracy(alone, sub.intended_mapping()))
            total.append(100.0 * sum(whole.perm[i] == gold[i] for i in indices) / m_prime)
        want.append((problem.id, mean(internal), mean(total)))
    assert [(r.problem_id, r.internal_accuracy, r.total_accuracy) for r in report.rows] == want


def test_coherence_report_layout(planted_star):
    data, index = planted_star
    report = coherence_experiment(Dataset(data.problems[:2]), m_prime=3,
                                  trials_per_problem=2,
                                  config=Config(mode="relational", seed=1),
                                  index=index)
    lines = report.to_tsv().splitlines()
    assert lines[0] == "mapping\ttrials\tinternal\ttotal"
    assert lines[-1].startswith("Average\t")
    assert len(lines) == 2 + 2


# --- sweep ------------------------------------------------------------------

def test_sweep_k_grid_rows(planted_dataset, planted_all):
    _, index = planted_all
    cfg = Config(mode="relational")
    report = sensitivity_sweep(planted_dataset, cfg, index,
                               k_grid=list(range(50, 401, 50)))
    assert len(report.rows) == 8
    assert [r.k for r in report.rows] == list(range(50, 401, 50))
    assert all(r.label == "varying k" for r in report.rows)


def test_sweep_t_grid_sets_column_counts(planted_dataset, planted_all):
    _, index = planted_all
    cfg = Config(mode="relational")
    report = sensitivity_sweep(planted_dataset, cfg, index,
                               t_grid=[2, 4, 6])
    n_r = report.rows[0].n_c // 2
    for row, t in zip(report.rows, (2, 4, 6)):
        assert row.t == t
        assert row.n_c == t * n_r


def test_sweep_no_svd_row_labels_k_as_n_r(planted_dataset, planted_all):
    _, index = planted_all
    cfg = Config(mode="relational")
    report = sensitivity_sweep(planted_dataset, cfg, index,
                               include_no_svd=True)
    row = report.rows[0]
    assert row.label == "dropping SVD"
    assert row.k == row.n_c // row.t  # k column shows n_r when SVD is off
    assert row.k > 0 and row.k != cfg.k


def test_sweep_default_is_single_baseline_row(planted_dataset, planted_all):
    _, index = planted_all
    report = sensitivity_sweep(planted_dataset, Config(mode="relational"), index)
    assert len(report.rows) == 1
    assert report.rows[0].label == "baseline"
    assert report.rows[0].k == 300 and report.rows[0].t == 20


def test_sweep_transform_row(planted_dataset, planted_all):
    _, index = planted_all
    report = sensitivity_sweep(planted_dataset, Config(mode="relational"),
                               index, transform_grid=["logentropy"])
    assert report.rows[0].label == "logentropy"
    assert report.rows[0].accuracy == 100.0


def test_sweep_rows_equal_batch_runs(planted_star):
    """Each sweep row is the eval of its own settings: the same accuracy and n_c."""
    data, index = planted_star
    dataset, base = Dataset(data.problems), Config(mode="relational", k=2)
    report = sensitivity_sweep(dataset, base, index, k_grid=[1, 4, 40], t_grid=[1, 5],
                               include_no_svd=True, transform_grid=["logentropy"])
    points = [dict(k=1), dict(k=4), dict(k=40), dict(t=1), dict(t=5), dict(svd=False),
              dict(transform="logentropy")]
    assert len(report.rows) == len(points)
    for row, overrides in zip(report.rows, points):
        batch = run_batch(dataset, dataclasses.replace(base, **overrides), index)
        assert row.accuracy == batch.average, overrides
        assert row.n_c == batch.metadata["n_c"], overrides
    assert len({row.accuracy for row in report.rows}) > 2


def test_sweep_tsv_layout(planted_dataset, planted_all):
    _, index = planted_all
    report = sensitivity_sweep(planted_dataset, Config(mode="relational"),
                               index, k_grid=[10, 20])
    lines = report.to_tsv().splitlines()
    assert lines[0] == "experiment\tk\tt\tn_c\taccuracy"
    assert len(lines) == 3


def test_attributional_pos_keeps_tag_classes_together():
    # with the tag-based provider, sources can only map onto targets of
    # their own tag class whenever the class sizes allow it
    ds = builtin_dataset()
    a1 = problem_by_id(ds, "A1")
    cfg = Config(mode="attributional", provider="pos", seed=0)
    results, _ = solve_batch(Dataset([a1]), cfg)
    mapped = assignment(results[0])
    for src, tgt in mapped.items():
        assert a1.pos_tags[src] == a1.pos_tags[tgt]
    # exact matches outrank everything else
    assert mapped["attracts"] == "attracts"
    assert mapped["revolves"] == "revolves"


def test_coherence_builtin_attributional_subproblem_count():
    cfg = Config(mode="attributional", provider="pos", seed=1)
    report = coherence_experiment(builtin_dataset(), m_prime=3,
                                  trials_per_problem=10, config=cfg)
    assert report.metadata["subproblems"] == 200
    assert len(report.rows) == 20


def test_relational_reports_are_byte_identical(planted_all):
    data, index = planted_all
    cfg = Config(mode="relational", seed=2)
    r1 = run_batch(Dataset(data.problems), cfg, index)
    r2 = run_batch(Dataset(data.problems), cfg, index)
    assert r1.to_tsv() == r2.to_tsv()
    assert r1.sidecar() == r2.sidecar()


def test_config_defaults_are_baseline():
    cfg = Config()
    assert (cfg.k, cfg.t, cfg.transform, cfg.svd) == (300, 20, "ppmic", True)
    assert cfg.seed == 0 and cfg.pmi_window == 10 and cfg.m_max == 10


A1_CORPUS = """
the sun attracts the planet and the planet revolves around the sun .
all mass attracts other mass , as gravity attracts everything here .
a sun centered solar system illustrates how each planet revolves quietly .
the nucleus attracts the electron and the electron revolves around it .
charge attracts opposite charge , just as electromagnetism attracts matter .
an atom has a nucleus and every electron revolves around that nucleus .
the projectile follows a trajectory while the planet follows an orbit .
gravity attracts the projectile toward earth and gravity attracts a planet .
"""


def test_builtin_relational_on_tiny_real_corpus(tmp_path):
    # most of the pair list is pruned; the survivors still build a space
    (tmp_path / "a1.txt").write_text(A1_CORPUS, encoding="utf-8")
    from relmap.corpus import corpus_files

    index = ingest(corpus_files(tmp_path))
    subset = Dataset([problem_by_id(builtin_dataset(), "A1"),
                      problem_by_id(builtin_dataset(), "A6")])
    cfg = Config(mode="relational", seed=0)
    report = run_batch(subset, cfg, index)
    assert 0 < report.metadata["n_r"] < report.metadata["n_pairs"]
    assert report.metadata["n_c"] > 0
    assert len(report.rows) == 2
    for row in report.rows:
        assert 0.0 <= row.accuracy <= 100.0
    # multiword retrieval really happened: sun:solar system has a row
    from relmap.evaluation import build_space_for_problems
    space, _ = build_space_for_problems(index, list(subset), cfg)
    from relmap.terms import TermPair
    assert TermPair.parse("sun", "solar system") in space.row_index
