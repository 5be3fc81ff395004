import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from relmap import evaluation, space
from relmap.cli import main
from relmap.corpus import corpus_digest, corpus_files, save_index
from relmap.config import MODES, Config, load_config_file
from relmap.dataset import Dataset, dump_problems, load_problems
from relmap.evaluation import coherence_experiment, solve_batch

from conftest import index_token_lists


@pytest.fixture()
def planted_paths(planted_all, tmp_path):
    data, _ = planted_all
    problems = tmp_path / "problems.json"
    dump_problems(Dataset(data.problems), problems)
    return str(data.corpus_dir), str(problems)


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "relmap" in capsys.readouterr().out


def test_unknown_flag_is_usage_error(capsys):
    assert main(["solve", "--builtin", "--bogus"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_missing_problem_source_is_usage_error(capsys):
    assert main(["eval", "--mode", "attributional", "--provider", "pos"]) == 1


def test_index_command_caches_and_hits(planted_all, planted_paths, tmp_path, capsys):
    _, index = planted_all
    corpus, _ = planted_paths
    cache = tmp_path / "cache"
    assert main(["index", "--corpus", corpus, "--cache", str(cache)]) == 0
    indexed, counts = capsys.readouterr().out.splitlines()
    [path] = cache.iterdir()
    n_files = len(list(Path(corpus).glob("*.txt")))
    assert indexed == f"indexed {n_files} files into {path}"
    assert counts == (f"documents={n_files} tokens={index.total_tokens} "
                      f"digest={index.digest[:16]}")
    assert main(["index", "--corpus", corpus, "--cache", str(cache)]) == 0
    assert capsys.readouterr().out.splitlines() == [f"cache hit: {path}", counts]


def test_eval_from_cache_matches_uncached(planted_paths, tmp_path):
    corpus, problems = planted_paths
    cache = str(tmp_path / "cache")
    assert main(["index", "--corpus", corpus, "--cache", cache]) == 0
    outputs = []
    for name, extra in (("cached", ["--cache", cache]), ("plain", [])):
        report = tmp_path / f"{name}.tsv"
        assert main(["eval", problems, "--mode", "relational", "--corpus", corpus,
                     *extra, "--report", str(report)]) == 0
        sidecar = Path(str(report) + ".json").read_text(encoding="utf-8")
        outputs.append((report.read_bytes(), sidecar))
    (cached_tsv, cached_json), (plain_tsv, plain_json) = outputs
    assert cached_tsv == plain_tsv
    assert cached_json == plain_json


def test_eval_reports_the_same_bytes_wherever_the_corpus_lies(planted_paths, tmp_path):
    """The sidecar names the corpus by its digest, so a copy at another path
    reports the same TSV and sidecar byte for byte."""
    corpus, problems = planted_paths
    moved = tmp_path / "elsewhere" / "corpus"
    shutil.copytree(corpus, moved)
    outputs = []
    for where, report in ((corpus, tmp_path / "here.tsv"), (moved, tmp_path / "moved.tsv")):
        assert main(["eval", problems, "--mode", "relational", "--corpus", str(where),
                     "--report", str(report)]) == 0
        outputs.append((report.read_bytes(), Path(f"{report}.json").read_bytes()))
    assert outputs[0] == outputs[1]


def test_byte_order_marks_of_a_corpus_are_not_text(planted_paths, tmp_path):
    """Each file starts with two terms of a problem, after a BOM in one copy:
    both copies count the same co-occurrences, so they solve to the same bytes."""
    corpus, problems = planted_paths
    x, y = (t.text for t in next(iter(load_problems(problems))).source[:2])
    head = f"{x} {y} ".encode("utf-8")
    outputs = []
    for name, mark in (("plain", b""), ("marked", b"\xef\xbb\xbf")):
        shutil.copytree(corpus, tmp_path / name)
        for path in (tmp_path / name).rglob("*.txt"):
            path.write_bytes(mark + head + path.read_bytes())
        out = tmp_path / f"{name}.txt"
        assert main(["solve", problems, "--mode", "attributional", "--provider", "pmi-ir",
                     "--corpus", str(tmp_path / name), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_index_missing_corpus_dir(tmp_path, capsys):
    assert main(["index", "--corpus", str(tmp_path / "none"),
                 "--cache", str(tmp_path / "cache")]) == 1


def test_index_empty_dir_warns_but_succeeds(tmp_path, caplog):
    empty = tmp_path / "empty"
    empty.mkdir()
    with caplog.at_level("WARNING"):
        assert main(["index", "--corpus", str(empty),
                     "--cache", str(tmp_path / "cache")]) == 0
    assert any("no .txt files" in rec.message for rec in caplog.records)


def test_index_non_utf8_file_is_data_error(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "bad.txt").write_bytes(b"\xff\xfebroken")
    assert main(["index", "--corpus", str(corpus),
                 "--cache", str(tmp_path / "cache")]) == 2
    assert "bad.txt" in capsys.readouterr().err


def test_solve_deterministic_output_bytes(planted_paths, tmp_path):
    corpus, problems = planted_paths
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    args = ["solve", problems, "--mode", "relational", "--corpus", corpus,
            "--seed", "7"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert "\t->\t" in text
    assert '"mode": "relational"' in text


def test_solve_respects_no_svd(planted_paths, tmp_path):
    corpus, problems = planted_paths
    out = tmp_path / "out.txt"
    assert main(["solve", problems, "--mode", "relational", "--corpus", corpus,
                 "--no-svd", "--out", str(out)]) == 0
    assert out.exists()


def test_solve_budget_refusal_is_per_problem(tmp_path, capsys):
    problems = tmp_path / "problems.json"
    problems.write_text(json.dumps([
        {"id": "small", "source": ["a", "b"], "target": ["c", "d"]},
        {"id": "big", "source": [f"s{i}" for i in range(5)],
         "target": [f"t{i}" for i in range(5)]},
    ]), encoding="utf-8")
    out = tmp_path / "out.txt"
    code = main(["solve", str(problems), "--mode", "attributional",
                 "--provider", "pos", "--m-max", "3", "--out", str(out)])
    assert code == 3
    text = out.read_text()
    assert "refused" in text and "big" in text
    assert "a\t->\t" in text  # the small problem was still solved


def test_solve_external_table_plus_pos(tmp_path):
    problems = tmp_path / "problems.json"
    problems.write_text(json.dumps({
        "id": "P", "source": ["sun", "planet", "orbits"],
        "target": ["nucleus", "electron", "circles"],
        "pos": {"sun": "NN", "planet": "NN", "orbits": "VBZ",
                "nucleus": "NN", "electron": "NN", "circles": "VBZ"}}), encoding="utf-8")
    table = tmp_path / "table.tsv"
    # alone, the table would send sun to circles (5.0 + 1.5 against 2.0 + 1.5)
    table.write_text("sun\tnucleus\t2.0\nplanet\telectron\t1.5\nsun\tcircles\t5.0\n",
                     encoding="utf-8")
    provider = f"external:{table}+pos"
    out = tmp_path / "out.txt"
    assert main(["solve", str(problems), "--mode", "attributional",
                 "--provider", provider, "--out", str(out)]) == 0
    assert out.read_text().splitlines()[:3] == [
        "sun\t->\tnucleus", "planet\t->\telectron", "orbits\t->\tcircles"]
    [result], _ = solve_batch(load_problems(problems),
                              Config(mode="attributional", provider=provider))
    # each term is the table's value plus the POS tag match (10.0)
    assert result.breakdown == [("sun -> nucleus", 2.0 + 10.0),
                                ("planet -> electron", 1.5 + 10.0),
                                ("orbits -> circles", 0.0 + 10.0)]


def test_eval_builtin_pos_report(tmp_path):
    report = tmp_path / "report.tsv"
    assert main(["eval", "--builtin", "--mode", "attributional",
                 "--provider", "pos", "--report", str(report)]) == 0
    lines = report.read_text().splitlines()
    assert lines[0].startswith("mapping\t")
    assert len(lines) == 22  # header + 20 problems + average
    assert lines[-1].startswith("Average\t")
    sidecar = json.loads((tmp_path / "report.tsv.json").read_text())
    assert len(sidecar["rows"]) == 20
    assert sidecar["config"]["provider"] == "pos"


def test_eval_relational_mode_requires_corpus(capsys):
    assert main(["eval", "--builtin", "--mode", "relational"]) == 1
    assert "corpus" in capsys.readouterr().err
    for argv in (["solve", "--builtin", "--mode", "hybrid-add"], ["sweep", "--builtin"]):
        assert main(argv) == 1
        assert "needs --corpus" in capsys.readouterr().err


def test_eval_planted_relational_hundred(planted_paths, tmp_path):
    corpus, problems = planted_paths
    report = tmp_path / "r.tsv"
    assert main(["eval", problems, "--mode", "relational",
                 "--corpus", corpus, "--cache", str(tmp_path / "cache"),
                 "--report", str(report)]) == 0
    assert report.read_text().splitlines()[-1] == "Average\t\t\t100.0\t"


def test_coherence_command(planted_star, tmp_path):
    data, _ = planted_star
    problems = tmp_path / "problems.json"
    dump_problems(Dataset(data.problems), problems)
    report = tmp_path / "coh.tsv"
    assert main(["coherence", str(problems), "--mode", "relational",
                 "--corpus", str(data.corpus_dir), "--m-prime", "3",
                 "--trials", "10", "--seed", "1",
                 "--report", str(report)]) == 0
    sidecar = json.loads((tmp_path / "coh.tsv.json").read_text())
    assert sidecar["subproblems"] == 10 * len(data.problems)
    lines = report.read_text().splitlines()
    assert len(lines) == 1 + len(data.problems) + 1


def test_coherence_seed_is_the_configs(planted_star, tmp_path):
    """The library run seeded by its Config writes what `--seed` writes."""
    data, index = planted_star
    problems = tmp_path / "problems.json"
    dump_problems(Dataset(data.problems), problems)
    report = tmp_path / "coh.tsv"
    assert main(["coherence", str(problems), "--mode", "relational",
                 "--corpus", str(data.corpus_dir), "--trials", "3", "--seed", "5",
                 "--report", str(report)]) == 0
    got = coherence_experiment(Dataset(data.problems), 3, 3,
                               Config(mode="relational", seed=5), index)
    sidecar = json.loads(got.sidecar())
    assert sidecar["seed"] == sidecar["config"]["seed"] == 5
    assert got.to_tsv() == report.read_text(encoding="utf-8")
    assert got.sidecar() == Path(f"{report}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_coherence_without_trials_is_data_error(trials, capsys):
    assert main(["coherence", "--builtin", "--mode", "attributional",
                 "--trials", trials]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: trials must be >= 1"), err


def test_malformed_problem_file_is_data_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"id": "P", "source": "sun", "target": ["a", "b"]}),
                    encoding="utf-8")
    assert main(["solve", str(path), "--mode", "attributional"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bad.json" in err, err


@pytest.mark.parametrize("command", ["solve", "eval", "index"])
def test_unwritable_output_path_is_data_error(tmp_path, capsys, command):
    """An --out, --report or --cache path under a plain file is a data
    error (exit 2) naming the path, not a traceback."""
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    target = str(blocker / "x")
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.txt").write_text("the sun warms the planet", encoding="utf-8")
    argv = {"solve": ["solve", "--builtin", "--mode", "attributional", "--out", target],
            "eval": ["eval", "--builtin", "--mode", "attributional", "--report", target],
            "index": ["index", "--corpus", str(corpus), "--cache", target]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {target}"), err


@pytest.mark.parametrize("mode", MODES)
def test_unknown_provider_is_refused_before_the_corpus(tmp_path, capsys, mode):
    """The provider spec is checked with the config, in every mode: a
    missing corpus directory is never reached."""
    assert main(["eval", "--builtin", "--mode", mode, "--provider", "pos+bogus",
                 "--corpus", str(tmp_path / "none")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown provider 'bogus'"), err


def test_duplicate_problem_id_is_data_error(planted_paths, tmp_path, capsys):
    """Two problems with one id would share a sidecar tie count and the
    coherence subsets; the file is refused before any work."""
    corpus, problems = planted_paths
    entries = json.loads(Path(problems).read_text(encoding="utf-8"))
    path = tmp_path / "twice.json"
    path.write_text(json.dumps([entries[0], entries[0]]), encoding="utf-8")
    assert main(["eval", str(path), "--corpus", corpus, "--mode", "relational",
                 "--report", str(tmp_path / "r.tsv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "twice.json" in err and repr(entries[0]["id"]) in err, err
    assert not (tmp_path / "r.tsv").exists()


def test_sweep_k_range_rows(planted_paths, tmp_path):
    corpus, problems = planted_paths
    report = tmp_path / "sweep.tsv"
    assert main(["sweep", problems, "--corpus", corpus,
                 "--k", "50:400:50", "--report", str(report)]) == 0
    lines = report.read_text().splitlines()
    assert lines[0] == "experiment\tk\tt\tn_c\taccuracy"
    assert len(lines) == 1 + 8


def test_sweep_with_no_svd_row(planted_paths, tmp_path):
    corpus, problems = planted_paths
    report = tmp_path / "sweep.tsv"
    assert main(["sweep", problems, "--corpus", corpus, "--no-svd",
                 "--report", str(report)]) == 0
    lines = report.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("dropping SVD\t")


@pytest.mark.parametrize("flags", [["--mode", "attributional"], ["--provider", "pos"],
                                   ["--pmi-window", "5"]])
def test_sweep_takes_no_solve_flags(planted_paths, flags, capsys):
    corpus, problems = planted_paths
    assert main(["sweep", problems, "--corpus", corpus, "--k", "10", *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: unrecognized arguments: {flags[0]}"), err
    assert main(["sweep", "--help"]) == 0
    assert flags[0] not in capsys.readouterr().out


@pytest.mark.parametrize("flag, grid, message", [("--k", "0:20:10", "k must be >= 1, got 0"),
                                                 ("--t", "0", "t must be >= 1, got 0")])
def test_sweep_point_is_checked_like_a_config(planted_paths, tmp_path, flag, grid, message,
                                              capsys):
    corpus, problems = planted_paths
    report = tmp_path / "sweep.tsv"
    assert main(["sweep", problems, "--corpus", corpus, flag, grid,
                 "--report", str(report)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not report.exists()


def test_sweep_point_is_refused_before_mining(planted_paths, monkeypatch, capsys):
    """A grid point is a `Config`, checked when it is made: before any mining."""
    corpus, problems = planted_paths

    def mine(*args):
        raise AssertionError("mined before every sweep point was checked")

    monkeypatch.setattr(evaluation, "mine_for_problems", mine)
    assert main(["sweep", problems, "--corpus", corpus, "--k", "0"]) == 2
    assert capsys.readouterr().err == "error: k must be >= 1, got 0\n"


@pytest.mark.parametrize("mode", ["attributional", "hybrid-add"])
def test_sweep_refuses_a_configured_non_relational_mode(planted_paths, tmp_path, mode,
                                                        capsys):
    corpus, problems = planted_paths
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"mode = {mode}\n", encoding="utf-8")
    report = tmp_path / "sweep.tsv"
    assert main(["sweep", problems, "--corpus", corpus, "--k", "10",
                 "--config", str(cfg), "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: a sweep is relational"), err
    assert repr(mode) in err
    assert not report.exists()


def test_config_file_and_flag_override(planted_paths, tmp_path):
    corpus, problems = planted_paths
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = attributional\nprovider = pos\nseed = 9\n",
                   encoding="utf-8")
    report = tmp_path / "r.tsv"
    assert main(["eval", problems, "--config", str(cfg),
                 "--report", str(report)]) == 0
    sidecar = json.loads((tmp_path / "r.tsv.json").read_text())
    assert sidecar["config"]["mode"] == "attributional"
    assert sidecar["config"]["seed"] == 9
    # a flag overrides the file
    assert main(["eval", problems, "--config", str(cfg), "--seed", "4",
                 "--report", str(report)]) == 0
    sidecar = json.loads((tmp_path / "r.tsv.json").read_text())
    assert sidecar["config"]["seed"] == 4


def test_config_file_skips_a_leading_byte_order_mark(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfseed = 9\n")
    assert load_config_file(cfg).seed == 9


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 1\n", encoding="utf-8")
    assert main(["eval", "--builtin", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("cap", ["-1", "0"])
def test_config_file_rejects_bad_phrase_cap(planted_paths, tmp_path, capsys, cap):
    corpus, problems = planted_paths
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"max_phrases_per_pair = {cap}\n", encoding="utf-8")
    report = tmp_path / "r.tsv"
    assert main(["eval", problems, "--corpus", corpus, "--mode", "relational",
                 "--config", str(cfg), "--report", str(report)]) == 2
    assert capsys.readouterr().err.startswith("error: max_phrases_per_pair")
    assert not report.exists()


def test_config_file_takes_none_only_for_optional_keys(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = attributional\nmax_phrases_per_pair = none\n"
                   "corpus_dir = none\ncache_dir = none\n", encoding="utf-8")
    assert main(["eval", "--builtin", "--config", str(cfg),
                 "--report", str(tmp_path / "r.tsv")]) == 0
    for key in ("k", "t", "seed", "mode", "svd"):
        cfg.write_text(f"{key} = none\n", encoding="utf-8")
        assert main(["eval", "--builtin", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: "), err
        assert "Traceback" not in err


def test_bad_grid_is_usage_error(planted_paths, capsys):
    corpus, problems = planted_paths
    assert main(["sweep", problems, "--corpus", corpus,
                 "--k", "50:400"]) == 1


def test_decomposition_over_budget_is_a_budget_refusal(planted_paths, monkeypatch, capsys):
    corpus, problems = planted_paths
    monkeypatch.setattr(space, "_DECOMPOSITION_BUDGET_BYTES", 10 ** 6)
    assert main(["eval", problems, "--mode", "relational", "--corpus", corpus]) == 3
    assert "budget refusal: decomposing n_r=" in capsys.readouterr().err


def test_huge_k_is_a_budget_refusal(planted_paths, capsys):
    """k has no upper bound of its own, but the n_r x k factors are counted:
    at k = 10^9 they would take terabytes, so eval is refused by name."""
    corpus, problems = planted_paths
    assert main(["eval", problems, "--mode", "relational", "--corpus", corpus,
                 "--k", "1000000000"]) == 3
    err = capsys.readouterr().err
    assert "budget refusal: decomposing n_r=" in err and "at k=1,000,000,000 " in err


def test_no_svd_over_budget_is_a_budget_refusal(planted_paths, monkeypatch, capsys):
    """Without SVD the space still holds n_r x n_r cells, under the same budget."""
    corpus, problems = planted_paths
    monkeypatch.setattr(space, "_DECOMPOSITION_BUDGET_BYTES", 10 ** 6)
    assert main(["eval", problems, "--mode", "relational", "--corpus", corpus,
                 "--no-svd"]) == 3
    assert "budget refusal: the cosines of n_r=" in capsys.readouterr().err


UNLOADED = ("scipy.sparse.csgraph", "scipy.linalg", "scipy.sparse.linalg")


def test_cached_eval_loads_no_scipy_linalg_or_csgraph(planted_paths, tmp_path):
    """The relation space finds its components and eigenpairs in numpy, so
    importing the CLI and running a cached eval loads none of these modules.
    Importing `scipy.sparse.csgraph` after `relmap.cli` loads 88 more modules
    and adds about 10 MB of peak resident memory."""
    corpus, problems = planted_paths
    cache = str(tmp_path / "cache")
    assert main(["index", "--corpus", corpus, "--cache", cache]) == 0
    argv = ["eval", problems, "--mode", "relational", "--corpus", corpus, "--cache", cache,
            "--report", str(tmp_path / "report.tsv")]
    child = (f"import sys\nimport relmap.cli\nassert relmap.cli.main({argv!r}) == 0\n"
             f"print([m for m in {UNLOADED!r} if m in sys.modules])")
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_every_command_runs_with_scipy_blocked(planted_paths, tmp_path):
    """scipy is a test dependency only: with its import blocked, the CLI
    imports, indexes, evaluates with and without SVD, solves at k = 20 and
    sweeps the log-entropy weighting, and loads no scipy module."""
    corpus, problems = planted_paths
    cache, out = str(tmp_path / "cache"), str(tmp_path / "out")
    commands = [
        ["index", "--corpus", corpus, "--cache", cache],
        ["eval", problems, "--mode", "relational", "--corpus", corpus, "--cache", cache,
         "--report", out + "-eval.tsv"],
        ["eval", problems, "--mode", "relational", "--corpus", corpus, "--cache", cache,
         "--no-svd", "--report", out + "-nosvd.tsv"],
        ["solve", problems, "--mode", "relational", "--corpus", corpus, "--cache", cache,
         "--k", "20", "--out", out + "-k20.txt"],
        ["sweep", problems, "--corpus", corpus, "--cache", cache, "--k", "10:20:10",
         "--t", "10", "--transform", "logentropy", "--report", out + "-sweep.tsv"],
    ]
    child = ("import sys\nsys.modules['scipy'] = None\nimport relmap.cli\n"
             f"for argv in {commands!r}:\n    assert relmap.cli.main(argv) == 0, argv\n"
             "del sys.modules['scipy']\n"
             "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    for suffix in ("-eval.tsv", "-nosvd.tsv", "-k20.txt", "-sweep.tsv"):
        assert Path(out + suffix).stat().st_size > 0


def test_eval_refuses_cache_holding_a_slot_marker(tmp_path, capsys):
    """A cached index whose vocabulary holds "X" is a data error (exit 2)
    naming the cache file: no index `ingest` writes holds one."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.txt").write_text("the sun warms the planet", encoding="utf-8")
    index = index_token_lists([["the", "sun", "X", "the", "planet"]])
    index.digest = corpus_digest(corpus_files(corpus))
    path = save_index(index, tmp_path / "cache")
    assert main(["eval", "--builtin", "--mode", "relational", "--corpus", str(corpus),
                 "--cache", str(tmp_path / "cache")]) == 2
    assert path.name in capsys.readouterr().err


# The names perfbench/tracing.py wraps that the package no longer has.
UNTRACED = {"relmap.corpus.search_phrases", "relmap.solver.solve_hybrid",
            "relmap.solver.RelationalScorer.explain", "relmap.solver.AttributionalScorer.explain"}


def test_traced_benchmark_starts():
    """The benchmark's tracer installs over the package without error, and
    every name it cannot find is one that is known to be gone."""
    root = Path(__file__).resolve().parent.parent
    child = ("import json, sys\nimport relmap.cli\nsys.path.insert(0, 'perfbench')\n"
             "from tracing import Recorder\nrecorder = Recorder()\nrecorder.install()\n"
             "print(json.dumps(recorder.missing))")
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          cwd=root, timeout=300,
                          env=dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout.splitlines()[-1])) <= UNTRACED
