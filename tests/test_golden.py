"""CLI outputs on a small planted corpus, compared byte for byte with fixtures.

The fixtures in tests/golden/ were first written by the exhaustive
tuple-at-a-time search that preceded the block search core, so these
tests pin every report and sidecar to that implementation's bytes. The
solve fixtures' scores were written again when the relation space moved
from an SVD to the Gram eigendecomposition, which moved them in the last
digits (below 1e-14) and left every mapping and tie count as it was.
The hybrid fixtures' scores were written again when each channel's
total moved from a sum over every mapping to an exact closed form,
which moved them in the last digits with the same mappings and ties.
All three solve fixtures' scores were written again when the Gram
matrix came to be decomposed one connected component at a time, which
moved them in the last digits (below 1e-14) with the same mappings and
ties; the eval, coherence and sweep fixtures kept their bytes. The
coherence sidecar was written again when it came to record the corpus
digest, as the eval and sweep sidecars do; it gained that key alone.
Regenerate them only for a change that means to alter an output:

    PYTHONPATH=src python tests/test_golden.py

Each command runs in a child interpreter with one BLAS thread: the
eigendecomposition's last bits, and so the printed scores, change with
the thread count. A second run with two BLAS threads must give the same
mappings, tie counts, accuracies and sidecars, with scores within 1e-12.
Paths are relative to the input directory, because the coherence sidecar
records the corpus directory as given.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from relmap.dataset import Dataset, dump_problems
from relmap.planted import PlantedConfig, generate_planted_corpus

GOLDEN = Path(__file__).parent / "golden"

# file name -> relmap arguments, {out} being the output path. Hybrid runs
# on the first seven terms of each problem (problems_m7.json).
COMMANDS = {
    "solve_relational_m8.txt": ["solve", "problems_m8.json", "--mode", "relational",
                                "--seed", "3", "--out", "{out}"],
    "solve_hybrid_add_m7.txt": ["solve", "problems_m7.json", "--mode", "hybrid-add",
                                "--provider", "pos", "--out", "{out}"],
    "solve_hybrid_mul_m7.txt": ["solve", "problems_m7.json", "--mode", "hybrid-mul",
                                "--provider", "pmi-ir", "--out", "{out}"],
    "coherence_m8.tsv": ["coherence", "problems_m8.json", "--mode", "relational",
                         "--m-prime", "3", "--trials", "4", "--report", "{out}"],
    "eval_relational_m8.tsv": ["eval", "problems_m8.json", "--mode", "relational",
                               "--report", "{out}"],
    "sweep_m8.tsv": ["sweep", "problems_m8.json", "--k", "20:60:20", "--t", "5:25:10",
                     "--no-svd", "--transform", "logentropy", "--report", "{out}"],
}
SRC = Path(__file__).resolve().parent.parent / "src"
SCORE_TOLERANCE = 1e-12


def make_inputs(root: Path) -> Path:
    """Planted corpus and problem files (two m=8 problems, ~30k tokens) in root."""
    data = generate_planted_corpus(
        root / "corpus", PlantedConfig(n_problems=2, m=8, target_tokens=30_000,
                                       occurrences=(8, 16), seed=5))
    dump_problems(Dataset(data.problems), root / "problems_m8.json")
    dump_problems(Dataset([p.restricted(list(range(7)), suffix="m7")
                           for p in data.problems]), root / "problems_m7.json")
    return root


def run_command(name: str, inputs: Path, out_dir: Path,
                blas_threads: int = 1) -> dict[str, bytes]:
    """Run one command; its output files (report and sidecar) by file name."""
    argv = [a.format(out=out_dir / name) for a in COMMANDS[name]]
    threads = str(blas_threads)
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    proc = subprocess.run([sys.executable, "-m", "relmap", *argv, "--corpus", "corpus"],
                          cwd=inputs, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return {p.name: p.read_bytes() for p in sorted(out_dir.glob(name + "*"))}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return make_inputs(tmp_path_factory.mktemp("golden_inputs"))


def fixtures(name: str) -> dict[str, bytes]:
    expected = {p.name: p.read_bytes() for p in sorted(GOLDEN.glob(name + "*"))}
    assert expected, f"no fixture for {name}"
    return expected


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden_bytes(name, inputs, tmp_path):
    assert run_command(name, inputs, tmp_path) == fixtures(name)


def assert_same_but_scores(produced: str, expected: str) -> None:
    """Equal line by line, except a JSON line's "score", which may move by 1e-12."""
    assert len(produced.splitlines()) == len(expected.splitlines())
    for got, want in zip(produced.splitlines(), expected.splitlines()):
        if not want.startswith("{"):
            assert got == want
            continue
        got, want = json.loads(got), json.loads(want)
        assert abs(got.pop("score") - want.pop("score")) <= SCORE_TOLERANCE
        assert got == want


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_two_blas_threads_change_no_mapping(name, inputs, tmp_path):
    produced = run_command(name, inputs, tmp_path, blas_threads=2)
    expected = fixtures(name)
    assert sorted(produced) == sorted(expected)
    for file_name, want in expected.items():
        if file_name.endswith(".json"):
            assert json.loads(produced[file_name]) == json.loads(want)
        else:
            assert_same_but_scores(produced[file_name].decode(), want.decode())


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        tmp_root = Path(tmp)
        made = make_inputs(tmp_root / "inputs")
        for command in COMMANDS:
            work = tmp_root / command
            work.mkdir()
            for file_name, data in run_command(command, made, work).items():
                (GOLDEN / file_name).write_bytes(data)
                print(f"wrote {GOLDEN / file_name} ({len(data)} bytes)", file=sys.stderr)
