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
The eval, coherence and sweep sidecars were written again when the
config echo stopped recording the corpus directory, which the digest
names; each lost that key alone. The control fixture
(eval_control_m2) was written by the code that still sorted the slot
strings' pieces as strings; it pins the serialized order of slot words
that extend one another by characters below U+0020. The fixture
solve_relational_k20_t10_m8 was written by the code that still ran eigh
on every component of the Gram matrix: at k = 20 and t = 10 one of the
two components of 112 rows has a row-sum bound (226.6) below the other's
21st eigenvalue, so the decomposition now skips it, and the bytes must
not move. Regenerate them
only for a change that means to alter an output:

    PYTHONPATH=src python tests/test_golden.py

Each command runs in a child interpreter with one BLAS thread. A second
run with two BLAS threads must write the same bytes: the
eigendecomposition runs at one thread whatever the count
(`space._one_blas_thread`), and nothing else that reaches an output
depends on it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from relmap.dataset import Dataset, dump_problems
from relmap.planted import PlantedConfig, generate_planted_corpus
from relmap.problems import MappingProblem
from relmap.terms import Term

GOLDEN = Path(__file__).parent / "golden"

# file name -> relmap arguments, {out} being the output path. Hybrid runs
# on the first seven terms of each problem (problems_m7.json).
COMMANDS = {
    "solve_relational_m8.txt": ["solve", "problems_m8.json", "--mode", "relational",
                                "--seed", "3", "--out", "{out}"],
    "solve_relational_k20_t10_m8.txt": ["solve", "problems_m8.json", "--mode", "relational",
                                        "--k", "20", "--t", "10", "--out", "{out}"],
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
# Slot words that extend one another by characters below U+0020:
# "ab\x01c X Y" sorts before "ab X Y" as a string, though "ab" < "ab\x01c".
# At --t 1 the four columns are the two wildcard patterns and the first
# two, in serialized order, of four patterns with two generating pairs
# each, so that order decides the mapping: a1:a2 shares "ab\x01c X Y"
# with b2:b1 and "ab X Y" with b1:b2.
CONTROL_DOCS = {"1.txt": "ab a1 a2", "2.txt": "ab b1 b2", "3.txt": "ab\x01c a1 a2",
                "4.txt": "ab\x01c b2 b1", "5.txt": "a1 a2 ab\x1bz"}
CONTROL = {"eval_control_m2.tsv": ["eval", "problems_control.json", "--mode", "relational",
                                   "--t", "1", "--report", "{out}"]}
SRC = Path(__file__).resolve().parent.parent / "src"


def make_inputs(root: Path) -> Path:
    """Planted corpus and problem files (two m=8 problems, ~30k tokens) in root."""
    data = generate_planted_corpus(
        root / "corpus", PlantedConfig(n_problems=2, m=8, target_tokens=30_000,
                                       occurrences=(8, 16), seed=5))
    dump_problems(Dataset(data.problems), root / "problems_m8.json")
    dump_problems(Dataset([p.restricted(list(range(7)), suffix="m7")
                           for p in data.problems]), root / "problems_m7.json")
    return root


def make_control_inputs(root: Path) -> Path:
    """The CONTROL_DOCS corpus, one line per file, and an m=2 problem over it."""
    (root / "corpus").mkdir(parents=True)
    for file_name, text in CONTROL_DOCS.items():
        (root / "corpus" / file_name).write_text(text + "\n", encoding="utf-8")
    terms = [Term.parse(t) for t in ("a1", "a2", "b1", "b2")]
    dump_problems(Dataset([MappingProblem("C1", tuple(terms[:2]), tuple(terms[2:]),
                                          intended={"a1": "b1", "a2": "b2"})]),
                  root / "problems_control.json")
    return root


def run_command(name: str, inputs: Path, out_dir: Path,
                blas_threads: int = 1) -> dict[str, bytes]:
    """Run one command; its output files (report and sidecar) by file name."""
    argv = [a.format(out=out_dir / name) for a in {**COMMANDS, **CONTROL}[name]]
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


def test_control_character_words_keep_serialized_order(tmp_path):
    inputs = make_control_inputs(tmp_path / "inputs")
    for name in CONTROL:
        assert run_command(name, inputs, tmp_path) == fixtures(name)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_two_blas_threads_change_no_mapping(name, inputs, tmp_path):
    """Two BLAS threads write the bytes one does: mappings, scores and sidecars."""
    assert run_command(name, inputs, tmp_path, blas_threads=2) == fixtures(name)


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        tmp_root = Path(tmp)
        made = make_inputs(tmp_root / "inputs")
        control = make_control_inputs(tmp_root / "control")
        for command in [*COMMANDS, *CONTROL]:
            work = tmp_root / command
            work.mkdir()
            inputs = control if command in CONTROL else made
            for file_name, data in run_command(command, inputs, work).items():
                (GOLDEN / file_name).write_bytes(data)
                print(f"wrote {GOLDEN / file_name} ({len(data)} bytes)", file=sys.stderr)
