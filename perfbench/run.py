#!/usr/bin/env python3
"""relmap benchmark: the CLI path (corpus -> report) on planted corpora.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Each iteration of a workload runs in a fresh interpreter (child.py): the
set-up command (`relmap index`) is timed as `setup_s`, the main commands
as `run_s`, and the child's peak resident memory is `peak_rss_mb`.
Iterations run one after another, one child at a time, until the next one
would end past --seconds, and at least MIN_ITERATIONS of them; a traced run
alternates untraced and traced ones. Every output is checked against the
planted intended mappings. The last line of standard output is the JSON
result; the metric names and units come from BENCHMARK.json. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable

from tracing import LAYERS, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

BLAS_THREADS = 1  # fixed, so a run does not depend on the machine's core count
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
# The machine's speed drifts by 10-15% over seconds, so a run takes the
# median of several iterations, as many as a full set of runs has time for.
MIN_ITERATIONS = 2
STARTED = time.monotonic()


@dataclass(frozen=True)
class Command:
    argv: list[str]
    check: Callable[[dict], tuple[int, int]]  # child command result -> (attempted, failed)


@dataclass(frozen=True)
class Inputs:
    corpus: Path
    cache: Path
    problems: dict[str, Path]       # role -> problem file
    tokens: int


@dataclass(frozen=True)
class Workload:
    planted: dict                   # relmap.planted.PlantedConfig fields, seed excepted
    tiny: dict                      # overrides for --self-check
    setup_repeats: int              # cold set-up calls per iteration
    commands: Callable[[Inputs, Path], list[Command]]
    expect_nonzero: tuple[str, ...]  # per-layer metrics the workload must exercise


# --- output checks ------------------------------------------------------------

def _intended(path: Path) -> dict[str, dict[str, str]]:
    return {p["id"]: p["intended"] for p in json.loads(path.read_text(encoding="utf-8"))}


def _tsv_rows(path: Path) -> dict[str, list[str]]:
    """Data rows of a report keyed by their first field; empty if unreadable."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError:
        return {}
    rows = [line.split("\t") for line in lines[1:]]
    return {r[0]: r for r in rows if r and r[0] != "Average"}


def check_eval(problems: Path, report: Path):
    intended = _intended(problems)

    def check(res):
        if res["rc"] != 0:
            return len(intended), len(intended)
        rows = _tsv_rows(report)
        try:
            ties = {r["problem"]: r["tie_count"] for r in
                    json.loads(Path(f"{report}.json").read_text(encoding="utf-8"))["rows"]}
        except (OSError, ValueError, KeyError):
            ties = {}
        failed = sum(1 for pid in intended
                     if pid not in rows or rows[pid][3] != "100.0" or ties.get(pid, 0) < 1)
        return len(intended), failed

    return check


def check_solve(problems: Path, out: Path):
    intended = _intended(problems)

    def check(res):
        if res["rc"] != 0:
            return len(intended), len(intended)
        try:
            lines = out.read_text(encoding="utf-8").splitlines()
        except OSError:
            lines = []
        found: dict[str, dict[str, str]] = {}
        assignment: dict[str, str] = {}
        for line in lines:
            if line.startswith("{"):
                found[json.loads(line)["problem"]] = assignment
                assignment = {}
            elif "\t->\t" in line:
                src, tgt = line.split("\t->\t")
                assignment[src] = tgt
        failed = sum(1 for pid, gold in intended.items() if found.get(pid) != gold)
        return len(intended), failed

    return check


def check_coherence(problems: Path, report: Path, trials: int):
    intended = _intended(problems)

    def check(res):
        attempted = 2 * trials * len(intended)
        if res["rc"] != 0:
            return attempted, attempted
        rows = _tsv_rows(report)
        failed = 0
        for pid in intended:
            row = rows.get(pid, ["", "", "", ""])
            failed += sum(trials for acc in row[2:4] if acc != "100.0")
        return attempted, failed

    return check


# --- workloads ----------------------------------------------------------------

def _relmap(inp: Inputs, *args: str) -> list[str]:
    return [*args, "--corpus", str(inp.corpus), "--cache", str(inp.cache)]


def pipeline_commands(inp: Inputs, out: Path) -> list[Command]:
    report = out / "eval.tsv"
    return [Command(_relmap(inp, "eval", str(inp.problems["main"]), "--mode", "relational",
                            "--report", str(report)),
                    check_eval(inp.problems["main"], report))]


COHERENCE_TRIALS = 10  # relmap's default --trials


def search_commands(inp: Inputs, out: Path) -> list[Command]:
    # Hybrid search and coherence run on the first m-1 terms. At m=10 the
    # hybrid score lists alone take 27 s and 1.3 GB, more than a run can spend.
    main, smaller = inp.problems["main"], inp.problems["smaller"]
    return [
        Command(_relmap(inp, "solve", str(main), "--mode", "relational",
                        "--out", str(out / "relational.txt")),
                check_solve(main, out / "relational.txt")),
        Command(_relmap(inp, "solve", str(smaller), "--mode", "hybrid-add",
                        "--provider", "pos", "--out", str(out / "hybrid.txt")),
                check_solve(smaller, out / "hybrid.txt")),
        Command(_relmap(inp, "coherence", str(smaller), "--mode", "relational",
                        "--m-prime", "3", "--report", str(out / "coherence.tsv")),
                check_coherence(smaller, out / "coherence.tsv", COHERENCE_TRIALS)),
    ]


WORKLOADS = {
    "pipeline-1m-cold": Workload(
        planted={"n_problems": 10, "m": 8, "target_tokens": 1_000_000},
        tiny={"n_problems": 2, "m": 5, "target_tokens": 4000, "occurrences": (5, 10)},
        setup_repeats=1, commands=pipeline_commands,
        expect_nonzero=("corpus.ingest_s", "corpus.save_s", "corpus.digest_s",
                        "corpus.load_s", "corpus.windows", "patterns.mine_s",
                        "patterns.nnz_f", "space.svd_s", "solver.mappings",
                        "cli.report_bytes")),
    "search-m10": Workload(
        planted={"n_problems": 1, "m": 10, "target_tokens": 100_000},
        tiny={"m": 5, "target_tokens": 4000, "occurrences": (5, 10)},
        setup_repeats=3, commands=search_commands,
        expect_nonzero=("solver.mappings", "solver.search_self_s", "solver.prepare_s",
                        "attributes.sim_calls", "cli.report_bytes")),
}


def prepare_inputs(wl: Workload, seed: int, tiny: bool, work: Path) -> tuple[Inputs, dict]:
    """Generate the planted corpus and problem files (untimed)."""
    from relmap.dataset import Dataset, dump_problems
    from relmap.planted import PlantedConfig, generate_planted_corpus

    params = dict(wl.planted, **(wl.tiny if tiny else {}), seed=seed)
    data = generate_planted_corpus(work / "corpus", PlantedConfig(**params))
    problems = {"main": work / "problems.json"}
    dump_problems(Dataset(data.problems), problems["main"])
    smaller = [p.restricted(list(range(p.m - 1)), suffix=f"m{p.m - 1}")
               for p in data.problems]
    problems["smaller"] = work / "problems_smaller.json"
    dump_problems(Dataset(smaller), problems["smaller"])
    tokens = sum(len(f.read_text(encoding="utf-8").split())
                 for f in sorted((work / "corpus").glob("*.txt")))
    return Inputs(work / "corpus", work / "cache", problems, tokens), params


# --- children -----------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(spec: dict, workdir: Path) -> dict:
    """Run child.py on one spec, wait for it, and return its result."""
    workdir.mkdir(parents=True, exist_ok=True)
    spec_path, result_path = workdir / "spec.json", workdir / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    remaining = RUN_DEADLINE_S - (time.monotonic() - STARTED)
    with open(workdir / "child.log", "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(spec_path), str(result_path)],
                cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
                timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            raise SystemExit(f"child process passed the {RUN_DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0 or not result_path.exists():
        tail = (workdir / "child.log").read_text(encoding="utf-8")[-2000:]
        raise SystemExit(f"child process failed with code {proc.returncode}:\n{tail}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def check_index(res: dict, tokens: int) -> bool:
    return (res["rc"] == 0 and res["stdout"].startswith("indexed ")
            and f" tokens={tokens} " in res["stdout"])


def run_iteration(wl: Workload, inp: Inputs, workdir: Path, trace: bool) -> dict:
    out = workdir / "out"
    out.mkdir(parents=True, exist_ok=True)
    main_cmds = wl.commands(inp, out)
    spec_cmds = [{"phase": "setup", "argv": _relmap(inp, "index")}] * wl.setup_repeats
    spec_cmds += [{"phase": "run", "argv": c.argv} for c in main_cmds]
    res = run_child({"trace": trace, "cache_dir": str(inp.cache), "commands": spec_cmds},
                    workdir)
    setup_res = [c for c in res["commands"] if c["phase"] == "setup"]
    run_res = [c for c in res["commands"] if c["phase"] == "run"]
    setup_ok = all(check_index(c, inp.tokens) for c in setup_res)
    attempted = failed = 0
    for cmd, cres in zip(main_cmds, run_res):
        a, f = cmd.check(cres)
        attempted += a
        failed += a if not setup_ok else f
    report_bytes = sum(p.stat().st_size for p in out.iterdir())
    res.update(attempted=attempted, failed=failed, trace=trace,
               setup_s=[c["end"] - c["start"] for c in setup_res],
               run_s=sum(c["end"] - c["start"] for c in run_res),
               report_bytes=report_bytes)
    return res


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    wl = WORKLOADS[name]
    work = ROOT / ".perfbench" / f"{name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inp, params = prepare_inputs(wl, seed, tiny, work)
        iterations = []
        t0 = time.monotonic()
        while True:
            started = time.monotonic()
            traced = trace and len(iterations) % 2 == 1
            iterations.append(run_iteration(wl, inp, work / f"it{len(iterations)}", traced))
            last = time.monotonic() - started
            elapsed = time.monotonic() - t0
            if len(iterations) >= MIN_ITERATIONS and (
                    elapsed + last > seconds
                    or time.monotonic() - STARTED + last > RUN_DEADLINE_S - 10):
                break
        return summarize(name, seed, params, inp, iterations, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it


# --- results ------------------------------------------------------------------

def summarize(name, seed, params, inp, iterations, trace) -> dict:
    plain = [it for it in iterations if not it["trace"]]
    setups = [s for it in plain for s in it["setup_s"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(it["run_s"] for it in plain),
        "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in plain),
    }
    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    summary = {"workload": name, "seed": seed, "generator": params, "tokens": inp.tokens,
               "run_s_samples": [it["run_s"] for it in plain], "setup_s_samples": setups,
               "peak_rss_mb_samples": [it["peak_rss_mb"] for it in plain],
               "fail_ratio": failed / attempted}
    if trace:
        traced = sorted((it for it in iterations if it["trace"]), key=lambda it: it["run_s"])
        chosen = traced[(len(traced) - 1) // 2]  # the lower median by run_s
        metrics.update(layer_metrics(chosen, chosen["report_bytes"]))
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - metrics["run_s"]
        summary["traced_iterations"] = len(traced)
        summary["unwrapped"] = chosen.get("missing", [])
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "summary": summary}


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def provenance(bench: dict, summary: dict) -> dict:
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    return {"nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "why": why.get(summary["workload"]), **summary}


def result_line(bench: dict, out: dict, trace: bool) -> dict:
    specs = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = {s["name"]: {"value": out["metrics"][s["name"]], "unit": s["unit"]}
               for s in specs}
    return {"correct": out["failed"] == 0, "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics}


def print_report(bench: dict, out: dict, trace: bool) -> None:
    print("provenance " + json.dumps(provenance(bench, out["summary"]), sort_keys=True))
    s = out["summary"]
    print(f"{s['workload']} seed={s['seed']}: {out['attempted']} problem solves, "
          f"{out['failed']} failed (fail_ratio {s['fail_ratio']:.4f})")
    print("end-to-end (untraced; the median of the samples listed):")
    for spec in bench["end_to_end"]:
        samples = " ".join(f"{v:.4g}" for v in s[f"{spec['name']}_samples"])
        print(f"  {spec['name']:<28} {out['metrics'][spec['name']]:.6g} {spec['unit']}"
              f"  [{samples}]")
    if trace:
        print(f"per layer (traced run with the median run_s of {s['traced_iterations']}):")
        for spec in bench["per_layer"]:
            print(f"  {spec['name']:<28} {out['metrics'][spec['name']]:.6g} {spec['unit']}")
        if s["unwrapped"]:
            print("  not found in relmap, so not traced: " + ", ".join(s["unwrapped"]))


# --- self-check ---------------------------------------------------------------

def self_check(bench: dict) -> int:
    """Tiny inputs through every workload, traced and untraced, in seconds."""
    names = [w["name"] for w in bench["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        print(f"BENCHMARK.json workloads {names} != {sorted(WORKLOADS)}", file=sys.stderr)
        return 1
    problems = []
    for name in names:
        for trace in (False, True):
            out = run_workload(name, seed=0, seconds=0, trace=trace, tiny=True)
            line = result_line(bench, out, trace)
            specs = bench["per_layer"] if trace else bench["end_to_end"]
            tag = f"{name} trace={int(trace)}"
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(line)}")
            if not line["correct"] or line["failed"] or line["attempted"] < 1:
                problems.append(f"{tag}: {line['failed']} of {line['attempted']} failed")
            extra = set(out["metrics"]) - {s["name"] for s in
                                           bench["end_to_end"] + bench["per_layer"]}
            if extra:
                problems.append(f"{tag}: metrics missing from BENCHMARK.json: {sorted(extra)}")
            for spec in specs:
                value = line["metrics"][spec["name"]]["value"]
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{tag}: {spec['name']} = {value!r}")
            if trace:
                m = out["metrics"]
                total = sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["trace.unattributed_s"]
                if abs(total - m["trace.run_s"]) > 1e-9 or m["trace.unattributed_s"] < 0:
                    problems.append(f"{tag}: self times do not add up to trace.run_s")
                if m["trace.unattributed_s"] > 0.05 * m["trace.run_s"]:
                    problems.append(f"{tag}: {m['trace.unattributed_s']:.4f} s unattributed")
                for key in WORKLOADS[name].expect_nonzero:
                    if not m[key] > 0:
                        problems.append(f"{tag}: {key} is {m[key]}")
                if out["summary"]["unwrapped"]:
                    problems.append(f"{tag}: not traced {out['summary']['unwrapped']}")
            print(f"checked {tag}: {line['attempted']} solves")
    for p in problems:
        print(f"self-check: {p}", file=sys.stderr)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="run every workload on tiny inputs and check the harness")
    args = ap.parse_args(argv)
    if not (SRC / "relmap" / "__init__.py").is_file():
        print(f"relmap sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    bench = load_benchmark()
    if args.self_check:
        return self_check(bench)
    if args.workload is None:
        ap.error("--workload is required")
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), tiny=False)
    print_report(bench, out, bool(args.trace))
    print(json.dumps(result_line(bench, out, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
