"""Command-line front end: index, solve, eval, coherence, and sweep.

All randomness flows from --seed, so any command is deterministic given
its inputs and flags. Exit codes: 0 success, 1 usage error, 2 data or
corpus error, 3 budget refusal (m, or the relation space's n_r x n_r cells).
"""

from __future__ import annotations

import argparse
import ctypes
import logging
import sys
from pathlib import Path
from typing import Optional

from . import corpus as cp
from .config import MODES, TRANSFORMS, Config, load_config_file
from .dataset import load_problems
from .errors import (BudgetError, ConfigError, CorpusError, DataError,
                     RelmapError, UsageError)
from .evaluation import (build_space_for_problems, coherence_experiment,
                         run_batch, sensitivity_sweep, solve_one)
from .solver import TIE_POLICIES

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_BUDGET = 3

# glibc's mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(f"{message}\n{self.format_usage().rstrip()}")


def _parse_grid(text: str) -> list[int]:
    """Single value, or an inclusive start:stop:step range like 50:400:50."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return [int(parts[0])]
        if len(parts) != 3:
            raise ValueError
        start, stop, step = (int(p) for p in parts)
    except ValueError:
        raise UsageError(f"bad grid {text!r}; expected N or start:stop:step")
    if step <= 0 or stop < start:
        raise UsageError(f"bad grid {text!r}")
    return list(range(start, stop + 1, step))


def _not_in_sweep(value: str):
    raise argparse.ArgumentTypeError("a sweep is relational and varies the relation space")


def _add_common(p: _Parser, *, solve_flags: bool = True):
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--corpus", help="directory of .txt corpus files")
    p.add_argument("--cache", help="directory for the index cache")
    if solve_flags:
        p.add_argument("--mode", choices=MODES)
        p.add_argument("--provider",
                       help="pos | pmi-ir | external:PATH, optionally +pos")
        p.add_argument("--pmi-window", type=int, dest="pmi_window")
        p.add_argument("--k", type=int, help=f"SVD rank (default {Config.k})")
        p.add_argument("--t", type=int, help=f"columns per row (default {Config.t})")
        p.add_argument("--transform", choices=TRANSFORMS)
        p.add_argument("--no-svd", action="store_true",
                       help="skip the SVD smoothing step")
    else:  # refused with a reason, where an unknown flag would get none
        for flag in ("--mode", "--provider", "--pmi-window"):
            p.add_argument(flag, type=_not_in_sweep, help=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, help=f"random seed (default {Config.seed})")
    p.add_argument("--m-max", type=int, dest="m_max",
                   help=f"largest problem size to enumerate (default {Config.m_max})")


def _add_problem_source(p: _Parser):
    p.add_argument("problems", nargs="?",
                   help="problem JSON file (or use --builtin)")
    p.add_argument("--builtin", action="store_true",
                   help="use the builtin twenty problems")


def build_parser() -> _Parser:
    parser = _Parser(prog="relmap",
                     description="Corpus-driven analogical mapping between "
                                 "term lists")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_index = sub.add_parser("index", help="ingest and cache a corpus")
    p_index.add_argument("--corpus", required=True)
    p_index.add_argument("--cache", required=True)

    p_solve = sub.add_parser("solve", help="map each problem and print the result")
    _add_problem_source(p_solve)
    _add_common(p_solve)
    p_solve.add_argument("--out", help="write mappings here instead of stdout")

    p_eval = sub.add_parser("eval", help="accuracy report against intended mappings")
    _add_problem_source(p_eval)
    _add_common(p_eval)
    p_eval.add_argument("--report", help="TSV output path (sidecar: PATH.json)")

    p_coh = sub.add_parser("coherence",
                           help="internal vs total coherence on subproblems")
    _add_problem_source(p_coh)
    _add_common(p_coh)
    p_coh.add_argument("--m-prime", type=int, default=3, dest="m_prime")
    p_coh.add_argument("--trials", type=int, default=10)
    p_coh.add_argument("--tie-policy", choices=TIE_POLICIES,
                       default="random", dest="tie_policy")
    p_coh.add_argument("--report", help="TSV output path (sidecar: PATH.json)")

    p_sweep = sub.add_parser("sweep", help="accuracy across parameter settings")
    _add_problem_source(p_sweep)
    _add_common(p_sweep, solve_flags=False)
    p_sweep.add_argument("--k", help="k values to sweep, N or start:stop:step")
    p_sweep.add_argument("--t", help="t values to sweep, N or start:stop:step")
    p_sweep.add_argument("--no-svd", action="store_true",
                         help="add a row with the SVD step dropped")
    p_sweep.add_argument("--transform", choices=TRANSFORMS,
                         help="add a row using this transform")
    p_sweep.add_argument("--report", help="TSV output path (sidecar: PATH.json)")
    return parser


def _config_from_args(args, *, solve_flags: bool = True) -> Config:
    cfg = Config()
    if getattr(args, "config", None):
        cfg = load_config_file(args.config, cfg)
    keys = ["mode", "provider", "seed", "pmi_window", "m_max"]
    if solve_flags:
        keys += ["k", "t", "transform"]
    for key in keys:
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    if solve_flags and getattr(args, "no_svd", False):
        cfg.svd = False
    if getattr(args, "corpus", None):
        cfg.corpus_dir = args.corpus
    if getattr(args, "cache", None):
        cfg.cache_dir = args.cache
    return cfg.validate()


def _load_dataset(args):
    if getattr(args, "builtin", False):
        return load_problems(None)
    problems_path = getattr(args, "problems", None)
    if not problems_path:
        raise UsageError("give a problem file or --builtin")
    return load_problems(problems_path)


def _corpus_files_checked(corpus_dir: str) -> list[Path]:
    if not Path(corpus_dir).is_dir():
        raise UsageError(f"corpus directory not found: {corpus_dir}")
    files = cp.corpus_files(corpus_dir)
    if not files:
        logger.warning("corpus directory %s holds no .txt files", corpus_dir)
    return files


def _index_for(cfg: Config) -> Optional[cp.CorpusIndex]:
    if not cfg.needs_corpus():
        return None
    if not cfg.corpus_dir:
        raise UsageError(f"mode {cfg.mode!r} (or provider {cfg.provider!r}) "
                         f"needs --corpus")
    files = _corpus_files_checked(cfg.corpus_dir)
    index, hit = cp.cached_index(files, cfg.cache_dir)
    if hit:
        logger.info("cache hit: %s", cp.cache_path(cfg.cache_dir, index.digest))
    return index


def _write(text: str, path: Optional[str]) -> None:
    if not path:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_report(report, path: Optional[str]) -> None:
    _write(report.to_tsv(), path)
    if path:
        _write(report.sidecar(), path + ".json")


def cmd_index(args) -> int:
    files = _corpus_files_checked(args.corpus)
    index, hit = cp.cached_index(files, args.cache)
    path = cp.cache_path(args.cache, index.digest)
    if hit:
        print(f"cache hit: {path}")
    else:
        print(f"indexed {len(files)} files into {path}")
    print(f"documents={index.n_documents} tokens={index.total_tokens} "
          f"digest={index.digest[:16]}")
    return EXIT_OK


def cmd_solve(args) -> int:
    cfg = _config_from_args(args)
    dataset = _load_dataset(args)
    index = _index_for(cfg)
    space, _ = build_space_for_problems(index, list(dataset), cfg)
    chunks = []
    refused = False
    for problem in dataset:
        try:
            chunks.append(solve_one(problem, cfg, space, index).to_text())
        except BudgetError as exc:
            refused = True
            chunks.append(f"# {problem.id}: refused: {exc}\n")
    _write("\n".join(chunks), args.out)
    return EXIT_BUDGET if refused else EXIT_OK


def cmd_eval(args) -> int:
    cfg = _config_from_args(args)
    dataset = _load_dataset(args)
    index = _index_for(cfg)
    report = run_batch(dataset, cfg, index)
    _write_report(report, args.report)
    return EXIT_OK


def cmd_coherence(args) -> int:
    cfg = _config_from_args(args)
    dataset = _load_dataset(args)
    index = _index_for(cfg)
    report = coherence_experiment(dataset, args.m_prime, args.trials,
                                  cfg.seed, cfg, index,
                                  tie_policy=args.tie_policy)
    _write_report(report, args.report)
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _config_from_args(args, solve_flags=False)
    dataset = _load_dataset(args)
    index = _index_for(cfg)
    report = sensitivity_sweep(
        dataset, cfg, index,
        k_grid=_parse_grid(args.k) if args.k else None,
        t_grid=_parse_grid(args.t) if args.t else None,
        include_no_svd=args.no_svd,
        transform_grid=[args.transform] if args.transform else None)
    _write_report(report, args.report)
    return EXIT_OK


_COMMANDS = {"index": cmd_index, "solve": cmd_solve, "eval": cmd_eval,
             "coherence": cmd_coherence, "sweep": cmd_sweep}


def _fix_malloc_thresholds() -> None:
    """Fix glibc's mmap threshold at 32 MiB and its trim threshold at 16 MiB.

    By default glibc raises both each time it frees a block it had
    mapped, so whether a later numpy array gets fresh pages or reuses
    freed heap depends on which blocks were freed before it. The peak
    RSS of `relmap index` on a 1M-token corpus then took one of two
    values 7-8 MB apart from run to run of the same input; with fixed
    thresholds it takes one. Where the C library has no mallopt this
    does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 16 << 20)


def main(argv: Optional[list[str]] = None) -> int:
    _fix_malloc_thresholds()
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetError as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (DataError, CorpusError, ConfigError, RelmapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
