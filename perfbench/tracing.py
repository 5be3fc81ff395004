"""Span recording around relmap's public functions, and the per-layer metrics.

The wrappers live in the benchmark, not in the package. Each wrapped
function is patched in every loaded relmap module that binds it, because
callers import names with ``from .x import y``; patching only the module
that defines a function would miss those callers.

A span is (name, start, end, parent span index, command index). Spans stay
in memory and are written out by the child process when it ends. Counts
are taken from return values after a span's end time is read, so they do
not add to the span they describe.

The per-permutation score closures returned by the scorers' ``prepare``
are never wrapped: the search calls them m! times (3.6M at m=10), and a
wrapper there would measure itself rather than the search.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "evaluation", "corpus", "patterns", "space", "solver",
          "attributes")

# Rows of U_k * Sigma_k whose norm is below this share of the largest row
# norm carry only floating-point noise after truncation.
WEAK_ROW_SHARE = 1e-6


def _file_mb(path) -> float:
    try:
        return os.path.getsize(path) / 2**20
    except OSError:
        return 0.0


def _on_ingest(counts, result, args, kwargs):
    counts["corpus.tokens"] += result.total_tokens


def _on_save(counts, result, args, kwargs):
    counts["corpus.cache_mb"] = max(counts["corpus.cache_mb"], _file_mb(result))


def _on_load(counts, result, args, kwargs):
    path = args[0] if args else kwargs.get("path")
    counts["corpus.cache_mb"] = max(counts["corpus.cache_mb"], _file_mb(path))


def _on_search(counts, result, args, kwargs):
    counts["corpus.search_calls"] += 1
    counts["corpus.windows"] += len(result)
    counts["corpus.pair_hits"] += 1 if result else 0


def _on_prune(counts, result, args, kwargs):
    counts["patterns.n_r"] += len(result)


def _on_select(counts, result, args, kwargs):
    counts["patterns.n_c"] += len(result)


def _on_matrix(counts, result, args, kwargs):
    counts["patterns.nnz_f"] += result.nnz


def _on_ppmic(counts, result, args, kwargs):
    counts["space.nnz_x"] += result.nnz


def _on_log_entropy(counts, result, args, kwargs):
    counts["space.nnz_x"] += result[0].nnz


def _on_svd(counts, result, args, kwargs):
    import numpy as np

    u, s = result
    norms = np.linalg.norm(u * s[None, :], axis=1)
    largest = norms.max() if norms.size else 0.0
    counts["space.svd_rows"] += norms.size
    counts["space.weak_rows"] += int(np.count_nonzero(norms < WEAK_ROW_SHARE * largest))


def _on_solve(counts, result, args, kwargs):
    diag = result.diagnostics
    counts["solver.mappings"] += diag.get("n_mappings", diag.get("search_size", 0))
    counts["solver.ties"] += result.tie_count


# (span name, module, function or Class.method, counter). A name missing
# from the package is skipped, so the benchmark keeps running when a later
# version removes or renames one; its metrics then read 0.
TARGETS = [
    ("cli.main", "relmap.cli", "main", None),
    ("corpus.files", "relmap.corpus", "corpus_files", None),
    ("corpus.digest", "relmap.corpus", "corpus_digest", None),
    ("corpus.ingest", "relmap.corpus", "ingest", _on_ingest),
    ("corpus.save", "relmap.corpus", "save_index", _on_save),
    ("corpus.load", "relmap.corpus", "load_index", _on_load),
    ("corpus.search", "relmap.corpus", "search_phrases", _on_search),
    ("corpus.cooccurrence", "relmap.corpus", "cooccurrence_counts", None),
    ("patterns.pairs", "relmap.patterns", "build_pair_list", None),
    ("patterns.mine", "relmap.patterns", "mine_patterns", None),
    ("patterns.prune", "relmap.patterns", "prune_rows", _on_prune),
    ("patterns.select", "relmap.patterns", "select_columns", _on_select),
    ("patterns.matrix", "relmap.patterns", "build_frequency_matrix", _on_matrix),
    ("space.transform", "relmap.space", "transform_ppmic", _on_ppmic),
    ("space.transform", "relmap.space", "transform_log_entropy", _on_log_entropy),
    ("space.build", "relmap.space", "build_space_from_matrix", None),
    ("space.svd", "relmap.space", "truncated_svd", _on_svd),
    ("solver.solve", "relmap.solver", "solve", _on_solve),
    ("solver.solve", "relmap.solver", "solve_hybrid", _on_solve),
    ("solver.solve", "relmap.solver", "solve_constrained", _on_solve),
    ("solver.prepare", "relmap.solver", "RelationalScorer.prepare", None),
    ("solver.prepare", "relmap.solver", "AttributionalScorer.prepare", None),
    ("solver.explain", "relmap.solver", "RelationalScorer.explain", None),
    ("solver.explain", "relmap.solver", "AttributionalScorer.explain", None),
    ("attributes.sim", "relmap.attributes", "PosSimilarity.sim", None),
    ("attributes.sim", "relmap.attributes", "PmiIrSimilarity.sim", None),
    ("attributes.sim", "relmap.attributes", "TableSimilarity.sim", None),
    ("attributes.sim", "relmap.attributes", "CombinedSimilarity.sim", None),
    ("evaluation.run_batch", "relmap.evaluation", "run_batch", None),
    ("evaluation.solve_batch", "relmap.evaluation", "solve_batch", None),
    ("evaluation.build_space", "relmap.evaluation", "build_space_for_problems", None),
    ("evaluation.mine", "relmap.evaluation", "mine_for_problems", None),
    ("evaluation.space_from_stats", "relmap.evaluation", "space_from_stats", None),
    ("evaluation.solve_one", "relmap.evaluation", "solve_one", None),
    ("evaluation.make_provider", "relmap.evaluation", "make_provider", None),
    ("evaluation.accuracy", "relmap.evaluation", "accuracy", None),
    ("evaluation.coherence", "relmap.evaluation", "coherence_experiment", None),
    ("evaluation.sweep", "relmap.evaluation", "sensitivity_sweep", None),
]


class Recorder:
    """In-memory span list plus counters; `command` tags new spans."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self.command = -1
        self._stack: list[int] = []
        self.missing: list[str] = []

    def _wrap(self, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.command)
            if counter is not None:
                counter(counts, result, args, kwargs)
            return result

        return wrapper

    def _count_calls(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Patch every target in every relmap module that binds it."""
        import relmap  # noqa: F401  (loads every submodule)

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "relmap" or n.startswith("relmap."))]
        for name, module_name, attr, counter in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                fn = getattr(owner, method, None) if owner is not None else None
                if fn is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                setattr(owner, method, self._wrap(name, fn, counter))
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self._wrap(name, fn, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)
        space_cls = getattr(sys.modules.get("relmap.space"), "RelationSpace", None)
        if space_cls is not None:
            space_cls.sim_r = self._count_calls("solver.sim_r_calls", space_cls.sim_r)
        else:
            self.missing.append("relmap.space.RelationSpace.sim_r")


def layer_metrics(result: dict, report_bytes: int) -> dict:
    """Per-layer metrics of one traced child run.

    Durations and counts cover every command of the run, set-up included.
    The `<layer>.self_s` values and the `trace.*` values cover only the
    timed main commands, so that the layer self times plus
    `trace.unattributed_s` add up to `trace.run_s`.
    """
    spans = [tuple(s) for s in result["spans"]]
    counts = defaultdict(float, result["counts"])
    run_cmds = {i for i, c in enumerate(result["commands"]) if c["phase"] == "run"}

    covered = [0.0] * len(spans)
    for name, start, end, parent, _cmd in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_time = [end - start - covered[i]
                 for i, (_n, start, end, _p, _c) in enumerate(spans)]

    def total(span_name):
        return sum(e - s for n, s, e, _p, _c in spans if n == span_name)

    def self_total(span_name):
        return sum(self_time[i] for i, sp in enumerate(spans) if sp[0] == span_name)

    outer_sims = [sp for sp in spans
                  if sp[0] == "attributes.sim"
                  and (sp[3] < 0 or spans[sp[3]][0] != "attributes.sim")]
    search_self = self_total("solver.solve")
    svd_rows = counts["space.svd_rows"]
    calls = counts["corpus.search_calls"]

    out = {
        "corpus.ingest_s": total("corpus.ingest"),
        "corpus.tokens": counts["corpus.tokens"],
        "corpus.save_s": total("corpus.save"),
        "corpus.digest_s": total("corpus.digest"),
        "corpus.load_s": total("corpus.load"),
        "corpus.cache_mb": counts["corpus.cache_mb"],
        "corpus.search_s": total("corpus.search"),
        "corpus.search_calls": calls,
        "corpus.windows": counts["corpus.windows"],
        "corpus.pair_hit_ratio": counts["corpus.pair_hits"] / calls if calls else 0.0,
        "patterns.mine_s": total("patterns.mine"),
        "patterns.mine_self_s": self_total("patterns.mine"),
        "patterns.n_r": counts["patterns.n_r"],
        "patterns.select_s": total("patterns.select"),
        "patterns.n_c": counts["patterns.n_c"],
        "patterns.matrix_s": total("patterns.matrix"),
        "patterns.nnz_f": counts["patterns.nnz_f"],
        "space.transform_s": total("space.transform"),
        "space.nnz_x": counts["space.nnz_x"],
        "space.svd_s": total("space.svd"),
        "space.build_self_s": self_total("space.build"),
        "space.weak_rows": counts["space.weak_rows"],
        "space.useful_row_ratio": ((svd_rows - counts["space.weak_rows"]) / svd_rows
                                   if svd_rows else 0.0),
        "solver.prepare_s": total("solver.prepare"),
        "solver.sim_r_calls": counts["solver.sim_r_calls"],
        "solver.search_self_s": search_self,
        "solver.mappings": counts["solver.mappings"],
        "solver.mappings_per_s": (counts["solver.mappings"] / search_self
                                  if search_self > 0 else 0.0),
        "solver.ties": counts["solver.ties"],
        "attributes.sim_calls": float(len(outer_sims)),
        "attributes.sim_s": sum(e - s for _n, s, e, _p, _c in outer_sims),
        "cli.report_bytes": float(report_bytes),
    }
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i, (name, _s, _e, _p, cmd) in enumerate(spans):
        if cmd in run_cmds:
            layer_self[name.split(".", 1)[0]] += self_time[i]
    for layer, value in layer_self.items():
        out[f"{layer}.self_s"] = value
    run_s = sum(c["end"] - c["start"] for c in result["commands"] if c["phase"] == "run")
    out["trace.run_s"] = run_s
    out["trace.unattributed_s"] = run_s - sum(layer_self.values())
    return out
