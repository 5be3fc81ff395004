"""One benchmark iteration in a fresh interpreter: set-up and main commands.

Usage: python child.py SPEC.json RESULT.json

SPEC holds the commands to pass to ``relmap.cli.main``, each with its
phase: "setup" (the cache directory is emptied before it) or "run". Each
command is timed from the call into ``relmap.cli.main`` until it returns
its exit code, so interpreter start-up and the numpy and scipy imports are
outside every timing. With ``"trace": true`` the span wrappers of
tracing.py are installed first. RESULT receives the
timings, exit codes, captured standard output, peak resident memory and,
when traced, the spans and counts.
"""

import contextlib
import io
import json
import resource
import shutil
import sys
import traceback
from time import perf_counter

import relmap.cli

from tracing import Recorder


def main(spec_path: str, result_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    recorder = None
    if spec["trace"]:
        recorder = Recorder()
        recorder.install()
    commands = []
    for i, cmd in enumerate(spec["commands"]):
        if cmd["phase"] == "setup":
            shutil.rmtree(spec["cache_dir"], ignore_errors=True)
        if recorder is not None:
            recorder.command = i
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            start = perf_counter()
            try:
                rc = relmap.cli.main(cmd["argv"])
            except Exception:  # a crash fails this command's problems, not the run
                end = perf_counter()
                traceback.print_exc()
                rc = -1
            else:
                end = perf_counter()
        commands.append({"phase": cmd["phase"], "rc": rc, "start": start,
                         "end": end, "stdout": captured.getvalue()})
    result = {"commands": commands,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if recorder is not None:
        result["spans"] = recorder.spans
        result["counts"] = dict(recorder.counts)
        result["missing"] = recorder.missing
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
