#!/usr/bin/env python3
"""Traffic audit: which lines of ``src/missingmass`` the benchmark workloads
reach, and how often.

Each workload is built by ``bench/workloads.build`` (its inputs and its
warm-up: the set-up of one benchmark process), and then each of its
operations runs once (one pass), all under ``sys.settrace``.  The ``mml``
invocations, which the benchmark runs in subprocesses, are not traced.  An
operation that raises counts as failed, as in the benchmark, and the pass
goes on.

    python scripts/traffic_audit.py [--workload W ...] [--seed N] [--unreached]

Standard output holds one tab-separated row per line of ``src/missingmass``
that some chosen workload reaches: ``file:line``, its hits under each
workload (the header names them) and its source text.  With
``--unreached`` it holds the function-body lines that no chosen workload
reaches instead, as ``file:line`` and source text.  A function-body line is
a line with bytecode in a function, method, lambda or comprehension, apart
from the line of its ``def`` (or first decorator); module and class bodies
run at import, before the trace starts, and are not counted.  Standard
error holds each workload's operation count, failures and time, and each
file's reached and total function-body lines.

``bench/`` is only imported: no bytecode is cached (``sys.dont_write_bytecode``)
and the workloads' input files go to a temporary directory.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import tempfile
import time
import types
from collections import Counter
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "missingmass"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import missingmass  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def body_lines(path: Path) -> set[int]:
    """The function-body lines of one source file (see the module docstring)."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        if code.co_flags & inspect.CO_OPTIMIZED:
            own = {line for _, _, line in code.co_lines() if line is not None}
            # a lambda or comprehension has its body on its first line
            lines |= own - {code.co_firstlineno} or own
    return lines


def traced(run) -> Counter:
    """Hits per (file, line) of the package's code while run() runs."""
    hits = Counter()
    prefix = str(PACKAGE) + "/"

    def line(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename, frame.f_lineno] += 1
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(None)
    return hits


def workload_hits(name: str, seed: int) -> Counter:
    """Hits of one workload's set-up and one pass; its counts go to stderr."""
    ops, failed = [], []

    def run():
        with tempfile.TemporaryDirectory() as workdir:
            ops.extend(workloads.build(name, seed, Path(workdir), Tracer(enabled=False)).ops)
            for op in ops:
                try:
                    op.run()
                except Exception as exc:  # a failed operation, as the benchmark counts it
                    failed.append(f"{op.name}: {type(exc).__name__}: {exc}")

    t0 = time.perf_counter()
    hits = traced(run)
    print(f"{name}: set-up and {len(ops)} operations, {len(failed)} failed, "
          f"{time.perf_counter() - t0:.2f} s traced", file=sys.stderr)
    for message in failed:
        print(f"  failed {message}", file=sys.stderr)
    return hits


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", choices=workloads.WORKLOADS,
                    help="a workload to trace (repeatable; default all three)")
    ap.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    ap.add_argument("--unreached", action="store_true",
                    help="list the function-body lines no chosen workload reaches")
    args = ap.parse_args(argv)
    if not Path(missingmass.__file__).resolve().is_relative_to(PACKAGE):
        print(f"imported missingmass from {missingmass.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    names = args.workload or list(workloads.WORKLOADS)
    hits = {name: workload_hits(name, args.seed) for name in names}
    if not args.unreached:
        print("\t".join(["line", *names, "source"]))
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        body = body_lines(path)
        counts = {n: [hits[name][str(path), n] for name in names] for n in range(1, len(source) + 1)}
        reached = {n for n, c in counts.items() if any(c)}
        print(f"{path.name}: {len(body & reached)} of {len(body)} function-body lines reached",
              file=sys.stderr)
        for n in sorted(body - reached if args.unreached else reached):
            cells = [] if args.unreached else [str(c) for c in counts[n]]
            print("\t".join([f"{path.name}:{n}", *cells, source[n - 1].strip()]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
