"""Child process of the benchmark: set up one workload in a fresh interpreter,
then time it, trace it, or stop after set-up.

    python3 bench/worker.py {setup,run,trace} --workload W --seed N --seconds S --workdir DIR

`run` and `trace` print one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import missingmass as mm  # noqa: E402
from missingmass import cli as mml_cli  # noqa: E402

import calibrate  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

MIN_PASSES = 3
LAYERS = ("distributions", "mass", "extremal", "constructions", "sampling", "cover", "bench")


class Raised:
    """Stands in for the output of an operation that raised."""

    def __init__(self, exc: Exception):
        self.message = f"raised {type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, Raised) and other.message == self.message


def run_pass(w: workloads.Workload, tr: Tracer, label: str, probes: list[float]):
    """Run every operation once between speed probes (appended to `probes`);
    returns the raw pass time, per-op times scaled to the reference speed,
    and outputs."""
    gc.collect()
    outs, times = [], []
    probes.append(calibrate.probe())
    for i, op in enumerate(w.ops):
        tr.op = f"{label}:{i}"
        t0 = time.perf_counter()
        with tr.span("bench", op.name):
            try:
                outs.append(op.run())
            except Exception as exc:  # an operation that raises is a failed operation
                outs.append(Raised(exc))
        times.append(time.perf_counter() - t0)
        probes.append(calibrate.probe())
    return sum(times), calibrate.scaled(times, probes[-len(times) - 1:]), outs


def run_passes(w, tr: Tracer, seconds: float, min_passes: int, traced=lambda k: False):
    """Repeat passes until the next one would overrun `seconds`; pass k is
    traced when traced(k).

    Returns (raw pass times, scaled per-op times per pass, first outputs,
    operations whose output changed between passes, probe times).
    """
    passes, op_times, first, changed, probes = [], [], None, set(), []
    start = time.perf_counter()
    while True:
        k = len(passes)
        tr.enabled = traced(k)
        dt, times, outs = run_pass(w, tr, f"p{k}", probes)
        tr.enabled = False
        passes.append(dt)
        op_times.append(times)
        if first is None:
            first = outs
        else:
            changed.update(i for i, (a, b) in enumerate(zip(first, outs)) if not a == b)
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed + statistics.median(passes) > seconds:
            return passes, op_times, first, changed, probes


def check_outputs(w, first, changed) -> tuple[list[dict], int]:
    """Failures per operation, and the count of tolerated 3-sigma false alarms."""
    failures, alarms = [], 0
    for i, (op, out) in enumerate(zip(w.ops, first)):
        if isinstance(out, Raised):
            reasons = [out.message]
        else:
            try:
                reasons = list(op.check(out))
            except Exception as exc:  # a check that cannot read the output fails it
                reasons = [f"check raised {type(exc).__name__}: {exc}"]
        if i in changed:
            reasons.append("output changed between passes with the same inputs")
        if reasons:
            defects = {getattr(r, "defect", None) for r in reasons}
            known = None if None in defects else "; ".join(sorted(defects))
            failures.append({"op": op.name, "reasons": reasons[:3], "known_defect": known})
        elif getattr(out, "violated", False):
            alarms += 1
    return failures, alarms


def per_op(w, op_times: list[list[float]]) -> dict[str, float]:
    """Each operation's median scaled time over the passes."""
    return {op.name: statistics.median(t[i] for t in op_times) for i, op in enumerate(w.ops)}


def cli_expectations(w, first) -> list[dict]:
    by_name = {op.name: out for op, out in zip(w.ops, first)}
    calls = []
    for call in w.cli:
        out = by_name[call.op]
        if isinstance(out, Raised):
            calls.append({"argv": call.argv, "code": None, "expect": None})
            continue
        code, expect = call.expect(out)
        calls.append({"argv": call.argv, "code": code, "expect": expect})
    return calls


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "missingmass": mm.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# -- per-layer metrics from spans --------------------------------------------


def _pct(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    return float(np.percentile(values, q))


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(spans, traced_passes: int) -> dict[str, float]:
    """Per-layer figures: per pass for the timed operations, plus the set-up
    calls (builds, distance matrices) once.  0 where the workload does not
    call the layer."""
    per = 1.0 / traced_passes
    selfs = self_times(spans)

    def pick(layer=None, kind=None, name=None, setup=None):
        out = []
        for s in spans:
            if layer and s.layer != layer:
                continue
            if kind and s.fields.get(kind[0]) != kind[1]:
                continue
            if name and not s.name.endswith(name):
                continue
            if setup is not None and (s.op == "setup") != setup:
                continue
            out.append(s)
        return out

    def total(ss):
        """Pass spans averaged per pass, plus set-up spans once."""
        return sum(s.dur * (1.0 if s.op == "setup" else per) for s in ss)

    def count(ss, key):
        return sum(s.fields.get(key, 0) * (1.0 if s.op == "setup" else per) for s in ss)

    m: dict[str, float] = {}
    builds = pick("distributions", ("kind", "build"))
    m["distributions.build_s"] = total(builds)
    m["distributions.atoms"] = count(builds, "atoms")
    truncs = pick("distributions", ("kind", "truncate"), setup=False)
    m["distributions.truncate_s"] = total(truncs)
    m["distributions.truncate_atoms"] = count(truncs, "atoms")

    mass = pick("mass", setup=False)
    terms = {s.sid: s.fields.get("atoms", 0) * s.fields.get("ts", 0) for s in mass}
    distinct = sum(s.fields.get("distinct", 0) * s.fields.get("ts", 0) for s in mass)
    m["distributions.distinct_frac"] = _ratio(distinct, sum(terms.values()))
    m["mass.calls"] = len(mass) * per
    m["mass.busy_s"] = total(mass)
    m["mass.terms"] = sum(terms.values()) * per
    for kind in ("bulk", "small", "interval"):
        ss = [s for s in mass if s.fields.get("kind") == kind]
        m[f"mass.{kind}.ns_per_term"] = _ratio(sum(s.dur for s in ss),
                                               sum(terms[s.sid] for s in ss), 1e9)

    thr = pick("extremal", name="find_threshold", setup=False)
    m["extremal.threshold_s"] = total(thr)
    m["extremal.t_scanned"] = count(thr, "t_scanned")
    m["extremal.us_per_t"] = _ratio(m["extremal.threshold_s"], m["extremal.t_scanned"], 1e6)
    mx = [s.dur * 1e6 for s in pick("extremal", name="maximize_missing_mass", setup=False)]
    m["extremal.maximize_p50_us"] = _pct(mx, 50)
    m["extremal.maximize_p90_us"] = _pct(mx, 90)
    m["extremal.maximize_samples"] = float(len(mx))
    m["extremal.oracle_s"] = total(pick("extremal", name="simplex_grid_oracle", setup=False))

    rate = pick("constructions", name="rate_lb", setup=False)
    m["constructions.rate_lb_s"] = total(rate)
    m["constructions.support_atoms"] = count(rate, "atoms")
    m["constructions.doublings"] = count(rate, "doublings")

    cells = [s for s in pick("sampling", setup=False) if "replicates" in s.fields]
    m["sampling.cells"] = len(cells) * per
    m["sampling.replicates"] = count(cells, "replicates")
    m["sampling.busy_s"] = total(cells)
    m["sampling.us_per_replicate"] = _ratio(m["sampling.busy_s"], m["sampling.replicates"], 1e6)
    m["sampling.cell_p50_s"] = _pct([s.dur for s in cells], 50)
    m["sampling.cell_samples"] = float(len(cells))
    fit = {}
    for tag in ("lo", "hi"):
        ss = [s for s in cells if s.fields.get("fit") == tag]
        if ss:
            fit[tag] = (ss[0].fields["t"],
                        statistics.median(s.dur / s.fields["replicates"] for s in ss))
    if len(fit) == 2:
        (t_lo, us_lo), (t_hi, us_hi) = fit["lo"], fit["hi"]
        per_draw = (us_hi - us_lo) / (t_hi - t_lo)
        m["sampling.ns_per_draw"] = per_draw * 1e9
        m["sampling.fixed_us_per_replicate"] = (us_lo - t_lo * per_draw) * 1e6
    else:
        m["sampling.ns_per_draw"] = m["sampling.fixed_us_per_replicate"] = 0.0

    dist_spans = pick("cover", ("kind", "distances"))
    m["cover.distances_s"] = total(dist_spans)
    m["cover.ns_per_pair"] = _ratio(m["cover.distances_s"], count(dist_spans, "pairs"), 1e9)
    mc = pick("cover", ("kind", "mc"), setup=False)
    m["cover.mc_us_per_replicate"] = _ratio(total(mc), count(mc, "replicates"), 1e6)
    for kind in ("greedy", "exact", "expected"):
        m[f"cover.{kind}_s"] = total(pick("cover", ("kind", kind), setup=False))
    m["cover.net_size"] = count(pick("cover", ("kind", "greedy"), setup=False), "size")

    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(selfs[s.sid] for s in spans
                                   if s.layer == layer and s.op != "setup") * per
    return m


def cli_overhead(w, op_time: dict[str, float]) -> float:
    """In-process `cli.main(argv)` time minus the direct library call that
    does the same work, summed over the workload's CLI calls (scaled
    medians of 3)."""
    total = 0.0
    for call in w.cli:
        times, probes = [], [calibrate.probe()]
        for _ in range(3):
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                mml_cli.main(call.argv)
            times.append(time.perf_counter() - start)
            probes.append(calibrate.probe())
        total += statistics.median(calibrate.scaled(times, probes)) - op_time[call.op]
    return total


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("setup", "run", "trace"))
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--workdir", type=Path, required=True)
    args = p.parse_args(argv)
    if not Path(mm.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"imported missingmass from {mm.__file__}, not from this checkout", file=sys.stderr)
        return 2

    tr = Tracer(enabled=args.mode == "trace")
    w = workloads.build(args.workload, args.seed, args.workdir, tr)
    if args.mode == "setup":
        return 0

    result = {"env": environment(), "ops": len(w.ops)}
    if args.mode == "run":
        passes, op_times, first, changed, probes = run_passes(w, tr, args.seconds, MIN_PASSES)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["op_s"] = per_op(w, op_times)
        result["wall_s"] = sum(result["op_s"].values())
        result["passes"] = passes
        result["probe_median_s"] = statistics.median(probes)
    else:
        # even passes untraced, odd passes traced; the difference is the overhead
        passes, op_times, first, changed, _ = run_passes(
            w, tr, args.seconds, 2 * 2, traced=lambda k: k % 2 == 1)
        plain = per_op(w, op_times[0::2])
        spans = tr.finished()
        metrics = layer_metrics(spans, len(passes[1::2]))
        metrics["trace.overhead_s"] = (sum(per_op(w, op_times[1::2]).values())
                                       - sum(plain.values()))
        metrics["cli.overhead_s"] = cli_overhead(w, plain)
        result["metrics"] = metrics
        result["passes"] = passes
        tr.write(args.workdir / "spans.jsonl.gz")
    failures, alarms = check_outputs(w, first, changed)
    result["failures"] = failures
    result["mc_false_alarms"] = alarms
    result["cli"] = cli_expectations(w, first)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
