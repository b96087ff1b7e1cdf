"""Benchmark of the missingmass package and its `mml` CLI.

    python3 bench/run.py --workload W --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Workloads: mc-small-support,
mc-large-support, closed-form (see bench/README.md).  Everything runs
serially: one child interpreter or one `mml` subprocess at a time, with BLAS
pinned to one thread and MML_THREADS unset.

--trace 0 prints the end-to-end metrics (setup_s, wall_s, cli_s, peak_rss_mb,
failed_frac); --trace 1 prints the per-layer metrics of a separate traced
run and the tracing overhead.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Intermediate files
go to .bench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
REFERENCE = Path(calibrate.__file__).resolve()
WORKLOADS = ("mc-small-support", "mc-large-support", "closed-form")  # as in workloads.py

# Load outside the container slows the same code by up to 2x, for moments or
# for minutes.  Every timed process (set-up, CLI) therefore runs between two
# runs of a fixed reference process (bench/calibrate.py) and is reported at
# the reference speed; in-process operations are scaled the same way by an
# in-process probe (see worker.py).  Each metric is a median of repetitions.
CLI_ROUNDS = 4      # repetitions of the workload's `mml` list, timed per call;
                    # set-up is timed CLI_ROUNDS + 2 times
STARTUP_SAMPLES = 5
DEADLINE_S = 170.0  # the whole run must end within 180 s

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cli_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics of the traced run: name -> (unit, better).  The layers are
# the package's modules; "bench" is the benchmark's own code between calls.
PER_LAYER = {
    "distributions.build_s": ("s", "lower"),
    "distributions.atoms": ("count", "lower"),
    "distributions.truncate_s": ("s", "lower"),
    "distributions.truncate_atoms": ("count", "lower"),
    "distributions.distinct_frac": ("ratio", "lower"),
    "mass.calls": ("count", "lower"),
    "mass.busy_s": ("s", "lower"),
    "mass.terms": ("count", "lower"),
    "mass.bulk.ns_per_term": ("ns", "lower"),
    "mass.small.ns_per_term": ("ns", "lower"),
    "mass.interval.ns_per_term": ("ns", "lower"),
    "extremal.threshold_s": ("s", "lower"),
    "extremal.t_scanned": ("count", "lower"),
    "extremal.us_per_t": ("us", "lower"),
    "extremal.maximize_p50_us": ("us", "lower"),
    "extremal.maximize_p90_us": ("us", "lower"),
    "extremal.maximize_samples": ("count", "higher"),
    "extremal.oracle_s": ("s", "lower"),
    "constructions.rate_lb_s": ("s", "lower"),
    "constructions.support_atoms": ("count", "lower"),
    "constructions.doublings": ("count", "lower"),
    "sampling.cells": ("count", "lower"),
    "sampling.replicates": ("count", "lower"),
    "sampling.busy_s": ("s", "lower"),
    "sampling.us_per_replicate": ("us", "lower"),
    "sampling.cell_p50_s": ("s", "lower"),
    "sampling.cell_samples": ("count", "higher"),
    "sampling.ns_per_draw": ("ns", "lower"),
    "sampling.fixed_us_per_replicate": ("us", "lower"),
    "cover.distances_s": ("s", "lower"),
    "cover.ns_per_pair": ("ns", "lower"),
    "cover.mc_us_per_replicate": ("us", "lower"),
    "cover.greedy_s": ("s", "lower"),
    "cover.exact_s": ("s", "lower"),
    "cover.expected_s": ("s", "lower"),
    "cover.net_size": ("count", "lower"),
    "cli.interp_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.overhead_s": ("s", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
    **{f"{layer}.self_s": ("s", "lower")
       for layer in ("distributions", "mass", "extremal", "constructions", "sampling",
                     "cover", "bench")},
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("MML_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Runner:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.workdir = Path(".bench_work") / f"{workload}-s{seed}"
        self.env = child_env()
        self.deadline = time.monotonic() + DEADLINE_S
        self.last_reference: float | None = None

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 1.0:
            raise BenchError("out of time before the run finished")
        return left

    def spawn(self, cmd: list[str]) -> tuple[float, subprocess.CompletedProcess]:
        """Run cmd to completion; returns its wall time and the finished process."""
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  timeout=self.remaining())
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
            raise BenchError(f"timed out: {' '.join(cmd)}") from exc
        return time.perf_counter() - start, proc

    def timed(self, cmd: list[str]) -> tuple[float, subprocess.CompletedProcess]:
        """Run cmd between two reference processes; returns its wall time at
        the reference speed, judged by the mean of the two, and the process."""
        if self.last_reference is None:
            self.last_reference = self.spawn([sys.executable, str(REFERENCE)])[0]
        dt, proc = self.spawn(cmd)
        after = self.spawn([sys.executable, str(REFERENCE)])[0]
        scaled = dt * 2.0 * calibrate.PROCESS_REFERENCE_S / (self.last_reference + after)
        self.last_reference = after
        return scaled, proc

    def worker(self, mode: str, timed: bool = False) -> tuple[float, dict | None]:
        cmd = [sys.executable, str(WORKER), mode, "--workload", self.workload,
               "--seed", str(self.seed), "--seconds", str(self.seconds),
               "--workdir", str(self.workdir)]
        if timed:
            dt, proc = self.timed(cmd)
        else:
            dt, proc = self.spawn(cmd)
            self.last_reference = None  # the machine may have changed meanwhile
        if proc.returncode != 0:
            raise BenchError(f"worker {mode} exited {proc.returncode}:\n"
                             + proc.stderr.decode(errors="replace")[-3000:])
        lines = proc.stdout.decode().strip().splitlines()
        return dt, (json.loads(lines[-1]) if lines else None)

    def cli_round(self, calls: list[dict]) -> tuple[list[float], list[tuple[int, bytes]]]:
        times, outs = [], []
        for call in calls:
            dt, proc = self.timed([sys.executable, "-m", "missingmass.cli", *call["argv"]])
            times.append(dt)
            outs.append((proc.returncode, proc.stdout))
        return times, outs

    def startup(self, code: str) -> float:
        return min(self.spawn([sys.executable, "-c", code])[0] for _ in range(STARTUP_SAMPLES))


def json_subset(expect, actual) -> bool:
    """Every key of `expect` is in `actual` with an equal value, recursively."""
    if isinstance(expect, dict):
        return isinstance(actual, dict) and all(
            k in actual and json_subset(v, actual[k]) for k, v in expect.items())
    if isinstance(expect, list):
        return (isinstance(actual, list) and len(expect) == len(actual)
                and all(json_subset(e, a) for e, a in zip(expect, actual)))
    return expect == actual


def check_cli(call: dict, code: int, stdout: bytes) -> list[str]:
    name = "mml " + " ".join(call["argv"][:3])
    if call["code"] is None:
        return [f"{name}: the in-process operation it mirrors failed"]
    if code != call["code"]:
        return [f"{name}: exit code {code}, library verdict gives {call['code']}"]
    try:
        obj = json.loads(stdout)
    except ValueError:
        return [f"{name}: output is not JSON"]
    if not json_subset(call["expect"], obj):
        return [f"{name}: output differs from the in-process library result"]
    return []


def environment(worker_env: dict) -> dict:
    commit = None
    try:  # only when the checkout is itself a git work tree
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                   capture_output=True, timeout=10).stdout.decode().split()
        if Path(top).resolve() == ROOT:
            commit = head
    except (OSError, subprocess.TimeoutExpired, ValueError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16],
            "nproc": os.cpu_count(), **worker_env,
            # set by the caller; always removed for the child processes
            "mml_threads_set": "MML_THREADS" in os.environ}


def run(args) -> dict:
    r = Runner(args.workload, args.seed, args.seconds)
    r.worker("setup")  # untimed: compiles bytecode, writes the input files

    samples, notes = {}, {}
    if args.trace:
        _, res = r.worker("trace")
        metrics = dict(res["metrics"])
        interp = r.startup("pass")
        metrics["cli.interp_s"] = interp
        metrics["cli.import_s"] = r.startup("import missingmass") - interp
        _, outs = r.cli_round(res["cli"])
        metrics["cli.output_bytes"] = float(sum(len(out) for _, out in outs))
        rounds = [outs]
        if set(metrics) != set(PER_LAYER):
            raise BenchError(f"per-layer metrics differ from the declared set: "
                             f"{sorted(set(metrics) ^ set(PER_LAYER))}")
    else:
        # set-up samples and CLI rounds alternate, before and after the timed
        # run, so the repetitions see different states of the machine
        setup = [r.worker("setup", timed=True)[0]]
        _, res = r.worker("run")
        cli_times, rounds = [], []
        for _ in range(CLI_ROUNDS):
            times, outs = r.cli_round(res["cli"])
            cli_times.append(times)
            rounds.append(outs)
            setup.append(r.worker("setup", timed=True)[0])
        setup.append(r.worker("setup", timed=True)[0])
        metrics = {"setup_s": statistics.median(setup), "wall_s": res["wall_s"],
                   "cli_s": sum(statistics.median(ts) for ts in zip(*cli_times)),
                   "peak_rss_mb": res["peak_rss_mb"]}
        samples = {"setup_s": setup, "passes": res["passes"], "op_s": res["op_s"],
                   "cli_rounds": cli_times}
        notes = {"setup_s": f"median of {len(setup)}",
                 "wall_s": f"sum of per-operation medians over {len(res['passes'])} passes; "
                           f"raw median pass {statistics.median(res['passes']):.4f} s, "
                           f"median probe {res['probe_median_s'] * 1e3:.3f} ms",
                 "cli_s": f"sum of per-invocation medians over {CLI_ROUNDS} rounds"}

    failures = list(res["failures"])
    for i, call in enumerate(res["cli"]):
        for outs in rounds:
            reasons = check_cli(call, *outs[i])
            if reasons:
                failures.append({"op": "mml " + " ".join(call["argv"]), "reasons": reasons,
                                 "known_defect": None})
                break
    return {"workdir": r.workdir, "res": res, "metrics": metrics, "samples": samples,
            "notes": notes, "failures": failures, "attempted": res["ops"] + len(res["cli"])}


def report(args, out: dict) -> None:
    metrics, failures, attempted = out["metrics"], out["failures"], out["attempted"]
    failed = len(failures)
    known = sum(1 for f in failures if f["known_defect"])
    units = {k: u for k, (u, _) in PER_LAYER.items()} | END_TO_END_UNITS
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for name, value in metrics.items():
        note = out["notes"].get(name)
        print(f"  {name:34s} {value:12.6g} {units[name]}" + (f"  ({note})" if note else ""))
    print(f"  {'failed_frac':34s} {failed / attempted:12.6g} ratio"
          f"  ({failed} of {attempted} operations failed, {known} by known defects)")
    print(f"  3-sigma false alarms within {6:g} se, not counted: {out['res']['mc_false_alarms']}")
    for f in failures:
        tag = f" [known defect: {f['known_defect']}]" if f["known_defect"] else ""
        print(f"  FAILED {f['op']}{tag}: " + "; ".join(f["reasons"]))
    env = environment(out["res"]["env"])
    print("env " + json.dumps(env))

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "metrics": metrics, "samples": out["samples"],
              "attempted": attempted, "failures": failures}
    (out["workdir"] / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(json.dumps({
        # failures explained by known defects count as failed, but do not
        # make the run incorrect
        "correct": all(f["known_defect"] for f in failures),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=16.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not (ROOT / "src" / "missingmass" / "__init__.py").is_file():
        print(f"no missingmass source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # turn SIGTERM into an exception: subprocess.run then kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        out = run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    report(args, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
