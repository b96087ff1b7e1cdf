"""Command-line interface: every operation behind one scriptable binary.

All randomness flows from --seed (simulate only), so any invocation is
reproducible from its flags alone.  JSON is the default output; t-grids and
distributions can also be emitted as CSV.  Exit codes: 0 success, 2 invalid
input or usage, 3 when a verification subcommand detects a bound violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from . import constructions, cover, extremal, mass, sampling
from .distributions import BlockVector, CountableFamily, ProbVector
from .errors import MissingMassError
from .mass import DEFAULT_COUNTABLE_C, DEFAULT_TOL

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_VIOLATION = 3


def _common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("json", "csv"), default="json",
                     help="output format (default json)")
    sub.add_argument("--out", type=Path, default=None,
                     help="write output to a file instead of stdout")


def _dist_flags(sub: argparse.ArgumentParser, countable: bool = True) -> None:
    """The distribution flags; the countable families and their parameters
    only on subcommands whose handler can take a countable family."""
    families = ("uniform", "geometric", "dyadic-blocks") if countable else ("uniform",)
    sub.add_argument("--family", choices=families, help="built-in family")
    sub.add_argument("--n", type=int, help="support size for --family uniform")
    if countable:
        sub.add_argument("--ratio", type=float, default=0.5,
                         help="ratio for --family geometric (default 0.5)")
        sub.add_argument("--a", type=int, help="block width for --family dyadic-blocks")
    sub.add_argument("--dist", type=Path,
                     help="distribution file (.json array / blocks object, or .csv)")


def _load_distribution(args) -> ProbVector | BlockVector | CountableFamily:
    if args.dist is not None:
        text = args.dist.read_text()
        if args.dist.suffix.lower() == ".csv":
            return ProbVector.from_csv_text(text)
        obj = json.loads(text)
        if isinstance(obj, dict) and "family" in obj:
            return CountableFamily.from_json_obj(obj)
        if isinstance(obj, dict) and "blocks" in obj:
            return BlockVector.from_json_obj(obj)
        return ProbVector.from_json_obj(obj)
    if args.family == "uniform":
        if args.n is None:
            raise MissingMassError("--family uniform needs --n")
        return ProbVector.uniform(args.n)
    if args.family == "geometric":
        return CountableFamily.geometric(args.ratio)
    if args.family == "dyadic-blocks":
        if args.a is None:
            raise MissingMassError("--family dyadic-blocks needs --a")
        return CountableFamily.dyadic_blocks(args.a)
    raise MissingMassError("give either --dist FILE or --family NAME")


def _load_cloud(path: Path) -> cover.PointCloud:
    text = path.read_text()
    if path.suffix.lower() == ".csv":
        return cover.PointCloud.from_csv_text(text)
    return cover.PointCloud.from_json_obj(json.loads(text))


def _parse_t_values(args) -> list[int]:
    if args.t is not None:
        return [args.t]
    spec = args.t_grid
    if spec is None:
        raise MissingMassError("give --t or --t-grid")
    if not spec.strip():
        raise MissingMassError(f"t grid {spec!r} is empty")
    if ":" not in spec:
        return [int(p) for p in spec.split(",")]
    parts = [int(p) for p in spec.split(":")]
    if len(parts) > 3 or parts[2:] == [0]:
        raise MissingMassError(f"t grid {spec!r} is not START:STOP[:STEP] with STEP != 0")
    start, stop, step = parts + [1] if len(parts) == 2 else parts
    # STOP is inclusive in either direction
    ts = list(range(start, stop + (1 if step > 0 else -1), step))
    if not ts:
        raise MissingMassError(f"t grid {spec!r} is empty")
    return ts


def _emit(args, obj, csv_text: str | None = None) -> None:
    if args.format == "csv":
        text = csv_text if csv_text is not None else _dict_to_csv(obj)
    else:
        text = json.dumps(obj, indent=2) + "\n"
    if args.out is not None:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)


def _dict_to_csv(obj) -> str:
    """Rows of dicts (never empty) as a header and one line per row, or one
    dict as key,value lines; a cell holding a comma is quoted."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if isinstance(obj, list):
        keys = list(obj[0].keys())
        writer.writerow(keys)
        writer.writerows([_csv_cell(row.get(k)) for k in keys] for row in obj)
    else:
        writer.writerows((k, _csv_cell(v)) for k, v in obj.items())
    return buf.getvalue()


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, tuple)):
        return " ".join(repr(x) for x in v)
    return json.dumps(v) if isinstance(v, dict) else str(v)


# -- subcommand handlers ----------------------------------------------------


def _cmd_emm(args) -> int:
    d = _load_distribution(args)
    ts = _parse_t_values(args)
    curve = mass.missing_mass_curve(d, ts, tol=args.tol)
    if len(ts) == 1:
        one = {"t": ts[0], "value": curve.values[0]}
        if curve.lower[0] != curve.upper[0]:
            one["lower"], one["upper"] = curve.lower[0], curve.upper[0]
        _emit(args, one)
    else:
        _emit(args, curve.to_json_obj(), curve.to_csv_text())
    return EXIT_OK


def _cmd_bounds(args) -> int:
    d = _load_distribution(args)
    ts = _parse_t_values(args)
    rows = []
    ok_all = True
    if isinstance(d, CountableFamily):
        from .distributions import plateau_length, truncate
        trunc = truncate(d, args.tol)
        ell = plateau_length(trunc)
        for t in ts:
            lo, hi = mass.expected_missing_mass_interval(trunc, t)
            bound = mass.bound_countable(ell, t)
            # E[U_t] lies in [lo, hi], and hi carries the truncation tail (up
            # to tol), which can exceed the rounding slack of a small bound:
            # only a lower end above the bound proves a violation
            ok = not sampling.is_violation(lo - bound, 0.0, lo, bound)
            ok_all &= ok
            rows.append({"t": t, "lower": lo, "upper": hi, "ell": ell,
                         "c": DEFAULT_COUNTABLE_C, "bound_countable": bound, "ok": ok})
    else:
        n = d.n
        for t in ts:
            value = mass.expected_missing_mass(d, t)
            bound = mass.bound_finite(n, t)
            ok = not sampling.is_violation(value - bound, 0.0, value, bound)
            ok_all &= ok
            rows.append({"t": t, "value": value, "n": n,
                         "bound_finite": bound, "ok": ok})
    _emit(args, rows if len(rows) > 1 else rows[0])
    return EXIT_OK if ok_all else EXIT_VIOLATION


def _cmd_extremal(args) -> int:
    sol = extremal.maximize_missing_mass(args.n, args.t)
    _emit(args, sol.to_json_obj())
    return EXIT_OK


def _cmd_tau(args) -> int:
    ns = [int(p) for p in args.n.split(",")]
    rows = [extremal.find_threshold(n, args.t_max).to_json_obj() for n in ns]
    _emit(args, rows if len(rows) > 1 else rows[0])
    return EXIT_OK


def _cmd_construct(args) -> int:
    if args.kind == "tight-finite":
        if args.n is None or args.t is None:
            raise MissingMassError("tight-finite needs --n and --t")
        d = constructions.tight_finite(args.n, args.t)
        _emit(args, d.to_json_obj(), d.to_csv_text())
    elif args.kind == "tight-countable":
        if args.a is None:
            raise MissingMassError("tight-countable needs --a")
        fam = constructions.tight_countable(args.a)
        _emit(args, fam.to_json_obj())
    else:  # rate-lb
        targets = _rate_targets(args)
        d = constructions.rate_lb(targets)
        _emit(args, d.to_json_obj())
    return EXIT_OK


def _rate_targets(args) -> list[float]:
    if args.r_file is not None:
        targets = json.loads(args.r_file.read_text())
        if not isinstance(targets, list):
            raise MissingMassError("--r-file must hold a JSON array of rates")
        return targets
    if args.t_max is None:
        raise MissingMassError("rate-lb needs --t-max (or --r-file)")
    if args.target == "inverse-log":
        return constructions.inverse_log_targets(args.t_max)
    return constructions.geometric_targets(args.t_max, args.ratio, args.scale)


def _cmd_gt(args) -> int:
    d = _load_distribution(args)
    if isinstance(d, CountableFamily):
        raise MissingMassError("gt needs a finite distribution")
    t = args.t
    est = mass.gt_expected_estimate(d, t)
    emm = mass.expected_missing_mass(d, t)
    single = mass.singleton_mass_expectation(d, t)
    _emit(args, {
        "t": t,
        "gt_expected": est,
        "expected_missing_mass": emm,
        "bias": est - emm,
        "singleton_over_t": single / t,
    })
    return EXIT_OK


def _cmd_simulate(args) -> int:
    if args.mode == "eps-mass":
        if args.cloud is None or args.eps is None:
            raise MissingMassError("eps-mass needs --cloud and --eps")
        report = cover.mc_eps_missing_mass(
            _load_cloud(args.cloud), args.t, args.eps, args.replicates, args.seed
        )
    else:
        d = _load_distribution(args)
        if isinstance(d, CountableFamily):
            raise MissingMassError("simulation needs a finite distribution")
        if args.mode == "bias":
            report = sampling.verify_bias(d, args.t, args.replicates, args.seed)
        else:
            if args.eps is None:
                raise MissingMassError("concentration needs --eps")
            report = sampling.verify_concentration(
                d, args.t, args.eps, args.replicates, args.seed
            )
    _emit(args, report.to_json_obj())
    return EXIT_VIOLATION if report.violated else EXIT_OK


def _cmd_cover(args) -> int:
    cloud = _load_cloud(args.cloud)
    report = cover.covering_bound_report(cloud, args.t, args.eps)
    net = cover.greedy_eps_net(cloud, args.eps)
    out = dict(report)
    out["centers"] = list(net.center_indices)
    if args.exact:
        out["exact_cover"] = cover.exact_covering_number(cloud, args.eps)
    _emit(args, out)
    return EXIT_OK if report["ok"] else EXIT_VIOLATION


def _cmd_oracle(args) -> int:
    value, point = extremal.simplex_grid_oracle(args.t, args.grid_step)
    _emit(args, {"t": args.t, "value": value, "point": list(point)})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mml",
        description="Missing-mass analysis: exact values, bounds, extremizers, "
                    "constructions, and Monte Carlo verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("emm", help="expected missing mass over a t-grid")
    _dist_flags(p)
    p.add_argument("--t", type=int)
    p.add_argument("--t-grid", help="START:STOP[:STEP] (inclusive) or comma list")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help=f"truncation tolerance of a countable family (default {DEFAULT_TOL:g})")
    _common_flags(p)
    p.set_defaults(handler=_cmd_emm)

    p = sub.add_parser("bounds", help="upper bounds alongside exact values")
    _dist_flags(p)
    p.add_argument("--t", type=int)
    p.add_argument("--t-grid")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help=f"truncation tolerance of a countable family (default {DEFAULT_TOL:g})")
    _common_flags(p)
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("extremal", help="maximizer of E[U_t] for given n, t")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    _common_flags(p)
    p.set_defaults(handler=_cmd_extremal)

    p = sub.add_parser("tau", help="uniform-to-bivalent threshold scan")
    p.add_argument("--n", required=True, help="support size or comma list")
    p.add_argument("--t-max", type=int, default=None)
    _common_flags(p)
    p.set_defaults(handler=_cmd_tau)

    p = sub.add_parser("construct", help="emit a named construction")
    p.add_argument("--kind", required=True,
                   choices=("tight-finite", "tight-countable", "rate-lb"))
    p.add_argument("--n", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--target", choices=("inverse-log", "geometric"),
                   default="inverse-log")
    p.add_argument("--t-max", type=int)
    p.add_argument("--ratio", type=float, default=0.5)
    p.add_argument("--scale", type=float, default=0.9)
    p.add_argument("--r-file", type=Path, help="JSON array of target rates")
    _common_flags(p)
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("gt", help="closed-form Good-Turing expectations and bias")
    _dist_flags(p, countable=False)
    p.add_argument("--t", type=int, required=True)
    _common_flags(p)
    p.set_defaults(handler=_cmd_gt)

    p = sub.add_parser("simulate", help="Monte Carlo verification")
    p.add_argument("--mode", required=True,
                   choices=("bias", "concentration", "eps-mass"))
    _dist_flags(p, countable=False)
    p.add_argument("--cloud", type=Path)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--eps", type=float)
    p.add_argument("--replicates", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0, help="master RNG seed (default 0)")
    _common_flags(p)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("cover", help="greedy eps-net and the covering bound")
    p.add_argument("--cloud", type=Path, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--exact", action="store_true",
                   help="also compute the exact covering number (small clouds)")
    _common_flags(p)
    p.set_defaults(handler=_cmd_cover)

    p = sub.add_parser("oracle", help="exhaustive 3-atom simplex grid search")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--grid-step", type=float, default=1e-3)
    _common_flags(p)
    p.set_defaults(handler=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (MissingMassError, OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        print(f"mml {args.command}: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
