#!/usr/bin/env python3
"""How tight are the distribution-free bounds against their witnesses?

Prints t * E[U_t] normalized by (n-1) for the two-level finite construction
and by a for the dyadic-block family.  The finite column is pinned between
8/27 and 1/e; the countable column stays below C* = 1.44270930, the sharp
constant of the countable-support bound E[U_t] <= ell C*/t (proved in the
``missingmass.mass`` docstring), so any c <= 1/C* = 0.69314033 is valid.
"""

import argparse

from missingmass import (
    expected_missing_mass,
    missing_mass_curve,
    tight_countable,
    tight_finite,
    truncate,
)


def finite_table(n_values, multipliers) -> None:
    print("two-level construction: t*E/(n-1)  (rows n, cols t/n)")
    print(f"{'n':>5}", *(f"{m:>9}" for m in multipliers))
    for n in n_values:
        cells = []
        for m in multipliers:
            t = m * n + 1
            cells.append(t * expected_missing_mass(tight_finite(n, t), t) / (n - 1))
        print(f"{n:>5}", *(f"{c:>9.4f}" for c in cells))
    print(f"(floor 8/27 = {8 / 27:.4f})\n")


def countable_table(a_values, multipliers) -> None:
    print("dyadic blocks: t*E/a  (rows a, cols t/a)")
    print(f"{'a':>5}", *(f"{m:>9}" for m in multipliers))
    worst = 0.0
    for a in a_values:
        ts = [m * a for m in multipliers]
        upper = missing_mass_curve(truncate(tight_countable(a), 1e-12), ts).upper
        cells = [t * hi / a for t, hi in zip(ts, upper)]
        worst = max(worst, *cells)
        print(f"{a:>5}", *(f"{c:>9.4f}" for c in cells))
    print(f"(floor 4/27 = {4 / 27:.4f}; grid max {worst:.4f} -> c = {1 / worst:.4f})")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-grid", default="2,5,10,30,100")
    ap.add_argument("--a-grid", default="2,4,8,16,32,64")
    ap.add_argument("--multipliers", default="2,5,10,30,100")
    args = ap.parse_args()

    mults = [int(v) for v in args.multipliers.split(",")]
    finite_table([int(v) for v in args.n_grid.split(",")], mults)
    countable_table([int(v) for v in args.a_grid.split(",")], mults)


if __name__ == "__main__":
    main()
