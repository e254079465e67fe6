"""Sweep the 2x2 scalability criterion against the feasibility solver.

For vectors {e1, (a,b), (c,d)} the closed-form test is 0 < -ac/(bd) < 1.
This script fixes (a, b, d) grids, walks the ratio through and past the
unit interval, and reports where the strict solver agrees.  Useful for
eyeballing how the margin collapses at the endpoints.
"""

import argparse
import sys

import numpy as np

from dynframe.frames import Frame
from dynframe.scalability import ScalingCertificate, solve_scaling


def sweep(ratios, params, tol):
    rows = []
    for a, b, d in params:
        for r in ratios:
            c = -r * b * d / a
            res = solve_scaling(Frame(np.array([[1.0, a, c], [0.0, b, d]])), tol=tol)
            if isinstance(res, ScalingCertificate):
                rows.append((a, b, d, r, res.margin, res.strict))
            else:
                rows.append((a, b, d, r, float("nan"), False))
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--step", type=float, default=0.05,
                    help="ratio step inside [lo, hi] (default 0.05)")
    ap.add_argument("--lo", type=float, default=-0.25)
    ap.add_argument("--hi", type=float, default=1.25)
    ap.add_argument("--tol", type=float, default=1e-9)
    ap.add_argument("--csv", default=None, help="also write rows here")
    args = ap.parse_args(argv)

    # rounded so that grid points such as 1.0 are exact and not 0.9999999999999998
    ratios = np.round(np.arange(args.lo, args.hi + args.step / 2, args.step), 12)
    params = [(a, b, d)
              for a in (0.5, 1.0, 2.0)
              for b in (-1.0, 1.0, 1.5)
              for d in (-1.3, 0.7, 1.0)]
    rows = sweep(ratios, params, args.tol)

    mismatches = 0
    print(f"{'a':>5} {'b':>5} {'d':>5} {'ratio':>7} {'margin':>11} strict")
    for a, b, d, r, margin, strict in rows:
        predicted = 0.0 < r < 1.0
        mark = ""
        if predicted != strict:
            mark = "  <-- disagrees with criterion"
            mismatches += 1
        print(f"{a:5.2f} {b:5.2f} {d:5.2f} {r:7.3f} {margin:11.3e} {strict!s:5}{mark}")

    print()
    print(f"{len(rows)} points, {mismatches} criterion/solver mismatches")
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("a,b,d,ratio,margin,strict\n")
            for a, b, d, r, margin, strict in rows:
                fh.write(f"{a},{b},{d},{r},{margin},{int(strict)}\n")
        print(f"wrote {args.csv}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
