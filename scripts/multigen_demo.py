"""Margin of the two-plane rotation system as the angle varies.

The system has two operators acting on R^3, each rotating a coordinate
plane through the shared generator e1, and produces five vectors.  At
alpha = 2*pi/3 the feasible weights are unique and the margin peaks at
exactly 1/3; this script traces the whole curve and prints the
certificate at the peak.
"""

import argparse

import numpy as np

from dynframe.constructions import multigen_rotation
from dynframe.dynamics import iterate
from dynframe.scalability import ScalingCertificate, solve_scaling


def system_at(alpha):
    return multigen_rotation([(0, 0, 1, 1, alpha), (0, 0, 2, 2, alpha)])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--points", type=int, default=41)
    ap.add_argument("--tol", type=float, default=1e-9)
    args = ap.parse_args()

    angles = np.linspace(0.05, np.pi - 0.05, args.points)
    print(f"{'alpha':>8}  {'margin':>11}  status")
    best = (None, -np.inf)
    for alpha in angles:
        res = solve_scaling(iterate(system_at(alpha)), tol=args.tol)
        if isinstance(res, ScalingCertificate):
            status = "strict" if res.strict else "boundary"
            print(f"{alpha:8.4f}  {res.margin:11.4e}  {status}")
            if res.margin > best[1]:
                best = (alpha, res.margin)
        else:
            print(f"{alpha:8.4f}  {'-':>11}  infeasible")

    alpha = 2 * np.pi / 3
    res = solve_scaling(iterate(system_at(alpha)), tol=args.tol)
    print(f"\nat alpha = 2*pi/3 = {alpha:.6f}:")
    if isinstance(res, ScalingCertificate):
        print(f"  weights^2 = {np.round(res.squares, 6)}")
        print(f"  margin    = {res.margin:.6f}  (exact value 1/3)")
        print(f"  residual  = {res.residual:.2e}")
    else:
        print("  infeasible (unexpected)")
    if best[0] is not None:
        print(f"best sweep margin {best[1]:.4f} near alpha = {best[0]:.4f}")


if __name__ == "__main__":
    main()
