"""LP calls, simplex iterations and eigh calls of the scaling entry points on benchmark inputs.

Run from the repository root:

    python3 scripts/lp_census.py --seed 1
    python3 scripts/lp_census.py --seed 1 --src ../other-checkout/src
    python3 scripts/lp_census.py --seeds 1-100

For the certify and refute inputs of the seed (perfbench/inputs.py, read
as it is), each frame goes through solve_scaling and
gramian_scaling_check, and each normal-operator system through
normal_scalability, in that order and one call at a time.  Every
numkernel.linprog call is counted against the entry point that made it,
under every name a dynframe module holds it by, and so is every
np.linalg.eigh call, which dynframe looks up on np.linalg.  One line per
workload and entry point gives the LP calls, the simplex iterations, the
eigh calls and the verdicts that match the construction; an entry point
that raises counts as a wrong verdict and is named on stderr.  With
--seeds FIRST-LAST, one line per workload gives instead the histogram of
LP calls per pass over those seeds, all entry points together, as
calls:passes pairs.
"""

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENTRIES = ("solve_scaling", "gramian_scaling_check", "normal_scalability")


def census(seed):
    """{(workload, entry): [calls, iterations, eigh calls, right, attempted]}."""
    import inputs
    import numpy as np
    from dynframe import numkernel
    from dynframe.frames import Frame
    from dynframe.scalability import (ScalingCertificate, gramian_scaling_check,
                                      normal_scalability, solve_scaling)

    counts, current = {}, [None]
    original, eigh = numkernel.linprog, np.linalg.eigh

    def counted(*args, **kwargs):
        res = original(*args, **kwargs)
        counts[current[0]][0] += 1
        counts[current[0]][1] += res.nit
        return res

    def counted_eigh(*args, **kwargs):
        counts[current[0]][2] += 1
        return eigh(*args, **kwargs)

    rebound = [(mod, key) for name, mod in list(sys.modules.items())
               if name.startswith("dynframe") and mod is not None
               for key, value in vars(mod).items() if value is original]
    for mod, key in rebound:
        setattr(mod, key, counted)
    np.linalg.eigh = counted_eigh
    try:
        for workload, items in (("certify", inputs.certify_inputs(seed)),
                                ("refute", inputs.refute_inputs(seed))):
            for item in items:
                frame = Frame(item["F"])
                calls = [("solve_scaling",
                          lambda: isinstance(solve_scaling(frame), ScalingCertificate)),
                         ("gramian_scaling_check", lambda: gramian_scaling_check(frame)[2])]
                if "normal" in item:
                    calls.append(("normal_scalability", lambda: isinstance(
                        normal_scalability(*item["normal"]), ScalingCertificate)))
                for entry, call in calls:
                    current[0] = (workload, entry)
                    tally = counts.setdefault(current[0], [0, 0, 0, 0, 0])
                    tally[4] += 1
                    try:
                        tally[3] += call() == item["scalable"]
                    except Exception as exc:  # a raise is a wrong verdict, named below
                        print(f"{workload} {item['name']} {entry}: "
                              f"{type(exc).__name__}: {exc}", file=sys.stderr)
    finally:
        for mod, key in rebound:
            setattr(mod, key, original)
        np.linalg.eigh = eigh
    return counts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="the src/ directory that holds the dynframe package")
    parser.add_argument("--seeds", metavar="FIRST-LAST",
                        help="histogram of LP calls per pass over these seeds")
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.abspath(args.src), os.path.join(ROOT, "perfbench")]
    if args.seeds:
        first, last = map(int, args.seeds.split("-"))
        histogram = {"certify": {}, "refute": {}}
        for seed in range(first, last + 1):
            counts = census(seed)
            for workload, passes in histogram.items():
                calls = sum(counts.get((workload, entry), [0])[0] for entry in ENTRIES)
                passes[calls] = passes.get(calls, 0) + 1
        print(f"seeds {first}-{last}, LP calls per pass (calls:passes)")
        for workload, passes in histogram.items():
            print(f"{workload:<9} " + " ".join(f"{calls}:{n}" for calls, n in sorted(passes.items())))
        return 0
    counts = census(args.seed)
    print(f"seed {args.seed}")
    print(f"{'workload':<9} {'entry point':<22} {'calls':>5} {'nit':>5} {'eigh':>5}  right")
    for workload in ("certify", "refute"):
        total = [0, 0, 0]
        for entry in ENTRIES:
            *tally, right, attempted = counts.get((workload, entry), [0, 0, 0, 0, 0])
            total = [a + b for a, b in zip(total, tally)]
            print(f"{workload:<9} {entry:<22} {tally[0]:>5} {tally[1]:>5} {tally[2]:>5}  "
                  f"{right}/{attempted}")
        print(f"{workload:<9} {'all':<22} {total[0]:>5} {total[1]:>5} {total[2]:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
