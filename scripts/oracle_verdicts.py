"""Verdicts, eigh calls and LP calls of the Gramian oracle on fixed frame families.

Run from the repository root, once per source tree, and diff the outputs:

    python3 scripts/oracle_verdicts.py src > new.txt
    python3 scripts/oracle_verdicts.py ../other-checkout/src > old.txt
    diff old.txt new.txt

Every frame goes through gramian_scaling_check of the dynframe package
under the given src/ directory, one call at a time in one process.  The
frames are drawn here with numpy alone, or read from this checkout's
perfbench/inputs.py, so both trees get the same inputs.  One line per
family gives the number of frames, the verdicts True and False, the calls
that raised, the np.linalg.eigh and numkernel.linprog calls the oracle
made, and the sha256 of the verdict list (T, F or R per frame, in order).
A call that raises is also named on stderr.  The families:

* certify, refute: the benchmark inputs of seeds 1-30;
* badly-scaled: 800 real frames from default_rng(2026), n uniform in
  {2, 3, 4}, k = max(n, n(n+1)/2 + U{-2..3}), Gaussian columns each
  times exp(U(-12, 12));
* random: 400 frames from default_rng(7), n = 2-6, 20 of each kind per
  n, alternately real and complex: Parseval rows divided by U(0.4, 2.5)
  weights (scalable), Gaussian, Parseval, and Gaussian with
  k = n(n+1)/2 + 1;
* basis-plus-one: 200 orthonormal bases plus one Gaussian vector from
  default_rng(11), n = 2-6, alternately real and complex;
* boundary: unit columns at 0, 90, 10 and 45 degrees (scalable with
  margin 0).
"""

import argparse
import hashlib
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _gaussian(rng, n, k, cplx):
    m = rng.standard_normal((n, k))
    return m + 1j * rng.standard_normal((n, k)) if cplx else m


def _unitary(rng, n, cplx):
    q, r = np.linalg.qr(_gaussian(rng, n, n, cplx))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def badly_scaled():
    rng = np.random.default_rng(2026)
    for _ in range(800):
        n = int(rng.integers(2, 5))
        k = max(n, n * (n + 1) // 2 + int(rng.integers(-2, 4)))
        yield rng.standard_normal((n, k)) * np.exp(rng.uniform(-12.0, 12.0, size=k))


def random_frames():
    rng = np.random.default_rng(7)
    for n in range(2, 7):
        for rep in range(20):
            cplx = rep % 2 == 1
            k = n + 1 + int(rng.integers(n * (n + 1) // 2))
            yield _unitary(rng, k, cplx)[:n] / rng.uniform(0.4, 2.5, size=k)
            yield _gaussian(rng, n, k, cplx)
            yield _unitary(rng, k, cplx)[:n]
            yield _gaussian(rng, n, n * (n + 1) // 2 + 1, cplx)


def basis_plus_one():
    rng = np.random.default_rng(11)
    for i in range(200):
        n, cplx = 2 + i % 5, (i // 5) % 2 == 1
        yield np.column_stack([_unitary(rng, n, cplx), _gaussian(rng, n, 1, cplx)])


def boundary():
    t = np.radians([0.0, 90.0, 10.0, 45.0])
    yield np.vstack([np.cos(t), np.sin(t)])


def families():
    import inputs

    seeds = range(1, 31)
    yield "certify", (item["F"] for s in seeds for item in inputs.certify_inputs(s))
    yield "refute", (item["F"] for s in seeds for item in inputs.refute_inputs(s))
    yield "badly-scaled", badly_scaled()
    yield "random", random_frames()
    yield "basis-plus-one", basis_plus_one()
    yield "boundary", boundary()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src", help="the src/ directory that holds the dynframe package")
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)
    if not os.path.isdir(os.path.join(src, "dynframe")):
        parser.error(f"{src} holds no dynframe package")
    sys.path[:0] = [src, os.path.join(ROOT, "perfbench")]
    from dynframe import numkernel
    from dynframe.frames import Frame
    from dynframe.scalability import gramian_scaling_check

    counts = {"eigh": 0, "lp": 0}
    linprog, eigh = numkernel.linprog, np.linalg.eigh

    def counted_lp(*a, **kw):
        counts["lp"] += 1
        return linprog(*a, **kw)

    def counted_eigh(*a, **kw):
        counts["eigh"] += 1
        return eigh(*a, **kw)

    rebound = [(mod, key) for name, mod in list(sys.modules.items())
               if name.startswith("dynframe") and mod is not None
               for key, value in vars(mod).items() if value is linprog]
    for mod, key in rebound:
        setattr(mod, key, counted_lp)
    np.linalg.eigh = counted_eigh
    print(f"{'family':<15} {'frames':>6} {'True':>5} {'False':>5} {'raised':>6} "
          f"{'eigh':>5} {'LPs':>4}  sha256")
    try:
        for name, frames in families():
            counts.update(eigh=0, lp=0)
            verdicts = []
            for i, m in enumerate(frames):
                try:
                    verdicts.append("T" if gramian_scaling_check(Frame(m))[2] else "F")
                except Exception as exc:  # a raise is counted, and named on stderr
                    verdicts.append("R")
                    print(f"{name} {i}: {type(exc).__name__}: {exc}", file=sys.stderr)
            digest = hashlib.sha256("".join(verdicts).encode()).hexdigest()
            print(f"{name:<15} {len(verdicts):>6} {verdicts.count('T'):>5} "
                  f"{verdicts.count('F'):>5} {verdicts.count('R'):>6} {counts['eigh']:>5} "
                  f"{counts['lp']:>4}  {digest}", flush=True)
    finally:
        for mod, key in rebound:
            setattr(mod, key, linprog)
        np.linalg.eigh = eigh
    return 0


if __name__ == "__main__":
    sys.exit(main())
