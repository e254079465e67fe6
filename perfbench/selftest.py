"""Self-test of the answer checkers: true answers pass, corrupted ones do not.

Run from the repository root:

    python3 perfbench/selftest.py

Each case feeds a checker an answer the program really gives and then a
corrupted copy of it: perturbed weights, a witness pushed under the
scale-aware soundness bound, a reconstruction shifted by a unit vector,
a dual generator nudged off, and CLI outputs with one byte changed.  It
also checks that the benchmark's own draw of the ROADMAP item 1 frames
is exactly `random_scalable_frame`'s.  Exit code 0 when every case holds.
"""

import os
import sys

from benchenv import OUT_DIR  # pins the BLAS pools before numpy loads)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402

import dynframe as df  # noqa: E402
import dynframe.cli  # noqa: E402
from dynframe.instances import random_scalable_frame  # noqa: E402

RESULTS = []


def case(name, ok, detail=""):
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'}  {name}{'  ' + detail if detail and not ok else ''}")


def accepts(reason):
    return reason is None


def rejects(reason):
    return reason is not None


def test_draws():
    same = True
    for n, s in ((6, 0), (6, 17), (10, 11), (12, 19)):
        rng = np.random.default_rng(1000 * n + s)
        k = int(rng.integers(2 * n, 5 * n))
        frame, w = random_scalable_frame(rng, n, k)
        mine, w_mine = inputs.roadmap_frame(n, s)
        same &= np.array_equal(frame.matrix, mine) and np.array_equal(w, w_mine)
    case("ROADMAP frames reproduce random_scalable_frame bit for bit", same)


def test_certificate():
    f, w = inputs.roadmap_frame(6, 0)
    x = w ** 2
    case("certificate: construction weights accepted", accepts(checks.check_certificate(f, x)))
    rng = np.random.default_rng(0)
    bad = x * (1.0 + 1e-6 * rng.standard_normal(x.size))
    case("certificate: weights perturbed by 1e-6 rejected",
         rejects(checks.check_certificate(f, bad)))
    neg = x.copy()
    neg[0] = -1e-12
    case("certificate: a negative weight rejected", rejects(checks.check_certificate(f, neg)))
    res = df.solve_scaling(df.Frame(f))
    case("certificate: solve_scaling's answer accepted",
         accepts(checks.check_certificate(f, res.squares)))


def test_witness():
    f = inputs.orthant_frame(np.random.default_rng(1), 5, 7)
    res = df.solve_scaling(df.Frame(f))
    case("witness: solve_scaling's witness on an orthant frame accepted",
         isinstance(res, df.InfeasibleWitness) and accepts(checks.check_witness(f, res.y)))
    a, b = checks.vech_system(f)
    # Scale the witness down to a gap of 2 tol (still a proof), then raise
    # every entry of y'A along y1 (y1'A = 1, y1'b = 0) until the gap no
    # longer clears the soundness bound.
    y = res.y * (2 * checks.TOL / float(b @ res.y))
    case("witness: rescaled to gap 2 tol still accepted", accepts(checks.check_witness(f, y)))
    y1 = np.linalg.lstsq(np.vstack([a.T, b]), np.concatenate([np.ones(a.shape[1]), [0.0]]),
                         rcond=None)[0]
    c = 1e-15
    while checks.check_witness(f, y + c * y1) is None and c < 1.0:
        c *= 2.0
    reason = checks.check_witness(f, y + c * y1)
    viol = float(np.max((y + c * y1) @ a))
    case("witness: pushed under the soundness bound rejected",
         rejects(reason) and "soundness" in reason and viol <= checks.TOL, str(reason))

    # A false witness of the kind ROADMAP item 1 reports: on a scalable
    # frame, y'A = tol/2 everywhere gives gap = (tol/2) sum x > tol, so the
    # plain test (gap > tol, violation <= tol) passes; the scale-aware
    # bound does not.
    g, w = inputs.roadmap_frame(6, 0)
    a, b = checks.vech_system(g)
    y = np.linalg.lstsq(a.T, np.full(a.shape[1], checks.TOL / 2), rcond=None)[0]
    gap, viol = float(y @ b), float(np.max(y @ a))
    naive = gap > checks.TOL and viol <= checks.TOL
    case("witness: a false witness that passes the plain test rejected",
         naive and rejects(checks.check_witness(g, y)), f"gap {gap:.2e} viol {viol:.2e}")


def test_dynamics():
    item = inputs.dual_inputs(0)[20]
    ops, gens, triples = item["system"]
    spec = df.DynamicalSystemSpec(operators=ops, generators=gens, triples=triples)
    f = checks.iterate(ops, gens, triples)
    vec = item["f"]
    rec = df.reconstruct(spec, df.take_samples(spec, vec))
    case(f"reconstruction: dual route on {item['name']} accepted",
         accepts(checks.check_reconstruction(f, triples, vec, rec)))
    shifted = rec + inputs.unit(rec.size)
    case("reconstruction: shifted by a unit vector rejected",
         rejects(checks.check_reconstruction(f, triples, vec, shifted)))
    dual = df.dynamical_dual(spec)
    case("dual: F G* = I accepted",
         accepts(checks.check_dual(f, triples, dual.operators, dual.generators)))
    nudged = (dual.generators[0] * (1 + 1e-6),) + tuple(dual.generators[1:])
    case("dual: a generator scaled by 1 + 1e-6 rejected",
         rejects(checks.check_dual(f, triples, dual.operators, nudged)))

    h_ops, h_gens, h_triples = inputs.harmonic_system(8, 16)
    h = checks.iterate(h_ops, h_gens, h_triples)
    spec = df.DynamicalSystemSpec(operators=h_ops, generators=h_gens, triples=h_triples)
    vec = np.arange(1.0, 9.0) + 1j
    rec = df.reconstruct(spec, df.take_samples(spec, vec), weights=np.ones(16))
    ones = np.ones(16)
    case("reconstruction: weighted route accepted",
         accepts(checks.check_weighted_reconstruction(h, ones, vec, rec)))
    case("reconstruction: weighted route shifted by a unit vector rejected",
         rejects(checks.check_weighted_reconstruction(h, ones, vec, rec + inputs.unit(8))))


# The part of each call's output that its check reads.
KEYS = {"construct": b'"data"', "gen": b'"data"', "analyze": b'"lower_bound"',
        "scale": b'"weights"', "dual": b'"generators"', "reconstruct": b'"recovered"',
        "reconstruct-weights": b'"recovered"'}


def _change_digit(data, key):
    """Replace the first digit after key with another digit."""
    at = data.index(key) + len(key)
    while not chr(data[at]).isdigit():
        at += 1
    new = b"7" if data[at:at + 1] != b"7" else b"2"
    return data[:at] + new + data[at + 1:]


def test_cli():
    workdir = os.path.join(OUT_DIR, f"selftest-{os.getpid()}")
    wl = workloads.CliWorkload(0, workdir, in_process=dynframe.cli)
    try:
        wl.write_inputs(workdir)
        outputs = [wl.run(i) for i in range(len(wl.calls))]
        results = wl.check_pass(outputs)
        case("cli: every output of one pass accepted", all(r is None for r in results),
             str([r for r in results if r]))
        ctx, all_changed, all_digit = {}, True, True
        for (tag, kind, _, out_file), (code, stdout) in zip(wl.calls, outputs):
            data = stdout
            if out_file is not None:
                with open(os.path.join(workdir, out_file), "rb") as fh:
                    data = fh.read()
            for at in (0, len(data) // 2, len(data) - 2):
                changed = data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]
                all_changed &= rejects(wl.check_call(tag, kind, code, changed, data, dict(ctx)))
            digit = _change_digit(data, KEYS[kind])
            reason = wl.check_call(tag, kind, code, digit, digit, dict(ctx))
            if reason is None:
                all_digit = False
                print(f"      {tag}:{kind} accepted a changed digit")
            wl.check_call(tag, kind, code, data, data, ctx)
        case("cli: one byte changed fails the repeat comparison", all_changed)
        case("cli: one digit changed fails the answer check, with no repeat to compare",
             all_digit)
    finally:
        wl.close()


def main():
    test_draws()
    test_certificate()
    test_witness()
    test_dynamics()
    test_cli()
    failed = RESULTS.count(False)
    print(f"{len(RESULTS) - failed} of {len(RESULTS)} self-test cases hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
