"""Acceptance gate: exact-example reproduction plus bulk property checks.

Each test prints one [criterion NN] PASS/FAIL line; the asserts that
follow mirror the printed verdict.  Criterion 02 pins the scalability
threshold of the cyclic shift companion on R^3 iterated on e1: below
L = n - 1 = 2 the orbit cannot span, so the solver must return a valid
Farkas witness; at L = n - 1 the orbit is the orthonormal basis and is
certified with unit weights; at L = n it takes the reference weights
(2^-1/2, 1, 1, 2^-1/2).
"""

import time

import numpy as np

import dynframe.constructions as cons
from dynframe.dynamics import (DynamicalSystemSpec, dynamical_dual, iterate,
                               reconstruct, take_samples, transport)
from dynframe.frames import Frame, analyze, frame_operator
from dynframe.instances import (random_frame, random_scalable_frame, random_spec,
                                random_unitary, random_vector)
from dynframe.numkernel import InfeasibleWitness, fro
from dynframe.scalability import (ScalingCertificate, _scaling_system, scaling_residual,
                                  solve_scaling)
from dynframe.verify import run_suite


def _report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f"  ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {status}{tail}")
    return ok


def _is_cert(res):
    return isinstance(res, ScalingCertificate)


def test_criterion_01_one_vector_parseval():
    t0 = time.monotonic()
    spec = DynamicalSystemSpec.single(np.diag([1.0, -1.0]),
                                      np.array([0.5, 0.5]), 3)
    frame = iterate(spec)
    gap = fro(frame_operator(frame) - np.eye(2))
    elapsed = time.monotonic() - t0
    ok = gap <= 1e-9 and analyze(frame).parseval and elapsed < 1.0
    _report(1, ok, f"|S - I| = {gap:.2e}, {elapsed:.3f}s")
    assert gap <= 1e-9
    assert analyze(frame).parseval
    assert elapsed < 1.0


def test_criterion_02_shift_companion_threshold():
    t0 = time.monotonic()
    tol = 1e-9
    op = cons.companion([1.0, 0.0, 0.0])
    e1 = np.array([1.0, 0.0, 0.0])

    res3 = solve_scaling(iterate(DynamicalSystemSpec.single(op, e1, 3)))
    cert3 = _is_cert(res3)
    ref = np.array([2 ** -0.5, 1.0, 1.0, 2 ** -0.5])
    frame3 = iterate(DynamicalSystemSpec.single(op, e1, 3))
    ref_valid = scaling_residual(frame3, ref ** 2) <= 1e-9
    weights_match = cert3 and np.allclose(res3.weights, ref, atol=1e-9)
    residual_ok = cert3 and res3.residual <= 1e-9

    longer_ok = all(
        _is_cert(solve_scaling(iterate(DynamicalSystemSpec.single(op, e1, l))))
        for l in (4, 5))

    short_frames = [iterate(DynamicalSystemSpec.single(op, e1, l)) for l in (0, 1)]
    short = [solve_scaling(fr) for fr in short_frames]
    gaps = [w.gap if isinstance(w, InfeasibleWitness) else float("nan")
            for w in short]
    # max(y'A) read off the witness vector and the frame's own scaling rows
    witnesses_ok = all(isinstance(w, InfeasibleWitness)
                       and w.gap > tol and np.max(w.y @ _scaling_system(fr.matrix)[0]) <= tol
                       for w, fr in zip(short, short_frames))

    # the L = n - 1 orbit is {e1, e2, e3}: unit weights must scale it exactly
    frame2 = iterate(DynamicalSystemSpec.single(op, e1, 2))
    unit_valid = scaling_residual(frame2, np.ones(3)) <= 1e-9
    res2 = solve_scaling(frame2)
    cert2 = _is_cert(res2) and np.allclose(res2.weights, np.ones(3),
                                           atol=1e-9)

    elapsed = time.monotonic() - t0
    ok = cert3 and ref_valid and weights_match and residual_ok and longer_ok \
        and witnesses_ok and unit_valid and cert2 and elapsed < 1.0
    detail = (f"L<=1 witness gaps={gaps[0]:.2g},{gaps[1]:.2g}, "
              f"L=2 unit cert={cert2}, L=3 weights match={weights_match}, "
              f"{elapsed:.3f}s")
    _report(2, ok, detail)
    assert cert3
    assert ref_valid
    assert weights_match
    assert residual_ok
    assert longer_ok
    assert elapsed < 1.0
    assert witnesses_ok, "orbits of at most two vectors cannot span R^3"
    assert unit_valid
    assert cert2, "the L=2 orbit is the orthonormal basis {e1,e2,e3}"


def test_criterion_03_harmonic_parseval():
    gaps = []
    for n, k in ((2, 3), (3, 4), (3, 7)):
        frame = iterate(cons.harmonic(n, k))
        gaps.append(fro(frame_operator(frame) - np.eye(n)))
    ok = max(gaps) <= 1e-9
    _report(3, ok, "max |S - I| = %.2e over (2,3),(3,4),(3,7)" % max(gaps))
    assert max(gaps) <= 1e-9


def test_criterion_04_two_scale_boundary_sweep():
    t0 = time.monotonic()
    inside = [round(0.1 * i, 10) for i in range(1, 10)]
    outside = [-1.0, -0.5, -0.2, 0.0, 1.0, 1.25, 1.6, 2.5]
    points = 0
    disagreements = 0
    for a in (0.5, 1.0, 2.0):
        for b in (-1.0, 1.0, 1.5):
            for d in (-1.3, 0.7, 1.0):
                for r in inside + outside:
                    c = -r * b * d / a
                    frame = Frame(np.array([[1.0, a, c], [0.0, b, d]]))
                    res = solve_scaling(frame)
                    strict = _is_cert(res) and res.strict and res.margin > 1e-9
                    if strict != (r in inside):
                        disagreements += 1
                    points += 1
    elapsed = time.monotonic() - t0
    ok = points >= 200 and disagreements == 0 and elapsed < 30.0
    _report(4, ok, f"{points} grid points, {disagreements} disagreements, "
                   f"{elapsed:.2f}s")
    assert points >= 200
    assert disagreements == 0
    assert elapsed < 30.0


def test_criterion_05_closed_form_weights():
    rng = np.random.default_rng(1005)
    worst = 0.0
    for _ in range(50):
        a = rng.uniform(0.2, 2.0)
        b = rng.uniform(0.3, 1.5) * rng.choice([-1.0, 1.0])
        d = rng.uniform(0.3, 1.5) * rng.choice([-1.0, 1.0])
        r = rng.uniform(0.05, 0.95)
        c = -r * b * d / a
        ok, w = cons.check_2scale(cons.TwoParamBlock(a, b, c, d))
        assert ok
        x, y, z = w
        fw = np.array([[x, y * a, z * c], [0.0, y * b, z * d]])
        worst = max(worst, fro(fw @ fw.T - np.eye(2)))
    ok = worst <= 1e-9
    _report(5, ok, f"worst |F_w F_w* - I| = {worst:.2e} over 50 draws")
    assert worst <= 1e-9


def test_criterion_06_dual_reconstruction():
    rng = np.random.default_rng(1006)
    multi = 0
    worst_rec = 0.0
    worst_dual = 0.0
    for i in range(100):
        n = int(rng.integers(2, 5))
        field = "complex" if i % 2 else "real"
        if i < 25:
            spec = random_spec(rng, n, field=field, max_ops=3)
            while len(spec.operators) < 2:
                spec = random_spec(rng, n, field=field, max_ops=3)
        else:
            spec = random_spec(rng, n, field=field, max_ops=2)
        if len(spec.operators) > 1:
            multi += 1

        f = random_vector(rng, n, field)
        rec = reconstruct(spec, take_samples(spec, f))
        worst_rec = max(worst_rec, np.linalg.norm(rec - f) / np.linalg.norm(f))

        frame = iterate(spec)
        dual_frame = iterate(dynamical_dual(spec))
        s_inv_primal = np.linalg.solve(frame_operator(frame), frame.matrix)
        worst_dual = max(worst_dual, fro(dual_frame.matrix - s_inv_primal))

    ok = multi >= 20 and worst_rec <= 1e-8 and worst_dual <= 1e-8
    _report(6, ok, f"{multi} multi-operator specs, worst rel err {worst_rec:.2e}, "
                   f"worst dual gap {worst_dual:.2e}")
    assert multi >= 20
    assert worst_rec <= 1e-8
    assert worst_dual <= 1e-8


def test_criterion_07_oracle_equivalence():
    result = run_suite("diagram-oracle", seed=1007)
    _report(7, result.passed, f"diagram-oracle, seed 1007, {result.trials} trials: "
                              f"{result.detail}")
    assert result.passed, result.detail


def test_criterion_08_block_theorem():
    rng = np.random.default_rng(1008)
    disagreements = 0
    for _ in range(50):
        p = int(rng.integers(1, 4))
        blocks = []
        for _ in range(p):
            n_s = int(rng.integers(2, 4))
            k_s = int(rng.integers(n_s, n_s + 4))
            draw = rng.random()
            if draw < 0.4:
                blocks.append(random_scalable_frame(rng, n_s, k_s)[0])
            elif draw < 0.7:
                blocks.append(random_frame(rng, n_s, k_s))
            else:
                blocks.append(Frame(rng.uniform(0.1, 1.0, size=(n_s, k_s))))
        dims = [b.matrix.shape[0] for b in blocks]
        total = sum(dims)
        offsets = np.concatenate([[0], np.cumsum(dims)[:-1]]).astype(int)
        stacked_cols = []
        for s, b in enumerate(blocks):
            for j in range(b.matrix.shape[1]):
                col = np.zeros(total)
                col[offsets[s]:offsets[s] + dims[s]] = b.matrix[:, j]
                stacked_cols.append(col)
        stacked = Frame(np.column_stack(stacked_cols))
        whole = _is_cert(solve_scaling(stacked))
        parts = all(_is_cert(solve_scaling(b)) for b in blocks)
        if whole != parts:
            disagreements += 1
    ok = disagreements == 0
    _report(8, ok, f"50 stacked instances, {disagreements} disagreements")
    assert disagreements == 0


def test_criterion_09_real_one_vector_obstruction():
    rng = np.random.default_rng(1009)
    witnesses = 0
    for _ in range(100):
        a = rng.standard_normal(3)
        v = rng.standard_normal(3)
        l = int(rng.integers(1, 13))
        spec = DynamicalSystemSpec.single(np.diag(a), v, l)
        if isinstance(solve_scaling(iterate(spec)), InfeasibleWitness):
            witnesses += 1

    paper = DynamicalSystemSpec.single(np.diag([1.0, -1.0]),
                                       np.array([0.5, 0.5]), 3)
    res = solve_scaling(iterate(paper))
    two_dim_cert = _is_cert(res)
    ok = witnesses == 100 and two_dim_cert
    _report(9, ok, f"{witnesses}/100 witnesses in dimension 3, "
                   f"2-dim certificate={two_dim_cert}")
    assert witnesses == 100
    assert two_dim_cert


def test_criterion_10_multigen_example():
    alpha = 2 * np.pi / 3
    spec = cons.multigen_rotation([(0, 0, 1, 1, alpha), (0, 0, 2, 2, alpha)])
    res = solve_scaling(iterate(spec))
    ok = _is_cert(res) and res.strict and res.residual <= 1e-9
    detail = "no certificate"
    if _is_cert(res):
        detail = f"strict={res.strict}, residual={res.residual:.2e}"
    _report(10, ok, detail)
    assert _is_cert(res)
    assert res.strict
    assert res.residual <= 1e-9


def test_criterion_11_transport_invariance():
    rng = np.random.default_rng(1011)
    mismatches = 0
    worst_margin_gap = 0.0
    alpha = 2 * np.pi / 3
    for i in range(50):
        kind = i % 4
        if kind == 0:
            spec = cons.rotation_system(rng.uniform(0.9, 2.2), 2)
            field = "real"
        elif kind == 1:
            n = int(rng.integers(2, 5))
            spec = cons.harmonic(n, n + int(rng.integers(0, 4)))
            field = "complex"
        elif kind == 2:
            spec = cons.multigen_rotation([(0, 0, 1, 1, alpha),
                                           (0, 0, 2, 2, alpha)])
            field = "real"
        else:
            spec = cons.r3_structured(-rng.uniform(1.5, 3.0), 1.0)
            field = "real"
        u = random_unitary(rng, spec.dim, field=field)
        moved = transport(spec, u)
        assert moved.unitary
        res_a = solve_scaling(iterate(spec))
        res_b = solve_scaling(iterate(moved.spec))
        if _is_cert(res_a) != _is_cert(res_b):
            mismatches += 1
            continue
        if _is_cert(res_a):
            if res_a.strict != res_b.strict:
                mismatches += 1
            worst_margin_gap = max(worst_margin_gap,
                                   abs(res_a.margin - res_b.margin))
    ok = mismatches == 0 and worst_margin_gap <= 1e-8
    _report(11, ok, f"50 transports, {mismatches} status mismatches, "
                    f"worst margin gap {worst_margin_gap:.2e}")
    assert mismatches == 0
    assert worst_margin_gap <= 1e-8
