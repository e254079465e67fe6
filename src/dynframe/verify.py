"""Randomized and sweep-based verification suites.

Each suite checks one family of invariants and reports pass/fail with a
detail string for the first failure.  A suite is one per-trial check,
check(rng, t, tol), which returns None or that detail; run_suite is the
only trial loop.  Per-trial RNGs are derived from (seed, suite index,
trial index), so a suite's verdict is independent of execution order or
parallelism.
"""

from dataclasses import dataclass

import numpy as np

from . import constructions as cons
from .dynamics import (DynamicalSystemSpec, _orbit_system, dynamical_dual, iterate,
                       take_samples, transport, reconstruct)
from .errors import DynframeError
from .frames import Frame, analyze, canonical_dual, frame_operator, fusion_check
from .instances import (random_diagonal_data, random_frame, random_invertible,
                        random_matrix, random_normal_matrix, random_parseval,
                        random_scalable_frame, random_spec, random_unitary,
                        random_vector)
from .numkernel import (DEFAULT_TOL, Feasible, InfeasibleWitness, fro,
                        hermitian_eig, nonneg_feasible, svd_rank,
                        unitary_diagonalize)
from .scalability import (ScalingCertificate, _scaling_system, build_diagonal_system,
                          gramian_scaling_check, real_one_vector_obstruction,
                          solve_scaling, tight_via_diagram)

eye = np.eye


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    trials: int
    detail: str


def _feasible(res):
    return isinstance(res, (Feasible, ScalingCertificate))


def _check_eig_roundtrip(rng, t, tol):
    n = int(rng.integers(2, 7))
    field = "complex" if t % 2 else "real"
    h = random_matrix(rng, n, field=field)
    h = (h + h.conj().T) / 2.0
    lam, v = hermitian_eig(h, tol)
    if np.any(np.diff(lam) > 1e-12):
        return f"trial {t}: eigenvalues not descending"
    if fro(v @ v.conj().T - eye(n)) > 10 * tol:
        return f"trial {t}: eigenvector matrix not unitary"
    if fro(v @ np.diag(lam) @ v.conj().T - h) > 10 * tol * max(1.0, fro(h)):
        return f"trial {t}: eigh reconstruction residual"

    a = random_normal_matrix(rng, n, field=field)
    u, d = unitary_diagonalize(a, tol)
    if fro(u @ u.conj().T - eye(n)) > 10 * tol:
        return f"trial {t}: diagonalizer not unitary"
    if fro(np.diag(np.diag(d)) - d) > 10 * tol * max(1.0, fro(d)):
        return f"trial {t}: D not diagonal"
    if fro(u @ d @ u.conj().T - a) > 100 * tol * max(1.0, fro(a)):
        return f"trial {t}: diagonalization residual"

    r = int(rng.integers(1, n + 1))
    m = random_matrix(rng, n, r, field=field) @ random_matrix(rng, r, n + 1, field=field)
    _, rank, basis = svd_rank(m, 1e-8)
    if rank != np.linalg.matrix_rank(m, tol=1e-8):
        return f"trial {t}: rank mismatch"
    if fro(basis.conj().T @ basis - eye(rank)) > 10 * tol:
        return f"trial {t}: column basis not orthonormal"


def _check_feasibility(rng, t, tol):
    nrows = int(rng.integers(1, 6))
    ncols = int(rng.integers(nrows, nrows + 6))
    aeq = random_matrix(rng, nrows, ncols)
    x0 = rng.uniform(0.1, 2.0, size=ncols)
    res = nonneg_feasible(aeq, aeq @ x0, tol=tol)
    if not isinstance(res, Feasible):
        return f"trial {t}: feasible-by-construction system reported infeasible"
    if np.linalg.norm(aeq @ res.x - aeq @ x0, np.inf) > 1e-7:
        return f"trial {t}: solution violates equalities"
    if res.x.min() < -tol or res.margin < np.min(x0) - 1e-7:
        return f"trial {t}: margin below the constructed solution's floor"

    # infeasible by Farkas construction: rows orthogonal to a chosen
    # direction y0 except rhs, so y0 certifies infeasibility
    y0 = random_vector(rng, nrows)
    y0 = y0 / np.linalg.norm(y0)
    proj = aeq - np.outer(y0, np.clip(y0 @ aeq, 0.0, None))
    beq = random_vector(rng, nrows) * 0.3 + y0
    beq = beq - y0 * min(0.0, (y0 @ beq) - 1.0)
    res2 = nonneg_feasible(proj, beq, tol=tol)
    if isinstance(res2, InfeasibleWitness):
        if res2.gap <= tol or np.max(res2.y @ proj) > tol:
            return f"trial {t}: witness fails Farkas inequalities"
    else:
        if np.linalg.norm(proj @ res2.x - beq, np.inf) > 1e-7:
            return f"trial {t}: claimed solution violates equalities"


def _check_frame_inequality(rng, t, tol):
    n = int(rng.integers(2, 7))
    k = int(rng.integers(n, 13))
    field = "complex" if t % 2 else "real"
    frame = random_frame(rng, n, k, field=field)
    rep = analyze(frame, tol)
    if not rep.is_frame:
        return f"trial {t}: {k} generic vectors in dimension {n} not reported a frame"
    for _ in range(100):
        f = random_vector(rng, n, field)
        total = float(np.sum(np.abs(frame.matrix.conj().T @ f) ** 2))
        lo = rep.lower_bound * np.linalg.norm(f) ** 2
        hi = rep.upper_bound * np.linalg.norm(f) ** 2
        slack = 10 * tol * max(1.0, hi)
        if total < lo - slack or total > hi + slack:
            return f"trial {t}: frame inequality violated"
        # relative to the sum itself, which is tighter where the bounds are small
        if lo > total * (1 + 1e-8) + 1e-12 or total > hi * (1 + 1e-8) + 1e-12:
            return f"trial {t}: frame inequality violated beyond relative rounding"


def _check_dual_involution(rng, t, tol):
    n = int(rng.integers(2, 7))
    k = int(rng.integers(n, 13))
    field = "complex" if t % 2 else "real"
    frame = random_frame(rng, n, k, field=field)
    back = canonical_dual(canonical_dual(frame, tol), tol)
    if not back.close_to(frame, 10 * tol):
        return f"trial {t}: double dual differs from the frame"
    s_dual = frame_operator(canonical_dual(frame, tol))
    if fro(s_dual - np.linalg.inv(frame_operator(frame))) > 1e-6:
        return f"trial {t}: dual frame operator is not S^-1"


def _check_fusion_union(rng, t, tol):
    n = int(rng.integers(2, 7))
    u = random_unitary(rng, n)
    cols = list(range(n))
    rng.shuffle(cols)
    n_sub = int(rng.integers(1, 4))
    covering = t % 2 == 0
    subs = []
    used = []
    for i in range(n_sub):
        size = int(rng.integers(1, n + 1))
        pick = [cols[j % n] for j in range(i, i + size)]
        used.extend(pick)
        subs.append(Frame(u[:, sorted(set(pick))]))
    if covering:
        missing = sorted(set(range(n)) - set(used))
        if missing:
            subs.append(Frame(u[:, missing]))
    dec = fusion_check(subs, tol)
    if dec.lower_bound > tol:
        union = Frame(np.hstack([s.matrix for s in subs]))
        if not analyze(union, tol).is_frame:
            return f"trial {t}: fusion frame whose union fails the frame test"


def _check_transport_naturality(rng, t, tol):
    n = int(rng.integers(2, 5))
    field = "complex" if t % 3 == 2 else "real"
    spec = random_spec(rng, n, field=field, frame_only=False)
    b = random_invertible(rng, n, field=field)
    moved = transport(spec, b, tol).spec
    lhs = iterate(moved).matrix
    rhs = b @ iterate(spec).matrix
    if fro(lhs - rhs) > 10 * tol * max(1.0, fro(rhs)):
        return f"trial {t}: transported iterates differ from B times iterates"


def _check_dual_conjugation(rng, t, tol):
    n = int(rng.integers(2, 5))
    field = "complex" if t % 2 else "real"
    spec = random_spec(rng, n, field=field, max_ops=2)
    dual = dynamical_dual(spec, tol)
    primal = iterate(spec).matrix
    rhs = np.linalg.solve(frame_operator(iterate(spec)), primal)
    if fro(iterate(dual).matrix - rhs) > 1e-6 * max(1.0, fro(rhs)):
        return f"trial {t}: dual iterates differ from S^-1 times iterates"
    # the dual of the dual is the system itself
    if fro(iterate(dynamical_dual(dual, tol)).matrix - primal) > 1e-6 * max(1.0, fro(primal)):
        return f"trial {t}: dual of the dual differs from the system"


def _check_dual_identity(rng, t, tol):
    n = int(rng.integers(2, 5))
    field = "complex" if t % 2 else "real"
    spec = random_spec(rng, n, field=field, max_ops=2)
    f = random_vector(rng, n, field)
    rec = reconstruct(spec, take_samples(spec, f), tol=tol)
    if np.linalg.norm(rec - f) > 1e-6 * max(1.0, np.linalg.norm(f)):
        return f"trial {t}: reconstruction identity fails"


def _check_transport_report(rng, t, tol):
    n = int(rng.integers(2, 5))
    spec = random_spec(rng, n)
    base = analyze(iterate(spec), tol)

    u = random_unitary(rng, n)
    res = transport(spec, u, tol)
    if not res.unitary:
        return f"trial {t}: unitary map not recognized"
    rep = analyze(iterate(res.spec), tol)
    if (abs(rep.lower_bound - base.lower_bound) > 10 * tol * max(1.0, base.lower_bound)
            or abs(rep.upper_bound - base.upper_bound) > 10 * tol * max(1.0, base.upper_bound)):
        return f"trial {t}: unitary transport changed the frame bounds"

    b = random_invertible(rng, n)
    rep2 = analyze(iterate(transport(spec, b, tol).spec), tol)
    if rep2.is_frame != base.is_frame:
        return f"trial {t}: invertible transport changed the frame property"


def _fixed_frames(tol):
    """_oracle_disagreement on fixed frames: the first failure's detail, or None.

    First the size ladder: draw (n, s) for n in {6, 8, 10, 12, 16, 20}
    and s < 20 is rng = default_rng(1000 n + s), k = rng.integers(2n, 5n),
    random_scalable_frame(rng, n, k): sizes the per-trial draws (n <= 4)
    never reach.  Then frames whose K = |U*U|^2 is singular and whose
    answer is forced (scalability._closed_form's merged and uniform
    routes): harmonic frames, shift-companion orbits that repeat e1 or
    e1 and e2, and the tight frame [sqrt(2) e1, e2, e2] of unequal norms.
    Last, the frame [e1, -e1, (e1 + e2)/sqrt(2)], which cannot be scaled.
    """
    for n in (6, 8, 10, 12, 16, 20):
        for s in range(20):
            rng = np.random.default_rng(1000 * n + s)
            frame, _ = random_scalable_frame(rng, n, int(rng.integers(2 * n, 5 * n)))
            detail = _oracle_disagreement(frame, tol, scalable=True)
            if detail is not None:
                return f"ladder (n={n}, s={s}): {detail}"
    forced = [(f"harmonic ({n}, {k})", iterate(cons.harmonic(n, k)))
              for n, k in ((3, 7), (8, 16), (24, 96))]
    for n in (3, 5):
        shift = cons.companion(eye(n)[0])
        forced += [(f"companion (n={n}, L={l})",
                    iterate(DynamicalSystemSpec.single(shift, eye(n)[0], l)))
                   for l in (n, n + 1)]
    forced.append(("unequal-norm tight", Frame(np.array([[2 ** 0.5, 0.0, 0.0],
                                                          [0.0, 1.0, 1.0]]))))
    forced.append(("merged witness", Frame(np.array([[1.0, -1.0, 2 ** -0.5],
                                                      [0.0, 0.0, 2 ** -0.5]]))))
    for name, frame in forced:
        detail = _oracle_disagreement(frame, tol, scalable=name != "merged witness")
        if detail is not None:
            return f"{name}: {detail}"


def _oracle_disagreement(frame, tol, scalable=False):
    """One solve of frame, judged by the Gramian oracle and, for a frame
    scalable by construction, by _certificate_fault: a detail or None."""
    res = solve_scaling(frame, tol=tol)
    direct = _feasible(res)
    _, _, oracle = gramian_scaling_check(frame, tol)
    if direct != oracle:
        return f"solver says {direct}, Gramian oracle says {oracle}"
    if tight_via_diagram(frame, tol) != analyze(frame, tol).is_tight:
        return "diagram and spectral tightness disagree"
    return _certificate_fault(frame, res, tol) if scalable else None


def _check_diagram_oracle(rng, t, tol):
    if t == 0:
        detail = _fixed_frames(tol)
        if detail is not None:
            return detail
    n = int(rng.integers(2, 5))
    k = int(rng.integers(n, 11))
    field = "complex" if t % 5 == 4 else "real"
    if t % 2:
        frame, _ = random_scalable_frame(rng, n, k, field=field)
    elif t % 4 == 2:
        frame = random_parseval(rng, n, k, field=field)
    else:
        frame = random_frame(rng, n, k, field=field)
    detail = _oracle_disagreement(frame, tol)
    if detail is not None:
        return f"trial {t}: {detail}"


def _certificate_fault(frame, res, tol):
    if not isinstance(res, ScalingCertificate):
        return "scalable-by-construction frame got no certificate"
    f = frame.matrix
    recomputed = fro((f * res.squares) @ f.conj().T - eye(frame.dim))
    if recomputed > 10 * tol:
        return f"certificate residual {recomputed:.2e}"
    if abs(recomputed - res.residual) > tol:
        return "stored residual disagrees with recomputation"
    if res.residual > tol:
        return f"stored residual {res.residual:.2e} above tol"


def _check_certificate_soundness(rng, t, tol):
    # diagram-oracle checks the fixed frames' certificates on its one solve
    n = int(rng.integers(2, 5))
    k = int(rng.integers(n + 1, 11))
    field = "complex" if t % 2 else "real"
    frame, _ = random_scalable_frame(rng, n, k, field=field)
    detail = _certificate_fault(frame, solve_scaling(frame, tol=tol), tol)
    if detail is not None:
        return f"trial {t}: {detail}"


def _check_witness_soundness(rng, t, tol):
    # even trials: frames inside the open positive orthant, which can
    # never scale to tightness (every off-diagonal contribution is
    # positive), so a Farkas witness must come back; odd trials: a
    # unitary basis plus one extra vector, always feasible with the
    # extra weight at zero.
    n = int(rng.integers(2, 5))
    if t % 2 == 0:
        k = int(rng.integers(n, n + 4))
        cols = rng.uniform(0.1, 1.0, size=(n, k))
        frame = Frame(cols)
        res = solve_scaling(frame, tol=tol)
        if not isinstance(res, InfeasibleWitness):
            return f"trial {t}: positive-orthant frame came back feasible"
        aeq, beq = _scaling_system(cols)
        if (res.y @ beq) <= tol:
            return f"trial {t}: witness gap not positive"
        # any x >= 0 solving the trace row sum_i c_i x_i = n, c_i = |f_i|^2,
        # has y'beq <= n max_i max((y'aeq)_i, 0) / c_i, so the gap must clear it
        bound = n * max(float(np.max((res.y @ aeq) / np.sum(cols ** 2, axis=0))), 0.0)
        if (res.y @ beq) <= bound:
            return f"trial {t}: witness gap does not clear its soundness bound {bound:.2e}"
    else:
        base = random_unitary(rng, n)
        extra = random_vector(rng, n)
        extra = extra / np.linalg.norm(extra)
        frame = Frame(np.column_stack([base, extra]))
        res = solve_scaling(frame, tol=tol)
        if isinstance(res, InfeasibleWitness):
            return f"trial {t}: basis plus one vector reported infeasible"
        f = frame.matrix
        if fro((f * res.squares) @ f.conj().T - eye(n)) > 10 * tol:
            return f"trial {t}: certificate residual too large"


def _check_diagonal_equivalence(rng, t, tol):
    n = int(rng.integers(2, 5))
    field = "complex" if t % 2 else "real"
    n_gens = int(rng.integers(1, 3))
    a, gens, iters = random_diagonal_data(rng, n, field=field, n_gens=n_gens)
    aeq, beq = build_diagonal_system(a, gens, iters)
    via_system = _feasible(nonneg_feasible(aeq, beq, tol=tol))
    spec = _orbit_system(np.diag(a), gens, iters)
    via_frame = _feasible(solve_scaling(iterate(spec), tol=tol))
    if via_system != via_frame:
        return f"trial {t}: diagonal system {via_system}, direct solve {via_frame}"


def _check_unitary_scaling(rng, t, tol):
    n = int(rng.integers(2, 5))
    k = int(rng.integers(n, 10))
    field = "complex" if t % 3 == 2 else "real"
    if t % 2:
        frame, _ = random_scalable_frame(rng, n, k, field=field)
    else:
        frame = random_frame(rng, n, k, field=field)
    u = random_unitary(rng, n, field=field)
    before = solve_scaling(frame, tol=tol)
    after = solve_scaling(Frame(u @ frame.matrix), tol=tol)
    if _feasible(before) != _feasible(after):
        return f"trial {t}: feasibility changed under a unitary"
    if _feasible(before) and abs(before.margin - after.margin) > 10 * tol:
        return (f"trial {t}: strict margin moved from "
                f"{before.margin:.3e} to {after.margin:.3e}")


def _strict(frame, tol):
    res = solve_scaling(frame, tol=tol)
    return isinstance(res, ScalingCertificate) and res.strict


def _check_construction_certificates(rng, t, tol):

    # closed-form three-vector weights against direct recomputation
    a_, b_, d_ = rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0)
    if rng.integers(2):
        b_ = -b_
    if rng.integers(2):
        d_ = -d_
    r = rng.uniform(0.1, 0.9)
    c_ = -r * b_ * d_ / a_
    ok, w = cons.check_2scale(cons.TwoParamBlock(a_, b_, c_, d_), tol)
    if not ok:
        return f"trial {t}: in-range parameters rejected"
    fw = np.array([[w[0], w[1] * a_, w[2] * c_], [0.0, w[1] * b_, w[2] * d_]])
    if fro(fw @ fw.T - eye(2)) > 10 * tol:
        return f"trial {t}: closed-form weights are not Parseval"
    if not _strict(Frame(np.array([[1.0, a_, c_], [0.0, b_, d_]])), tol):
        return f"trial {t}: solver denies a criterion-positive instance"

    r_out = rng.uniform(1.1, 2.0)
    ok, _ = cons.check_2scale(
        cons.TwoParamBlock(a_, b_, -r_out * b_ * d_ / a_, d_), tol)
    if ok:
        return f"trial {t}: out-of-range parameters accepted"

    # tight family
    at = rng.uniform(-1.5, 1.5)
    dt = rng.uniform(-1.5, 1.5)
    if abs(at + dt) < 0.1:
        dt += 0.5
    p = cons.tight_2x3(at, dt, sign=1 if rng.integers(2) else -1)
    ft = np.array([[1.0, p.a, p.a ** 2 + p.b * p.c],
                   [0.0, p.b, p.a * p.b + p.b * p.d]])
    if not analyze(Frame(ft), 1e-8).is_tight:
        return f"trial {t}: tight family failed the tightness test"

    # four-vector sign criterion, both directions
    vals = rng.uniform(0.3, 1.5, size=4) * rng.choice([-1.0, 1.0], size=4)
    p4 = cons.TwoParamBlock(*vals)
    frame4 = Frame(np.array([[1.0, 0.0, p4.a, p4.c], [0.0, 1.0, p4.b, p4.d]]))
    if cons.check_2x4(p4) != _strict(frame4, tol):
        return f"trial {t}: four-vector criterion and solver disagree"

    # orthogonal pair: first-column (0, b) case
    b0 = rng.uniform(0.3, 2.0) * (1 if rng.integers(2) else -1)
    res0 = solve_scaling(Frame(np.array([[1.0, 0.0], [0.0, b0]])), tol=tol)
    if not (isinstance(res0, ScalingCertificate) and res0.strict):
        return f"trial {t}: orthogonal pair not strictly scalable"
    if np.max(np.abs(res0.weights - np.array([1.0, 1.0 / abs(b0)]))) > 1e-6:
        return f"trial {t}: orthogonal pair weights differ from (1, 1/|b|)"

    # rotation families
    omega = rng.uniform(np.pi / 4 + 0.05, 3 * np.pi / 4 - 0.05)
    n_rot = int(rng.integers(2, 5))
    if not _strict(iterate(cons.rotation_system(omega, n_rot, "shift")), tol):
        return f"trial {t}: shift rotation family not strict"
    signs = tuple(rng.choice([-1.0, 1.0], size=max(0, n_rot - 2)))
    if not _strict(iterate(cons.rotation_system(omega, n_rot, "schur", signs)), tol):
        return f"trial {t}: schur rotation family not strict"

    # harmonic systems are Parseval
    n_h = int(rng.integers(2, 5))
    k_h = n_h + int(rng.integers(0, 4))
    if not analyze(iterate(cons.harmonic(n_h, k_h)), 1e-8).parseval:
        return f"trial {t}: harmonic system not Parseval"

    # companion basics
    coeffs = random_vector(rng, int(rng.integers(2, 6)))
    comp = cons.companion(coeffs)
    n_c = comp.shape[0]
    e1 = eye(n_c)[:, 0]
    ident = iterate(DynamicalSystemSpec.single(comp, e1, n_c - 1))
    if fro(ident.matrix - eye(n_c)) > 10 * tol:
        return f"trial {t}: companion iterates do not sweep the basis"

    # structured families, both branches
    rr = rng.uniform(0.1, 0.9)
    spec3 = cons.r3_structured(1.0, 1.0, -1.0 - 2.0 * rr, 1.0, tol=tol)
    if not _strict(iterate(spec3), tol):
        return f"trial {t}: structured 3d family not strict"
    bb = rng.uniform(0.5, 1.5)
    aa = -bb * bb - rng.uniform(0.5, 2.0)
    nn = int(rng.integers(3, 6))
    specc = cons.r3_structured(aa, bb, n=nn, tol=tol)
    if not _strict(iterate(specc), tol):
        return f"trial {t}: companion family not strict"

    # multiple rotated planes sharing the generator
    alpha = rng.uniform(np.pi / 4 + 0.05, 3 * np.pi / 4 - 0.05)
    spec_m = cons.multigen_rotation([(0, 0, 1, 1, alpha), (0, 0, 2, 2, alpha)])
    if not _strict(iterate(spec_m), tol):
        return f"trial {t}: two-plane system not strict"


def _check_block_theorem(rng, t, tol):
    p = int(rng.integers(2, 4))
    blocks = []
    results = []
    force_bad = t % 2 == 1
    bad_slot = int(rng.integers(p)) if force_bad else -1
    for s in range(p):
        ns = int(rng.integers(2, 4))
        if s == bad_slot:
            u = random_unitary(rng, ns)
            v = random_vector(rng, ns)
            blk = Frame(np.column_stack([u, v / np.linalg.norm(v)]))
        else:
            blk, _ = random_scalable_frame(rng, ns, ns + int(rng.integers(1, 4)))
        blocks.append(blk)
        results.append(solve_scaling(blk, tol=tol))
    dims = [b.dim for b in blocks]
    total = int(sum(dims))
    cols = []
    off = 0
    for b in blocks:
        block_cols = np.zeros((total, b.size))
        block_cols[off:off + b.dim, :] = b.matrix
        cols.append(block_cols)
        off += b.dim
    stacked = Frame(np.hstack(cols))
    whole = solve_scaling(stacked, tol=tol)
    if _feasible(whole) != all(_feasible(r) for r in results):
        return f"trial {t}: stacked feasibility differs from blockwise"
    if _feasible(whole):
        least = min(r.margin for r in results)
        if abs(whole.margin - least) > 1e-9:
            return f"trial {t}: stacked margin {whole.margin:.3e}, least block margin {least:.3e}"

    spec = cons.BlockDiagSpec(tuple(random_matrix(rng, d) for d in dims))
    big = cons.block_diag(spec)
    s_pick = int(rng.integers(p))
    v = random_vector(rng, dims[s_pick])
    lhs = big @ cons.embed(spec, v, s_pick)
    rhs = cons.embed(spec, spec.blocks[s_pick] @ v, s_pick)
    if np.linalg.norm(lhs - rhs) > 10 * tol * max(1.0, np.linalg.norm(rhs)):
        return f"trial {t}: embedding does not commute with the operator"


def _check_2scale_boundary(rng, t, tol):
    if t:
        return None
    for r in [-0.5, 0.0, 0.5, 1.0, 1.5]:
        # with (a, b, d) = (1, 1, 1) the criterion ratio -ac/(bd) equals -c
        frame = Frame(np.array([[1.0, 1.0, -r], [0.0, 1.0, 1.0]]))
        res = solve_scaling(frame, tol=tol)
        strict = isinstance(res, ScalingCertificate) and res.strict
        if strict != (r == 0.5):
            return f"ratio {r}: strict={strict}, expected {r == 0.5}"
        if r in (-0.5, 1.5) and not isinstance(res, InfeasibleWitness):
            return f"ratio {r}: expected an infeasibility witness"
        if r in (0.0, 1.0):
            if not (isinstance(res, ScalingCertificate) and not res.strict):
                return f"ratio {r}: expected a boundary (non-strict) certificate"
        flag, _ = cons.check_2scale(cons.TwoParamBlock(1.0, 1.0, -r, 1.0), tol)
        if flag != (r == 0.5):
            return f"ratio {r}: criterion flag {flag}"


def _check_one_vector(rng, t, tol):
    if t == 0:
        if real_one_vector_obstruction([1.0, -1.0]):
            return "n=2 diagonal wrongly reported obstructed"
        spec2 = DynamicalSystemSpec.single(np.diag([1.0, -1.0]),
                                           np.array([0.5, 0.5]), 3)
        res2 = solve_scaling(iterate(spec2), tol=tol)
        if not (isinstance(res2, ScalingCertificate) and res2.strict):
            return "the 2d one-vector example is not strictly scalable"
    n = int(rng.integers(3, 6))
    a, gens, _ = random_diagonal_data(rng, n, n_gens=1, max_l=1)
    if not real_one_vector_obstruction(a):
        return f"trial {t}: n={n} diagonal not reported obstructed"
    l = int(rng.integers(n, 2 * n + 2))
    spec = DynamicalSystemSpec.single(np.diag(a), gens[0], l)
    res = solve_scaling(iterate(spec), tol=tol)
    if isinstance(res, ScalingCertificate) and res.strict:
        return f"trial {t}: strict certificate against the obstruction"


# (name, default trial count, check); a check returns None or the
# detail of its trial's failure
_SUITES = [
    ("eig-roundtrip", 50, _check_eig_roundtrip),
    ("feasibility-certificates", 50, _check_feasibility),
    ("frame-inequality", 20, _check_frame_inequality),
    ("dual-involution", 20, _check_dual_involution),
    ("fusion-union", 20, _check_fusion_union),
    ("transport-naturality", 100, _check_transport_naturality),
    ("dual-conjugation", 50, _check_dual_conjugation),
    ("dual-identity", 100, _check_dual_identity),
    ("transport-report", 50, _check_transport_report),
    ("diagram-oracle", 500, _check_diagram_oracle),
    ("certificate-soundness", 100, _check_certificate_soundness),
    ("witness-soundness", 100, _check_witness_soundness),
    ("diagonal-equivalence", 100, _check_diagonal_equivalence),
    ("unitary-scaling", 50, _check_unitary_scaling),
    ("construction-certificates", 25, _check_construction_certificates),
    ("block-theorem", 50, _check_block_theorem),
    ("2scale-boundary", 1, _check_2scale_boundary),
    ("one-vector", 30, _check_one_vector),
]

SUITE_NAMES = [name for name, _, _ in _SUITES]


def run_suite(name, trials=None, seed=0, tol=DEFAULT_TOL) -> SuiteResult:
    """Run a suite's check on trials 0..trials-1, stopping at the first failure.

    Trial t draws from its own generator, seeded from (seed, suite
    index, t).  A library error raised by a check fails that trial.  A
    trial count below 1 raises ValueError.
    """
    if name not in SUITE_NAMES:
        raise KeyError(f"unknown suite {name!r}")
    sid = SUITE_NAMES.index(name)
    _, default_trials, check = _SUITES[sid]
    n_trials = default_trials if trials is None else int(trials)
    if n_trials < 1:
        raise ValueError(f"trial count must be at least 1, got {n_trials}")
    detail = None
    for t in range(n_trials):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(sid, t)))
        try:
            detail = check(rng, t, tol)
        except DynframeError as exc:
            detail = f"trial {t}: raised {type(exc).__name__}: {exc}"
        if detail is not None:
            break
    return SuiteResult(name=name, passed=detail is None, trials=n_trials,
                       detail=detail or "ok")
