"""Tightness and scalability: diagram vectors, weight certificates, diagonal systems.

The scaling question sum_i x_i f_i f_i* = I, x = w^2 >= 0, is decided by
these routes, in this order (_solve):

* the closed form (_closed_form), wherever the answer is forced: when
  the k operators f_i f_i* are linearly independent, K x = c with
  K = |F*F|^2 (entrywise) and c_i = |f_i|^2 has the only candidate
  solution, and the Farkas alternative comes in closed form too; when
  they are independent once parallel columns (a repeated orbit vector,
  up to a phase) are merged, the group totals are forced instead; and
  a tight frame is scaled by uniform weights, which the trace row makes
  the max-min point.  Independence is decided by one Cholesky
  factorization (the _K_RCOND rank test) and the forced values by
  linear solves with K, with no eigendecomposition;
* the split (_split): when the exact zeros of the columns group the
  coordinates into components with disjoint supports (block-diagonal
  operators), the system is block diagonal and each component is
  decided on its own, its witness padded with zeros;
* the gap rule (_gap_rule) for a 2-D component, or a 2-D system, whose
  diagram points lie on one great circle (all real ones): scalable
  exactly when no gap between the doubled angles exceeds pi, with the
  max-min point and the witness in closed form;
* the max-min LP (numkernel.nonneg_feasible) on the range of the
  equality system, for anything the routes above leave undecided, on
  each component that is left;
* the diagram-vector Gramian test on the unit-normalized frame (oracle),
  its Gramian in closed form from the unit columns, apart from K and the
  solver's rows, and never split, with tol its one null cutoff: an empty
  null space is proved by a shifted Cholesky factorization, a
  nonnegative null vector by two steps of shifted inverse iteration on
  (|f_i|^2), with no eigendecomposition; only when that candidate fails
  its gate does eigh give the null space (the eigenvalues at most tol),
  of any dimension, 0 included, and alternating projections between
  {x >= 1} and the null space (a nonnegative null vector) or the range
  of the Gramian (a witness) decide; only when neither converges within
  a fixed number of steps (frames scalable with margin 0, or close to
  it) does one witness LP run, whose duals must pass the same gate.

Every route returns through one gate per kind of answer, which judges
it from its vector and the system alone: _certificate (x >= 0, residual
on the raw columns within tol, margin min x), _sound_witness (y'b
above the most y'A x reaches on the trace row, or on the oracle's row
1'x = 1) and, in the oracle, _null_vector (min x >= -tol on the row
1'x = 1, with ||G x|| at most tol ||x||).

The agreement of the solver and the oracle is a checked invariant,
never assumed.  The solver's routes on a Frame read the same rows of
its scaling system, built once and kept on the Frame
(Frame._scaling_rows): solve_scaling solves them and tight_via_diagram
maps their sum over the columns.  A certificate is strict when
min_i c_i x_i > tol, c_i = |f_i|^2, which no rescaling of the columns
changes.

For normal A = U D U*, normal_scalability solves the diagonal model
{D^j U* f_s} (diagonal_reduce), iterated like any other spec, by these
routes; build_diagonal_system gives its rows (aeq, beq) as an LP-only
reference.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import numkernel
from .dynamics import _orbit_system, diagonal_reduce, iterate_columns
from .errors import NumericalFailure, TemplateMismatch, ZeroVector
from .frames import Frame, _pairs, _scaling_system
from .numkernel import DEFAULT_TOL, InfeasibleWitness, _outcome, as_vector, fro, nonneg_feasible

# The rank test of _closed_form on the unit-column K = |U*U|^2: K passes
# when K - _K_RCOND tr(K) I has a Cholesky factor, that is when
# lambda_min(K) > _K_RCOND tr(K) >= _K_RCOND lambda_max(K); otherwise the
# system is left to the LP.  The fast path needs K invertible to solve
# K X = 1; its answers are checked on the raw columns anyway, so the
# cutoff only has to keep X meaningful.  It is also the gap for parallel
# columns: unit columns with |<u_i, u_j>|^2 >= 1 - _K_RCOND share one
# operator u u*, and such a pair alone puts an eigenvalue of K at or below
# _K_RCOND, hence below _K_RCOND tr(K) = _K_RCOND k, so a K that passes
# the rank test merges nothing.
_K_RCOND = 1e-10

# _gap_rule leaves a 2-D system to the general route when its largest
# doubled-angle gap is within this many radians of pi.  At exactly pi
# (an orthonormal basis plus one more vector) the system is scalable with
# margin 0, the chord that gives the max-min point passes through 0 and
# the witness has no gap, so neither answer of the rule is well
# conditioned there.  Computed angles are good to about 1e-15.
_GAP_SLACK = 1e-6

# The most alternating-projection steps _null_cone takes before its LP.
# On the benchmark's certify and refute inputs of seeds 1-30, the 480
# frames that reach the loop are decided within 7 steps (null side) and
# 38 (range side); a step costs four products with the k x d null basis.
_CONE_STEPS = 64


@dataclass(frozen=True)
class ScalingCertificate:
    """Nonnegative weights making {w_i f_i} tight (Parseval: lambda = 1)."""

    weights: np.ndarray      # w_i
    squares: np.ndarray      # x_i = w_i^2, the LP variables
    residual: float          # || sum x_i f_i f_i* - lambda I ||_F
    strict: bool             # min_i |f_i|^2 x_i > tol
    margin: float            # maximized min x_i


def diagram_vector(f, field: Optional[str] = None) -> np.ndarray:
    """Real-equivalent diagram vector of a nonzero vector, in the frame's
    field convention.

    Real field: n(n-1) entries, all pairs i<j contributing one
    difference f(i)^2 - f(j)^2 and one product sqrt(2n) f(i) f(j).
    Complex field: 3n(n-1)/2 entries; differences |f(i)|^2 - |f(j)|^2
    followed by the products sqrt(n) f(i) conj(f(j)) stored re/im per
    pair.  Everything carries the 1/sqrt(n-1) prefactor; n = 1 gives an
    empty vector.
    """
    f = as_vector(f)
    if np.linalg.norm(f) == 0.0:
        raise ZeroVector("diagram vector of the zero vector is undefined")
    if field is None:
        field = "complex" if np.iscomplexobj(f) else "real"
    n = f.shape[0]
    if n == 1:
        return np.zeros(0)
    scale = 1.0 / np.sqrt(n - 1.0)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if field == "real":
        fr = np.asarray(f, dtype=float)
        diffs = [fr[i] ** 2 - fr[j] ** 2 for i, j in pairs]
        prods = [np.sqrt(2.0 * n) * fr[i] * fr[j] for i, j in pairs]
        entries = scale * np.array(diffs + prods)
    else:
        fc = np.asarray(f, dtype=complex)
        diffs = [(fc[i] * fc[i].conjugate() - fc[j] * fc[j].conjugate()).real
                 for i, j in pairs]
        prods = []
        for i, j in pairs:
            p = np.sqrt(float(n)) * fc[i] * fc[j].conjugate()
            prods.extend([p.real, p.imag])
        entries = scale * np.array(diffs + prods)
    return entries


def _diagram_rows(aeq, n: int, cplx: bool) -> np.ndarray:
    """Diagram vectors read off rows aeq of _scaling_system over n coordinates.

    The differences of the n diagonal rows over the pairs i < j, then the
    pair rows times sqrt(2n) (real) or sqrt(n) (complex, cplx true), all
    divided by sqrt(n - 1): diagram_vector's entries, with complex pair
    rows in blocks (real parts, then imaginary parts) where it alternates
    them.  The map is linear, so the rows summed over the columns give the
    sum of the diagram vectors.  n = 1 gives no rows (the max only keeps
    the factor finite).
    """
    iu, ju = _pairs(n)
    pair_scale = np.sqrt(float(n) if cplx else 2.0 * n)
    return (1.0 / np.sqrt(max(n - 1.0, 1.0))) * np.concatenate([aeq[iu] - aeq[ju],
                                                                pair_scale * aeq[n:]])


def tight_via_diagram(frame: Frame, tol: float = DEFAULT_TOL) -> bool:
    """Tightness test: the diagram vectors of a tight frame sum to zero.

    The sum is the diagram map of the frame's scaling rows summed over
    the columns, kept on the Frame (Frame._scaling_rows)."""
    rows = frame._scaling_rows[0].sum(axis=1)
    total = _diagram_rows(rows, frame.dim, np.iscomplexobj(frame.matrix))
    mass = float(rows[:frame.dim].sum())
    return float(np.linalg.norm(total)) <= tol * mass


def scaling_residual(frame, squares) -> float:
    """|| sum_i x_i f_i f_i* - I ||_F over a Frame or an n x k column matrix."""
    f = frame.matrix if isinstance(frame, Frame) else np.asarray(frame)
    s = (f * np.asarray(squares, dtype=float)) @ f.conj().T
    return fro(s - np.eye(f.shape[0]))


def _sound_witness(y, aeq, beq, mass, total) -> InfeasibleWitness:
    """The witness y if it proves aeq x = beq, x >= 0 infeasible, else
    raise NumericalFailure ("undecided").

    Every solution satisfies the row mass'x = total, mass >= 0 (the trace
    row sum_i |f_i|^2 x_i = n, or the oracle's 1'x = 1), so any feasible x
    gives y'b = (y'A) x <= total max_i max((y'A)_i, 0) / mass_i: a gap
    above that bound is a proof.  A column with mass_i = 0 adds nothing.
    """
    gap = float(beq @ y)
    ya = np.clip(y @ aeq, 0.0, None)
    bound = total * float(np.max(np.divide(ya, mass, out=np.zeros_like(ya), where=mass > 0)))
    if not gap > bound:
        raise NumericalFailure(f"undecided: witness gap {gap:.3e} does not clear "
                               f"its soundness bound {bound:.3e}")
    return InfeasibleWitness(y=y, gap=gap)


def _checked_witness(y, aeq, beq, n: int, tol: float):
    """y scaled to max|y| = 1 as a witness, if its gap exceeds tol and it
    passes _sound_witness on the trace row; else None."""
    y = y / np.max(np.abs(y))
    try:
        w = _sound_witness(y, aeq, beq, aeq[:n].sum(axis=0), n)
    except NumericalFailure:
        return None
    return w if w.gap > tol else None


def _certificate(x, columns, tol):
    """The certificate of weights x over the columns f_i, or None when x
    has a negative entry or a residual, recomputed on the columns, above tol.

    strict records min_i c_i x_i > tol over the nonzero columns, with
    c_i = |f_i|^2: c_i x_i are the weights of the unit columns, which sum
    to n (the trace row) and do not change when a column is rescaled, as
    strict scalability does not.  margin is min x itself, which is the
    max-min of x because every route hands in its max-min point.
    """
    if x.min() < 0:
        return None
    residual = scaling_residual(columns, x)
    if residual > tol:
        return None
    c = np.sum(np.abs(columns) ** 2, axis=0)
    strict = bool(np.min(c * x, where=c > 0, initial=np.inf) > tol)
    return ScalingCertificate(weights=np.sqrt(x), squares=x, residual=residual,
                              strict=strict, margin=float(x.min()))


def _factors(gram, shift) -> bool:
    """Whether gram - shift I has a Cholesky factor, which proves
    lambda_min(gram) > shift up to the rounding of the factorization."""
    shifted = gram.copy()
    shifted.flat[::gram.shape[0] + 1] -= shift
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def _nonsingular(gram) -> bool:
    """Whether gram passes the _K_RCOND rank test: gram - _K_RCOND tr(gram) I
    has a Cholesky factor."""
    return _factors(gram, _K_RCOND * np.trace(gram))


def _forced(gram, group, mass, aeq, beq, columns, tol):
    """Decide the system from the unique solution X = K_h^-1 1 over groups.

    gram is K_h, the K of one head column per group, nonsingular;
    group[i] is the group of column i and mass[g] the sum of |f_i|^2 over
    group g.  X solves K_h X = 1.  Each solution has
    sum_{i in g} |f_i|^2 x_i = X_g, so x_i = X_g / mass[g] is the max-min
    point.  For X_g < 0, z solving K_h z = e_g gives, spread over the
    groups as z_{group i} / mass, y = -W aeq z with y'aeq = -e_g' on the
    group's operator and y'beq = -X_g > 0; W weights the diagonal rows by
    1 and the pair rows by 2, so that y' aeq_i is the trace inner product
    of Y with f_i f_i*.  A large residual gives y = W (beq - aeq x), with
    y'aeq = 0 and y'beq = ||I - sum x_i f_i f_i*||^2.
    """
    n = columns.shape[0]
    unit_x = np.linalg.solve(gram, np.ones(gram.shape[0]))
    x = unit_x[group] / mass[group]
    cert = _certificate(x, columns, tol)
    if cert is not None:
        return cert
    w = np.ones(aeq.shape[0])
    w[n:] = 2.0
    if x.min() < 0:
        z = np.linalg.solve(gram, np.eye(gram.shape[0])[int(np.argmin(unit_x))])
        witness = _checked_witness(-w * (aeq @ (z[group] / mass[group])), aeq, beq, n, tol)
        # a nonnegative x that the gate turned down has a residual above tol
        if witness is not None or scaling_residual(columns, x) <= tol:
            return witness
    return _checked_witness(w * (beq - aeq @ x), aeq, beq, n, tol)


def _parallel_groups(unit, rows: int):
    """Merge the unit columns that are equal up to a phase.

    Returns (group, K_h): group[i] numbers the group of column i in the
    order of the groups' first columns, and K_h is K = |U*U|^2 on those
    first columns, or None when more than rows groups remain.  For
    k <= rows, columns i and j are merged when K_ij >= 1 - _K_RCOND.
    Beyond that no k x k matrix is built: each column is turned by the
    phase of its first entry of at least half its largest modulus, and
    columns whose real coordinates round to the same multiples of
    sqrt(_K_RCOND / 2n) are merged; two such columns lie within
    sqrt(_K_RCOND) of each other, so they too have K_ij >= 1 - _K_RCOND.
    """
    n, k = unit.shape
    if k <= rows:
        gram = np.abs(unit.conj().T @ unit) ** 2
        parallel = gram >= 1.0 - _K_RCOND
        if np.count_nonzero(parallel) == k:
            # only the diagonal: skipping np.unique and the submatrix copy
            # keeps the common small frame at the cost it had before merging
            return np.arange(k), gram
        heads, group = np.unique(np.argmax(parallel, axis=1), return_inverse=True)
        return group, gram[np.ix_(heads, heads)]
    mod = np.abs(unit)
    pivot = unit[np.argmax(mod >= 0.5 * mod.max(axis=0), axis=0), np.arange(k)]
    turned = np.ascontiguousarray((unit * (np.abs(pivot) / pivot)).T)
    keys = np.round(turned.view(float) / np.sqrt(_K_RCOND / (2 * n)))
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    group = np.argsort(order)[inverse.ravel()]
    if order.size > rows:
        return group, None
    head = unit[:, first[order]]
    return group, np.abs(head.conj().T @ head) ** 2


def _closed_form(aeq, beq, columns, tol):
    """Decide the scaling system without an LP when its solution is forced.

    With u_i = f_i / |f_i| and K = |U*U|^2 (entrywise), K is the Gramian
    of the operators u_i u_i* in the trace inner product.  Two forced
    answers are tried in turn:

    * merged orbit: parallel columns (u_j = e^{it} u_i, as when an orbit
      repeats) share one operator, so _parallel_groups puts them in one
      group.  When K_h, the K of one head column per group, is
      nonsingular, the group totals X = K_h^-1 1 are forced, and uniform
      weights inside each group are the max-min point; a negative X_g or
      a large residual gives the Farkas witness in closed form (_forced).
      Without parallel columns every group is one column, K_h = K, and
      x = (K^-1 1) / |f_i|^2 is the only solution there can be.
    * uniform weights x = (n / sum_i |f_i|^2) 1: if they scale the frame
      (it is tight), they are the max-min point, because the trace row
      sum_i |f_i|^2 x_i = n caps min x at n / sum_i |f_i|^2.

    Returns a certificate that passes _certificate, a witness that passes
    _checked_witness, or None, which means "run the LP": when some column
    is zero, when no route applies, and when neither answer passes its
    gate.
    """
    n, k = columns.shape
    norms = np.sum(np.abs(columns) ** 2, axis=0)
    if not np.all(norms > 0):
        return None
    group, head_gram = _parallel_groups(columns / np.sqrt(norms), aeq.shape[0])
    if head_gram is not None and _nonsingular(head_gram):
        forced = _forced(head_gram, group, np.bincount(group, weights=norms),
                         aeq, beq, columns, tol)
        if forced is not None:
            return forced
    x = np.full(k, n / norms.sum())
    return _certificate(x, columns, tol)


def _lp(aeq, beq, columns, tol):
    """Decide aeq x = beq, x >= 0 by the max-min LP.

    Returns a certificate that passes _certificate on the n x k matrix
    columns (x clipped at 0), or a witness that
    clears _sound_witness on the trace row; anything else raises
    NumericalFailure.
    """
    n = columns.shape[0]
    res = nonneg_feasible(aeq, beq, tol=tol)
    if isinstance(res, InfeasibleWitness):
        return _sound_witness(res.y, aeq, beq, aeq[:n].sum(axis=0), n)
    x = np.clip(res.x, 0.0, None)
    cert = _certificate(x, columns, tol)
    if cert is None:
        raise NumericalFailure(f"scaling residual {scaling_residual(columns, x):.3e} "
                               f"exceeds tolerance {tol:.1e}")
    return cert


def _gap_rule(aeq, beq, columns, tol):
    """Decide a 2-D system from the gaps between its doubled angles.

    A unit column u has u u* = (I + g . sigma) / 2 with the point
    g = (p - q, 2 Re P, 2 Im P) / c on the unit sphere, read off the
    column's rows p = |f(1)|^2, q = |f(2)|^2, P = f(1) conj(f(2)), with
    c = p + q.  When all points lie on one great circle (always over the
    reals, where Im P = 0), the system sum_j x_j f_j f_j* = I, that is
    sum_j c_j x_j = 2 and sum_j c_j x_j g_j = 0, is feasible exactly when
    no gap between the points' angles on that circle exceeds pi:

    * witness: with m the unit direction at the middle of a gap above pi
      and eps = min_j (-m . g_j) > 0, y = (eps + b1, eps - b1, 2 b2, 2 b3),
      b = m in sphere coordinates, has y'a_j = c_j (eps + m . g_j) <= 0
      and y'beq = 2 eps > 0;
    * max-min point: with s = sum_j c_j g_j, the direction e = -s / |s|
      meets the boundary of the hull of the points at r e on the chord
      from g_a to g_b, the neighbours of e in angle, and
      t = 2 r / (|s| + r sum_j c_j) is the largest min x: x = t 1 plus
      the remaining mass W = 2 - t sum_j c_j split over a and b in the
      proportions that put sum_j c_j x_j g_j at 0.

    Returns None, for the general route, when the points leave the
    circle (by more than tol), when the largest gap lies within
    _GAP_SLACK of pi, and when the answer fails its gate on the system's
    own columns (_certificate or _checked_witness).
    """
    c = aeq[0] + aeq[1]
    g = np.vstack([aeq[0] - aeq[1], 2.0 * aeq[2:]]) / c
    basis = np.eye(2)
    if g.shape[0] == 3:
        basis, sing, _ = np.linalg.svd(g)
        if sing.size == 3 and sing[2] > tol:
            return None
        basis = basis[:, :2]
        g = basis.T @ g
    g = g / np.linalg.norm(g, axis=0)
    ang = np.arctan2(g[1], g[0])
    order = np.argsort(ang)
    ang = ang[order]
    gaps = np.diff(np.append(ang, ang[0] + 2.0 * np.pi))
    top = int(np.argmax(gaps))
    if abs(gaps[top] - np.pi) <= _GAP_SLACK:
        return None
    if gaps[top] > np.pi:
        mid = ang[top] + gaps[top] / 2.0
        m = np.array([np.cos(mid), np.sin(mid)])
        eps = float(np.min(-(m @ g)))
        b = basis @ m
        return _checked_witness(np.concatenate([[eps + b[0], eps - b[0]], 2.0 * b[1:]]),
                                aeq, beq, 2, tol)
    s = g @ c
    phi = float(np.arctan2(-s[1], -s[0]))
    after = int(np.searchsorted(ang, phi, side="right")) % ang.size
    ja, jb = order[after - 1], order[after]
    e = np.array([np.cos(phi), np.sin(phi)])
    r, lam = np.linalg.solve(np.column_stack([e, g[:, jb] - g[:, ja]]), g[:, jb])
    t = 2.0 * r / (np.linalg.norm(s) + r * c.sum())
    rest = 2.0 - t * c.sum()
    x = np.full(c.size, t)
    x[ja] += lam * rest / c[ja]
    x[jb] += (1.0 - lam) * rest / c[jb]
    return _certificate(x, columns, tol)


def _component_rows(idx, n: int, cplx: bool):
    """Rows of the scaling system of n coordinates that involve only the
    coordinates idx (ascending), in the order _scaling_system gives the
    system of those coordinates alone."""
    iu, ju = _pairs(idx.size)
    i, j = idx[iu], idx[ju]
    pair = n + i * (2 * n - i - 1) // 2 + (j - i - 1)
    return np.concatenate([idx, pair] + ([pair + n * (n - 1) // 2] if cplx else []))


def _components(support):
    """(coordinates, columns) of each connected component of a support pattern.

    Two coordinates are linked when some column is nonzero at both; the
    components are the classes of the transitive closure, found by
    propagating the least coordinate index along the links.  Each column
    goes with the component of its support.
    """
    n = support.shape[0]
    s = support.astype(float)
    linked = s @ s.T > 0
    label = np.arange(n)
    while True:
        lower = np.where(linked, label, n).min(axis=1)
        if np.array_equal(lower, label):
            break
        label = lower
    col_label = label[np.argmax(support, axis=0)]
    return [(np.flatnonzero(label == root), np.flatnonzero(col_label == root))
            for root in np.flatnonzero(label == np.arange(n))]


def _split(aeq, beq, columns, tol):
    """Decide the system one disjoint-support component at a time.

    Coordinates are grouped by the exact zeros of the columns
    (_components); rows that pair two components are zero, so the system
    is block diagonal and each component is a scaling system of its own
    n_b coordinates.  A 2-D component goes to _gap_rule first, and any
    component it leaves undecided to _closed_form and then the LP.  The
    certificate joins the component weights and passes _certificate on
    all columns; a witness is one
    infeasible component's y and gap, sound at n_b, padded with zeros into
    the full row order.  A single component gets only the gap rule (the
    caller's _closed_form has already run on it).  Returns None, for the
    LP on the whole system, when a column or a coordinate is all zero,
    when a single component is left undecided, and when the joined
    weights fail the gate.
    """
    n, k = columns.shape
    support = columns != 0
    if not (support.any(axis=0).all() and support.any(axis=1).all()):
        return None
    parts = _components(support)
    if len(parts) == 1:
        return _gap_rule(aeq, beq, columns, tol) if n == 2 else None
    cplx = np.iscomplexobj(columns)
    x = np.empty(k)
    for idx, cols in parts:
        rows = _component_rows(idx, n, cplx)
        sub = (aeq[np.ix_(rows, cols)], beq[rows], columns[np.ix_(idx, cols)])
        res = _gap_rule(*sub, tol) if idx.size == 2 else None
        if res is None:
            res = _closed_form(*sub, tol)
        if res is None:
            res = _lp(*sub, tol)
        if isinstance(res, InfeasibleWitness):
            y = np.zeros(aeq.shape[0])
            y[rows] = res.y
            return InfeasibleWitness(y=y, gap=res.gap)
        x[cols] = res.squares
    return _certificate(x, columns, tol)


def _solve(aeq, beq, columns, tol: float):
    """Decide sum_i x_i f_i f_i* = I, x >= 0, over the columns f_i of an n x k matrix.

    aeq, beq are the rows _scaling_system gives for columns.  Routes, in
    order: _closed_form on the whole system, then _split
    (disjoint-support components, 2-D ones by _gap_rule), then the LP.
    Returns a certificate that passed _certificate on columns (zero
    columns allowed), or a witness that passed _sound_witness; anything
    else raises NumericalFailure.
    """
    res = _closed_form(aeq, beq, columns, tol)
    if res is None:
        res = _split(aeq, beq, columns, tol)
    return res if res is not None else _lp(aeq, beq, columns, tol)


def solve_scaling(frame: Frame, tol: float = DEFAULT_TOL):
    """Weights w_i >= 0 with sum w_i^2 f_i f_i* = I, or a Farkas witness.

    The answer always carries the maximized minimum of x = w^2, and the
    strict flag on the certificate records min_i |f_i|^2 x_i > tol, the
    least weight of the unit columns, so rescaling a column changes the
    margin but not strict.  Routes, in
    order: the closed form (when K = |F*F|^2 is nonsingular the solution
    x = K^-1 c is unique, and the same holds for group totals once
    parallel columns are merged; a tight frame is certified by uniform
    weights); then the split into components of disjoint support, each
    decided on its own; then, for a 2-D component or frame whose diagram
    points share a great circle, the doubled-angle gap rule; and last the
    max-min LP, on the whole system or on each component left.  The
    Gramian oracle (gramian_scaling_check) is the independent route.  A
    witness is returned only when its gap clears the soundness bound of
    the trace row (of its component, when split); any other
    infeasibility report raises NumericalFailure ("undecided").
    """
    return _solve(*frame._scaling_rows, frame.matrix, tol)


def _diagram_gramian(unit, cplx: bool) -> np.ndarray:
    """The Gramian of the diagram vectors of unit columns, in closed form.

    With Q = |U*U|^2 (entrywise), real frames give
    G = (n Q - 1) / (n - 1) (Copenhaver et al., arXiv:1303.1159).  Complex
    frames, whose pair rows _diagram_rows weights by sqrt(n), give
    G = ((n/2)(Q + P'P) - 1) / (n - 1) with P = |U|^2 (entrywise): the
    differences contribute n P'P - 1 and the pairs (n/2)(Q - P'P).  The
    divisor is max(n - 1, 1), so n = 1 gives G = 0.
    """
    n = unit.shape[0]
    overlap = np.abs(unit.conj().T @ unit) ** 2
    if cplx:
        # U*U is Hermitian only to rounding, so Q is averaged with Q' to
        # make G exactly symmetric
        p = np.abs(unit) ** 2
        overlap = (overlap + overlap.T + 2.0 * (p.T @ p)) / 4.0
    return (n * overlap - 1.0) / max(n - 1.0, 1.0)


def _null_vector(gram, x, tol) -> Optional[str]:
    """None when x proves that gram has a nonnegative null vector, else
    the reason it does not, as a NumericalFailure message ("undecided").

    x must have min x >= -tol, lie on the row 1'x = 1 within tol and have
    ||G x|| <= tol ||x||: the oracle's one definition of a null vector,
    whose cutoff tol is also the one of its Cholesky proof and of its
    eigenvalue split.  G x is formed only for an x that passes the first
    two tests, so a mixed-sign vector of _null_cone costs no k x k product.
    """
    low, excess = float(x.min()), float(x.sum()) - 1.0
    if not (low >= -tol and abs(excess) <= tol):
        return (f"undecided: no nonnegative null vector on 1'x = 1 (min x {low:.3e}, "
                f"1'x - 1 {excess:.3e})")
    defect, bound = float(np.linalg.norm(gram @ x)), tol * float(np.linalg.norm(x))
    if not defect <= bound:
        return (f"undecided: no nonnegative null vector (||Gx|| {defect:.3e} against "
                f"tol ||x|| {bound:.3e})")
    return None


def _inverse_iteration(gram, c, tol) -> bool:
    """Whether z = M (M c), M = (G + tol I)^-1 applied by two linear
    solves, scaled to 1'z = 1, passes _null_vector."""
    shifted = gram.copy()
    shifted.flat[::gram.shape[0] + 1] += tol
    try:
        z = np.linalg.solve(shifted, np.linalg.solve(shifted, c))
    except np.linalg.LinAlgError:
        return False
    return _null_vector(gram, z / z.sum(), tol) is None


def gramian_scaling_check(frame: Frame, tol: float = DEFAULT_TOL):
    """Diagram-Gramian scalability oracle.

    Vectors are unit-normalized first (the characterization is stated
    for unit-norm frames; rescaling is absorbed into the weights).
    Returns (Gramian G of the diagram vectors, orthonormal basis of its
    null space or None, whether a nonnegative nonzero null vector
    exists).  G is formed in closed form from the unit columns
    (_diagram_gramian), apart from the solver's rows; its diagonal is 1
    (real) or lies in [1/2, 1] (complex), so tol is its one null cutoff.
    "Found" means an x that passes _null_vector: x >= 0 on 1'x = 1 with
    ||G x|| <= tol ||x||.  Every answer rests on a proof that the oracle
    checks itself:

    * "not found" without an eigendecomposition when G - s I has a
      Cholesky factor, s = tol + 2(k + 2) u tr G with u the unit
      roundoff: then lambda_min(G) > tol, so no x passes _null_vector,
      the last term covering the rounding of the factorization (Rump,
      BIT 46 (2006)).  The attempt is skipped when k exceeds the
      dimension of the diagram vectors, where G is singular;
    * "found" without an eigendecomposition, and with None for the null
      basis, when two steps of shifted inverse iteration from c,
      c_i = |f_i|^2 from the raw columns, give a vector that passes
      _null_vector (_inverse_iteration).  They give the unit null vector
      at null dimension 1 and, from 2 on, the projection onto the null
      space of the weights that make a tight frame Parseval (c itself is
      a null vector then, as are the group masses of a repeated orbit);
    * otherwise the eigenvalues at most tol span the null space N, and
      _null_cone decides from N and the range of G, at every dimension
      of N, 0 included, by alternating projections and, on the frames
      they leave undecided (those scalable with margin 0, and a few that
      converge slowly near that boundary), by one LP.

    NumericalFailure ("undecided") is raised when no proof is found.
    """
    m = frame.matrix
    n, k = m.shape
    cplx = np.iscomplexobj(m)
    c = np.sum(np.abs(m) ** 2, axis=0)
    gram = _diagram_gramian(m / np.sqrt(c), cplx)
    if k <= (n * n - 1 if cplx else n * (n + 1) // 2 - 1):
        rounding = (k + 2) * np.finfo(float).eps * float(np.trace(gram))   # 2(k + 2) u tr G
        if _factors(gram, tol + rounding):
            return gram, np.zeros((k, 0)), False
    if _inverse_iteration(gram, c, tol):
        return gram, None, True
    try:
        lam, vecs = np.linalg.eigh(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(str(exc)) from exc
    null_basis = vecs[:, lam <= tol]
    return gram, null_basis, _null_cone(gram, null_basis, vecs[:, lam > tol], tol)


def _null_cone(gram, null_basis, range_basis, tol) -> bool:
    """Whether some x >= 0 with 1'x = 1 lies in the null space N of gram.

    The system is posed on A = [R'; 1'], b = e_last, with R the range
    eigenvectors: R'x = 0, 1'x = 1 has the solutions of [G; 1'] x = (0, 1).
    N may have any dimension, 0 included.  Answers, in order:

    * alternating projections, at most _CONE_STEPS steps from x = r = 1,
      which read only N and the all-ones vector.  Each step forms
      v = N N'x and w = r - N N'r = R R'r, and
      - answers True when v, scaled to 1'v = 1, passes _null_vector;
      - answers False when min w > tol max(1, max|w|) and the witness
        y = (-R'w, min w), with y'A = -w' + (min w) 1' <= 0 and gap
        min w, passes _sound_witness on the row 1'x = 1; a witness that
        fails the gate decides nothing;
      - else goes on from x, r = max(v, 1), max(w, 1), the projections
        onto {x >= 1}.
      The first step is the projection of 1 onto N and onto the range.
      N holds a vector >= 1 when the frame is strictly scalable, and the
      range does when it is not scalable (Gordan's alternative); the
      projections between that subspace and {x >= 1} then converge into
      their intersection.  An empty N gives w = 1 at once.  On the
      boundary (scalable with margin 0) neither holds one and the loop
      decides nothing, nor does it within the cap on frames that
      converge slowly near the boundary;
    * otherwise one LP, max b'y subject to A'y <= 0 and -1 <= y <= 1,
      which y = 0 makes feasible.  A gap b'y above tol is a witness and
      must pass _sound_witness.  Else the LP's duals of the rows A'y <= 0,
      x = -row_dual, solve A x = b, and they answer True only when x
      passes _null_vector.  Boundary frames reach the LP, such as unit
      columns at 0, 90, 10 and 45 degrees, and so do 13 of 800 badly
      scaled draws (n = 2 to 4, columns scaled by exp(U(-12, 12))); on
      all 800 the verdicts match those of the LP alone.

    Any other outcome raises NumericalFailure, with _null_vector's reason
    when the duals fail it.
    """
    k = gram.shape[0]
    ones = np.ones(k)
    aeq = np.vstack([range_basis.T, ones])
    beq = np.zeros(aeq.shape[0])
    beq[-1] = 1.0
    x = r = ones
    for _ in range(_CONE_STEPS):
        v = null_basis @ (null_basis.T @ x)
        if v.sum() > 0 and _null_vector(gram, v / v.sum(), tol) is None:
            return True
        w = r - null_basis @ (null_basis.T @ r)
        if w.min() > tol * max(1.0, float(np.max(np.abs(w)))):
            try:
                _sound_witness(np.append(-(range_basis.T @ w), w.min()), aeq, beq, ones, 1.0)
                return False
            except NumericalFailure:
                pass
        x, r = np.maximum(v, 1.0), np.maximum(w, 1.0)
    # looked up on numkernel at each call, as nonneg_feasible does, so that
    # one patch of numkernel.linprog reaches every LP
    res = numkernel.linprog(-beq, A_ub=aeq.T, b_ub=np.zeros(k), bounds=[(-1.0, 1.0)] * beq.size)
    if res.status != 0:
        raise NumericalFailure(f"witness program did not solve: {_outcome(res)}")
    if float(beq @ res.x) > tol:
        _sound_witness(res.x, aeq, beq, ones, 1.0)
        return False
    reason = _null_vector(gram, -res.row_dual, tol)
    if reason is not None:
        raise NumericalFailure(reason)
    return True


def build_diagonal_system(a, generators, iters):
    """Weight equations (aeq, beq) for the frame {D^j v_s} with D = diag(a).

    Diagonal rows demand sum_s |x_s(i)|^2 sum_j w^2_{s,j} |a_i|^{2j} = 1;
    each pair i<j demands sum_s x_s(i) conj(x_s(j)) sum_j w^2_{s,j}
    (a_i conj(a_j))^j = 0, split into real and imaginary parts over a
    complex field.  These are the rows _scaling_system gives for the
    columns D^j v_s of the spec (D, v_s, L_s), which checks its inputs;
    the unknowns w^2_{s,j} follow its lattice(), generators outer and
    powers inner.
    """
    spec = _orbit_system(np.diag(a), generators, iters)
    return _scaling_system(iterate_columns(spec))


def normal_scalability(a, generators, iters, tol: float = DEFAULT_TOL):
    """Scalability of {A^j f_s} for normal A, via the diagonal model.

    Diagonalizes A = U D U* (diagonal_reduce) and solves the scaling
    system of the reduced system's iterates D^j v_s, v_s = U* f_s, by the
    route of solve_scaling: closed form, then the split into
    disjoint-support components with 2-D components decided by their
    doubled-angle gaps, then the LP.  The split reads the zeros of the
    diagonal-model columns, so blocks of A decouple even when the
    eigenvalue order interleaves them.  Weights transfer verbatim to the
    original iterates A^j f_s, where the certificate residual is
    evaluated again.
    """
    spec = _orbit_system(a, generators, iters)
    _, _, reduced = diagonal_reduce(spec, tol)
    columns = iterate_columns(reduced)
    res = _solve(*_scaling_system(columns), columns, tol)
    if isinstance(res, InfeasibleWitness):
        return res
    residual = scaling_residual(iterate_columns(spec), res.squares)
    if residual > tol:
        raise NumericalFailure(
            f"scaling residual {residual:.3e} on the iterates exceeds tolerance {tol:.1e}")
    return replace(res, residual=residual)


def real_one_vector_obstruction(a) -> bool:
    """Whether a real diagonal blocks strict scalability from one generator.

    Strictness forces a_i a_j < 0 for every index pair; three or more
    diagonal entries make that sign pattern impossible, so any n >= 3
    real diagonal is obstructed regardless of the entries.
    """
    a = np.asarray(a, dtype=float).ravel()
    return a.shape[0] >= 3


def support_pattern_check(frame: Frame, tol: float = DEFAULT_TOL) -> bool:
    """Necessary support condition on basis-plus-two-vector templates.

    The frame must consist of n or n-1 distinct standard basis vectors
    together with exactly two others, f and g.  Scalability of such a
    system forces f and g to have exactly two nonzero entries, in the
    same coordinate pair; the check returns that condition.
    """
    n = frame.dim
    basis_idx = []
    extras = []
    for v in frame.vectors:
        mags = np.abs(v)
        top = int(np.argmax(mags))
        if abs(v[top] - 1.0) <= tol and np.all(np.delete(mags, top) <= tol):
            basis_idx.append(top)
        else:
            extras.append(v)
    k = frame.size
    distinct = len(set(basis_idx)) == len(basis_idx)
    shape_full = len(basis_idx) == n and k == n + 2
    shape_short = len(basis_idx) == n - 1 and k == n + 1
    if len(extras) != 2 or not distinct or not (shape_full or shape_short):
        raise TemplateMismatch(
            f"{k} vectors with {len(basis_idx)} basis columns fits neither template")
    f, g = extras
    supp_f = np.flatnonzero(np.abs(f) > tol)
    supp_g = np.flatnonzero(np.abs(g) > tol)
    return (len(supp_f) == 2 and len(supp_g) == 2
            and bool(np.array_equal(supp_f, supp_g)))
