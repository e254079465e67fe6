"""Tightness and scalability: diagram vectors, weight certificates, diagonal systems.

The scaling question sum_i x_i f_i f_i* = I, x = w^2 >= 0, is decided by
three routes:

* the closed form (_closed_form): when the k operators f_i f_i* are
  linearly independent, K x = c with K = |F*F|^2 (entrywise) and
  c_i = |f_i|^2 has the only candidate solution, and the Farkas
  alternative comes in closed form too;
* the max-min LP (numkernel.nonneg_feasible) on the range of the
  equality system, for rank-deficient systems and anything the closed
  form leaves undecided.  Both routes return a certificate checked on
  the raw columns or a witness that clears _sound_witness;
* the diagram-vector Gramian test on the unit-normalized frame (oracle),
  built apart from K: it decides by its null dimension, with an LP only
  when that dimension is 2 or more.

The agreement of the solver and the oracle is a checked invariant,
never assumed.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NumericalFailure, ShapeMismatch, TemplateMismatch, ZeroVector
from .frames import Frame
from .numkernel import (DEFAULT_TOL, Feasible, InfeasibleWitness, as_vector, fro,
                        hermitian_eig, nonneg_feasible)

# Eigenvalues of the unit-column K = |U*U|^2 at or below this fraction of
# its largest make _closed_form leave the system to the LP.  The fast path
# needs K invertible; its answers are checked on the raw columns anyway,
# so the cutoff only has to keep x = K^-1 1 meaningful.
_K_RCOND = 1e-10


@dataclass(frozen=True)
class DiagramVector:
    """Real-equivalent diagram vector of a single frame vector.

    Real field: n(n-1) entries, all pairs i<j contributing one
    difference f(i)^2 - f(j)^2 and one product sqrt(2n) f(i) f(j).
    Complex field: 3n(n-1)/2 entries; differences |f(i)|^2 - |f(j)|^2
    followed by the products sqrt(n) f(i) conj(f(j)) stored re/im per
    pair.  Everything carries the 1/sqrt(n-1) prefactor; n = 1 gives an
    empty vector.
    """

    dim: int
    field: str
    entries: np.ndarray


@dataclass(frozen=True)
class ScalingCertificate:
    """Nonnegative weights making {w_i f_i} tight (Parseval: lambda = 1)."""

    weights: np.ndarray      # w_i
    squares: np.ndarray      # x_i = w_i^2, the LP variables
    tight_constant: float
    residual: float          # || sum x_i f_i f_i* - lambda I ||_F
    strict: bool
    margin: float            # maximized min x_i


@dataclass(frozen=True)
class DiagonalScalingSystem:
    """Equality system for weights of an iterated diagonal-operator frame.

    Unknowns w^2_{s,j} are ordered generators-outer, powers-inner, the
    same order iterate() lists the frame vectors.  Rows: one per
    diagonal index i (rhs 1), then the real parts for pairs i<j (rhs 0),
    then, over a complex field, the imaginary parts for those pairs.
    """

    diag: np.ndarray         # a_1..a_n
    generators: tuple        # coordinate vectors x_s
    iters: tuple             # L_s per generator
    matrix: np.ndarray       # real equality matrix
    rhs: np.ndarray
    unknown_index: tuple     # ((s, j), ...) column labels


def diagram_vector(f, field: Optional[str] = None) -> DiagramVector:
    """Diagram vector of a nonzero vector, in the frame's field convention."""
    f = as_vector(f)
    if np.linalg.norm(f) == 0.0:
        raise ZeroVector("diagram vector of the zero vector is undefined")
    if field is None:
        field = "complex" if np.iscomplexobj(f) else "real"
    n = f.shape[0]
    if n == 1:
        return DiagramVector(dim=1, field=field, entries=np.zeros(0))
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
    return DiagramVector(dim=n, field=field, entries=entries)


def _quadratic_parts(m):
    """The entries of m_i m_i* for every column m_i of m, all at once.

    Returns (sq, prod, iu, ju): sq[i] = |m(i)|^2 and prod[r] = m(iu[r])
    conj(m(ju[r])) over the pairs iu < ju of np.triu_indices, one
    column per column of m.
    """
    iu, ju = np.triu_indices(m.shape[0], 1)
    return np.abs(m) ** 2, m[iu] * m[ju].conj(), iu, ju


def _diagram_columns(m) -> np.ndarray:
    """Diagram vectors of all columns of m at once, one output column each.

    Each column holds the entries diagram_vector gives for that column
    of m, in the field of m's dtype.
    """
    n, k = m.shape
    if n == 1:
        return np.zeros((0, k))
    sq, prod, iu, ju = _quadratic_parts(m)
    if np.iscomplexobj(m):
        p = np.sqrt(float(n)) * prod
        prods = np.stack([p.real, p.imag], axis=1).reshape(-1, k)
    else:
        prods = np.sqrt(2.0 * n) * prod
    return (1.0 / np.sqrt(n - 1.0)) * np.vstack([sq[iu] - sq[ju], prods])


def tight_via_diagram(frame: Frame, tol: float = DEFAULT_TOL) -> bool:
    """Tightness test: the diagram vectors of a tight frame sum to zero."""
    total = _diagram_columns(frame.matrix).sum(axis=1)
    mass = float(np.sum(np.abs(frame.matrix) ** 2))
    return float(np.linalg.norm(total)) <= tol * mass


def _scaling_system(m):
    """Rows of sum_i x_i vech(m_i m_i*) = vech(I) over the columns of m.

    One row per index i (|m(i)|^2, rhs 1), then the real parts of
    m(i) conj(m(j)) for pairs i < j (rhs 0), then, when m is complex,
    their imaginary parts (rhs 0).
    """
    m = np.asarray(m)
    sq, prod, _, _ = _quadratic_parts(m)
    aeq = np.vstack([sq, prod.real] + ([prod.imag] if np.iscomplexobj(m) else []))
    beq = np.zeros(aeq.shape[0])
    beq[:m.shape[0]] = 1.0
    return aeq, beq


def scaling_residual(frame, squares) -> float:
    """|| sum_i x_i f_i f_i* - I ||_F over a Frame or an n x k column matrix."""
    f = frame.matrix if isinstance(frame, Frame) else np.asarray(frame)
    s = (f * np.asarray(squares, dtype=float)) @ f.conj().T
    return fro(s - np.eye(f.shape[0]))


def _sound_witness(w: InfeasibleWitness, aeq, n: int) -> InfeasibleWitness:
    """Return w if it proves infeasibility of aeq, else raise NumericalFailure.

    The first n rows of aeq are the diagonal ones, with rhs 1;
    their sum reads sum_i c_i x_i = n, where c_i = |f_i|^2.  Any feasible
    x >= 0 then gives y'b = (y'A) x <= n max_i max((y'A)_i, 0) / c_i, so a
    gap above that bound leaves no feasible x.  A zero column has
    (y'A)_i = 0 and adds nothing.
    """
    c = aeq[:n].sum(axis=0)
    ya = np.clip(w.y @ aeq, 0.0, None)
    bound = n * float(np.max(np.divide(ya, c, out=np.zeros_like(ya), where=c > 0)))
    if not w.gap > bound:
        raise NumericalFailure(f"undecided: witness gap {w.gap:.3e} does not clear "
                               f"its soundness bound {bound:.3e}")
    return w


def _checked_witness(y, aeq, beq, n: int, tol: float):
    """y scaled to max|y| = 1 as a witness, if it passes nonneg_feasible's gate
    (gap > tol, max violation <= tol) and then _sound_witness; else None."""
    y = y / np.max(np.abs(y))
    gap = float(beq @ y)
    viol = float(np.max(y @ aeq))
    if not (gap > tol and viol <= tol):
        return None
    try:
        return _sound_witness(InfeasibleWitness(y=y, gap=gap, max_violation=viol), aeq, n)
    except NumericalFailure:
        return None


def _closed_form(aeq, beq, columns, tol: float):
    """Decide the scaling system without an LP when its solution is forced.

    With u_i = f_i / |f_i| and K = |U*U|^2 (entrywise), K is the Gramian
    of the operators u_i u_i* in the trace inner product.  When it is
    nonsingular, sum_i x_i f_i f_i* = I has at most one solution,
    x = (K^-1 1) / |f_i|^2, so the max-min LP could only find that point:
    x >= 0 with a small residual is a certificate with margin min x.
    Otherwise the Farkas alternative comes in closed form.  For x_j < 0,
    z = K^-1 e_j / |f|^2 gives y = -W aeq z with y'aeq = -e_j' and
    y'beq = -x_j > 0 (up to the positive factor |f_j|^2); W weights the
    diagonal rows by 1 and the pair rows by 2, so that y' aeq_i is the
    trace inner product of Y with f_i f_i*.  A large residual gives
    y = W (beq - aeq x), with y'aeq = 0 and y'beq = ||I - sum x_i f_i f_i*||^2.

    Returns a certificate, a witness that passes the checks of
    _checked_witness, or None, which means "run the LP": when some column
    is zero, when k exceeds the row count of aeq, when K is numerically
    singular, and when a witness does not check.
    """
    n, k = columns.shape
    norms = np.sum(np.abs(columns) ** 2, axis=0)
    if k > aeq.shape[0] or not np.all(norms > 0):
        return None
    unit = columns / np.sqrt(norms)
    try:
        lam, vecs = np.linalg.eigh(np.abs(unit.conj().T @ unit) ** 2)
    except np.linalg.LinAlgError:
        return None
    if not lam[0] > _K_RCOND * lam[-1]:
        return None
    unit_x = vecs @ (vecs.sum(axis=0) / lam)
    x = unit_x / norms
    residual = scaling_residual(columns, x)
    if x.min() >= 0 and residual <= tol:
        margin = float(x.min())
        return ScalingCertificate(weights=np.sqrt(x), squares=x, tight_constant=1.0,
                                  residual=residual, strict=margin > tol, margin=margin)
    w = np.ones(aeq.shape[0])
    w[n:] = 2.0
    candidates = []
    if x.min() < 0:
        z = vecs @ (vecs[int(np.argmin(unit_x))] / lam) / norms
        candidates.append(-w * (aeq @ z))
    if residual > tol:
        candidates.append(w * (beq - aeq @ x))
    for y in candidates:
        witness = _checked_witness(y, aeq, beq, n, tol)
        if witness is not None:
            return witness
    return None


def _solve(aeq, beq, columns, tol: float):
    """Decide aeq x = beq, x >= 0 for the scaling system of columns.

    Tries _closed_form first and runs nonneg_feasible when it gives no
    answer.  Returns a certificate whose residual is recomputed on the
    n x k matrix columns (zero columns allowed), or a witness that clears
    _sound_witness; anything else raises NumericalFailure.
    """
    fast = _closed_form(aeq, beq, columns, tol)
    if fast is not None:
        return fast
    res = nonneg_feasible(aeq, beq, tol=tol)
    if isinstance(res, InfeasibleWitness):
        return _sound_witness(res, aeq, columns.shape[0])
    x = np.clip(res.x, 0.0, None)
    residual = scaling_residual(columns, x)
    if residual > tol:
        raise NumericalFailure(
            f"scaling residual {residual:.3e} exceeds tolerance {tol:.1e}")
    return ScalingCertificate(weights=np.sqrt(x), squares=x, tight_constant=1.0,
                              residual=residual, strict=res.margin > tol,
                              margin=res.margin)


def solve_scaling(frame: Frame, tol: float = DEFAULT_TOL):
    """Weights w_i >= 0 with sum w_i^2 f_i f_i* = I, or a Farkas witness.

    The answer always carries the maximized minimum of x = w^2, and the
    strict flag on the certificate records margin > tol.  Routes: when
    K = |F*F|^2 is nonsingular the solution x = K^-1 c is unique, so a
    nonnegative one is the certificate and a negative entry or a large
    residual gives the witness in closed form; otherwise, or when that
    witness does not check, the max-min LP decides.  The Gramian oracle
    (gramian_scaling_check) is the third, independent route.  A witness
    is returned only when its gap clears the soundness bound of the trace
    row; any other infeasibility report raises NumericalFailure
    ("undecided").
    """
    return _solve(*_scaling_system(frame.matrix), frame.matrix, tol)


def gramian_scaling_check(frame: Frame, tol: float = DEFAULT_TOL):
    """Diagram-Gramian scalability oracle.

    Vectors are unit-normalized first (the characterization is stated
    for unit-norm frames; rescaling is absorbed into the weights).
    Returns (Gramian of the diagram vectors, orthonormal basis of its
    null space, whether a nonnegative nonzero null vector exists).  The
    null dimension d decides the route: d = 0 leaves no such vector, d = 1
    decides by the signs of the single null vector, and d >= 2 solves
    [G; 1'] x = (0, 1), x >= 0 with nonneg_feasible.
    """
    unit = frame.matrix / np.linalg.norm(frame.matrix, axis=0)
    diag = _diagram_columns(unit)
    gram = diag.T @ diag
    gram = (gram + gram.T) / 2.0
    k = gram.shape[0]

    lam, vecs = hermitian_eig(gram, tol)
    null_mask = lam <= tol * max(1.0, float(lam[0]))
    null_basis = vecs[:, null_mask]
    if null_basis.shape[1] == 0:
        return gram, null_basis, False
    if null_basis.shape[1] == 1:
        v = null_basis[:, 0]
        v = v * np.sign(v[np.argmax(np.abs(v))])
        return gram, null_basis, bool(v.min() >= -tol)

    sys_matrix = np.vstack([gram, np.ones((1, k))])
    sys_rhs = np.concatenate([np.zeros(k), [1.0]])
    res = nonneg_feasible(sys_matrix, sys_rhs, tol=tol)
    found = isinstance(res, Feasible)
    return gram, null_basis, found


def _diagonal_columns(a, generators, unknown_index) -> np.ndarray:
    """The vectors D^j v_s, D = diag(a), as columns in unknown_index order."""
    s, j = np.array(unknown_index).T
    return np.stack(generators, axis=1)[:, s] * np.asarray(a)[:, None] ** j


def build_diagonal_system(a, generators, iters) -> DiagonalScalingSystem:
    """Weight equations for the frame {D^j v_s} with D = diag(a).

    Diagonal rows demand sum_s |x_s(i)|^2 sum_j w^2_{s,j} |a_i|^{2j} = 1;
    each pair i<j demands sum_s x_s(i) conj(x_s(j)) sum_j w^2_{s,j}
    (a_i conj(a_j))^j = 0, split into real and imaginary parts over a
    complex field.  These are the rows _scaling_system gives for the
    columns D^j v_s.
    """
    a = as_vector(a)
    n = a.shape[0]
    gens = tuple(as_vector(v) for v in generators)
    iters = tuple(int(l) for l in iters)
    if not gens:
        raise ShapeMismatch("need at least one generator")
    if len(iters) != len(gens):
        raise ShapeMismatch(f"{len(iters)} iteration counts for {len(gens)} generators")
    for s, v in enumerate(gens):
        if v.shape[0] != n:
            raise ShapeMismatch(f"generator {s} has dim {v.shape[0]}, expected {n}")
    if any(l < 0 for l in iters):
        raise ValueError("iteration counts must be nonnegative")

    unknowns = tuple((s, j) for s in range(len(gens)) for j in range(iters[s] + 1))
    aeq, beq = _scaling_system(_diagonal_columns(a, gens, unknowns))
    return DiagonalScalingSystem(diag=a, generators=gens, iters=iters, matrix=aeq,
                                 rhs=beq, unknown_index=unknowns)


def solve_diagonal_system(system: DiagonalScalingSystem, tol: float = DEFAULT_TOL):
    """Run the feasibility solver on a diagonal scaling system.

    Returns a certificate whose weights follow the system's unknown
    order (which matches iterate() on the corresponding spec), or the
    solver's witness.
    """
    cols = _diagonal_columns(system.diag, system.generators, system.unknown_index)
    return _solve(system.matrix, system.rhs, cols, tol)


def normal_scalability(a, generators, iters, tol: float = DEFAULT_TOL):
    """Scalability of {A^j f_s} for normal A, via the diagonal model.

    Diagonalizes A = U D U*, assembles the diagonal system on the
    rotated generators U* f_s, and solves.  Weights transfer verbatim
    to the original iterates A^j f_s, where the certificate residual is
    evaluated.
    """
    from .dynamics import DynamicalSystemSpec, diagonal_reduce, iterate_columns

    gens = tuple(as_vector(f) for f in generators)
    iters = tuple(int(l) for l in iters)
    spec = DynamicalSystemSpec(operators=(a,), generators=gens,
                               triples=tuple((0, s, l) for s, l in enumerate(iters)))
    _, d, reduced = diagonal_reduce(spec, tol)
    system = build_diagonal_system(np.diag(d), reduced.generators, iters)
    return _solve(system.matrix, system.rhs, iterate_columns(spec), tol)


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
