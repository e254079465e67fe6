"""Dense small-scale numeric substrate.

Field-tagged scalars live in plain numpy arrays (float64 = real,
complex128 = complex).  Everything here is a pure function over small
dense matrices.  Two compiled modules that scipy bundles do the work
numpy has no routine for: HiGHS (scipy.optimize._highspy._core) solves
the LPs, and LAPACK's zgees (scipy.linalg._flapack) gives the Schur form
of a non-Hermitian normal matrix.  Each is loaded from its file on first
use, without importing scipy, scipy.optimize or scipy.linalg, whose
package imports cost far more memory and time than the routines.
"""

import functools
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NotHermitian, NotNormal, NumericalFailure

DEFAULT_TOL = 1e-9

# The max-min program bounds t by MARGIN_CAP * max(1, ||x_ls||_inf), with
# x_ls the least-squares solution, so margins saturate there when the
# program is unbounded (degenerate rays such as x1 = x2 free).  The cap is
# relative to the system's scale so that a thin feasible cone cannot push
# the vertex to entries far beyond it, where rounding swamps aeq x.
MARGIN_CAP = 1e3

# Singular values of [aeq | beq] below this fraction of the largest are
# rounding noise; their directions are dropped before the LP sees them.
_RANGE_RCOND = 1e-12

_LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}

# The rest of what scipy.optimize.linprog(method="highs") sets: presolve,
# no debug checks, no log, and the dual simplex (simplex_strategy 1).
_HIGHS_OPTIONS = (("presolve", "on"), ("highs_debug_level", 0), ("output_flag", False),
                  ("log_to_console", False), ("simplex_strategy", 1))


def field_of(arr) -> str:
    return "complex" if np.iscomplexobj(arr) else "real"


def _freeze(a):
    """Make a read-only; returns a."""
    a.setflags(write=False)
    return a


def _frozen(data, field, ndim, kind):
    dtype = complex if field == "complex" else (float if field == "real" else None)
    a = np.array(data, dtype=dtype)
    if a.ndim != ndim:
        raise ValueError(f"expected a {kind}, got ndim={a.ndim}")
    if a.dtype not in (np.float64, np.complex128):
        a = a.astype(complex if np.iscomplexobj(a) else float)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{kind} entries must be finite")
    return _freeze(a)


def as_matrix(data, field=None):
    """A read-only float64 or complex128 copy of a 2-d array; entries must be
    finite.  Every array is copied, a read-only one too, so that no caller
    holds what dynframe keeps: an owner can make its array writable again."""
    return _frozen(data, field, 2, "matrix")


def as_vector(data, field=None):
    return _frozen(data, field, 1, "vector")


def inner(x, y):
    """<x, y>, linear in x and conjugate-linear in y."""
    return complex(np.vdot(y, x)) if np.iscomplexobj(x) or np.iscomplexobj(y) else float(np.dot(x, y))


def fro(m) -> float:
    return float(np.linalg.norm(m))


def hermitian_eig(m, tol: float = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues descending, eigenvector matrix V) with
    m = V diag(lam) V*.  Raises NotHermitian when the symmetry defect
    exceeds tol relative to ||m||.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("hermitian_eig needs a square matrix")
    defect = fro(m - m.conj().T)
    if defect > tol * max(1.0, fro(m)):
        raise NotHermitian(f"symmetry defect {defect:.3e} exceeds tolerance")
    try:
        lam, vecs = np.linalg.eigh((m + m.conj().T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(str(exc)) from exc
    order = np.argsort(lam)[::-1]
    return lam[order], vecs[:, order]


def _canonical_order(vals):
    # descending real part, then descending imaginary part
    return np.lexsort((-vals.imag, -vals.real))


def unitary_diagonalize(a, tol: float = DEFAULT_TOL):
    """Unitary diagonalization a = U D U* of a normal matrix.

    Output stays real-typed when a is symmetric real; otherwise it is
    complex (rotations and other real normal matrices have non-real
    spectra).  Eigenvalues are ordered by descending real part, ties
    broken by descending imaginary part.  A non-finite entry raises
    NumericalFailure.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("unitary_diagonalize needs a square matrix")
    if not np.all(np.isfinite(a)):
        raise NumericalFailure("array must not contain infs or NaNs")
    comm = a @ a.conj().T - a.conj().T @ a
    if fro(comm) > tol * max(1.0, fro(a) ** 2):
        raise NotNormal(f"commutator norm {fro(comm):.3e} exceeds tolerance")

    if fro(a - a.conj().T) <= tol * max(1.0, fro(a)):
        lam, u = hermitian_eig(a, tol)
        return u, np.diag(lam).astype(u.dtype)

    # complex Schur form a = U T U*, as scipy.linalg.schur(a, output="complex")
    # computes it: a workspace query, then zgees without sorting
    zgees = _extension("scipy.linalg._flapack").zgees
    a1 = a.astype(complex)
    lwork = zgees(lambda x: None, a1, lwork=-1)[-2][0].real.astype(np.int_)
    result = zgees(lambda x: None, a1, lwork=lwork, overwrite_a=False, sort_t=0)
    if result[-1] != 0:
        raise NumericalFailure(f"Schur form not found (zgees info {result[-1]})")
    t, u = result[0], result[-3]
    d = np.diag(t).copy()
    order = _canonical_order(d)
    u = u[:, order]
    d = d[order]
    dm = np.diag(d)
    if fro(a - u @ dm @ u.conj().T) > 10 * tol * max(1.0, fro(a)):
        raise NumericalFailure("diagonalization residual out of tolerance")
    return u, dm


def svd_rank(m, tol: float = DEFAULT_TOL):
    """Singular values, numerical rank, and an orthonormal column basis."""
    m = np.asarray(m)
    try:
        u, s, _ = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(str(exc)) from exc
    smax = s[0] if s.size else 0.0
    rank = int(np.sum(s > tol * smax)) if smax > 0 else 0
    return s, rank, u[:, :rank]


@dataclass(frozen=True)
class Feasible:
    """Nonnegative solution of an equality system, with its min-entry margin."""

    x: np.ndarray
    margin: float


@dataclass(frozen=True)
class InfeasibleWitness:
    """Farkas candidate: a feasible x >= 0 would make gap = y'beq at most
    max_i max((y'aeq)_i, 0) sum(x), so the caller's bound on x decides a proof."""

    y: np.ndarray
    gap: float            # y' beq


@dataclass(frozen=True)
class LPResult:
    """What linprog reports: scipy's status code, HiGHS' own words for it,
    the simplex iteration count, x and the row duals (both None unless
    status is 0).

    row_dual has one entry per row, A_ub rows then A_eq rows, in HiGHS'
    sign convention for a minimization, which scipy's marginals share: an
    A_ub row that binds has a dual <= 0, and c = A' row_dual + (the duals
    of the variable bounds).
    """

    status: int           # 0 optimal, 1 limit, 2 infeasible, 3 unbounded, 4 other
    message: str          # HiGHS model status, e.g. "Primal infeasible or unbounded"
    nit: int
    x: Optional[np.ndarray]
    row_dual: Optional[np.ndarray] = None


def _extension(name):
    """The compiled module name, a dotted path under scipy, loaded from its
    file without importing the packages above it.

    The module goes into sys.modules under name before it runs, so a later
    import of scipy.optimize or scipy.linalg finds it there and does not
    initialise the extension again.  That import does not bind it as an
    attribute of its package: `from scipy.optimize._highspy import _core`
    finds it, while the attribute chain scipy.optimize._highspy._core
    raises AttributeError.
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    root, *parts = name.split(".")
    found = importlib.util.find_spec(root)  # locates scipy, does not import it
    for base in found.submodule_search_locations if found else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(base, *parts) + suffix
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location(name, path)
                module = importlib.util.module_from_spec(spec)
                sys.modules[name] = module
                try:
                    spec.loader.exec_module(module)
                except BaseException:
                    del sys.modules[name]
                    raise
                return module
    raise ImportError(f"no compiled module {name} under {root}", name=name)


@functools.lru_cache(maxsize=None)
def _highs():
    """The HiGHS binding that scipy bundles, and scipy's status code for
    each HiGHS model status; loaded on first use, from the same file that
    scipy.optimize.linprog(method="highs") runs."""
    _core = _extension("scipy.optimize._highspy._core")

    s = _core.HighsModelStatus
    codes = {s.kOptimal: 0, s.kTimeLimit: 1, s.kIterationLimit: 1,
             s.kInfeasible: 2, s.kModelError: 2, s.kUnbounded: 3}
    return _core, codes


def linprog(c, *, bounds, A_eq=None, b_eq=None, A_ub=None, b_ub=None) -> LPResult:
    """Minimize c'x subject to A_ub x <= b_ub, A_eq x = b_eq and bounds.

    bounds is one (lower, upper) pair per variable, None meaning no
    bound.  The dense data go to HiGHS' dual simplex through the binding
    that scipy bundles, with the options that
    scipy.optimize.linprog(method="highs", options=_LP_OPTIONS) sets, so
    the solver takes the same pivots and returns the same x; the status
    codes are scipy's too.  Unlike scipy, no solution is re-checked
    against the constraints here: callers check their own residuals.
    Data that HiGHS rejects (an infinite matrix entry, say) raise
    ValueError.
    """
    core, codes = _highs()
    c = np.asarray(c, dtype=float)
    ncols = c.size
    # rows A_ub then A_eq, as lower <= row . x <= upper
    blocks, lower, upper = [np.zeros((0, ncols))], [np.zeros(0)], [np.zeros(0)]
    if A_ub is not None:
        b = np.asarray(b_ub, dtype=float)
        blocks.append(np.asarray(A_ub, dtype=float))
        lower.append(np.full(b.size, -np.inf))
        upper.append(b)
    if A_eq is not None:
        b = np.asarray(b_eq, dtype=float)
        blocks.append(np.asarray(A_eq, dtype=float))
        lower.append(b)
        upper.append(b)
    a = np.vstack(blocks)
    box = np.array(bounds, dtype=float)
    col_lower = np.where(np.isnan(box[:, 0]), -np.inf, box[:, 0])  # None reads as nan
    col_upper = np.where(np.isnan(box[:, 1]), np.inf, box[:, 1])

    lp = core.HighsLp()
    lp.num_col_ = ncols
    lp.num_row_ = a.shape[0]
    lp.col_cost_ = c
    lp.col_lower_ = col_lower
    lp.col_upper_ = col_upper
    lp.row_lower_ = np.concatenate(lower)
    lp.row_upper_ = np.concatenate(upper)
    # column-wise (CSC) storage of the nonzeros of a, rows ascending
    nonzero = a.T != 0.0
    matrix = lp.a_matrix_
    matrix.format_ = core.MatrixFormat.kColwise
    matrix.num_col_ = ncols
    matrix.num_row_ = a.shape[0]
    matrix.start_ = np.concatenate(([0], np.cumsum(nonzero.sum(axis=1))))
    matrix.index_ = np.nonzero(nonzero)[1]
    matrix.value_ = a.T[nonzero]

    highs = core._Highs()
    for name, value in (*_HIGHS_OPTIONS, *_LP_OPTIONS.items()):
        highs.setOptionValue(name, value)
    if highs.passModel(lp) == core.HighsStatus.kError:
        raise ValueError("HiGHS rejected the linear program")
    highs.run()
    model_status = highs.getModelStatus()
    status = codes.get(model_status, 4)
    x = row_dual = None
    if status == 0:
        solution = highs.getSolution()
        x, row_dual = np.array(solution.col_value), np.array(solution.row_dual)
    return LPResult(status=status, message=highs.modelStatusToString(model_status),
                    nit=int(highs.getInfo().simplex_iteration_count), x=x,
                    row_dual=row_dual)


def _outcome(res: LPResult) -> str:
    """A failed LP's status, in scipy's code and HiGHS' words, and its iterations."""
    return f"status {res.status} (HiGHS: {res.message}, {res.nit} iterations)"


def nonneg_feasible(aeq, beq, tol: float = DEFAULT_TOL):
    """Solve aeq @ x = beq, x >= 0, maximizing the smallest entry of x.

    Returns Feasible(x, margin) where margin is the maximized min entry,
    or an InfeasibleWitness.  Callers decide strictness by comparing
    margin against their tolerance.  A witness has gap > tol (else
    NumericalFailure) and is not yet a proof: the caller judges y against
    its own bound on x.

    The margin t is capped at MARGIN_CAP * max(1, ||x_ls||_inf), where
    x_ls is the least-squares solution of aeq x = beq.  On a scaling
    system the cap never binds: with c_i = |f_i|^2 >= 0, the trace row
    sum_i c_i x_i = n holds for every exact solution, so the optimum has
    t* sum c_i <= n while x_ls has max(x_ls) sum c_i >= n, hence
    t* <= max(x_ls).  Any system with a row c'x = total, c > 0 gives
    the same.  Only unbounded rays reach the cap.

    Both programs see the system projected onto an orthonormal basis Q
    of the range of [aeq | beq]: Q'aeq x = Q'beq has the same solutions
    and at most rank([aeq | beq]) rows.  The max-min program is posed in
    x = z + t 1 with z >= 0, so "x_i >= t" is a variable bound and not a
    row.  A witness y_c of the projected system maps back as y = Q y_c,
    in the row space and row order of aeq.

    Both programs run through linprog (HiGHS' dual simplex).  When either
    ends in any status but optimal or, for the max-min program,
    infeasible, NumericalFailure names the status, HiGHS' model status and
    the iteration count, e.g. "linear program ended with status 4 (HiGHS:
    Primal infeasible or unbounded, 12 iterations)".
    """
    aeq = np.asarray(aeq, dtype=float)
    beq = np.asarray(beq, dtype=float).ravel()
    if aeq.ndim != 2:
        raise ValueError("aeq must be a matrix")
    nrows, ncols = aeq.shape
    if beq.shape[0] != nrows:
        raise ValueError("beq length must equal aeq row count")
    if ncols == 0:
        raise ValueError("system has no unknowns")
    if not (np.all(np.isfinite(aeq)) and np.all(np.isfinite(beq))):
        raise ValueError("system entries must be finite")

    _, _, q = svd_rank(np.column_stack([aeq, beq]), _RANGE_RCOND)
    a_c = q.T @ aeq
    b_c = q.T @ beq

    # variables (z_0..z_{k-1}, t) with x = z + t 1; maximize t
    cost = np.zeros(ncols + 1)
    cost[-1] = -1.0
    a_eq = np.column_stack([a_c, a_c.sum(axis=1)])
    x_ls = np.linalg.lstsq(a_c, b_c, rcond=None)[0]
    cap = MARGIN_CAP * max(1.0, float(np.max(np.abs(x_ls))))
    bounds = [(0.0, None)] * ncols + [(0.0, cap)]
    res = linprog(cost, A_eq=a_eq, b_eq=b_c, bounds=bounds)

    if res.status == 0:
        x = res.x[:ncols] + res.x[-1]
        # project back onto the original equality set; LP vertices are
        # accurate but a least-squares polish costs nothing at this scale
        residual = beq - aeq @ x
        if np.linalg.norm(residual, np.inf) > 1e-14:
            dx = np.linalg.lstsq(aeq, residual, rcond=None)[0]
            x2 = x + dx
            if x2.min() >= -1e-11:
                x = np.clip(x2, 0.0, None)
        return Feasible(x=x, margin=float(x.min()))

    if res.status == 2:
        w = linprog(-b_c, A_ub=a_c.T, b_ub=np.zeros(ncols), bounds=[(-1.0, 1.0)] * q.shape[1])
        if w.status != 0:
            raise NumericalFailure(f"witness program did not solve: {_outcome(w)}")
        y = q @ w.x
        gap = float(beq @ y)
        if gap <= tol:
            raise NumericalFailure("infeasibility reported but no valid Farkas witness found")
        return InfeasibleWitness(y=y, gap=gap)

    raise NumericalFailure(f"linear program ended with {_outcome(res)}")
