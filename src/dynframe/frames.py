"""Frame-level analysis: bounds, duals, duality checks, fusion decompositions.

A frame is stored through its synthesis matrix F (columns f_i).  All
spectral questions about the frame reduce to the frame operator
S = F F*, which is Hermitian positive semidefinite; bounds are its
extreme eigenvalues.  A Frame is the one home of S: it forms S with its
eigenvalues on first use and keeps them, and S^-1 too once a frame
check (_require_frame) has passed; a DynamicalSystemSpec reads all three
off the Frame it iterated.  The rows of the frame's scaling system
(_scaling_system), which every scalability route reads, are kept on the
Frame the same way.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .errors import (DimensionMismatch, NotAFrame, NumericalFailure, ShapeMismatch,
                     ZeroVector)
from .numkernel import (DEFAULT_TOL, _freeze, as_matrix, field_of, fro, hermitian_eig,
                        svd_rank)


@dataclass(frozen=True)
class Frame:
    """Finite frame candidate: an n x k synthesis matrix with nonzero columns.

    Column order is meaningful; scaling certificates index weights by
    position.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.matrix)
        if m.shape[1] == 0:
            raise ValueError("a frame needs at least one vector")
        with np.errstate(over="ignore", under="ignore"):  # later steps square the columns
            squares = np.sum(np.abs(m) ** 2, axis=0)
        out = (squares < np.finfo(float).tiny) | np.isinf(squares)
        if out.any():
            bad = int(np.argmax(out))
            if not m[:, bad].any():
                raise ZeroVector(f"vector {bad} is zero")
            raise ValueError(f"vector {bad} has squared norm {squares[bad]:.3e}, "
                             f"outside the normal float range")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_vectors(cls, vectors) -> "Frame":
        cols = [np.asarray(v).ravel() for v in vectors]
        if not cols:
            raise ValueError("a frame needs at least one vector")
        dims = {c.shape[0] for c in cols}
        if len(dims) != 1:
            raise DimensionMismatch(f"mixed vector dimensions {sorted(dims)}")
        return cls(np.column_stack(cols))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def size(self) -> int:
        return self.matrix.shape[1]

    @property
    def field(self) -> str:
        return field_of(self.matrix)

    @property
    def vectors(self):
        return [self.matrix[:, i] for i in range(self.size)]

    def close_to(self, other: "Frame", tol: float = DEFAULT_TOL) -> bool:
        """Entrywise order-sensitive comparison."""
        if self.matrix.shape != other.matrix.shape:
            return False
        return fro(self.matrix - other.matrix) <= tol * max(1.0, fro(self.matrix))

    # The memos below are derived from the read-only matrix of a frozen
    # Frame, so none can go stale; their arrays are read-only.  A Frame
    # built again from the same matrix gets its own.  A member that raises
    # keeps nothing and raises again on the next use.

    @cached_property
    def _spectrum(self):
        """The frame operator S = F F* and its ascending eigenvalues."""
        s_op = frame_operator(self)
        return _freeze(s_op), _freeze(_eigenvalues(s_op))

    @cached_property
    def _inverse(self):
        """S^-1.  Read it only after _require_frame, so that S^-1 is never
        formed for a Frame that is not a frame."""
        try:
            return _freeze(np.linalg.inv(self._spectrum[0]))
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(str(exc)) from exc

    @cached_property
    def _scaling_rows(self):
        """(aeq, beq): the rows of _scaling_system over the columns."""
        aeq, beq = _scaling_system(self.matrix)
        return _freeze(aeq), _freeze(beq)


@dataclass(frozen=True)
class FrameReport:
    lower_bound: float
    upper_bound: float
    is_frame: bool
    is_tight: bool
    tight_constant: Optional[float]
    parseval: bool


@dataclass(frozen=True)
class FusionDecomposition:
    subspaces: list          # orthonormal bases of the W_s
    lower_bound: float       # C
    upper_bound: float       # D
    is_fusion_frame: bool


@lru_cache(maxsize=64)
def _pairs(n: int):
    """np.triu_indices(n, 1) as read-only arrays, built once per n."""
    iu, ju = np.triu_indices(n, 1)
    iu.setflags(write=False)
    ju.setflags(write=False)
    return iu, ju


def _scaling_system(m):
    """Rows of sum_i x_i vech(m_i m_i*) = vech(I) over the columns of m.

    One row per index i (|m(i)|^2, rhs 1), then the real parts of
    m(i) conj(m(j)) for pairs i < j (rhs 0), then, when m is complex,
    their imaginary parts (rhs 0).
    """
    m = np.asarray(m)
    iu, ju = _pairs(m.shape[0])
    prod = m[iu] * m[ju].conj()
    aeq = np.vstack([np.abs(m) ** 2, prod.real] + ([prod.imag] if np.iscomplexobj(m) else []))
    beq = np.zeros(aeq.shape[0])
    beq[:m.shape[0]] = 1.0
    return aeq, beq


def frame_operator(frame: Frame) -> np.ndarray:
    """S = F F* = sum_i f_i f_i*."""
    f = frame.matrix
    s = f @ f.conj().T
    return (s + s.conj().T) / 2.0


def analyze(frame: Frame, tol: float = DEFAULT_TOL) -> FrameReport:
    """Frame bounds A = lambda_min(S), B = lambda_max(S) and derived flags.

    Rank-deficient systems come back with is_frame false rather than an
    error; tightness is decided spectrally here (the diagram-vector test
    in the scalability module is an independent oracle for the same
    question).  Only the eigenvalues of S are computed (frame_operator
    makes S exactly Hermitian), once per Frame; a LAPACK failure raises
    NumericalFailure.
    """
    lam = frame._spectrum[1]
    lower = float(lam[0])
    upper = float(lam[-1])
    is_frame = lower > tol
    is_tight = is_frame and (upper - lower) <= tol * upper
    constant = (upper + lower) / 2.0 if is_tight else None
    parseval = is_tight and abs(lower - 1.0) <= tol
    return FrameReport(lower_bound=lower, upper_bound=upper, is_frame=is_frame,
                       is_tight=is_tight, tight_constant=constant, parseval=parseval)


def _eigenvalues(s) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian S; a LAPACK failure is a NumericalFailure."""
    try:
        return np.linalg.eigvalsh(s)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(str(exc)) from exc


def _require_frame(frame: Frame, tol: float) -> None:
    """Raise NotAFrame unless the lower frame bound of frame is above tol."""
    report = analyze(frame, tol)
    if not report.is_frame:
        raise NotAFrame(f"lower bound {report.lower_bound:.3e} is not positive")


def canonical_dual(frame: Frame, tol: float = DEFAULT_TOL) -> Frame:
    """The canonical dual {S^{-1} f_i}, solved with S by LU."""
    _require_frame(frame, tol)
    return Frame(np.linalg.solve(frame._spectrum[0], frame.matrix))


def verify_duality(frame: Frame, dual: Frame, tol: float = DEFAULT_TOL) -> bool:
    """True iff F G* = I within tol."""
    if frame.matrix.shape != dual.matrix.shape:
        raise ShapeMismatch(
            f"frame is {frame.matrix.shape}, candidate dual is {dual.matrix.shape}")
    prod = frame.matrix @ dual.matrix.conj().T
    return fro(prod - np.eye(frame.dim)) <= tol


def fusion_check(subframes, tol: float = DEFAULT_TOL) -> FusionDecomposition:
    """Check whether the spans W_s of the subframes form a fusion frame.

    Each W_s is the numerical column span of its subframe; the fusion
    bounds C, D are the extreme eigenvalues of sum_s P_s where P_s is
    the orthogonal projection onto W_s.
    """
    subframes = list(subframes)
    if not subframes:
        raise ValueError("need at least one subframe")
    n = subframes[0].dim
    for i, sub in enumerate(subframes):
        if sub.dim != n:
            raise DimensionMismatch(f"subframe {i} has dim {sub.dim}, expected {n}")
    bases = []
    total = np.zeros((n, n), dtype=complex if any(s.field == "complex" for s in subframes) else float)
    for sub in subframes:
        _, _, basis = svd_rank(sub.matrix, tol)
        bases.append(basis)
        total = total + basis @ basis.conj().T
    lam, _ = hermitian_eig(total, tol)
    lower = float(lam[-1])
    upper = float(lam[0])
    return FusionDecomposition(subspaces=bases, lower_bound=lower,
                               upper_bound=upper, is_fusion_frame=lower > tol)
