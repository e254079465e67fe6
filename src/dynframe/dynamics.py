"""Iterated-operator systems and dynamical-sampling reconstruction.

A system holds operators A_s, generators f_s, and (operator, generator,
L) triples; iterating produces the frame candidate

    { A_s^j f_s : j = 0, ..., L_s },  triples in order, j ascending.

Powers are built by repeated multiplication so non-diagonalizable
operators are handled the same way as normal ones.
"""

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import (DimensionMismatch, IndexMismatch, NotAFrame, NumericalFailure,
                     SingularTransport, ZeroVector)
from .frames import Frame, analyze, canonical_dual, frame_operator
from .numkernel import DEFAULT_TOL, as_matrix, as_vector, fro, inner, unitary_diagonalize


@dataclass(frozen=True)
class DynamicalSystemSpec:
    """Operators, generators, and iteration counts of an iterated system."""

    operators: tuple        # square n x n matrices A_s
    generators: tuple       # nonzero vectors f_s
    triples: tuple          # (operator index, generator index, L) with L >= 0

    def __post_init__(self):
        ops = tuple(as_matrix(a) for a in self.operators)
        gens = tuple(as_vector(f) for f in self.generators)
        if not ops or not gens:
            raise ValueError("need at least one operator and one generator")
        n = ops[0].shape[0]
        for a in ops:
            if a.shape != (n, n):
                raise DimensionMismatch(f"operator shape {a.shape}, expected {(n, n)}")
        for i, f in enumerate(gens):
            if f.shape[0] != n:
                raise DimensionMismatch(f"generator {i} has dim {f.shape[0]}, expected {n}")
            if np.linalg.norm(f) == 0.0:
                raise ZeroVector(f"generator {i} is zero")
        trips = tuple((int(s), int(g), int(l)) for s, g, l in self.triples)
        if not trips:
            raise ValueError("need at least one (operator, generator, L) triple")
        for s, g, l in trips:
            if not (0 <= s < len(ops)):
                raise IndexMismatch(f"triple references operator {s}")
            if not (0 <= g < len(gens)):
                raise IndexMismatch(f"triple references generator {g}")
            if l < 0:
                raise ValueError(f"iteration count {l} is negative")
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "triples", trips)

    @classmethod
    def single(cls, a, f, iters: int) -> "DynamicalSystemSpec":
        return cls(operators=(a,), generators=(f,), triples=((0, 0, iters),))

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    def lattice(self) -> Tuple[Tuple[int, int], ...]:
        """All (triple index, power) pairs in iteration order."""
        out = []
        for s, (_, _, l) in enumerate(self.triples):
            out.extend((s, j) for j in range(l + 1))
        return tuple(out)


@dataclass(frozen=True)
class DualSystem:
    """Canonical dual of an iterated system: B_s = S^{-1} A_s S, g_s = S^{-1} f_s."""

    operators: tuple
    generators: tuple
    source: DynamicalSystemSpec
    frame_op: np.ndarray     # S of the source system

    def as_spec(self) -> DynamicalSystemSpec:
        return DynamicalSystemSpec(operators=self.operators,
                                   generators=self.generators,
                                   triples=self.source.triples)


@dataclass(frozen=True)
class SampleSet:
    """Values <A_s*^j f, g_s> on the (triple, power) lattice of a system."""

    indices: tuple           # ((s, j), ...) in system order
    values: tuple            # matching scalars


@dataclass(frozen=True)
class TransportResult:
    spec: DynamicalSystemSpec
    unitary: bool            # scalability status transfers iff this holds


def iterate_columns(spec: DynamicalSystemSpec) -> np.ndarray:
    """The iterated vectors as columns of one n x k matrix, zero iterates kept."""
    cols = []
    for s, g, l in spec.triples:
        a = spec.operators[s]
        v = spec.generators[g]
        for _ in range(l + 1):
            cols.append(v)
            v = a @ v
    return np.column_stack(cols)


def iterate(spec: DynamicalSystemSpec) -> Frame:
    """The iterated system as a Frame, triples in order and powers ascending."""
    return Frame(iterate_columns(spec))


def dynamical_dual(spec: DynamicalSystemSpec, tol: float = DEFAULT_TOL) -> DualSystem:
    """Dual operators and generators, conjugated by the frame operator.

    The canonical dual of the iterated frame is itself iterated: it is
    generated by B_s = S^{-1} A_s S acting on g_s = S^{-1} f_s, with the
    same iteration counts.
    """
    frame = iterate(spec)
    report = analyze(frame, tol)
    if not report.is_frame:
        raise NotAFrame(f"iterated system has lower bound {report.lower_bound:.3e}")
    s_op = frame_operator(frame)
    ops = tuple(np.linalg.solve(s_op, a @ s_op) for a in spec.operators)
    gens = tuple(np.linalg.solve(s_op, f) for f in spec.generators)
    return DualSystem(operators=ops, generators=gens, source=spec, frame_op=s_op)


def transport(spec: DynamicalSystemSpec, b, tol: float = DEFAULT_TOL) -> TransportResult:
    """Conjugate a system by an invertible map: A_s -> B A_s B^{-1}, f_s -> B f_s.

    Iterating the transported system equals applying B to every iterated
    vector.  When B is unitary the full frame report (and scalability
    status, with identical weights) is preserved; a general invertible B
    preserves only the frame property.
    """
    b = as_matrix(b)
    n = spec.dim
    if b.shape != (n, n):
        raise DimensionMismatch(f"transport map shape {b.shape}, expected {(n, n)}")
    sing = np.linalg.svd(b, compute_uv=False)
    if sing[-1] <= tol * sing[0]:
        raise SingularTransport(
            f"smallest singular value {sing[-1]:.3e} below tolerance")
    b_inv = np.linalg.inv(b)
    ops = tuple(b @ a @ b_inv for a in spec.operators)
    gens = tuple(b @ f for f in spec.generators)
    out = DynamicalSystemSpec(operators=ops, generators=gens, triples=spec.triples)
    unitary = fro(b @ b.conj().T - np.eye(n)) <= tol * max(1.0, fro(b) ** 2)
    return TransportResult(spec=out, unitary=unitary)


def diagonal_reduce(spec: DynamicalSystemSpec, tol: float = DEFAULT_TOL):
    """Reduce a single normal operator A = U D U* to its diagonal model.

    Returns (U, D, reduced spec) where the reduced system uses D with
    generators v_s = U* f_s; iterating it equals U* applied to the
    original iterated vectors, and scalability status is shared.
    """
    if len(spec.operators) != 1:
        raise ValueError("diagonal reduction applies to single-operator systems")
    u, d = unitary_diagonalize(spec.operators[0], tol)
    gens = tuple(u.conj().T @ f for f in spec.generators)
    reduced = DynamicalSystemSpec(operators=(d,), generators=gens, triples=spec.triples)
    return u, d, reduced


def take_samples(spec: DynamicalSystemSpec, f, tol: float = DEFAULT_TOL) -> SampleSet:
    """Inner products of f against every iterated vector.

    Each value is <f, A_s^j f_s>; the adjoint form <A_s*^j f, f_s> is
    computed as well and the two are cross-checked.
    """
    f = as_vector(f)
    if f.shape[0] != spec.dim:
        raise DimensionMismatch(f"sample vector has dim {f.shape[0]}, expected {spec.dim}")
    indices = []
    values = []
    for s, (op_i, gen_i, l) in enumerate(spec.triples):
        a = spec.operators[op_i]
        v = spec.generators[gen_i]
        w = f
        for j in range(l + 1):
            direct = inner(f, v)
            adjoint = inner(w, spec.generators[gen_i])
            if abs(direct - adjoint) > 10 * tol * max(1.0, abs(direct)):
                raise NumericalFailure(
                    f"sample cross-check failed at (s={s}, j={j}): "
                    f"{direct!r} vs {adjoint!r}")
            indices.append((s, j))
            values.append(direct)
            v = a @ v
            w = a.conj().T @ w
    return SampleSet(indices=tuple(indices), values=tuple(values))


def reconstruct(spec: DynamicalSystemSpec, samples: SampleSet,
                weights=None, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Recover f from its samples.

    Without weights the dual-system route is used:
        f = sum_(s,j) <A_s*^j f, f_s> B_s^j g_s
    with (B_s, g_s) the dynamical dual.  With weights w (a scaling
    certificate making the iterated frame tight), the self-dual route
        f = sum_i w_i^2 <f, v_i> v_i
    over the iterated vectors v_i is used instead.
    """
    lattice = spec.lattice()
    if tuple(samples.indices) != lattice:
        raise IndexMismatch("sample index set does not match the system lattice")
    vals = np.asarray(samples.values)
    if weights is None:
        dual = dynamical_dual(spec, tol)
        return iterate(dual.as_spec()).matrix @ vals

    frame = iterate(spec)
    report = analyze(frame, tol)
    if not report.is_frame:
        raise NotAFrame(f"iterated system has lower bound {report.lower_bound:.3e}")
    w = np.asarray(getattr(weights, "weights", weights), dtype=float).ravel()
    if w.shape[0] != frame.size:
        raise IndexMismatch(
            f"{w.shape[0]} weights for {frame.size} iterated vectors")
    return frame.matrix @ ((w ** 2) * vals)
