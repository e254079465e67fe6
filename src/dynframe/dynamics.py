"""Iterated-operator systems and dynamical-sampling reconstruction.

A system holds operators A_s, generators f_s, and (operator, generator,
L) triples; iterating produces the frame candidate

    { A_s^j f_s : j = 0, ..., L_s },  triples in order, j ascending.

Powers are built by repeated multiplication so non-diagonalizable
operators are handled the same way as normal ones.  A spec iterates
once: its lattice, its columns and their Frame are formed on first use
and kept on the spec, which is immutable, so every later call on the
same spec reads them.  The frame operator S, its eigenvalues and S^-1
are kept on that Frame (frames.Frame) and read from there.

The canonical dual of the iterated frame is iterated too: B_s^j g_s =
S^-1 A_s^j f_s with B_s = S^-1 A_s S and g_s = S^-1 f_s, where S = F F*
is the frame operator; dynamical_dual returns it as a spec, made once
per spec.  Recovering f from its samples needs only the dual's
synthesis S^-1 F, so reconstruct applies S^-1 to F samples instead of
iterating the dual.  S^-1 is inverted once per Frame, after the frame
check, and the dual and every reconstruction share it.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

from .errors import (DimensionMismatch, IndexMismatch, NumericalFailure, ShapeMismatch,
                     SingularTransport, ZeroVector)
from .frames import Frame, _require_frame
from .numkernel import DEFAULT_TOL, _freeze, as_matrix, as_vector, fro, unitary_diagonalize


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
        return _orbit_system(a, (f,), (iters,))

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    def lattice(self) -> Tuple[Tuple[int, int], ...]:
        """All (triple index, power) pairs in iteration order."""
        return self._lattice

    # The memos below are derived from the fields of a frozen spec, which
    # are read-only copies that no caller holds, so none can go stale; the
    # arrays among them are read-only.  A member that raises (a zero
    # iterate makes no Frame) keeps nothing and raises again on the next use.

    @cached_property
    def _lattice(self) -> Tuple[Tuple[int, int], ...]:
        return tuple((s, j) for s, (_, _, l) in enumerate(self.triples)
                     for j in range(l + 1))

    @cached_property
    def _columns(self) -> np.ndarray:
        """The iterated columns, zero iterates kept: the matrix of the
        spec's Frame, or an array of the spec's own when no Frame can be
        made (a zero iterate, or one whose squared norm leaves the float
        range)."""
        try:
            return self._frame.matrix
        except (ZeroVector, ValueError):
            return _freeze(iterate_columns(self))

    @cached_property
    def _frame(self) -> Frame:
        return Frame(iterate_columns(self))

    @cached_property
    def _dual(self) -> "DynamicalSystemSpec":
        """The dual system of dynamical_dual.  Like Frame._inverse, read it
        only after _require_frame, so that no system that is not a frame
        gets a dual."""
        frame = self._frame
        s_op, s_inv = frame._spectrum[0], frame._inverse
        return DynamicalSystemSpec(
            operators=tuple(s_inv @ (a @ s_op) for a in self.operators),
            generators=tuple((s_inv @ np.stack(self.generators, axis=1)).T),
            triples=self.triples)


def _orbit_system(a, generators, iters) -> DynamicalSystemSpec:
    """The system {A^j f_s : j = 0..L_s} of one operator a, generators f_s
    and iteration counts L_s, one count per generator."""
    gens, iters = tuple(generators), tuple(iters)
    if not gens:
        raise ShapeMismatch("need at least one generator")
    if len(iters) != len(gens):
        raise ShapeMismatch(f"{len(iters)} iteration counts for {len(gens)} generators")
    return DynamicalSystemSpec(operators=(a,), generators=gens,
                               triples=tuple((0, s, l) for s, l in enumerate(iters)))


@dataclass(frozen=True)
class SampleSet:
    """Values <A_s*^j f, f_s> on the (triple, power) lattice of a system."""

    indices: tuple           # ((s, j), ...) in system order
    values: tuple            # matching scalars


@dataclass(frozen=True)
class TransportResult:
    spec: DynamicalSystemSpec
    unitary: bool            # scalability status transfers iff this holds


def _orbits(operators, generators, triples) -> np.ndarray:
    """Columns A_s^j f_g, j = 0..L, for each (s, g, L) in order, in one n x k array."""
    used = [generators[g] for _, g, _ in triples]
    used += [operators[s] for s, _, l in triples if l > 0]
    out = np.empty((used[0].shape[0], sum(l + 1 for _, _, l in triples)),
                   dtype=np.result_type(*used))
    col = 0
    for s, g, l in triples:
        a = operators[s]
        v = out[:, col] = generators[g]
        for j in range(col + 1, col + l + 1):
            v = out[:, j] = a @ v
        col += l + 1
    return out


def iterate_columns(spec: DynamicalSystemSpec) -> np.ndarray:
    """The iterated vectors as columns of one n x k matrix, zero iterates kept.

    A fresh array on every call; the other functions here read the copy
    that the spec keeps after its first use.
    """
    return _orbits(spec.operators, spec.generators, spec.triples)


def iterate(spec: DynamicalSystemSpec) -> Frame:
    """The iterated system as a Frame, triples in order and powers ascending.

    The Frame is built on the first call and the same one is returned on
    later calls with the same spec; its matrix is read-only.
    """
    return spec._frame


def dynamical_dual(spec: DynamicalSystemSpec, tol: float = DEFAULT_TOL) -> DynamicalSystemSpec:
    """The canonical dual system, conjugated by the frame operator.

    The canonical dual of the iterated frame is itself iterated: it is
    generated by B_s = S^{-1} A_s S acting on g_s = S^{-1} f_s, with the
    same iteration counts.  Each B_s is the product S^{-1} (A_s S), and
    all g_s come from one product S^{-1} [f_1 ... f_q], with the S^{-1}
    that the iterated Frame keeps.  The dual is built on the first call
    that passes the frame check, and later calls with the same spec
    return the same one.
    """
    _require_frame(iterate(spec), tol)
    return spec._dual


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

    Each value is <f, A_s^j f_s>, read off F* f with F the spec's iterated
    columns (a zero iterate has the sample 0); the adjoint form
    <A_s*^j f, f_s> comes from one sweep of A_s* per triple on every call,
    read as f_s* times the triple's block of the sweep, and the two are
    cross-checked entry by entry.
    """
    f = as_vector(f)
    if f.shape[0] != spec.dim:
        raise DimensionMismatch(f"sample vector has dim {f.shape[0]}, expected {spec.dim}")
    direct = spec._columns.conj().T @ f
    sweeps = _orbits(tuple(a.conj().T for a in spec.operators), (f,),
                     tuple((s, 0, l) for s, _, l in spec.triples))
    adjoint = np.empty(sweeps.shape[1], dtype=np.result_type(sweeps, *spec.generators))
    col = 0
    for _, g, l in spec.triples:
        adjoint[col:col + l + 1] = spec.generators[g].conj() @ sweeps[:, col:col + l + 1]
        col += l + 1
    indices = spec.lattice()
    bad = np.abs(direct - adjoint) > 10 * tol * np.maximum(1.0, np.abs(direct))
    if bad.any():
        i = int(np.argmax(bad))
        s, j = indices[i]
        raise NumericalFailure(
            f"sample cross-check failed at (s={s}, j={j}): "
            f"{direct[i].item()!r} vs {adjoint[i].item()!r}")
    return SampleSet(indices=indices, values=tuple(direct.tolist()))


def reconstruct(spec: DynamicalSystemSpec, samples: SampleSet,
                weights=None, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Recover f from its samples.

    Without weights the canonical-dual route is used.  The dual frame
    {B_s^j g_s} of the dynamical dual is S^-1 F, so
        f = sum_(s,j) <f, A_s^j f_s> B_s^j g_s = S^-1 (F samples),
    one product with the S^-1 that the iterated Frame keeps (S = F F* is
    inverted once per Frame), with no dual system built or iterated.
    With weights w (a scaling certificate making the iterated frame
    tight), the self-dual route
        f = sum_i w_i^2 <f, v_i> v_i
    over the iterated vectors v_i is used instead.
    """
    lattice = spec.lattice()
    if tuple(samples.indices) != lattice:
        raise IndexMismatch("sample index set does not match the system lattice")
    vals = np.asarray(samples.values)
    frame = iterate(spec)
    _require_frame(frame, tol)
    if weights is None:
        return frame._inverse @ (frame.matrix @ vals)

    w = np.asarray(getattr(weights, "weights", weights), dtype=float).ravel()
    if w.shape[0] != frame.size:
        raise IndexMismatch(
            f"{w.shape[0]} weights for {frame.size} iterated vectors")
    return frame.matrix @ ((w ** 2) * vals)
