"""Structured generators: companions, block stacks, rotations, harmonic systems.

Each constructor returns either an operator matrix or a full system
spec; scalability claims attached to a family are certified downstream
by the feasibility solver, never assumed from the construction alone.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import DynamicalSystemSpec, _orbit_system
from .errors import (AllZeroCoefficients, CriterionFailed, DegenerateTrace,
                     IndexOutOfRange, KTooSmall, ShapeMismatch, ZeroVector)
from .frames import Frame
from .numkernel import DEFAULT_TOL, as_matrix, as_vector


@dataclass(frozen=True)
class CompanionSpec:
    """Coefficients a_1..a_n of a companion operator; n >= 2, not all zero."""

    coefficients: np.ndarray

    def __post_init__(self):
        a = as_vector(self.coefficients, field="real")
        if a.shape[0] < 2:
            raise ValueError("companion operators need dimension at least 2")
        if np.all(a == 0.0):
            raise AllZeroCoefficients("companion coefficients are all zero")
        object.__setattr__(self, "coefficients", a)


@dataclass(frozen=True)
class BlockDiagSpec:
    """Square diagonal blocks A_1..A_p."""

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(as_matrix(b) for b in self.blocks)
        if not blocks:
            raise ValueError("need at least one block")
        for i, b in enumerate(blocks):
            if b.shape[0] != b.shape[1]:
                raise ShapeMismatch(f"block {i} has shape {b.shape}, expected square")
        object.__setattr__(self, "blocks", blocks)

    @property
    def dims(self):
        return tuple(b.shape[0] for b in self.blocks)

    @property
    def offsets(self):
        return tuple(int(o) for o in np.concatenate([[0], np.cumsum(self.dims)[:-1]]))


@dataclass(frozen=True)
class TwoParamBlock:
    """Real parameters (a, b, c, d) of the 2x2 scalability criteria."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            val = float(getattr(self, name))
            if not np.isfinite(val):
                raise ValueError(f"parameter {name} must be finite")
            object.__setattr__(self, name, val)


def companion(spec) -> np.ndarray:
    """Companion operator: subdiagonal identity, last column a_1..a_n.

    The pure shift a = (1, 0, ..., 0) cycles the basis, so iterating e1
    to power n-1 yields the identity frame for any companion.
    """
    if not isinstance(spec, CompanionSpec):
        spec = CompanionSpec(np.asarray(spec, dtype=float))
    a = spec.coefficients
    n = a.shape[0]
    m = np.zeros((n, n))
    for i in range(n - 1):
        m[i + 1, i] = 1.0
    m[:, n - 1] = a
    return m


def block_diag(spec: BlockDiagSpec) -> np.ndarray:
    if not isinstance(spec, BlockDiagSpec):
        spec = BlockDiagSpec(tuple(spec))
    n = sum(spec.dims)
    out = np.zeros((n, n), dtype=np.result_type(*spec.blocks))
    for blk, off, d in zip(spec.blocks, spec.offsets, spec.dims):
        out[off:off + d, off:off + d] = blk
    return out


def embed(spec: BlockDiagSpec, v, s: int) -> np.ndarray:
    """Well-embedded copy of v: block s coordinates carry v, all else zero.

    Embedding commutes with the operators: block_diag(spec) @ embed(v, s)
    equals embed(A_s v, s).
    """
    if not isinstance(spec, BlockDiagSpec):
        spec = BlockDiagSpec(tuple(spec))
    if not (0 <= s < len(spec.blocks)):
        raise IndexOutOfRange(f"block index {s} out of range 0..{len(spec.blocks) - 1}")
    v = as_vector(v)
    ns = spec.dims[s]
    if v.shape[0] != ns:
        raise ShapeMismatch(f"vector has dim {v.shape[0]}, block {s} has dim {ns}")
    total = int(sum(spec.dims))
    out = np.zeros(total, dtype=v.dtype)
    off = spec.offsets[s]
    out[off:off + ns] = v
    return out


def check_2scale(p: TwoParamBlock, tol: float = DEFAULT_TOL):
    """Strict scalability of {e1, (a,b), (c,d)} with closed-form weights.

    Inside the criterion's scope (a > 0, abcd != 0) the test is
    0 < -ac/(bd) < 1, and the returned weights (x, y, z) make
    [[x, ya, zc], [0, yb, zd]] Parseval.  Outside the scope the question
    is settled by the feasibility solver instead and solver weights are
    returned when strict.
    """
    a, b, c, d = p.a, p.b, p.c, p.d
    if a > 0 and a * b * c * d != 0.0:
        ratio = -(a * c) / (b * d)
        if not (0.0 < ratio < 1.0):
            return False, None
        det = a * d - b * c
        x = np.sqrt(a * c / (b * d) + 1.0)
        y = np.sqrt(c / (-b * det))
        z = np.sqrt(a / (d * det))
        return True, np.array([x, y, z])

    from .scalability import ScalingCertificate, solve_scaling
    try:
        frame = Frame(np.array([[1.0, a, c], [0.0, b, d]]))
    except ZeroVector:
        return False, None
    res = solve_scaling(frame, tol=tol)
    if isinstance(res, ScalingCertificate) and res.strict:
        return True, res.weights
    return False, None


def tight_2x3(a: float, d: float, sign: int = 1) -> TwoParamBlock:
    """Parameters (a, b, c, d) whose operator [[a,c],[b,d]] iterates e1
    into a tight three-vector frame.

    b and c come from closed forms in a and the trace a + d; the two
    sign branches mirror them.  Only tightness is claimed for this
    family.
    """
    a = float(a)
    d = float(d)
    if a + d == 0.0:
        raise DegenerateTrace("closed forms divide by a + d")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    t = a + d
    num = a * a * t * t + t * t + a * a
    den = 1.0 + t * t
    b = sign / t * np.sqrt(num / den)
    c = -sign * a * (a * d + a * a + 1.0) * np.sqrt(den / num)
    return TwoParamBlock(a=a, b=float(b), c=float(c), d=d)


def check_2x4(p: TwoParamBlock) -> bool:
    """Strict scalability of {e1, e2, (a,b), (c,d)}: holds iff abcd < 0.

    The sign test is the whole criterion; certificates come from the
    feasibility solver (the closed-form weights for this family do not
    survive verification, so none are printed here).
    """
    return p.a * p.b * p.c * p.d < 0.0


def rotation_system(omega: float, n: int, placement: str = "shift",
                    signs=None) -> DynamicalSystemSpec:
    """Rotation-carrying operators with their generating vectors.

    placement "shift": lower-shift with the rotation block R(omega) in
    the last two coordinates, generator e1, L = n.  placement "schur":
    diag(signs) in the first n-2 coordinates plus R(omega), generators
    e_{n-1} (L = 2) and each sign coordinate (L = 1).  Angles are in
    radians.
    """
    if n < 2:
        raise ValueError("rotation systems need dimension at least 2")
    cw, sw = np.cos(omega), np.sin(omega)
    rot = np.array([[cw, -sw], [sw, cw]])

    if placement == "shift":
        a = np.zeros((n, n))
        for i in range(1, n - 1):
            a[i, i - 1] = 1.0
        a[n - 2:, n - 2:] = rot
        e1 = np.zeros(n)
        e1[0] = 1.0
        return DynamicalSystemSpec.single(a, e1, n)

    if placement == "schur":
        if signs is None:
            signs = (1.0,) * (n - 2)
        signs = tuple(float(s) for s in signs)
        if len(signs) != n - 2 or any(s not in (1.0, -1.0) for s in signs):
            raise ValueError(f"need {n - 2} signs, each +1 or -1")
        a = np.zeros((n, n))
        for i, s in enumerate(signs):
            a[i, i] = s
        a[n - 2:, n - 2:] = rot
        gens = []
        rot_gen = np.zeros(n)
        rot_gen[n - 2] = 1.0
        gens.append(rot_gen)
        for l in range(n - 2):
            el = np.zeros(n)
            el[l] = 1.0
            gens.append(el)
        return _orbit_system(a, gens, [2] + [1] * (n - 2))

    raise ValueError(f"unknown placement {placement!r}")


def harmonic(n: int, k: int) -> DynamicalSystemSpec:
    """Harmonic system: A = diag(1, g, ..., g^{n-1}) with g = e^{2 pi i / k},
    generator (1, ..., 1)/sqrt(k), L = k - 1.

    Iterating yields k vectors whose synthesis matrix has orthonormal
    rows (character orthogonality), a Parseval frame of C^n; k >= n is
    required for the characters to stay distinct.
    """
    if n < 1:
        raise ValueError("dimension must be positive")
    if k < n:
        raise KTooSmall(f"k = {k} below dimension {n}")
    gamma = np.exp(2j * np.pi / k)
    a = np.diag(gamma ** np.arange(n))
    v = np.ones(n, dtype=complex) / np.sqrt(k)
    return DynamicalSystemSpec.single(a, v, k - 1)


def multigen_rotation(planes, n: Optional[int] = None) -> DynamicalSystemSpec:
    """Plane-rotation operators sharing the generator e1.

    Each plane is (p, q, k, l, alpha) with 0-based indices, p < k and
    q < l: the operator carries cos(alpha) at (p, q) and (k, l),
    -sin(alpha) at (p, l), sin(alpha) at (k, q), zeros elsewhere.  The
    built system is {e1} followed by {A_m e1, A_m^2 e1} for each plane,
    the bare generator listed once.
    """
    planes = [tuple(pl) for pl in planes]
    if not planes:
        raise ValueError("need at least one plane")
    if n is None:
        n = max(max(pl[2], pl[3]) for pl in planes) + 1
    ops = []
    for pl in planes:
        if len(pl) != 5:
            raise ValueError("each plane is (p, q, k, l, alpha)")
        p, q, k, l, alpha = int(pl[0]), int(pl[1]), int(pl[2]), int(pl[3]), float(pl[4])
        for idx in (p, q, k, l):
            if not (0 <= idx < n):
                raise IndexOutOfRange(f"index {idx} out of range for dimension {n}")
        if not (p < k and q < l):
            raise IndexOutOfRange(f"plane indices must satisfy p < k and q < l: {pl[:4]}")
        a = np.zeros((n, n))
        a[p, q] = np.cos(alpha)
        a[p, l] = -np.sin(alpha)
        a[k, q] = np.sin(alpha)
        a[k, l] = np.cos(alpha)
        ops.append(a)

    e1 = np.zeros(n)
    e1[0] = 1.0
    gens = [e1]
    triples = [(0, 0, 2)]
    for m in range(1, len(ops)):
        gens.append(ops[m] @ e1)
        triples.append((m, m, 1))
    return DynamicalSystemSpec(operators=tuple(ops), generators=tuple(gens),
                               triples=tuple(triples))


def r3_structured(a: float, b: float, c: Optional[float] = None,
                  d: Optional[float] = None, n: int = 3,
                  tol: float = DEFAULT_TOL) -> DynamicalSystemSpec:
    """Structured strictly scalable families with a checked criterion.

    With four parameters: the operator [[0,0,0],[1,a,c],[0,b,d]] on R^3,
    generator e1, L = 3; its iterated frame splits as {e1} stacked on
    the 2D block {e1, (a,b), (a^2+bc, ab+bd)}, so the criterion is the
    2x2 test on (a, b, a^2+bc, ab+bd).  With two parameters: the
    companion with last column (0,...,0,a,b) on R^n, generator e1,
    L = n+1; the criterion is a + b^2 < 0 (the iterated frame ends in a
    2x4 block with abcd = a^2 b^2 (a + b^2)).
    """
    a = float(a)
    b = float(b)
    if (c is None) != (d is None):
        raise ValueError("give both c and d or neither")

    if c is None:
        if not a + b * b < 0.0:
            raise CriterionFailed(f"a + b^2 = {a + b * b:g} is not negative")
        coeffs = np.zeros(n)
        coeffs[n - 2] = a
        coeffs[n - 1] = b
        op = companion(CompanionSpec(coeffs))
        e1 = np.zeros(n)
        e1[0] = 1.0
        return DynamicalSystemSpec.single(op, e1, n + 1)

    c = float(c)
    d = float(d)
    mapped = TwoParamBlock(a=a, b=b, c=a * a + b * c, d=a * b + b * d)
    ok, _ = check_2scale(mapped, tol)
    if not ok:
        raise CriterionFailed(
            "2x2 block criterion fails for "
            f"(a, b, a^2+bc, ab+bd) = ({a:g}, {b:g}, {mapped.c:g}, {mapped.d:g})")
    op = np.array([[0.0, 0.0, 0.0], [1.0, a, c], [0.0, b, d]])
    e1 = np.array([1.0, 0.0, 0.0])
    return DynamicalSystemSpec.single(op, e1, 3)
