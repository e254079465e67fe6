"""Benchmark inputs, drawn by the benchmark's own code.

Nothing here imports dynframe: every input is plain numpy data together
with the truth it carries by construction, so a change to the program
(its `instances` module included) cannot change what the benchmark feeds
it or what it expects back.

Items are dicts.  Scaling items carry a synthesis matrix `F` (columns are
the frame vectors) and `scalable`, the verdict the construction forces;
normal-operator systems also carry `normal = (A, generators, iters)`.
Dynamics items carry a system `(operators, generators, triples)` and the
vector `f` to sample.
"""

import numpy as np

from checks import iterate, spectrum

# The seven ROADMAP item 1 frames on which solve_scaling fails on every
# run: a false InfeasibleWitness for (6, 17), (10, 2), (10, 11), (12, 1)
# and NumericalFailure for (8, 15), (10, 19), (12, 3).  They are fixed
# draws (independent of --seed), so the failed share is the same in every
# run; the fix for ROADMAP item 1 moves this count.
KNOWN_FAULTS = frozenset({(6, 17), (8, 15), (10, 2), (10, 11), (10, 19),
                          (12, 1), (12, 3)})

# Margin kept between a block's largest doubled-angle gap and pi, so the
# verdict of the gap rule is never a rounding question.
GAP_MARGIN = 0.3

# Largest condition number of the frame operator accepted for a random
# iterated system in dual-sampling; draws above it are redrawn.
MAX_COND = 1e3


def _rng(seed, *tags):
    return np.random.default_rng([int(seed), *tags])


# -- closed forms -----------------------------------------------------------

def rotation(omega):
    c, s = np.cos(omega), np.sin(omega)
    return np.array([[c, -s], [s, c]])


def doubled_angle_gap(omega, iters):
    """Largest gap between the angles 2 j omega (mod 2 pi), j = 0..iters.

    The block {R(omega)^j e1 : j <= iters} of R^2 is scalable exactly
    when 0 lies in the convex hull of the unit vectors at these angles
    (f f* = (I + diagram)/2 for a unit f), i.e. when no gap exceeds pi.
    """
    ang = np.sort(np.mod(2.0 * omega * np.arange(iters + 1), 2.0 * np.pi))
    gaps = np.diff(np.concatenate([ang, [ang[0] + 2.0 * np.pi]]))
    return float(gaps.max())


def shift_companion(n):
    """Cyclic shift: the companion operator with last column e1."""
    a = np.zeros((n, n))
    a[np.arange(1, n), np.arange(n - 1)] = 1.0
    a[0, n - 1] = 1.0
    return a


def unit(n, i=0):
    e = np.zeros(n)
    e[i] = 1.0
    return e


def harmonic_system(n, k):
    """diag(gamma^r) on the constant vector 1/sqrt(k), L = k - 1."""
    gamma = np.exp(2j * np.pi * np.arange(n) / k)
    return (np.diag(gamma),), (np.ones(n, dtype=complex) / np.sqrt(k),), ((0, 0, k - 1),)


def harmonic_frame(n, k):
    """Closed form of the iterated harmonic frame: gamma^{rj} / sqrt(k)."""
    r = np.arange(n)[:, None]
    j = np.arange(k)[None, :]
    return np.exp(2j * np.pi * ((r * j) % k) / k) / np.sqrt(k)


def rotation_shift_operator(n, omega):
    """The `rotation` preset: lower shift with R(omega) on the last two coordinates."""
    a = np.zeros((n, n))
    a[np.arange(1, n - 1), np.arange(0, n - 2)] = 1.0
    a[n - 2:, n - 2:] = rotation(omega)
    return a


def block_system(omegas, iters):
    """Block-diagonal rotations with well-embedded generators e1 of each block."""
    p = len(omegas)
    a = np.zeros((2 * p, 2 * p))
    gens = []
    for t, w in enumerate(omegas):
        a[2 * t:2 * t + 2, 2 * t:2 * t + 2] = rotation(w)
        gens.append(unit(2 * p, 2 * t))
    triples = tuple((0, t, int(l)) for t, l in enumerate(iters))
    return (a,), tuple(gens), triples


def _block_angle(rng, scalable, iters):
    """An angle whose doubled angles over L = iters leave a gap clearly below or above pi."""
    while True:
        omega = float(rng.uniform(0.1, np.pi - 0.1))
        gap = doubled_angle_gap(omega, iters)
        if (gap <= np.pi - GAP_MARGIN) if scalable else (gap >= np.pi + GAP_MARGIN):
            return omega


# -- scaling inputs ---------------------------------------------------------

def roadmap_frame(n, s):
    """ROADMAP item 1 draw (n, s), reproducing random_scalable_frame exactly.

    rng = default_rng(1000 n + s); k = rng.integers(2n, 5n); the rows of a
    Haar orthogonal k x k matrix (QR of a Gaussian, signs fixed by R) are
    a Parseval frame; each column is divided by w ~ U(0.4, 2.5), so x = w^2
    scales it back.
    """
    rng = np.random.default_rng(1000 * n + s)
    k = int(rng.integers(2 * n, 5 * n))
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    w = rng.uniform(0.4, 2.5, size=k)
    return u[:n, :] / w, w


def _system_item(name, system, scalable):
    """A single-operator normal system: its frame, plus the normal_scalability arguments."""
    ops, gens, triples = system
    return {"name": name, "F": iterate(ops, gens, triples), "scalable": scalable,
            "normal": (ops[0], gens, tuple(l for _, _, l in triples))}


def certify_inputs(seed):
    """Scalable by construction; only the block angles depend on the seed."""
    items = []
    for n in (6, 8, 10, 12):
        for s in range(20):
            f, _ = roadmap_frame(n, s)
            items.append({"name": f"roadmap-{n}-{s}", "F": f, "scalable": True,
                          "known_fault": (n, s) in KNOWN_FAULTS})
    for n, k in ((4, 8), (6, 12), (8, 16), (12, 24), (16, 32), (20, 40), (24, 48)):
        item = _system_item(f"harmonic-{n}-{k}", harmonic_system(n, k), True)
        item["parseval"] = True
        items.append(item)
    for n in range(3, 9):
        for l in (n - 1, n, n + 1):
            items.append(_system_item(f"companion-{n}-L{l}",
                                      ((shift_companion(n),), (unit(n),), ((0, 0, l),)),
                                      True))
    rng = _rng(seed, 1)
    for p in (2, 2, 3, 3, 4, 4, 5, 5):
        iters = [2 + t % 3 for t in range(p)]
        omegas = [_block_angle(rng, True, l) for l in iters]
        items.append(_system_item(f"block-{p}", block_system(omegas, iters), True))
    return items


def orthant_frame(rng, n, k):
    """The witness-soundness rule: entries U(0.1, 1), k in [n, n+3].

    Every off-diagonal entry of sum x_i f_i f_i* is positive for x >= 0,
    x != 0, so no scaling exists.
    """
    return rng.uniform(0.1, 1.0, size=(n, k))


def cap_frame(rng, n, k):
    """Columns in a narrow cone about e1: |f_i(1)|^2 > |f_i|^2 / n.

    Comparing the (1,1) entry of sum x_i f_i f_i* = I with its trace
    gives 1 = sum x_i |f_i(1)|^2 > sum x_i |f_i|^2 / n = 1, so no scaling
    exists.
    """
    rest = rng.standard_normal((n - 1, k))
    radius = np.sqrt(rng.uniform(0.2, 0.8, size=k) * (n - 1))
    head = rng.choice([-1.0, 1.0], size=k)
    return np.vstack([head, rest / np.linalg.norm(rest, axis=0) * radius])


def refute_inputs(seed):
    """Not scalable by construction; the entries of the orthant and cap
    frames and the block angles follow the seed, the sizes do not."""
    rng = _rng(seed, 2)
    items = []
    for n in range(4, 17):
        for t in range(3):
            items.append({"name": f"orthant-{n}-{t}", "F": orthant_frame(rng, n, n + t),
                          "scalable": False})
            items.append({"name": f"cap-{n}-{t}", "F": cap_frame(rng, n, n + t),
                          "scalable": False})
    for n in range(3, 7):
        for l in range(n - 1):
            items.append(_system_item(f"companion-{n}-L{l}",
                                      ((shift_companion(n),), (unit(n),), ((0, 0, l),)),
                                      False))
    for p in (2, 2, 3, 3, 4, 4, 5, 5):
        bad = int(rng.integers(p))
        iters = [2 + t % 3 for t in range(p)]
        omegas = [_block_angle(rng, t != bad, l) for t, l in enumerate(iters)]
        items.append(_system_item(f"block-{p}-bad{bad}", block_system(omegas, iters), False))
    return items


# -- dynamics inputs --------------------------------------------------------

def _cond(system):
    lam = spectrum(iterate(*system))
    return lam[-1] / lam[0] if lam[0] > 0 else np.inf


def _random_vector(rng, n, complex_field):
    v = rng.standard_normal(n)
    if complex_field:
        v = v + 1j * rng.standard_normal(n)
    return v


def _random_system(rng, n, complex_field, n_ops):
    """Operators of spectral norm in [0.7, 1.1], each on a generator of its own."""
    ops, gens = [], []
    for _ in range(n_ops):
        a = rng.standard_normal((n, n))
        if complex_field:
            a = a + 1j * rng.standard_normal((n, n))
        ops.append(a / np.linalg.norm(a, 2) * rng.uniform(0.7, 1.1))
        gens.append(_random_vector(rng, n, complex_field))
    iters = -(-n // n_ops) + 1
    return tuple(ops), tuple(gens), tuple((s, s, iters) for s in range(n_ops))


def _well_conditioned(rng, draw):
    while True:
        system = draw(rng)
        if _cond(system) <= MAX_COND:
            return system


def _multigen(rng, n):
    """Plane rotations (0, 0, m, m, alpha_m) sharing e1, as the `multigen` preset."""
    ops, gens, triples = [], [], []
    for m in range(1, n):
        alpha = rng.uniform(0.3, np.pi / 2 - 0.3)
        a = np.zeros((n, n))
        a[0, 0] = a[m, m] = np.cos(alpha)
        a[0, m] = -np.sin(alpha)
        a[m, 0] = np.sin(alpha)
        ops.append(a)
    gens.append(unit(n))
    triples.append((0, 0, 2))
    for m in range(1, len(ops)):
        gens.append(ops[m] @ unit(n))
        triples.append((m, m, 1))
    return tuple(ops), tuple(gens), tuple(triples)


def dual_inputs(seed):
    """40 systems: 12 harmonic, 14 structured, 14 random (n <= 8, up to 3 operators)."""
    rng = _rng(seed, 3)
    items = []

    def add(name, system, complex_field, parseval=False):
        n = system[0][0].shape[0]
        items.append({"name": name, "system": system, "parseval": parseval,
                      "f": _random_vector(rng, n, complex_field)})

    for n in (8, 16, 32, 64):
        for k in (n, 2 * n, 4 * n):
            add(f"harmonic-{n}-{k}", harmonic_system(n, k), True, parseval=True)
    for n in range(3, 9):
        omega = float(rng.uniform(0.3, np.pi - 0.3))
        add(f"rotation-{n}", ((rotation_shift_operator(n, omega),), (unit(n),),
                              ((0, 0, n),)), False)
    for p in (2, 3, 4, 5):
        system = _well_conditioned(rng, lambda r: block_system(
            r.uniform(0.3, np.pi - 0.3, size=p), [1 + t % 3 for t in range(p)]))
        add(f"block-{p}", system, False)
    for n in (3, 4, 5, 6):
        add(f"multigen-{n}", _well_conditioned(rng, lambda r: _multigen(r, n)), False)
    # More operators as n grows: one Krylov sequence alone is badly
    # conditioned beyond n = 3, so such draws would mostly be redrawn.
    for n, n_ops in ((2, 1), (3, 1), (4, 2), (5, 2), (6, 3), (7, 3), (8, 3)):
        for complex_field in (False, True):
            system = _well_conditioned(
                rng, lambda r: _random_system(r, n, complex_field, n_ops))
            add(f"random-{n}-{'c' if complex_field else 'r'}{n_ops}", system, complex_field)
    return items
