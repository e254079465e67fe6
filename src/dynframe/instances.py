"""Random instance generators for property suites and tests.

All generators take a numpy Generator so suites can derive per-trial
seeds deterministically; nothing here touches global RNG state.
"""

import numpy as np

from .dynamics import DynamicalSystemSpec, iterate
from .frames import Frame, analyze
from .numkernel import DEFAULT_TOL

# least ratio of smallest to largest singular value in random_frame and random_invertible
_MIN_COND = 0.05


def random_vector(rng, n, field="real"):
    v = rng.standard_normal(n)
    if field == "complex":
        v = v + 1j * rng.standard_normal(n)
    nrm = np.linalg.norm(v)
    if nrm < 1e-6:
        v[0] = v[0] + 1.0
    return v


def random_matrix(rng, n, m=None, field="real"):
    m = n if m is None else m
    a = rng.standard_normal((n, m))
    if field == "complex":
        a = a + 1j * rng.standard_normal((n, m))
    return a


def random_unitary(rng, n, field="real"):
    q, r = np.linalg.qr(random_matrix(rng, n, field=field))
    # fix the phase ambiguity so the draw is a haar-uniform unitary
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_invertible(rng, n, field="real"):
    while True:
        a = random_matrix(rng, n, field=field)
        s = np.linalg.svd(a, compute_uv=False)
        if s[-1] > _MIN_COND * s[0]:
            return a


def random_normal_matrix(rng, n, field="real"):
    """Normal matrix with a spread-out spectrum.

    Real draws alternate between symmetric matrices and block-rotation
    normal forms so both eigh and Schur paths get exercised.
    """
    u = random_unitary(rng, n, field=field)
    if field == "complex":
        lam = random_vector(rng, n, "complex")
        return u @ np.diag(lam) @ u.conj().T
    if rng.integers(2) == 0:
        lam = rng.standard_normal(n)
        return u @ np.diag(lam) @ u.T
    d = np.zeros((n, n))
    i = 0
    while i < n:
        if i + 1 < n and rng.integers(2) == 0:
            w = rng.uniform(0.2, np.pi - 0.2)
            r = rng.uniform(0.5, 1.5)
            d[i:i + 2, i:i + 2] = r * np.array([[np.cos(w), -np.sin(w)],
                                                [np.sin(w), np.cos(w)]])
            i += 2
        else:
            d[i, i] = rng.standard_normal()
            if abs(d[i, i]) < 0.1:
                d[i, i] = 0.5
            i += 1
    return u @ d @ u.T


def random_frame(rng, n, k, field="real"):
    """Generic frame, resampled until decently conditioned.

    The conditioning floor keeps inverse-based identities (duals,
    reconstruction) testable at tight tolerances without blowup from
    near-degenerate draws.
    """
    while True:
        m = random_matrix(rng, n, k, field=field)
        s = np.linalg.svd(m, compute_uv=False)
        if s[-1] > _MIN_COND * s[0]:
            return Frame(m)


def random_parseval(rng, n, k, field="real"):
    """Parseval frame: n orthonormal rows of a random k x k unitary."""
    u = random_unitary(rng, k, field=field)
    return Frame(u[:n, :])


def random_scalable_frame(rng, n, k, field="real"):
    """Frame known to be scalable: a Parseval frame with columns unscaled.

    Returns (frame, reference weights); the reference weights restore
    the Parseval property, so feasibility is guaranteed by construction.
    """
    parseval = random_parseval(rng, n, k, field=field)
    w = rng.uniform(0.4, 2.5, size=k)
    return Frame(parseval.matrix / w), w


def random_spec(rng, n, field="real", max_ops=1, frame_only=True):
    """Random iterated system sharing one generator across operators.

    With frame_only, draws are resampled until the iterated system is a
    frame with moderate spread between its bounds, so inverse-based
    identities stay testable at tight tolerances.
    """
    while True:
        n_ops = int(rng.integers(1, max_ops + 1))
        ops = tuple(random_matrix(rng, n, field=field) * 0.7 for _ in range(n_ops))
        gen = random_vector(rng, n, field)
        total = 0
        triples = []
        for s in range(n_ops):
            l = int(rng.integers(1, n + 2))
            triples.append((s, 0, l))
            total += l + 1
        if total < n:
            continue
        spec = DynamicalSystemSpec(operators=ops, generators=(gen,),
                                   triples=tuple(triples))
        if not frame_only:
            return spec
        report = analyze(iterate(spec), DEFAULT_TOL)
        if report.is_frame and report.lower_bound > 1e-3 * report.upper_bound:
            return spec


def random_diagonal_data(rng, n, field="real", n_gens=1, max_l=3):
    """Diagonal entries, generators, and iteration counts for weight systems."""
    if field == "complex":
        a = np.exp(1j * rng.uniform(0, 2 * np.pi, size=n)) * rng.uniform(0.6, 1.4, size=n)
    else:
        a = rng.standard_normal(n)
        a[np.abs(a) < 0.15] = 0.5
    gens = []
    iters = []
    for _ in range(n_gens):
        gens.append(random_vector(rng, n, field))
        iters.append(int(rng.integers(1, max_l + 1)))
    return a, gens, iters
