"""Answer checkers, computed apart from the program.

Each checker returns None when the answer holds and a one-line reason
when it does not.  They use numpy only: the vech system, the spectra,
the dual frames and the closed forms are all rebuilt here rather than
taken from dynframe, and no checker compares against a stored copy of
an earlier output.
"""

import json

import numpy as np

TOL = 1e-9
EPS = np.finfo(float).eps

# Reconstruction and duality hold to rounding: the error bound is
# SLACK * eps * cond(S) * (depth + 1) * scale, with depth the largest
# iteration count.  The worst ratio of error to eps * cond(S) * (depth + 1)
# * scale over 60 seeds of the dual-sampling inputs was 1.1, so SLACK
# leaves about three orders of magnitude.
SLACK = 1e3


def frame_operator(f):
    s = f @ f.conj().T
    return (s + s.conj().T) / 2.0


def spectrum(f):
    """Eigenvalues of F F*, ascending."""
    return np.linalg.eigvalsh(frame_operator(f))


def vech_system(f):
    """Rows of sum_i x_i vech(f_i f_i*) = vech(I), split into real and imaginary parts.

    Row order: the n diagonal entries, then the real parts of the pairs
    i < j in np.triu_indices order, then (complex frames) their imaginary
    parts.
    """
    n = f.shape[0]
    iu, ju = np.triu_indices(n, 1)
    off = f[iu, :] * f[ju, :].conj()
    blocks = [np.abs(f) ** 2, off.real]
    if np.iscomplexobj(f):
        blocks.append(off.imag)
    a = np.vstack(blocks)
    b = np.zeros(a.shape[0])
    b[:n] = 1.0
    return a, b


def scaling_residual(f, x):
    return float(np.linalg.norm((f * x) @ f.conj().T - np.eye(f.shape[0])))


def check_certificate(f, x, tol=TOL):
    """x >= 0 and || F diag(x) F* - I ||_F <= 10 tol."""
    x = np.asarray(x, dtype=float)
    if x.shape != (f.shape[1],):
        return f"certificate has {x.size} weights for {f.shape[1]} vectors"
    if not np.all(np.isfinite(x)) or x.min() < 0.0:
        return "certificate weights are negative or not finite"
    res = scaling_residual(f, x)
    if not res <= 10 * tol:
        return f"certificate residual {res:.3e} above {10 * tol:.1e}"
    return None


def soundness_bound(f, viol):
    """Largest y'b a feasible x allows: viol * sum(x) <= viol * n / min |f_i|^2."""
    return max(viol, 0.0) * f.shape[0] / float(np.min(np.sum(np.abs(f) ** 2, axis=0)))


def check_witness(f, y, tol=TOL):
    """y'A <= tol, y'b > tol, and y'b above the scale-aware soundness bound."""
    a, b = vech_system(f)
    y = np.asarray(y, dtype=float)
    if y.shape != b.shape:
        return f"witness has {y.size} entries for {b.size} rows"
    ya = y @ a
    viol = float(ya.max())
    gap = float(y @ b)
    if not viol <= tol:
        return f"witness violation {viol:.3e} above tol"
    if not gap > tol:
        return f"witness gap {gap:.3e} not above tol"
    bound = soundness_bound(f, viol)
    if not gap > bound:
        return f"witness gap {gap:.3e} under the soundness bound {bound:.3e}"
    return None


def check_bounds(f, lower, upper):
    """Frame bounds agree with eigvalsh(F F*)."""
    lam = spectrum(f)
    slack = 1e3 * EPS * max(1.0, lam[-1]) * f.shape[0]
    if abs(lower - lam[0]) > slack or abs(upper - lam[-1]) > slack:
        return (f"bounds ({lower:.6e}, {upper:.6e}) differ from the spectrum "
                f"({lam[0]:.6e}, {lam[-1]:.6e})")
    return None


def tightness(f):
    """True or False where the spectrum decides tightness clearly, else None."""
    lam = spectrum(f)
    spread = (lam[-1] - lam[0]) / lam[-1]
    if spread < 1e-12:
        return True
    if spread > 1e-6:
        return False
    return None


def error_bound(f, triples, scale):
    lam = spectrum(f)
    depth = max(l for _, _, l in triples)
    return SLACK * EPS * lam[-1] / lam[0] * (depth + 1) * scale


def iterate(operators, generators, triples):
    """Columns A_s^j f_g for each triple (s, g, L), j = 0..L, by repeated products."""
    cols = []
    for s, g, l in triples:
        v = np.asarray(generators[g])
        for _ in range(l + 1):
            cols.append(v)
            v = operators[s] @ v
    return np.column_stack(cols)


def check_frame(f, expected):
    """An iterated frame agrees with the benchmark's own iteration or closed form."""
    if f.shape != expected.shape:
        return f"frame shape {f.shape}, expected {expected.shape}"
    err = float(np.max(np.abs(f - expected)))
    if not err <= 1e3 * EPS * f.shape[1]:
        return f"frame differs from the independent computation by {err:.3e}"
    return None


def check_dual(f, triples, dual_ops, dual_gens):
    """Form B_s^j g_s from the returned dual system and check F G* = I."""
    g = iterate(dual_ops, dual_gens, triples)
    if g.shape != f.shape:
        return f"dual frame shape {g.shape}, expected {f.shape}"
    err = float(np.linalg.norm(f @ g.conj().T - np.eye(f.shape[0])))
    bound = error_bound(f, triples, 1.0)
    if not err <= bound:
        return f"|F G* - I| = {err:.3e} above {bound:.3e}"
    return None


def check_samples(f_frame, vec, values):
    """Samples are <f, A_s^j f_s>, linear in f."""
    expected = f_frame.conj().T @ vec
    values = np.asarray(values)
    if values.shape != expected.shape:
        return f"{values.size} samples, expected {expected.size}"
    err = float(np.max(np.abs(values - expected)))
    if not err <= 1e3 * EPS * max(1.0, float(np.max(np.abs(expected)))) * f_frame.shape[1]:
        return f"samples differ from the independent inner products by {err:.3e}"
    return None


def check_reconstruction(f_frame, triples, vec, recovered):
    """|f_hat - f| under SLACK * eps * cond(S) * (depth + 1) * |f|."""
    err = float(np.linalg.norm(np.asarray(recovered) - vec))
    bound = error_bound(f_frame, triples, float(np.linalg.norm(vec)))
    if not err <= bound:
        return f"reconstruction error {err:.3e} above {bound:.3e}"
    return None


def check_weighted_reconstruction(f_frame, x, vec, recovered):
    """The weighted route is exact up to the certificate residual."""
    err = float(np.linalg.norm(np.asarray(recovered) - vec))
    bound = (scaling_residual(f_frame, x) + SLACK * EPS * f_frame.shape[1]) * float(
        np.linalg.norm(vec))
    if not err <= bound:
        return f"weighted reconstruction error {err:.3e} above {bound:.3e}"
    return None


# -- the CLI file formats, parsed here rather than by dynframe.serialize ----

def parse_entry(x, field):
    return complex(x[0], x[1]) if field == "complex" else float(x)


def parse_matrix(d):
    field = d["field"]
    m = np.array([[parse_entry(x, field) for x in row] for row in d["data"]],
                 dtype=complex if field == "complex" else float)
    if m.shape != (d["rows"], d["cols"]):
        raise ValueError(f"matrix shape {m.shape} disagrees with its header")
    return m


def parse_system(d):
    field = d.get("field", "real")
    ops = tuple(parse_matrix(m) for m in d["operators"])
    gens = tuple(np.array([parse_entry(x, field) for x in g]) for g in d["generators"])
    triples = tuple(tuple(t) for t in d["triples"])
    return ops, gens, triples


def load_json(data):
    """JSON text or bytes in the CLI's canonical form, or a reason it is not."""
    try:
        return json.loads(data), None
    except (ValueError, UnicodeDecodeError) as exc:
        return None, f"output is not JSON: {exc}"


def check_same_bytes(first, again):
    """Running a call twice gives identical output bytes."""
    if first != again:
        at = next((i for i, (p, q) in enumerate(zip(first, again)) if p != q),
                  min(len(first), len(again)))
        return f"output bytes differ between two runs of one call, first at byte {at}"
    return None

