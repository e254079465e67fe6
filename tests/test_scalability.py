import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynframe import constructions as cons
from dynframe import frames, scalability
from dynframe.dynamics import (DynamicalSystemSpec, dynamical_dual, iterate, reconstruct,
                               take_samples)
from dynframe.errors import (NotNormal, NumericalFailure, ShapeMismatch, TemplateMismatch,
                             ZeroVector)
from dynframe.frames import Frame, analyze
from dynframe.instances import (random_diagonal_data, random_parseval,
                                random_scalable_frame, random_unitary)
from dynframe.numkernel import DEFAULT_TOL, Feasible, InfeasibleWitness, nonneg_feasible
from dynframe.scalability import (ScalingCertificate, _diagram_rows,
                                  _scaling_system, build_diagonal_system,
                                  diagram_vector, gramian_scaling_check,
                                  normal_scalability,
                                  real_one_vector_obstruction,
                                  scaling_residual, solve_scaling, support_pattern_check,
                                  tight_via_diagram)


def cols(*vectors):
    return Frame(np.column_stack([np.asarray(v) for v in vectors]))


def _proves(w, aeq, beq, n):
    # the solver's witness gate on the trace row of n coordinates, which
    # recomputes the gap from w.y: it must raise nothing and agree with w
    return scalability._sound_witness(w.y, aeq, beq, aeq[:n].sum(axis=0), n).gap == w.gap


class TestDiagramVector:
    def test_e1_in_r2(self):
        dv = diagram_vector(np.array([1.0, 0.0]))
        assert np.allclose(dv, [1.0, 0.0])

    def test_diagonal_unit_in_r2(self):
        dv = diagram_vector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        assert np.allclose(dv, [0.0, 1.0])

    def test_e1_in_r3(self):
        dv = diagram_vector(np.array([1.0, 0.0, 0.0]))
        s = 1.0 / np.sqrt(2.0)
        # differences for pairs (0,1), (0,2), (1,2), then products
        assert np.allclose(dv, [s, s, 0.0, 0.0, 0.0, 0.0])

    def test_real_length(self):
        for n in range(2, 6):
            dv = diagram_vector(np.arange(1.0, n + 1.0))
            assert len(dv) == n * (n - 1)

    def test_complex_length_and_values(self):
        dv = diagram_vector(np.array([1.0, 1.0j]) / np.sqrt(2.0))
        assert len(dv) == 3
        assert np.allclose(dv, [0.0, 0.0, -1.0 / np.sqrt(2.0)])
        for n in range(2, 6):
            v = np.arange(1.0, n + 1.0) + 1.0j
            assert len(diagram_vector(v)) == 3 * n * (n - 1) // 2

    def test_zero_rejected(self):
        with pytest.raises(ZeroVector):
            diagram_vector(np.zeros(3))

    def test_dimension_one_is_empty(self):
        assert len(diagram_vector(np.array([2.0]))) == 0

    def test_all_columns_match_reference(self, rng):
        for n in range(1, 9):
            for field in ("real", "complex"):
                m = rng.standard_normal((n, 6))
                if field == "complex":
                    m = m + 1j * rng.standard_normal((n, 6))
                got = _diagram_rows(_scaling_system(m)[0], n, field == "complex")
                ref = np.column_stack(
                    [diagram_vector(m[:, i], field=field) for i in range(6)])
                if field == "complex":
                    # diagram_vector alternates re and im per pair; the rows
                    # read off _scaling_system give all re, then all im
                    pairs = n * (n - 1) // 2
                    ref = np.vstack([ref[:pairs], ref[pairs::2], ref[pairs + 1::2]])
                assert got.shape == ref.shape
                assert np.allclose(got, ref, rtol=0.0, atol=1e-14)
                assert np.allclose(got.T @ got, ref.T @ ref, rtol=0.0, atol=1e-13)


def _parent_scaling_system(m):
    """_scaling_system with np.triu_indices rebuilt on every call."""
    m = np.asarray(m)
    iu, ju = np.triu_indices(m.shape[0], 1)
    sq, prod = np.abs(m) ** 2, m[iu] * m[ju].conj()
    aeq = np.vstack([sq, prod.real] + ([prod.imag] if np.iscomplexobj(m) else []))
    beq = np.zeros(aeq.shape[0])
    beq[:m.shape[0]] = 1.0
    return aeq, beq


class TestPairCache:
    def test_pairs_are_read_only_triu_indices(self):
        for n in range(1, 10):
            iu, ju = scalability._pairs(n)
            ref_i, ref_j = np.triu_indices(n, 1)
            assert np.array_equal(iu, ref_i) and np.array_equal(ju, ref_j)
            assert not iu.flags.writeable and not ju.flags.writeable
            with pytest.raises(ValueError):
                iu[...] = 0
            assert scalability._pairs(n)[0] is iu

    def test_kernels_match_the_uncached_build(self, rng):
        for n in (1, 2, 3, 5, 8, 13):
            for complex_field in (False, True):
                for k in (1, n, 3 * n):
                    m = rng.standard_normal((n, k))
                    if complex_field:
                        m = m + 1j * rng.standard_normal((n, k))
                    for a, b in zip(_scaling_system(m), _parent_scaling_system(m)):
                        assert a.dtype == b.dtype and a.shape == b.shape
                        assert a.tobytes() == b.tobytes()


class TestScalingKernel:
    @staticmethod
    def _vech(s):
        iu, ju = np.triu_indices(s.shape[0], 1)
        parts = [np.diag(s).real, s[iu, ju].real]
        if np.iscomplexobj(s):
            parts.append(s[iu, ju].imag)
        return np.concatenate(parts)

    def test_rows_are_vech_of_the_weighted_sum(self, rng):
        for n in range(1, 9):
            for complex_field in (False, True):
                m = rng.standard_normal((n, 7))
                if complex_field:
                    m = m + 1j * rng.standard_normal((n, 7))
                x = rng.random(7)
                rows, rhs = _scaling_system(m)
                total = sum(x[i] * np.outer(m[:, i], m[:, i].conj()) for i in range(7))
                assert np.allclose(rows @ x, self._vech(total), rtol=0.0, atol=1e-13)
                assert np.array_equal(rhs, self._vech(np.eye(n, dtype=m.dtype)))

    def test_diagonal_system_is_the_kernel_of_its_iterates(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 6))
            field = "complex" if rng.random() < 0.5 else "real"
            a, gens, iters = random_diagonal_data(rng, n, field=field,
                                                  n_gens=int(rng.integers(1, 4)))
            spec = DynamicalSystemSpec(
                operators=(np.diag(a),), generators=tuple(gens),
                triples=tuple((0, g, l) for g, l in enumerate(iters)))
            rows, rhs = _scaling_system(iterate(spec).matrix)
            aeq, beq = build_diagonal_system(a, gens, iters)
            assert np.array_equal(aeq, rows)
            assert np.array_equal(beq, rhs)


class TestTightViaDiagram:
    def test_orthonormal_basis(self):
        assert tight_via_diagram(cols([1.0, 0], [0, 1.0]))

    def test_sign_flip_parseval(self):
        fr = cols([0.5, 0.5], [0.5, -0.5], [0.5, 0.5], [0.5, -0.5])
        assert tight_via_diagram(fr)

    def test_unbalanced(self):
        assert not tight_via_diagram(cols([1.0, 0], [1.0, 0], [0, 1.0]))


class TestSolveScaling:
    def test_basis_plus_repeat(self):
        fr = cols([1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0])
        cert = solve_scaling(fr)
        assert isinstance(cert, ScalingCertificate)
        assert np.allclose(cert.weights, [2 ** -0.5, 1.0, 1.0, 2 ** -0.5], atol=1e-9)
        assert cert.strict and cert.margin == pytest.approx(0.5, abs=1e-9)
        assert cert.residual <= 1e-9

    def test_plus_minus_pair_family(self):
        # weights obey w2^2 = w3^2 = t and w0^2 = w1^2 = 1 - 2t
        fr = cols([1, 0], [0, 1], [1, -1], [1, 1])
        cert = solve_scaling(fr)
        t = cert.squares[2]
        assert cert.squares[3] == pytest.approx(t, abs=1e-9)
        assert cert.squares[0] == pytest.approx(1 - 2 * t, abs=1e-9)
        assert cert.squares[1] == pytest.approx(1 - 2 * t, abs=1e-9)
        assert 0 < t < 0.5
        assert cert.strict

    def test_feasible_but_not_strict(self):
        # an orthonormal basis plus one diagonal vector scales only by
        # dropping the extra vector, so the margin collapses to zero
        fr = cols([1, 0], [0, 1], [2 ** -0.5, 2 ** -0.5])
        cert = solve_scaling(fr)
        assert isinstance(cert, ScalingCertificate)
        assert not cert.strict
        assert abs(cert.margin) <= 1e-9
        assert cert.squares[2] == pytest.approx(0.0, abs=1e-9)

    def test_strict_does_not_depend_on_column_scale(self):
        # strict reads the unit-column weights |f_i|^2 x_i; margin stays min x
        harmonic = iterate(cons.harmonic(3, 7)).matrix
        for scale in (1.0, 1e3, 1e5):
            cert = solve_scaling(Frame(scale * harmonic))
            assert cert.strict, scale
            assert cert.margin == pytest.approx(scale ** -2, rel=1e-9)
        basis_plus_one = np.column_stack([[1.0, 0.0], [0.0, 1.0], [2 ** -0.5, 2 ** -0.5]])
        for scale in (1e-3, 1.0, 1e3):
            cert = solve_scaling(Frame(scale * basis_plus_one))
            assert isinstance(cert, ScalingCertificate) and not cert.strict, scale

    def test_infeasible_returns_witness(self):
        fr = cols([1, 0], [1, 1], [1, 2])
        res = solve_scaling(fr)
        assert isinstance(res, InfeasibleWitness)
        aeq, beq = _scaling_system(fr.matrix)
        assert res.y @ beq > DEFAULT_TOL
        assert np.max(aeq.T @ res.y) <= DEFAULT_TOL

    def test_certificate_residual_recomputes(self, rng):
        for _ in range(20):
            fr, _ = random_scalable_frame(rng, 3, 7)
            cert = solve_scaling(fr)
            assert scaling_residual(fr, cert.squares) <= 10 * DEFAULT_TOL
            assert cert.residual <= DEFAULT_TOL

    def test_complex_frame_scaling(self, rng):
        fr, _ = random_scalable_frame(rng, 3, 8, field="complex")
        cert = solve_scaling(fr)
        assert isinstance(cert, ScalingCertificate)
        assert cert.residual <= DEFAULT_TOL


class TestFrameMemo:
    def test_one_scaling_system_per_frame(self, monkeypatch):
        made = []

        def rows(m):
            made.append(m)
            return _scaling_system(m)

        monkeypatch.setattr(frames, "_scaling_system", rows)
        frame = cols([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0])
        for _ in range(2):
            tight_via_diagram(frame)
            cert = solve_scaling(frame)
            assert gramian_scaling_check(frame)[2]
        assert len(made) == 1 and made[0] is frame.matrix
        assert isinstance(cert, ScalingCertificate) and cert.residual <= DEFAULT_TOL
        # a Frame built again from the same matrix gets its own memo
        again = Frame(frame.matrix)
        assert again.matrix is not frame.matrix and np.array_equal(again.matrix, frame.matrix)
        assert not again.matrix.flags.writeable
        solve_scaling(again)
        analyze(again)
        assert len(made) == 2
        for kept, own in ((frame._scaling_rows, again._scaling_rows),
                          (frame._spectrum, again._spectrum)):
            for a, b in zip(kept, own):
                assert a is not b and np.array_equal(a, b)

    def test_kept_arrays_are_read_only(self):
        frame = cols([1.0, 1j], [1.0, 0.0], [0.0, 2.0])
        analyze(frame)
        solve_scaling(frame)
        for kept in frame._spectrum + frame._scaling_rows:
            with pytest.raises(ValueError, match="read-only"):
                kept[0] = 5.0
        assert np.array_equal(frame._scaling_rows[1], [1.0, 1.0, 0.0, 0.0])

    def test_a_spec_reads_s_off_its_frame(self):
        spec = DynamicalSystemSpec.single(np.diag([1.0, -1.0]), [0.5, 0.5], 3)
        dynamical_dual(spec)
        reconstruct(spec, take_samples(spec, [1.0, 2.0]))
        for name in ("_spectrum", "_inverse"):
            assert name in vars(iterate(spec)) and name not in vars(spec)
        assert "_dual" in vars(spec)


class TestRankTest:
    @staticmethod
    def _with_spectrum(rng, lam):
        q, _ = np.linalg.qr(rng.standard_normal((lam.size, lam.size)))
        gram = (q * lam) @ q.T
        return (gram + gram.T) / 2.0

    def test_never_admits_what_the_eigenvalue_rule_refuses(self, rng):
        # lambda_min / lambda_max near 1e-11 (both rules refuse) and near
        # 1e-9 k (both admit, as _K_RCOND tr <= 1e-10 k lambda_max)
        for k in (2, 3, 6, 15, 40, 78):
            for ratio in (1e-11, 1e-9 * k):
                for _ in range(10):
                    lam = np.concatenate([[ratio], rng.uniform(ratio, 1.0, k - 2), [1.0]])
                    gram = self._with_spectrum(rng, lam * rng.uniform(0.1, 10.0))
                    ev = np.linalg.eigvalsh(gram)
                    admitted = scalability._nonsingular(gram)
                    assert not admitted or ev[0] > scalability._K_RCOND * ev[-1], (k, ratio)
                    assert admitted == (ratio > 1e-10), (k, ratio)

    def test_solve_matches_the_eigen_expansion(self):
        # the forced weights X_g / mass_g, X = K_h^-1 1, on the certify-like
        # frames: the size ladder, harmonic frames and shift-companion orbits
        frames_ = []
        for n in (6, 8, 10, 12):
            for s in range(20):
                rng = np.random.default_rng(1000 * n + s)
                frames_.append(random_scalable_frame(rng, n, int(rng.integers(2 * n, 5 * n)))[0])
        frames_ += [iterate(cons.harmonic(n, 2 * n)) for n in (4, 6, 8, 12)]
        frames_ += [iterate(DynamicalSystemSpec.single(np.roll(np.eye(n), 1, axis=0),
                                                       np.eye(n)[0], l))
                    for n in range(3, 9) for l in (n - 1, n, n + 1)]
        solved = 0
        for frame in frames_:
            m, (aeq, beq) = frame.matrix, frame._scaling_rows
            norms = np.sum(np.abs(m) ** 2, axis=0)
            group, gram = scalability._parallel_groups(m / np.sqrt(norms), aeq.shape[0])
            if gram is None or not scalability._nonsingular(gram):
                continue
            mass = np.bincount(group, weights=norms)
            cert = scalability._forced(gram, group, mass, aeq, beq, m, DEFAULT_TOL)
            lam, vecs = np.linalg.eigh(gram)
            expansion = (vecs @ (vecs.sum(axis=0) / lam))[group] / mass[group]
            assert isinstance(cert, ScalingCertificate)
            assert np.linalg.norm(cert.squares - expansion) <= 1e-12 * np.linalg.norm(expansion)
            solved += 1
        assert solved >= 80


class TestSizeLadder:
    # the (6 ... 20, 2n ... 5n) ladder draws get certificates in verify's
    # diagram-oracle suite, trial 0
    def test_forty_by_two_hundred(self):
        frame, _ = random_scalable_frame(np.random.default_rng(40200), 40, 200)
        res = solve_scaling(frame)
        assert isinstance(res, ScalingCertificate)
        assert res.residual <= DEFAULT_TOL
        assert gramian_scaling_check(frame)[2]


class TestWitnessSoundness:
    @staticmethod
    def _obstructed_frame():
        # the third draw of acceptance criterion 09: one column has
        # squared norm about 2e-11, so a bound that divides the largest
        # violation by the smallest norm is far looser than per column
        rng = np.random.default_rng(1009)
        for _ in range(3):
            a = rng.standard_normal(3)
            v = rng.standard_normal(3)
            l = int(rng.integers(1, 13))
        return iterate(DynamicalSystemSpec.single(np.diag(a), v, l))

    def test_stored_gap_is_not_trusted(self, rng, monkeypatch):
        # the LP hands back its own witness negated, so y'b < 0, with the
        # stored gap inflated to 1e6: the gate reads y'b off y, so the
        # solver and the oracle must both leave the system undecided
        def inflated(aeq, beq, tol=DEFAULT_TOL):
            real = nonneg_feasible(aeq, beq, tol=tol)
            assert isinstance(real, InfeasibleWitness)
            return InfeasibleWitness(y=-real.y, gap=1e6)

        monkeypatch.setattr(scalability, "nonneg_feasible", inflated)
        with pytest.raises(NumericalFailure, match="undecided"):
            solve_scaling(self._obstructed_frame())
        # the oracle's witness program carries no gap of its own: handed
        # its witness negated, it must read y'b < 0 off y, and then the
        # duals of an infeasible system are no null vector either.  One
        # projection step leaves this frame to the LP
        from dynframe import numkernel

        monkeypatch.setattr(scalability, "_CONE_STEPS", 1)
        linprog = numkernel.linprog

        def negated(*args, **kwargs):
            real = linprog(*args, **kwargs)
            assert real.status == 0 and real.x[-1] > 0.01
            return replace(real, x=-real.x)

        monkeypatch.setattr(numkernel, "linprog", negated)
        with pytest.raises(NumericalFailure, match="undecided"):
            gramian_scaling_check(_RANGE_LEFT_INFEASIBLE)

    def test_witness_clears_per_column_bound(self):
        frame = self._obstructed_frame()
        res = solve_scaling(frame)
        assert isinstance(res, InfeasibleWitness)
        aeq, beq = _scaling_system(frame.matrix)
        norms = np.sum(np.abs(frame.matrix) ** 2, axis=0)
        bound = 3 * np.max(np.clip(res.y @ aeq, 0.0, None) / norms)
        assert res.gap == pytest.approx(res.y @ beq)
        assert res.gap > bound

    def test_zero_iterate_adds_nothing_to_the_bound(self):
        # A e1 = 0, so the diagonal system has two zero columns (|f_i|^2 = 0)
        res = normal_scalability(np.diag([0.0, 1.0, 2.0]), [np.array([1.0, 0.0, 0.0])], [2])
        assert isinstance(res, InfeasibleWitness)

    def test_zero_iterate_allowed_in_a_certificate(self):
        # A e1 = 0: the orbit e1, 0, e2 is scaled by unit weights, and the
        # zero iterate must not stop the diagonal route from saying so
        a, gens, iters = [0.0, 1.0], [np.array([1.0, 0.0]), np.array([0.0, 1.0])], [1, 0]
        res = normal_scalability(np.diag(a), gens, iters)
        assert isinstance(res, ScalingCertificate)
        assert res.residual <= DEFAULT_TOL
        assert scaling_residual(np.column_stack([gens[0], [0.0, 0.0], gens[1]]),
                                res.squares) <= DEFAULT_TOL

    def test_pushed_witness_is_undecided(self, monkeypatch):
        # push y along a direction d with d'b = 0 and d'a_i > 0 for the
        # column i of largest norm: the gap stays, (y'A)_i grows, and the
        # witness stops being a proof once n (y'A)_i / |f_i|^2 passes it
        frame = self._obstructed_frame()
        w = solve_scaling(frame)
        aeq, beq = _scaling_system(frame.matrix)
        norms = np.sum(np.abs(frame.matrix) ** 2, axis=0)
        i = int(np.argmax(norms))
        d = aeq[:, i] - (aeq[:, i] @ beq) / (beq @ beq) * beq

        def pushed(fraction):
            s = (fraction * w.gap * norms[i] / 3 - w.y @ aeq[:, i]) / (d @ aeq[:, i])
            y = w.y + s * d
            return InfeasibleWitness(y=y, gap=float(y @ beq))

        half = pushed(0.5)
        monkeypatch.setattr(scalability, "nonneg_feasible", lambda *a, **kw: half)
        # still a proof, though max(y'A) / min |f|^2 is some 1e11 times the gap
        assert np.max(half.y @ aeq) * 3 / norms.min() > 1e6 * half.gap
        res = solve_scaling(frame)
        assert res.y is half.y and res.gap == half.gap

        double = pushed(2.0)
        monkeypatch.setattr(scalability, "nonneg_feasible", lambda *a, **kw: double)
        with pytest.raises(NumericalFailure, match="undecided"):
            solve_scaling(frame)

    @staticmethod
    def _badly_scaled_draws(wanted):
        # real n x k frames just past n(n+1)/2 columns, column norms spread
        # over exp(-6)..exp(3); the rng is advanced, not every draw solved
        rng = np.random.default_rng(11)
        for d in range(max(wanted) + 1):
            n = rng.integers(2, 5)
            k = n * (n + 1) // 2 + rng.integers(1, 5)
            m = rng.standard_normal((n, k)) * np.exp(rng.uniform(-6, 3, size=k))
            if d in wanted:
                yield d, m

    def test_witness_above_the_absolute_violation_gate(self):
        # the witness LP leaves max(y'A) near 1e-9 on these draws, above an
        # absolute tol, while the gap clears the trace-row bound by far
        shapes = {66: (4, 11), 280: (3, 8), 683: (4, 11)}
        for d, m in self._badly_scaled_draws(set(shapes)):
            assert m.shape == shapes[d]
            frame = Frame(m)
            res = solve_scaling(frame)
            assert isinstance(res, InfeasibleWitness), d
            assert _proves(res, *_scaling_system(m), frame.dim)
            assert not gramian_scaling_check(frame)[2], d


def _orthant_frame(rng, n, k):
    # every off-diagonal entry of sum x_i f_i f_i* is positive for x >= 0
    return Frame(rng.uniform(0.1, 1.0, size=(n, k)))


def _cap_frame(rng, n, k):
    # |f_i(1)|^2 > |f_i|^2 / n for every column: the (1,1) entry of
    # sum x_i f_i f_i* = I would exceed its share of the trace
    rest = rng.standard_normal((n - 1, k))
    radius = np.sqrt(rng.uniform(0.2, 0.8, size=k) * (n - 1))
    return Frame(np.vstack([rng.choice([-1.0, 1.0], size=k),
                            rest / np.linalg.norm(rest, axis=0) * radius]))


class TestClosedForm:
    @staticmethod
    def _both(frame):
        aeq, beq = _scaling_system(frame.matrix)
        return (scalability._closed_form(aeq, beq, frame.matrix, DEFAULT_TOL),
                nonneg_feasible(aeq, beq))

    def test_agrees_with_the_lp_on_the_ladder(self):
        decided = 0
        for n in (6, 8, 10, 12, 16, 20):
            for s in range(20):
                rng = np.random.default_rng(1000 * n + s)
                frame, _ = random_scalable_frame(rng, n, int(rng.integers(2 * n, 5 * n)))
                fast, lp = self._both(frame)
                if fast is None:
                    continue
                decided += 1
                assert isinstance(fast, ScalingCertificate) and isinstance(lp, Feasible)
                assert fast.margin == pytest.approx(lp.margin, abs=1e-9), (n, s)
                assert np.allclose(fast.squares, lp.x, rtol=0.0, atol=1e-9), (n, s)
        # every draw with k <= n(n+1)/2 has independent operators f_i f_i*
        assert decided >= 100

    def test_agrees_with_the_lp_on_orthant_and_cap_frames(self, rng):
        # k <= n(n+1)/2 throughout, so generic draws have a nonsingular K
        for n in range(3, 17):
            for k in (n, n + 1, n + 3):
                for frame in (_orthant_frame(rng, n, k), _cap_frame(rng, n, k)):
                    fast, lp = self._both(frame)
                    assert isinstance(fast, InfeasibleWitness), (n, k)
                    assert isinstance(lp, InfeasibleWitness), (n, k)
                    aeq = frame._scaling_rows[0]
                    assert fast.gap > DEFAULT_TOL and np.max(fast.y @ aeq) <= DEFAULT_TOL

    def test_rejected_witness_is_left_to_the_lp(self, rng, monkeypatch):
        # the gate turns down every witness the closed form offers until
        # linprog has run: the closed form and the split then leave the
        # orthant frame to the LP, whose witness is returned as it is
        from dynframe import numkernel

        frame = _orthant_frame(rng, 3, 4)
        lp = nonneg_feasible(*frame._scaling_rows)
        solved, gate, linprog = [], scalability._sound_witness, numkernel.linprog

        def counted(*args, **kwargs):
            solved.append(True)
            return linprog(*args, **kwargs)

        def reject_before_lp(y, *args):
            if not solved:
                raise NumericalFailure("undecided: turned down")
            return gate(y, *args)

        monkeypatch.setattr(numkernel, "linprog", counted)
        monkeypatch.setattr(scalability, "_sound_witness", reject_before_lp)
        aeq, beq = frame._scaling_rows
        assert scalability._closed_form(aeq, beq, frame.matrix, DEFAULT_TOL) is None
        res = solve_scaling(frame)
        assert solved and isinstance(res, InfeasibleWitness)
        assert np.array_equal(res.y, lp.y) and res.gap == lp.gap

    def test_rank_deficient_system_is_left_to_the_lp(self):
        # the ladder draw (6, 0): 25 operators in a 21-dimensional space,
        # no two columns parallel and the frame not tight, so K stays
        # singular after merging and uniform weights do not scale it
        rng = np.random.default_rng(6000)
        frame, _ = random_scalable_frame(rng, 6, int(rng.integers(12, 30)))
        fast, lp = self._both(frame)
        assert fast is None
        cert = solve_scaling(frame)
        assert cert.margin == pytest.approx(lp.margin, abs=1e-9)
        assert cert.margin == cert.squares.min()

    @staticmethod
    def _pinned(frame, monkeypatch):
        # the answer without linprog, against the LP's verdict and margin
        from dynframe import numkernel

        aeq, beq = _scaling_system(frame.matrix)
        lp = nonneg_feasible(aeq, beq)

        def no_lp(*args, **kwargs):
            raise AssertionError("linprog called")

        with monkeypatch.context() as patch:
            patch.setattr(numkernel, "linprog", no_lp)
            res = solve_scaling(frame)
        if isinstance(lp, Feasible):
            assert isinstance(res, ScalingCertificate)
            assert res.margin == pytest.approx(lp.margin, abs=1e-9)
            assert res.margin == res.squares.min()  # the gate's rule, on every route
            assert res.residual <= DEFAULT_TOL
        else:
            assert isinstance(res, InfeasibleWitness)
            assert _proves(res, aeq, beq, frame.dim)
        return res

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_repeated_companion_orbit(self, n, monkeypatch):
        # the cyclic shift repeats e1 at L = n, and e1, e2 at L = n + 1
        shift = np.roll(np.eye(n), 1, axis=0)
        for l in (n, n + 1):
            frame = iterate(DynamicalSystemSpec.single(shift, np.eye(n)[0], l))
            assert self._pinned(frame, monkeypatch).margin == pytest.approx(0.5)

    def test_basis_counted_twice(self, monkeypatch):
        frame = Frame(np.hstack([np.eye(3), np.eye(3)]))
        assert self._pinned(frame, monkeypatch).margin == pytest.approx(0.5)

    def test_column_repeated_up_to_a_phase(self, rng, monkeypatch):
        u = random_unitary(rng, 3, field="complex")
        frame = Frame(np.column_stack([u, -u[:, 0], np.exp(0.7j) * u[:, 1]]))
        cert = self._pinned(frame, monkeypatch)
        assert np.allclose(cert.squares, [0.5, 0.5, 1.0, 0.5, 0.5], atol=1e-9)

    @pytest.mark.parametrize("n, k", [(3, 7), (24, 96)])
    def test_harmonic_frame(self, n, k, monkeypatch):
        frame = iterate(cons.harmonic(n, k))
        cert = self._pinned(frame, monkeypatch)
        assert np.allclose(cert.squares, 1.0, atol=1e-9)

    def test_tight_frame_with_unequal_norms(self, monkeypatch):
        frame = cols([2 ** 0.5, 0.0], [0.0, 1.0], [0.0, 1.0])
        assert self._pinned(frame, monkeypatch).margin == pytest.approx(0.5)

    def test_tight_frame_without_repeats(self, rng, monkeypatch):
        # Parseval and more columns than operators, so only the uniform
        # candidate applies: it must scale the frame after a rescaling
        frame = Frame(3.0 * random_parseval(rng, 3, 8).matrix)
        assert self._pinned(frame, monkeypatch).margin == pytest.approx(1 / 9)

    def test_merged_witness(self, monkeypatch):
        frame = cols([1.0, 0.0], [-1.0, 0.0], [2 ** -0.5, 2 ** -0.5])
        res = self._pinned(frame, monkeypatch)
        assert res.gap > DEFAULT_TOL and np.max(res.y @ frame._scaling_rows[0]) <= DEFAULT_TOL

    def test_long_orbit_merged_past_the_row_count(self, monkeypatch):
        # the shift orbit of e1 to L = 10: 11 columns over 6 rows, so the
        # groups come from the rounding grid, and the frame is not tight
        shift = np.roll(np.eye(3), 1, axis=0)
        frame = iterate(DynamicalSystemSpec.single(shift, np.eye(3)[0], 10))
        cert = self._pinned(frame, monkeypatch)
        assert np.allclose(cert.squares, np.resize([1 / 4, 1 / 4, 1 / 3], 11), atol=1e-9)
        assert cert.margin == pytest.approx(1 / 4)

    @pytest.mark.parametrize("kind", ["tight orbit", "repeated basis"])
    def test_long_frame_builds_nothing_k_by_k(self, kind, monkeypatch):
        # 3 x 5000: a k x k matrix of floats would take 200 MB
        import tracemalloc

        k = 5000
        if kind == "tight orbit":
            angle = 2 * np.pi * np.arange(k) / k
            frame = Frame(np.vstack([np.cos(angle), np.sin(angle), np.full(k, 2 ** -0.5)]))
        else:
            frame = Frame(np.tile(np.eye(3), k // 3) * (-1.0) ** np.arange(k - k % 3))
        tracemalloc.start()
        try:
            scalability._closed_form(*_scaling_system(frame.matrix), frame.matrix, DEFAULT_TOL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6
        self._pinned(frame, monkeypatch)

    def test_oracle_null_space_candidate(self, monkeypatch):
        # tight frames and repeated orbits, null dimension >= 2: the
        # inverse-iteration candidate proves them with no eigendecomposition
        # and no LP, and returns no null basis
        from dynframe import numkernel

        def refuse(name):
            def call(*args, **kwargs):
                raise AssertionError(f"{name} called")
            return call

        monkeypatch.setattr(np.linalg, "eigh", refuse("eigh"))
        monkeypatch.setattr(numkernel, "linprog", refuse("linprog"))
        shift = np.roll(np.eye(4), 1, axis=0)
        for frame in (iterate(cons.harmonic(3, 7)), iterate(cons.harmonic(6, 12)),
                      Frame(np.hstack([np.eye(3), np.eye(3)])),
                      iterate(DynamicalSystemSpec.single(shift, np.eye(4)[0], 5))):
            _, null_basis, found = gramian_scaling_check(frame)
            assert null_basis is None and found

    def test_answers_without_the_lp(self, rng, monkeypatch):
        from dynframe import numkernel

        def no_lp(*args, **kwargs):
            raise AssertionError("linprog called")

        monkeypatch.setattr(numkernel, "linprog", no_lp)
        scalable, _ = random_scalable_frame(rng, 4, 7)
        cert = solve_scaling(scalable)
        assert isinstance(cert, ScalingCertificate) and cert.residual <= DEFAULT_TOL
        assert gramian_scaling_check(scalable)[2]
        orthant = _orthant_frame(rng, 4, 5)
        assert isinstance(solve_scaling(orthant), InfeasibleWitness)
        assert not gramian_scaling_check(orthant)[2]

    def test_basis_plus_generic_vector_is_certified(self, rng):
        # x is unique and its last entry is exactly 0, so the computed one
        # is rounding noise of either sign; a witness built from a
        # rounding-negative entry has a gap near 1e-17 and must not pass
        for n in range(2, 7):
            for _ in range(10):
                extra = rng.standard_normal(n)
                frame = Frame(np.column_stack([random_unitary(rng, n), extra]))
                res = solve_scaling(frame)
                assert isinstance(res, ScalingCertificate), n
                assert not res.strict and res.squares[-1] == pytest.approx(0.0, abs=1e-9)
                assert gramian_scaling_check(frame)[2]

    def test_badly_scaled_one_vector_orbit(self):
        # `dynframe verify --seed 5`, one-vector trial 4: the orbit of a
        # generator of norm 0.70 under this diagonal, L = 6.  The columns
        # shrink like 0.59^j; K on raw columns has lambda_min / lambda_max
        # near 7e-11 (HiGHS ends with status 4), on unit columns 2.8e-5
        a = np.array([0.24632192084937996, -0.4632848667316334,
                      0.42117388617482654, 0.5926023974404884])
        v = np.array([-0.2768069816782852, -0.5324969693418695,
                      0.15487530218134776, 0.3182715184235088])
        frame = iterate(DynamicalSystemSpec.single(np.diag(a), v, 6))
        res = solve_scaling(frame)
        assert isinstance(res, InfeasibleWitness)
        aeq, beq = _scaling_system(frame.matrix)
        assert _proves(res, aeq, beq, 4)
        assert res.gap == pytest.approx(res.y @ beq)
        assert not gramian_scaling_check(frame)[2]


def _doubled_angle_gap(omega, l):
    # largest gap between the angles 2 j omega (mod 2 pi), j = 0..l
    ang = np.sort(np.mod(2.0 * omega * np.arange(l + 1), 2.0 * np.pi))
    return float(np.max(np.diff(np.append(ang, ang[0] + 2.0 * np.pi))))


def _block_rotations(rng, p, bad):
    """2x2 rotation blocks, each iterated on the e1 of its block to
    L_t = 2 + t mod 3; block `bad` leaves a doubled-angle gap above pi,
    the others below (-1: none is bad)."""
    a = np.zeros((2 * p, 2 * p))
    iters = [2 + t % 3 for t in range(p)]
    for t, l in enumerate(iters):
        while True:
            omega = rng.uniform(0.1, np.pi - 0.1)
            gap = _doubled_angle_gap(omega, l)
            if (gap > np.pi + 0.3) if t == bad else (gap < np.pi - 0.3):
                break
        c, s = np.cos(omega), np.sin(omega)
        a[2 * t:2 * t + 2, 2 * t:2 * t + 2] = [[c, -s], [s, c]]
    return a, [np.eye(2 * p)[2 * t] for t in range(p)], iters


def _bad_block_frame(rng, p, bad):
    """The iterated system of _block_rotations(rng, p, bad)."""
    a, gens, iters = _block_rotations(rng, p, bad)
    return iterate(DynamicalSystemSpec(operators=(a,), generators=gens,
                                       triples=tuple((0, s, l) for s, l in enumerate(iters))))


def _stack(*blocks):
    # block-diagonal synthesis matrix: each block on coordinates of its own
    out = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)))
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return Frame(out)


class TestSplit:
    @staticmethod
    def _without_lp(monkeypatch, solve, *args):
        from dynframe import numkernel

        def no_lp(*a, **kw):
            raise AssertionError("linprog called")

        with monkeypatch.context() as patch:
            patch.setattr(numkernel, "linprog", no_lp)
            return solve(*args)

    @staticmethod
    def _check_padded(w, aeq, beq, coords, n):
        # the witness of the component on coordinates coords: zero off
        # that component's rows and a proof on its own system (trace row
        # of n_b = 2), with that system's gap
        assert np.max(w.y @ aeq) <= DEFAULT_TOL and w.gap > DEFAULT_TOL
        rows = scalability._component_rows(coords, n, aeq.shape[0] > n * (n + 1) // 2)
        assert not np.any(np.delete(w.y, rows))
        cols = np.flatnonzero(aeq[coords].sum(axis=0) > 0)
        own = InfeasibleWitness(y=w.y[rows], gap=w.gap)
        assert _proves(own, aeq[np.ix_(rows, cols)], beq[rows], 2)

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_block_rotations_without_the_lp(self, p, rng, monkeypatch):
        from dynframe.dynamics import diagonal_reduce

        for bad in (-1, int(rng.integers(p))):
            a, gens, iters = _block_rotations(rng, p, bad)
            spec = DynamicalSystemSpec(operators=(a,), generators=tuple(gens),
                                       triples=tuple((0, t, l) for t, l in enumerate(iters)))
            frame = iterate(spec)
            aeq, beq = _scaling_system(frame.matrix)
            lp = nonneg_feasible(aeq, beq)
            _, d, reduced = diagonal_reduce(spec)
            model = build_diagonal_system(np.diag(d), reduced.generators, iters)
            for res, system, coords in (
                    (self._without_lp(monkeypatch, solve_scaling, frame), (aeq, beq),
                     np.array([2 * bad, 2 * bad + 1])),
                    (self._without_lp(monkeypatch, normal_scalability, a, gens, iters),
                     model, np.flatnonzero(reduced.generators[bad]))):
                if bad < 0:
                    assert isinstance(lp, Feasible) and isinstance(res, ScalingCertificate)
                    assert res.margin == pytest.approx(lp.margin, abs=1e-9)
                    assert res.margin == res.squares.min()
                    assert scaling_residual(frame, res.squares) <= DEFAULT_TOL
                else:
                    assert isinstance(lp, InfeasibleWitness)
                    assert isinstance(res, InfeasibleWitness)
                    self._check_padded(res, *system, coords, 2 * p)

    @pytest.mark.parametrize("field", ["real", "equator"])
    def test_two_dim_frames_without_the_lp(self, field, rng, monkeypatch):
        # past n(n+1)/2 columns (real) and past the rank 3 of operators
        # whose points share a great circle (equator), so K is singular
        # and only the gap rule can answer without the LP
        verdicts = set()
        for k in range(4, 9):
            for _ in range(12):
                theta = rng.uniform(0.0, np.pi, size=k) * rng.choice([0.3, 1.0])
                norms = np.exp(rng.uniform(-2.0, 2.0, size=k))
                if field == "real":
                    m = np.vstack([np.cos(theta), np.sin(theta)]) * norms
                else:
                    phase = np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=k))
                    m = np.vstack([np.ones(k), np.exp(2j * theta)]) * phase * norms
                frame = Frame(m)
                res = TestClosedForm._pinned(frame, monkeypatch)
                if isinstance(res, InfeasibleWitness):
                    aeq = frame._scaling_rows[0]
                    assert np.max(res.y @ aeq) <= DEFAULT_TOL and res.gap > DEFAULT_TOL
                verdicts.add(type(res))
        assert verdicts == {ScalingCertificate, InfeasibleWitness}

    def test_rejected_max_min_point_is_left_to_the_lp(self, rng, monkeypatch):
        # at a tol below the raw residual of the gap rule's max-min point
        # the certificate gate turns it down, and the system goes to the
        # LP, whose own point (residual 2.5e-15 here) fails the gate too
        from dynframe import numkernel

        angle = np.pi * (np.arange(5) + rng.uniform(0.0, 0.5, size=5)) / 5  # gaps below pi
        frame = Frame(np.vstack([np.cos(angle), np.sin(angle)]) * rng.uniform(0.5, 2.0, size=5))
        aeq, beq = frame._scaling_rows
        cert = scalability._gap_rule(aeq, beq, frame.matrix, DEFAULT_TOL)
        assert isinstance(cert, ScalingCertificate) and cert.residual > 0
        tol = cert.residual / 2
        assert scalability._gap_rule(aeq, beq, frame.matrix, tol) is None
        assert scalability._split(aeq, beq, frame.matrix, tol) is None
        solved = []
        linprog = numkernel.linprog
        monkeypatch.setattr(numkernel, "linprog",
                            lambda *a, **kw: solved.append(True) or linprog(*a, **kw))
        with pytest.raises(NumericalFailure, match="scaling residual"):
            solve_scaling(frame, tol)
        assert solved

    def test_basis_plus_one_vector_block(self, rng):
        # an orthonormal basis plus one unit vector in R^2 leaves a
        # doubled-angle gap of exactly pi: scalable, margin 0, and not a
        # case for the gap rule; stacked with blocks that are decided by it
        for _ in range(10):
            v = rng.standard_normal(2)
            edge = np.column_stack([random_unitary(rng, 2), v / np.linalg.norm(v)])
            angle = rng.uniform(0.0, np.pi) + np.pi * np.arange(5) / 5
            spread = np.vstack([np.cos(angle), np.sin(angle)]) * rng.uniform(0.5, 2.0, size=5)
            frame = _stack(spread, edge, random_scalable_frame(rng, 2, 4)[0].matrix)
            res = solve_scaling(frame)
            lp = nonneg_feasible(*_scaling_system(frame.matrix))
            assert isinstance(res, ScalingCertificate) and isinstance(lp, Feasible)
            assert res.squares.min() >= 0 and res.residual <= DEFAULT_TOL
            assert not res.strict and res.margin == pytest.approx(lp.margin, abs=1e-9)


class TestGramianOracle:
    def test_basis_gramian(self):
        gram, _, found = gramian_scaling_check(cols([1.0, 0], [0, 1.0]))
        assert np.allclose(gram, [[1.0, -1.0], [-1.0, 1.0]])
        assert found

    def test_diagonal_extra_agrees_with_solver(self):
        # the solver puts zero weight on the extra vector; the oracle must
        # land on the same feasibility verdict
        fr = cols([1.0, 0], [0, 1.0], [2 ** -0.5, 2 ** -0.5])
        _, _, found = gramian_scaling_check(fr)
        assert found == isinstance(solve_scaling(fr), ScalingCertificate)
        assert found

    def test_parseval_in_cone(self, rng):
        fr = random_parseval(rng, 3, 6)
        _, _, found = gramian_scaling_check(fr)
        assert found

    def test_null_vector_on_short_columns(self):
        # the one null vector sits on the unit-norm columns, so c = |f_i|^2
        # projects onto it with |u'c| ~ 1e-10 ||c||; the column norms must
        # not enter the d = 1 verdict
        big = 1e5 / np.sqrt(2)
        fr = cols([1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [big, big, 0], [big, 0, big])
        _, null_basis, found = gramian_scaling_check(fr)
        assert null_basis.shape[1] == 1
        assert found
        assert isinstance(solve_scaling(fr), ScalingCertificate)

    def test_lp_witness_must_exceed_its_violation(self, monkeypatch):
        # this 2 x 4 frame has null dimension 2, no nonnegative null vector
        # and a range candidate with a negative entry, so after one
        # projection step the witness LP decides; on the rows A = [R'; 1']
        # a witness y = (g, t) is a proof only when its gap t exceeds
        # max(max_i (y'A)_i, 0), where y'A = g'R' + t 1'
        from dynframe import numkernel

        monkeypatch.setattr(scalability, "_CONE_STEPS", 1)
        frame = _RANGE_LEFT_INFEASIBLE
        gram = gramian_scaling_check(frame)[0]
        lam, vecs = np.linalg.eigh(gram)
        range_t = vecs[:, lam > DEFAULT_TOL * lam[-1]].T
        real = numkernel.linprog(-np.eye(3)[2], A_ub=np.vstack([range_t, np.ones(4)]).T,
                                 b_ub=np.zeros(4), bounds=[(-1.0, 1.0)] * 3)
        assert real.x[-1] > 0.01
        g = real.x[:2] / -np.max(real.x[:2] @ range_t)   # the LP's own g, max(g'R') = -1

        def answer(a, t):
            # y = (a g, t): gap t, and max(y'A) = t - a for a >= 0
            w = numkernel.LPResult(status=0, message="Optimal", nit=0, x=np.append(a * g, t),
                                   row_dual=np.zeros(4))
            monkeypatch.setattr(numkernel, "linprog", lambda *args, **kw: w)
            return gramian_scaling_check(frame)

        with pytest.raises(NumericalFailure, match="undecided"):
            answer(0.0, 1.0)                     # violation 1
        with pytest.raises(NumericalFailure, match="undecided"):
            answer(-1.0, 1.0)                    # violation 1 - min(g'R') >= 2
        _, null_basis, found = answer(0.5, 1.0)  # violation 0.5
        assert null_basis.shape[1] == 2 and not found
        assert not answer(1.001, 1e-3)[2]        # violation -1

    def test_closed_form_gramian(self, rng):
        # the closed form against D'D, D the diagram rows of the unit columns
        for n in (1, 2, 12):
            for cplx in (False, True):
                m = rng.standard_normal((n, n + 5))
                if cplx:
                    m = m + 1j * rng.standard_normal(m.shape)
                frame = Frame(m)
                aeq, _ = _scaling_system(m)
                d = _diagram_rows(aeq / aeq[:n].sum(axis=0), n, cplx)
                c = np.sum(np.abs(m) ** 2, axis=0)
                gram = scalability._diagram_gramian(m / np.sqrt(c), cplx)
                assert np.max(np.abs(gram - d.T @ d)) <= 1e-12, (n, cplx)
                assert np.array_equal(gramian_scaling_check(frame)[0], gram)
                assert np.array_equal(gram, gram.T)

    def test_empty_null_space_without_eigh(self, rng, monkeypatch):
        def no_eigh(*args, **kwargs):
            raise AssertionError("eigh called")

        frames = [_orthant_frame(rng, 4, 5), _cap_frame(rng, 5, 7)]
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", no_eigh)
            for frame in frames:
                gram, null_basis, found = gramian_scaling_check(frame)
                assert null_basis.shape == (frame.size, 0) and not found
        # lambda_min between theta = tol lambda_max and tol tr G: the
        # Cholesky proof does not apply, and the eigenvalues decide d = 0
        gram = gramian_scaling_check(frames[0])[0]
        lam = np.linalg.eigvalsh(gram)
        tol = 2 * lam[0] / (lam[-1] + np.trace(gram))
        assert tol * lam[-1] < lam[0] < tol * np.trace(gram)
        eigh, calls = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m) or eigh(m))
        _, null_basis, found = gramian_scaling_check(frames[0], tol)
        assert len(calls) == 1 and null_basis.shape == (5, 0) and not found

    def test_range_candidate_witness(self, monkeypatch):
        from dynframe import numkernel

        def no_lp(*args, **kwargs):
            raise AssertionError("linprog called")

        # one projection step gives back the first range candidate
        # r = 1 - N N'1, which is > 0 on this frame and refutes it: its
        # witness (-R'r, min r) passes the gate on the rows [R'; 1']
        monkeypatch.setattr(scalability, "_CONE_STEPS", 1)
        frame = Frame(np.array([[0.1, -1.9, -1.9, -1.4], [-0.8, -0.7, -0.5, -0.2]]))
        with monkeypatch.context() as patch:
            patch.setattr(numkernel, "linprog", no_lp)
            gram, null_basis, found = gramian_scaling_check(frame)
        assert null_basis.shape[1] == 2 and not found
        lam, vecs = np.linalg.eigh(gram)
        range_basis = vecs[:, lam > DEFAULT_TOL * lam[-1]]
        r = np.ones(4) - null_basis @ (null_basis.T @ np.ones(4))
        assert r.min() > DEFAULT_TOL
        aeq, beq = np.vstack([range_basis.T, np.ones(4)]), np.eye(3)[2]
        w = scalability._sound_witness(np.append(-(range_basis.T @ r), r.min()),
                                       aeq, beq, np.ones(4), 1.0)
        assert w.gap == r.min()
        # an r with one negative entry does not decide: the LP runs
        gram, null_basis, _ = gramian_scaling_check(_RANGE_LEFT_INFEASIBLE)
        r = np.ones(4) - null_basis @ (null_basis.T @ np.ones(4))
        assert np.count_nonzero(r < 0) == 1
        monkeypatch.setattr(numkernel, "linprog", no_lp)
        with pytest.raises(AssertionError, match="linprog called"):
            gramian_scaling_check(_RANGE_LEFT_INFEASIBLE)

    def test_lp_duals_must_be_a_null_vector(self, monkeypatch):
        # unit columns at 0, 90, 10 and 45 degrees: doubled angles with a
        # gap of exactly pi, so the frame is scalable with margin 0 (null
        # dimension 2).  No null vector is positive and no range vector
        # is, so the projections decide nothing whatever their number,
        # and "found" rests on the witness LP's duals alone
        from dynframe import numkernel

        t = np.radians([10.0, 45.0])
        frame = cols([1.0, 0.0], [0.0, 1.0], [np.cos(t[0]), np.sin(t[0])],
                     [np.cos(t[1]), np.sin(t[1])])
        res = solve_scaling(frame)
        assert isinstance(res, ScalingCertificate) and res.margin == 0.0
        linprog, duals = numkernel.linprog, []

        def recorded(*args, **kwargs):
            res = linprog(*args, **kwargs)
            duals.append(-res.row_dual)
            return res

        monkeypatch.setattr(numkernel, "linprog", recorded)
        gram, null_basis, found = gramian_scaling_check(frame)
        assert found and null_basis.shape[1] == 2 and len(duals) == 1
        x = duals[0]
        assert x.min() >= 0 and x.sum() == pytest.approx(1.0, abs=1e-12)
        lam, vecs = np.linalg.eigh(gram)
        off = vecs[:, -1]                      # the top range eigenvector
        for bad in (-x,                        # negative entries
                    2 * x,                     # 1'x = 2
                    x + 1e-6 * off * np.linalg.norm(x)):  # G x far above theta ||x||
            def answer(*args, bad=bad, **kwargs):
                return replace(linprog(*args, **kwargs), row_dual=-bad)

            monkeypatch.setattr(numkernel, "linprog", answer)
            with pytest.raises(NumericalFailure, match="undecided"):
                gramian_scaling_check(frame)

    def test_projections_agree_with_the_lp(self, rng, monkeypatch):
        # the verdict of the projection loop against the LP alone
        # (_CONE_STEPS = 0) on frames whose null dimension is at least 2,
        # so that the LP, the fallback, stays cross-checked
        from dynframe import numkernel

        frames = []
        for n in (2, 3, 4, 5):
            k = n * (n + 1) // 2 + 2
            frames += [_orthant_frame(rng, n, k), _cap_frame(rng, n, k),
                       random_scalable_frame(rng, n, k)[0]]
        frames += [_bad_block_frame(rng, p, int(rng.integers(p))) for p in (2, 3, 4, 5)]
        cone, reached = scalability._null_cone, []
        monkeypatch.setattr(scalability, "_null_cone",
                            lambda *args: reached.append(True) or cone(*args))
        projected = [gramian_scaling_check(frame)[2] for frame in frames]
        cone_frames = len(reached)
        linprog, calls = numkernel.linprog, []
        monkeypatch.setattr(numkernel, "linprog",
                            lambda *a, **kw: calls.append(True) or linprog(*a, **kw))
        monkeypatch.setattr(scalability, "_CONE_STEPS", 0)
        assert [gramian_scaling_check(frame)[2] for frame in frames] == projected
        assert projected.count(True) == 4 and projected.count(False) == 12
        # one LP for each frame that reached the cone step: all but the
        # Parseval-with-weights frames that the inverse-iteration candidate decides
        assert len(calls) == cone_frames >= 12

    def test_null_vector_gate(self):
        # [I I] over R^3: columns i and i + 3 are equal, so e_i - e_{i+3}
        # and the uniform vector span null vectors of G
        tol = DEFAULT_TOL
        gram = gramian_scaling_check(Frame(np.hstack([np.eye(3), np.eye(3)])))[0]
        edge = np.array([2.0, 1.0, 1.0, 0.0, 1.0, 1.0]) / 6.0
        assert np.linalg.norm(gram @ edge) <= 1e-15
        scalability._null_vector(gram, edge, tol)
        shift = np.array([1.0, 0.0, 0.0, -1.0, 0.0, 0.0])
        for bad in (np.eye(6)[0],                       # nonnegative, ||G x|| = ||G e_1|| >= 1
                    edge + 2 * tol * shift,             # a null vector with x_4 = -2 tol
                    2 * edge):                          # 1'x = 2
            with pytest.raises(NumericalFailure, match="undecided"):
                scalability._null_vector(gram, bad, tol)
        scalability._null_vector(gram, edge + 0.5 * tol * shift, tol)

    def test_candidate_route_agrees_with_the_eigenvalues(self, rng, monkeypatch):
        # the verdicts with the inverse-iteration candidate on and off
        # (every frame then goes to eigh), over frames of both verdicts,
        # margin 0 included, real and complex, and badly scaled columns
        frames = []
        for n in (2, 3, 4, 5):
            for field in ("real", "complex"):
                k = n * (n + 1) // 2 + 2 if field == "real" else n * n + 1
                frames += [random_scalable_frame(rng, n, k, field=field)[0],
                           random_parseval(rng, n, k, field=field)]
                m = rng.standard_normal((n, k))
                if field == "complex":
                    m = m + 1j * rng.standard_normal((n, k))
                frames.append(Frame(m * np.exp(rng.uniform(-12.0, 12.0, size=k))))
                extra = rng.standard_normal(n) + (1j * rng.standard_normal(n)
                                                  if field == "complex" else 0.0)
                frames.append(Frame(np.column_stack([random_unitary(rng, n, field), extra])))
            frames += [_orthant_frame(rng, n, n + 2), _cap_frame(rng, n, n + 2),
                       iterate(cons.harmonic(n, 2 * n + 1))]
        t = np.radians([0.0, 10.0, 45.0, 90.0])
        frames.append(Frame(np.vstack([np.cos(t), np.sin(t)])))
        eigh, calls = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(True) or eigh(m))
        verdicts = [gramian_scaling_check(frame)[2] for frame in frames]
        assert verdicts.count(True) >= 25 and verdicts.count(False) >= 10
        with_candidate = len(calls)
        calls.clear()
        monkeypatch.setattr(scalability, "_inverse_iteration", lambda *args: False)
        assert [gramian_scaling_check(frame)[2] for frame in frames] == verdicts
        # the candidate decided most scalable frames, and the rest went on
        # to eigh (14 against 39 eigh calls)
        assert 0 < with_candidate < len(calls) - 20

    def test_lp_calls(self, rng, monkeypatch):
        # no LP on orthant and cap frames, on block systems with one bad
        # block, or on a scalable (12, 200) frame
        from dynframe import numkernel

        linprog, calls = numkernel.linprog, []
        monkeypatch.setattr(numkernel, "linprog",
                            lambda *a, **kw: calls.append(True) or linprog(*a, **kw))
        for n in range(2, 9):
            for k in (n, n + 2, n + 3):
                for frame in (_orthant_frame(rng, n, k), _cap_frame(rng, n, k)):
                    assert not gramian_scaling_check(frame)[2]
        assert not calls
        for p in (2, 3, 4, 5):
            for bad in range(p):
                assert not gramian_scaling_check(_bad_block_frame(rng, p, bad))[2]
        frame, _ = random_scalable_frame(rng, 12, 200)
        _, null_basis, found = gramian_scaling_check(frame)
        assert found and null_basis.shape[1] >= 2
        assert not calls

    def test_refutes_without_loading_highs(self):
        # in a fresh interpreter, the oracle refutes orthant, cap and
        # bad-block systems without loading the LP solver's extension
        src = os.path.dirname(os.path.dirname(scalability.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        out = subprocess.run([sys.executable, "-c", "\n".join([
            "import sys",
            "import numpy as np",
            "sys.path.insert(0, sys.argv[1])",
            "from test_scalability import _bad_block_frame, _cap_frame, _orthant_frame",
            "from dynframe import gramian_scaling_check",
            "rng = np.random.default_rng(5)",
            "frames = [f(rng, n, n * (n + 1) // 2 + 2) for n in (2, 3, 4, 5)",
            "          for f in (_orthant_frame, _cap_frame)]",
            "frames += [_bad_block_frame(rng, p, bad) for p in (2, 3, 4, 5) for bad in range(p)]",
            "assert not any(gramian_scaling_check(frame)[2] for frame in frames)",
            "print('scipy.optimize._highspy._core' in sys.modules)"]),
            os.path.dirname(__file__)], env=env, check=True, capture_output=True,
            text=True).stdout
        assert out.strip() == "False"


# real 2 x 4, doubled angles 48, 53, 242 and 310 degrees: a gap above pi,
# null dimension 2, and a range candidate with one negative entry
_RANGE_LEFT_INFEASIBLE = Frame(np.array([[0.8, 0.3, -1.3, 0.9], [0.4, -0.5, 0.6, 0.4]]))


class TestDiagonalSystems:
    def test_sign_flip_system_rows(self):
        aeq, beq = build_diagonal_system([1.0, -1.0], [np.array([0.5, 0.5])], [3])
        expect = np.array([[0.25, 0.25, 0.25, 0.25],
                           [0.25, 0.25, 0.25, 0.25],
                           [0.25, -0.25, 0.25, -0.25]])
        assert np.allclose(aeq, expect)
        assert np.allclose(beq, [1.0, 1.0, 0.0])

    def test_sign_flip_solves_with_unit_weights(self):
        cert = normal_scalability(np.diag([1.0, -1.0]), [np.array([0.5, 0.5])], [3])
        assert np.allclose(cert.squares, 1.0, atol=1e-9)
        assert cert.strict

    def test_harmonic_diagonal_route(self):
        k, n = 4, 3
        gamma = np.exp(2j * np.pi / k)
        a = gamma ** np.arange(n)
        v = np.ones(n, dtype=complex) / np.sqrt(k)
        cert = normal_scalability(np.diag(a), [v], [k - 1])
        assert isinstance(cert, ScalingCertificate)
        assert np.allclose(cert.squares, 1.0, atol=1e-8)

    def test_three_dim_real_single_generator_infeasible(self):
        res = normal_scalability(np.diag([1.0, -1.0, 2.0]),
                                 [np.array([0.3, 0.7, 0.4])], [5])
        assert isinstance(res, InfeasibleWitness)

    @pytest.mark.parametrize("entry", [normal_scalability, build_diagonal_system])
    @pytest.mark.parametrize("gens, iters", [
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]], [2]),   # more generators than counts
        ([[1.0, 0.0, 0.0]], [2, 3]),                  # more counts than generators
        ([], []),                                     # no generators
    ])
    def test_one_count_per_generator(self, entry, gens, iters):
        # both entries build the orbit system {A^j f_s} through the same
        # checks, so neither can drop a generator or a count silently;
        # normal_scalability takes the operator, build_diagonal_system its diagonal
        a = [1.0, -1.0, 0.5]
        with pytest.raises(ShapeMismatch):
            entry(np.diag(a) if entry is normal_scalability else a, gens, iters)

    def test_normal_scalability_rejects_non_normal(self):
        with pytest.raises(NotNormal):
            normal_scalability(np.array([[0.0, 1.0], [0.0, 0.0]]),
                               [np.array([1.0, 0.0])], [2])


class TestOneVectorObstruction:
    def test_two_dim_unobstructed(self):
        assert not real_one_vector_obstruction([1.0, -1.0])

    def test_three_dim_obstructed(self):
        assert real_one_vector_obstruction([1.0, -1.0, 2.0])

    def test_scalar_unobstructed(self):
        assert not real_one_vector_obstruction([5.0])


class TestSupportPattern:
    def test_same_pair_extras_pass(self):
        fr = cols([1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 2, 3], [0, -1, 1])
        assert support_pattern_check(fr)

    def test_three_nonzeros_fail(self):
        fr = cols([1, 0, 0], [0, 1, 0], [0, 0, 1], [0.5, 2, 3], [0, -1, 1])
        assert not support_pattern_check(fr)

    def test_different_pairs_fail(self):
        fr = cols([1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 2, 3], [1, 0, 1])
        assert not support_pattern_check(fr)

    def test_partial_basis_template(self):
        fr = cols([1, 0, 0], [0, 1, 0], [0, 1, 2], [0, 3, -1])
        assert support_pattern_check(fr)

    def test_non_template_rejected(self):
        with pytest.raises(TemplateMismatch):
            support_pattern_check(Frame(np.eye(3)))


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.integers(1, 6), st.integers(0, 2 ** 31 - 1))
def test_certificates_survive_column_permutation(n, extra, seed):
    rng = np.random.default_rng(seed)
    fr, _ = random_scalable_frame(rng, n, n + extra)
    perm = rng.permutation(n + extra)
    moved = Frame(fr.matrix[:, perm])
    cert = solve_scaling(moved)
    assert isinstance(cert, ScalingCertificate)
    assert scaling_residual(moved, cert.squares) <= 10 * DEFAULT_TOL
