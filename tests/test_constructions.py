import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dynframe.constructions as cons
from dynframe.dynamics import iterate
from dynframe.errors import (AllZeroCoefficients, CriterionFailed,
                             DegenerateTrace, IndexOutOfRange, KTooSmall,
                             ShapeMismatch)
from dynframe.frames import Frame, analyze
from dynframe.numkernel import InfeasibleWitness
from dynframe.scalability import ScalingCertificate, scaling_residual, solve_scaling


class TestCompanion:
    def test_cyclic_shift(self):
        m = cons.companion([1.0, 0.0, 0.0])
        assert np.array_equal(m, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])

    def test_subdiagonal_and_last_column(self, rng):
        a = rng.standard_normal(5)
        m = cons.companion(cons.CompanionSpec(a))
        assert np.allclose(m[:, -1], a)
        assert np.array_equal(m[1:, :-1], np.eye(4))

    def test_identity_frame_before_coefficients_bite(self, rng):
        # A e_i = e_{i+1} for i < n no matter the coefficients, so L = n - 1
        # iterations of e1 always produce the standard basis
        for _ in range(5):
            n = int(rng.integers(2, 7))
            a = rng.standard_normal(n)
            m = cons.companion(cons.CompanionSpec(a))
            v = np.zeros(n)
            v[0] = 1.0
            colset = [v.copy()]
            for _ in range(n - 1):
                v = m @ v
                colset.append(v.copy())
            assert np.allclose(np.column_stack(colset), np.eye(n))

    def test_all_zero_rejected(self):
        with pytest.raises(AllZeroCoefficients):
            cons.CompanionSpec(np.zeros(4))

    def test_dimension_one_rejected(self):
        with pytest.raises(ValueError):
            cons.CompanionSpec(np.array([3.0]))


class TestBlockDiagEmbed:
    def setup_method(self):
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        self.spec = cons.BlockDiagSpec((rot, np.array([[2.0]])))

    def test_stacked_operator(self):
        m = cons.block_diag(self.spec)
        assert np.array_equal(m, [[0, -1, 0], [1, 0, 0], [0, 0, 2]])

    def test_embedding_is_supported_on_its_block(self):
        v = cons.embed(self.spec, [3.0, 4.0], 0)
        assert np.array_equal(v, [3, 4, 0])
        w = cons.embed(self.spec, [5.0], 1)
        assert np.array_equal(w, [0, 0, 5])

    def test_embedding_commutes_with_operator(self, rng):
        m = cons.block_diag(self.spec)
        for s, dim in ((0, 2), (1, 1)):
            v = rng.standard_normal(dim)
            lhs = m @ cons.embed(self.spec, v, s)
            rhs = cons.embed(self.spec, self.spec.blocks[s] @ v, s)
            assert np.allclose(lhs, rhs)

    def test_block_index_range(self):
        with pytest.raises(IndexOutOfRange):
            cons.embed(self.spec, [1.0], 2)

    def test_vector_block_shape(self):
        with pytest.raises(ShapeMismatch):
            cons.embed(self.spec, [1.0, 2.0, 3.0], 0)

    def test_offsets(self):
        spec = cons.BlockDiagSpec((np.eye(3), np.eye(2), np.eye(4)))
        assert spec.offsets == (0, 3, 5)
        with pytest.raises(ShapeMismatch):
            cons.BlockDiagSpec((np.ones((2, 3)),))


class TestTwoByTwoCriteria:
    def test_closed_form_weights(self):
        ok, w = cons.check_2scale(cons.TwoParamBlock(1.0, 2.0, -1.0, 1.0))
        assert ok
        assert np.allclose(w, [np.sqrt(0.5), np.sqrt(1 / 6), np.sqrt(1 / 3)])
        x, y, z = w
        f = np.array([[x, y * 1.0, z * -1.0], [0.0, y * 2.0, z * 1.0]])
        assert np.allclose(f @ f.T, np.eye(2), atol=1e-12)

    def test_ratio_outside_unit_interval(self):
        ok, w = cons.check_2scale(cons.TwoParamBlock(1.0, 1.0, 1.0, 1.0))
        assert not ok and w is None

    def test_degenerate_scope_falls_back_to_solver(self):
        # b*c*d carries a zero so the closed forms never apply; the three
        # vectors share a closed half-plane and the solver rejects them
        ok, w = cons.check_2scale(cons.TwoParamBlock(1.0, 0.0, 1.0, 1.0))
        assert not ok and w is None

    def test_solver_branch_can_still_pass(self):
        # a <= 0 leaves the closed-form scope but (-1, 1)-type data is
        # strictly scalable by symmetry with the mirrored parameters
        ok, w = cons.check_2scale(cons.TwoParamBlock(-1.0, 2.0, 1.0, 1.0))
        assert ok
        f = np.array([[1.0, -1.0, 1.0], [0.0, 2.0, 1.0]]) * w[None, [0, 1, 2]]
        s = f @ f.T
        assert np.allclose(s, s[0, 0] * np.eye(2), atol=1e-8)

    def test_weights_always_give_parseval(self, rng):
        hits = 0
        while hits < 15:
            a, b, c, d = rng.uniform(-2, 2, size=4)
            ok, w = cons.check_2scale(cons.TwoParamBlock(a, b, c, d))
            if not ok:
                continue
            hits += 1
            f = np.array([[1.0, a, c], [0.0, b, d]]) * w[None, :]
            assert np.allclose(f @ f.T, np.eye(2), atol=1e-9)

    def test_nonfinite_parameter_rejected(self):
        with pytest.raises(ValueError):
            cons.TwoParamBlock(1.0, np.inf, 0.0, 1.0)

    def test_four_vector_sign_criterion(self):
        assert cons.check_2x4(cons.TwoParamBlock(1.0, 1.0, -1.0, 1.0))
        assert not cons.check_2x4(cons.TwoParamBlock(1.0, 1.0, 1.0, 1.0))
        assert not cons.check_2x4(cons.TwoParamBlock(0.0, 1.0, 1.0, 1.0))

    def test_four_vector_criterion_matches_solver(self, rng):
        for _ in range(25):
            a, b, c, d = rng.uniform(-1.5, 1.5, size=4)
            if min(abs(a), abs(b), abs(c), abs(d)) < 0.1:
                continue
            p = cons.TwoParamBlock(a, b, c, d)
            frame = Frame(np.array([[1.0, 0.0, a, c], [0.0, 1.0, b, d]]))
            res = solve_scaling(frame)
            strict = isinstance(res, ScalingCertificate) and res.strict
            assert cons.check_2x4(p) == strict


class TestTightTriple:
    def test_frozen_plus_branch(self):
        p = cons.tight_2x3(1.0, 0.0, sign=1)
        assert p.b == pytest.approx(np.sqrt(1.5), abs=1e-12)
        assert p.c == pytest.approx(-2.0 * np.sqrt(2.0 / 3.0), abs=1e-12)

    def test_iterated_frame_is_tight(self):
        p = cons.tight_2x3(1.0, 0.0, sign=1)
        op = np.array([[p.a, p.c], [p.b, p.d]])
        e1 = np.array([1.0, 0.0])
        f = np.column_stack([e1, op @ e1, op @ op @ e1])
        assert np.allclose(f @ f.T, 3.0 * np.eye(2), atol=1e-12)

    def test_mirror_branch_negates_b_and_c(self):
        plus = cons.tight_2x3(0.7, 0.4, sign=1)
        minus = cons.tight_2x3(0.7, 0.4, sign=-1)
        assert minus.b == pytest.approx(-plus.b)
        assert minus.c == pytest.approx(-plus.c)
        assert (minus.a, minus.d) == (plus.a, plus.d)

    def test_traceless_rejected(self):
        with pytest.raises(DegenerateTrace):
            cons.tight_2x3(1.0, -1.0)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.sampled_from([1, -1]))
    def test_tightness_across_parameters(self, a, d, sign):
        if abs(a + d) < 1e-3:
            return
        p = cons.tight_2x3(a, d, sign=sign)
        op = np.array([[p.a, p.c], [p.b, p.d]])
        e1 = np.array([1.0, 0.0])
        f = np.column_stack([e1, op @ e1, op @ op @ e1])
        s = f @ f.T
        assert abs(s[0, 1]) <= 1e-8 * max(1.0, s[0, 0])
        assert s[0, 0] == pytest.approx(s[1, 1], rel=1e-8)


class TestRotationSystems:
    def test_three_equal_angles_in_the_plane(self):
        spec = cons.rotation_system(2 * np.pi / 3, 2)
        f = iterate(spec)
        expect = np.array([[1.0, -0.5, -0.5],
                           [0.0, np.sqrt(3) / 2, -np.sqrt(3) / 2]])
        assert np.allclose(f.matrix, expect, atol=1e-12)
        cert = solve_scaling(f)
        assert cert.strict
        assert np.allclose(cert.squares, 2.0 / 3.0, atol=1e-9)

    def test_small_angle_is_obstructed(self):
        f = iterate(cons.rotation_system(np.pi / 6, 2))
        assert isinstance(solve_scaling(f), InfeasibleWitness)

    def test_shift_placement_structure(self):
        spec = cons.rotation_system(1.0, 4)
        a = spec.operators[0]
        assert a[1, 0] == 1.0 and a[2, 1] == 1.0
        assert np.allclose(a[2:, 2:], [[np.cos(1.0), -np.sin(1.0)],
                                       [np.sin(1.0), np.cos(1.0)]])
        f = iterate(spec)
        assert f.matrix.shape == (4, 5)
        assert analyze(f).is_frame

    def test_schur_placement_columns(self):
        w = 2 * np.pi / 3
        spec = cons.rotation_system(w, 3, placement="schur")
        f = iterate(spec)
        expect = np.array([[0.0, 0.0, 0.0, 1.0, 1.0],
                           [1.0, np.cos(w), np.cos(2 * w), 0.0, 0.0],
                           [0.0, np.sin(w), np.sin(2 * w), 0.0, 0.0]])
        assert np.allclose(f.matrix, expect, atol=1e-12)
        cert = solve_scaling(f)
        assert isinstance(cert, ScalingCertificate) and cert.strict

    def test_schur_signs_validation(self):
        with pytest.raises(ValueError):
            cons.rotation_system(1.0, 4, placement="schur", signs=(1.0,))
        with pytest.raises(ValueError):
            cons.rotation_system(1.0, 4, placement="schur", signs=(1.0, 0.5))
        with pytest.raises(ValueError):
            cons.rotation_system(1.0, 2, placement="bogus")

    def test_schur_minus_signs_allowed(self):
        spec = cons.rotation_system(2 * np.pi / 3, 4, placement="schur",
                                    signs=(1.0, -1.0))
        assert analyze(iterate(spec)).is_frame


class TestHarmonic:
    def test_parseval(self):
        rep = analyze(iterate(cons.harmonic(3, 4)))
        assert rep.parseval

    def test_square_case_is_scaled_characters(self):
        n = 4
        f = iterate(cons.harmonic(n, n)).matrix
        m, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        expect = np.exp(2j * np.pi * m * j / n) / np.sqrt(n)
        assert np.allclose(f, expect, atol=1e-12)

    def test_k_below_dimension(self):
        with pytest.raises(KTooSmall):
            cons.harmonic(3, 2)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 6))
    def test_always_parseval(self, n, extra):
        rep = analyze(iterate(cons.harmonic(n, n + extra)))
        assert rep.parseval


class TestMultigenRotation:
    ALPHA = 2 * np.pi / 3

    def planes(self):
        return [(0, 0, 1, 1, self.ALPHA), (0, 0, 2, 2, self.ALPHA)]

    def test_generator_listed_once(self):
        spec = cons.multigen_rotation(self.planes())
        assert len(spec.generators) == 2
        assert spec.triples == ((0, 0, 2), (1, 1, 1))
        f = iterate(spec)
        assert f.matrix.shape == (3, 5)

    def test_strict_scaling_solution(self):
        f = iterate(cons.multigen_rotation(self.planes()))
        cert = solve_scaling(f)
        assert cert.strict
        assert np.allclose(cert.squares, [1 / 3, 2 / 3, 2 / 3, 2 / 3, 2 / 3],
                           atol=1e-9)
        assert cert.margin == pytest.approx(1 / 3, abs=1e-9)
        assert scaling_residual(f, cert.squares) <= 1e-9

    def test_single_plane_matches_rotation_system(self):
        w = 0.9
        a = iterate(cons.multigen_rotation([(0, 0, 1, 1, w)])).matrix
        b = iterate(cons.rotation_system(w, 2)).matrix
        assert np.allclose(a, b, atol=1e-12)

    def test_plane_index_validation(self):
        with pytest.raises(IndexOutOfRange):
            cons.multigen_rotation([(0, 0, 3, 3, 1.0)], n=3)
        with pytest.raises(IndexOutOfRange):
            cons.multigen_rotation([(1, 0, 0, 1, 1.0)], n=2)
        with pytest.raises(ValueError):
            cons.multigen_rotation([])
        with pytest.raises(ValueError):
            cons.multigen_rotation([(0, 0, 1, 1)])

    def test_missing_coordinate_is_not_a_frame(self):
        spec = cons.multigen_rotation([(0, 0, 1, 1, self.ALPHA)], n=3)
        assert not analyze(iterate(spec)).is_frame


class TestStructuredR3:
    def test_four_parameter_iterates(self):
        spec = cons.r3_structured(1.0, 1.0, -2.0, 1.0)
        f = iterate(spec)
        expect = np.array([[1.0, 0.0, 0.0, 0.0],
                           [0.0, 1.0, 1.0, -1.0],
                           [0.0, 0.0, 1.0, 2.0]])
        assert np.allclose(f.matrix, expect)
        cert = solve_scaling(f)
        assert cert.strict
        assert np.allclose(cert.squares, [1.0, 0.5, 1 / 3, 1 / 6], atol=1e-9)

    def test_four_parameter_criterion_failure(self):
        with pytest.raises(CriterionFailed):
            cons.r3_structured(1.0, 1.0, 1.0, 1.0)

    def test_companion_branch(self):
        spec = cons.r3_structured(-2.0, 1.0)
        f = iterate(spec)
        expect = np.array([[1.0, 0.0, 0.0, 0.0, 0.0],
                           [0.0, 1.0, 0.0, -2.0, -2.0],
                           [0.0, 0.0, 1.0, 1.0, -1.0]])
        assert np.allclose(f.matrix, expect)
        cert = solve_scaling(f)
        assert cert.strict
        # one-parameter family: x3 = x4 = t, x1 = 1 - 8t, x2 = 1 - 2t,
        # max-min optimum at t = 1/9
        assert np.allclose(cert.squares, [1.0, 1 / 9, 7 / 9, 1 / 9, 1 / 9],
                           atol=1e-9)
        assert cert.margin == pytest.approx(1 / 9, abs=1e-9)

    def test_companion_branch_criterion(self):
        with pytest.raises(CriterionFailed):
            cons.r3_structured(1.0, 1.0)
        with pytest.raises(ValueError):
            cons.r3_structured(1.0, 1.0, 2.0, None)

    def test_higher_dimension_companion(self):
        spec = cons.r3_structured(-2.0, 1.0, n=4)
        f = iterate(spec)
        assert f.matrix.shape == (4, 6)
        cert = solve_scaling(f)
        assert isinstance(cert, ScalingCertificate) and cert.strict

    @settings(max_examples=20, deadline=None)
    @given(st.floats(-3.0, -0.5), st.floats(0.3, 1.5))
    def test_companion_family_always_strict(self, a, b):
        if not a + b * b < 0:
            return
        cert = solve_scaling(iterate(cons.r3_structured(a, b)))
        assert isinstance(cert, ScalingCertificate) and cert.strict
