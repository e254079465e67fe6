import numpy as np
import pytest

from dynframe.errors import (DimensionMismatch, NotAFrame, NumericalFailure,
                             ShapeMismatch, ZeroVector)
from dynframe.frames import (Frame, analyze, canonical_dual, frame_operator,
                             fusion_check, verify_duality)
from dynframe.instances import random_frame
from dynframe.numkernel import _freeze, hermitian_eig


def cols(*vectors):
    return Frame(np.column_stack([np.asarray(v, dtype=float) for v in vectors]))


PARSEVAL_PM = cols([0.5, 0.5], [0.5, -0.5], [0.5, 0.5], [0.5, -0.5])


class TestFrameType:
    def test_rejects_zero_vector(self):
        with pytest.raises(ZeroVector):
            cols([1.0, 0.0], [0.0, 0.0])

    def test_from_vectors_round_trip(self):
        fr = Frame.from_vectors(PARSEVAL_PM.vectors)
        assert np.array_equal(fr.matrix, PARSEVAL_PM.matrix)
        assert Frame.from_vectors([[1.0, 2.0]]).matrix.shape == (2, 1)

    def test_rejects_mixed_dims(self):
        with pytest.raises(DimensionMismatch):
            Frame.from_vectors([np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0])])

    def test_copies_a_writable_array(self):
        a = np.eye(2)
        fr = Frame(a)
        a[0, 0] = 5.0
        assert fr.matrix is not a
        assert fr.matrix[0, 0] == 1.0 and not fr.matrix.flags.writeable

    def test_copies_a_read_only_view(self):
        a = np.eye(2, dtype=complex)
        view = a[:, :]
        view.setflags(write=False)
        fr = Frame(view)
        a[0, 0] = 5.0
        assert fr.matrix is not view
        assert fr.matrix[0, 0] == 1.0

    def test_copies_a_frozen_array(self):
        # the caller can make its read-only array writable again, so it is
        # copied, and so is a Frame's own matrix
        a = np.eye(2)
        a.setflags(write=False)
        fr = Frame(a)
        assert fr.matrix is not a
        a.setflags(write=True)
        a[0, 0] = 5.0
        assert fr.matrix[0, 0] == 1.0
        again = Frame(fr.matrix).matrix
        assert again is not fr.matrix and np.array_equal(again, fr.matrix)
        assert not again.flags.writeable

    def test_checks_a_kept_array(self):
        # an array that dynframe froze itself, as a spec does with its orbit,
        # is checked like any other
        bad = _freeze(np.array([[1.0, np.nan], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="finite"):
            Frame(bad)
        zero = _freeze(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(ZeroVector):
            Frame(zero)

    def test_field_tag(self):
        assert cols([1, 0], [0, 1]).field == "real"
        assert Frame(np.array([[1.0 + 0j, 1j]])).field == "complex"


class TestFrameOperator:
    def test_orthonormal_basis(self):
        assert np.array_equal(frame_operator(cols([1, 0], [0, 1])), np.eye(2))

    def test_repeated_vector(self):
        s = frame_operator(cols([1, 0], [1, 0], [0, 1]))
        assert np.array_equal(s, np.diag([2.0, 1.0]))

    def test_sign_flip_orbit_is_parseval(self):
        assert np.allclose(frame_operator(PARSEVAL_PM), np.eye(2))


class TestAnalyze:
    def test_unbalanced_bounds(self):
        rep = analyze(cols([1, 0], [1, 0], [0, 1]))
        assert (rep.lower_bound, rep.upper_bound) == (1.0, 2.0)
        assert rep.is_frame and not rep.is_tight
        assert rep.tight_constant is None

    def test_basis_plus_repeat_and_its_scaling(self):
        fr = cols([1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0])
        rep = analyze(fr)
        assert (rep.lower_bound, rep.upper_bound) == (1.0, 2.0)
        s = 2.0 ** -0.5
        scaled = cols([s, 0, 0], [0, 1, 0], [0, 0, 1], [s, 0, 0])
        assert analyze(scaled).parseval

    def test_rank_deficient(self):
        rep = analyze(Frame(np.array([[1.0], [0.0]])))
        assert not rep.is_frame

    def test_parseval_flags(self):
        rep = analyze(PARSEVAL_PM)
        assert rep.is_tight and rep.parseval
        assert rep.tight_constant == pytest.approx(1.0, abs=1e-12)

    def test_bounds_are_the_extreme_eigenvalues(self, rng):
        for field in ("real", "complex"):
            for n, k in ((2, 2), (3, 7), (6, 10), (16, 40), (5, 3)):
                m = rng.standard_normal((n, k))
                if field == "complex":
                    m = m + 1j * rng.standard_normal((n, k))
                fr = Frame(m)
                lam, _ = hermitian_eig(frame_operator(fr))
                rep = analyze(fr)
                assert abs(rep.upper_bound - lam[0]) <= 1e-12 * lam[0]
                assert abs(rep.lower_bound - lam[-1]) <= 1e-12 * lam[0]
                assert rep.is_frame == (k >= n)

    def test_eigensolver_failure_is_numerical(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        # a fresh Frame: the module's PARSEVAL_PM may keep its spectrum already
        with pytest.raises(NumericalFailure, match="did not converge"):
            analyze(Frame(PARSEVAL_PM.matrix))


class TestCanonicalDual:
    def test_diagonal_frame_operator(self):
        dual = canonical_dual(cols([1, 0], [1, 0], [0, 1]))
        expect = np.column_stack([[0.5, 0.0], [0.5, 0.0], [0.0, 1.0]])
        assert np.allclose(dual.matrix, expect)

    def test_parseval_is_self_dual(self):
        dual = canonical_dual(PARSEVAL_PM)
        assert dual.close_to(PARSEVAL_PM, 1e-12)

    def test_two_by_two_hand_inverse(self):
        dual = canonical_dual(cols([1, 0], [1, 1]))
        expect = np.column_stack([[1.0, -1.0], [0.0, 1.0]])
        assert np.allclose(dual.matrix, expect)

    def test_not_a_frame(self):
        with pytest.raises(NotAFrame):
            canonical_dual(Frame(np.array([[1.0], [0.0]])))


class TestVerifyDuality:
    def test_basis_self_duality(self):
        b = cols([1, 0], [0, 1])
        assert verify_duality(b, b)

    def test_explicit_dual_pair(self):
        f = cols([1, 0], [1, 0], [0, 1])
        g = cols([0.5, 0], [0.5, 0], [0, 1])
        assert verify_duality(f, g)

    def test_rejects_wrong_pair(self):
        assert not verify_duality(cols([1, 0], [0, 1]), cols([1, 0], [1, 0]))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            verify_duality(cols([1, 0], [0, 1]), cols([1, 0], [0, 1], [1, 1]))

    def test_canonical_dual_always_passes(self, rng):
        for _ in range(10):
            fr = random_frame(rng, 3, 7)
            assert verify_duality(fr, canonical_dual(fr))


class TestFusionCheck:
    def test_orthogonal_lines(self):
        dec = fusion_check([cols([1, 0]), cols([0, 1])])
        assert dec.lower_bound == pytest.approx(1.0)
        assert dec.upper_bound == pytest.approx(1.0)
        assert dec.is_fusion_frame

    def test_line_plus_plane(self):
        dec = fusion_check([cols([1, 0]), cols([1, 0], [0, 1])])
        assert dec.lower_bound == pytest.approx(1.0)
        assert dec.upper_bound == pytest.approx(2.0)

    def test_repeated_line_is_not_fusion(self):
        dec = fusion_check([cols([1, 0]), cols([1, 0])])
        assert dec.lower_bound == pytest.approx(0.0, abs=1e-12)
        assert not dec.is_fusion_frame

    def test_bases_orthonormal(self, rng):
        subs = [random_frame(rng, 4, 2), random_frame(rng, 4, 3)]
        dec = fusion_check(subs)
        for basis in dec.subspaces:
            k = basis.shape[1]
            assert np.allclose(basis.conj().T @ basis, np.eye(k))

    def test_positive_fusion_bound_gives_frame_union(self, rng):
        for _ in range(10):
            subs = [random_frame(rng, 3, int(rng.integers(1, 4))) for _ in range(3)]
            dec = fusion_check(subs)
            if dec.lower_bound > 1e-9:
                union = Frame(np.column_stack([s.matrix for s in subs]))
                assert analyze(union).is_frame
