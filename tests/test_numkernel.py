import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynframe import numkernel
from dynframe.errors import NotHermitian, NotNormal, NumericalFailure
from dynframe.instances import random_normal_matrix, random_unitary
from dynframe.numkernel import (DEFAULT_TOL, Feasible, InfeasibleWitness, LPResult,
                                as_matrix, fro, hermitian_eig, inner, nonneg_feasible,
                                svd_rank, unitary_diagonalize)
from dynframe.scalability import _scaling_system


class TestHermitianEig:
    def test_diagonal_input(self):
        lam, v = hermitian_eig(np.diag([2.0, 1.0]))
        assert np.allclose(lam, [2.0, 1.0])
        assert np.allclose(v, np.eye(2))

    def test_swap_matrix(self):
        # hand eigensolve: eigenpairs (1, (1,1)/sqrt 2) and (-1, (1,-1)/sqrt 2)
        lam, v = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(lam, [1.0, -1.0])
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(np.abs(v), [[s, s], [s, s]])
        assert np.allclose(v[:, 0] / v[0, 0], [1.0, 1.0])
        assert np.allclose(v[:, 1] / v[0, 1], [1.0, -1.0])

    def test_identity(self):
        lam, _ = hermitian_eig(np.eye(3))
        assert np.allclose(lam, 1.0)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotHermitian):
            hermitian_eig(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_descending_order(self, rng):
        for _ in range(20):
            m = rng.standard_normal((4, 4))
            m = (m + m.T) / 2
            lam, _ = hermitian_eig(m)
            assert np.all(np.diff(lam) <= 1e-12)

    def test_roundtrip_residual(self, rng):
        tol = DEFAULT_TOL
        for _ in range(200):
            n = int(rng.integers(2, 7))
            m = rng.standard_normal((n, n))
            m = (m + m.T) / 2
            lam, v = hermitian_eig(m, tol)
            scale = max(1.0, fro(m))
            assert fro(m - v @ np.diag(lam) @ v.conj().T) <= 10 * tol * scale
            assert fro(v.conj().T @ v - np.eye(n)) <= 10 * tol


class TestUnitaryDiagonalize:
    def test_already_diagonal(self):
        u, d = unitary_diagonalize(np.diag([1.0, -1.0]))
        assert np.allclose(u, np.eye(2))
        assert np.allclose(d, np.diag([1.0, -1.0]))

    def test_rotation_eigenstructure(self):
        w = 2 * np.pi / 3
        rot = np.array([[np.cos(w), -np.sin(w)], [np.sin(w), np.cos(w)]])
        u, d = unitary_diagonalize(rot)
        assert np.allclose(np.diag(d), [np.exp(1j * w), np.exp(-1j * w)])
        # columns are (1, -i)/sqrt 2 and (1, i)/sqrt 2 up to a unit phase
        ref0 = np.array([1.0, -1.0j]) / np.sqrt(2.0)
        ref1 = np.array([1.0, 1.0j]) / np.sqrt(2.0)
        assert abs(abs(inner(u[:, 0], ref0)) - 1.0) < 1e-12
        assert abs(abs(inner(u[:, 1], ref1)) - 1.0) < 1e-12

    def test_rejects_nilpotent(self):
        with pytest.raises(NotNormal):
            unitary_diagonalize(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_roundtrip_on_random_normal(self, rng):
        # QLQ* construction keeps the inputs exactly normal
        tol = DEFAULT_TOL
        for t in range(1000):
            n = int(rng.integers(2, 6))
            field = "complex" if t % 2 else "real"
            a = random_normal_matrix(rng, n, field=field)
            u, d = unitary_diagonalize(a, tol)
            scale = max(1.0, fro(a))
            assert fro(a - u @ d @ u.conj().T) <= 10 * tol * scale
            assert fro(u.conj().T @ u - np.eye(n)) <= 10 * tol
            assert fro(d - np.diag(np.diag(d))) == 0.0


class TestSchurReference:
    """unitary_diagonalize calls LAPACK's zgees as scipy.linalg.schur does; on
    a normal matrix that is not Hermitian it must answer exactly as
    scipy.linalg.schur(a, output="complex") and then _canonical_order."""

    def test_bitwise_equal_to_scipy_schur(self, rng):
        import scipy.linalg
        checked = 0
        while checked < 120:
            n = int(rng.integers(1, 19))
            a = random_normal_matrix(rng, n, field="complex" if checked % 2 else "real")
            if fro(a - a.conj().T) <= DEFAULT_TOL * max(1.0, fro(a)):
                continue  # Hermitian: eigh decides it, not the Schur form
            u, d = unitary_diagonalize(a)
            t, z = scipy.linalg.schur(a.astype(complex), output="complex")
            order = numkernel._canonical_order(np.diag(t))
            assert np.array_equal(u, z[:, order])
            assert np.array_equal(d, np.diag(np.diag(t)[order]))
            checked += 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input(self, bad):
        with pytest.raises(NumericalFailure, match="infs or NaNs"):
            unitary_diagonalize(np.array([[0.0, -1.0], [1.0, bad]]))


class TestSvdRank:
    def test_rank_one_projector(self):
        s, rank, basis = svd_rank(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert np.allclose(s, [1.0, 0.0])
        assert rank == 1
        assert basis.shape == (2, 1)

    def test_repeated_column_still_full_rank(self):
        m = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        _, rank, _ = svd_rank(m)
        assert rank == 2

    def test_ones_matrix(self):
        s, rank, _ = svd_rank(np.ones((2, 2)))
        assert np.allclose(s, [2.0, 0.0], atol=1e-12)
        assert rank == 1

    def test_column_basis_orthonormal(self, rng):
        for _ in range(20):
            m = rng.standard_normal((4, 6))
            _, rank, basis = svd_rank(m)
            assert basis.shape == (4, rank)
            assert np.allclose(basis.conj().T @ basis, np.eye(rank))


def _assert_feasible_by_construction(rng, rows, cols):
    # a @ x0 with x0 > 0 must come back feasible, to the accuracy of a @ x0
    a = rng.standard_normal((rows, cols))
    x0 = rng.uniform(0.2, 1.5, size=cols)
    res = nonneg_feasible(a, a @ x0)
    assert isinstance(res, Feasible)
    assert np.all(res.x >= 0.0)
    assert np.linalg.norm(a @ res.x - a @ x0) <= 1e-7 * max(1.0, np.linalg.norm(a @ x0))


class TestNonnegFeasible:
    def test_simplex_margin(self):
        res = nonneg_feasible(np.array([[1.0, 1.0]]), np.array([1.0]))
        assert isinstance(res, Feasible)
        assert np.allclose(res.x, [0.5, 0.5], atol=1e-9)
        assert abs(res.margin - 0.5) < 1e-9

    def test_symmetric_ray_strict(self):
        res = nonneg_feasible(np.array([[1.0, -1.0]]), np.array([0.0]))
        assert isinstance(res, Feasible)
        assert abs(res.x[0] - res.x[1]) < 1e-9
        assert res.margin > DEFAULT_TOL

    def test_contradictory_rows(self):
        a, b = np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
        res = nonneg_feasible(a, b)
        assert isinstance(res, InfeasibleWitness)
        assert res.y @ b > DEFAULT_TOL
        assert np.max(a.T @ res.y) <= DEFAULT_TOL

    def test_deterministic(self, rng):
        a = rng.standard_normal((3, 6))
        b = a @ rng.uniform(0.1, 1.0, size=6)
        r1 = nonneg_feasible(a, b)
        r2 = nonneg_feasible(a, b)
        assert np.array_equal(r1.x, r2.x)
        assert r1.margin == r2.margin

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 4), st.integers(2, 7), st.integers(0, 2 ** 31 - 1))
    def test_feasible_by_construction(self, rows, cols, seed):
        _assert_feasible_by_construction(np.random.default_rng(seed), rows, cols)

    def test_thin_cone_stays_accurate(self):
        # a draw of the shapes above whose max-min program is unbounded:
        # an absolute cap on t let the vertex reach entries where rounding
        # left a residual of 1.2e-6; the cap relative to x_ls keeps it small
        _assert_feasible_by_construction(np.random.default_rng([8139, 7]), 4, 6)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 2 ** 31 - 1))
    def test_witness_inequalities(self, cols, seed):
        # start from any system, then push the target strictly outside the
        # cone by projecting it against a random direction
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((3, cols))
        y0 = rng.standard_normal(3)
        y0 /= np.linalg.norm(y0)
        a = a - np.outer(y0, np.clip(y0 @ a, 0.0, None))
        reachable = a @ rng.uniform(0.0, 1.0, size=cols)
        # lift past whatever the cone can reach along y0, so y0 itself
        # separates b from the cone
        shift = 1.0 + max(0.0, -float(y0 @ reachable))
        b = reachable + shift * y0
        res = nonneg_feasible(a, b)
        assert isinstance(res, InfeasibleWitness)
        assert res.y @ b > DEFAULT_TOL
        assert np.max(a.T @ res.y) <= DEFAULT_TOL


def _recorded_lps(monkeypatch, aeq, beq):
    """The kernel calls nonneg_feasible(aeq, beq) makes, each with its result."""
    calls, kernel = [], numkernel.linprog

    def record(c, **kwargs):
        res = kernel(c, **kwargs)
        calls.append((c, kwargs, res))
        return res

    with monkeypatch.context() as patch:
        patch.setattr(numkernel, "linprog", record)
        nonneg_feasible(aeq, beq)
    return calls


def _overcomplete(rng, n, k, field):
    # Parseval rows divided by positive weights: scalable, past n(n+1)/2 columns
    u = random_unitary(rng, k, field)[:n, :]
    return u / rng.uniform(0.4, 2.5, size=k)


class TestLinprogReference:
    """numkernel.linprog calls the HiGHS binding that scipy bundles; it must
    answer as scipy.optimize.linprog(method="highs") does on the same LP."""

    def _assert_matches_scipy(self, calls):
        from scipy.optimize import linprog as scipy_linprog
        assert calls
        for c, kwargs, res in calls:
            ref = scipy_linprog(c, method="highs", options=numkernel._LP_OPTIONS, **kwargs)
            assert res.status == ref.status
            assert res.nit == ref.nit
            if ref.status == 0:
                assert np.allclose(res.x, ref.x, rtol=0.0, atol=1e-12)
            else:
                assert res.x is None

    @pytest.mark.parametrize("n, k, field", [(3, 8, "real"), (4, 14, "real"),
                                             (3, 12, "complex")])
    def test_max_min_of_overcomplete_scaling_systems(self, rng, monkeypatch, n, k, field):
        aeq, beq = _scaling_system(_overcomplete(rng, n, k, field))
        calls = _recorded_lps(monkeypatch, aeq, beq)
        assert [res.status for _, _, res in calls] == [0]
        self._assert_matches_scipy(calls)

    def test_orthant_frame_and_its_witness(self, rng, monkeypatch):
        # positive entries: every off-diagonal of sum x_i f_i f_i* is positive
        aeq, beq = _scaling_system(rng.uniform(0.1, 1.0, size=(4, 6)))
        calls = _recorded_lps(monkeypatch, aeq, beq)
        assert [res.status for _, _, res in calls] == [2, 0]
        assert calls[1][1]["A_ub"] is not None
        assert set(calls[1][1]["bounds"]) == {(-1.0, 1.0)}
        self._assert_matches_scipy(calls)

    def test_capped_unbounded_ray(self, monkeypatch):
        # x1 = x2 is a ray: the margin stops at the cap
        calls = _recorded_lps(monkeypatch, np.array([[1.0, -1.0]]), np.array([0.0]))
        assert [res.status for _, _, res in calls] == [0]
        assert calls[0][2].x[-1] == numkernel.MARGIN_CAP
        self._assert_matches_scipy(calls)

    def test_feasibility_tolerance(self):
        # x2 = -2.5e-9 is within HiGHS' default tolerance 1e-7 but not 1e-10
        kwargs = {"A_eq": np.array([[1.0, 1.0], [1.0, -1.0]]), "b_eq": np.array([1.0, 1.0 + 5e-9]),
                  "bounds": [(0.0, None), (0.0, None)]}
        res = numkernel.linprog(np.array([0.0, -1.0]), **kwargs)
        assert res.status == 2
        self._assert_matches_scipy([(np.array([0.0, -1.0]), kwargs, res)])

    def test_unbounded(self):
        # the same ray with no cap: status 3, as scipy reports it
        kwargs = {"A_eq": np.array([[1.0, -1.0]]), "b_eq": np.array([0.0]),
                  "bounds": [(0.0, None), (0.0, None)]}
        res = numkernel.linprog(np.array([-1.0, 0.0]), **kwargs)
        assert res.status == 3 and res.x is None
        self._assert_matches_scipy([(np.array([-1.0, 0.0]), kwargs, res)])


class TestLPFailureMessages:
    UNDECIDED = LPResult(status=4, message="Primal infeasible or unbounded", nit=12, x=None)

    def test_max_min_program(self, monkeypatch):
        monkeypatch.setattr(numkernel, "linprog", lambda c, **kwargs: self.UNDECIDED)
        with pytest.raises(NumericalFailure, match=r"^linear program ended with status 4 "
                           r"\(HiGHS: Primal infeasible or unbounded, 12 iterations\)$"):
            nonneg_feasible(np.array([[1.0, 1.0]]), np.array([1.0]))

    def test_witness_program(self, monkeypatch):
        infeasible = LPResult(status=2, message="Infeasible", nit=3, x=None)
        answers = iter([infeasible, self.UNDECIDED])
        monkeypatch.setattr(numkernel, "linprog", lambda c, **kwargs: next(answers))
        with pytest.raises(NumericalFailure, match=r"^witness program did not solve: status 4 "
                           r"\(HiGHS: Primal infeasible or unbounded, 12 iterations\)$"):
            nonneg_feasible(np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))


class TestFrozen:
    def test_field_conversion_copies_a_frozen_array(self):
        a = np.eye(2)
        a.setflags(write=False)
        m = as_matrix(a, field="complex")
        assert m.dtype == np.complex128 and m is not a
        assert as_matrix(a, field="real") is not a
        # an array frozen here is copied too
        own = as_matrix(a)
        for field in (None, "real", "complex"):
            again = as_matrix(own, field=field)
            assert again is not own and np.array_equal(again, own)
            assert not again.flags.writeable


class TestInnerConvention:
    def test_linear_in_first_argument(self):
        x = np.array([1.0 + 1.0j, 0.0])
        y = np.array([1.0, 1.0j])
        assert np.isclose(inner(2.0 * x, y), 2.0 * inner(x, y))
        assert np.isclose(inner(x, y), np.conj(inner(y, x)))

    def test_unitary_preserves_inner(self, rng):
        u = random_unitary(rng, 3, field="complex")
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert np.isclose(inner(u @ x, u @ y), inner(x, y))
