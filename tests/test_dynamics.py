import numpy as np
import pytest

from dynframe import dynamics
from dynframe.constructions import CompanionSpec, companion, harmonic, multigen_rotation
from dynframe.dynamics import (DynamicalSystemSpec, diagonal_reduce,
                               dynamical_dual, iterate, iterate_columns,
                               reconstruct, take_samples, transport)
from dynframe.errors import (DimensionMismatch, IndexMismatch, NotAFrame,
                             NotNormal, NumericalFailure, SingularTransport,
                             ZeroVector)
from dynframe.frames import analyze, canonical_dual, frame_operator, verify_duality
from dynframe.instances import random_invertible, random_spec, random_unitary
from dynframe.numkernel import inner
from dynframe.scalability import solve_scaling

E1_3 = np.array([1.0, 0.0, 0.0])


def shift_spec(iters=3):
    return DynamicalSystemSpec.single(companion(CompanionSpec((1.0, 0.0, 0.0))),
                                      E1_3, iters)


def one_vector_spec():
    return DynamicalSystemSpec.single(np.diag([1.0, -1.0]),
                                      np.array([0.5, 0.5]), 3)


def two_operator_spec(rng):
    """A complex and a real operator, each on a generator of its own."""
    return DynamicalSystemSpec(
        operators=(0.6 * random_unitary(rng, 3, "complex"), np.diag([0.9, -0.8, 0.7])),
        generators=(rng.standard_normal(3), rng.standard_normal(3)),
        triples=((0, 0, 2), (1, 1, 3)))


def column_stack_reference(spec):
    """The iterated columns, one product per power, stacked at the end."""
    cols = []
    for s, g, l in spec.triples:
        a = spec.operators[s]
        v = spec.generators[g]
        for _ in range(l + 1):
            cols.append(v)
            v = a @ v
    return np.column_stack(cols)


class TestSpecValidation:
    def test_zero_generator(self):
        with pytest.raises(ZeroVector):
            DynamicalSystemSpec.single(np.eye(2), np.zeros(2), 1)

    def test_operator_generator_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            DynamicalSystemSpec.single(np.eye(3), np.array([1.0, 0.0]), 1)

    def test_negative_iters(self):
        with pytest.raises(ValueError):
            DynamicalSystemSpec.single(np.eye(2), np.array([1.0, 0.0]), -1)

    def test_lattice_order(self):
        spec = DynamicalSystemSpec(operators=(np.eye(2), 2 * np.eye(2)),
                                   generators=(np.array([1.0, 0.0]),),
                                   triples=((0, 0, 1), (1, 0, 2)))
        assert spec.lattice() == ((0, 0), (0, 1), (1, 0), (1, 1), (1, 2))


class TestIterate:
    def test_shift_companion_orbit(self):
        fr = iterate(shift_spec(3))
        expect = np.column_stack([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert np.array_equal(fr.matrix, expect)

    def test_sign_flip_orbit(self):
        fr = iterate(one_vector_spec())
        expect = np.column_stack([[0.5, 0.5], [0.5, -0.5], [0.5, 0.5], [0.5, -0.5]])
        assert np.array_equal(fr.matrix, expect)

    def test_two_plane_system(self):
        a = 2 * np.pi / 3
        fr = iterate(multigen_rotation([(0, 0, 1, 1, a), (0, 0, 2, 2, a)], n=3))
        c, s = np.cos(a), np.sin(a)
        expect = np.column_stack([
            [1, 0, 0],
            [c, s, 0], [c * c - s * s, 2 * s * c, 0],
            [c, 0, s], [c * c - s * s, 0, 2 * s * c]])
        assert np.allclose(fr.matrix, expect)

    def test_matrix_is_read_only(self, rng):
        for spec in (shift_spec(3), two_operator_spec(rng), harmonic(8, 16)):
            m = iterate(spec).matrix
            assert not m.flags.writeable
            assert np.array_equal(m, column_stack_reference(spec))

    def test_frame_keeps_the_fresh_columns(self, monkeypatch):
        made = []

        def columns(spec):
            made.append(iterate_columns(spec))
            return made[-1]

        monkeypatch.setattr(dynamics, "iterate_columns", columns)
        m = iterate(shift_spec(3)).matrix
        # the Frame copies the one orbit, as it copies every input array
        assert len(made) == 1 and m is not made[0]
        assert np.array_equal(m, made[0]) and not m.flags.writeable

    def test_nilpotent_orbit_has_a_zero_vector(self):
        # the strictly lower shift sends e1 to 0 after three steps
        spec = DynamicalSystemSpec.single(np.eye(3, k=-1), E1_3, 3)
        with pytest.raises(ZeroVector, match="vector 3 is zero"):
            iterate(spec)


class TestSpecMemo:
    def test_one_orbit_per_spec(self, rng, monkeypatch):
        made = []

        def columns(spec):
            made.append(spec)
            return iterate_columns(spec)

        monkeypatch.setattr(dynamics, "iterate_columns", columns)
        spec = one_vector_spec()
        f = rng.standard_normal(2)
        frame = iterate(spec)
        dynamical_dual(spec)
        samples = take_samples(spec, f)
        via_dual = reconstruct(spec, samples)
        via_weights = reconstruct(spec, samples, weights=np.ones(4))
        assert len(made) == 1 and made[0] is spec
        assert iterate(spec) is frame
        assert np.allclose(iterate(spec)._spectrum[0], np.eye(2))
        assert np.linalg.norm(via_dual - f) < 1e-12
        assert np.linalg.norm(via_weights - f) < 1e-12

    def test_kept_arrays_are_read_only(self):
        spec = shift_spec(3)
        dynamical_dual(spec)
        for kept in (iterate(spec).matrix, iterate(spec)._spectrum[0]):
            with pytest.raises(ValueError, match="read-only"):
                kept[0, 0] = 5.0
        assert np.array_equal(iterate(spec)._spectrum[0], np.diag([2.0, 1.0, 1.0]))

    def test_one_dual_per_spec(self):
        spec = shift_spec(3)
        dual = dynamical_dual(spec)
        assert isinstance(dual, DynamicalSystemSpec)
        assert dynamical_dual(spec) is dual and vars(spec)["_dual"] is dual
        for kept in dual.operators + dual.generators:
            with pytest.raises(ValueError, match="read-only"):
                kept[0] = 5.0

    def test_not_a_frame_keeps_no_dual(self):
        spec = shift_spec(1)
        for _ in range(2):
            with pytest.raises(NotAFrame):
                dynamical_dual(spec)
        assert "_dual" not in vars(spec)

    def test_zero_iterate_keeps_its_own_columns(self):
        # no Frame can be made, so the spec keeps the orbit itself, once
        spec = DynamicalSystemSpec.single(np.eye(3, k=-1), E1_3, 3)
        take_samples(spec, [1, 2, 3])
        kept = vars(spec)["_columns"]
        assert "_frame" not in vars(spec) and not kept.flags.writeable
        assert np.array_equal(kept, column_stack_reference(spec))
        take_samples(spec, [3, 2, 1])
        assert vars(spec)["_columns"] is kept

    def test_later_writes_to_the_inputs_do_not_reach_it(self):
        a = companion(CompanionSpec((1.0, 0.0, 0.0)))
        f = E1_3.copy()
        spec = DynamicalSystemSpec.single(a, f, 3)
        expect = column_stack_reference(shift_spec(3))
        a[:] = 7.0
        f[:] = 9.0
        assert np.array_equal(iterate(spec).matrix, expect)
        a[:] = -1.0
        f[:] = -2.0
        assert np.array_equal(iterate(spec).matrix, expect)

    def test_later_writes_to_frozen_inputs_do_not_reach_it(self):
        # a read-only input is copied too: its owner can make it writable
        a, e1 = np.eye(2), np.array([1.0, 0.0])
        a.setflags(write=False)
        e1.setflags(write=False)
        spec = DynamicalSystemSpec.single(a, e1, 1)
        frame = iterate(spec)
        for arr in (a, e1):
            arr.setflags(write=True)
            arr[0] = 5.0
        assert np.array_equal(spec.operators[0], np.eye(2))
        assert np.array_equal(spec.generators[0], [1.0, 0.0])
        assert iterate(spec) is frame
        assert np.array_equal(frame.matrix, [[1.0, 1.0], [0.0, 0.0]])
        # the spec keeps its orbit once: its columns are the Frame's read-only matrix
        assert frame.matrix is spec._columns and not frame.matrix.flags.writeable

    def test_sample_cross_check_runs_on_every_call(self, rng, monkeypatch):
        spec = two_operator_spec(rng)
        f = rng.standard_normal(3)
        take_samples(spec, f)
        orbits = dynamics._orbits

        def skewed(*args):
            # the kept columns stay right; only the adjoint sweep is off
            out = orbits(*args)
            out[:, -1] += 1e-3
            return out

        monkeypatch.setattr(dynamics, "_orbits", skewed)
        with pytest.raises(NumericalFailure, match=r"cross-check failed at \(s=1, j=3\)"):
            take_samples(spec, f)


    def test_one_inverse_per_spec(self, rng, monkeypatch):
        spec = two_operator_spec(rng)
        calls = {"inv": 0, "solve": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(np.linalg, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(np.linalg, name, counted)
        dual = dynamical_dual(spec)
        fs = [rng.standard_normal(3) for _ in range(10)]
        recovered = [reconstruct(spec, take_samples(spec, f)) for f in fs]
        monkeypatch.undo()
        assert calls == {"inv": 1, "solve": 0}
        assert not iterate(spec)._inverse.flags.writeable
        s = frame_operator(iterate(spec))
        for g, f in zip(dual.generators, spec.generators):
            assert np.allclose(g, np.linalg.solve(s, f), atol=1e-12)
        for f, rec in zip(fs, recovered):
            assert np.linalg.norm(rec - f) < 1e-12

    def test_not_a_frame_forms_no_inverse(self, monkeypatch):
        # one orbit of the identity spans a line of R^2
        spec = DynamicalSystemSpec.single(np.eye(2), np.array([1.0, 1.0]), 2)

        def inverse(*args):
            raise AssertionError("S was inverted for a system that is not a frame")

        monkeypatch.setattr(np.linalg, "inv", inverse)
        samples = take_samples(spec, np.array([1.0, 2.0]))
        with pytest.raises(NotAFrame):
            dynamical_dual(spec)
        with pytest.raises(NotAFrame):
            reconstruct(spec, samples)
        assert "_inverse" not in vars(iterate(spec))

    def test_badly_conditioned_orbit_matches_lu(self):
        # the Krylov orbit of a diagonal operator with eigenvalues 1, 0.8,
        # ..., 0.1, turned by a fixed reflection so that it is dense
        v = np.ones(6) / np.sqrt(6.0)
        q = np.eye(6) - 2.0 * np.outer(v, v)
        a = q @ np.diag([1.0, 0.8, 0.6, 0.4, 0.2, 0.1]) @ q
        f = q @ np.ones(6)
        iters = 6
        spec = DynamicalSystemSpec.single(a, f, iters)
        s = frame_operator(iterate(spec))
        cond = np.linalg.cond(s)
        assert cond >= 1e6
        bound = 1e3 * np.finfo(float).eps * cond * (iters + 1)

        def rel(x, ref):
            return np.linalg.norm(x - ref) / np.linalg.norm(ref)

        dual = dynamical_dual(spec)
        assert rel(dual.operators[0], np.linalg.solve(s, a @ s)) <= bound
        assert rel(dual.generators[0], np.linalg.solve(s, f)) <= bound
        x = np.cos(np.arange(6.0))
        samples = take_samples(spec, x)
        rec = reconstruct(spec, samples)
        ref = np.linalg.solve(s, iterate(spec).matrix @ np.asarray(samples.values))
        assert rel(rec, ref) <= bound
        assert rel(rec, x) <= bound


class TestIterateColumns:
    @staticmethod
    def _assert_bit_identical(spec):
        got, ref = iterate_columns(spec), column_stack_reference(spec)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()

    def test_random_systems(self, rng):
        for field in ("real", "complex"):
            for _ in range(10):
                self._assert_bit_identical(
                    random_spec(rng, int(rng.integers(2, 6)), field=field, max_ops=3))

    def test_zero_iterates(self):
        spec = DynamicalSystemSpec(operators=(np.eye(3, k=-1), np.zeros((3, 3))),
                                   generators=(E1_3,), triples=((0, 0, 5), (1, 0, 2)))
        self._assert_bit_identical(spec)
        assert not np.any(iterate_columns(spec)[:, 3:6])

    def test_mixed_real_and_complex(self, rng):
        self._assert_bit_identical(two_operator_spec(rng))
        spec = DynamicalSystemSpec(
            operators=(np.diag([1.0, 2.0]), np.diag([1j, 1.0])),
            generators=(np.array([1.0, 1.0]), np.array([1.0, 1j])),
            triples=((0, 1, 2), (1, 0, 0), (0, 0, 1)))
        self._assert_bit_identical(spec)
        unused = DynamicalSystemSpec(operators=(np.eye(2), 1j * np.eye(2)),
                                     generators=(np.array([1.0, 2.0]),),
                                     triples=((0, 0, 2), (1, 0, 0)))
        assert iterate_columns(unused).dtype == np.float64
        self._assert_bit_identical(unused)


class TestDynamicalDual:
    def test_parseval_system_is_self_dual(self):
        dual = dynamical_dual(one_vector_spec())
        assert np.allclose(dual.operators[0], np.diag([1.0, -1.0]))
        assert np.allclose(dual.generators[0], [0.5, 0.5])

    def test_shift_companion_dual_values(self):
        spec = shift_spec(3)
        dual = dynamical_dual(spec)
        assert np.allclose(iterate(spec)._spectrum[0], np.diag([2.0, 1.0, 1.0]))
        assert np.allclose(dual.generators[0], [0.5, 0.0, 0.0])
        expect_b = np.array([[0.0, 0.0, 0.5], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert np.allclose(dual.operators[0], expect_b)
        assert dual.triples == spec.triples
        assert verify_duality(iterate(spec), iterate(dual))

    def test_dual_iterate_is_canonical_dual(self, rng):
        for _ in range(10):
            spec = random_spec(rng, int(rng.integers(2, 5)), max_ops=2)
            dual_frame = iterate(dynamical_dual(spec))
            assert dual_frame.close_to(canonical_dual(iterate(spec)), 1e-7)

    def test_non_frame_rejected(self):
        spec = DynamicalSystemSpec.single(np.diag([1.0, 0.0]),
                                          np.array([1.0, 0.0]), 4)
        with pytest.raises(NotAFrame):
            dynamical_dual(spec)


class TestTransport:
    def test_identity_leaves_spec_alone(self):
        spec = shift_spec(3)
        res = transport(spec, np.eye(3))
        assert res.unitary
        assert np.allclose(iterate(res.spec).matrix, iterate(spec).matrix)

    def test_permutation_preserves_bounds(self):
        spec = shift_spec(3)
        perm = np.eye(3)[:, [2, 0, 1]]
        res = transport(spec, perm)
        assert res.unitary
        before, after = analyze(iterate(spec)), analyze(iterate(res.spec))
        assert before.lower_bound == pytest.approx(after.lower_bound)
        assert before.upper_bound == pytest.approx(after.upper_bound)

    def test_diagonal_stretch_of_parseval(self):
        res = transport(one_vector_spec(), np.diag([2.0, 1.0]))
        assert not res.unitary
        rep = analyze(iterate(res.spec))
        assert rep.lower_bound == pytest.approx(1.0)
        assert rep.upper_bound == pytest.approx(4.0)

    def test_singular_map_rejected(self):
        with pytest.raises(SingularTransport):
            transport(one_vector_spec(), np.array([[1.0, 0.0], [1.0, 0.0]]))

    def test_naturality(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 5))
            spec = random_spec(rng, n, max_ops=2, frame_only=False)
            b = random_invertible(rng, n)
            lhs = iterate(transport(spec, b).spec).matrix
            rhs = b @ iterate(spec).matrix
            assert np.linalg.norm(lhs - rhs) <= 1e-8 * max(1.0, np.linalg.norm(rhs))


class TestDiagonalReduce:
    def test_already_diagonal(self):
        u, d, reduced = diagonal_reduce(one_vector_spec())
        assert np.allclose(u, np.eye(2))
        assert np.allclose(d, np.diag([1.0, -1.0]))
        assert np.allclose(reduced.generators[0], [0.5, 0.5])

    def test_rotation_reduces_to_phases(self):
        w = 2 * np.pi / 3
        rot = np.array([[np.cos(w), -np.sin(w)], [np.sin(w), np.cos(w)]])
        spec = DynamicalSystemSpec.single(rot, np.array([1.0, 0.0]), 2)
        u, d, reduced = diagonal_reduce(spec)
        assert np.allclose(np.diag(d), [np.exp(1j * w), np.exp(-1j * w)])
        v = reduced.generators[0]
        assert np.allclose(np.abs(v), [2.0 ** -0.5, 2.0 ** -0.5])
        # iterating the reduced system is U* applied to the original orbit
        assert np.allclose(iterate(reduced).matrix, u.conj().T @ iterate(spec).matrix)

    def test_non_normal_rejected(self):
        spec = DynamicalSystemSpec.single(np.array([[0.0, 1.0], [0.0, 0.0]]),
                                          np.array([1.0, 0.0]), 1)
        with pytest.raises(NotNormal):
            diagonal_reduce(spec)


class TestTakeSamples:
    def test_shift_companion_samples(self):
        samples = take_samples(shift_spec(3), E1_3)
        assert samples.indices == ((0, 0), (0, 1), (0, 2), (0, 3))
        assert np.allclose(samples.values, [1.0, 0.0, 0.0, 1.0])

    def test_zero_vector_samples(self):
        samples = take_samples(shift_spec(3), np.zeros(3))
        assert np.allclose(samples.values, 0.0)

    def test_nilpotent_orbit_samples(self):
        # a zero iterate is no frame vector, but it still has a sample; and
        # iterate's refusal is not remembered, so it is raised on every call
        spec = DynamicalSystemSpec.single(np.eye(3, k=-1), E1_3, 3)
        for _ in range(2):
            with pytest.raises(ZeroVector, match="vector 3 is zero"):
                iterate(spec)
            assert take_samples(spec, [1, 2, 3]).values == (1.0, 2.0, 3.0, 0.0)

    def test_parseval_identity(self, rng):
        spec = harmonic(3, 5)
        f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        samples = take_samples(spec, f)
        assert np.isclose(np.sum(np.abs(samples.values) ** 2),
                          np.linalg.norm(f) ** 2)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            take_samples(shift_spec(3), np.array([1.0, 0.0]))

    def test_values_are_inner_products(self, rng):
        specs = [random_spec(rng, 4, field=field, max_ops=3)
                 for field in ("real", "complex")] + [two_operator_spec(rng)]
        for spec in specs:
            cols = column_stack_reference(spec)
            for f in (rng.standard_normal(spec.dim),
                      rng.standard_normal(spec.dim) + 1j * rng.standard_normal(spec.dim)):
                samples = take_samples(spec, f)
                assert samples.indices == spec.lattice()
                ref = [inner(f, cols[:, i]) for i in range(cols.shape[1])]
                assert [type(v) for v in samples.values] == [type(v) for v in ref]
                assert np.allclose(samples.values, ref, rtol=1e-13, atol=1e-13)

    def test_cross_check_failure_names_its_entry(self, rng, monkeypatch):
        spec = two_operator_spec(rng)
        at = spec.lattice().index((1, 2))

        def perturbed(spec):
            cols = column_stack_reference(spec)
            cols[:, at] += 1e-3
            return cols

        monkeypatch.setattr(dynamics, "iterate_columns", perturbed)
        with pytest.raises(NumericalFailure, match=r"cross-check failed at \(s=1, j=2\)"):
            take_samples(spec, rng.standard_normal(3))


class TestReconstruct:
    def test_dual_route_roundtrip(self, rng):
        spec = shift_spec(3)
        f = rng.standard_normal(3)
        rec = reconstruct(spec, take_samples(spec, f))
        assert np.linalg.norm(rec - f) < 1e-9

    def test_weighted_route_on_parseval(self, rng):
        spec = one_vector_spec()
        f = rng.standard_normal(2)
        rec = reconstruct(spec, take_samples(spec, f), weights=np.ones(4))
        assert np.linalg.norm(rec - f) < 1e-12

    def test_weighted_route_with_certificate(self, rng):
        spec = shift_spec(3)
        cert = solve_scaling(iterate(spec))
        f = rng.standard_normal(3)
        rec = reconstruct(spec, take_samples(spec, f), weights=cert)
        assert np.linalg.norm(rec - f) < 1e-9

    def test_harmonic_complex_recovery(self, rng):
        spec = harmonic(3, 4)
        f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        rec = reconstruct(spec, take_samples(spec, f))
        assert np.linalg.norm(rec - f) < 1e-9

    def test_index_mismatch(self):
        spec = shift_spec(3)
        samples = take_samples(spec, E1_3)
        truncated = type(samples)(indices=samples.indices[:-1],
                                  values=samples.values[:-1])
        with pytest.raises(IndexMismatch):
            reconstruct(spec, truncated)

    def test_dual_route_is_the_dual_system_synthesis(self, rng):
        specs = ([random_spec(rng, int(rng.integers(2, 6)), field=field, max_ops=3)
                  for field in ("real", "complex") for _ in range(8)]
                 + [two_operator_spec(rng), harmonic(4, 9)])
        for spec in specs:
            f = rng.standard_normal(spec.dim) + 1j * rng.standard_normal(spec.dim)
            samples = take_samples(spec, f)
            dual = iterate(dynamical_dual(spec)).matrix
            expect = dual @ np.asarray(samples.values)
            got = reconstruct(spec, samples)
            assert np.linalg.norm(got - expect) <= 1e-10 * np.linalg.norm(f)
            assert np.linalg.norm(got - f) <= 1e-8 * np.linalg.norm(f)

    @pytest.mark.parametrize("weights", [None, np.ones(2)])
    def test_not_a_frame_message(self, weights):
        spec = shift_spec(1)
        samples = take_samples(spec, E1_3)
        with pytest.raises(NotAFrame) as from_dual:
            dynamical_dual(spec)
        with pytest.raises(NotAFrame) as raised:
            reconstruct(spec, samples, weights=weights)
        assert str(raised.value) == str(from_dual.value)
        with pytest.raises(NotAFrame) as from_frame:
            canonical_dual(iterate(spec))
        assert str(raised.value) == str(from_frame.value)
        assert str(raised.value).startswith("lower bound ")

    def test_multi_operator_roundtrip(self, rng):
        for _ in range(10):
            spec = random_spec(rng, 3, max_ops=3)
            f = rng.standard_normal(3)
            rec = reconstruct(spec, take_samples(spec, f))
            assert np.linalg.norm(rec - f) <= 1e-8 * max(1.0, np.linalg.norm(f))
