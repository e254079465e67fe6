import ast
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import dynframe
import dynframe.serialize as ser
from dynframe import verify
from dynframe.cli import main
from dynframe.dynamics import iterate, take_samples
from dynframe.errors import InputError, NumericalFailure
from dynframe.frames import verify_duality
from dynframe.instances import random_scalable_frame
from dynframe.scalability import scaling_residual
from dynframe.verify import SuiteResult

MERCEDES_OMEGA = 2 * np.pi / 3


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def frame_file(tmp_path, name, columns):
    path = tmp_path / name
    ser.write_json(path, ser.matrix_to_json(np.column_stack(columns)))
    return str(path)


def fresh_python(*lines):
    """Stripped stdout of the given lines run in a fresh interpreter on this dynframe."""
    src = os.path.dirname(os.path.dirname(dynframe.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", "\n".join(lines)], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip()


@pytest.fixture
def mercedes(tmp_path, capsys):
    sys_path = str(tmp_path / "sys.json")
    frame_path = str(tmp_path / "frame.json")
    assert run(capsys, "construct", "rotation", "--n", 2,
               "--omega", MERCEDES_OMEGA, "--out", sys_path)[0] == 0
    assert run(capsys, "gen", sys_path, "--out", frame_path)[0] == 0
    return sys_path, frame_path


class TestPipeline:
    def test_construct_gen_analyze(self, tmp_path, capsys):
        sys_path = str(tmp_path / "h.json")
        code, _, _ = run(capsys, "construct", "harmonic", "--n", 3, "--k", 4,
                         "--out", sys_path)
        assert code == 0
        frame_path = str(tmp_path / "hf.json")
        assert run(capsys, "gen", sys_path, "--out", frame_path)[0] == 0
        code, out, _ = run(capsys, "analyze", frame_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["is_frame"] and payload["parseval"]
        assert payload["diagram_tight"]
        assert payload["lower_bound"] == pytest.approx(1.0, abs=1e-9)

    def test_rank_deficient_exits_false(self, tmp_path, capsys):
        path = frame_file(tmp_path, "flat.json", [[1.0, 0.0], [1.0, 0.0]])
        code, out, _ = run(capsys, "analyze", path)
        assert code == 1
        assert json.loads(out)["is_frame"] is False

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "analyze", str(tmp_path / "nope.json"))
        assert code == 2
        assert "error" in err

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(capsys, "analyze", str(bad))[0] == 2

    def test_no_command_is_usage_error(self, capsys):
        assert run(capsys)[0] == 2

    def test_help_exits_clean(self, capsys):
        assert run(capsys, "--help")[0] == 0

    @staticmethod
    def _scipy_modules_after(statement, then="pass"):
        # a fresh interpreter runs statement, lists the scipy modules, then runs then
        return fresh_python("import sys, dynframe.cli", statement,
                            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
                            then)

    def test_import_loads_no_scipy(self):
        # only the LP and the Schur branch load scipy's compiled modules, on first use
        assert self._scipy_modules_after("pass") == "[]"

    def test_scale_of_a_tight_frame_loads_no_scipy(self, tmp_path, capsys):
        # the harmonic 3x7 frame of the README is decided by uniform weights
        # and the oracle's null-space candidate, so no LP runs
        sys_path, frame_path = str(tmp_path / "sys.json"), str(tmp_path / "frame.json")
        assert run(capsys, "construct", "harmonic", "--n", 3, "--k", 7,
                   "--out", sys_path)[0] == 0
        assert run(capsys, "gen", sys_path, "--out", frame_path)[0] == 0
        # main's own output goes to a buffer, so only the module list prints
        scale = ("import io; out, sys.stdout = sys.stdout, io.StringIO(); "
                 f"code = dynframe.cli.main(['scale', {frame_path!r}]); "
                 "sys.stdout = out; assert code == 0")
        assert self._scipy_modules_after(scale) == "[]"

    def test_lp_and_schur_load_only_two_compiled_modules(self, tmp_path):
        # an overcomplete 6x25 frame reaches the LP, a rotation the Schur
        # form; each loads its compiled module from its file, and neither
        # scipy, scipy.optimize nor scipy.linalg is imported
        frame_path = str(tmp_path / "frame.json")
        frame, _ = random_scalable_frame(np.random.default_rng(6000), 6, 25)
        ser.write_json(frame_path, ser.frame_to_json(frame))
        statement = "\n".join([
            "import io, json, numpy as np",
            "from dynframe import numkernel",
            "from dynframe.scalability import normal_scalability",
            "lps, solve = [], numkernel.linprog",
            "def recorded(c, **kwargs):",
            "    lps.append((c, kwargs))",
            "    return solve(c, **kwargs)",
            "numkernel.linprog = recorded",
            "out, sys.stdout = sys.stdout, io.StringIO()",
            f"code = dynframe.cli.main(['scale', {frame_path!r}])",
            "sys.stdout = out",
            "rot = np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])",
            "strict = normal_scalability(rot, [np.array([1.0, 0.0])], [3]).strict"])
        # then the packages load, and find the same modules in sys.modules
        then = "\n".join([
            "import scipy.optimize, scipy.linalg",
            "from scipy.optimize._highspy import _core",
            "c, kwargs = lps[0]",
            "mine = solve(c, **kwargs)",
            "ref = scipy.optimize.linprog(c, method='highs', options=numkernel._LP_OPTIONS,"
            " **kwargs)",
            "print(json.dumps({'code': code, 'strict': strict, 'lps': len(lps),",
            "    'same_core': _core is numkernel._highs()[0],",
            "    'same_lapack': scipy.linalg.lapack._flapack",
            "                   is numkernel._extension('scipy.linalg._flapack'),",
            "    'status': [mine.status, int(ref.status)], 'nit': [mine.nit, int(ref.nit)],",
            "    'dx': float(np.max(np.abs(mine.x - ref.x)))}))"])
        modules, report = self._scipy_modules_after(statement, then).splitlines()
        modules = ast.literal_eval(modules)
        extensions = ("scipy.optimize._highspy._core", "scipy.linalg._flapack")
        assert set(extensions) <= set(modules)
        assert all(m.startswith(extensions) for m in modules)
        assert not {"scipy", "scipy.optimize", "scipy.linalg"} & set(modules)
        report = json.loads(report)
        assert report["code"] == 0 and report["strict"] and report["lps"] >= 1
        assert report["same_core"] and report["same_lapack"]
        assert report["status"] == [0, 0] and report["nit"][0] == report["nit"][1]
        assert report["dx"] <= 1e-12


def _system_dict():
    return {"dim": 2, "field": "real",
            "operators": [ser.matrix_to_json(np.eye(2)),
                          ser.matrix_to_json(np.diag([1.0, -1.0]))],
            "generators": [[1.0, 0.0], [0.5, 0.5]],
            "triples": [[0, 0, 1], [1, 1, 2]]}


def _set(path, value):
    def edit(d):
        *keys, last = path
        for key in keys:
            d = d[key]
        d[last] = value
    return edit


class TestSystemInput:
    @pytest.mark.parametrize("edit", [
        _set(("triples", 0, 0), 5),
        _set(("triples", 1, 1), 7),
        _set(("triples", 1, 2), -1),
        _set(("triples", 0, 2), True),
        _set(("dim",), 3),
        _set(("operators", 0), ser.matrix_to_json(np.ones((2, 3)))),
        _set(("generators", 0), [1.0, 0.0, 0.0]),
        _set(("generators", 1), [0.0, 0.0]),
        _set(("operators", 1), ser.matrix_to_json(np.eye(3))),
        # a one-dimensional system, where True would pass as dim 1
        lambda d: d.update(dim=True, operators=[ser.matrix_to_json(np.eye(1))],
                           generators=[[1.0]], triples=[[0, 0, 1]]),
        _set(("operators", 0), {"rows": True, "cols": True, "field": "real",
                                "data": [[1.0]]}),
    ], ids=["operator-index", "generator-index", "negative-L", "bool-L",
            "dim-mismatch", "non-square-operator", "generator-length",
            "zero-generator", "mixed-operator-sizes", "bool-dim", "bool-rows-cols"])
    def test_malformed_system_is_input_error(self, edit, tmp_path, capsys):
        good = _system_dict()
        assert ser.system_from_json(good).dim == 2
        bad = _system_dict()
        edit(bad)
        with pytest.raises(InputError):
            ser.system_from_json(bad)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, out, err = run(capsys, "gen", str(path))
        assert code == 2 and out == "" and "error" in err


def _frame_dict():
    return {"rows": 2, "cols": 1, "field": "real", "data": [[1.0], [0.0]]}


def _samples_dict():
    return {"field": "real", "indices": [[0, 0], [0, 1]], "values": [1.0, 0.5]}


def _certificate_dict():
    return {"weights": [0.8, 0.8, 0.8], "residual": 0.0, "strict": True, "margin": 0.64}


def _witness_dict():
    return {"witness": [1.0, -1.0, 0.5], "witness_check": 0.25}


def _replace(value):
    return lambda d: value


def _drop(key):
    return lambda d: {k: v for k, v in d.items() if k != key}


_GOOD = {"frame": (_frame_dict, ser.frame_from_json),
         "system": (_system_dict, ser.system_from_json),
         "samples": (_samples_dict, ser.samples_from_json),
         "certificate": (_certificate_dict, ser.certificate_from_json),
         "witness": (_witness_dict, ser.certificate_from_json)}


def _read_through_cli(capsys, kind, path, mercedes, tmp_path):
    """Run the CLI command that reads a file of this kind from path."""
    sys_path, _ = mercedes
    if kind == "frame":
        return run(capsys, "analyze", path)
    if kind == "system":
        return run(capsys, "gen", path)
    if kind == "samples":
        return run(capsys, "reconstruct", sys_path, path)
    f_path = frame_file(tmp_path, "f.json", [[0.9, 0.4]])
    return run(capsys, "reconstruct", sys_path, "--simulate", f_path, "--weights", path)


class TestMalformedFiles:
    @pytest.mark.parametrize("kind, edit", [
        ("frame", _drop("data")),
        ("frame", _set(("field",), "quaternion")),
        ("frame", _replace([[1.0], [0.0]])),
        ("frame", _set(("data",), [[1.0]])),
        ("frame", _set(("data", 1), [0.0, 1.0])),
        ("frame", _set(("data", 0, 0), [1.0, 0.0])),
        ("frame", _set(("data", 0, 0), True)),
        ("frame", _set(("data", 0, 0), "1.0")),
        ("frame", _set(("data", 0, 0), float("nan"))),
        ("frame", _set(("data", 0, 0), 10 ** 400)),
        ("system", _replace([])),
        ("system", _drop("triples")),
        ("system", _set(("field",), "quaternion")),
        ("system", _set(("operators",), [])),
        ("system", _set(("generators",), [])),
        ("system", _set(("generators", 0), [])),
        ("system", _set(("triples",), [])),
        ("samples", _replace("samples")),
        ("samples", _drop("values")),
        ("samples", _set(("field",), "quaternion")),
        ("samples", _set(("values",), [1.0])),
        ("samples", _set(("indices", 0), [0])),
        ("samples", _set(("indices", 1), [0, 1.0])),
        ("samples", _set(("values", 1), 10 ** 400)),
        ("certificate", _replace([0.8, 0.8, 0.8])),
        ("certificate", _drop("margin")),
        ("certificate", _set(("weights", 1), -0.8)),
        ("certificate", _set(("weights", 1), float("nan"))),
        ("certificate", _set(("strict",), 1)),
        ("witness", _drop("witness_check")),
    ], ids=["frame-missing-key", "frame-unknown-field", "frame-not-object",
            "frame-row-count", "frame-row-length", "frame-pair-in-real",
            "frame-boolean-entry", "frame-string-entry", "frame-nan", "frame-out-of-range",
            "system-not-object", "system-missing-key", "system-unknown-field",
            "system-no-operators", "system-no-generators", "system-empty-vector",
            "system-no-triples", "samples-not-object", "samples-missing-key",
            "samples-unknown-field", "samples-length-mismatch", "samples-short-index",
            "samples-float-index", "samples-out-of-range", "certificate-not-object",
            "certificate-missing-key", "certificate-negative-weight", "certificate-nan-weight",
            "certificate-strict-not-boolean", "witness-missing-check"])
    def test_rejected_with_input_error(self, kind, edit, mercedes, tmp_path, capsys):
        good, reader = _GOOD[kind]
        reader(good())
        bad = good()
        replaced = edit(bad)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad if replaced is None else replaced))
        code, out, err = _read_through_cli(capsys, kind, str(path), mercedes, tmp_path)
        assert code == 2 and out == "" and "error" in err

    @pytest.mark.parametrize("kind, key, value", [
        ("certificate", "residual", None),
        ("certificate", "residual", "0.5"),
        ("certificate", "margin", True),
        ("certificate", "margin", float("inf")),
        pytest.param("certificate", "residual", 10 ** 400,
                     id="certificate-residual-out-of-range"),
        ("witness", "witness_check", True),
    ])
    def test_certificate_numbers_must_be_finite(self, kind, key, value, mercedes,
                                                tmp_path, capsys):
        good, _ = _GOOD[kind]
        path = tmp_path / "cert.json"
        bad = good()
        bad[key] = value
        path.write_text(json.dumps(bad))
        code, out, err = _read_through_cli(capsys, kind, str(path), mercedes, tmp_path)
        assert code == 2 and out == ""
        assert f"error: {key} must be a finite number" in err


class TestScale:
    def test_strict_certificate(self, mercedes, capsys):
        _, frame_path = mercedes
        code, out, _ = run(capsys, "scale", frame_path, "--strict")
        assert code == 0
        payload = json.loads(out)
        assert payload["strict"] is True
        assert payload["residual"] <= 1e-9
        assert np.allclose(payload["weights"], np.sqrt(2.0 / 3.0), atol=1e-9)

    def test_writes_the_keys_the_readme_lists(self, mercedes, tmp_path, capsys):
        # README, file formats: a certificate is weights, residual, margin
        # and the strict flag; a witness is the vector and its witness_check
        _, frame_path = mercedes
        skew = frame_file(tmp_path, "skew.json", [[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        assert set(json.loads(run(capsys, "scale", frame_path)[1])) == {
            "weights", "residual", "strict", "margin"}
        assert set(json.loads(run(capsys, "scale", skew)[1])) == {"witness", "witness_check"}

    def test_infeasible_witness(self, tmp_path, capsys):
        path = frame_file(tmp_path, "skew.json",
                          [[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        code, out, _ = run(capsys, "scale", path)
        assert code == 1
        payload = json.loads(out)
        assert "witness" in payload
        assert payload["witness_check"] > 0

    def test_strict_flag_demands_positive_weights(self, tmp_path, capsys):
        s = 2.0 ** -0.5
        path = frame_file(tmp_path, "edge.json",
                          [[1.0, 0.0], [0.0, 1.0], [s, s]])
        code, out, _ = run(capsys, "scale", path)
        assert code == 0
        code, out, _ = run(capsys, "scale", path, "--strict")
        assert code == 1
        payload = json.loads(out)
        assert "weights" in payload and payload["strict"] is False

    def test_certificate_revalidates_on_reload(self, mercedes, tmp_path, capsys):
        _, frame_path = mercedes
        cert_path = str(tmp_path / "cert.json")
        assert run(capsys, "scale", frame_path, "--out", cert_path)[0] == 0
        cert = ser.certificate_from_json(ser.read_json(cert_path))
        frame = ser.frame_from_json(ser.read_json(frame_path))
        assert scaling_residual(frame, cert.squares) <= 1e-9

    def test_oracle_disagreement_is_numeric_failure(self, mercedes, capsys,
                                                    monkeypatch):
        _, frame_path = mercedes
        monkeypatch.setattr("dynframe.cli.gramian_scaling_check",
                            lambda frame, tol: (None, None, False))
        code, _, err = run(capsys, "scale", frame_path)
        assert code == 3
        assert "oracle" in err

    @pytest.mark.parametrize("command", ["scale", "analyze"])
    @pytest.mark.parametrize("columns, bad", [
        ([[1e160, 0.0], [0.0, 1e160], [1e160, 1e160]], 0),     # |f_i|^2 overflows
        ([[1e-160, 0.0], [0.0, 1e-160], [1e-160, 1e-160]], 0),  # weights would be 1e320
        ([[1.0, 0.0], [0.0, 1.0], [1e-300, 1e-300]], 2)])       # nonzero, |f_2|^2 underflows
    def test_squared_norm_outside_the_float_range(self, tmp_path, capsys, command,
                                                  columns, bad):
        path = frame_file(tmp_path, "scaled.json", columns)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, command, path)
        assert code == 2 and out == ""
        assert f"error: vector {bad} has squared norm" in err
        assert caught == []


class TestDual:
    def test_dual_system_round_trip(self, tmp_path, capsys):
        sys_path = str(tmp_path / "c.json")
        dual_path = str(tmp_path / "d.json")
        assert run(capsys, "construct", "companion", "--coeffs", "1,0,0",
                   "--iters", 3, "--out", sys_path)[0] == 0
        assert run(capsys, "dual", sys_path, "--out", dual_path)[0] == 0
        primal = iterate(ser.system_from_json(ser.read_json(sys_path)))
        dual = iterate(ser.system_from_json(ser.read_json(dual_path)))
        assert verify_duality(primal, dual)

    def test_dual_of_rank_deficient_system(self, tmp_path, capsys):
        sys_path = str(tmp_path / "thin.json")
        assert run(capsys, "construct", "companion", "--coeffs", "1,0,0",
                   "--iters", 1, "--out", sys_path)[0] == 0
        code, _, err = run(capsys, "dual", sys_path)
        assert code == 1
        assert "error" in err


class TestReconstruct:
    def test_simulate_round_trip(self, mercedes, tmp_path, capsys):
        sys_path, _ = mercedes
        f_path = frame_file(tmp_path, "f.json", [[0.3, -1.2]])
        code, out, _ = run(capsys, "reconstruct", sys_path, "--simulate", f_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["error"] <= 1e-8
        rec = ser.matrix_from_json(payload["recovered"])
        assert np.allclose(rec[:, 0], [0.3, -1.2], atol=1e-8)

    def test_sample_file_route(self, tmp_path, capsys):
        sys_path = str(tmp_path / "h.json")
        assert run(capsys, "construct", "harmonic", "--n", 3, "--k", 5,
                   "--out", sys_path)[0] == 0
        spec = ser.system_from_json(ser.read_json(sys_path))
        f = np.array([0.4 + 0.1j, -0.2, 1.0 - 0.7j])
        samples = take_samples(spec, f)
        s_path = str(tmp_path / "s.json")
        ser.write_json(s_path, ser.samples_to_json(samples))
        code, out, _ = run(capsys, "reconstruct", sys_path, s_path)
        assert code == 0
        rec = ser.matrix_from_json(json.loads(out)["recovered"])
        assert np.allclose(rec[:, 0], f, atol=1e-8)

    def test_weighted_route(self, mercedes, tmp_path, capsys):
        sys_path, frame_path = mercedes
        cert_path = str(tmp_path / "cert.json")
        assert run(capsys, "scale", frame_path, "--out", cert_path)[0] == 0
        f_path = frame_file(tmp_path, "f.json", [[0.9, 0.4]])
        code, out, _ = run(capsys, "reconstruct", sys_path, "--simulate",
                           f_path, "--weights", cert_path)
        assert code == 0
        assert json.loads(out)["error"] <= 1e-8

    def test_weights_file_with_a_tight_constant(self, mercedes, tmp_path, capsys):
        # certificates written before tight_constant was dropped still load
        sys_path, frame_path = mercedes
        cert_path = tmp_path / "old.json"
        code, out, _ = run(capsys, "scale", frame_path)
        assert code == 0
        cert_path.write_text(json.dumps(dict(json.loads(out), tight_constant=1.0)))
        f_path = frame_file(tmp_path, "f.json", [[0.9, 0.4]])
        code, out, _ = run(capsys, "reconstruct", sys_path, "--simulate",
                           f_path, "--weights", str(cert_path))
        assert code == 0
        assert json.loads(out)["error"] <= 1e-8

    def test_witness_rejected_as_weights(self, mercedes, tmp_path, capsys):
        sys_path, _ = mercedes
        skew = frame_file(tmp_path, "skew.json",
                          [[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        wit_path = str(tmp_path / "wit.json")
        assert run(capsys, "scale", skew, "--out", wit_path)[0] == 1
        f_path = frame_file(tmp_path, "f.json", [[0.5, 0.5]])
        code, _, err = run(capsys, "reconstruct", sys_path, "--simulate",
                           f_path, "--weights", wit_path)
        assert code == 2
        assert "witness" in err

    def test_samples_and_simulate_are_exclusive(self, mercedes, tmp_path, capsys):
        sys_path, _ = mercedes
        f_path = frame_file(tmp_path, "f.json", [[1.0, 0.0]])
        code, out, err = run(capsys, "reconstruct", sys_path, f_path, "--simulate", f_path)
        assert (code, out) == (2, "")
        assert err == "error: give a samples file or --simulate, not both\n"
        code, out, err = run(capsys, "reconstruct", sys_path)
        assert (code, out) == (2, "")
        assert err == "error: give a samples file or --simulate\n"

    def test_missing_sample_index(self, mercedes, tmp_path, capsys):
        sys_path, _ = mercedes
        s_path = str(tmp_path / "short.json")
        ser.write_json(s_path, {"field": "real", "indices": [[0, 0]],
                                "values": [1.0]})
        code, _, err = run(capsys, "reconstruct", sys_path, s_path)
        assert code == 2
        assert "index" in err.lower()

    @pytest.mark.parametrize("field, value", [
        ("real", "1e400"), ("real", "NaN"), ("real", "-Infinity"), ("complex", "Infinity"),
        ("complex", "[0.5, 1e400]"), ("complex", "[NaN, 0]")])
    def test_non_finite_sample_names_its_entry(self, mercedes, tmp_path, capsys, field, value):
        # json reads these as inf or nan; the reader rejects them before any
        # arithmetic, so no numpy warning comes first
        sys_path, _ = mercedes
        lattice = ser.system_from_json(ser.read_json(sys_path)).lattice()
        samples = {"field": field, "indices": [list(p) for p in lattice],
                   "values": ["first"] + [0.5] * (len(lattice) - 1)}
        s_path = tmp_path / "samples.json"
        s_path.write_text(json.dumps(samples).replace('"first"', value))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "reconstruct", sys_path, str(s_path))
        assert code == 2 and out == ""
        assert "error: sample 0: " in err and "is not finite" in err
        assert caught == []

    def test_multicolumn_simulate_rejected(self, mercedes, tmp_path, capsys):
        sys_path, _ = mercedes
        wide = frame_file(tmp_path, "wide.json", [[1.0, 0.0], [0.0, 1.0]])
        assert run(capsys, "reconstruct", sys_path, "--simulate", wide)[0] == 2


class TestConstructPresets:
    def test_block_preset(self, tmp_path, capsys):
        sys_path = str(tmp_path / "b.json")
        code, _, _ = run(capsys, "construct", "block",
                         "--omegas", f"{MERCEDES_OMEGA},1.1", "--out", sys_path)
        assert code == 0
        spec = ser.system_from_json(ser.read_json(sys_path))
        assert spec.operators[0].shape == (4, 4)
        assert len(spec.generators) == 2
        frame = iterate(spec)
        assert frame.matrix.shape == (4, 6)

    def test_multigen_preset(self, tmp_path, capsys):
        sys_path = str(tmp_path / "m.json")
        frame_path = str(tmp_path / "mf.json")
        plane1 = f"0,0,1,1,{MERCEDES_OMEGA}"
        plane2 = f"0,0,2,2,{MERCEDES_OMEGA}"
        assert run(capsys, "construct", "multigen", "--plane", plane1,
                   "--plane", plane2, "--out", sys_path)[0] == 0
        assert run(capsys, "gen", sys_path, "--out", frame_path)[0] == 0
        code, out, _ = run(capsys, "scale", frame_path, "--strict")
        assert code == 0
        payload = json.loads(out)
        assert payload["margin"] == pytest.approx(1 / 3, abs=1e-9)

    def test_r3_preset(self, tmp_path, capsys):
        sys_path = str(tmp_path / "r.json")
        frame_path = str(tmp_path / "rf.json")
        assert run(capsys, "construct", "r3", "--a", -2, "--b", 1,
                   "--out", sys_path)[0] == 0
        assert run(capsys, "gen", sys_path, "--out", frame_path)[0] == 0
        assert run(capsys, "scale", frame_path, "--strict")[0] == 0

    def test_r3_criterion_failure_exits_false(self, capsys):
        code, _, err = run(capsys, "construct", "r3", "--a", 1, "--b", 1)
        assert code == 1
        assert "error" in err

    def test_twoparam_preset_is_tight(self, tmp_path, capsys):
        sys_path = str(tmp_path / "t.json")
        frame_path = str(tmp_path / "tf.json")
        assert run(capsys, "construct", "twoparam", "--a", 1, "--d", 0,
                   "--out", sys_path)[0] == 0
        assert run(capsys, "gen", sys_path, "--out", frame_path)[0] == 0
        code, out, _ = run(capsys, "analyze", frame_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["is_tight"]
        assert payload["tight_constant"] == pytest.approx(3.0, abs=1e-9)

    def test_schur_preset(self, tmp_path, capsys):
        sys_path = str(tmp_path / "s.json")
        assert run(capsys, "construct", "schur", "--n", 4,
                   "--omega", MERCEDES_OMEGA, "--signs", "1,-1",
                   "--out", sys_path)[0] == 0
        spec = ser.system_from_json(ser.read_json(sys_path))
        assert len(spec.generators) == 3
        assert run(capsys, "construct", "schur", "--n", 4,
                   "--omega", 1.0, "--signs", "0.5,1")[0] == 2

    def test_bad_preset_inputs(self, capsys):
        assert run(capsys, "construct", "companion", "--coeffs", "a,b")[0] == 2
        assert run(capsys, "construct", "companion", "--coeffs", "0,0")[0] == 2
        assert run(capsys, "construct", "harmonic", "--n", 3, "--k", 2)[0] == 2
        assert run(capsys, "construct", "multigen", "--plane", "0,0,1,1")[0] == 2
        code, _, err = run(capsys, "construct", "companion", "--coeffs", "1,0,0",
                           "--iters", -1)
        assert code == 2 and "iteration count -1 is negative" in err
        code, _, err = run(capsys, "construct", "block", "--omegas", "")
        assert code == 2 and "--omegas expects comma-separated numbers" in err


class TestVerifyCommand:
    def test_single_suite_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "frame-inequality",
                           "--trials", 2, "--json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 1
        assert payload[0]["name"] == "frame-inequality"
        assert payload[0]["passed"] is True
        assert payload[0]["trials"] == 2

    def test_text_table(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "dual-identity",
                           "--suite", "transport-naturality", "--trials", 3)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert all(line.startswith("PASS") for line in lines)

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "no-such-suite")
        assert code == 2
        assert "frame-inequality" in err
        code, out, err = run(capsys, "verify", "--suite", "all", "--suite", "nope")
        assert (code, out) == (2, "")
        assert "unknown suite 'nope'; known suites: eig-roundtrip" in err

    def test_failing_suite_exits_false(self, capsys, monkeypatch):
        def fake(name, trials=None, seed=0, tol=0.0):
            return SuiteResult(name=name, passed=False, trials=1,
                               detail="forced failure")
        monkeypatch.setattr("dynframe.verify.run_suite", fake)
        code, out, _ = run(capsys, "verify", "--suite", "eig-roundtrip")
        assert code == 1
        assert "FAIL" in out and "forced failure" in out

    def test_raising_check_fails_only_its_suite(self, capsys, monkeypatch):
        def check(rng, t, tol):
            if t == 1:
                raise NumericalFailure("forced")
        suites = list(verify._SUITES)
        suites[verify.SUITE_NAMES.index("eig-roundtrip")] = ("eig-roundtrip", 50, check)
        monkeypatch.setattr(verify, "_SUITES", suites)
        code, out, _ = run(capsys, "verify", "--suite", "eig-roundtrip",
                           "--suite", "dual-identity", "--trials", 3)
        assert code == 1
        assert out.splitlines() == [
            "FAIL  eig-roundtrip  trials=3  trial 1: raised NumericalFailure: forced",
            "PASS  dual-identity  trials=3",
        ]

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trial_count_below_one_rejected(self, trials, capsys):
        code, out, err = run(capsys, "verify", "--suite", "dual-identity",
                             "--trials", trials)
        assert code == 2 and out == ""
        assert "trial count must be at least 1" in err
        with pytest.raises(ValueError):
            verify.run_suite("dual-identity", trials=trials)

    @pytest.mark.parametrize("name", verify.SUITE_NAMES)
    def test_every_suite_passes_at_its_default_count(self, name):
        result = verify.run_suite(name, seed=0)
        assert result.passed, result.detail
        assert result.trials == verify._SUITES[verify.SUITE_NAMES.index(name)][1]

    def test_witness_soundness_at_a_tight_tol(self):
        # a witness is judged by its gap against the trace-row bound, not by
        # max(y'aeq) <= tol: at tol 1e-14 valid witnesses have max(y'aeq) ~ 1e-14
        result = verify.run_suite("witness-soundness", seed=0, tol=1e-14)
        assert result.passed, result.detail

    def test_seed_changes_draws_not_verdicts(self, capsys):
        for seed in (0, 7):
            code, _, _ = run(capsys, "verify", "--suite", "dual-identity",
                             "--trials", 5, "--seed", seed)
            assert code == 0


class TestTolerance:
    def test_malformed_env_rejected(self, mercedes, capsys, monkeypatch):
        _, frame_path = mercedes
        monkeypatch.setenv("DYNFRAME_TOL", "abc")
        assert run(capsys, "analyze", frame_path)[0] == 2

    def test_flag_beats_malformed_env(self, mercedes, capsys, monkeypatch):
        _, frame_path = mercedes
        monkeypatch.setenv("DYNFRAME_TOL", "abc")
        assert run(capsys, "analyze", frame_path, "--tol", "1e-9")[0] == 0

    def test_valid_env_is_used(self, mercedes, capsys, monkeypatch):
        _, frame_path = mercedes
        monkeypatch.setenv("DYNFRAME_TOL", "1e-6")
        assert run(capsys, "analyze", frame_path)[0] == 0

    def test_nonpositive_tol_rejected(self, mercedes, capsys):
        _, frame_path = mercedes
        assert run(capsys, "analyze", frame_path, "--tol", "-1")[0] == 2
        assert run(capsys, "analyze", frame_path, "--tol", "0")[0] == 2


class TestDeterminism:
    def test_stdout_bytes_stable(self, mercedes, capsys):
        _, frame_path = mercedes
        _, first, _ = run(capsys, "scale", frame_path)
        _, second, _ = run(capsys, "scale", frame_path)
        assert first == second

    def test_out_file_matches_stdout(self, mercedes, tmp_path, capsys):
        _, frame_path = mercedes
        _, out, _ = run(capsys, "scale", frame_path)
        path = tmp_path / "cert.json"
        run(capsys, "scale", frame_path, "--out", str(path))
        assert path.read_text() == out

    def test_verify_json_deterministic(self, capsys):
        _, first, _ = run(capsys, "verify", "--suite", "diagram-oracle",
                          "--trials", 20, "--seed", 3, "--json")
        code, second, _ = run(capsys, "verify", "--suite", "diagram-oracle",
                              "--trials", 20, "--seed", 3, "--json")
        assert first == second
        assert code == 0 and json.loads(second)[0]["passed"] is True

    def test_no_negative_zero_in_output(self, tmp_path, capsys):
        s = 2.0 ** -0.5
        path = frame_file(tmp_path, "edge.json",
                          [[1.0, 0.0], [0.0, 1.0], [s, s]])
        _, out, _ = run(capsys, "scale", path)
        assert "-0," not in out and "-0}" not in out


class TestTracedNames:
    # perfbench/spans.py wraps its TARGETS by name and skips a module that
    # is not loaded, so a rename would silently drop a span; the file is
    # read, not imported, because importing it pins the BLAS pools in
    # os.environ
    @staticmethod
    def _targets():
        path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")
        with open(path) as fh:
            tree = ast.parse(fh.read())
        node = next(n.value for n in tree.body if isinstance(n, ast.Assign)
                    and any(getattr(t, "id", None) == "TARGETS" for t in n.targets))
        return [tuple(ast.literal_eval(e) for e in entry.elts[:2]) for entry in node.elts]

    def test_every_traced_name_resolves(self):
        # in a fresh interpreter, as the console script starts: the CLI loads
        # every traced module, and neither it nor the package loads the
        # presets, the verifier or the random instances
        targets = self._targets()
        assert len(targets) == 27
        out = fresh_python(
            "import json, sys",
            "def loaded(): return sorted(m for m in sys.modules if m.startswith('dynframe'))",
            "import dynframe",
            "package = loaded()",
            "from dynframe.cli import main",
            f"targets = {targets!r}",
            "print(json.dumps({'package': package, 'cli': loaded(), 'callable': [",
            "    callable(getattr(sys.modules.get(m), a, None)) for m, a in targets]}))")
        report = json.loads(out)
        deferred = {"dynframe.constructions", "dynframe.verify", "dynframe.instances"}
        assert not deferred & set(report["package"])
        assert not deferred & set(report["cli"])
        assert {module for module, _ in targets} <= set(report["cli"])
        assert report["callable"] == [True] * len(targets)

    def test_every_exported_name_resolves(self):
        for name in dynframe.__all__:
            assert hasattr(dynframe, name), name
