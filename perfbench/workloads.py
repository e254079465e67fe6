"""The four workloads: their operations and the checks on each answer.

A workload is built once (set-up) and then run as passes over a fixed
list of operations.  `run(i)` performs operation i and returns the
program's raw answer; `check_pass(outputs)` judges every answer of one
pass with the independent checkers and returns one outcome per
operation: None when the answer holds, else a one-line reason.
Operations run one at a time, and checks run after the pass, outside the
timed region.
"""

import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import checks
import inputs


class Raised:
    """An operation that raised instead of answering."""

    def __init__(self, exc):
        self.reason = f"raised {type(exc).__name__}: {exc}"


class ScalingWorkload:
    """certify / refute: `dynframe analyze` then `dynframe scale`, in process.

    One operation is analyze, tight_via_diagram, solve_scaling and
    gramian_scaling_check, plus normal_scalability on normal-operator
    systems.  The verdicts must match the truth by construction and
    each other, and certificates and witnesses must check.
    """

    def __init__(self, df, items):
        self.df = df
        self.items = items
        for item in items:
            item["frame"] = df.Frame(item["F"])
        self.names = [item["name"] for item in items]
        self.known = [bool(item.get("known_fault")) for item in items]
        self.verdicts = [0, 0]      # right, attempted; read by the traced run

    def run(self, i):
        df, item = self.df, self.items[i]
        frame = item["frame"]
        report = df.analyze(frame)
        diagram_tight = df.tight_via_diagram(frame)
        res = df.solve_scaling(frame)
        _, _, oracle = df.gramian_scaling_check(frame)
        normal = df.normal_scalability(*item["normal"]) if "normal" in item else None
        return report, diagram_tight, res, oracle, normal

    def _evidence(self, f, res):
        """(scalable?, reason) for a certificate or witness, checked independently."""
        if isinstance(res, self.df.ScalingCertificate):
            return True, checks.check_certificate(f, res.squares)
        if isinstance(res, self.df.InfeasibleWitness):
            return False, checks.check_witness(f, res.y)
        return None, f"answer of type {type(res).__name__}"

    def check_one(self, item, out):
        if isinstance(out, Raised):
            self.verdicts[1] += 1
            return out.reason
        report, diagram_tight, res, oracle, normal = out
        f, truth = item["F"], item["scalable"]
        said, reason = self._evidence(f, res)
        self.verdicts[1] += 1
        if said == truth and reason is None:
            self.verdicts[0] += 1
        problems = [checks.check_bounds(f, report.lower_bound, report.upper_bound), reason]
        if said != truth:
            problems.append(f"solver says scalable={said}, construction says {truth}")
        if oracle != truth:
            problems.append(f"Gramian oracle says {oracle}, construction says {truth}")
        if item.get("parseval") and not report.parseval:
            problems.append("harmonic frame not reported Parseval")
        tight = checks.tightness(f)
        if tight is not None and (report.is_tight != tight or diagram_tight != tight):
            problems.append(f"tightness {report.is_tight}/{diagram_tight}, spectrum says {tight}")
        if normal is not None:
            n_said, n_reason = self._evidence(f, normal)
            if n_said != truth:
                problems.append(f"normal_scalability says {n_said}, construction says {truth}")
            elif n_said:
                problems.append(n_reason)
        return next((p for p in problems if p), None)

    def check_pass(self, outputs):
        return [self.check_one(item, out) for item, out in zip(self.items, outputs)]


class DualWorkload:
    """dual-sampling: iterate, dynamical_dual, take_samples and reconstruct.

    Harmonic systems are Parseval, so they also run the weighted route
    with unit weights.
    """

    def __init__(self, df, items):
        self.df = df
        self.items = items
        for item in items:
            ops, gens, triples = item["system"]
            item["spec"] = df.DynamicalSystemSpec(operators=ops, generators=gens,
                                                  triples=triples)
            item["F"] = checks.iterate(ops, gens, triples)
        self.names = [item["name"] for item in items]
        self.known = [False] * len(items)

    def run(self, i):
        df, item = self.df, self.items[i]
        spec = item["spec"]
        frame = df.iterate(spec)
        dual = df.dynamical_dual(spec)
        samples = df.take_samples(spec, item["f"])
        rec = df.reconstruct(spec, samples)
        rec_w = None
        if item["parseval"]:
            rec_w = df.reconstruct(spec, samples, weights=np.ones(frame.size))
        return frame, dual, samples, rec, rec_w

    def check_one(self, item, out):
        if isinstance(out, Raised):
            return out.reason
        frame, dual, samples, rec, rec_w = out
        f, triples, vec = item["F"], item["system"][2], item["f"]
        lattice = tuple((s, j) for s, (_, _, l) in enumerate(triples) for j in range(l + 1))
        problems = [
            checks.check_frame(frame.matrix, f),
            checks.check_dual(f, triples, dual.operators, dual.generators),
            None if tuple(samples.indices) == lattice else "sample indices off the lattice",
            checks.check_samples(f, vec, samples.values),
            checks.check_reconstruction(f, triples, vec, rec),
        ]
        if rec_w is not None:
            problems.append(checks.check_weighted_reconstruction(
                f, np.ones(f.shape[1]), vec, rec_w))
        return next((p for p in problems if p), None)

    def check_pass(self, outputs):
        return [self.check_one(item, out) for item, out in zip(self.items, outputs)]


# -- cli-pipeline -----------------------------------------------------------

# The console script `dynframe` is `from dynframe.cli import main; sys.exit(main())`.
CLI = [sys.executable, "-c", "import sys; from dynframe.cli import main; sys.exit(main())"]

SMALL_N = 4
MEDIUM_N, MEDIUM_K = 24, 96


def _matrix_json(m):
    m = np.asarray(m)
    cplx = np.iscomplexobj(m)
    data = [[[float(x.real), float(x.imag)] if cplx else float(x) for x in row] for row in m]
    return {"rows": m.shape[0], "cols": m.shape[1],
            "field": "complex" if cplx else "real", "data": data}


class CliWorkload:
    """cli-pipeline: one `dynframe` process per call, one call in flight.

    The same seven calls run on a small system (`rotation --n 4`) and a
    medium one (`harmonic --n 24 --k 96`).  Calls read and write files
    in a working directory inside the checkout, by relative name.
    """

    def __init__(self, seed, workdir, in_process=None):
        rng = np.random.default_rng([int(seed), 4])
        while True:
            omega = float(rng.uniform(0.3, np.pi - 0.3))
            if inputs.doubled_angle_gap(omega, 2) <= np.pi - inputs.GAP_MARGIN:
                break
        self.omega = omega
        self.workdir = workdir
        self.in_process = in_process      # the dynframe.cli module in the traced run
        self.f = {"s": rng.standard_normal(SMALL_N),
                  "m": rng.standard_normal(MEDIUM_N) + 1j * rng.standard_normal(MEDIUM_N)}
        small = ((inputs.rotation_shift_operator(SMALL_N, omega),), (inputs.unit(SMALL_N),),
                 ((0, 0, SMALL_N),))
        self.expected = {"s": small, "m": inputs.harmonic_system(MEDIUM_N, MEDIUM_K)}
        self.frame = {"s": checks.iterate(*small),
                      "m": inputs.harmonic_frame(MEDIUM_N, MEDIUM_K)}
        self.calls = []
        for tag, preset in (("s", ["rotation", "--n", str(SMALL_N), "--omega", repr(omega)]),
                            ("m", ["harmonic", "--n", str(MEDIUM_N), "--k", str(MEDIUM_K)])):
            sys_f, frame_f, cert_f, vec_f = (f"{tag}-sys.json", f"{tag}-frame.json",
                                             f"{tag}-cert.json", f"{tag}-f.json")
            self.calls += [
                (tag, "construct", ["construct", *preset, "--out", sys_f], sys_f),
                (tag, "gen", ["gen", sys_f, "--out", frame_f], frame_f),
                (tag, "analyze", ["analyze", frame_f], None),
                (tag, "scale", ["scale", frame_f, "--out", cert_f], cert_f),
                (tag, "dual", ["dual", sys_f], None),
                (tag, "reconstruct", ["reconstruct", sys_f, "--simulate", vec_f], None),
                (tag, "reconstruct-weights",
                 ["reconstruct", sys_f, "--simulate", vec_f, "--weights", cert_f], None),
            ]
        self.names = [f"{tag}:{kind}" for tag, kind, _, _ in self.calls]
        self.known = [False] * len(self.calls)
        self.first_bytes = {}

    def write_inputs(self, directory):
        os.makedirs(directory, exist_ok=True)
        for tag, vec in self.f.items():
            with open(os.path.join(directory, f"{tag}-f.json"), "w") as fh:
                json.dump(_matrix_json(vec.reshape(-1, 1)), fh)

    def invoke(self, argv, cwd):
        """(exit code, stdout bytes) of one call."""
        if self.in_process is None:
            proc = subprocess.run(CLI + argv, cwd=cwd, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, check=False)
            return proc.returncode, proc.stdout
        out, err = io.StringIO(), io.StringIO()
        here = os.getcwd()
        os.chdir(cwd)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.in_process.main(argv)
        finally:
            os.chdir(here)
        return code, out.getvalue().encode()

    def untimed_call(self, directory):
        """The set-up call: write the inputs, then one `construct` of the small system."""
        self.write_inputs(directory)
        return self.invoke(self.calls[0][2][:-2], directory)

    def run(self, i):
        return self.invoke(self.calls[i][2], self.workdir)

    def check_pass(self, outputs):
        results = []
        ctx = {}
        for i, ((tag, kind, _, out_file), out) in enumerate(zip(self.calls, outputs)):
            if isinstance(out, Raised):
                results.append(out.reason)
                continue
            code, stdout = out
            data = stdout
            if out_file is not None:
                with open(os.path.join(self.workdir, out_file), "rb") as fh:
                    data = fh.read()
            first = self.first_bytes.setdefault(i, data)
            results.append(self.check_call(tag, kind, code, data, first, ctx))
        return results

    def check_call(self, tag, kind, code, data, first, ctx):
        """Exit code, byte-identical repeat, then the answer itself."""
        if code != 0:
            return f"exit code {code}, expected 0"
        same = checks.check_same_bytes(first, data)
        if same:
            return same
        doc, reason = checks.load_json(data)
        if reason:
            return reason
        try:
            return self._check_answer(tag, kind, doc, ctx)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return f"malformed {kind} output: {type(exc).__name__}: {exc}"

    def _check_answer(self, tag, kind, doc, ctx):
        f = self.frame[tag]
        ops, gens, triples = self.expected[tag]
        if kind == "construct":
            got_ops, got_gens, got_triples = checks.parse_system(doc)
            err = max(float(np.max(np.abs(got_ops[0] - ops[0]))),
                      float(np.max(np.abs(got_gens[0] - gens[0]))))
            if len(got_ops) != 1 or got_triples != triples or not err <= 1e3 * checks.EPS:
                return f"system differs from the preset's closed form (err {err:.3e})"
            return None
        if kind == "gen":
            return checks.check_frame(checks.parse_matrix(doc), f)
        if kind == "analyze":
            problems = [checks.check_bounds(f, doc["lower_bound"], doc["upper_bound"])]
            if doc["is_frame"] is not True:
                problems.append("a frame reported as not a frame")
            tight = True if tag == "m" else checks.tightness(f)
            if tight is not None and (doc["is_tight"], doc["diagram_tight"]) != (tight, tight):
                problems.append(f"tightness {doc['is_tight']}/{doc['diagram_tight']}, "
                                f"expected {tight}")
            if tag == "m" and doc["parseval"] is not True:
                problems.append("harmonic frame not reported Parseval")
            return next((p for p in problems if p), None)
        if kind == "scale":
            if "weights" not in doc:
                return "scalable system answered with a witness"
            ctx[tag] = np.asarray(doc["weights"], dtype=float) ** 2
            return checks.check_certificate(f, ctx[tag])
        if kind == "dual":
            d_ops, d_gens, d_triples = checks.parse_system(doc)
            if d_triples != triples:
                return "dual system has other triples than its source"
            return checks.check_dual(f, triples, d_ops, d_gens)
        rec = checks.parse_matrix(doc["recovered"])[:, 0]
        vec = self.f[tag]
        own = float(np.linalg.norm(rec - vec))
        if abs(doc["error"] - own) > 1e-12 * max(1.0, own):
            return f"reported error {doc['error']:.3e} is not |f_hat - f| = {own:.3e}"
        if kind == "reconstruct":
            return checks.check_reconstruction(f, triples, vec, rec)
        if tag not in ctx:
            return "weighted route ran without a checked certificate"
        return checks.check_weighted_reconstruction(f, ctx[tag], vec, rec)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
