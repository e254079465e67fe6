"""Command-line surface: JSON in, JSON out, deterministic bytes.

Subcommands cover iterating a system to its frame file, analyzing a
frame, certifying scalability (with the Gramian oracle cross-checked on
every call), dualizing, reconstructing from samples, emitting preset
systems, and running the property-suite verifier.

Exit codes: 0 success or property-true, 1 property-false, 2 input
error, 3 internal numerical failure or oracle disagreement.
"""

import argparse
import os
import sys

import numpy as np

from . import serialize as ser
from .dynamics import (DynamicalSystemSpec, _orbit_system, dynamical_dual, iterate,
                       reconstruct, take_samples)
from .errors import (CriterionFailed, DynframeError, InputError, NotAFrame,
                     NotHermitian, NumericalFailure)
from .frames import analyze
from .numkernel import DEFAULT_TOL, InfeasibleWitness
from .scalability import ScalingCertificate, gramian_scaling_check, solve_scaling, tight_via_diagram

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _resolve_tol(args) -> float:
    value = getattr(args, "tol", None)
    if value is None:
        env = os.environ.get("DYNFRAME_TOL")
        if env is None:
            return DEFAULT_TOL
        try:
            value = float(env)
        except ValueError:
            raise InputError(f"DYNFRAME_TOL is not a number: {env!r}") from None
    value = float(value)
    if not np.isfinite(value) or value <= 0.0:
        raise InputError(f"tolerance must be positive and finite, got {value!r}")
    return value


def _emit(payload, out_path=None):
    if out_path:
        ser.write_json(out_path, payload)
    else:
        sys.stdout.write(ser.dumps(payload) + "\n")


def _load_system(path) -> DynamicalSystemSpec:
    return ser.system_from_json(ser.read_json(path))


def _load_frame(path):
    return ser.frame_from_json(ser.read_json(path))


def _load_column(path) -> np.ndarray:
    m = ser.matrix_from_json(ser.read_json(path))
    if m.shape[1] != 1:
        raise InputError(f"{path}: expected a single-column matrix, got {m.shape[1]} columns")
    return m[:, 0]


def _csv_floats(text, flag):
    try:
        return [float(x) for x in str(text).split(",")]
    except ValueError:
        raise InputError(f"{flag} expects comma-separated numbers, got {text!r}") from None


def cmd_gen(args, tol) -> int:
    spec = _load_system(args.system)
    frame = iterate(spec)
    _emit(ser.frame_to_json(frame), args.out)
    return EXIT_OK


def cmd_analyze(args, tol) -> int:
    frame = _load_frame(args.frame)
    report = analyze(frame, tol)
    payload = {
        "is_frame": report.is_frame,
        "lower_bound": report.lower_bound,
        "upper_bound": report.upper_bound,
        "is_tight": report.is_tight,
        "tight_constant": report.tight_constant,
        "parseval": report.parseval,
        "diagram_tight": tight_via_diagram(frame, tol),
    }
    _emit(payload, args.out)
    return EXIT_OK if report.is_frame else EXIT_FALSE


def cmd_scale(args, tol) -> int:
    frame = _load_frame(args.frame)
    res = solve_scaling(frame, tol=tol)
    feasible = isinstance(res, ScalingCertificate)
    _, _, oracle_found = gramian_scaling_check(frame, tol)
    if feasible != oracle_found:
        print(f"error: solver says feasible={feasible} but the Gramian "
              f"oracle says {oracle_found}", file=sys.stderr)
        return EXIT_NUMERIC
    _emit(ser.certificate_to_json(res), args.out)
    if not feasible:
        return EXIT_FALSE
    if args.strict and not res.strict:
        return EXIT_FALSE
    return EXIT_OK


def cmd_dual(args, tol) -> int:
    spec = _load_system(args.system)
    _emit(ser.system_to_json(dynamical_dual(spec, tol)), args.out)
    return EXIT_OK


def cmd_reconstruct(args, tol) -> int:
    spec = _load_system(args.system)
    if args.samples is None and args.simulate is None:
        raise InputError("give a samples file or --simulate")
    if args.samples is not None and args.simulate is not None:
        raise InputError("give a samples file or --simulate, not both")

    weights = None
    if args.weights is not None:
        cert = ser.certificate_from_json(ser.read_json(args.weights))
        if isinstance(cert, InfeasibleWitness):
            raise InputError(f"{args.weights} holds an infeasibility witness, not weights")
        weights = cert

    if args.simulate is not None:
        f = _load_column(args.simulate)
        samples = take_samples(spec, f, tol)
        recovered = reconstruct(spec, samples, weights=weights, tol=tol)
        payload = {
            "recovered": ser.matrix_to_json(recovered.reshape(-1, 1)),
            "error": float(np.linalg.norm(recovered - f)),
        }
    else:
        samples = ser.samples_from_json(ser.read_json(args.samples))
        recovered = reconstruct(spec, samples, weights=weights, tol=tol)
        payload = {"recovered": ser.matrix_to_json(recovered.reshape(-1, 1))}
    _emit(payload, args.out)
    return EXIT_OK


def _preset_system(args) -> DynamicalSystemSpec:
    from . import constructions as cons  # loaded only when a preset is built

    if args.preset == "companion":
        coeffs = _csv_floats(args.coeffs, "--coeffs")
        n = len(coeffs)
        op = cons.companion(cons.CompanionSpec(tuple(coeffs)))
        e1 = np.zeros(n)
        e1[0] = 1.0
        iters = args.iters if args.iters is not None else n + 1
        return DynamicalSystemSpec.single(op, e1, iters)

    if args.preset == "block":
        omegas = _csv_floats(args.omegas, "--omegas")
        blocks = []
        for w in omegas:
            cw, sw = np.cos(w), np.sin(w)
            blocks.append(np.array([[cw, -sw], [sw, cw]]))
        spec = cons.BlockDiagSpec(tuple(blocks))
        big = cons.block_diag(spec)
        gens = tuple(cons.embed(spec, np.array([1.0, 0.0]), t)
                     for t in range(len(blocks)))
        return _orbit_system(big, gens, [2] * len(blocks))

    if args.preset == "rotation":
        return cons.rotation_system(args.omega, args.n, placement="shift")

    if args.preset == "schur":
        signs = None
        if args.signs is not None:
            signs = _csv_floats(args.signs, "--signs")
        return cons.rotation_system(args.omega, args.n, placement="schur", signs=signs)

    if args.preset == "harmonic":
        return cons.harmonic(args.n, args.k)

    if args.preset == "multigen":
        planes = []
        for text in args.plane:
            parts = str(text).split(",")
            if len(parts) != 5:
                raise InputError(f"--plane expects p,q,k,l,alpha, got {text!r}")
            try:
                idx = [int(x) for x in parts[:4]]
                alpha = float(parts[4])
            except ValueError:
                raise InputError(f"--plane expects four integers and an angle, got {text!r}") from None
            planes.append((*idx, alpha))
        return cons.multigen_rotation(planes, n=args.n)

    if args.preset == "r3":
        return cons.r3_structured(args.a, args.b, c=args.c, d=args.d, n=args.n)

    if args.preset == "twoparam":
        sign = 1 if args.sign == "+" else -1
        p = cons.tight_2x3(args.a, args.d, sign=sign)
        op = np.array([[p.a, p.c], [p.b, p.d]])
        return DynamicalSystemSpec.single(op, np.array([1.0, 0.0]), 2)

    raise InputError(f"unknown preset {args.preset!r}")


def cmd_construct(args, tol) -> int:
    spec = _preset_system(args)
    _emit(ser.system_to_json(spec), args.out)
    return EXIT_OK


def cmd_verify(args, tol) -> int:
    from .verify import SUITE_NAMES, run_suite  # loaded only when suites run

    names = args.suite if args.suite else list(SUITE_NAMES)
    for name in names:
        if name != "all" and name not in SUITE_NAMES:
            known = ", ".join(SUITE_NAMES)
            raise InputError(f"unknown suite {name!r}; known suites: {known}")
    if "all" in names:
        names = list(SUITE_NAMES)
    results = [run_suite(name, trials=args.trials, seed=args.seed, tol=tol)
               for name in names]

    if args.json:
        payload = [{"name": r.name, "passed": r.passed, "trials": r.trials,
                    "detail": r.detail} for r in results]
        _emit(payload, args.out)
    else:
        width = max(len(r.name) for r in results)
        lines = []
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            line = f"{status}  {r.name:<{width}}  trials={r.trials}"
            if not r.passed:
                line += f"  {r.detail}"
            lines.append(line)
        text = "\n".join(lines) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    return EXIT_OK if all(r.passed for r in results) else EXIT_FALSE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynframe",
        description="Iterated-system frames: analysis, scaling certificates, presets.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None,
                        help="numerical tolerance (default: DYNFRAME_TOL or 1e-9)")
    common.add_argument("--out", default=None, help="write JSON here instead of stdout")

    def command(subparsers, name, help_text):
        return subparsers.add_parser(name, parents=[common], help=help_text)

    sub = parser.add_subparsers(dest="command", required=True)

    p = command(sub, "gen", "iterate a system file into a frame file")
    p.add_argument("system", help="JsonSystem file")
    p.set_defaults(func=cmd_gen)

    p = command(sub, "analyze", "frame bounds, tightness, diagram verdict")
    p.add_argument("frame", help="JsonMatrix file, columns are the vectors")
    p.set_defaults(func=cmd_analyze)

    p = command(sub, "scale", "scaling certificate or infeasibility witness")
    p.add_argument("frame", help="JsonMatrix file, columns are the vectors")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 unless min_i |f_i|^2 x_i > tol: every unit column "
                        "keeps a positive weight")
    p.set_defaults(func=cmd_scale)

    p = command(sub, "dual", "canonical dual system (B_s, g_s)")
    p.add_argument("system", help="JsonSystem file")
    p.set_defaults(func=cmd_dual)

    p = command(sub, "reconstruct", "recover a vector from its samples")
    p.add_argument("system", help="JsonSystem file")
    p.add_argument("samples", nargs="?", default=None, help="samples JSON file")
    p.add_argument("--simulate", default=None, metavar="F",
                   help="single-column JsonMatrix; sample it, recover, report the error")
    p.add_argument("--weights", default=None, metavar="CERT",
                   help="scaling certificate file; use the weighted self-dual route")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("construct", help="emit a preset system file")
    p.set_defaults(func=cmd_construct)
    preset = p.add_subparsers(dest="preset", required=True)

    q = command(preset, "companion", "companion operator iterated on e1")
    q.add_argument("--coeffs", required=True, help="last column, comma-separated")
    q.add_argument("--iters", type=int, default=None,
                   help="iteration count L (default: n+1)")

    q = command(preset, "block", "block-diagonal rotations, one generator per block")
    q.add_argument("--omegas", required=True, help="angles, comma-separated radians")

    q = command(preset, "rotation", "shift with a rotation block, generator e1")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--omega", type=float, required=True, help="angle in radians")

    q = command(preset, "schur", "signs plus a rotation block, basis generators")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--omega", type=float, required=True, help="angle in radians")
    q.add_argument("--signs", default=None, help="n-2 entries of +-1, comma-separated")

    q = command(preset, "harmonic", "roots-of-unity diagonal, constant generator")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--k", type=int, required=True, help="number of vectors (k >= n)")

    q = command(preset, "multigen", "plane rotations sharing the generator e1")
    q.add_argument("--plane", action="append", required=True, metavar="P,Q,K,L,ALPHA",
                   help="plane indices and angle; repeatable")
    q.add_argument("--n", type=int, default=None, help="ambient dimension (default: inferred)")

    q = command(preset, "r3", "structured strictly scalable families")
    q.add_argument("--a", type=float, required=True)
    q.add_argument("--b", type=float, required=True)
    q.add_argument("--c", type=float, default=None)
    q.add_argument("--d", type=float, default=None)
    q.add_argument("--n", type=int, default=3, help="dimension for the two-parameter family")

    q = command(preset, "twoparam", "trace-parameterized tight three-vector system")
    q.add_argument("--a", type=float, required=True)
    q.add_argument("--d", type=float, required=True)
    q.add_argument("--sign", choices=["+", "-"], default="+",
                   help="branch of the closed forms")

    p = command(sub, "verify", "run property suites")
    p.add_argument("--suite", action="append", default=None,
                   help="suite name (repeatable; default: all)")
    p.add_argument("--trials", type=int, default=None, help="trials per suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true", help="JSON results instead of a table")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK

    try:
        tol = _resolve_tol(args)
        return args.func(args, tol)
    except (NotAFrame, CriterionFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FALSE
    except (NumericalFailure, NotHermitian) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DynframeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
