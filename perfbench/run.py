"""dynframe benchmark: four closed-loop workloads with checked answers.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 15 --trace 0

Workloads: certify, refute, dual-sampling, cli-pipeline (see README.md).
One client keeps one operation in flight.  A run sets up, makes one
untimed pass (in-process workloads), then makes whole timed passes over
the workload's operations until --seconds have been measured (cli-pipeline
makes at least two, so every call is seen twice).  Every answer is
checked after its pass.  The last line of stdout is a JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics of a run with spans at dynframe's
module boundaries with --trace 1.
"""

import os
import sys
import time

_T_START = time.perf_counter()

from benchenv import OUT_DIR, ROOT, SRC  # noqa: E402  (pins the BLAS pools before numpy loads)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

WORKLOADS = ("certify", "refute", "dual-sampling", "cli-pipeline")
SETUP_SAMPLES = 7
IMPORT_REPEATS = 3
SHOWN_FAILURES = 10


def build(workload, seed, in_process_cli=False):
    """Import dynframe and build the workload's inputs: the set-up being timed."""
    import dynframe as df
    import inputs
    import workloads
    if workload == "certify":
        return workloads.ScalingWorkload(df, inputs.certify_inputs(seed))
    if workload == "refute":
        return workloads.ScalingWorkload(df, inputs.refute_inputs(seed))
    if workload == "dual-sampling":
        return workloads.DualWorkload(df, inputs.dual_inputs(seed))
    cli = None
    if in_process_cli:
        import dynframe.cli as cli
    workdir = os.path.join(OUT_DIR, f"cli-{os.getpid()}")
    return workloads.CliWorkload(seed, workdir, in_process=cli)


def child_json(argv):
    """Run a helper interpreter and return the JSON object it prints last."""
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, check=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_sampler(args, wl):
    """One more set-up: a fresh --setup-probe interpreter, or for cli-pipeline the set-up call."""
    if args.workload == "cli-pipeline":
        def sample():
            t0 = time.perf_counter()
            wl.untimed_call(wl.workdir)
            return time.perf_counter() - t0
        return sample
    probe = [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)]
    return lambda: child_json(probe)["setup_s"]


def import_probe():
    """`from dynframe.cli import main` in a fresh interpreter, as the console script does."""
    code = ("import json, sys, time; n = len(sys.modules); t = time.perf_counter(); "
            "from dynframe.cli import main; "
            "print(json.dumps({'ms': 1e3 * (time.perf_counter() - t), "
            "'modules': len(sys.modules) - n}))")
    runs = [child_json([sys.executable, "-c", code]) for _ in range(IMPORT_REPEATS)]
    modules = {r["modules"] for r in runs}
    return statistics.median(r["ms"] for r in runs), max(modules)


def cpu_now():
    """CPU seconds of this process and of its children that have ended."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def run_passes(args, wl, tracer, setups, sample_setup):
    """Whole passes until --seconds are measured; checks run between passes.

    When `sample_setup` is given, the set-ups still to be made are spread
    over the run, one after a pass whenever the measured share of
    --seconds calls for it, so their median sees the host as the passes do.
    """
    n_ops = len(wl.names)
    op_times, pass_times, failures = [], [], []
    cpu_wall = [0.0, 0.0]
    from workloads import Raised

    def one_pass(index):
        outputs, times = [], []
        c_pass, t_pass = cpu_now(), time.perf_counter()
        for i in range(n_ops):
            if tracer is not None:
                tracer.op = (index, i)
            t0 = time.perf_counter()
            try:
                out = wl.run(i)
            except Exception as exc:  # a failed operation is counted, the run goes on
                out = Raised(exc)
            times.append(time.perf_counter() - t0)
            outputs.append(out)
        elapsed = time.perf_counter() - t_pass
        if index >= 0:
            cpu_wall[0] += cpu_now() - c_pass
            cpu_wall[1] += elapsed
        return outputs, times, elapsed

    def setups_due(share):
        while sample_setup is not None and len(setups) < 1 + (SETUP_SAMPLES - 1) * share:
            setups.append(sample_setup())

    min_passes = 2 if args.workload == "cli-pipeline" else 1
    if args.workload != "cli-pipeline":
        outputs, _, _ = one_pass(-1)        # untimed warm-up pass, checked too
        failures.append(wl.check_pass(outputs))
        verdicts_warm = list(getattr(wl, "verdicts", [0, 0]))
    else:
        verdicts_warm = [0, 0]
    timed = []
    while len(pass_times) < min_passes or sum(pass_times) < args.seconds:
        outputs, times, elapsed = one_pass(len(pass_times))
        op_times += times
        pass_times.append(elapsed)
        timed.append(wl.check_pass(outputs))
        setups_due(min(1.0, sum(pass_times) / args.seconds))
    setups_due(1.0)
    verdicts = [v - w for v, w in zip(getattr(wl, "verdicts", [0, 0]), verdicts_warm)]
    return {"op_times": op_times, "pass_times": pass_times, "warm": failures,
            "timed": timed, "cpu_s": cpu_wall[0], "wall_s": cpu_wall[1],
            "verdicts": verdicts}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(SRC, "dynframe", "__init__.py")):
        print(f"error: no dynframe sources under {SRC}", file=sys.stderr)
        return 2

    wl = build(args.workload, args.seed, in_process_cli=bool(args.trace))
    if args.setup_probe:
        print(json.dumps({"setup_s": time.perf_counter() - _T_START}))
        return 0

    os.makedirs(OUT_DIR, exist_ok=True)
    tracer = None
    try:
        if args.workload == "cli-pipeline":
            t0 = time.perf_counter()
            code, _ = wl.untimed_call(wl.workdir)
            if code != 0:
                print(f"error: set-up call exited with {code}", file=sys.stderr)
                return 3
            first = time.perf_counter() - t0
        else:
            first = time.perf_counter() - _T_START
        if args.trace:
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
        setups = [first]
        res = run_passes(args, wl, tracer, setups,
                         None if args.trace else setup_sampler(args, wl))
        if tracer is not None:
            tracer.uninstall()
    finally:
        if args.workload == "cli-pipeline":
            wl.close()

    n_ops = len(wl.names)
    attempted = n_ops * len(res["pass_times"])
    failed = correct_failed = 0
    reasons = {}
    for outcome in res["warm"] + res["timed"]:
        for i, reason in enumerate(outcome):
            if reason is not None:
                reasons.setdefault(wl.names[i], reason)
                if not wl.known[i]:
                    correct_failed += 1
    for outcome in res["timed"]:
        failed += sum(r is not None for r in outcome)
    correct = correct_failed == 0

    op_ms = [1e3 * t for t in res["op_times"]]
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-pipeline" else resource.RUSAGE_SELF
    rss_kb = resource.getrusage(who).ru_maxrss
    cpu = res["cpu_s"]
    p50, p90 = statistics.median(op_ms), statistics.quantiles(op_ms, n=10)[8]
    pass_s = statistics.median(res["pass_times"])
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(res['pass_times'])} ops/pass={n_ops} samples={len(op_ms)}")
    print(f"op_p50_ms={p50:.3f} op_p90_ms={p90:.3f} (n={len(op_ms)}) pass_s={pass_s:.4f} "
          f"passes_s={[round(t, 4) for t in res['pass_times']]}")
    print(f"cpu_s={cpu:.3f} wall_s={res['wall_s']:.3f} cpu/wall={cpu / res['wall_s']:.3f} "
          f"(timed passes)")
    print(f"setup_s samples={[round(t, 4) for t in setups]}")
    print(f"failed={failed}/{attempted} correct={correct}")
    for name, reason in list(reasons.items())[:SHOWN_FAILURES]:
        print(f"  failed {name}: {reason}", file=sys.stderr)

    if args.trace:
        import_ms, modules = import_probe()
        per_pass = tracer.per_pass(len(res["pass_times"]))
        metrics = {}
        for name, values in per_pass.items():
            unit = "ms" if name.endswith("_ms") else ("bytes" if ".bytes_" in name else "count")
            value = statistics.median(values) if unit == "ms" else values[0]
            if unit != "ms" and len(set(values)) > 1:
                print(f"warning: {name} differs between passes: {values}", file=sys.stderr)
            metrics[name] = {"value": value, "unit": unit}
        passes = len(res["pass_times"])
        metrics["scalability.right_verdicts"] = {
            "value": res["verdicts"][0] / passes, "unit": "count"}
        metrics["scalability.verdicts_attempted"] = {
            "value": res["verdicts"][1] / passes, "unit": "count"}
        metrics["cli.import_ms"] = {"value": import_ms, "unit": "ms"}
        metrics["cli.modules_loaded"] = {"value": modules, "unit": "count"}
        trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.dump(trace_path)
        print(f"spans={len(tracer.spans)} written to {os.path.relpath(trace_path, ROOT)}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_p50_ms": {"value": p50, "unit": "ms"},
            "pass_s": {"value": pass_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
        }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "op_ms": op_ms, "pass_s": res["pass_times"],
              "setup_s": setups, "cpu_s": cpu, "wall_s": res["wall_s"],
              "failures": reasons, "metrics": metrics}
    with open(os.path.join(OUT_DIR, f"run-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
