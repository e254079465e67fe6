"""Spans at dynframe's module boundaries, recorded from outside the program.

`Tracer.install` wraps each target function and rebinds the wrapper
under every name a dynframe module looks it up by (for example `linprog`
in `numkernel`, `nonneg_feasible` in `scalability`, `iterate` and
`analyze` in `dynamics`).  A span is [name, start, end, parent, op,
extra]; spans stay in memory until `dump` writes them out.  Timed runs
never construct a Tracer, so they run the program unwrapped.

Run as a script, it measures what the wrappers cost on one workload:

    python3 perfbench/spans.py --workload certify --pairs 6

It makes one untimed pass over the inputs of seed 1, then pairs of
passes in one process, one pass without the wrappers and one with them,
the order swapped every pair so that slow drift of the host cancels, and
prints both medians.
"""

import functools
import json
import os
import statistics
import sys
import time

import benchenv  # noqa: F401  (pins the BLAS pools before numpy loads)
import numpy as np


def _linprog_extra(args, kwargs, res):
    rows = 0
    for key in ("A_eq", "A_ub"):
        if kwargs.get(key) is not None:
            rows += int(np.shape(kwargs[key])[0])
    return {"nit": int(res.nit), "rows": rows}


def _read_extra(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0])}


def _dumps_extra(args, kwargs, out):
    return {"bytes": len(out.encode())}


# (module, attribute, span name, extra-data hook)
TARGETS = [
    ("dynframe.numkernel", "linprog", "numkernel.linprog", _linprog_extra),
    ("dynframe.numkernel", "nonneg_feasible", "numkernel.nonneg_feasible", None),
    ("dynframe.numkernel", "hermitian_eig", "numkernel.hermitian_eig", None),
    ("dynframe.numkernel", "unitary_diagonalize", "numkernel.unitary_diagonalize", None),
    ("dynframe.scalability", "solve_scaling", "scalability.solve_scaling", None),
    ("dynframe.scalability", "gramian_scaling_check", "scalability.gramian_scaling_check", None),
    ("dynframe.scalability", "tight_via_diagram", "scalability.tight_via_diagram", None),
    ("dynframe.scalability", "diagram_vector", "scalability.diagram_vector", None),
    ("dynframe.scalability", "normal_scalability", "scalability.normal_scalability", None),
    ("dynframe.scalability", "build_diagonal_system", "scalability.build_diagonal_system", None),
    ("dynframe.frames", "analyze", "frames.analyze", None),
    ("dynframe.dynamics", "iterate", "dynamics.iterate", None),
    ("dynframe.dynamics", "dynamical_dual", "dynamics.dynamical_dual", None),
    ("dynframe.dynamics", "take_samples", "dynamics.take_samples", None),
    ("dynframe.dynamics", "reconstruct", "dynamics.reconstruct", None),
    ("dynframe.serialize", "read_json", "serialize.in.read_json", _read_extra),
    ("dynframe.serialize", "matrix_from_json", "serialize.in.matrix_from_json", None),
    ("dynframe.serialize", "frame_from_json", "serialize.in.frame_from_json", None),
    ("dynframe.serialize", "system_from_json", "serialize.in.system_from_json", None),
    ("dynframe.serialize", "certificate_from_json", "serialize.in.certificate_from_json", None),
    ("dynframe.serialize", "dumps", "serialize.out.dumps", _dumps_extra),
    ("dynframe.serialize", "write_json", "serialize.out.write_json", None),
    ("dynframe.serialize", "matrix_to_json", "serialize.out.matrix_to_json", None),
    ("dynframe.serialize", "frame_to_json", "serialize.out.frame_to_json", None),
    ("dynframe.serialize", "system_to_json", "serialize.out.system_to_json", None),
    ("dynframe.serialize", "certificate_to_json", "serialize.out.certificate_to_json", None),
    ("dynframe.cli", "main", "cli.main", None),
]

# Per-layer metrics computed from one pass's spans: name -> (kind, span name or prefix).
SPAN_METRICS = {
    "numkernel.linprog.calls": ("calls", "numkernel.linprog"),
    "numkernel.linprog.nit": ("nit", "numkernel.linprog"),
    "numkernel.linprog.rows": ("rows", "numkernel.linprog"),
    "numkernel.linprog.self_ms": ("self_ms", "numkernel.linprog"),
    "numkernel.nonneg_feasible.self_ms": ("self_ms", "numkernel.nonneg_feasible"),
    "numkernel.hermitian_eig.self_ms": ("self_ms", "numkernel.hermitian_eig"),
    "numkernel.unitary_diagonalize.self_ms": ("self_ms", "numkernel.unitary_diagonalize"),
    "scalability.normal_scalability.self_ms": ("self_ms", "scalability.normal_scalability"),
    "scalability.build_diagonal_system.self_ms": ("self_ms", "scalability.build_diagonal_system"),
    "scalability.solve_scaling.self_ms": ("self_ms", "scalability.solve_scaling"),
    "scalability.gramian_scaling_check.self_ms": ("self_ms", "scalability.gramian_scaling_check"),
    "scalability.tight_via_diagram.self_ms": ("self_ms", "scalability.tight_via_diagram"),
    "scalability.diagram_vector.calls": ("calls", "scalability.diagram_vector"),
    "scalability.diagram_vector.self_ms": ("self_ms", "scalability.diagram_vector"),
    "frames.analyze.calls": ("calls", "frames.analyze"),
    "frames.analyze.self_ms": ("self_ms", "frames.analyze"),
    "dynamics.iterate.calls": ("calls", "dynamics.iterate"),
    "dynamics.iterate.self_ms": ("self_ms", "dynamics.iterate"),
    "dynamics.dynamical_dual.self_ms": ("self_ms", "dynamics.dynamical_dual"),
    "dynamics.take_samples.self_ms": ("self_ms", "dynamics.take_samples"),
    "dynamics.reconstruct.self_ms": ("self_ms", "dynamics.reconstruct"),
    "serialize.read_ms": ("self_ms", "serialize.in."),
    "serialize.write_ms": ("self_ms", "serialize.out."),
    "serialize.bytes_read": ("bytes", "serialize.in.read_json"),
    "serialize.bytes_written": ("bytes", "serialize.out.dumps"),
    "cli.main.self_ms": ("self_ms", "cli.main"),
}


class Tracer:
    """Wraps dynframe's public functions and records one span per call."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None          # (pass index, operation index), set by run.py
        self._rebound = []

    def _wrap(self, name, fn, extra):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, out)
            return out
        return wrapper

    def install(self):
        """Rebind every target in every loaded dynframe module that holds it."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "dynframe" or key.startswith("dynframe."))]
        for modname, attr, name, extra in TARGETS:
            if modname not in sys.modules:
                continue
            orig = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, orig, extra)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._rebound.append((mod, key, orig))

    def uninstall(self):
        for mod, key, orig in reversed(self._rebound):
            setattr(mod, key, orig)
        self._rebound.clear()

    def self_times(self):
        """Self time of each span: its duration minus that of its direct children."""
        dur = np.array([s[2] - s[1] for s in self.spans])
        covered = np.zeros(len(self.spans))
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                covered[s[3]] += dur[i]
        return dur - covered

    def per_pass(self, n_passes):
        """Each SPAN_METRICS value for every timed pass (op[0] >= 0)."""
        self_t = self.self_times()
        out = {name: [0] * n_passes for name in SPAN_METRICS}
        by_span = {}
        for i, s in enumerate(self.spans):
            if s[4] is None or s[4][0] < 0:
                continue
            p = s[4][0]
            if s[0] not in by_span:
                by_span[s[0]] = [(metric, kind) for metric, (kind, key) in SPAN_METRICS.items()
                                 if s[0] == key or (key.endswith(".") and s[0].startswith(key))]
            for metric, kind in by_span[s[0]]:
                if kind == "calls":
                    out[metric][p] += 1
                elif kind == "self_ms":
                    out[metric][p] += 1e3 * self_t[i]
                else:
                    out[metric][p] += s[5][kind]
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "extra"],
                       "spans": self.spans}, fh)


def alternate(wl, pairs):
    """Untraced and traced pass times over `pairs` alternating pairs."""
    def one_pass():
        t0 = time.perf_counter()
        for i in range(len(wl.names)):
            try:
                wl.run(i)
            except Exception:  # the known faults fail here too; only the time counts
                pass
        return time.perf_counter() - t0

    one_pass()
    plain, traced = [], []
    for p in range(pairs):
        for with_spans in ((False, True) if p % 2 == 0 else (True, False)):
            if not with_spans:
                plain.append(one_pass())
                continue
            tracer = Tracer()
            tracer.install()
            try:
                traced.append(one_pass())
            finally:
                tracer.uninstall()
    return plain, traced


def main(argv=None):
    import argparse

    import run
    parser = argparse.ArgumentParser(description="tracing overhead, alternating passes")
    parser.add_argument("--workload", required=True, choices=run.WORKLOADS)
    parser.add_argument("--pairs", type=int, default=6)
    args = parser.parse_args(argv)
    wl = run.build(args.workload, 1, in_process_cli=True)
    try:
        if args.workload == "cli-pipeline":
            wl.write_inputs(wl.workdir)
        plain, traced = alternate(wl, args.pairs)
    finally:
        if args.workload == "cli-pipeline":
            wl.close()
    a, b = statistics.median(plain), statistics.median(traced)
    slower = sum(t > u for t, u in zip(traced, plain))
    print(f"{args.workload}: untraced {a:.4f} s, traced {b:.4f} s, overhead {b - a:+.4f} s "
          f"({100 * (b / a - 1):+.1f} %), traced slower in {slower} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
