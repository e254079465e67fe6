"""JSON formats and a byte-deterministic writer.

Matrices carry explicit shape and field tags; complex entries are
always [re, im] pairs, never strings.  The writer sorts keys and prints
floats with 17 significant digits so identical values serialize to
identical bytes.
"""

import json
import math
import sys

import numpy as np

from .dynamics import DynamicalSystemSpec, SampleSet
from .errors import DynframeError, InputError
from .frames import Frame
from .numkernel import InfeasibleWitness
from .scalability import ScalingCertificate


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys, %.17g floats, no trailing spaces."""
    out = []
    _write(obj, out)
    return "".join(out)


def _write(obj, out):
    if obj is None or isinstance(obj, bool):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        f = float(obj)
        if not math.isfinite(f):
            raise ValueError("cannot serialize non-finite float")
        if f == 0.0:
            f = 0.0
        out.append("%.17g" % f)
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _write(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, item in enumerate(list(obj)):
            if i:
                out.append(",")
            _write(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(dumps(obj))
        fh.write("\n")


def read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _entry_to_json(x, field):
    if field == "complex":
        z = complex(x)
        return [z.real, z.imag]
    return float(np.real(x))


def _entry_from_json(x, field, where):
    if isinstance(x, bool):
        raise InputError(f"{where}: boolean is not a number")
    try:
        if isinstance(x, (int, float)):
            value = complex(x) if field == "complex" else float(x)
        elif isinstance(x, list) and len(x) == 2 and all(
                isinstance(t, (int, float)) and not isinstance(t, bool) for t in x):
            if field == "real":
                raise InputError(f"{where}: [re, im] pair in a real-field object")
            value = complex(x[0], x[1])
        else:
            raise InputError(f"{where}: entry {x!r} is not a number or [re, im] pair")
    except OverflowError:
        # JSON integers are unbounded; float() refuses one past the float range
        raise InputError(f"{where}: number beyond the float range") from None
    # json reads NaN, Infinity and a float literal such as 1e400 as non-finite
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise InputError(f"{where}: {x!r} is not finite")
    return value


def matrix_to_json(m) -> dict:
    m = np.asarray(m)
    field = "complex" if np.iscomplexobj(m) else "real"
    rows, cols = m.shape
    data = [[_entry_to_json(m[i, j], field) for j in range(cols)]
            for i in range(rows)]
    return {"rows": rows, "cols": cols, "field": field, "data": data}


def matrix_from_json(d) -> np.ndarray:
    if not isinstance(d, dict):
        raise InputError("matrix object must be a JSON object")
    for key in ("rows", "cols", "field", "data"):
        if key not in d:
            raise InputError(f"matrix object missing key {key!r}")
    field = d["field"]
    if field not in ("real", "complex"):
        raise InputError(f"unknown field tag {field!r}")
    rows, cols = d["rows"], d["cols"]
    if not all(isinstance(x, int) and not isinstance(x, bool) and x > 0 for x in (rows, cols)):
        raise InputError("rows and cols must be positive integers")
    data = d["data"]
    if not isinstance(data, list) or len(data) != rows:
        raise InputError(f"data must hold {rows} rows")
    out = np.zeros((rows, cols), dtype=complex if field == "complex" else float)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise InputError(f"row {i} must hold {cols} entries")
        for j, x in enumerate(row):
            out[i, j] = _entry_from_json(x, field, f"entry ({i},{j})")
    return out


def vector_to_json(v) -> list:
    v = np.asarray(v)
    field = "complex" if np.iscomplexobj(v) else "real"
    return [_entry_to_json(x, field) for x in v]


def vector_from_json(lst, field, where="vector") -> np.ndarray:
    if not isinstance(lst, list) or not lst:
        raise InputError(f"{where}: expected a nonempty array")
    vals = [_entry_from_json(x, field, where) for x in lst]
    return np.array(vals, dtype=complex if field == "complex" else float)


def frame_to_json(frame: Frame) -> dict:
    return matrix_to_json(frame.matrix)


def frame_from_json(d) -> Frame:
    try:
        return Frame(matrix_from_json(d))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def system_to_json(spec: DynamicalSystemSpec) -> dict:
    field = "complex" if any(np.iscomplexobj(a) for a in spec.operators) or any(
        np.iscomplexobj(g) for g in spec.generators) else "real"
    return {
        "dim": spec.dim,
        "field": field,
        "operators": [matrix_to_json(a.astype(complex) if field == "complex" else a)
                      for a in spec.operators],
        "generators": [vector_to_json(g.astype(complex) if field == "complex" else g)
                       for g in spec.generators],
        "triples": [list(t) for t in spec.triples],
    }


def system_from_json(d) -> DynamicalSystemSpec:
    if not isinstance(d, dict):
        raise InputError("system object must be a JSON object")
    for key in ("dim", "operators", "generators", "triples"):
        if key not in d:
            raise InputError(f"system object missing key {key!r}")
    dim = d["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise InputError("dim must be a positive integer")
    field = d.get("field", "real")
    if field not in ("real", "complex"):
        raise InputError(f"unknown field tag {field!r}")
    if not isinstance(d["operators"], list) or not d["operators"]:
        raise InputError("operators must be a nonempty array")
    ops = [matrix_from_json(m) for m in d["operators"]]
    if not isinstance(d["generators"], list) or not d["generators"]:
        raise InputError("generators must be a nonempty array")
    gens = [vector_from_json(g, field, f"generator {i}")
            for i, g in enumerate(d["generators"])]
    trips = d["triples"]
    if not isinstance(trips, list) or not trips:
        raise InputError("triples must be a nonempty array")
    for i, t in enumerate(trips):
        if (not isinstance(t, list) or len(t) != 3
                or not all(isinstance(x, int) and not isinstance(x, bool) for x in t)):
            raise InputError(f"triple {i} must be [opIdx, genIdx, L] integers")
    try:
        spec = DynamicalSystemSpec(operators=tuple(ops), generators=tuple(gens),
                                   triples=tuple(trips))
    except (DynframeError, ValueError) as exc:
        raise InputError(str(exc)) from exc
    if spec.dim != dim:
        raise InputError(f"system has dimension {spec.dim}, but dim is {dim}")
    return spec


def certificate_to_json(res) -> dict:
    if isinstance(res, ScalingCertificate):
        return {
            "weights": [float(w) for w in res.weights],
            "residual": float(res.residual),
            "strict": bool(res.strict),
            "margin": float(res.margin),
        }
    if isinstance(res, InfeasibleWitness):
        return {
            "witness": [float(y) for y in res.y],
            "witness_check": float(res.gap),
        }
    raise TypeError(f"cannot serialize {type(res).__name__} as a certificate")


def _number(d, key) -> float:
    x = d.get(key)
    # NaN, the infinities and a JSON integer past the float range all fail the bound
    if isinstance(x, bool) or not isinstance(x, (int, float)) or not abs(x) <= sys.float_info.max:
        raise InputError(f"{key} must be a finite number")
    return float(x)


def certificate_from_json(d):
    if not isinstance(d, dict):
        raise InputError("certificate object must be a JSON object")
    if "witness" in d:
        y = vector_from_json(d["witness"], "real", "witness")
        return InfeasibleWitness(y=y, gap=_number(d, "witness_check"))
    # files written before tight_constant was dropped still carry it; it is ignored
    for key in ("weights", "residual", "strict", "margin"):
        if key not in d:
            raise InputError(f"certificate missing key {key!r}")
    w = vector_from_json(d["weights"], "real", "weights")
    if not (w >= 0).all():
        raise InputError("certificate weights must be nonnegative")
    if not isinstance(d["strict"], bool):
        raise InputError("strict must be a boolean")
    return ScalingCertificate(weights=w, squares=w ** 2, residual=_number(d, "residual"),
                              strict=d["strict"], margin=_number(d, "margin"))


def samples_to_json(samples: SampleSet) -> dict:
    complex_vals = any(isinstance(v, complex) or np.iscomplexobj(v)
                       for v in samples.values)
    field = "complex" if complex_vals else "real"
    return {
        "field": field,
        "indices": [list(ix) for ix in samples.indices],
        "values": [_entry_to_json(v, field) for v in samples.values],
    }


def samples_from_json(d) -> SampleSet:
    if not isinstance(d, dict):
        raise InputError("samples object must be a JSON object")
    for key in ("indices", "values"):
        if key not in d:
            raise InputError(f"samples object missing key {key!r}")
    field = d.get("field", "real")
    if field not in ("real", "complex"):
        raise InputError(f"unknown field tag {field!r}")
    idx = d["indices"]
    vals = d["values"]
    if not isinstance(idx, list) or not isinstance(vals, list) or len(idx) != len(vals):
        raise InputError("indices and values must be arrays of equal length")
    indices = []
    for i, pair in enumerate(idx):
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(isinstance(x, int) and not isinstance(x, bool) for x in pair)):
            raise InputError(f"index {i} must be [tripleIdx, power]")
        indices.append((pair[0], pair[1]))
    values = [_entry_from_json(v, field, f"sample {i}") for i, v in enumerate(vals)]
    return SampleSet(indices=tuple(indices), values=tuple(values))
