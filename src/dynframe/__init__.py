"""Frames generated by iterating operators: analysis, duals, scaling.

The package splits into a small numerical kernel (eigen/SVD/feasibility
with explicit tolerances), frame analysis, iterated-system dynamics and
sampling, scalability certification with an independent diagram-vector
oracle, structured constructions, and a JSON command-line surface.
"""

import importlib

from .errors import (AllZeroCoefficients, CriterionFailed, DegenerateTrace,
                     DimensionMismatch, DynframeError, IndexMismatch,
                     IndexOutOfRange, InputError, KTooSmall, NotAFrame,
                     NotHermitian, NotNormal, NumericalFailure, ShapeMismatch,
                     SingularTransport, TemplateMismatch, ZeroVector)
from .numkernel import DEFAULT_TOL, InfeasibleWitness, unitary_diagonalize
from .frames import (Frame, FrameReport, FusionDecomposition, analyze,
                     canonical_dual, frame_operator, fusion_check,
                     verify_duality)
from .dynamics import (DynamicalSystemSpec, SampleSet, TransportResult,
                       diagonal_reduce, dynamical_dual, iterate, reconstruct,
                       take_samples, transport)
from .scalability import (ScalingCertificate, build_diagonal_system,
                          diagram_vector, gramian_scaling_check,
                          normal_scalability, real_one_vector_obstruction,
                          solve_scaling, support_pattern_check,
                          tight_via_diagram)

# The presets and the verifier load on first use of one of their names
# (PEP 562), so that `import dynframe` and the CLI, which needs them only
# for `construct` and `verify`, do not pay for them.
_DEFERRED = {
    **dict.fromkeys(("BlockDiagSpec", "CompanionSpec", "TwoParamBlock", "block_diag",
                     "check_2scale", "check_2x4", "companion", "embed", "harmonic",
                     "multigen_rotation", "r3_structured", "rotation_system",
                     "tight_2x3"), "constructions"),
    **dict.fromkeys(("SUITE_NAMES", "SuiteResult", "run_suite"), "verify"),
}


def __getattr__(name):
    module = _DEFERRED.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "AllZeroCoefficients", "CriterionFailed", "DegenerateTrace",
    "DimensionMismatch", "DynframeError", "IndexMismatch", "IndexOutOfRange",
    "InputError", "KTooSmall", "NotAFrame", "NotHermitian", "NotNormal",
    "NumericalFailure", "ShapeMismatch", "SingularTransport",
    "TemplateMismatch", "ZeroVector",
    "DEFAULT_TOL", "InfeasibleWitness", "unitary_diagonalize",
    "Frame", "FrameReport", "FusionDecomposition", "analyze",
    "canonical_dual", "frame_operator", "fusion_check", "verify_duality",
    "DynamicalSystemSpec", "SampleSet", "TransportResult",
    "diagonal_reduce", "dynamical_dual", "iterate", "reconstruct",
    "take_samples", "transport",
    "ScalingCertificate",
    "build_diagonal_system", "diagram_vector", "gramian_scaling_check",
    "normal_scalability", "real_one_vector_obstruction",
    "solve_scaling", "support_pattern_check", "tight_via_diagram",
    "BlockDiagSpec", "CompanionSpec", "TwoParamBlock", "block_diag",
    "check_2scale", "check_2x4", "companion", "embed", "harmonic",
    "multigen_rotation", "r3_structured", "rotation_system", "tight_2x3",
    "SUITE_NAMES", "SuiteResult", "run_suite",
    "__version__",
]

__version__ = "0.1.0"
