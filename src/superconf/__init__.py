"""Superconformal surfaces in R4 from conjugate minimal pairs.

The pipeline: a holomorphic curve expression is evaluated to exact third-order
jets, split into a conjugate minimal pair (g, h) by the Cauchy-Riemann
relations, and assembled into the two superconformal surfaces g + J(+-)h with
full second-order jet data.  Geometry routines then measure fundamental forms,
the ellipse of curvature, and the circularity residuals that certify
superconformality; transform routines cover ambient inversions, the induced
map on holomorphic representatives, duality of complex curves, stereographic
projections to the round and hyperbolic space forms, and the null-quadric
criteria that characterize the degenerate cases.
"""

from .errors import (
    BranchCutError,
    DegenerateJetError,
    DomainError,
    DualitySingularError,
    EvaluationError,
    ExpressionError,
    FrameDegenerateError,
    FrameUndefinedError,
    InversionSingularError,
    NotNullCurveError,
    PreconditionError,
    ProjectionError,
    SingularSampleError,
    SuperconfError,
    UnknownEntryError,
)
from .jets import (
    ComplexJet,
    Jet2,
    fd_crosscheck,
    seed_first_derivative_fields,
    split,
)
from .minimal import (
    Domain,
    HolomorphicCurve,
    MinimalPair,
    associated_family,
    certify,
)
from .geometry import (
    Ambient,
    adapted_frame,
    ellipse_descriptor,
    fundamental_data,
)
from .construct import (
    PhiSample,
    build_phi_pair,
    dual_pair_report,
    extract_minimal_pair,
    phi_value,
    reflection_pair_check,
    translation_check,
)
from .moebius import (
    Inversion,
    degenerate_collapse_check,
    duality,
    invert,
    normal_transform_check,
    pair_transform_check,
    quadric_classification,
    recover_complex_structure,
    superminimal_test,
    transformed_curve,
)

__version__ = "0.1.0"

__all__ = [
    "Ambient",
    "BranchCutError",
    "ComplexJet",
    "DegenerateJetError",
    "Domain",
    "DomainError",
    "DualitySingularError",
    "EvaluationError",
    "ExpressionError",
    "FrameDegenerateError",
    "FrameUndefinedError",
    "HolomorphicCurve",
    "Inversion",
    "InversionSingularError",
    "Jet2",
    "MinimalPair",
    "NotNullCurveError",
    "PhiSample",
    "PreconditionError",
    "ProjectionError",
    "SingularSampleError",
    "SuperconfError",
    "UnknownEntryError",
    "adapted_frame",
    "associated_family",
    "build_phi_pair",
    "certify",
    "degenerate_collapse_check",
    "dual_pair_report",
    "duality",
    "ellipse_descriptor",
    "extract_minimal_pair",
    "fd_crosscheck",
    "fundamental_data",
    "invert",
    "normal_transform_check",
    "pair_transform_check",
    "phi_value",
    "quadric_classification",
    "recover_complex_structure",
    "reflection_pair_check",
    "seed_first_derivative_fields",
    "split",
    "superminimal_test",
    "transformed_curve",
    "translation_check",
]
