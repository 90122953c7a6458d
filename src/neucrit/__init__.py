"""Spectral-Galerkin critical point finder for semilinear Neumann problems.

Builds the cosine Neumann eigenbasis on intervals and rectangles, assembles
piecewise-cubic asymptotically linear nonlinearities, and hunts critical
points of the associated energy through truncated mountain passes, a
strongly convex finite-dimensional reduction, and degree bookkeeping that
certifies when solutions are still missing.
"""

from ._version import __version__
from .energy import EnergyFunctional
from .errors import (
    AnchorNotZero,
    AnchorSlopeNonNegative,
    AsymmetricSlopes,
    ConfigError,
    DuplicateKnots,
    MaxItersExceeded,
    ModulusViolated,
    NeucritError,
    NonC1Blend,
    PathCollapse,
    RangeEscape,
    ReductionInapplicable,
    ResonantSlope,
    UnclassifiedDegenerate,
)
from .ledger import (
    DegreeLedger,
    local_degree,
    qualitative_classify,
    transfer_to_original,
)
from .nonlinearity import (
    HypothesisReport,
    Nonlinearity,
    ZeroReport,
    build_nonlinearity,
    check_hypotheses,
    find_zeros,
    homotopy,
    truncate,
)
from .pipeline import RunReport, reference_config, run_pipeline, validate_config
from .plots import render_profiles
from .records import (
    CriticalPointRecord,
    SolverConfig,
    image_record,
    make_record,
    newton_radius,
    principal_simple_signdef,
)
from .reduction import (
    ReductionContext,
    make_reduction_context,
    maximize_reduced,
    psi,
)
from .solvers import (
    HomotopyBoundResult,
    dedup_records,
    find_constants,
    homotopy_bound,
    mountain_pass,
    multistart,
    refine_critical,
)
from .spectrum import Domain, EigenPair, SpectrumSlice, build_spectrum, split_spectrum

__all__ = [
    "__version__",
    "Domain",
    "EigenPair",
    "SpectrumSlice",
    "build_spectrum",
    "split_spectrum",
    "Nonlinearity",
    "build_nonlinearity",
    "truncate",
    "homotopy",
    "find_zeros",
    "check_hypotheses",
    "HypothesisReport",
    "ZeroReport",
    "EnergyFunctional",
    "SolverConfig",
    "CriticalPointRecord",
    "make_record",
    "image_record",
    "newton_radius",
    "principal_simple_signdef",
    "find_constants",
    "mountain_pass",
    "homotopy_bound",
    "HomotopyBoundResult",
    "multistart",
    "refine_critical",
    "dedup_records",
    "ReductionContext",
    "make_reduction_context",
    "psi",
    "maximize_reduced",
    "DegreeLedger",
    "local_degree",
    "qualitative_classify",
    "transfer_to_original",
    "reference_config",
    "validate_config",
    "run_pipeline",
    "RunReport",
    "render_profiles",
    "NeucritError",
    "ConfigError",
    "ResonantSlope",
    "DuplicateKnots",
    "NonC1Blend",
    "AnchorNotZero",
    "AnchorSlopeNonNegative",
    "AsymmetricSlopes",
    "MaxItersExceeded",
    "PathCollapse",
    "ModulusViolated",
    "ReductionInapplicable",
    "RangeEscape",
    "UnclassifiedDegenerate",
]
