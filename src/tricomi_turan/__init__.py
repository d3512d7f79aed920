"""Numerical toolkit for the Tricomi confluent hypergeometric function.

Evaluates psi(a, c, x) for real x > 0 by independent methods
(integral-representation quadrature, Kummer-series connection formula,
optimally truncated large-x expansion) and systematically verifies a
catalog of Turan-type inequalities, integral moment identities, sharpness
limits and bound-dominance claims over configurable parameter grids.
"""

from .kernel import (DoubleRangeError, EvaluationError, FunctionValue,
                     ParameterPoint, RegionError, log_gamma, psi, psi_connection,
                     psi_quadrature)
from .turanians import (LIMITS, ScanResult, SharpnessLimit, TuranianKind,
                        sharpness_scan, turanian, turanian_ratio)
from .measure import (MOMENT_IDENTITIES, MomentIdentity, WeightDensity, phi,
                      phi_moment, stieltjes_first_shift, stieltjes_ratio)
from .bounds import (CATALOG, DOMINANCE, BoundSpec, DominanceSpec,
                     VerificationRecord, auxiliary_log_ratio, catalog_document,
                     check_bound, check_dominance, dominance_applicable)
from .suites import (DEFAULT_GRID_A, DEFAULT_GRID_C, DEFAULT_GRID_X,
                     ReportRow, RunConfig, RunSummary, run)

__version__ = "0.1.0"

__all__ = [
    "BoundSpec", "CATALOG", "DEFAULT_GRID_A",
    "DEFAULT_GRID_C", "DEFAULT_GRID_X", "DOMINANCE", "DominanceSpec",
    "DoubleRangeError",
    "EvaluationError", "FunctionValue", "LIMITS", "MOMENT_IDENTITIES",
    "MomentIdentity", "ParameterPoint", "RegionError",
    "ReportRow", "RunConfig", "RunSummary", "ScanResult", "SharpnessLimit",
    "TuranianKind", "VerificationRecord", "WeightDensity",
    "auxiliary_log_ratio", "catalog_document", "check_bound",
    "check_dominance", "dominance_applicable", "log_gamma", "phi",
    "phi_moment", "psi", "psi_connection", "psi_quadrature",
    "run", "sharpness_scan", "stieltjes_first_shift", "stieltjes_ratio",
    "turanian", "turanian_ratio",
]
