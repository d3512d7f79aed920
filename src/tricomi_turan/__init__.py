"""Numerical toolkit for the Tricomi confluent hypergeometric function.

Evaluates psi(a, c, x) for real x > 0 by independent methods
(integral-representation quadrature, Kummer-series connection formula,
optimally truncated large-x expansion) and systematically verifies a
catalog of Turan-type inequalities, integral moment identities, sharpness
limits and bound-dominance claims over configurable parameter grids.

Names load on first use (PEP 562): ``import tricomi_turan`` runs no
submodule, and the first access to an exported name, or to a submodule
such as ``tricomi_turan.suites``, imports the submodule that owns it.  A
program that only evaluates psi thus loads ``kernel`` alone.
"""

from importlib import import_module

__version__ = "0.1.0"

# each submodule with the public names it exports
_EXPORTS = {
    "kernel": ("DoubleRangeError", "EvaluationError", "FunctionValue",
               "ParameterPoint", "RegionError", "log_gamma", "psi",
               "psi_connection", "psi_quadrature"),
    "turanians": ("ScanPoint", "SharpnessLimit", "TuranianKind", "sharpness_scan",
                  "turanian", "turanian_ratio"),
    "measure": ("MOMENT_IDENTITIES", "MomentIdentity", "WeightDensity", "phi",
                "phi_moment", "stieltjes"),
    "bounds": ("CATALOG", "DOMINANCE", "LIMITS", "BoundSpec", "DominanceSpec",
               "VerificationRecord", "auxiliary_log_ratio", "catalog_document",
               "check_bound", "check_dominance", "dominance_applicable"),
    "suites": ("DEFAULT_GRID_A", "DEFAULT_GRID_C", "DEFAULT_GRID_X",
               "ReportRow", "ReportRows", "RunConfig", "RunSummary", "run"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name in _EXPORTS:
        # importing a submodule binds it as an attribute of the package
        return import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_OWNER) | set(_EXPORTS))
