"""Diagnostic checking of fitted vector autoregressive models.

Classical multivariate portmanteau statistics, a generalized-variance
determinant statistic on the block-Toeplitz matrix of residual
autocorrelations, chi-square approximations, and a deterministic parallel
Monte-Carlo significance test, plus harnesses for size and power
experiments.

``import vardiag`` loads only what the Monte-Carlo test needs.  The names of
``asymptotics``, ``csvio`` and ``studies`` load their module at first use.
"""

import importlib

from ._version import __version__
from .diagnostics import (
    Autocorrelations,
    Autocovariances,
    GvDecomposition,
    block_toeplitz,
    gv_decompose,
    gv_stat,
    portmanteau_q,
    racf,
    residual_transform,
    sample_acov,
)
from .errors import (
    DegenerateDf,
    DegenerateResiduals,
    DimensionMismatch,
    EmptyData,
    InvalidModel,
    NotPositiveDefinite,
    ParseError,
    ReplicateFailure,
    SingularDesign,
    TooShort,
    UnknownModel,
    VardiagError,
)
from .estimate import FittedVar, fit_var, implied_mean
from .linalg import cholesky_lower, log_det_spd, spd_inverse
from .montecarlo import (
    LagResult,
    McConfig,
    TestReport,
    derive_key,
    derive_seed,
    evaluate_statistics,
    margin_of_error,
    mc_pvalues,
    mc_test,
    p_hat,
)
from .varma import (
    CATALOG_NAMES,
    ModelCheck,
    VarmaModel,
    catalog,
    inverse_ma_weights,
    ma_weights,
    simulate,
    validate_model,
)

__all__ = [
    "__version__",
    "AbParams", "DesignSet", "TraceSums", "ab_params", "ab_params_from_traces",
    "approx_pvalue", "build_design", "chisq_sf", "lambda_traces",
    "q_pvalue_asymptotic",
    "CsvTable", "read_csv", "write_csv",
    "Autocorrelations", "Autocovariances", "GvDecomposition", "block_toeplitz",
    "gv_decompose", "gv_stat", "portmanteau_q", "racf", "residual_transform",
    "sample_acov",
    "DegenerateDf", "DegenerateResiduals", "DimensionMismatch", "EmptyData",
    "InvalidModel", "NotPositiveDefinite", "ParseError", "ReplicateFailure",
    "SingularDesign", "TooShort", "UnknownModel", "VardiagError",
    "FittedVar", "fit_var", "implied_mean",
    "cholesky_lower", "log_det_spd", "spd_inverse",
    "LagResult", "McConfig", "TestReport", "derive_key", "derive_seed",
    "evaluate_statistics", "margin_of_error", "mc_pvalues", "mc_test", "p_hat",
    "StudyCell", "StudyResult", "power_study", "size_study",
    "CATALOG_NAMES", "ModelCheck", "VarmaModel", "catalog",
    "inverse_ma_weights", "ma_weights", "simulate", "validate_model",
]

# The modules an ``mc_test`` caller never needs, by the names they export.
_LAZY = {
    **dict.fromkeys(("AbParams", "DesignSet", "TraceSums", "ab_params", "ab_params_from_traces",
                     "approx_pvalue", "build_design", "chisq_sf", "lambda_traces",
                     "q_pvalue_asymptotic"), "asymptotics"),
    **dict.fromkeys(("CsvTable", "read_csv", "write_csv"), "csvio"),
    **dict.fromkeys(("StudyCell", "StudyResult", "power_study", "size_study"), "studies"),
}


def __getattr__(name: str):
    """Import the module of a lazily loaded name at its first use and keep the name here."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    return value


def __dir__() -> list:
    return sorted(globals().keys() | _LAZY.keys())
