"""Diagnostic checking of fitted vector autoregressive models.

Classical multivariate portmanteau statistics, a generalized-variance
determinant statistic on the block-Toeplitz matrix of residual
autocorrelations, chi-square approximations, and a deterministic parallel
Monte-Carlo significance test, plus harnesses for size and power
experiments.
"""

from ._version import __version__
from .asymptotics import (
    AbParams,
    DesignSet,
    TraceSums,
    ab_params,
    ab_params_from_traces,
    approx_pvalue,
    build_design,
    chisq_sf,
    lambda_traces,
    q_pvalue_asymptotic,
)
from .csvio import CsvTable, read_csv, write_csv
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
from .studies import StudyCell, StudyResult, power_study, size_study
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
