"""Bootstrap goodness-of-fit test for normal linear regression.

Fits y = X beta + eps with eps ~ N(0, sigma2) by maximum likelihood,
estimates the misspecification-robust variance of the fit statistic
-2 loglik (the sandwich covariance, in closed form), and tests the model
by checking whether a bootstrap percentile interval of that variance
covers 2n, its value under correct specification. Classical White and Breusch-Pagan
tests and a Monte Carlo harness are included for comparison studies.
"""

from .bootstrap import (
    BootstrapConfig,
    GofTestResult,
    iteration_stream,
    percentile_interval,
    run_test,
)
from .diagnostics import AuxTestResult, breusch_pagan, white_test
from .errors import (
    DataFormatError,
    DegenerateFitError,
    ExclusionLimitError,
    GofbootError,
    InsufficientDataError,
    RankDeficientError,
    RedrawLimitError,
    SingularInformationError,
)
from .regression import (
    Dataset,
    FittedModel,
    ModelSpec,
    aic,
    bic,
    fit_mle,
    gof_term,
)
from .simulation import (
    ScenarioSpec,
    SimReport,
    generate,
    run_monte_carlo,
)
from .special import chi_squared_cdf, chi_squared_sf, trigamma
from .variance import exact_var_gof, theoretical_var_gof, var_gof

__version__ = "0.1.0"

__all__ = [
    "AuxTestResult",
    "BootstrapConfig",
    "DataFormatError",
    "Dataset",
    "DegenerateFitError",
    "ExclusionLimitError",
    "FittedModel",
    "GofTestResult",
    "GofbootError",
    "InsufficientDataError",
    "ModelSpec",
    "RankDeficientError",
    "RedrawLimitError",
    "ScenarioSpec",
    "SimReport",
    "SingularInformationError",
    "aic",
    "bic",
    "breusch_pagan",
    "chi_squared_cdf",
    "chi_squared_sf",
    "exact_var_gof",
    "fit_mle",
    "generate",
    "gof_term",
    "iteration_stream",
    "percentile_interval",
    "run_monte_carlo",
    "run_test",
    "theoretical_var_gof",
    "trigamma",
    "var_gof",
    "white_test",
]
