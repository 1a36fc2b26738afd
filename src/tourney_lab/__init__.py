"""Planted-ranking tournaments: detection, recovery, and alignment experiments."""

from .core import (
    ModelParams,
    Ranking,
    RngStream,
    Tournament,
    alignment,
    induced_tournament,
    kendall_tau,
    sample_null,
    sample_null_scores,
    sample_planted,
    sample_planted_scores,
    sample_planted_uniform,
    spearman_footrule,
)
from .detection import (
    DetectionVerdict,
    spectral_statistic,
    spectral_test,
    wedge_from_scores,
    wedge_null_moments,
    wedge_planted_mean,
    wedge_statistic,
    wedge_test,
)
from .fourier import (
    Shape,
    chi2_exact,
    chi2_fourier,
    kl_rademacher_bound,
    planted_expectation,
    planted_sign_average,
    recovery_lower_bound,
    tv_exact,
)
from .recovery import (
    MleResult,
    brute_force_mle,
    concavity_check,
    expected_error_bound,
    max_alignment,
    opt_bounds,
    pessimistic_error_statistic,
    ranking_by_wins,
)
from .spectral import (
    build_A,
    closed_form_eigenpair,
    closed_form_eigenvalue,
)

__version__ = "0.1.0"
