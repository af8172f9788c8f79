"""mixbench: estimators, exact losses and bound verification for clustering
a two-component isotropic Gaussian mixture.

The package provides

- domain types and deterministic sampling for the mixture model,
- exact (quadrature) and Monte-Carlo evaluation of the clustering loss,
- the dense PCA-split estimator and its variance-screened sparse variant,
- closed-form evaluators for the minimax upper/lower bounds, the KL bound
  (checked against a Monte-Carlo KL) and the concentration tails (three of
  the eight kinds checked against simulated frequencies),
- packing-code constructions of the lower-bound hypothesis families with
  Fano-budget certification,
- a seeded, parallel experiment harness with rate-slope fitting and a
  ``mixbench`` command-line interface.
"""

from .bounds import (
    concentration_bound,
    general_loss_upper,
    kl_bound,
    kl_monte_carlo,
    theorem_bound,
)
from .errors import MixbenchError
from .estimators import (
    DavisKahanReport,
    RecoveryReport,
    ScreeningResult,
    SupportTruth,
    davis_kahan_check,
    oracle_support_pca,
    pca_classifier,
    sample_mean_cov,
    screening,
    screening_alpha,
    sparse_pca_classifier,
    support_recovery_check,
    support_truth,
    top_eigenvector,
)
from .harness import (
    ExperimentConfig,
    SweepResult,
    emit_report,
    fit_rate,
    load_config,
    run_experiment,
)
from .loss import (
    g_function,
    loss_bounds_symmetric,
    loss_exact_linear,
    loss_monte_carlo,
)
from .model import (
    Dataset,
    LinearClassifier,
    MixtureParams,
    bayes_classifier,
    mixture_log_density,
    sample,
    stream_seed,
)
from .packing import (
    BinaryCode,
    FanoReport,
    PackingFamily,
    TriangleReport,
    fano_check,
    local_triangle_check,
    lower_bound_family,
    sparse_code,
    vg_code,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryCode",
    "Dataset",
    "DavisKahanReport",
    "ExperimentConfig",
    "FanoReport",
    "LinearClassifier",
    "MixbenchError",
    "MixtureParams",
    "PackingFamily",
    "RecoveryReport",
    "ScreeningResult",
    "SupportTruth",
    "SweepResult",
    "TriangleReport",
    "bayes_classifier",
    "concentration_bound",
    "davis_kahan_check",
    "emit_report",
    "fano_check",
    "fit_rate",
    "g_function",
    "general_loss_upper",
    "kl_bound",
    "kl_monte_carlo",
    "load_config",
    "local_triangle_check",
    "loss_bounds_symmetric",
    "loss_exact_linear",
    "loss_monte_carlo",
    "lower_bound_family",
    "mixture_log_density",
    "oracle_support_pca",
    "pca_classifier",
    "run_experiment",
    "sample",
    "sample_mean_cov",
    "screening",
    "screening_alpha",
    "sparse_code",
    "sparse_pca_classifier",
    "stream_seed",
    "support_recovery_check",
    "support_truth",
    "theorem_bound",
    "top_eigenvector",
    "vg_code",
]
