"""Generalised relative risk reduction: estimation, inference, pooling.

The measure theta compares event probabilities p (control) and q
(treatment) on a symmetric [-1, 1] scale: the relative shrinkage of the
event probability when q < p, the relative shrinkage of the non-event
probability when q > p. This package estimates theta from 2x2 tables,
quantifies its sampling uncertainty three ways (exact product-binomial
sum, parametric bootstrap, analytic lognormal moments), approximates its
sampling distribution by a split-lognormal law for tests and intervals,
and pools studies under four random-effects models.
"""

from .core import (StudyTable, estimate_theta, odds_ratio_to_theta,
                   phi_to_theta, probs_to_phi, q_from_p_theta,
                   theta_from_probs)
from .distribution import (SplitLognormalApprox, cdf, confidence_interval,
                           loglik, p_value, pdf)
from .errors import (ConvergenceError, DatasetError, DomainError, GrrrError,
                     ResourceLimitError)
from .meta import (MetaFit, fit_beta_model, fit_direct_dl, fit_direct_ml,
                   fit_split_lognormal_model)
from .variance import (GrrrEstimate, VarianceSpec, delta_method_params,
                       make_estimate, variance_analytic, variance_bootstrap,
                       variance_exact)

__version__ = "0.1.0"

__all__ = [
    "StudyTable",
    "estimate_theta",
    "theta_from_probs",
    "q_from_p_theta",
    "probs_to_phi",
    "phi_to_theta",
    "odds_ratio_to_theta",
    "GrrrEstimate",
    "VarianceSpec",
    "make_estimate",
    "variance_exact",
    "variance_bootstrap",
    "variance_analytic",
    "delta_method_params",
    "SplitLognormalApprox",
    "pdf",
    "cdf",
    "loglik",
    "p_value",
    "confidence_interval",
    "MetaFit",
    "fit_direct_dl",
    "fit_direct_ml",
    "fit_beta_model",
    "fit_split_lognormal_model",
    "GrrrError",
    "DomainError",
    "DatasetError",
    "ConvergenceError",
    "ResourceLimitError",
    "__version__",
]
