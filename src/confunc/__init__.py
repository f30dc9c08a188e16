"""Confidence-uncertainty bounds for position and momentum.

The confidence uncertainty of a distribution at level theta is the
smallest measure of a region capturing probability theta. This package
computes the sharp lower bounds that the Fourier transform imposes on
products of position and momentum confidence uncertainties, built on
the concentration eigenvalue lambda0(c) of the sinc-kernel operator:

* :mod:`confunc.numerics` -- quadrature, special functions, and the
  symmetric-eigenpair primitive;
* :mod:`confunc.slepian`  -- lambda0(c) from the tridiagonal prolate
  matrix, its inverse, the principal eigenfunction, and two independent
  routes to the same number (the sinc-kernel Nystrom matrix and the
  Fourier-coefficient matrix);
* :mod:`confunc.bounds`   -- the bound formulas over the confidence
  square, with region classification and a per-pair report;
* :mod:`confunc.states`   -- gridded wavefunctions, the unitary
  position/momentum transform, confidence-uncertainty functionals, and
  the saturating and counterexample state families;
* :mod:`confunc.cli`      -- the ``confunc`` command.
"""

from .bounds import (
    BoundReport,
    ConfidencePair,
    Region,
    angular_target,
    bbm_reference,
    classify_region,
    donoho_stark_bound,
    elementary_bound,
    gaussian_interval_product,
    log_asymptote,
    lp_interval_bound,
    lp_interval_bounds,
    lp_measurable_bound,
    report,
)
from .errors import (
    BoundDivergenceError,
    ConfuncError,
    ConvergenceError,
    DomainError,
    GridError,
    MassDeficitError,
)
from .numerics import (
    QuadratureRule,
    erf_inverse,
    gauss_legendre,
    largest_eigenpair,
    sine_integral,
)
from .slepian import (
    DEFAULT_ORDER,
    ProlateSolution,
    a_matrix,
    evaluate_principal,
    kernel_matrix,
    lambda0,
    lambda0_inverse,
    lambda0_inverse_batch,
    lambda0_large_c,
    lambda0_small_c,
    principal_slepian,
)
from .states import (
    ConfidenceEstimate,
    Grid,
    GriddedState,
    LenardWitness,
    RectSincPrediction,
    SupportKind,
    confidence_uncertainty,
    differential_entropy,
    fourier_transform,
    gaussian_state,
    interval_confidence_uncertainty,
    inverse_fourier_transform,
    load_state,
    probability_in_interval,
    random_smooth_state,
    rect_sinc_prediction,
    rect_sinc_state,
    save_state,
    slepian_state,
    verify_lenard,
    verify_lenard_batch,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "ConfuncError",
    "DomainError",
    "ConvergenceError",
    "BoundDivergenceError",
    "GridError",
    "MassDeficitError",
    # numerics
    "QuadratureRule",
    "gauss_legendre",
    "sine_integral",
    "erf_inverse",
    "largest_eigenpair",
    # slepian
    "DEFAULT_ORDER",
    "ProlateSolution",
    "kernel_matrix",
    "lambda0",
    "lambda0_small_c",
    "lambda0_large_c",
    "lambda0_inverse",
    "lambda0_inverse_batch",
    "a_matrix",
    "principal_slepian",
    "evaluate_principal",
    # bounds
    "Region",
    "ConfidencePair",
    "BoundReport",
    "classify_region",
    "angular_target",
    "lp_measurable_bound",
    "lp_interval_bound",
    "lp_interval_bounds",
    "log_asymptote",
    "donoho_stark_bound",
    "elementary_bound",
    "gaussian_interval_product",
    "bbm_reference",
    "report",
    # states
    "Grid",
    "GriddedState",
    "SupportKind",
    "ConfidenceEstimate",
    "LenardWitness",
    "RectSincPrediction",
    "fourier_transform",
    "inverse_fourier_transform",
    "probability_in_interval",
    "confidence_uncertainty",
    "interval_confidence_uncertainty",
    "differential_entropy",
    "gaussian_state",
    "rect_sinc_state",
    "rect_sinc_prediction",
    "slepian_state",
    "random_smooth_state",
    "verify_lenard",
    "verify_lenard_batch",
    "save_state",
    "load_state",
]
