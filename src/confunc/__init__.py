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
  square, with region classification and a report table over many pairs;
* :mod:`confunc.states`   -- gridded wavefunctions, the unitary
  position/momentum transform, confidence-uncertainty functionals, and
  the saturating and counterexample state families;
* :mod:`confunc.cli`      -- the ``confunc`` command.
"""

from . import bounds, errors, numerics, slepian, states
from .bounds import *
from .errors import *
from .numerics import *
from .slepian import *
from .states import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *numerics.__all__,
    *slepian.__all__,
    *bounds.__all__,
    *states.__all__,
]
