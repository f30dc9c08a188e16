"""Exception hierarchy shared by all confunc modules."""

from __future__ import annotations

__all__ = [
    "ConfuncError",
    "DomainError",
    "ConvergenceError",
    "BoundDivergenceError",
    "GridError",
    "MassDeficitError",
]


class ConfuncError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ConfuncError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConvergenceError(ConfuncError, RuntimeError):
    """An iterative solver failed to reach its tolerance within its cap."""


class BoundDivergenceError(ConfuncError, ArithmeticError):
    """The requested bound diverges; no finite value exists.

    Raised by ``lp_interval_bound(s)`` at full confidence in both position
    and momentum, where the inverse-eigenvalue bound has no finite
    argument. ``report`` records that divergence as ``+inf`` instead, as
    it already does for the Gaussian product at full confidence.
    """


class GridError(ConfuncError, ValueError):
    """A grid cannot support the requested construction."""


class MassDeficitError(ConfuncError, ArithmeticError):
    """The available probability mass falls short of the requested level."""
