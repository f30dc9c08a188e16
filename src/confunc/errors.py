"""Exception hierarchy shared by all confunc modules.

Every error is a ConfuncError and a ValueError or RuntimeError. A bound
that diverges raises none of them: it is the value +inf.
"""

from __future__ import annotations

__all__ = [
    "ConfuncError",
    "DomainError",
    "ConvergenceError",
    "GridError",
]


class ConfuncError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ConfuncError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConvergenceError(ConfuncError, RuntimeError):
    """An iterative solver failed to reach its tolerance within its cap."""


class GridError(ConfuncError, ValueError):
    """A grid cannot support the requested construction."""
