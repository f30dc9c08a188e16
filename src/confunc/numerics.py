"""Foundational numeric kernels used by every other module.

This module provides the four low-level ingredients the eigenvalue engine
and the bound evaluators are built from:

* Gauss-Legendre quadrature rules of arbitrary order, computed from
  scratch by Newton iteration on the Legendre polynomials, so that the
  spectral discretisation downstream does not depend on any external
  special-function library. A rule is the pair (nodes, weights) of
  read-only arrays; the integral of f is ``weights @ f(nodes)``.
* The sine integral Si(y), needed by the closed-form normalisation of the
  rectangle-plus-sinc state family.
* The inverse error function, needed for Gaussian interval confidence
  products.
* A dominant-eigenpair solver, behind the concentration eigenvalue.

All functions are pure and deterministic; returned arrays are read-only.
"""

from __future__ import annotations

import math
import numbers
from functools import lru_cache

import numpy as np
from numpy.typing import NDArray

from .errors import ConvergenceError, DomainError

__all__ = [
    "gauss_legendre",
    "sine_integral",
    "erf_inverse",
    "largest_eigenpair",
]


def _shown(value) -> str:
    """A refused value as a message shows it: a real number by str, so a
    numpy -1.0 reads -1.0, anything else by repr, so "1" reads '1'."""
    return str(value) if isinstance(value, numbers.Real) else repr(value)


def _check_positive(name: str, value: float) -> float:
    """The one rule for inputs that must be positive and finite: a real
    number (numpy scalars are), not a string, a list or None."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value) and value > 0):
        raise DomainError(f"{name} must be positive and finite, got {_shown(value)}")
    return float(value)


def _legendre_and_derivative(
    n: int, x: NDArray[np.float64]
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Evaluate P_n and P_n' by the three-term recurrence."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for j in range(2, n + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    # derivative via the standard relation; nodes are interior so 1-x^2 > 0
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


# typed, so that 40.0 cannot hit the entry of 40 without being checked
@lru_cache(maxsize=64, typed=True)
def gauss_legendre(order: int) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Compute the Gauss-Legendre rule of the given order.

    Roots of the Legendre polynomial are found by Newton iteration from
    the classical cosine initial guesses; only the positive half is
    iterated and the rule is mirrored, which makes the symmetry
    ``node[i] = -node[N-1-i]`` exact by construction. Rules are cached
    per order; their arrays are read-only, so sharing them is safe.

    Parameters
    ----------
    order :
        Number of nodes N, an integer (numpy integers are) of at least 2.

    Returns
    -------
    nodes, weights :
        Read-only arrays of length N. The nodes increase strictly in
        (-1, 1), symmetric about 0; the weights are positive, sum to 2
        and are mirror-symmetric like the nodes. ``weights @ f(nodes)``
        is exact for polynomials f of degree up to 2N - 1.

    Raises
    ------
    DomainError
        If ``order`` is not an integer of at least 2.
    ConvergenceError
        If a Newton iterate fails to settle, which does not happen for
        any practical order.
    """
    if not (isinstance(order, numbers.Integral) and order >= 2):
        raise DomainError(f"quadrature order must be an integer >= 2, got {_shown(order)}")
    n = int(order)
    m = n // 2
    k = np.arange(1, m + 1, dtype=np.float64)
    x = np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    for _ in range(100):
        p, dp = _legendre_and_derivative(n, x)
        step = p / dp
        x -= step
        if np.max(np.abs(step)) < 1e-16:
            break
    else:
        raise ConvergenceError("Legendre root iteration did not settle")
    _, dp = _legendre_and_derivative(n, x)
    w_half = 2.0 / ((1.0 - x * x) * dp * dp)

    if n % 2:
        zero = np.zeros(1)
        _, dp0 = _legendre_and_derivative(n, zero)
        w0 = 2.0 / (dp0 * dp0)
        nodes = np.concatenate([-x, zero, x[::-1]])
        weights = np.concatenate([w_half, w0, w_half[::-1]])
    else:
        nodes = np.concatenate([-x, x[::-1]])
        weights = np.concatenate([w_half, w_half[::-1]])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


_PANEL_RULE_ORDER = 32


def _panel_rule(breaks, width: float) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Nodes and weights of the composite 32-point Gauss-Legendre rule.

    Each gap between consecutive ``breaks`` is cut into equal panels no
    wider than ``width``, and every panel carries a mapped copy of the
    rule; panel by panel, the nodes are mid + half * node and the
    weights half * weight.
    """
    rule_nodes, rule_weights = gauss_legendre(_PANEL_RULE_ORDER)
    gaps = zip(breaks[:-1], breaks[1:])
    # linspace ends exactly on each break, so adjacent gaps share it
    cuts = [np.linspace(a, b, max(1, math.ceil((b - a) / width)) + 1)[:-1] for a, b in gaps]
    edges = np.concatenate([*cuts, breaks[-1:]])
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * rule_nodes[None, :]).ravel()
    weights = (half[:, None] * rule_weights[None, :]).ravel()
    return nodes, weights


_SI_PANEL = 2.0
_SI_ASYMPTOTIC_CUT = 50.0


def sine_integral(y: float) -> float:
    """Sine integral Si(y), the integral of sin(t)/t from 0 to y.

    Uses panel Gauss-Legendre quadrature up to |y| = 50 (the integrand is
    entire, so fixed panels of length 2 already reach machine accuracy)
    and the asymptotic auxiliary-function expansion beyond, keeping the
    absolute error below 1e-12 everywhere. Odd in y.
    """
    if not math.isfinite(y):
        raise DomainError(f"sine_integral requires finite input, got {y}")
    if y == 0.0:
        return 0.0
    sign, ay = (1.0, y) if y > 0 else (-1.0, -y)
    if ay <= 1e-4:
        # two Taylor terms reach 1e-23 here and avoid underflow in the
        # panel node products for subnormal arguments
        return sign * ay * (1.0 - ay * ay / 18.0)
    if ay <= _SI_ASYMPTOTIC_CUT:
        t, wt = _panel_rule([0.0, ay], _SI_PANEL)
        return sign * float(np.sum(wt * (np.sin(t) / t)))
    # Si(y) = pi/2 - cos(y) f(y) - sin(y) g(y) with asymptotic f, g
    inv2 = 1.0 / (ay * ay)
    f = 0.0
    g = 0.0
    term_f = 1.0 / ay
    term_g = inv2
    # for y > 50 each term is at most 27*28/2500 of the one before
    for k in range(14):
        f += term_f
        g += term_g
        term_f = -term_f * (2 * k + 1) * (2 * k + 2) * inv2
        term_g = -term_g * (2 * k + 2) * (2 * k + 3) * inv2
    si = 0.5 * math.pi - math.cos(ay) * f - math.sin(ay) * g
    return sign * si


def erf_inverse(theta: float) -> float:
    """Inverse of the error function on [0, 1).

    Bisection on [0, 6], where erf(6) rounds to 1, until the bracket
    holds two adjacent doubles. Up to theta = 1/2 it compares erf(x) with
    theta; above, erfc(x) with 1 - theta, which is exact there, so the
    result keeps its relative accuracy at both ends of the range.

    Raises
    ------
    DomainError
        If ``theta`` is outside [0, 1).
    """
    if not 0.0 <= theta < 1.0:
        raise DomainError(f"erf_inverse requires 0 <= theta < 1, got {theta}")
    if theta == 0.0:
        return 0.0
    lo, hi, x = 0.0, 6.0, 3.0
    while lo < x < hi:
        if (math.erfc(x) > 1.0 - theta) if theta > 0.5 else (math.erf(x) < theta):
            lo = x
        else:
            hi = x
        x = 0.5 * (lo + hi)
    return hi


# residual ||M v - lambda v|| that largest_eigenpair must reach
_EIGEN_RESIDUAL = 1e-12


def largest_eigenpair(
    matrix: NDArray[np.float64],
) -> tuple[float | NDArray[np.float64], NDArray[np.float64]]:
    """Largest eigenvalue and unit eigenvector of a real symmetric matrix,
    or of each matrix in a stack of shape (..., n, n).

    A dense symmetric eigensolve provides the pairs; the symmetry of each
    input and its residual ``||M v - lambda v|| <= 1e-12`` are verified
    so the contract does not rest on the backend. Each eigenvector's sign
    is fixed so its entry of largest magnitude is positive, which makes
    the result deterministic. A single matrix gives a float and a vector;
    a stack gives an array of eigenvalues of shape (...) and one of
    eigenvectors of shape (..., n). A matrix gets the same pair whether
    it is solved alone or in a stack.

    Raises
    ------
    DomainError
        If a matrix is not square and symmetric to 1e-12.
    ConvergenceError
        If the residual check fails for any matrix.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DomainError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    if m.shape[-1] == 0:
        raise DomainError("expected a nonempty matrix")
    transposed = m.swapaxes(-1, -2)
    asym = float(np.abs(m - transposed).max(initial=0.0))
    if asym > 1e-12:
        raise DomainError(f"matrix is not symmetric: max |M - M^T| = {asym:.3e}")
    sym = 0.5 * (m + transposed)
    eigenvalues, eigenvectors = np.linalg.eigh(sym)
    values = eigenvalues[..., -1]
    vectors = eigenvectors[..., -1]
    misfit = (sym @ vectors[..., None])[..., 0] - values[..., None] * vectors
    residual = float(np.sqrt((misfit * misfit).sum(axis=-1)).max(initial=0.0))
    # a NaN residual fails this test too
    if not residual <= _EIGEN_RESIDUAL:
        raise ConvergenceError(
            f"eigenpair residual {residual:.3e} exceeds tolerance {_EIGEN_RESIDUAL:.3e}"
        )
    flat = vectors.reshape(-1, m.shape[-1])
    largest = flat[np.arange(len(flat)), np.abs(flat).argmax(axis=-1)]
    vectors = vectors * np.where(largest < 0, -1.0, 1.0).reshape(values.shape + (1,))
    vectors.setflags(write=False)
    if m.ndim == 2:
        return float(values), vectors
    return values, vectors
