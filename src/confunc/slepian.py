"""Concentration eigenvalue engine.

The largest eigenvalue lambda0(c) of the sinc-kernel integral operator on
[-1, 1] measures the maximal fraction of band-limited energy a function
confined to an interval can carry; c = L*W/(4*hbar) is the dimensionless
product of the position window L and momentum window W.

The prolate differential operator commutes with the sinc kernel, so the
two share their eigenfunctions; on the even normalised Legendre
polynomials it is a symmetric tridiagonal matrix (Bouwkamp 1947;
Slepian & Pollak 1961; Xiao, Rokhlin & Yarvin 2001). Its ground
eigenvector gives the Legendre coefficients of the principal
eigenfunction psi0, and lambda0 = (c / 2 pi) mu0^2 with
mu0 = sqrt(2) beta0 / psi0(0), from integrating the eigenvalue relation
of the Fourier operator at the origin. The matrix has floor(c/2) + 20
rows and needs no quadrature; psi0 anywhere in [-1, 1] is the sum of
the same Legendre series. The engine supports c in [0, 1000].

This module also inverts lambda0, evaluates the two closed-form
asymptotic approximants, and keeps three independent cross-checks of
the engine: the Nystrom matrix of the sinc kernel, the extension of
psi0 off its sample nodes through that kernel, and the
Fourier-coefficient matrix whose operator norm equals pi * lambda0(c).
Newton's step in the inversion takes
d lambda0/dc = 2 lambda0 psi0(1)^2 / c (Slepian-Pollak, psi0 of unit
norm on [-1, 1]) with psi0(1) summed from the same coefficients, and
stops on a tolerance relative to min(theta, 1 - theta), so theta near 0
and near 1 stays exact. A batch of c is solved in stacked eigensolves
of one matrix size under one budget of matrix entries, and the
inversion runs Newton on all its targets in lockstep, one such batch
per round.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import ConvergenceError, DomainError
from .numerics import _check_positive, _panel_rule, gauss_legendre, largest_eigenpair

__all__ = [
    "ProlateSolution",
    "kernel_matrix",
    "lambda0",
    "lambda0_inverse",
    "lambda0_inverse_batch",
    "lambda0_small_c",
    "lambda0_large_c",
    "a_matrix",
    "principal_slepian",
    "evaluate_principal",
    "DEFAULT_ORDER",
]

DEFAULT_ORDER = 400

# theta closer to 1 than this cannot be resolved in double precision:
# lambda0 near 1 carries a rounding error of a few ulps of 1 (1.1e-16
# each), so 1 - lambda0 formed by subtraction is no finer than that
_THETA_RESOLUTION = 1e-12

# largest double below 1: rounding in the eigensolve can push lambda0 of
# a large c just above 1, outside its range [0, 1)
_BELOW_ONE = math.nextafter(1.0, 0.0)

# lambda0_inverse_batch stops a target once |lambda0(c) - theta| is this
# fraction of min(theta, 1 - theta), or once its bracket is this
# fraction of its upper end
_INVERSION_TOL = 1e-10

# largest supported concentration; the prolate matrix has c/2 + 20 rows,
# and 1 - lambda0 is below one ulp of 1 from c = 20 on
_C_MAX = 1000.0

# largest Fourier index of a_matrix
_A_TRUNCATION = 64

# most matrix entries in one stacked eigensolve, a larger matrix going
# alone: 64 of the 23-row matrices of c <= 6.25
_STACK_ENTRIES = 64 * 23 * 23

# most eigensolve work, the sum of rows^3, one engine call may take:
# about half a minute of solves near c = 1000
_MAX_SOLVE_WORK = 1e11


def _as_c(c: float) -> float:
    value = float(c)
    if not math.isfinite(value) or value < 0:
        raise DomainError(
            f"concentration parameter must be finite and >= 0, got {value}"
        )
    return value


@dataclass(frozen=True, eq=False)
class ProlateSolution:
    """Principal eigenpair of the sinc kernel at one concentration c.

    ``principal_function`` holds samples of the even ground
    eigenfunction, of unit L2 norm on [-1, 1], on the
    ``quadrature_order`` Gauss-Legendre nodes of [-1, 1].
    """

    c: float
    lambda0: float
    principal_function: NDArray[np.float64]
    quadrature_order: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.lambda0 <= 1.0:
            raise DomainError(f"lambda0 must lie in [0, 1], got {self.lambda0}")
        if len(self.principal_function) != self.quadrature_order:
            raise DomainError("sample count must match the quadrature order")
        self.principal_function.setflags(write=False)


def _sinc(c: float, u: NDArray[np.float64], v: NDArray[np.float64]) -> NDArray[np.float64]:
    """Sinc kernel sin(c (u_i - v_j)) / (pi (u_i - v_j)) on all pairs,
    taking the limit value c / pi where the points coincide."""
    du = u[:, None] - v[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        kern = np.sin(c * du) / (np.pi * du)
    kern[np.abs(du) < 1e-14] = c / np.pi
    return kern


def kernel_matrix(c: float, nodes, weights) -> NDArray[np.float64]:
    """Symmetrised Nystrom matrix of the sinc kernel on the nodes u and
    weights w of a quadrature rule, 1-D arrays of one length with finite
    nodes and finite positive weights (else a DomainError), as
    :func:`confunc.numerics.gauss_legendre` returns.

    Entries are sqrt(w_i w_j) * sin(c (u_i - u_j)) / (pi (u_i - u_j));
    the diagonal takes the kernel's limit value, giving w_i * c / pi.
    Its largest eigenvalue converges spectrally to lambda0(c).
    """
    u, w = np.asarray(nodes, dtype=np.float64), np.asarray(weights, dtype=np.float64)
    if u.ndim != 1 or w.shape != u.shape:
        raise DomainError(f"nodes and weights must be 1-D of one length, got {u.shape}, {w.shape}")
    if not (np.isfinite(u).all() and (np.isfinite(w) & (w > 0.0)).all()):
        raise DomainError("nodes must be finite and weights finite and positive")
    kern = _sinc(_as_c(c), u, u)
    sw = np.sqrt(w)
    return sw[:, None] * kern * sw[None, :]


def _rows(c):
    """Rows of the prolate matrix at c, or at each c of an array:
    floor(c/2) + 20. Past floor(c/2) the Legendre coefficients of psi0
    fall off faster than geometrically, and on c in [1e-3, 1000] the last
    one kept is below 1.1e-22."""
    return np.floor_divide(c, 2).astype(np.intp) + 20


_DEGREES = np.arange(_rows(_C_MAX))
# sqrt(2j + 1/2), the scale of the normalised P_2j, and P_2j(0), which is
# (-1)^j (2j - 1)!! / (2j)!!, for every row of the largest matrix
_LEGENDRE_SCALE = np.sqrt(2.0 * _DEGREES + 0.5)
_LEGENDRE_AT_ZERO = np.cumprod(
    np.concatenate(([1.0], (1 - 2 * _DEGREES[1:]) / (2 * _DEGREES[1:])))
)


def _prolate_matrix(c) -> NDArray[np.float64]:
    """Prolate operator -d/du (1 - u^2) d/du + c^2 u^2 on the normalised
    even Legendre polynomials sqrt(k + 1/2) P_k, k = 0, 2, 4, ...

    Symmetric tridiagonal with floor(c/2) + 20 rows; its eigenvalues are
    the even prolate characteristic values, the smallest belonging to
    psi0, and the truncation leaves the ground eigenvector exact to
    double precision for every supported c. A one-dimensional array of
    c that share one row count gives the stack of their matrices.
    """
    cc = np.multiply(c, c)[..., None]
    n = _rows(np.max(c))
    k = 2.0 * _DEGREES[:n]
    diag = k * (k + 1) + cc * (2 * k * (k + 1) - 1) / ((2 * k + 3) * (2 * k - 1))
    j = k[:-1]
    off = cc * (j + 2) * (j + 1) / ((2 * j + 3) * np.sqrt((2 * j + 1) * (2 * j + 5)))
    matrix = np.zeros(np.shape(c) + (n, n))
    # the diagonal and the two off-diagonals as strided views
    flat = matrix.reshape(np.shape(c) + (n * n,))
    flat[..., :: n + 1] = diag
    flat[..., 1 :: n + 1] = off
    flat[..., n :: n + 1] = off
    return matrix


def _eigenpairs(cs) -> tuple[NDArray[np.float64], NDArray[np.float64], list]:
    """lambda0, psi0(1) and the coefficients a of psi0(u) = sum_j a_j P_2j(u)
    for each c in ``cs``, in input order.

    The c values are grouped by their row count and solved in stacks of
    at most _STACK_ENTRIES matrix entries, or of one matrix; every c gets
    a matrix of its own size, so each result is bit-identical to solving
    that c alone. psi0 has unit norm on [-1, 1] and psi0(0) > 0, and each
    P_2j(1) = 1, so psi0(1) = sum(a), summed within the stack.

    Raises
    ------
    DomainError
        If a c is negative, not finite, or above the supported 1000, or
        the batch needs over _MAX_SOLVE_WORK rows^3; no matrix is built.
    """
    cs = np.asarray(cs, dtype=np.float64).reshape(-1)
    outside = cs[~((cs >= 0.0) & (cs <= _C_MAX))]
    if outside.size:
        # a negative or non-finite c gets _as_c's message
        c = _as_c(outside[0])
        raise DomainError(
            f"c = {c:.6g} is outside the supported range [0, {_C_MAX:g}] "
            "of the eigenvalue engine"
        )
    sizes = _rows(cs)
    work = float(np.sum(sizes.astype(np.float64) ** 3))
    if work > _MAX_SOLVE_WORK:
        raise DomainError(
            f"{cs.size} values of c up to {cs.max():.6g} need {work:.3g} rows^3 "
            f"of eigensolves, above the {_MAX_SOLVE_WORK:.0e} one call may take"
        )
    order = np.argsort(sizes, kind="stable")
    values, edges = np.empty(cs.size), np.empty(cs.size)
    rows: list = [None] * cs.size
    for group in np.split(order, np.flatnonzero(np.diff(sizes[order])) + 1):
        # the group's row count; an empty batch gives one empty group
        n = int(sizes[group].max(initial=1))
        cap = max(1, _STACK_ENTRIES // (n * n))
        for start in range(0, group.size, cap):
            members = group[start : start + cap]
            c = cs[members]
            matrix = _prolate_matrix(c)
            # psi0 belongs to the smallest eigenvalue; the infinity norm
            # scales the residual check of the eigensolve to each matrix
            norm = np.abs(matrix).sum(axis=-1).max(axis=-1)
            _, beta = largest_eigenpair(-matrix / norm[:, None, None])
            coeffs = beta * _LEGENDRE_SCALE[:n]
            at_zero = (coeffs * _LEGENDRE_AT_ZERO[:n]).sum(axis=-1)
            # (c / 2 pi) mu0^2 with mu0 = sqrt(2) beta0 / psi0(0)
            ratio = beta[:, 0] / at_zero
            # + 0.0 turns the -0.0 of c = -0 into 0
            values[members] = np.minimum(c / math.pi * ratio * ratio, _BELOW_ONE) + 0.0
            coeffs *= np.where(at_zero < 0, -1.0, 1.0)[:, None]
            # psi0(1): each row summed in order, the same bits in any stack
            edges[members] = np.add.reduceat(coeffs.reshape(-1), np.arange(0, coeffs.size, n))
            for index, row in zip(members.tolist(), coeffs):
                rows[index] = row
    return values, edges, rows


def _principal_values(c: float, u: NDArray[np.float64]) -> tuple[float, NDArray[np.float64]]:
    """lambda0(c) and, from the same solve, psi0 at the points u of
    [-1, 1]: its Legendre series, with the coefficients on the even
    degrees, evaluated by numpy's ``legval``.

    Raises DomainError at c = 0, where psi0 is undefined, and for a c
    outside [0, 1000].
    """
    cc = _as_c(c)
    if cc == 0.0:
        raise DomainError("the principal eigenfunction is undefined at c = 0")
    values, _, rows = _eigenpairs([cc])
    series = np.zeros(2 * len(rows[0]) - 1)
    series[::2] = rows[0]
    return float(values[0]), np.polynomial.legendre.legval(u, series)


def lambda0(c: float) -> float:
    """Largest sinc-kernel eigenvalue lambda0(c), in [0, 1).

    Computed from the ground state of the tridiagonal prolate matrix; a
    40-digit solve of that matrix with 20 more rows puts its error at no
    more than 23 ulps of lambda0 on 80 values of c in [0.05, 20].

    Raises
    ------
    DomainError
        If c is negative, not finite, or above the supported 1000.
    """
    return float(_eigenpairs([c])[0][0])


def lambda0_small_c(c: float) -> float:
    """Leading small-c approximant 2c/pi of lambda0(c)."""
    return 2.0 * _as_c(c) / math.pi


def lambda0_large_c(c: float) -> float:
    """Leading large-c approximant 1 - 4*sqrt(pi*c)*exp(-2c) of lambda0(c)."""
    cc = _as_c(c)
    return 1.0 - 4.0 * math.sqrt(math.pi * cc) * math.exp(-2.0 * cc)


def lambda0_inverse(theta: float) -> float:
    """Concentration c with lambda0(c) = theta, for theta in (0, 1).

    The result satisfies |lambda0(c) - theta| <= 1e-10 * min(theta,
    1 - theta), or the bracket around it has shrunk below 1e-10 of its
    upper end and c is the best point met. So c keeps its relative
    accuracy at both ends of (0, 1): near 0, where lambda0 is about
    2c/pi, and near 1. Monotone in theta. The one-target case of
    :func:`lambda0_inverse_batch`.

    Raises
    ------
    DomainError
        If theta is outside (0, 1), below the smallest normal double, or
        so close to 1 that 1 - theta is below the double-precision
        resolution of the eigenvalues.
    """
    return float(lambda0_inverse_batch([theta])[0])


def lambda0_inverse_batch(thetas) -> NDArray[np.float64]:
    """Vector of lambda0_inverse values, each distinct target solved by
    its own Newton iteration, all of them in lockstep.

    Newton runs on ln(1 - lambda0), nearly linear in c, with the
    Slepian-Pollak derivative d lambda0/dc = 2 lambda0 psi0(1)^2 / c from
    the same solve as lambda0. Each target starts at the larger of the
    asymptotic inverses pi*theta/2 and -ln(1-theta)/2 and keeps a bracket
    of its own; a step leaving it falls back to bisection. A round makes
    one call of the stacked eigensolver for every target not yet done, so
    a dense map costs a few rounds, not a few solves per target. A target
    is done once |lambda0(c) - theta| <= _INVERSION_TOL *
    min(theta, 1 - theta), with that c, or once its bracket is narrower
    than _INVERSION_TOL times its upper end, with the best c it met. An
    absolute tolerance would accept a c far too large once theta or
    1 - theta nears it, overstating every bound built on it: near
    theta = 0, where lambda0 is about 2c/pi, the bracket's midpoint would
    pass at twice the true c. Returns results in input order.

    Raises
    ------
    DomainError
        If a target is outside (0, 1), below the smallest normal double,
        where the relative tolerance underflows, or so close to 1 that
        1 - theta is below the double-precision resolution of the
        eigenvalues.
    ConvergenceError
        If a target meets neither test within 200 rounds.
    """
    t = np.asarray(thetas, dtype=np.float64)
    if t.ndim != 1:
        raise DomainError("expected a one-dimensional sequence of targets")
    outside = t[~((t > 0.0) & (t < 1.0))]
    if outside.size:
        raise DomainError(f"lambda0_inverse requires 0 < theta < 1, got {outside[0]}")
    subnormal = t[t < sys.float_info.min]
    if subnormal.size:
        raise DomainError(
            f"lambda0_inverse requires theta in the normal doubles, "
            f"at least {sys.float_info.min:.6g}, got {subnormal[0]:.6g}"
        )
    unresolved = t[1.0 - t < _THETA_RESOLUTION]
    if unresolved.size:
        raise DomainError(
            f"1 - theta = {1.0 - unresolved[0]:.3e} is below the "
            f"{_THETA_RESOLUTION:.0e} resolution of the eigenvalue engine"
        )
    unique, positions = np.unique(t, return_inverse=True)
    solved = np.empty_like(unique)
    # the targets still iterating, their positions in ``unique``, and
    # each one's bracket, trial c and best point so far
    theta, todo = unique, np.arange(unique.size)
    # the small- and large-theta inverses: each target starts at the
    # larger, and their envelope widened by a factor 4 each way brackets
    # the root for every theta in (0, 1), the crossover region included
    small = math.pi * theta / 2.0
    large = -0.5 * np.log1p(-theta)
    lo, hi = np.minimum(small, large) / 4.0, np.maximum(small, large) * 4.0
    c = np.maximum(small, large)
    best_c, best_gap = c, np.full(c.size, math.inf)
    for _ in range(200):
        value, edge, _ = _eigenpairs(c)
        gap = np.abs(value - theta)
        better = gap < best_gap
        best_c = np.where(better, c, best_c)
        best_gap = np.where(better, gap, best_gap)
        met = gap <= _INVERSION_TOL * np.minimum(theta, 1.0 - theta)
        # rounding in the eigenvalue, not c, now sets the residual
        stalled = ~met & (hi - lo <= _INVERSION_TOL * hi)
        solved[todo[met]] = c[met]
        solved[todo[stalled]] = best_c[stalled]
        going = ~(met | stalled)
        if not going.any():
            return solved[positions]
        theta, todo, lo, hi, c, value, edge, best_c, best_gap = (
            x[going] for x in (theta, todo, lo, hi, c, value, edge, best_c, best_gap)
        )
        below = value < theta
        lo = np.where(below, c, lo)
        hi = np.where(below, hi, c)
        deriv = 2.0 * value * edge * edge / c
        # Newton step for ln(1 - lambda0(c)) = ln(1 - theta)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = (np.log1p(-value) - np.log1p(-theta)) * (1.0 - value) / deriv
        c_next = np.where(deriv > 0, c + step, c)
        c = np.where((lo < c_next) & (c_next < hi), c_next, 0.5 * (lo + hi))
    raise ConvergenceError(f"lambda0_inverse did not converge for theta={theta[0]}")


def a_matrix(lw_over_hbar: float) -> NDArray[np.float64]:
    """Fourier-coefficient matrix whose operator norm is pi * lambda0.

    For a state supported on a position window and expanded in the
    Fourier basis of that window, the in-band momentum probability is a
    quadratic form (1/pi) C^T A C in the coefficients; maximising over
    unit C gives ||A||/pi = lambda0(lw_over_hbar / 4). Entry (m, n)
    carries sign (-1)^(m+n) times the integral of
    (1 - cos t) / ((t - 2 n pi)(t - 2 m pi)) over
    [-lw_over_hbar/2, lw_over_hbar/2]; the apparent poles at t = 2 k pi
    sit under double zeros of 1 - cos t, so the integrand is entire and
    panel Gauss-Legendre quadrature split at those points is exact to
    machine accuracy. Indices run over -64 .. 64.
    """
    _check_positive("window product", lw_over_hbar)
    half = lw_over_hbar / 2.0
    splits = {0.0, half, -half}
    k = 1
    while 2 * math.pi * k < half:
        splits |= {2 * math.pi * k, -2 * math.pi * k}
        k += 1
    edges = sorted(p for p in splits if -half <= p <= half)
    t, wt = _panel_rule(edges, 1.0)
    n = np.arange(-_A_TRUNCATION, _A_TRUNCATION + 1)
    # 1 - cos t evaluated as 2 sin^2(t/2), exact through the double zeros
    weighted = wt * 2.0 * np.sin(t / 2.0) ** 2
    geom = 1.0 / (t[None, :] - 2.0 * np.pi * n[:, None])
    core = (geom * weighted) @ geom.T
    sign = np.where(n % 2 == 0, 1.0, -1.0)
    return sign[:, None] * sign[None, :] * core


def principal_slepian(c: float, order: int = DEFAULT_ORDER) -> ProlateSolution:
    """Principal eigenfunction samples and eigenvalue at concentration c.

    psi0 is sampled on the ``order`` Gauss-Legendre nodes of [-1, 1],
    the sample count and the rule :func:`evaluate_principal` integrates
    them with. psi0 has unit L2 norm and is positive at the midpoint;
    the ground state has no interior zeros, so this fixes its sign
    globally.

    Raises
    ------
    DomainError
        If c is 0, where psi0 is undefined, or outside [0, 1000].
    """
    cc = _as_c(c)
    value, samples = _principal_values(cc, gauss_legendre(order)[0])
    return ProlateSolution(cc, value, samples, order)


def evaluate_principal(solution: ProlateSolution, points) -> NDArray[np.float64]:
    """Evaluate the principal eigenfunction at arbitrary points.

    Uses the eigenvalue relation itself: applying the sinc kernel to the
    node samples by their Gauss-Legendre rule and dividing by lambda0
    interpolates the eigenfunction with the rule's spectral accuracy (and
    extends it, for |u| > 1, to the band-limited continuation). It does
    not use the Legendre series the samples come from, so it
    cross-checks them and :func:`confunc.states.slepian_state`, which
    sums that series.
    """
    u = np.atleast_1d(np.asarray(points, dtype=np.float64))
    nodes, weights = gauss_legendre(solution.quadrature_order)
    kern = _sinc(solution.c, u, nodes)
    return (kern @ (weights * solution.principal_function)) / solution.lambda0
