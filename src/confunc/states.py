"""Gridded wavefunctions and confidence-uncertainty functionals.

States live on uniform cell grids: the grid divides [x_min, x_max] into
n cells and stores one complex amplitude per cell, interpreted as a
piecewise-constant density. Probability in an interval is then exact
(piecewise-linear cumulative), and the discrete Fourier transform
between position and momentum cells is exactly unitary, so position and
momentum probabilities live on the same footing.

The two confidence uncertainties implemented here, each a ``ConfidenceEstimate``:

* ``confidence_uncertainty`` -- smallest measure of any set holding
  probability theta (solved by a greedy superlevel set, with the last
  cell taken fractionally);
* ``interval_confidence_uncertainty`` -- smallest length of a single
  interval holding probability theta (an endpoint of an optimal window
  always coincides with a cell edge, so an edge sweep is exact).

State constructors: a minimum-uncertainty Gaussian, a rectangle/sinc
superposition that beats 50/50 confidence in both variables at once,
and the grid restriction of the principal prolate function, which
saturates the interval bound. A seeded smoothed-noise generator feeds
the verification corpus.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridError
from .numerics import _check_positive, sine_integral
from .slepian import _eigenpairs, _principal_values

__all__ = [
    "Grid",
    "GriddedState",
    "ConfidenceEstimate",
    "LenardWitness",
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
]

_NORM_TOL = 1e-8
# margin below zero that a Lenard witness still counts as holding, for
# grid effects
_LENARD_SLACK = 1e-6


@dataclass(frozen=True)
class Grid:
    """Uniform cell grid over [x_min, x_max] with n cells.

    Cell j covers [x_min + j*dx, x_min + (j+1)*dx); amplitudes are
    attached to cell centers x_min + (j + 1/2)*dx. With an even n and a
    symmetric domain, 0 is a cell edge, so a window such as [-L/2, L/2]
    can be resolved exactly when L is an even multiple of dx.
    """

    x_min: float
    x_max: float
    n: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise GridError("grid endpoints must be finite")
        if not self.x_min < self.x_max:
            raise GridError(
                f"grid requires x_min < x_max, got [{self.x_min}, {self.x_max}]"
            )
        if self.n < 16:
            raise GridError(f"grid requires at least 16 cells, got {self.n}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n

    @property
    def centers(self) -> np.ndarray:
        out = self.x_min + (np.arange(self.n) + 0.5) * self.dx
        out.flags.writeable = False
        return out

    @property
    def edges(self) -> np.ndarray:
        out = self.x_min + np.arange(self.n + 1) * self.dx
        out.flags.writeable = False
        return out

    @classmethod
    def symmetric(cls, half_width: float, n: int) -> "Grid":
        return cls(-half_width, half_width, n)

    def momentum_dual(self, hbar: float = 1.0) -> "Grid":
        """Momentum grid of the unitary transform: n cells of width
        dp = 2*pi*hbar/(n*dx) spanning [-pi*hbar/dx, pi*hbar/dx). The
        relation is symmetric: the dual of a momentum grid is the position
        grid of the inverse transform."""
        h = _check_positive("hbar", hbar)
        dp = 2.0 * math.pi * h / (self.n * self.dx)
        half = 0.5 * self.n * dp
        return Grid(-half, half, self.n)


@dataclass(frozen=True, eq=False)
class GriddedState:
    """Normalised complex amplitudes on a grid.

    ``amplitudes[j]`` is the value on cell j; the stored array is
    read-only. sum(|amplitudes|^2) * dx must equal 1 to within 1e-8.
    The same type represents position- and momentum-space states; which
    one it is follows from how it was produced.
    """

    grid: Grid
    amplitudes: np.ndarray
    hbar: float = 1.0

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.grid.n,):
            raise GridError(
                f"expected {self.grid.n} amplitudes, got shape {amps.shape}"
            )
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise DomainError("amplitudes must be finite")
        _check_positive("hbar", self.hbar)
        norm = float(np.sum(np.abs(amps) ** 2)) * self.grid.dx
        if abs(norm - 1.0) > _NORM_TOL:
            raise DomainError(
                f"state norm deviates from 1 by {abs(norm - 1.0):.3e} (tol {_NORM_TOL})"
            )
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def density(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def _normalised(grid: Grid, raw: np.ndarray, hbar: float) -> GriddedState:
    """Normalise ``raw`` in place and wrap it; callers pass a fresh
    complex array they no longer use."""
    density = np.abs(raw)
    np.square(density, out=density)
    norm = math.sqrt(float(np.sum(density)) * grid.dx)
    del density
    if not 0.0 < norm < math.inf:
        raise DomainError(f"cannot normalise a state of norm {norm:g}")
    return GriddedState(grid, np.divide(raw, norm, out=raw), hbar)


@dataclass(frozen=True)
class ConfidenceEstimate:
    """Result of a confidence-uncertainty minimisation.

    ``measure`` is the optimal set measure (length). ``support`` is the
    optimal window (x1, x2) from :func:`interval_confidence_uncertainty`,
    and from :func:`confidence_uncertainty` the density threshold whose
    superlevel set was taken, as a one-element tuple.
    """

    theta: float
    measure: float
    support: tuple[float, ...]


# --------------------------------------------------------------------
# Fourier transforms
# --------------------------------------------------------------------


def _phase(n: int, *factors: float) -> np.ndarray:
    """e^(i*j*f1*f2*...) for j = 0..n-1, from cos and sin of a real angle.

    The angle is multiplied out left to right. That is how numpy rounds the
    imaginary part of a complex exponent such as sign*1j*t0*j*ds/h (it
    divides a complex by a real h as a product with 1/h), so the phase has
    the bits of ``np.exp`` of that exponent at half its time and memory.
    """
    angle = np.arange(n, dtype=np.float64)
    for factor in factors:
        angle *= factor
    phase = np.empty(n, dtype=np.complex128)
    np.cos(angle, out=phase.real)
    np.sin(angle, out=phase.imag)
    return phase


def _centred_dft(state: GriddedState, target: Grid, sign: int) -> GriddedState:
    """Carry ``state`` from its grid s to the dual grid t with the kernel
    (2*pi*hbar)^(-1/2) * e^(sign*i*s*t/hbar): as n*ds*dt = 2*pi*hbar, that
    is one FFT between a chirp carrying the target offset t0 on the input
    and one carrying the source offset s0 on the output.

    Each chirp is built by ``_phase`` and applied in place, and the FFT
    writes the sum over the chirped copy of the input (``out=``), so
    numpy allocates no array for it: besides the input, at most two
    n-cell complex arrays and one real one are alive at once.
    The operand order of each complex product is fixed: swapped operands
    change the last bits of numpy's complex product. A phase that an
    extreme hbar or source cell width puts out of floating-point range
    raises DomainError, naming both.
    """
    source, h = state.grid, state.hbar
    ds, dt = source.dx, target.dx
    s0 = source.x_min + 0.5 * ds
    t0 = target.x_min + 0.5 * dt
    # the unscaled sum (ifft without its 1/n)
    dft, norm = (np.fft.fft, "backward") if sign < 0 else (np.fft.ifft, "forward")
    try:
        with np.errstate(over="raise", invalid="raise"):
            out = _phase(source.n, sign * t0, ds, 1.0 / h)
            np.multiply(state.amplitudes, out, out=out)
            dft(out, norm=norm, out=out)
            post = _phase(source.n, sign * dt, s0, 1.0 / h)
            np.multiply(np.exp(sign * 1j * t0 * s0 / h), post, out=post)
            np.multiply(ds / math.sqrt(2.0 * math.pi * h), post, out=post)
    except FloatingPointError:
        raise DomainError(
            f"hbar = {h:g} with cells {ds:g} wide overflows the transform phases"
        ) from None
    np.multiply(post, out, out=out)
    del post
    return GriddedState(target, out, h)


def fourier_transform(state: GriddedState) -> GriddedState:
    """Unitary centered transform to the momentum representation.

    Discretises phi(p) = (2*pi*hbar)^(-1/2) * integral psi(x) e^(-ipx/hbar) dx
    on the cell centers of ``Grid.momentum_dual`` via one FFT with phase
    corrections for the grid offsets. Unitary to machine precision:
    sum(|phi|^2)*dp equals sum(|psi|^2)*dx exactly, not only in the
    continuum limit.
    """
    return _centred_dft(state, state.grid.momentum_dual(state.hbar), -1)


def inverse_fourier_transform(
    state: GriddedState, position_grid: Grid | None = None
) -> GriddedState:
    """Inverse of :func:`fourier_transform`.

    ``state`` holds momentum amplitudes on their grid. When
    ``position_grid`` is omitted, the dual of that grid is used: the
    symmetric grid [-n*dx/2, n*dx/2) with dx = 2*pi*hbar/(n*dp). A supplied
    grid may be offset but must have that n and dx for the pair to be
    unitary.
    """
    dual = state.grid.momentum_dual(state.hbar)
    if position_grid is None:
        position_grid = dual
    elif position_grid.n != dual.n:
        raise GridError("position grid must have the same cell count")
    elif abs(position_grid.dx - dual.dx) > 1e-12 * dual.dx:
        raise GridError(
            "position grid spacing incompatible with the momentum grid: "
            f"expected dx = {dual.dx!r}, got {position_grid.dx!r}"
        )
    return _centred_dft(state, position_grid, 1)


# --------------------------------------------------------------------
# Probability and confidence functionals
# --------------------------------------------------------------------


def _cumulative(state: GriddedState) -> np.ndarray:
    """Cumulative mass at each cell edge (length n+1, starts at 0)."""
    cum = np.empty(state.grid.n + 1)
    cum[0] = 0.0
    np.cumsum(state.density * state.grid.dx, out=cum[1:])
    return cum


def _masses(state: GriddedState, intervals: Sequence[tuple[float, float]]) -> list[float]:
    """Mass in each interval (a, b), all read from one cumulative; the
    intervals are taken as checked."""
    ends = np.interp(np.ravel(intervals), state.grid.edges, _cumulative(state))
    return [float(max(hi - lo, 0.0)) for lo, hi in ends.reshape(-1, 2)]


def probability_in_interval(state: GriddedState, a: float, b: float) -> float:
    """Probability mass in [a, b] under the piecewise-constant density.

    Exact for the cell model: the cumulative is piecewise linear, so
    endpoints inside a cell contribute the covered fraction of that
    cell. Endpoints outside the grid clamp to its boundary.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("interval endpoints must be finite")
    if a > b:
        raise DomainError(f"interval requires a <= b, got [{a}, {b}]")
    return _masses(state, [(a, b)])[0]


def _clamp_theta(theta: float, total: float) -> float:
    if not 0.0 < theta <= 1.0:
        raise DomainError(f"theta must lie in (0, 1], got {theta}")
    return min(theta, total)


def confidence_uncertainty(state: GriddedState, theta: float) -> ConfidenceEstimate:
    """Smallest measure of a measurable set carrying probability theta.

    The optimum is a superlevel set of the density: take cells in
    decreasing density order and stop once theta is reached, counting
    the final cell only for the fraction actually needed. ``support``
    holds the density of that final cell (the level of the optimal set).
    """
    masses = state.density * state.grid.dx
    ranking = np.argsort(masses)[::-1]
    sorted_masses = masses[ranking]
    cum = np.cumsum(sorted_masses)
    theta = _clamp_theta(theta, float(cum[-1]))
    k = int(np.searchsorted(cum, theta, side="left"))
    previous = cum[k - 1] if k > 0 else 0.0
    fraction = 0.0 if sorted_masses[k] == 0.0 else (theta - previous) / sorted_masses[k]
    measure = (k + fraction) * state.grid.dx
    level = float(sorted_masses[k] / state.grid.dx)
    return ConfidenceEstimate(
        theta=theta,
        measure=float(measure),
        support=(level,),
    )


def interval_confidence_uncertainty(
    state: GriddedState, theta: float
) -> ConfidenceEstimate:
    """Smallest length of a single interval carrying probability theta.

    Since the cumulative is piecewise linear, some optimal window has an
    endpoint on a cell edge: sliding a window between edge crossings
    changes its width linearly, so a minimum sits where an endpoint hits
    an edge. Windows with their left endpoint on an edge are swept on the
    state and on its mirror image, whose left-edge windows are the
    state's right-edge windows, and the shorter window wins; a tie goes
    to the left-edge window. Plateaus of the cumulative (runs of empty
    cells) are resolved towards the shorter window.
    """
    edges = state.grid.edges
    cum = _cumulative(state)
    masses = state.density * state.grid.dx
    dx = state.grid.dx
    theta = _clamp_theta(theta, float(cum[-1]))

    def sweep(edges, cum, masses) -> tuple[float, float, float]:
        # shortest (width, x1, x2) with x1 a cell edge and x2 the smallest
        # x whose cumulative reaches cum(x1) + theta; x1 = edges[0]
        # always qualifies, since theta is at most the total mass
        ok = cum + theta <= cum[-1] + 1e-15
        x1 = edges[ok]
        targets = cum[ok] + theta
        j = np.clip(np.searchsorted(cum, targets, side="left"), 1, len(cum) - 1)
        step = masses[j - 1]
        frac = np.where(step > 0.0, (targets - cum[j - 1]) / np.where(step > 0, step, 1.0), 1.0)
        x2 = edges[j - 1] + np.clip(frac, 0.0, 1.0) * dx
        i = int(np.argmin(x2 - x1))
        return float(x2[i] - x1[i]), float(x1[i]), float(x2[i])

    width, x1, x2 = sweep(edges, cum, masses)
    mirrored = sweep(-edges[::-1], cum[-1] - cum[::-1], masses[::-1])
    if mirrored[0] < width:
        width, x1, x2 = mirrored[0], -mirrored[2], -mirrored[1]
    return ConfidenceEstimate(
        theta=theta,
        measure=width,
        support=(x1, x2),
    )


def differential_entropy(state: GriddedState) -> float:
    """Trapezoid estimate of -integral rho ln(rho) over cell centers.

    Cells with zero density contribute nothing (the 0*ln(0) = 0
    convention). Accurate when the density is smooth on the grid scale;
    states with jump discontinuities converge slowly in dx.
    """
    rho = state.density
    integrand = np.zeros_like(rho)
    positive = rho > 0.0
    integrand[positive] = -rho[positive] * np.log(rho[positive])
    return float(np.trapezoid(integrand, state.grid.centers))


# --------------------------------------------------------------------
# State constructors
# --------------------------------------------------------------------


def gaussian_state(grid: Grid, sigma: float, hbar: float = 1.0) -> GriddedState:
    """Minimum-uncertainty Gaussian with position deviation sigma.

    psi(x) = (2*pi*sigma^2)^(-1/4) exp(-x^2 / (4*sigma^2)), renormalised
    on the grid; its momentum density is Gaussian with deviation
    hbar/(2*sigma). The grid must hold essentially all of the mass, and
    a sigma that takes the state out of floating-point range is a
    DomainError.
    """
    h = _check_positive("hbar", hbar)
    _check_positive("sigma", sigma)
    # mass of the Gaussian beyond each end of the grid
    scale = sigma * math.sqrt(2)
    tail = 0.5 * (math.erfc(-grid.x_min / scale) + math.erfc(grid.x_max / scale))
    if tail > 1e-6:
        raise GridError(
            f"grid too narrow for sigma={sigma}: truncated tail mass ~{tail:.2e}"
        )
    x = grid.centers
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            raw = np.exp(-(x**2) / (4.0 * sigma * sigma)).astype(np.complex128)
            return _normalised(grid, raw, h)
    except FloatingPointError:
        raise DomainError(
            f"sigma = {sigma:g} takes the Gaussian out of floating-point range"
        ) from None


def _check_rect_sinc(length: float, width: float, weight: float) -> None:
    _check_positive("length", length)
    _check_positive("width", width)
    if not 0.0 <= weight <= 1.0:
        raise DomainError(f"weight must lie in [0, 1], got {weight}")


def rect_sinc_prediction(
    length: float, width: float, weight: float, hbar: float = 1.0
) -> tuple[float, float]:
    """Continuum masses (position_mass, momentum_mass) of the
    rectangle/sinc superposition: the probability inside [-L/2, L/2] and
    inside [-W/2, W/2], the pair that :func:`_rect_sinc_masses` reads on
    a grid. Both exceed 1/2 at P = 1/2 for every L, W > 0.

    With c = L*W/(4*hbar), the cross term is s = sqrt(2/(pi*c)) * Si(c)
    and the sinc mass inside the rectangle is
    m = (2/pi) * (Si(2c) - sin(c)^2 / c). The momentum mass follows from
    the same formulas under (L, W, P) -> (W, L, 1-P). A c outside the
    normal doubles is a DomainError.
    """
    h = _check_positive("hbar", hbar)
    _check_rect_sinc(length, width, weight)
    c = length * width / (4.0 * h)
    if not sys.float_info.min <= c <= sys.float_info.max:
        raise DomainError(
            f"hbar = {h:g}: the window product c = {c:g} at (L, W) = "
            f"({length}, {width}) is outside the normal doubles"
        )
    s = math.sqrt(2.0 / (math.pi * c)) * sine_integral(c)
    m_in = (2.0 / math.pi) * (sine_integral(2.0 * c) - math.sin(c) ** 2 / c)
    cross = 2.0 * math.sqrt(weight * (1.0 - weight)) * s
    norm_sq = 1.0 + cross
    mass_x = (weight + (1.0 - weight) * m_in + cross) / norm_sq
    mass_p = ((1.0 - weight) + weight * m_in + cross) / norm_sq
    return mass_x, mass_p


def _centres(grid: Grid, cells: np.ndarray) -> np.ndarray:
    """Centres of the given cells, with the bits of ``grid.centers[cells]``."""
    return grid.x_min + (cells + 0.5) * grid.dx


def _cell_span(grid: Grid, a: float, b: float) -> np.ndarray:
    """Indices of the cells that [a, b] may meet, with one spare cell on
    each side, clamped to the grid."""

    def index(x: float) -> float:
        return min(max((x - grid.x_min) / grid.dx, -1.0), grid.n + 1.0)

    return np.arange(max(math.floor(index(a)) - 1, 0), min(math.ceil(index(b)) + 1, grid.n))


def _covered_cells(grid: Grid, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the cells that [a, b] meets, and the fraction of each
    that it covers: the weights with which ``probability_in_interval``
    reads their masses."""
    cells = _cell_span(grid, a, b)
    left = grid.x_min + cells * grid.dx
    right = grid.x_min + (cells + 1) * grid.dx
    covered = (np.minimum(right, b) - np.maximum(left, a)) / (right - left)
    return cells, np.clip(covered, 0.0, 1.0)


def _window_cells(grid: Grid, width: float, what: str) -> tuple[np.ndarray, float]:
    """Indices of the cells lying fully inside [-width/2, width/2], and
    the norm sqrt(count*dx) of their indicator. Only the cells near the
    window are tested, so no n-cell array is built."""
    # rounding of the cell centers scales with the domain span, so the
    # inclusion tolerance must too (it stays far below one cell)
    tol = 1e-12 * (abs(grid.x_min) + abs(grid.x_max) + grid.dx)
    reach = 0.5 * width - 0.5 * grid.dx + tol
    cells = _cell_span(grid, -reach, reach)
    cells = cells[np.abs(_centres(grid, cells)) <= reach]
    if cells.size < 1:
        raise GridError(
            f"no {what} cell fits inside a width of {width} (cells are {grid.dx:.4g} wide)"
        )
    return cells, math.sqrt(cells.size * grid.dx)


def _sinc_reach(width: float, hbar: float) -> float:
    """Half-width at which the sinc tail 2*hbar/(pi*W*|x|) of a band of
    width W has fallen to 1e-2, the most wrap-around a grid may carry."""
    return 2.0 * hbar / (math.pi * width * 1e-2)


def _check_sinc_reach(grid: Grid, width: float, hbar: float) -> None:
    reach = _sinc_reach(width, hbar)
    if not (grid.x_min <= -reach and grid.x_max >= reach):
        raise GridError(
            "grid too narrow for the band-limited component: "
            f"extend the domain to at least +-{reach:.4g}"
        )


def _rect_sinc_grid(length: float, width: float, hbar: float) -> Grid:
    """Power-of-two grid resolving the window (dx = L/8) and reaching
    ``_sinc_reach`` on both sides."""
    dx = length / 8.0
    reach = _sinc_reach(width, hbar)
    n = 16
    while n * dx < 2.0 * reach:
        n *= 2
        if n > (1 << 24):
            raise DomainError("rect-sinc grid would exceed 2^24 cells; increase L*W")
    return Grid.symmetric(0.5 * n * dx, n)


def _gaussian_grid(sigma: float) -> Grid:
    """4096 cells over [-16*sigma, 16*sigma]: the truncated tail is far
    below the 1e-6 that ``gaussian_state`` accepts."""
    _check_positive("sigma", sigma)
    return Grid.symmetric(16.0 * sigma, 4096)


def rect_sinc_state(
    grid: Grid,
    length: float,
    width: float,
    weight: float,
    hbar: float = 1.0,
) -> GriddedState:
    """Superposition sqrt(P)*rect + sqrt(1-P)*sinc on a grid.

    The rectangle is the normalised indicator of the cells lying fully
    inside [-L/2, L/2]; the sinc component is the inverse transform of
    the normalised indicator of the momentum cells lying fully inside
    [-W/2, W/2], so it is exactly band-limited on the grid. Cross terms
    are then nonnegative cell by cell, which keeps the joint-confidence
    excess over 1/2 strict on any admissible grid, not only in the
    continuum limit.

    The sinc tail decays like 2*hbar/(pi*W*|x|). Holding wrap-around
    below 1e-2 needs both grid ends at least 2*hbar/(pi*W*1e-2) from the
    origin; narrower grids raise GridError rather than silently aliasing.
    """
    h = _check_positive("hbar", hbar)
    _check_rect_sinc(length, width, weight)

    if weight < 1.0:
        _check_sinc_reach(grid, width, h)
        dual = grid.momentum_dual(h)
        # each array is dropped once used, so the transform sets the peak
        band, norm = _window_cells(dual, width, "momentum")
        indicator = np.zeros(grid.n, dtype=np.complex128)
        indicator[band] = 1.0 / norm
        del band
        sinc = inverse_fourier_transform(GriddedState(dual, indicator, h), grid)
        del indicator
        raw = math.sqrt(1.0 - weight) * sinc.amplitudes
        del sinc
        # -0.0 + 0.0 is +0.0: the same bits as adding the sinc to zeros
        raw += 0.0
    else:
        raw = np.zeros(grid.n, dtype=np.complex128)
    if weight > 0.0:
        inside, norm = _window_cells(grid, length, "position")
        raw[inside] += math.sqrt(weight) / norm
    return _normalised(grid, raw, h)


def _rect_sinc_masses(
    grid: Grid, length: float, width: float, weight: float, hbar: float = 1.0
) -> tuple[float, float]:
    """Position mass in [-L/2, L/2] and momentum mass in [-W/2, W/2] of
    ``rect_sinc_state(grid, L, W, P, hbar)``, read as
    ``probability_in_interval`` reads them, without building the state.

    The sinc is the inverse transform of the band indicator and the
    rectangle is the indicator of the window cells, so the amplitude of
    either component on a cell that an interval meets is a sum, over the
    band or the window cells, of the cell model's kernel
    (2*pi*hbar)^(-1/2) * e^(isp/hbar) * ds. Both components are unit
    vectors, so the norm needs only their overlap on the window cells.
    The work is (window cells + 2) * (band cells + 2) phases, taken as
    x*(p/hbar) so that no angle overflows at any hbar. The validation is
    that of ``rect_sinc_state``.
    """
    h = _check_positive("hbar", hbar)
    _check_rect_sinc(length, width, weight)
    dual = grid.momentum_dual(h)
    # amplitudes in q = p/hbar, where the kernel is (2*pi)^(-1/2)*e^(ixq)
    dx, dq = grid.dx, dual.dx / h
    kernel = 1.0 / math.sqrt(2.0 * math.pi)
    x_cells, x_cover = _covered_cells(grid, -0.5 * length, 0.5 * length)
    p_cells, p_cover = _covered_cells(dual, -0.5 * width, 0.5 * width)
    x = _centres(grid, x_cells)
    q = _centres(dual, p_cells) / h
    psi = np.zeros(x.size, dtype=np.complex128)
    phi = np.zeros(q.size, dtype=np.complex128)
    overlap = 0.0
    if weight < 1.0:
        _check_sinc_reach(grid, width, h)
        band, _ = _window_cells(dual, width, "momentum")
        amp = math.sqrt((1.0 - weight) / (band.size * dq))
        phi[np.isin(p_cells, band)] += amp
        phases = np.exp(1j * np.multiply.outer(x, _centres(dual, band) / h))
        psi += kernel * amp * dq * phases.sum(axis=1)
    if weight > 0.0:
        window, norm = _window_cells(grid, length, "position")
        amp = math.sqrt(weight) / norm
        inside = np.isin(x_cells, window)
        overlap = 2.0 * amp * dx * float(np.sum(psi[inside].real))
        psi[inside] += amp
        phases = np.exp(-1j * np.multiply.outer(q, _centres(grid, window)))
        phi += kernel * amp * dx * phases.sum(axis=1)
    norm_sq = 1.0 + overlap
    mass_x = float(np.sum(x_cover * np.abs(psi) ** 2)) * dx / norm_sq
    mass_p = float(np.sum(p_cover * np.abs(phi) ** 2)) * dq / norm_sq
    return mass_x, mass_p


def slepian_state(
    c: float,
    length: float,
    hbar: float = 1.0,
    grid: Grid | None = None,
) -> GriddedState:
    """Principal prolate function scaled to the window [-L/2, L/2].

    psi(x) = sqrt(2/L) * psi0(2x/L) on the cells lying fully inside the
    window and 0 elsewhere, renormalised on the grid, with psi0 summed
    from its Legendre series at every cell centre. Holds all its
    position mass in the window on any grid, and a momentum fraction
    lambda0(c) in the band |p| <= W/2 with W = 4*hbar*c/L, which
    saturates the interval bound.

    When ``grid`` is omitted, 2^15 cells over [-64L, 64L] are used: the
    window edges fall on cell edges, so the window is filled, and the
    band holds about 81*c momentum cells, so its mass is within 1e-5 of
    lambda0(c) at c = 0.5, 1.5 and 4. A supplied grid must put at least
    64 cells inside the window, and a length that takes the state out of
    floating-point range is a DomainError.
    """
    h = _check_positive("hbar", hbar)
    _check_positive("length", length)
    if grid is None:
        grid = Grid.symmetric(64.0 * length, 1 << 15)
    inside, _ = _window_cells(grid, length, "position")
    if inside.size < 64:
        raise GridError(
            "grid puts fewer than 64 cells inside the window; refine the grid"
        )
    _, psi0 = _principal_values(c, 2.0 * _centres(grid, inside) / length)
    raw = np.zeros(grid.n, dtype=np.complex128)
    try:
        with np.errstate(over="raise", invalid="raise"):
            # numpy arithmetic, so that 2/L overflowing raises as well
            raw[inside] = np.sqrt(2.0 / np.float64(length)) * psi0
            return _normalised(grid, raw, h)
    except FloatingPointError:
        raise DomainError(
            f"length = {length:g} takes the state out of floating-point range"
        ) from None


def random_smooth_state(grid: Grid, seed: int, hbar: float = 1.0) -> GriddedState:
    """Seeded random state: complex white noise under a 5-cell moving
    average, normalised. Used as an adversarial corpus for inequality
    checks; smoothing keeps the momentum density away from the Nyquist
    edge so the cell model stays a faithful discretisation."""
    h = _check_positive("hbar", hbar)
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    window = np.ones(5) / 5.0
    smooth = np.convolve(raw.real, window, mode="same") + 1j * np.convolve(
        raw.imag, window, mode="same"
    )
    return _normalised(grid, smooth, h)


# --------------------------------------------------------------------
# Projection-inequality witness
# --------------------------------------------------------------------


@dataclass(frozen=True)
class LenardWitness:
    """One evaluation of the two-projection angle inequality.

    For any state, arccos of the position overlap plus arccos of the
    momentum overlap is at least arccos of the largest two-projection
    cosine, which is sqrt(lambda0(|X| |P| / (4*hbar))). ``margin`` is
    lhs - rhs; ``holds`` allows ``slack``, a fixed 1e-6, for grid effects.
    """

    x_interval: tuple[float, float]
    p_interval: tuple[float, float]
    position_probability: float
    momentum_probability: float
    angle_sum: float
    minimal_angle: float
    concentration: float
    margin: float
    slack: float
    holds: bool


def verify_lenard(
    state: GriddedState,
    x_interval: tuple[float, float],
    p_interval: tuple[float, float],
) -> LenardWitness:
    """Check the angle inequality for one state and one interval pair.

    Probabilities are clipped into [0, 1] before taking arccos of their
    square roots; the momentum probability is evaluated on the unitary
    transform of the state. The one-window case of
    :func:`verify_lenard_batch`.
    """
    return verify_lenard_batch(state, [(x_interval, p_interval)])[0]


def verify_lenard_batch(
    state: GriddedState,
    windows: Sequence[tuple[tuple[float, float], tuple[float, float]]],
) -> list[LenardWitness]:
    """:func:`verify_lenard` for each ``(x_interval, p_interval)`` in
    ``windows``, in order, from one transform of the state.

    Every window is checked before any work is done; the position masses
    come from one cumulative of the state and the momentum masses from
    one cumulative of its transform, and lambda0 of every window's
    concentration from the stacked eigensolver. The one-state case of
    :func:`_verify_lenard_states`.
    """
    return next(_verify_lenard_states([(state, windows)]))


def _verify_lenard_states(
    items: Iterable[
        tuple[GriddedState, Sequence[tuple[tuple[float, float], tuple[float, float]]]]
    ],
) -> Iterator[list[LenardWitness]]:
    """:func:`verify_lenard_batch` for each ``(state, windows)`` in
    ``items``, yielded in order.

    Each state's windows are checked and its masses read as it arrives,
    so no state is held past that; lambda0 of every window of every
    state then comes from one call of the stacked eigensolver, before the
    first list is yielded. Only the window ends, masses and
    concentrations are kept until then.
    """
    read = []
    for state, windows in items:
        for (x1, x2), (p1, p2) in windows:
            if not (x1 < x2 and p1 < p2):
                raise DomainError("intervals must have positive length")
            if not all(math.isfinite(v) for v in (x1, x2, p1, p2)):
                raise DomainError("interval endpoints must be finite")
        ends = np.array(windows, dtype=np.float64).reshape(-1, 4)
        position = _masses(state, ends[:, :2])
        momentum = _masses(fourier_transform(state), ends[:, 2:])
        cs = (ends[:, 1] - ends[:, 0]) * (ends[:, 3] - ends[:, 2]) / (4.0 * state.hbar)
        read.append((ends, position, momentum, cs))
    eigenvalues = iter(_eigenpairs(np.concatenate([cs for *_, cs in read]))[0].tolist())
    for ends, position, momentum, cs in read:
        yield [
            _lenard_witness(window, mass_x, mass_p, c, next(eigenvalues))
            for window, mass_x, mass_p, c in zip(ends.tolist(), position, momentum, cs.tolist())
        ]


def _lenard_witness(
    window: list[float], mass_x: float, mass_p: float, c: float, value: float
) -> LenardWitness:
    """The witness of one window, given as x1, x2, p1, p2, from its two
    masses, its concentration c and lambda0(c)."""
    x1, x2, p1, p2 = window
    px = min(max(mass_x, 0.0), 1.0)
    pp = min(max(mass_p, 0.0), 1.0)
    lhs = math.acos(math.sqrt(px)) + math.acos(math.sqrt(pp))
    rhs = math.acos(math.sqrt(value))
    margin = lhs - rhs
    return LenardWitness(
        x_interval=(x1, x2),
        p_interval=(p1, p2),
        position_probability=px,
        momentum_probability=pp,
        angle_sum=lhs,
        minimal_angle=rhs,
        concentration=c,
        margin=margin,
        slack=_LENARD_SLACK,
        holds=margin >= -_LENARD_SLACK,
    )

