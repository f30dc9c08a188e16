"""Bound evaluators over the confidence square.

Each function takes a pair of confidence levels (theta_x, theta_p) and
returns a lower bound on an uncertainty product. Below the line
theta_x + theta_p = 1 both confidence uncertainties can vanish
simultaneously, so every bound is zero there (the trivial region); above
it the products are bounded away from zero. The tight interval bound is
implicit through the inverse concentration eigenvalue; the remaining
bounds are closed forms used for comparison.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.typing import NDArray

from .errors import BoundDivergenceError, DomainError
from .numerics import _check_positive, erf_inverse
from .slepian import lambda0_inverse_batch

__all__ = [
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
]

# ordering of the computed bounds is exact mathematics; this slack only
# absorbs the root-finding tolerance inside the inverse eigenvalue
_ORDER_SLACK = 1e-8


def _scaled(name: str, bound, hbar: float):
    """A bound, or an array of them, scaled by hbar, passed on only if each
    is 0 or a normal double.

    The error names the bound and hbar but not a cause: the confidences
    alone can take a bound out of range at hbar = 1.
    """
    values = np.ravel(bound)
    size = np.abs(values)
    normal = (sys.float_info.min <= size) & (size <= sys.float_info.max)
    bad = values[(size != 0.0) & ~normal]
    if bad.size:
        raise DomainError(f"hbar = {hbar:g}: the {name} {bad[0]:g} is outside the normal doubles")
    return bound


class Region(Enum):
    """Classification of a confidence pair."""

    TRIVIAL = "trivial"
    BOUNDED = "bounded"


@dataclass(frozen=True)
class ConfidencePair:
    """Confidence levels (theta_x, theta_p), each in [0, 1]."""

    theta_x: float
    theta_p: float

    def __post_init__(self) -> None:
        for name, value in (("theta_x", self.theta_x), ("theta_p", self.theta_p)):
            if not 0.0 <= value <= 1.0:
                raise DomainError(f"{name} must lie in [0, 1], got {value}")

    def swapped(self) -> "ConfidencePair":
        return ConfidencePair(self.theta_p, self.theta_x)


def _as_pair(pair: ConfidencePair | tuple[float, float]) -> ConfidencePair:
    if isinstance(pair, ConfidencePair):
        return pair
    return ConfidencePair(*pair)


def classify_region(pair: ConfidencePair | tuple[float, float]) -> Region:
    """Trivial iff theta_x + theta_p <= 1, bounded otherwise."""
    p = _as_pair(pair)
    return Region.TRIVIAL if p.theta_x + p.theta_p <= 1.0 else Region.BOUNDED


def _angular_targets(tx: NDArray[np.float64], tp: NDArray[np.float64]) -> NDArray[np.float64]:
    """:func:`angular_target` at each pair of two arrays of confidences,
    taken as checked."""
    s = tx + tp
    # the difference of the two square roots is (tx + tp - 1) over their
    # sum; forming it so, with that excess exact, keeps T's relative
    # accuracy near the trivial line, where the difference cancels. err is
    # the rounding error of s (TwoSum), and s - 1 is exact for s in (1, 2],
    # so (s - 1) + err is tx + tp - 1 rounded once
    back = s - tx
    err = (tx - (s - back)) + (tp - back)
    bounded = s > 1.0
    x, y = tx[bounded], tp[bounded]
    root = ((s[bounded] - 1.0) + err[bounded]) / (
        np.sqrt(x * y) + np.sqrt((1.0 - x) * (1.0 - y))
    )
    targets = np.zeros(s.shape)
    targets[bounded] = root * root
    return targets


def _measurable_bounds(
    tx: NDArray[np.float64], tp: NDArray[np.float64], h: float
) -> NDArray[np.float64]:
    """:func:`lp_measurable_bound` at each pair, with hbar checked."""
    # an hbar so large that 2 pi hbar is inf gives nan at T = 0, which
    # _scaled refuses, as it does for one pair
    with np.errstate(invalid="ignore"):
        bounds = 2.0 * math.pi * h * _angular_targets(tx, tp)
    return _scaled("measurable bound", bounds, h)


def _donoho_stark_bounds(
    tx: NDArray[np.float64], tp: NDArray[np.float64], h: float
) -> NDArray[np.float64]:
    """:func:`donoho_stark_bound` at each pair, with hbar checked."""
    root = 1.0 - np.sqrt(1.0 - tx) - np.sqrt(1.0 - tp)
    positive = root > 0.0
    bounds = np.zeros(root.shape)
    bounds[positive] = 2.0 * math.pi * h * root[positive] * root[positive]
    return _scaled("Donoho-Stark bound", bounds, h)


def _one_pair(form, pair: ConfidencePair | tuple[float, float], *args) -> float:
    """One of the array forms above at a single pair."""
    p = _as_pair(pair)
    return float(form(np.array([p.theta_x]), np.array([p.theta_p]), *args)[0])


def angular_target(pair: ConfidencePair | tuple[float, float]) -> float:
    """Squared-cosine target T = (sqrt(tx*tp) - sqrt((1-tx)(1-tp)))^2.

    T is the squared cosine of the minimal angle budget left by the two
    projection overlaps; it is the argument fed to the inverse
    eigenvalue. Returns 0 in the trivial region, where no constraint
    survives, and satisfies T(1, tp) = tp.
    """
    return _one_pair(_angular_targets, pair)


def lp_measurable_bound(
    pair: ConfidencePair | tuple[float, float], hbar: float = 1.0
) -> float:
    """Lower bound 2*pi*hbar*T on the measurable-set uncertainty product.

    Applies to confidence uncertainties over arbitrary measurable sets;
    zero in the trivial region.
    """
    return _one_pair(_measurable_bounds, pair, _check_positive("hbar", hbar))


def lp_interval_bounds(
    pairs: Sequence[ConfidencePair | tuple[float, float]],
    hbar: float = 1.0,
) -> NDArray[np.float64]:
    """Tight lower bounds 4*hbar*lambda0_inverse(T), one per pair.

    Zero in the trivial region (T = 0). T comes from the array form of
    :func:`angular_target`, and the remaining targets are inverted
    together, by Newton iterations run in lockstep, which makes dense
    maps much cheaper than pair-by-pair inversion. Returns the bounds in
    input order.

    Raises
    ------
    BoundDivergenceError
        If any pair sits at full confidence in both variables (T = 1),
        where a state supported on one interval cannot be fully
        band-limited and the bound grows without limit.
    """
    h = _check_positive("hbar", hbar)
    checked = [_as_pair(p) for p in pairs]
    targets = _angular_targets(
        np.array([p.theta_x for p in checked]), np.array([p.theta_p for p in checked])
    )
    if np.any(targets >= 1.0):
        raise BoundDivergenceError(
            "the interval bound diverges at full confidence in both variables"
        )
    bounded = targets > 0.0
    out = np.zeros(targets.size)
    with np.errstate(over="ignore"):
        out[bounded] = 4.0 * h * lambda0_inverse_batch(targets[bounded])
    for bound in (out.max(initial=0.0), out[bounded].min(initial=0.0)):
        _scaled("interval bound", float(bound), h)
    return out


def lp_interval_bound(
    pair: ConfidencePair | tuple[float, float], hbar: float = 1.0
) -> float:
    """Tight lower bound 4*hbar*lambda0_inverse(T) on the interval product.

    The one-pair case of :func:`lp_interval_bounds`: zero in the trivial
    region, BoundDivergenceError at (1, 1). Strictly larger than the
    measurable-set bound in the interior of the bounded region.
    """
    return float(lp_interval_bounds([pair], hbar=hbar)[0])


def log_asymptote(theta_p: float, hbar: float = 1.0) -> float:
    """High-confidence asymptote -2*hbar*ln(1-theta_p) of the interval bound.

    Leading behaviour of lp_interval_bound((1, theta_p)) as theta_p -> 1;
    the approach is logarithmically slow, so at moderate theta_p this
    undershoots the exact bound noticeably. The tail law
    1 - lambda0 ~ 4*sqrt(pi*c)*exp(-2c) gives the next order,
    2c = -ln(1-theta_p) + ln 4 + 0.5*ln(pi*c) + o(1). At 1 - theta_p = 1e-6
    the exact bound is still 21% above this leading term (ratio 1.2146),
    while 4*hbar*c from the two-term law is within 0.4% of it.
    """
    h = _check_positive("hbar", hbar)
    if not 0.0 < theta_p < 1.0:
        raise DomainError(f"log_asymptote requires 0 < theta_p < 1, got {theta_p}")
    return -2.0 * h * math.log1p(-theta_p)


def donoho_stark_bound(
    pair: ConfidencePair | tuple[float, float], hbar: float = 1.0
) -> float:
    """Hilbert-Schmidt bound 2*pi*hbar*(1 - sqrt(1-tx) - sqrt(1-tp))^2_+.

    Valid for arbitrary measurable sets but never larger than the
    measurable-set bound above; clamps to zero where the bracket goes
    negative.
    """
    return _one_pair(_donoho_stark_bounds, pair, _check_positive("hbar", hbar))


def elementary_bound(pair: ConfidencePair | tuple[float, float]) -> float | None:
    """Elementary floor on the coefficient-matrix norm, where it applies.

    Returns (pi/tx) * (tp - 2*sqrt((tx+tp-1)(1-tx))) when
    2*tx + tp > 2, and None otherwise (absence is a value here, not an
    error). At tx = 1 this reduces to pi*tp, meeting the defining
    relation of the tight bound on that edge; away from it the bound
    degrades quickly.
    """
    p = _as_pair(pair)
    if 2.0 * p.theta_x + p.theta_p <= 2.0:
        return None
    inner = (p.theta_x + p.theta_p - 1.0) * (1.0 - p.theta_x)
    return (math.pi / p.theta_x) * (p.theta_p - 2.0 * math.sqrt(inner))


def gaussian_interval_product(theta: float, hbar: float = 1.0) -> float:
    """Interval uncertainty product 4*hbar*erf_inverse(theta)^2 of a
    minimum-uncertainty Gaussian at equal confidences.

    Raises
    ------
    DomainError
        If theta is outside (0, 1).
    """
    h = _check_positive("hbar", hbar)
    if not 0.0 < theta < 1.0:
        raise DomainError(
            f"gaussian_interval_product requires 0 < theta < 1, got {theta}"
        )
    root = erf_inverse(theta)
    return _scaled("Gaussian product", 4.0 * h * root * root, h)


def bbm_reference(hbar: float = 1.0) -> float:
    """Entropic floor ln(pi * e * hbar) on h(x) + h(p)."""
    return math.log(math.pi * math.e * _check_positive("hbar", hbar))


@dataclass(frozen=True)
class BoundReport:
    """All applicable bounds at one confidence pair, for table emission.

    ``lp_interval`` is the value of :func:`lp_interval_bound`: 0 in the
    trivial region and +inf at (1, 1), where that function raises
    instead. ``elementary`` is None outside its validity domain
    2*theta_x + theta_p > 2. All products are in units of hbar as passed
    to :func:`report`.
    """

    pair: ConfidencePair
    region: Region
    angular_target: float
    lp_measurable: float
    lp_interval: float
    donoho_stark: float
    elementary: float | None
    gaussian_product: float

    def __post_init__(self) -> None:
        if classify_region(self.pair) is not self.region:
            raise DomainError("region tag contradicts theta_x + theta_p")
        if self.region is Region.TRIVIAL and self.lp_measurable != 0.0:
            raise DomainError("the measurable bound must vanish in the trivial region")
        slack = _ORDER_SLACK * max(1.0, self.lp_measurable)
        if self.lp_measurable < self.donoho_stark - slack:
            raise DomainError("bound ordering violated: measurable < Donoho-Stark")
        if self.lp_interval < self.lp_measurable - slack:
            raise DomainError("bound ordering violated: interval < measurable")


def report(
    pair: ConfidencePair | tuple[float, float], hbar: float = 1.0
) -> BoundReport:
    """Evaluate every bound at one pair of [0, 1]^2 and package the result.

    The interval bound is 0 in the trivial region and +inf at (1, 1),
    where :func:`lp_interval_bound` raises BoundDivergenceError. The
    Gaussian product generalises the equal-confidence formula to
    4*hbar*erf_inverse(tx)*erf_inverse(tp) and is +inf when either
    confidence is 1 (a Gaussian needs an infinite window for certainty).

    Raises
    ------
    DomainError
        If hbar is not positive and finite, or takes a bound out of the
        normal doubles.
    """
    p = _as_pair(pair)
    h = _check_positive("hbar", hbar)
    try:
        interval = lp_interval_bound(p, hbar=h)
    except BoundDivergenceError:
        interval = math.inf
    if p.theta_x == 1.0 or p.theta_p == 1.0:
        gaussian = math.inf
    elif p.theta_x == 0.0 or p.theta_p == 0.0:
        gaussian = 0.0
    else:
        gaussian = _scaled(
            "Gaussian product", 4.0 * h * erf_inverse(p.theta_x) * erf_inverse(p.theta_p), h
        )
    return BoundReport(
        pair=p,
        region=classify_region(p),
        angular_target=angular_target(p),
        lp_measurable=lp_measurable_bound(p, hbar=h),
        lp_interval=interval,
        donoho_stark=donoho_stark_bound(p, hbar=h),
        elementary=elementary_bound(p),
        gaussian_product=gaussian,
    )
