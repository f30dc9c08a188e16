"""Bound evaluators over the confidence square.

Each function takes a pair of confidence levels (theta_x, theta_p) and
returns a lower bound on an uncertainty product. Below the line
theta_x + theta_p = 1 both confidence uncertainties can vanish
simultaneously, so every bound is zero there (the trivial region); above
it the products are bounded away from zero. The tight interval bound is
implicit through the inverse concentration eigenvalue; the remaining
bounds are closed forms used for comparison. :func:`reports` tabulates
them all at many pairs as a dict of columns (``region`` is "trivial" or
"bounded"); each one-pair function, given the pair as a tuple, is its
column there, and :func:`report` is one row as a dict.
"""

from __future__ import annotations

import math
import numbers
import sys

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .errors import DomainError
from .numerics import _check_positive, erf_inverse
from .slepian import lambda0_inverse_batch

__all__ = [
    "classify_region",
    "angular_target",
    "lp_measurable_bound",
    "lp_interval_bound",
    "log_asymptote",
    "donoho_stark_bound",
    "elementary_bound",
    "gaussian_interval_product",
    "bbm_reference",
    "report",
    "reports",
]

# ordering of the computed bounds is exact mathematics; this slack only
# absorbs the root-finding tolerance inside the inverse eigenvalue
_ORDER_SLACK = 1e-8

_Array = NDArray[np.float64]


def _confidences(name: str, values: ArrayLike) -> _Array:
    """The one rule for confidence levels: each lies in [0, 1]."""
    try:
        levels = np.array(values, dtype=np.float64, ndmin=1)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be an array of levels in [0, 1], got {values!r}") from exc
    outside = ~((levels >= 0.0) & (levels <= 1.0))
    if outside.any():
        raise DomainError(f"{name} must lie in [0, 1], got {float(levels[outside][0])}")
    return levels


def _level(name: str, value: float) -> _Array:
    """One confidence level, refused unless it is a single real number
    (a Python or numpy scalar): the one-element array of :func:`_confidences`."""
    if not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a single level in [0, 1], got {value!r}")
    return _confidences(name, value)


def _scaled(name: str, bounds: _Array, h: float, tx: _Array, tp: _Array) -> _Array:
    """Bounds at the pairs (tx, tp), scaled by hbar, passed on only if each
    is 0 or a normal double. The error names hbar and the first offending
    pair: the confidences alone can take a bound out of range at hbar = 1."""
    size = np.abs(bounds)
    normal = (sys.float_info.min <= size) & (size <= sys.float_info.max)
    bad = np.flatnonzero((size != 0.0) & ~normal)
    if bad.size:
        k = bad[0]
        raise DomainError(
            f"hbar = {h:g}: the {name} {bounds[k]:g} at (theta_x, theta_p) = "
            f"({float(tx[k])}, {float(tp[k])}) is outside the normal doubles"
        )
    return bounds


def _levels(pair: tuple[float, float]) -> tuple[_Array, _Array]:
    """The two levels of one pair (theta_x, theta_p), each checked by
    :func:`_level`; anything that is not two values is a DomainError."""
    try:
        tx, tp = pair
    except (TypeError, ValueError):
        raise DomainError(f"a pair must be two levels (theta_x, theta_p), got {pair!r}") from None
    return _level("theta_x", tx), _level("theta_p", tp)


def _one_pair(form, pair: tuple[float, float], *args):
    """One of the array forms below at a single pair, as a Python value."""
    return form(*_levels(pair), *args).item()


def _regions(tx: _Array, tp: _Array) -> NDArray[np.str_]:
    """The :func:`classify_region` of each pair."""
    return np.where(tx + tp > 1.0, "bounded", "trivial")


def classify_region(pair: tuple[float, float]) -> str:
    """The region of one pair: "trivial" iff theta_x + theta_p <= 1, else "bounded"."""
    return _one_pair(_regions, pair)


def _angular_targets(tx: _Array, tp: _Array) -> _Array:
    """:func:`angular_target` at each pair of two checked arrays."""
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


def _measurable_bounds(tx: _Array, tp: _Array, h: float) -> _Array:
    """:func:`lp_measurable_bound` at each pair, with hbar checked."""
    targets = _angular_targets(tx, tp)
    # T = 0 gives 0 also where 2 pi hbar is inf
    positive = targets > 0.0
    bounds = np.zeros(targets.shape)
    bounds[positive] = 2.0 * math.pi * h * targets[positive]
    return _scaled("measurable bound", bounds, h, tx, tp)


def _interval_bounds(tx: _Array, tp: _Array, h: float) -> _Array:
    """:func:`lp_interval_bound` at each pair, +inf at T = 1, with hbar
    checked; the targets in (0, 1) are inverted together."""
    targets = _angular_targets(tx, tp)
    bounded = (targets > 0.0) & (targets < 1.0)
    bounds = np.zeros(targets.shape)
    with np.errstate(over="ignore"):
        bounds[bounded] = 4.0 * h * lambda0_inverse_batch(targets[bounded])
    _scaled("interval bound", bounds, h, tx, tp)
    bounds[targets >= 1.0] = math.inf
    return bounds


def _donoho_stark_bounds(tx: _Array, tp: _Array, h: float) -> _Array:
    """:func:`donoho_stark_bound` at each pair, with hbar checked."""
    root = 1.0 - np.sqrt(1.0 - tx) - np.sqrt(1.0 - tp)
    positive = root > 0.0
    bounds = np.zeros(root.shape)
    bounds[positive] = 2.0 * math.pi * h * root[positive] * root[positive]
    return _scaled("Donoho-Stark bound", bounds, h, tx, tp)


def _elementary_bounds(tx: _Array, tp: _Array) -> NDArray[np.object_]:
    """:func:`elementary_bound` at each pair, None where it does not apply."""
    applies = 2.0 * tx + tp > 2.0
    x, y = tx[applies], tp[applies]
    bounds = np.full(tx.shape, None)
    bounds[applies] = (math.pi / x) * (y - 2.0 * np.sqrt((x + y - 1.0) * (1.0 - x)))
    return bounds


def _gaussian_products(tx: _Array, tp: _Array, h: float) -> _Array:
    """4*hbar*erf_inverse(tx)*erf_inverse(tp) at each pair, with hbar checked:
    0 where a confidence is 0, +inf where one is 1; one erf_inverse per level."""
    levels, where = np.unique(np.concatenate((tx, tp)), return_inverse=True)
    roots = np.array([erf_inverse(v) if v < 1.0 else math.inf for v in levels.tolist()])
    rx, rp = np.split(roots[where], 2)
    certain = (tx == 1.0) | (tp == 1.0)
    inner = ~certain & (tx > 0.0) & (tp > 0.0)
    products = np.zeros(tx.shape)
    with np.errstate(over="ignore"):
        products[inner] = 4.0 * h * rx[inner] * rp[inner]
    _scaled("Gaussian product", products, h, tx, tp)
    products[certain] = math.inf
    return products


def angular_target(pair: tuple[float, float]) -> float:
    """Squared-cosine target T = (sqrt(tx*tp) - sqrt((1-tx)(1-tp)))^2.

    T is the squared cosine of the minimal angle budget left by the two
    projection overlaps; it is the argument fed to the inverse
    eigenvalue. Returns 0 in the trivial region, where no constraint
    survives, and satisfies T(1, tp) = tp.
    """
    return _one_pair(_angular_targets, pair)


def lp_measurable_bound(pair: tuple[float, float], hbar: float = 1.0) -> float:
    """Lower bound 2*pi*hbar*T on the measurable-set uncertainty product.

    Applies to confidence uncertainties over arbitrary measurable sets;
    zero in the trivial region.
    """
    return _one_pair(_measurable_bounds, pair, _check_positive("hbar", hbar))


def lp_interval_bound(pair: tuple[float, float], hbar: float = 1.0) -> float:
    """Tight lower bound 4*hbar*lambda0_inverse(T) on the interval product.

    The ``lp_interval`` column of :func:`reports` at one pair: zero in the
    trivial region (T = 0) and +inf at (1, 1) (T = 1), where a state
    supported on one interval cannot be fully band-limited. Strictly
    larger than the measurable-set bound in the interior of the bounded
    region.
    """
    return _one_pair(_interval_bounds, pair, _check_positive("hbar", hbar))


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


def donoho_stark_bound(pair: tuple[float, float], hbar: float = 1.0) -> float:
    """Hilbert-Schmidt bound 2*pi*hbar*(1 - sqrt(1-tx) - sqrt(1-tp))^2_+.

    Valid for arbitrary measurable sets but never larger than the
    measurable-set bound above; clamps to zero where the bracket goes
    negative.
    """
    return _one_pair(_donoho_stark_bounds, pair, _check_positive("hbar", hbar))


def elementary_bound(pair: tuple[float, float]) -> float | None:
    """Elementary floor on the coefficient-matrix norm, where it applies.

    Returns (pi/tx) * (tp - 2*sqrt((tx+tp-1)(1-tx))) when
    2*tx + tp > 2, and None otherwise (absence is a value here, not an
    error). At tx = 1 this reduces to pi*tp, meeting the defining
    relation of the tight bound on that edge; away from it the bound
    degrades quickly.
    """
    return _one_pair(_elementary_bounds, pair)


def gaussian_interval_product(theta: float, hbar: float = 1.0) -> float:
    """Interval uncertainty product 4*hbar*erf_inverse(theta)^2 of a
    minimum-uncertainty Gaussian at equal confidences: the
    ``gaussian_product`` of :func:`reports` at (theta, theta), 0 at
    theta = 0 and +inf at theta = 1.

    Raises
    ------
    DomainError
        If theta is outside [0, 1], or hbar takes the product out of the
        normal doubles.
    """
    h = _check_positive("hbar", hbar)
    levels = _level("theta", theta)
    return _gaussian_products(levels, levels, h).item()


def bbm_reference(hbar: float = 1.0) -> float:
    """Entropic floor ln(pi * e * hbar) on h(x) + h(p)."""
    return math.log(math.pi * math.e * _check_positive("hbar", hbar))


def _check_records(record: dict) -> None:
    """The one check of a :func:`reports` table, row by row:
    the region tag, 0 measurable bound in the trivial region, and
    interval >= measurable >= Donoho-Stark within _ORDER_SLACK."""
    region, measurable = record["region"], record["lp_measurable"]
    if np.any(region != _regions(record["theta_x"], record["theta_p"])):
        raise DomainError("region tag contradicts theta_x + theta_p")
    if np.any((region == "trivial") & (measurable != 0.0)):
        raise DomainError("the measurable bound must vanish in the trivial region")
    slack = _ORDER_SLACK * np.maximum(1.0, measurable)
    if np.any(measurable < record["donoho_stark"] - slack):
        raise DomainError("bound ordering violated: measurable < Donoho-Stark")
    if np.any(record["lp_interval"] < measurable - slack):
        raise DomainError("bound ordering violated: interval < measurable")


def reports(theta_x: ArrayLike, theta_p: ArrayLike, hbar: float = 1.0) -> dict[str, NDArray]:
    """Every bound at each pair (theta_x[k], theta_p[k]) of [0, 1]^2: a
    table of columns theta_x, theta_p, region ("trivial" or "bounded"),
    angular_target, lp_measurable, lp_interval, donoho_stark, elementary
    and gaussian_product. Each bound column is its one-pair function at
    every pair, in units of hbar: ``lp_interval`` is +inf at (1, 1), and
    ``elementary`` None where it does not apply. The bounded targets are
    inverted together, and every row is checked. The Gaussian product
    generalises the equal-confidence formula to
    4*hbar*erf_inverse(tx)*erf_inverse(tp) and is +inf when either
    confidence is 1 (a Gaussian needs an infinite window for certainty).

    Raises
    ------
    DomainError
        If the confidences are not two arrays of one length in [0, 1],
        hbar is not positive and finite, or a bound leaves the normal
        doubles.
    """
    tx, tp = _confidences("theta_x", theta_x), _confidences("theta_p", theta_p)
    if tx.ndim != 1 or tx.shape != tp.shape:
        raise DomainError("theta_x and theta_p must be two arrays of one length")
    h = _check_positive("hbar", hbar)
    # a bound out of range is named in the order interval, Gaussian,
    # measurable, Donoho-Stark
    interval, gaussian = _interval_bounds(tx, tp, h), _gaussian_products(tx, tp, h)
    table = {
        "theta_x": tx,
        "theta_p": tp,
        "region": _regions(tx, tp),
        "angular_target": _angular_targets(tx, tp),
        "lp_measurable": _measurable_bounds(tx, tp, h),
        "lp_interval": interval,
        "donoho_stark": _donoho_stark_bounds(tx, tp, h),
        "elementary": _elementary_bounds(tx, tp),
        "gaussian_product": gaussian,
    }
    _check_records(table)
    return table


def report(pair: tuple[float, float], hbar: float = 1.0) -> dict[str, object]:
    """Every bound at one pair of [0, 1]^2: the one-row case of
    :func:`reports`, its nine columns in order as a dict of Python values.

    Raises
    ------
    DomainError
        If the pair is not two levels in [0, 1], hbar is not positive and
        finite, or hbar takes a bound out of the normal doubles.
    """
    tx, tp = _levels(pair)
    return {name: column.item() for name, column in reports(tx, tp, hbar).items()}
