"""Bound evaluators on the confidence square.

Checks the closed forms against frozen references, the region split,
the ordering chain between the bounds, and linear scaling in hbar.
"""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confunc import bounds
from confunc.bounds import (
    angular_target,
    bbm_reference,
    classify_region,
    donoho_stark_bound,
    elementary_bound,
    gaussian_interval_product,
    log_asymptote,
    lp_interval_bound,
    lp_measurable_bound,
    report,
    reports,
)
from confunc.errors import DomainError
from confunc.numerics import erf_inverse

# frozen references for the (0.9, 0.9) pair. LP_INTERVAL_99 came from
# the dense 400-point Nystrom lambda0 that preceded the tridiagonal
# engine; today's bound meets it to 3e-15, and both lie 3.5e-13 above
# 4*c(T) from a 30-digit mpmath solve, within the inversion tolerance.
# The other three use no lambda0 and match today's values bit for bit.
LP_INTERVAL_99 = 4.6226058990312655
LP_MEASURABLE_99 = 4.0212385965949355
DONOHO_STARK_99 = 0.8487888174145405
GAUSSIAN_AT_09 = 5.411086908190828

unit = st.floats(min_value=0.0, max_value=1.0)


class TestConfidencePair:
    """A pair (theta_x, theta_p) as the one-pair functions take it."""

    @pytest.mark.parametrize("bad", [(-0.1, 0.5), (0.5, 1.2), (math.nan, 0.5)])
    def test_rejects_out_of_square(self, bad):
        # the message names the first level outside [0, 1] and shows it
        name, value = ("theta_p", bad[1]) if 0.0 <= bad[0] <= 1.0 else ("theta_x", bad[0])
        with pytest.raises(DomainError, match=rf"^{name} must lie in \[0, 1\], got {value}$"):
            angular_target(bad)

    def test_rejects_a_level_that_is_not_one_number(self):
        # a sequence or a string where one level belongs is a DomainError,
        # not an IndexError or numpy's own error
        calls = [
            lambda: angular_target(((0.5, 0.9), 0.7)),
            lambda: lp_measurable_bound(((0.5, 0.9), 0.7)),
            lambda: angular_target((0.9, [0.8])),
            lambda: gaussian_interval_product([0.5, 0.6]),
            lambda: angular_target(("0.9", 0.8)),
            lambda: elementary_bound(([0.5, [0.6, 0.7]], 0.8)),
        ]
        for call in calls:
            with pytest.raises(DomainError, match=r"must lie in \[0, 1\], got "):
                call()

    @pytest.mark.parametrize(
        "call, shown",
        [
            (lambda: angular_target((0.9,)), r"\(0.9,\)"),
            (lambda: report(0.9), "0.9"),
            (lambda: lp_interval_bound((0.9, 0.8, 0.7)), r"\(0.9, 0.8, 0.7\)"),
            (lambda: classify_region(None), "None"),
        ],
        ids=["one_value", "a_number", "three_values", "none"],
    )
    def test_rejects_a_pair_that_is_not_two_values(self, call, shown):
        # a DomainError that shows the pair, not the TypeError or
        # ValueError of unpacking it
        with pytest.raises(DomainError, match=rf"^a pair must be two levels .*, got {shown}$"):
            call()


class TestRegionAndTarget:
    def test_region_split(self):
        assert classify_region((0.4, 0.6)) == "trivial"
        assert classify_region((0.5, 0.5)) == "trivial"
        assert classify_region((0.6, 0.6)) == "bounded"

    def test_target_zero_in_trivial_region(self):
        assert angular_target((0.3, 0.3)) == 0.0
        assert angular_target((0.5, 0.5)) == 0.0

    def test_target_at_certain_confidence(self):
        # theta_x = 1 collapses the target to theta_p
        for tp in (0.2, 0.5, 0.9):
            assert abs(angular_target((1.0, tp)) - tp) <= 1e-15

    def test_target_continuous_at_boundary(self):
        eps = 1e-9
        assert angular_target((0.5 + eps, 0.5 + eps)) <= 1e-8

    def test_target_near_the_trivial_line_against_mpmath(self):
        # tx + tp - 1 from 1e-16 to 1e-3: the difference of the square
        # roots cancels there, and forming it by subtraction was off by
        # up to 10%
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(5)
        checked = 0
        for tx, log_excess in zip(rng.uniform(0.0, 1.0, 300), rng.uniform(-16, -3, 300)):
            tp = 1.0 - tx + 10.0**log_excess
            if not 0.0 <= tp <= 1.0 or classify_region((tx, tp)) == "trivial":
                continue
            with mpmath.workdps(60):
                x, p = mpmath.mpf(tx), mpmath.mpf(tp)
                exact = (mpmath.sqrt(x * p) - mpmath.sqrt((1 - x) * (1 - p))) ** 2
                assert abs(angular_target((tx, tp)) - exact) <= 4e-15 * exact
            checked += 1
        assert checked > 200

    @given(unit, unit)
    @settings(max_examples=200)
    def test_target_symmetric(self, tx, tp):
        assert angular_target((tx, tp)) == angular_target((tp, tx))

    @given(unit, unit)
    @settings(max_examples=200)
    def test_target_in_unit_interval(self, tx, tp):
        value = angular_target((tx, tp))
        assert 0.0 <= value <= 1.0


class TestClosedForms:
    def test_lp_measurable_frozen(self):
        assert abs(lp_measurable_bound((0.9, 0.9)) - LP_MEASURABLE_99) <= 1e-12
        assert abs(lp_measurable_bound((0.9, 0.9)) - 2 * math.pi * 0.64) <= 1e-12

    def test_donoho_stark_frozen_and_clamped(self):
        assert abs(donoho_stark_bound((0.9, 0.9)) - DONOHO_STARK_99) <= 1e-12
        assert donoho_stark_bound((0.4, 0.4)) == 0.0

    def test_elementary_domain(self):
        # defined only when 2*theta_x + theta_p > 2
        assert elementary_bound((0.5, 0.9)) is None
        assert elementary_bound((0.55, 0.9)) is None
        assert elementary_bound((0.95, 0.95)) is not None

    def test_elementary_frozen(self):
        assert abs(elementary_bound((0.95, 0.95)) - 1.7385769889082032) <= 1e-12

    def test_elementary_at_certain_position(self):
        # theta_x = 1 reduces to pi * theta_p
        for tp in (0.3, 0.7, 0.99):
            assert abs(elementary_bound((1.0, tp)) - math.pi * tp) <= 1e-12

    def test_elementary_monotone_in_theta_p(self):
        tx = 0.9
        values = [elementary_bound((tx, tp)) for tp in (0.25, 0.5, 0.75, 0.99)]
        assert all(v is not None for v in values)
        assert values == sorted(values)

    def test_gaussian_product_frozen(self):
        assert abs(gaussian_interval_product(0.9) - GAUSSIAN_AT_09) <= 1e-10

    @pytest.mark.parametrize("theta", [0.0, 1.0, -0.2, 1.3])
    def test_gaussian_product_domain(self, theta):
        # the closed interval [0, 1], with 0 and +inf at its ends
        if theta == 0.0:
            assert gaussian_interval_product(theta) == 0.0
        elif theta == 1.0:
            assert gaussian_interval_product(theta) == math.inf
        else:
            with pytest.raises(DomainError, match="theta must lie in"):
                gaussian_interval_product(theta)

    def test_log_asymptote(self):
        assert abs(log_asymptote(0.5) - 2 * math.log(2)) <= 1e-14
        with pytest.raises(DomainError):
            log_asymptote(0.0)
        with pytest.raises(DomainError):
            log_asymptote(1.0)

    def test_bbm_reference(self):
        assert abs(bbm_reference() - math.log(math.pi * math.e)) <= 1e-15
        assert abs(bbm_reference() - 2.1447298858494002) <= 1e-12


def _pairs_on_and_near_the_line():
    """The 99 x 99 grid, plus 4000 pairs with tx + tp - 1 in 10^U(-16, -3)."""
    levels = np.arange(1, 100) / 100.0
    tx, tp = (grid.ravel() for grid in np.meshgrid(levels, levels, indexing="ij"))
    rng = np.random.default_rng(17)
    near_x = rng.uniform(0.001, 1.0, 4000)
    near_p = np.minimum(1.0 - near_x + 10.0 ** rng.uniform(-16.0, -3.0, 4000), 1.0)
    return np.concatenate([tx, near_x]), np.concatenate([tp, near_p])


class TestArrayForms:
    """The private array forms give, bit for bit, the scalar formulas:
    T with its excess summed by math.fsum, and the two closed forms."""

    TX, TP = _pairs_on_and_near_the_line()

    @staticmethod
    def fsum_target(tx, tp):
        if tx + tp <= 1.0:
            return 0.0
        excess = math.fsum((tx, tp, -1.0))
        root = excess / (math.sqrt(tx * tp) + math.sqrt((1.0 - tx) * (1.0 - tp)))
        return root * root

    @staticmethod
    def donoho_stark(tx, tp, h):
        root = 1.0 - math.sqrt(1.0 - tx) - math.sqrt(1.0 - tp)
        return 0.0 if root <= 0.0 else 2.0 * math.pi * h * root * root

    def test_target_equals_the_fsum_form(self):
        targets = bounds._angular_targets(self.TX, self.TP)
        assert self.TX.size == 13801
        for tx, tp, target in zip(self.TX.tolist(), self.TP.tolist(), targets.tolist()):
            assert target == self.fsum_target(tx, tp)
            assert target == angular_target((tx, tp))

    @pytest.mark.parametrize("hbar", [1.0, 0.7])
    def test_closed_forms_equal_the_scalar_formulas(self, hbar):
        measurable = bounds._measurable_bounds(self.TX, self.TP, hbar)
        donoho_stark = bounds._donoho_stark_bounds(self.TX, self.TP, hbar)
        for k, (tx, tp) in enumerate(zip(self.TX.tolist(), self.TP.tolist())):
            assert measurable[k] == 2.0 * math.pi * hbar * self.fsum_target(tx, tp)
            assert donoho_stark[k] == self.donoho_stark(tx, tp, hbar)
            assert measurable[k] == lp_measurable_bound((tx, tp), hbar=hbar)
            assert donoho_stark[k] == donoho_stark_bound((tx, tp), hbar=hbar)

    @pytest.mark.parametrize("hbar", [1.0, 0.7])
    def test_elementary_and_gaussian_equal_the_scalar_formulas(self, hbar):
        elementary = bounds._elementary_bounds(self.TX, self.TP)
        gaussian = bounds._gaussian_products(self.TX, self.TP, hbar)
        roots = {}
        for k, (tx, tp) in enumerate(zip(self.TX.tolist(), self.TP.tolist())):
            if 2.0 * tx + tp > 2.0:
                inner = (tx + tp - 1.0) * (1.0 - tx)
                assert elementary[k] == (math.pi / tx) * (tp - 2.0 * math.sqrt(inner))
            else:
                assert elementary[k] is None
            if tp == 1.0:
                assert gaussian[k] == math.inf
                continue
            rx, rp = (roots.setdefault(v, erf_inverse(v)) for v in (tx, tp))
            assert gaussian[k] == 4.0 * hbar * rx * rp

    def test_an_out_of_range_bound_is_named_not_warned(self):
        # 2 pi hbar is inf: a bounded pair gives inf, named with its pair,
        # and a trivial one 0; the Donoho-Stark bound is 0 wherever it clamps
        tx, tp = np.array([0.9, 0.5]), np.array([0.9, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"hbar = 1e\+308: the measurable bound inf"):
                bounds._measurable_bounds(tx, tp, 1e308)
            with pytest.raises(DomainError, match=r"the Donoho-Stark bound inf"):
                bounds._donoho_stark_bounds(tx, tp, 1e308)
            assert donoho_stark_bound((0.5, 0.5), hbar=1e308) == 0.0
            assert lp_measurable_bound((0.5, 0.5), hbar=1e308) == 0.0


class TestLpIntervalBound:
    def test_trivial_region_is_zero(self):
        assert lp_interval_bound((0.5, 0.5)) == 0.0
        assert lp_interval_bound((0.2, 0.7)) == 0.0

    def test_frozen_value(self):
        assert abs(lp_interval_bound((0.9, 0.9)) - LP_INTERVAL_99) <= 1e-9

    def test_diverges_at_double_certainty(self):
        assert lp_interval_bound((1.0, 1.0)) == math.inf

    def test_dominates_measurable_bound(self):
        for pair in [(0.7, 0.7), (0.9, 0.8), (0.99, 0.6)]:
            assert lp_interval_bound(pair) > lp_measurable_bound(pair)

    def test_monotone_on_diagonal(self):
        thetas = (0.55, 0.7, 0.85, 0.95)
        values = [lp_interval_bound((t, t)) for t in thetas]
        assert values == sorted(values)

    def test_hbar_scaling(self):
        base = lp_interval_bound((0.8, 0.8))
        scaled = lp_interval_bound((0.8, 0.8), hbar=3.5)
        assert abs(scaled - 3.5 * base) <= 1e-9 * scaled


class TestLpIntervalBounds:
    """The ``lp_interval`` column of :func:`reports`."""

    def test_matches_one_pair_route_in_input_order(self):
        pairs = [(0.9, 0.9), (0.3, 0.5), (0.8, 0.7), (0.9, 0.9)]
        values = reports(*zip(*pairs))["lp_interval"]
        expected = [lp_interval_bound(p) for p in pairs]
        assert list(values) == pytest.approx(expected, rel=1e-9)
        assert values[1] == 0.0

    def test_empty(self):
        table = reports([], [])
        assert len(table) == 9
        assert all(column.size == 0 for column in table.values())

    def test_divergent_pair_is_inf(self):
        # the divergence at (1, 1) is the value +inf beside finite bounds
        values = reports([0.9, 1.0], [0.9, 1.0])["lp_interval"]
        assert values[1] == math.inf
        assert lp_interval_bound((1.0, 1.0)) == math.inf
        assert abs(values[0] - LP_INTERVAL_99) <= 1e-9

    def test_high_confidence_edge_not_overstated(self):
        # 4*hbar*c with c = 13.11817 at 1 - theta = 1e-10; a stopping
        # rule absolute in lambda0 returned c = 23.22 here
        assert abs(lp_interval_bound((1.0, 1.0 - 1e-10)) / 52.4727 - 1.0) <= 1e-5


class TestReports:
    """The table of :func:`reports` is :func:`report` row by row."""

    # (0.5, 0.5 + 2^-52) sums to one ulp above 1, so it is bounded
    PAIRS = [(0.0, 0.0), (1.0, 0.0), (0.5, 0.5), (1.0, 1.0), (0.9, 0.9), (0.3, 0.5)]
    PAIRS += [(0.5, 0.5 + 2.0**-52)]
    NAMES = ["theta_x", "theta_p", "region", "angular_target", "lp_measurable"]
    NAMES += ["lp_interval", "donoho_stark", "elementary", "gaussian_product"]

    @pytest.mark.parametrize("hbar", [1.0, 0.7])
    def test_equals_a_loop_of_report(self, hbar):
        tx, tp = zip(*self.PAIRS)
        table = reports(tx, tp, hbar=hbar)
        assert list(table) == self.NAMES
        for k, pair in enumerate(self.PAIRS):
            rep = report(pair, hbar=hbar)
            assert list(rep) == self.NAMES
            assert (rep["theta_x"], rep["theta_p"]) == pair
            for name in self.NAMES:
                assert table[name][k] == rep[name], (pair, name)
        assert table["region"][-1] == "bounded"
        assert table["lp_interval"][-1] > 0.0

    @staticmethod
    def bits(values):
        """Each value's exact text: float.hex tells -0.0 from 0.0."""
        return [v if v is None or isinstance(v, str) else float(v).hex() for v in values]

    @pytest.mark.parametrize("hbar", [1.0, 0.7])
    def test_each_one_pair_function_is_its_column(self, hbar):
        # every pair of 14 levels: the tenths, one ulp above 1/2 (so the
        # pair with 1/2 is bounded), and both ends of the open interval
        levels = [k / 10 for k in range(11)] + [0.5 + 2.0**-52, 1.0 - 1e-10, 1e-300]
        tx, tp = np.repeat(levels, len(levels)), np.tile(levels, len(levels))
        table = reports(tx, tp, hbar=hbar)
        pairs = list(zip(tx.tolist(), tp.tolist()))
        columns = {
            "region": [classify_region(p) for p in pairs],
            "angular_target": [angular_target(p) for p in pairs],
            "lp_measurable": [lp_measurable_bound(p, hbar=hbar) for p in pairs],
            "lp_interval": [lp_interval_bound(p, hbar=hbar) for p in pairs],
            "donoho_stark": [donoho_stark_bound(p, hbar=hbar) for p in pairs],
            "elementary": [elementary_bound(p) for p in pairs],
        }
        for name, values in columns.items():
            assert self.bits(values) == self.bits(table[name].tolist()), name
        diagonal = tx == tp
        gaussian = [gaussian_interval_product(t, hbar=hbar) for t in tx[diagonal].tolist()]
        assert self.bits(gaussian) == self.bits(table["gaussian_product"][diagonal].tolist())
        assert math.inf in columns["lp_interval"] and math.inf in gaussian

    def test_one_inversion_for_the_table(self, monkeypatch):
        calls = []
        inverse = bounds.lambda0_inverse_batch

        def counted(targets):
            calls.append(targets.size)
            return inverse(targets)

        monkeypatch.setattr(bounds, "lambda0_inverse_batch", counted)
        tx, tp = zip(*self.PAIRS)
        reports(tx, tp)
        # (1, 1) diverges and the trivial pairs are 0, so two are inverted
        assert calls == [2]

    def test_confidences_are_checked_with_the_pair_message(self):
        with pytest.raises(DomainError, match=r"^theta_p must lie in \[0, 1\], got 1.5$"):
            reports([0.5, 0.9], [0.9, 1.5])
        with pytest.raises(DomainError, match=r"^theta_x must lie in \[0, 1\], got nan$"):
            report((math.nan, 0.5))
        with pytest.raises(DomainError, match="two arrays of one length"):
            reports([0.5, 0.9], [0.9])

    @pytest.mark.parametrize("theta_x", [[0.5, [1, 2]], ["a"]], ids=["ragged", "text"])
    def test_levels_that_are_not_an_array_of_numbers(self, theta_x):
        with pytest.raises(DomainError, match=r"^theta_x must be real numbers in \[0, 1\], got "):
            reports(theta_x, [0.6, 0.7][: len(theta_x)])

    def test_every_row_is_checked(self, monkeypatch):
        # an interval bound below the measurable one in any row is refused
        def low(tx, tp, h):
            values = bounds._measurable_bounds(tx, tp, h)
            values[-1] *= 0.5
            return values

        monkeypatch.setattr(bounds, "_interval_bounds", low)
        with pytest.raises(DomainError, match="interval < measurable"):
            reports([0.3, 0.9, 0.95], [0.3, 0.9, 0.95])


class TestReport:
    def test_trivial_region_fields(self):
        rep = report((0.4, 0.5))
        assert rep["region"] == "trivial"
        assert rep["lp_measurable"] == 0.0
        assert rep["lp_interval"] == 0.0
        assert rep["donoho_stark"] == 0.0

    def test_bounded_region_fields(self):
        rep = report((0.9, 0.9))
        assert rep["region"] == "bounded"
        assert rep["lp_interval"] >= rep["lp_measurable"] >= rep["donoho_stark"]
        assert abs(rep["angular_target"] - 0.64) <= 1e-15

    def test_gaussian_product_edge_cases(self):
        assert report((1.0, 0.9))["gaussian_product"] == math.inf
        assert report((0.0, 0.9))["gaussian_product"] == 0.0

    def test_divergent_pair_is_inf(self):
        # the report records the divergence as lp_interval_bound does
        rep = report((1.0, 1.0))
        assert rep["lp_interval"] == math.inf
        assert rep["angular_target"] == 1.0
        assert rep["lp_measurable"] == rep["donoho_stark"] == 2.0 * math.pi
        assert rep["elementary"] == math.pi
        assert rep["gaussian_product"] == math.inf

    def test_the_row_is_checked_once(self, monkeypatch):
        checked = []
        check = bounds._check_records
        monkeypatch.setattr(bounds, "_check_records", lambda r: checked.append(check(r)))
        report((0.9, 0.9))
        reports([0.9, 0.3], [0.9, 0.5])
        assert len(checked) == 2

    @staticmethod
    def assert_is_the_one_row_record(pair, hbar):
        rep = report(pair, hbar=hbar)
        row = {name: column.item() for name, column in reports(*zip(pair), hbar=hbar).items()}
        assert list(rep) == list(row)
        for name, value in row.items():
            assert type(rep[name]) is type(value), name
            assert TestReports.bits([rep[name]]) == TestReports.bits([value]), name

    @pytest.mark.parametrize("pair", [(0.4, 0.5), (0.9, 0.9), (1.0, 0.9), (0.0, 0.9), (1.0, 1.0)])
    @pytest.mark.parametrize("hbar", [1.0, 0.7])
    def test_is_the_one_row_record(self, pair, hbar):
        self.assert_is_the_one_row_record(pair, hbar)

    @given(unit, unit, st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=60, deadline=None)
    def test_is_the_one_row_record_anywhere(self, tx, tp, hbar):
        # a subnormal level can take a bound out of the normal doubles:
        # then both refuse the pair with one message
        try:
            reports([tx], [tp], hbar=hbar)
        except DomainError as exc:
            with pytest.raises(DomainError, match=f"^{re.escape(str(exc))}$"):
                report((tx, tp), hbar=hbar)
        else:
            self.assert_is_the_one_row_record((tx, tp), hbar)


@given(st.floats(min_value=0.55, max_value=0.99), st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=60, deadline=None)
def test_measurable_bound_scales_linearly_in_hbar(theta, hbar):
    pair = (theta, theta)
    base = lp_measurable_bound(pair)
    scaled = lp_measurable_bound(pair, hbar=hbar)
    assert abs(scaled - hbar * base) <= 1e-12 * max(1.0, scaled)


@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=200)
def test_donoho_stark_never_exceeds_measurable(tx, tp):
    slack = 1e-12
    assert donoho_stark_bound((tx, tp)) <= lp_measurable_bound((tx, tp)) + slack
