"""Acceptance gate.

Each test pins a deliverable: the reference tables the library must
regenerate within stated tolerances, the two-route consistency check,
the strict joint-confidence counterexample, the saturating state, the
asymptotic regimes, and a battery of inequalities over a seeded state
corpus. Tolerances are frozen here and must not be loosened to make a
test pass; a failing test means the library misses its target.
"""

import math
import time

import numpy as np
import pytest

from confunc.bounds import (
    donoho_stark_bound,
    gaussian_interval_product,
    bbm_reference,
    log_asymptote,
    lp_interval_bound,
    lp_measurable_bound,
)
from confunc.cli import main
from confunc.slepian import (
    a_matrix,
    lambda0,
    lambda0_inverse,
    lambda0_inverse_batch,
    lambda0_large_c,
    lambda0_small_c,
)
from confunc.numerics import largest_eigenpair
from confunc.states import (
    Grid,
    confidence_uncertainty,
    differential_entropy,
    fourier_transform,
    interval_confidence_uncertainty,
    probability_in_interval,
    random_smooth_state,
    rect_sinc_state,
    slepian_state,
    verify_lenard,
)

# ---- reference tables ------------------------------------------------

# eigenvalue table: c, lambda0 to the printed digits, 1 - lambda0
EIGENVALUE_TABLE = [
    (0.25, 0.158, 8.42e-1),
    (0.50, 0.310, 6.90e-1),
    (1.00, 0.573, 4.27e-1),
    (1.50, 0.763, 2.37e-1),
    (2.00, 0.881, 1.19e-1),
    (3.00, 0.976, 2.42e-2),
    (4.00, 0.996, 4.11e-3),
    (5.00, 0.9994, 6.48e-4),
    (6.00, 0.99990, 9.81e-5),
    (8.00, 0.999998, 2.13e-6),
    (10.0, 1 - 4.41e-8, 4.41e-8),
]

# tight interval-product bound 4*hbar*c(T) at selected confidence pairs
INTERVAL_BOUND_TABLE = [
    (0.60, 0.60, 0.25),
    (0.70, 0.70, 1.01),
    (0.80, 0.80, 2.35),
    (0.90, 0.90, 4.62),
    (0.95, 0.95, 6.68),
    (0.99, 0.99, 10.82),
    (0.99, 0.50, 2.64),
    (0.95, 0.70, 3.24),
    (1.00, 0.95, 10.25),
]

# Gaussian width product vs the saturating-state product at equal
# confidence, with their ratio
COMPARISON_TABLE = [
    (0.55, 1.14, 0.063, 18.16),
    (0.60, 1.42, 0.251, 5.63),
    (0.70, 2.15, 1.013, 2.12),
    (0.80, 3.28, 2.349, 1.40),
    (0.90, 5.41, 4.622, 1.17),
    (0.95, 7.68, 6.679, 1.15),
    (0.99, 13.27, 10.82, 1.23),
]

CORPUS_LEVELS = (0.6, 0.75, 0.9)


@pytest.fixture(scope="module")
def corpus():
    grid = Grid.symmetric(20.0, 4096)
    states = [random_smooth_state(grid, seed=seed) for seed in range(42, 92)]
    return [(state, fourier_transform(state)) for state in states]


class TestEigenvalueTable:
    @pytest.mark.parametrize("c,printed,_", EIGENVALUE_TABLE[:5])
    def test_moderate_concentration(self, c, printed, _):
        assert abs(lambda0(c) - printed) <= 5e-4

    @pytest.mark.parametrize("c,_,printed_tail", EIGENVALUE_TABLE[5:])
    def test_tail_regime(self, c, _, printed_tail):
        tail = 1.0 - lambda0(c)
        assert abs(tail - printed_tail) / printed_tail <= 0.05


class TestIntervalBoundTable:
    @pytest.mark.parametrize("tx,tp,printed", INTERVAL_BOUND_TABLE)
    def test_reproduces_printed_bound(self, tx, tp, printed):
        assert abs(lp_interval_bound((tx, tp)) - printed) <= 0.02


class TestComparisonTable:
    @pytest.mark.parametrize("theta,g_printed,s_printed,r_printed", COMPARISON_TABLE)
    def test_reproduces_printed_row(self, theta, g_printed, s_printed, r_printed):
        gaussian = gaussian_interval_product(theta)
        target = (2.0 * theta - 1.0) ** 2
        slepian = 4.0 * lambda0_inverse(target)
        assert abs(gaussian - g_printed) <= 0.01
        assert abs(slepian - s_printed) <= 0.01
        assert abs(gaussian / slepian - r_printed) <= 0.02


class TestBoundGapAtNinety:
    def test_measurable_bound_value(self):
        assert abs(lp_measurable_bound((0.9, 0.9)) - 4.02) <= 0.01

    def test_support_bound_value(self):
        assert abs(donoho_stark_bound((0.9, 0.9)) - 0.85) <= 0.01

    def test_gap_factor(self):
        ratio = lp_measurable_bound((0.9, 0.9)) / donoho_stark_bound((0.9, 0.9))
        assert abs(ratio - 4.7) <= 0.1


class TestTwoRouteAgreement:
    @pytest.mark.parametrize("c", [0.5, 1.0, 1.5, 2.0])
    def test_routes_agree(self, c):
        norm, _ = largest_eigenpair(a_matrix(4.0 * c))
        assert abs(norm / math.pi - lambda0(c)) <= 1e-6


class TestJointConfidenceCounterexample:
    """Both confidences strictly exceed 1/2 at weight 1/2 however small
    the windows are, so no product-free trade-off between the two
    confidence levels can hold."""

    @pytest.mark.parametrize(
        "length,n,half_width",
        [(0.1, 1 << 20, 6553.6), (0.01, 1 << 22, 10485.76)],
    )
    def test_both_masses_strictly_exceed_half(self, length, n, half_width):
        width = length
        grid = Grid.symmetric(half_width, n)
        state = rect_sinc_state(grid, length, width, weight=0.5)
        mass_x = probability_in_interval(state, -0.5 * length, 0.5 * length)
        mass_p = probability_in_interval(
            fourier_transform(state), -0.5 * width, 0.5 * width
        )
        assert mass_x > 0.5
        assert mass_p > 0.5


class TestSaturatingState:
    @pytest.mark.parametrize("c,printed", [(1.5, 0.763), (3.0, 0.976)])
    def test_band_mass_matches_eigenvalue_digits(self, c, printed):
        # dx = 1/336 puts the window edges of L = 2 on cell edges; the
        # long domain refines the momentum grid near the band edge
        grid = Grid.symmetric(2.0**17 / 672.0, 1 << 17)
        state = slepian_state(c, 2.0, grid=grid)
        width = 4.0 * c / 2.0
        band = probability_in_interval(
            fourier_transform(state), -0.5 * width, 0.5 * width
        )
        assert abs(band - printed) <= 1e-3


class TestAsymptoticRegimes:
    def test_small_c_linear_regime(self):
        c = 0.05
        assert abs(lambda0(c) / lambda0_small_c(c) - 1.0) <= 0.02

    def test_large_c_tail_regime(self):
        c = 8.0
        tail = 1.0 - lambda0(c)
        assert abs(tail / (1.0 - lambda0_large_c(c)) - 1.0) <= 0.15

    def test_log_divergence_rate(self):
        # The tail law 1 - lambda0 ~ 4*sqrt(pi*c)*exp(-2*c) (Slepian 1965)
        # gives 2*c(theta) = -ln(1-theta) + ln(4) + 0.5*ln(pi*c) + o(1).
        # Solve that fixed point with plain math, independently of the
        # eigensolver, and check the tight bound 4*hbar*c(theta) against it
        # at theta = 1 - 1e-6. A 0.5% error in the bound here is c off by
        # 0.04, which moves 1 - lambda0 by about 8%.
        theta = 1.0 - 1e-6
        tight = lp_interval_bound((1.0, theta))
        leading = -math.log1p(-theta)
        c = 0.5 * leading
        for _ in range(50):
            c = 0.5 * (leading + math.log(4.0) + 0.5 * math.log(math.pi * c))
        ratio = tight / (4.0 * c)
        assert abs(ratio - 1.0) <= 5e-3, (
            f"bound {tight:.6f} against the two-term tail law 4c = "
            f"{4.0 * c:.6f}: ratio {ratio:.6f} is off by more than 0.5%"
        )
        # the leading asymptote -2*hbar*ln(1-theta) alone undershoots
        undershoot = tight / log_asymptote(theta)
        assert undershoot > 1.0, (
            f"bound {tight:.6f} over the leading asymptote is {undershoot:.6f}"
        )


class TestCorpusInvariants:
    def test_eigenvalue_monotone_and_bounded(self):
        grid = np.linspace(0.05, 8.0, 40)
        values = np.array([lambda0(c) for c in grid])
        assert np.all(np.diff(values) > 0)
        assert np.all((values > 0) & (values < 1))

    def test_bounds_monotone_on_diagonal(self):
        thetas = (0.55, 0.65, 0.75, 0.85, 0.95)
        tight = [lp_interval_bound((t, t)) for t in thetas]
        loose = [lp_measurable_bound((t, t)) for t in thetas]
        assert tight == sorted(tight)
        assert loose == sorted(loose)

    def test_set_width_never_exceeds_interval_width(self, corpus):
        for state, momentum in corpus:
            for side in (state, momentum):
                for theta in CORPUS_LEVELS:
                    loose = confidence_uncertainty(side, theta).measure
                    tight = interval_confidence_uncertainty(side, theta).measure
                    assert loose <= tight + 1e-12

    def test_widths_monotone_in_confidence(self, corpus):
        for state, momentum in corpus:
            for side in (state, momentum):
                loose = [confidence_uncertainty(side, t).measure for t in CORPUS_LEVELS]
                tight = [
                    interval_confidence_uncertainty(side, t).measure
                    for t in CORPUS_LEVELS
                ]
                assert loose == sorted(loose)
                assert tight == sorted(tight)

    def test_projection_inequality_on_random_windows(self, corpus):
        rng = np.random.default_rng(12345)
        worst = math.inf
        for state, _ in corpus:
            for _ in range(20):
                xc = rng.uniform(-5.0, 5.0)
                xw = rng.uniform(0.2, 5.0)
                pc = rng.uniform(-20.0, 20.0)
                pw = rng.uniform(0.2, 5.0)
                witness = verify_lenard(
                    state,
                    (xc - 0.5 * xw, xc + 0.5 * xw),
                    (pc - 0.5 * pw, pc + 0.5 * pw),
                )
                worst = min(worst, witness.margin)
                assert witness.holds
        assert worst >= -1e-6

    def test_entropy_sum_above_floor(self, corpus):
        floor = bbm_reference()
        for state, momentum in corpus:
            total = differential_entropy(state) + differential_entropy(momentum)
            assert total >= floor - 1e-4

    def test_width_products_dominate_bounds(self, corpus):
        pairs = [(tx, tp) for tx, tp, _ in INTERVAL_BOUND_TABLE]
        targets = {}
        for tx, tp in pairs:
            targets[(tx, tp)] = lp_interval_bound((tx, tp))
        for state, momentum in corpus:
            for tx, tp in pairs:
                loose_x = confidence_uncertainty(state, tx).measure
                loose_p = confidence_uncertainty(momentum, tp).measure
                assert loose_x * loose_p >= lp_measurable_bound((tx, tp)) - 1e-9
                tight_x = interval_confidence_uncertainty(state, tx).measure
                tight_p = interval_confidence_uncertainty(momentum, tp).measure
                assert tight_x * tight_p >= targets[(tx, tp)] - 1e-9


class TestSelfCheckSuites:
    def test_all_suites_pass_within_budget(self, capsys):
        start = time.monotonic()
        code = main(["verify", "all"])
        elapsed = time.monotonic() - start
        capsys.readouterr()
        assert code == 0
        assert elapsed < 300.0
