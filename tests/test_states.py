"""Grid states, transforms, confidence widths, and state families.

The discrete model is piecewise-constant density per cell, so several
expected values below are exact (uniform and two-lobe constructions on
aligned grids); smooth states are checked against continuum formulas
with grid-scale tolerances.
"""

import math
import re
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confunc.errors import DomainError, GridError
from confunc.bounds import log_asymptote
from confunc.numerics import erf_inverse, sine_integral
from confunc.slepian import _eigenpairs, _rows, lambda0
from confunc.states import (
    ConfidenceEstimate,
    Grid,
    GriddedState,
    confidence_uncertainty,
    differential_entropy,
    fourier_transform,
    gaussian_state,
    interval_confidence_uncertainty,
    inverse_fourier_transform,
    probability_in_interval,
    random_smooth_state,
    rect_sinc_prediction,
    rect_sinc_state,
    slepian_state,
    verify_lenard,
    verify_lenard_batch,
)
from confunc.states import _rect_sinc_masses, _verify_lenard_states, _window_cells


def uniform_state(grid: Grid) -> GriddedState:
    amps = np.full(grid.n, 1.0 / math.sqrt(grid.n * grid.dx), dtype=np.complex128)
    return GriddedState(grid, amps)


def two_lobe_state() -> GriddedState:
    # mass 1/2 on [0, 0.1] and 1/2 on [0.9, 1.0], aligned to cell edges
    grid = Grid(0.0, 1.0, 100)
    amps = np.zeros(100, dtype=np.complex128)
    value = math.sqrt(0.5 / (10 * grid.dx))
    amps[:10] = value
    amps[90:] = value
    return GriddedState(grid, amps)


@lru_cache(maxsize=2)
def aligned_slepian():
    # dx = 1/336 puts the window edges of L = 2 exactly on cell edges,
    # and the long domain makes the momentum grid fine enough to resolve
    # the band edge
    grid = Grid.symmetric(2.0**17 / 672.0, 1 << 17)
    return slepian_state(1.0, 2.0, grid=grid)


class TestGrid:
    def test_basic_geometry(self):
        grid = Grid(-2.0, 6.0, 32)
        assert grid.dx == 0.25
        assert grid.centers.shape == (32,)
        assert grid.edges.shape == (33,)
        assert grid.edges[0] == -2.0 and grid.edges[-1] == 6.0
        assert np.allclose(grid.centers, (grid.edges[:-1] + grid.edges[1:]) / 2)

    def test_symmetric(self):
        grid = Grid.symmetric(5.0, 64)
        assert grid.x_min == -5.0 and grid.x_max == 5.0

    def test_momentum_dual_span(self):
        grid = Grid.symmetric(4.0, 256)
        dual = grid.momentum_dual(hbar=2.0)
        assert dual.n == grid.n
        assert abs(dual.x_max - math.pi * 2.0 / grid.dx) <= 1e-9
        assert abs(dual.x_min + dual.x_max) <= 1e-12

    @pytest.mark.parametrize(
        "args",
        [
            (1.0, 0.0, 64),
            (0.0, 1.0, 8),
            (math.nan, 1.0, 64),
            # 16.5 cells gave 17 centres, and text failed bare
            (-1.0, 1.0, 16.5),
            ("a", 1.0, 32),
            (0.0, 1.0, "32"),
        ],
    )
    def test_rejects_bad_construction(self, args):
        with pytest.raises(GridError):
            Grid(*args)

    @pytest.mark.parametrize("half_width", ["1", [1.0], None, math.inf])
    def test_symmetric_refuses_a_half_width_that_is_not_a_real_number(self, half_width):
        # text failed bare at its unary minus
        with pytest.raises(GridError, match="^grid endpoints must be finite$"):
            Grid.symmetric(half_width, 32)

    def test_numpy_integers_are_cell_counts(self):
        assert Grid(0.0, 1.0, np.int64(32)).centers.shape == (32,)

    def test_centers_read_only(self):
        grid = Grid.symmetric(1.0, 16)
        with pytest.raises(ValueError):
            grid.centers[0] = 0.0


@pytest.mark.parametrize(
    "call",
    [
        lambda state: confidence_uncertainty(state, "0.5"),
        lambda state: interval_confidence_uncertainty(state, "0.5"),
        lambda state: probability_in_interval(state, "0", 0.5),
        lambda state: probability_in_interval(state, 0.0, "0.5"),
        lambda state: rect_sinc_prediction(1.0, 1.0, "0.5"),
        lambda state: rect_sinc_state(state.grid, 1.0, 1.0, "0.5"),
        lambda state: erf_inverse("0.5"),
        lambda state: sine_integral("1"),
        lambda state: log_asymptote("0.5"),
    ],
    ids=[
        "confidence_theta",
        "interval_theta",
        "interval_start",
        "interval_end",
        "prediction_weight",
        "state_weight",
        "erf_inverse",
        "sine_integral",
        "log_asymptote",
    ],
)
def test_a_scalar_that_is_not_a_real_number(call):
    # each raised a bare TypeError from comparing text with a number
    with pytest.raises(DomainError):
        call(uniform_state(Grid(0.0, 1.0, 64)))


class TestGriddedState:
    def test_rejects_unnormalised(self):
        grid = Grid.symmetric(1.0, 16)
        with pytest.raises(DomainError):
            GriddedState(grid, np.full(16, 2.0, dtype=np.complex128))

    def test_rejects_wrong_length(self):
        grid = Grid.symmetric(1.0, 16)
        with pytest.raises(GridError):
            GriddedState(grid, np.zeros(17, dtype=np.complex128))

    def test_rejects_non_finite(self):
        grid = Grid.symmetric(1.0, 16)
        amps = np.full(16, 1.0 / math.sqrt(2.0), dtype=np.complex128)
        amps[3] = np.nan
        with pytest.raises(DomainError):
            GriddedState(grid, amps)

    def test_amplitudes_read_only(self):
        state = uniform_state(Grid(0.0, 1.0, 16))
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    def test_density_normalised(self):
        state = uniform_state(Grid(0.0, 1.0, 64))
        assert abs(np.sum(state.density) * state.grid.dx - 1.0) <= 1e-12


class TestFourier:
    def test_unitary(self):
        state = random_smooth_state(Grid.symmetric(5.0, 512), seed=3)
        mom = fourier_transform(state)
        assert abs(np.sum(mom.density) * mom.grid.dx - 1.0) <= 1e-12

    def test_round_trip(self):
        grid = Grid.symmetric(5.0, 512)
        state = random_smooth_state(grid, seed=11)
        back = inverse_fourier_transform(fourier_transform(state), grid)
        assert np.max(np.abs(back.amplitudes - state.amplitudes)) <= 1e-12

    def test_gaussian_maps_to_gaussian(self):
        sigma = 0.7
        state = gaussian_state(Grid.symmetric(10.0, 4096), sigma)
        mom = fourier_transform(state)
        sigma_p = state.hbar / (2.0 * sigma)
        p = mom.grid.centers
        analytic = np.exp(-(p**2) / (2 * sigma_p**2)) / (math.sqrt(2 * math.pi) * sigma_p)
        assert np.max(np.abs(mom.density - analytic)) <= 1e-8

    def test_rect_maps_to_sinc(self):
        # aligned rectangle of length 2: momentum density (1/pi)*sinc(p)^2
        grid = Grid.symmetric(8.0, 4096)
        state = rect_sinc_state(grid, length=2.0, width=1.0, weight=1.0)
        mom = fourier_transform(state)
        p = mom.grid.centers
        window = np.abs(p) <= 10.0
        t = p[window]
        analytic = (np.sin(t) / t) ** 2 / math.pi
        assert np.max(np.abs(mom.density[window] - analytic)) <= 1e-5

    def test_first_momentum_zero_at_two_pi_over_length(self):
        grid = Grid.symmetric(8.0, 4096)
        state = rect_sinc_state(grid, length=2.0, width=1.0, weight=1.0)
        mom = fourier_transform(state)
        # first zero of the transform sits at p = 2*pi*hbar/L = pi; the
        # nearest cell center is half a momentum cell away, so the
        # density there is quadratically small, not zero
        near = np.abs(np.abs(mom.grid.centers) - math.pi) <= mom.grid.dx
        assert np.max(mom.density[near]) <= 2e-3
        assert np.max(mom.density[near]) <= 0.01 * np.max(mom.density)

    def test_inverse_rejects_incompatible_grid(self):
        state = random_smooth_state(Grid.symmetric(5.0, 256), seed=1)
        mom = fourier_transform(state)
        with pytest.raises(GridError):
            inverse_fourier_transform(mom, Grid.symmetric(5.0, 128))

    def test_hbar_preserved(self):
        state = gaussian_state(Grid.symmetric(10.0, 1024), 1.0, hbar=2.0)
        assert fourier_transform(state).hbar == 2.0


class TestProbabilityInInterval:
    def test_full_grid_is_one(self):
        state = uniform_state(Grid(0.0, 1.0, 64))
        assert abs(probability_in_interval(state, 0.0, 1.0) - 1.0) <= 1e-12

    def test_clamps_outside_grid(self):
        state = uniform_state(Grid(0.0, 1.0, 64))
        assert abs(probability_in_interval(state, -5.0, 6.0) - 1.0) <= 1e-12
        assert probability_in_interval(state, -5.0, -2.0) == 0.0

    def test_fractional_cell_exact(self):
        state = uniform_state(Grid(0.0, 1.0, 64))
        dx = state.grid.dx
        assert abs(probability_in_interval(state, 0.0, 0.25 * dx) - 0.25 * dx) <= 1e-15

    def test_degenerate_interval(self):
        state = uniform_state(Grid(0.0, 1.0, 64))
        assert probability_in_interval(state, 0.5, 0.5) == 0.0

    def test_rejects_reversed(self):
        state = uniform_state(Grid(0.0, 1.0, 64))
        with pytest.raises(DomainError):
            probability_in_interval(state, 0.7, 0.2)


class TestConfidenceUncertainty:
    def test_uniform_is_linear_in_theta(self):
        state = uniform_state(Grid(0.0, 1.0, 64))
        for theta in (0.25, 0.5, 0.8, 1.0):
            est = confidence_uncertainty(state, theta)
            assert len(est.support) == 1
            assert abs(est.measure - theta) <= 1e-12

    def test_two_lobes(self):
        est = confidence_uncertainty(two_lobe_state(), 0.5)
        assert abs(est.measure - 0.1) <= 1e-12

    def test_gaussian_matches_continuum(self):
        grid = Grid.symmetric(8.0, 1024)
        state = gaussian_state(grid, 1.0)
        est = confidence_uncertainty(state, 0.9)
        expected = 2.0 * math.sqrt(2.0) * erf_inverse(0.9)
        assert abs(est.measure - expected) <= 2 * grid.dx

    def test_monotone_in_theta(self):
        state = random_smooth_state(Grid.symmetric(4.0, 256), seed=5)
        values = [confidence_uncertainty(state, t).measure for t in (0.2, 0.5, 0.8, 0.99)]
        assert values == sorted(values)

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5])
    def test_rejects_bad_theta(self, bad):
        state = uniform_state(Grid(0.0, 1.0, 64))
        with pytest.raises(DomainError):
            confidence_uncertainty(state, bad)


# a Gaussian on a coarse and a fine grid; its tail cells hold masses far
# below one ulp of 1
LEVEL_GAUSSIANS = [gaussian_state(Grid.symmetric(16.0, n), 1.0) for n in (256, 4096)]


class TestIntervalConfidenceUncertainty:
    def test_uniform(self):
        est = interval_confidence_uncertainty(uniform_state(Grid(0.0, 1.0, 64)), 0.5)
        assert len(est.support) == 2
        assert abs(est.measure - 0.5) <= 1e-12

    def test_two_lobes_single_lobe(self):
        est = interval_confidence_uncertainty(two_lobe_state(), 0.5)
        assert abs(est.measure - 0.1) <= 1e-12

    def test_two_lobes_bridged(self):
        # 0.75 needs one full lobe plus half of the other: width 0.95
        est = interval_confidence_uncertainty(two_lobe_state(), 0.75)
        assert abs(est.measure - 0.95) <= 1e-12
        x1, x2 = est.support
        assert abs((x2 - x1) - est.measure) <= 1e-12

    def test_support_carries_requested_mass(self):
        state = random_smooth_state(Grid.symmetric(3.0, 64), seed=7)
        for theta in (0.3, 0.62, 0.9):
            est = interval_confidence_uncertainty(state, theta)
            mass = probability_in_interval(state, *est.support)
            assert mass >= theta - 1e-9

    def test_against_dense_window_scan(self):
        # slide a window of mass theta across a strictly positive density
        # and confirm no sampled window beats the reported optimum
        state = random_smooth_state(Grid.symmetric(3.0, 64), seed=7)
        assert np.min(state.density) > 0.0
        edges = state.grid.edges
        cum = np.concatenate([[0.0], np.cumsum(state.density * state.grid.dx)])
        for theta in (0.3, 0.62, 0.9):
            est = interval_confidence_uncertainty(state, theta)
            starts = np.linspace(edges[0], np.interp(cum[-1] - theta, cum, edges), 4001)
            ends = np.interp(np.interp(starts, edges, cum) + theta, cum, edges)
            widths = ends - starts
            assert np.min(widths) >= est.measure - 1e-9
            assert np.min(widths) <= est.measure + state.grid.dx

    @pytest.mark.parametrize("seed", range(4))
    def test_reflection_mirrors_the_window(self, seed):
        # reversing the amplitudes on a symmetric grid turns right-edge
        # windows into left-edge ones, so both families are exercised
        state = random_smooth_state(Grid.symmetric(4.0, 128), seed=seed)
        for theta in (0.3, 0.62, 0.9):
            self.assert_mirrored(state, theta)

    def test_reflection_mirrors_a_window_across_a_plateau(self):
        # mass 0.6 on the ten left cells and 0.4 on the ten right ones:
        # the unique best window holds the whole left lobe and bridges the
        # gap into the right one; reflected, it ends on the grid's right end
        grid = Grid(-0.5, 0.5, 100)
        amps = np.zeros(100, dtype=np.complex128)
        amps[:10] = math.sqrt(0.6 / (10 * grid.dx))
        amps[90:] = math.sqrt(0.4 / (10 * grid.dx))
        state = GriddedState(grid, amps)
        for theta, support in ((0.8, (-0.5, 0.45)), (0.95, (-0.5, 0.4875))):
            est = interval_confidence_uncertainty(state, theta)
            assert np.allclose(est.support, support, rtol=0.0, atol=1e-12)
            self.assert_mirrored(state, theta)

    @staticmethod
    def assert_mirrored(state, theta):
        reflected = GriddedState(state.grid, state.amplitudes[::-1].copy())
        est = interval_confidence_uncertainty(state, theta)
        mirror = interval_confidence_uncertainty(reflected, theta)
        assert abs(est.measure - mirror.measure) <= 1e-12
        x1, x2 = est.support
        assert abs(mirror.support[0] + x2) <= 1e-12
        assert abs(mirror.support[1] + x1) <= 1e-12

    @given(
        state=st.one_of(
            st.sampled_from(LEVEL_GAUSSIANS),
            st.integers(0, 10_000).map(
                lambda seed: random_smooth_state(Grid.symmetric(20.0, 512), seed)
            ),
        ),
        exponent=st.floats(min_value=-300.0, max_value=0.0),
    )
    @settings(deadline=None, max_examples=60)
    def test_a_window_at_any_level(self, state, exponent):
        # theta = 1e-20 gave a window of negative width, and 1e-14 one
        # narrower than the measurable set: the slack of the start test let
        # a window end left of its start, theta was lost in cum + theta,
        # and nearby cumulatives cancelled
        theta = 10.0**exponent
        loose = confidence_uncertainty(state, theta).measure
        tight = interval_confidence_uncertainty(state, theta)
        x1, x2 = tight.support
        assert x1 <= x2
        assert loose <= tight.measure * (1.0 + 1e-12)

    def test_never_below_measurable_set(self):
        for seed in range(6):
            state = random_smooth_state(Grid.symmetric(4.0, 128), seed=seed)
            for theta in (0.3, 0.6, 0.9):
                loose = confidence_uncertainty(state, theta).measure
                tight = interval_confidence_uncertainty(state, theta).measure
                assert loose <= tight + 1e-12


class TestRectSinc:
    def test_prediction_exceeds_half_at_balanced_weight(self):
        for length, width in [(0.1, 0.1), (1.0, 1.0), (0.01, 5.0)]:
            position_mass, momentum_mass = rect_sinc_prediction(length, width, 0.5)
            assert position_mass > 0.5
            assert momentum_mass > 0.5

    @pytest.mark.parametrize(
        "length, width, hbar", [(1.0, 1e-320, 1.0), (1e-200, 1e-200, 1.0), (1.0, 1.0, 1e308)]
    )
    def test_prediction_refuses_c_outside_the_normal_doubles(self, length, width, hbar):
        # below the normal doubles the masses are NaN or divide by zero
        with pytest.raises(DomainError, match=r"^hbar = .*c = .* \(L, W\)"):
            rect_sinc_prediction(length, width, 0.5, hbar=hbar)

    def test_prediction_pure_components(self):
        assert rect_sinc_prediction(1.0, 1.0, 1.0)[0] == 1.0
        assert rect_sinc_prediction(1.0, 1.0, 0.0)[1] == 1.0

    @given(
        st.floats(min_value=0.05, max_value=10.0),
        st.floats(min_value=0.05, max_value=10.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_prediction_duality(self, length, width, weight):
        _, forward_momentum = rect_sinc_prediction(length, width, weight)
        swapped_position, _ = rect_sinc_prediction(width, length, 1.0 - weight)
        assert abs(forward_momentum - swapped_position) <= 1e-12

    def test_state_matches_prediction(self):
        grid = Grid.symmetric(64.0, 1 << 14)
        state = rect_sinc_state(grid, length=1.0, width=1.0, weight=0.5)
        position_mass, momentum_mass = rect_sinc_prediction(1.0, 1.0, 0.5)
        mass_x = probability_in_interval(state, -0.5, 0.5)
        mass_p = probability_in_interval(fourier_transform(state), -0.5, 0.5)
        assert abs(mass_x - position_mass) <= 5e-3
        assert abs(mass_p - momentum_mass) <= 5e-3
        assert mass_x > 0.5 and mass_p > 0.5

    def test_pure_rect_mass(self):
        grid = Grid.symmetric(8.0, 4096)
        state = rect_sinc_state(grid, length=2.0, width=1.0, weight=1.0)
        assert abs(probability_in_interval(state, -1.0, 1.0) - 1.0) <= 1e-12

    def test_pure_sinc_band_mass(self):
        grid = Grid.symmetric(128.0, 1 << 14)
        state = rect_sinc_state(grid, length=2.0, width=1.0, weight=0.0)
        mom = fourier_transform(state)
        assert abs(probability_in_interval(mom, -0.5, 0.5) - 1.0) <= 1e-9

    def test_narrow_domain_rejected(self):
        with pytest.raises(GridError):
            rect_sinc_state(Grid.symmetric(4.0, 64), length=1.0, width=0.1, weight=0.5)

    def test_rejects_bad_weight(self):
        with pytest.raises(DomainError):
            rect_sinc_state(Grid.symmetric(64.0, 1024), 1.0, 1.0, weight=1.5)

    @pytest.mark.parametrize(
        "length, width, name", [(math.inf, 1.0, "length"), (1.0, math.inf, "width")]
    )
    def test_rejects_infinite_window_or_band(self, length, width, name):
        with pytest.raises(DomainError, match=rf"^{name} must lie in \(0, inf\), got inf$"):
            rect_sinc_state(Grid.symmetric(64.0, 1024), length, width, 0.5)

    def test_grid_ending_at_the_origin_is_too_narrow(self):
        with pytest.raises(GridError, match="too narrow"):
            rect_sinc_state(Grid(0.0, 100.0, 1024), 1.0, 1.0, 0.5)
        # a grid far from the origin on either side is just as narrow
        for grid in (Grid(200.0, 400.0, 4096), Grid(-400.0, -200.0, 4096)):
            with pytest.raises(GridError, match="too narrow"):
                rect_sinc_state(grid, 1.0, 1.0, 0.0)


# the two grids of ``verify strictness``, with its window L
STRICTNESS_GRIDS = {
    "2^20": (Grid.symmetric(6553.6, 1 << 20), 0.1),
    "2^22": (Grid.symmetric(10485.76, 1 << 22), 0.01),
}


def fft_rect_sinc_masses(grid, length, width, weight, hbar):
    state = rect_sinc_state(grid, length, width, weight, hbar)
    mass_x = probability_in_interval(state, -0.5 * length, 0.5 * length)
    mass_p = probability_in_interval(fourier_transform(state), -0.5 * width, 0.5 * width)
    return mass_x, mass_p


class TestRectSincMasses:
    """The direct sums of ``_rect_sinc_masses`` against the state built by
    FFT and read by ``probability_in_interval``."""

    @pytest.mark.parametrize("hbar", [1.0, 0.7, 1.9])
    @pytest.mark.parametrize("name", list(STRICTNESS_GRIDS))
    def test_match_the_fft_route_on_the_strictness_grids(self, name, hbar):
        grid, length = STRICTNESS_GRIDS[name]
        width = length * hbar
        direct = _rect_sinc_masses(grid, length, width, 0.5, hbar)
        built = fft_rect_sinc_masses(grid, length, width, 0.5, hbar)
        assert direct == pytest.approx(built, abs=1e-10, rel=0)

    @pytest.mark.parametrize("weight", [0.0, 0.3, 1.0])
    def test_match_the_fft_route_at_other_weights(self, weight):
        grid, length = STRICTNESS_GRIDS["2^20"]
        direct = _rect_sinc_masses(grid, length, length, weight)
        built = fft_rect_sinc_masses(grid, length, length, weight, 1.0)
        assert direct == pytest.approx(built, abs=1e-10, rel=0)

    @pytest.mark.parametrize(
        "grid, length, width, weight",
        [
            # window and band edges inside cells, on an offset grid
            (Grid(-140.3, 139.1, 7000), 0.93, 0.61, 0.4),
            (Grid.symmetric(64.0, 1 << 12), 1.3, 2.2, 0.8),
        ],
    )
    def test_match_the_fft_route_across_partial_cells(self, grid, length, width, weight):
        direct = _rect_sinc_masses(grid, length, width, weight, 1.3)
        built = fft_rect_sinc_masses(grid, length, width, weight, 1.3)
        assert direct == pytest.approx(built, abs=1e-10, rel=0)

    @pytest.mark.parametrize(
        "grid, length, width, weight",
        [
            (Grid.symmetric(4.0, 64), 1.0, 0.1, 0.5),
            (Grid(200.0, 400.0, 4096), 1.0, 1.0, 0.0),
            (Grid.symmetric(64.0, 1024), 0.1, 1.0, 0.5),
        ],
    )
    def test_raise_the_grid_error_of_the_state(self, grid, length, width, weight):
        with pytest.raises(GridError) as built:
            rect_sinc_state(grid, length, width, weight)
        with pytest.raises(GridError) as direct:
            _rect_sinc_masses(grid, length, width, weight)
        assert str(direct.value) == str(built.value)

    def test_allocate_no_grid_sized_array(self):
        grid, length = STRICTNESS_GRIDS["2^22"]
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            _rect_sinc_masses(grid, length, length, 0.5)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        # a boolean mask over the grid would take n bytes
        assert peak < grid.n // 16, f"peak {peak} bytes"

    @pytest.mark.parametrize(
        "grid, width",
        [
            (Grid.symmetric(6553.6, 1 << 20), 0.1),
            (Grid(-40.3, 39.1, 2000), 0.93),
            (Grid(-3.0, 50.0, 1000), 7.0),
            (Grid.symmetric(4.0, 64), 100.0),
            (Grid(1.0, 5.0, 64), 12.0),
        ],
    )
    def test_window_cells_are_the_cells_of_the_centre_rule(self, grid, width):
        tol = 1e-12 * (abs(grid.x_min) + abs(grid.x_max) + grid.dx)
        mask = np.abs(grid.centers) <= 0.5 * width - 0.5 * grid.dx + tol
        cells, norm = _window_cells(grid, width, "position")
        assert np.array_equal(cells, np.flatnonzero(mask))
        assert norm == math.sqrt(np.count_nonzero(mask) * grid.dx)


class TestSlepianState:
    def test_position_mass_confined_to_window(self):
        state = slepian_state(1.0, 2.0)
        assert abs(probability_in_interval(state, -1.0, 1.0) - 1.0) <= 1e-12

    def test_band_mass_matches_eigenvalue(self):
        state = aligned_slepian()
        band = probability_in_interval(fourier_transform(state), -1.0, 1.0)
        assert abs(band - lambda0(1.0)) <= 1e-4

    def test_rejects_coarse_grid(self):
        with pytest.raises(GridError):
            slepian_state(1.0, 2.0, grid=Grid.symmetric(50.0, 1024))

    @pytest.mark.parametrize("c", [0.5, 1.5, 4.0])
    def test_default_grid_resolves_the_band(self, c):
        # with L = 2 the band is |p| <= c; a grid that is too short in x
        # has too few momentum cells in the band, and one whose window
        # edges fall inside cells leaks mass past them: either misses
        # lambda0 by more than 1e-4
        band = probability_in_interval(fourier_transform(slepian_state(c, 2.0)), -c, c)
        assert abs(band - lambda0(c)) <= 1e-4

    @pytest.mark.parametrize("c", [0.5, 1.5, 4.0])
    def test_no_leak_when_window_edges_fall_inside_cells(self, c):
        # span 48L puts the edges of L = 2 inside cells; a state with mass
        # past them is not window-limited, and its band mass can then
        # exceed lambda0, the most any window-limited state holds
        state = slepian_state(c, 2.0, grid=Grid.symmetric(96.0, 1 << 15))
        assert 1.0 - probability_in_interval(state, -1.0, 1.0) <= 1e-12
        band = probability_in_interval(fourier_transform(state), -c, c)
        assert band <= lambda0(c) + 1e-9


class TestEntropy:
    def test_uniform_entropy_zero(self):
        assert differential_entropy(uniform_state(Grid(0.0, 1.0, 64))) == 0.0

    def test_gaussian_entropy(self):
        state = gaussian_state(Grid.symmetric(10.0, 4096), 1.0)
        hx = differential_entropy(state)
        assert abs(hx - 0.5 * math.log(2 * math.pi * math.e)) <= 1e-5

    def test_gaussian_entropy_sum_saturates(self):
        state = gaussian_state(Grid.symmetric(10.0, 4096), 0.6)
        total = differential_entropy(state) + differential_entropy(fourier_transform(state))
        assert abs(total - math.log(math.pi * math.e)) <= 1e-4

    def test_narrow_grid_rejected(self):
        with pytest.raises(GridError):
            gaussian_state(Grid.symmetric(3.0, 64), 1.0)
        # a grid that misses the origin holds almost none of the mass
        for grid in (Grid(5.0, 10.0, 64), Grid(-10.0, -5.0, 64)):
            with pytest.raises(GridError):
                gaussian_state(grid, 1.0)


class TestRandomSmooth:
    def test_deterministic(self):
        grid = Grid.symmetric(4.0, 128)
        a = random_smooth_state(grid, seed=42)
        b = random_smooth_state(grid, seed=42)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_seed_sensitivity(self):
        grid = Grid.symmetric(4.0, 128)
        a = random_smooth_state(grid, seed=42)
        b = random_smooth_state(grid, seed=43)
        assert not np.array_equal(a.amplitudes, b.amplitudes)

    @pytest.mark.parametrize("seed, shown", [(1.5, "1.5"), ("a", "'a'"), (-1, "-1")])
    def test_a_seed_is_an_integer_of_at_least_zero(self, seed, shown):
        # numpy's generator raised its own TypeError or ValueError
        with pytest.raises(DomainError, match=f"^seed must be an integer >= 0, got {shown}$"):
            random_smooth_state(Grid.symmetric(4.0, 128), seed)


LENARD_COLUMNS = [
    "x1",
    "x2",
    "p1",
    "p2",
    "position_probability",
    "momentum_probability",
    "concentration",
    "angle_sum",
    "minimal_angle",
    "margin",
    "holds",
]


class TestLenardWitness:
    def test_gaussian_holds_with_margin(self):
        state = gaussian_state(Grid.symmetric(10.0, 1024), 1.0)
        witness = verify_lenard(state, (-2.0, 2.0), (-1.0, 1.0))
        assert list(witness) == LENARD_COLUMNS
        assert (witness["x1"], witness["x2"], witness["p1"], witness["p2"]) == (-2, 2, -1, 1)
        assert witness["holds"] is True
        assert witness["margin"] > 0.05

    def test_saturating_state_sits_on_the_edge(self):
        state = aligned_slepian()
        witness = verify_lenard(state, (-1.0, 1.0), (-1.0, 1.0))
        assert witness["holds"]
        assert abs(witness["margin"]) <= 1e-4
        assert abs(witness["concentration"] - 1.0) <= 1e-12

    def test_rejects_empty_interval(self):
        state = gaussian_state(Grid.symmetric(10.0, 1024), 1.0)
        with pytest.raises(DomainError):
            verify_lenard(state, (1.0, -1.0), (-1.0, 1.0))


def corpus_windows(seed, hbar, count=20):
    rng = np.random.default_rng(seed)
    windows = []
    for _ in range(count):
        xc, xw = rng.uniform(-5.0, 5.0), rng.uniform(0.2, 5.0)
        pc, pw = rng.uniform(-20.0, 20.0) * hbar, rng.uniform(0.2, 5.0) * hbar
        windows.append(((xc - 0.5 * xw, xc + 0.5 * xw), (pc - 0.5 * pw, pc + 0.5 * pw)))
    return windows


class TestLenardBatch:
    @pytest.fixture
    def transform_calls(self, monkeypatch):
        calls = []

        def counted(state):
            calls.append(state)
            return fourier_transform(state)

        monkeypatch.setattr("confunc.states.fourier_transform", counted)
        return calls

    @pytest.mark.parametrize("seed", [3, 11, 123456])
    def test_batch_equals_each_window_alone(self, seed, transform_calls):
        hbar = 1.3
        state = random_smooth_state(Grid.symmetric(20.0, 4096), seed, hbar=hbar)
        windows = corpus_windows(seed + 1, hbar)
        batch = verify_lenard_batch(state, windows)
        assert len(transform_calls) == 1
        single = [verify_lenard(state, x, p) for x, p in windows]
        assert len(transform_calls) == 1 + len(windows)
        assert list(batch) == LENARD_COLUMNS
        assert all(column.shape == (len(windows),) for column in batch.values())
        # each one-row dict is its batch row, key for key and bit for bit
        for k, row in enumerate(single):
            assert list(row) == LENARD_COLUMNS
            for name, value in row.items():
                assert type(value) is type(batch[name][k].item())
                assert np.asarray(value).tobytes() == batch[name][k].tobytes()

    def test_one_eigensolve_per_row_count(self, monkeypatch):
        eigh = np.linalg.eigh
        calls = []

        def counted(matrix):
            calls.append(matrix.shape)
            return eigh(matrix)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        hbar = 0.2
        state = random_smooth_state(Grid.symmetric(20.0, 4096), 4, hbar=hbar)
        windows = corpus_windows(5, hbar)
        table = verify_lenard_batch(state, windows)
        row_counts = set(_rows(table["concentration"]).tolist())
        assert len(row_counts) > 1
        assert len(calls) <= len(row_counts)
        assert sum(shape[0] for shape in calls) == len(windows)

    def test_many_states_equal_each_state_alone(self, monkeypatch):
        # lambda0 of every window of every state in one solve, and each
        # column the concatenation of the one-state tables'
        grid = Grid.symmetric(20.0, 4096)
        items = [
            (random_smooth_state(grid, seed, hbar=hbar), corpus_windows(seed + 1, hbar))
            for seed, hbar in ((3, 1.0), (8, 0.4), (21, 1.3))
        ]
        alone = [verify_lenard_batch(state, windows) for state, windows in items]
        calls = []
        eigenpairs = _eigenpairs

        def counted(cs):
            calls.append(len(cs))
            return eigenpairs(cs)

        monkeypatch.setattr("confunc.states._eigenpairs", counted)
        together = _verify_lenard_states(iter(items))
        assert calls == [60]
        assert list(together) == LENARD_COLUMNS
        for name, column in together.items():
            expected = np.concatenate([table[name] for table in alone])
            assert column.dtype == expected.dtype
            assert column.tobytes() == expected.tobytes(), name

    def test_angles_agree_with_scalar_arccos(self):
        # np.arccos need not round as math.acos does; on the same masses
        # and lambda0 the two stay within 4 ulps
        grid = Grid.symmetric(20.0, 4096)
        items = [(random_smooth_state(grid, seed), corpus_windows(seed + 1, 1.0)) for seed in (3, 8)]
        table = _verify_lenard_states(items)
        values = _eigenpairs(table["concentration"])[0].tolist()
        masses = zip(table["position_probability"].tolist(), table["momentum_probability"].tolist())
        for k, ((px, pp), value) in enumerate(zip(masses, values)):
            angle_sum = math.acos(math.sqrt(px)) + math.acos(math.sqrt(pp))
            margin = angle_sum - math.acos(math.sqrt(value))
            for name, expected in (("angle_sum", angle_sum), ("margin", margin)):
                assert abs(table[name][k] - expected) <= 4 * math.ulp(expected), (name, k)

    def test_no_windows_give_empty_columns(self):
        state = random_smooth_state(Grid.symmetric(20.0, 4096), 5)
        table = verify_lenard_batch(state, [])
        assert list(table) == LENARD_COLUMNS
        assert all(column.shape == (0,) for column in table.values())

    def test_no_states_give_empty_columns(self):
        # an empty corpus failed to unpack its columns
        table = _verify_lenard_states([])
        assert list(table) == LENARD_COLUMNS
        assert all(column.shape == (0,) for column in table.values())

    @pytest.mark.parametrize(
        "bad",
        [((1.0, -1.0), (-1.0, 1.0)), ((-1.0, 1.0), (2.0, 2.0)), ((-math.inf, 1.0), (0.0, 1.0))],
        ids=["reversed_x", "empty_p", "infinite_x"],
    )
    def test_bad_window_raises_before_any_transform(self, bad, transform_calls):
        state = random_smooth_state(Grid.symmetric(20.0, 4096), 5)
        windows = corpus_windows(6, 1.0) + [bad]
        with pytest.raises(DomainError):
            verify_lenard_batch(state, windows)
        assert transform_calls == []

    @pytest.mark.parametrize(
        "bad, message",
        [
            (((0.0, 1.0, 2.0), (0.0, 1.0)), "two intervals of two numbers, got {}$"),
            # the finite check comes before the order check, which NaN fails too
            (
                ((-1.0, 1.0), (math.nan, 1.0)),
                r"^interval endpoints must lie in \(-inf, inf\), got nan$",
            ),
            # text nests as two pairs, so the number rule refuses it
            ((("a", 1.0), (0.0, 1.0)), r"^interval endpoints must be real numbers in .*, {}\]$"),
        ],
        ids=["three_values", "nan_endpoint", "text"],
    )
    def test_window_refusals(self, bad, message, transform_calls):
        state = random_smooth_state(Grid.symmetric(20.0, 4096), 5)
        windows = corpus_windows(6, 1.0) + [bad]
        with pytest.raises(DomainError, match=message.format(re.escape(repr(bad)))):
            verify_lenard_batch(state, windows)
        assert transform_calls == []
