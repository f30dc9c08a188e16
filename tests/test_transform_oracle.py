"""Grid transforms against a frozen oracle, and their memory.

``reference_centred_dft`` builds both phase chirps with complex
``np.exp`` and multiplies out of place. The package builds them from
cos and sin of a real angle and applies them in place; the two must
agree bit for bit, and one transform at 2^20 cells must stay within
three n-cell complex arrays of traced memory (the reference needs 4.5).
The FFT writes over the package's own chirped copy, never over the
input state. ``rect_sinc_state`` builds one inverse transform and must
stay within 3.6 arrays (4.65 when it allocated ``raw`` before the
transform and kept the band mask through it).
"""

import math
import tracemalloc

import numpy as np
import pytest

from confunc.states import (
    Grid,
    GriddedState,
    fourier_transform,
    inverse_fourier_transform,
    rect_sinc_state,
)


def reference_centred_dft(state, target, sign):
    source, h = state.grid, state.hbar
    ds, dt = source.dx, target.dx
    s0 = source.x_min + 0.5 * ds
    t0 = target.x_min + 0.5 * dt
    j = np.arange(source.n)
    pre = np.exp(sign * 1j * t0 * j * ds / h)
    post = np.exp(sign * 1j * t0 * s0 / h) * np.exp(sign * 1j * j * dt * s0 / h)
    dft, norm = (np.fft.fft, "backward") if sign < 0 else (np.fft.ifft, "forward")
    out = dft(state.amplitudes * pre, norm=norm)
    np.multiply((ds / math.sqrt(2.0 * math.pi * h)) * post, out, out=out)
    return out


def random_state(grid, hbar, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
    raw /= math.sqrt(float(np.sum(np.abs(raw) ** 2)) * grid.dx)
    return GriddedState(grid, raw, hbar)


def shifted(grid, offset):
    return Grid(grid.x_min + offset, grid.x_max + offset, grid.n)


def assert_same_bits(result, expected):
    assert np.array_equal(result.amplitudes.view(np.float64), expected.view(np.float64))


@pytest.mark.parametrize("n", [16, 4096, 1 << 15, 1 << 20])
@pytest.mark.parametrize("hbar", [1.0, 1.3, 0.7])
@pytest.mark.parametrize("offset", [0.0, 0.37], ids=["symmetric", "offset"])
def test_transforms_match_the_oracle_bit_for_bit(n, hbar, offset):
    grid = shifted(Grid.symmetric(0.0125 * n, n), offset)
    state = random_state(grid, hbar, seed=n + 7)
    momentum = fourier_transform(state)
    assert momentum.grid == grid.momentum_dual(hbar)
    assert_same_bits(momentum, reference_centred_dft(state, momentum.grid, -1))
    # the same amplitudes read as a momentum state, carried to the default
    # position grid or to an offset one
    position_grid = shifted(grid.momentum_dual(hbar), offset)
    position = inverse_fourier_transform(state, position_grid if offset else None)
    assert position.grid == position_grid
    assert_same_bits(position, reference_centred_dft(state, position_grid, 1))


@pytest.mark.parametrize("transform", [fourier_transform, inverse_fourier_transform])
def test_transform_peak_memory_is_three_arrays(transform):
    n = 1 << 20
    state = random_state(Grid.symmetric(6553.6, n), 1.0, seed=3)
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = transform(state)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert result.grid.n == n
    assert peak <= 3.0 * 16 * n, f"peak {peak / (16 * n):.3f} n-cell complex arrays"


@pytest.mark.parametrize("transform", [fourier_transform, inverse_fourier_transform])
def test_transform_leaves_the_input_unchanged(transform):
    state = random_state(Grid.symmetric(51.2, 4096), 1.3, seed=5)
    before = state.amplitudes.copy()
    transform(state)
    assert np.array_equal(state.amplitudes.view(np.float64), before.view(np.float64))


def test_rect_sinc_state_peak_memory_is_within_3_6_arrays():
    n = 1 << 18
    grid = Grid.symmetric(1638.4, n)
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        state = rect_sinc_state(grid, 0.1, 0.1, 0.5)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert state.grid.n == n
    assert peak <= 3.6 * 16 * n, f"peak {peak / (16 * n):.3f} n-cell complex arrays"
