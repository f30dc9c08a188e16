"""Concentration eigenvalue engine.

The eigenvalue comes from the tridiagonal prolate matrix (the
production path) and is checked against two independent routes, the
Nystrom discretisation of the sinc kernel and the Fourier-coefficient
matrix whose norm must equal pi times the same eigenvalue, and against
a 40-digit solve of the prolate matrix. Tests also pin the inverse,
the principal eigenfunction's defining properties, and the Legendre
series the saturating state is sampled from.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confunc import slepian
from confunc.errors import ConvergenceError, DomainError
from confunc.numerics import gauss_legendre, largest_eigenpair
from confunc.slepian import (
    a_matrix,
    evaluate_principal,
    kernel_matrix,
    lambda0,
    lambda0_inverse,
    lambda0_inverse_batch,
    lambda0_large_c,
    lambda0_small_c,
    principal_slepian,
)
from confunc.states import Grid, gaussian_state, slepian_state, verify_lenard

# frozen regression anchors, computed by the dense 400-point Nystrom
# eigensolve that preceded the tridiagonal engine; today's lambda0 meets
# them to 6e-16, and both lie within 7e-16 of the 40-digit mpmath solve
# of the prolate matrix (_lambda0_high_precision below)
LAMBDA0_AT_1 = 0.5725817806378944
LAMBDA0_AT_2 = 0.880559922317309


class TestLambda0:
    def test_regression_anchors(self):
        assert abs(lambda0(1.0) - LAMBDA0_AT_1) <= 1e-12
        assert abs(lambda0(2.0) - LAMBDA0_AT_2) <= 1e-12

    def test_zero(self):
        assert lambda0(0.0) == 0.0

    def test_negative_zero_gives_unsigned_zero(self):
        assert math.copysign(1.0, lambda0(-0.0)) == 1.0

    def test_open_unit_interval(self):
        for c in (1e-4, 0.5, 3.0, 12.0):
            value = lambda0(c)
            assert 0.0 < value < 1.0

    def test_monotone_in_c(self):
        grid = np.linspace(0.05, 6.0, 60)
        values = [lambda0(c) for c in grid]
        assert np.all(np.diff(values) > 0)

    @pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf])
    def test_rejects_negative(self, bad):
        with pytest.raises(DomainError):
            lambda0(bad)

    def test_small_c_asymptote(self):
        c = 0.02
        assert abs(lambda0(c) / lambda0_small_c(c) - 1.0) <= 0.01

    def test_large_c_asymptote(self):
        c = 8.0
        tail = 1.0 - lambda0(c)
        tail_approx = 1.0 - lambda0_large_c(c)
        assert abs(tail / tail_approx - 1.0) <= 0.15


class TestKernelMatrix:
    def test_symmetric_and_diagonal(self):
        nodes, weights = gauss_legendre(60)
        c = 1.3
        m = kernel_matrix(c, nodes, weights)
        assert np.max(np.abs(m - m.T)) <= 1e-16
        assert np.max(np.abs(np.diag(m) - weights * c / math.pi)) <= 1e-15

    @pytest.mark.parametrize(
        "nodes, weights, message",
        [
            (np.zeros(4), np.ones(5), "nodes and weights must be 1-D"),
            (np.zeros((2, 2)), np.ones((2, 2)), "nodes and weights must be 1-D"),
            ([0.0, 0.5], [1.0, math.nan], "weights finite and positive"),
            ([0.0, 0.5], [1.0, -1.0], "weights finite and positive"),
            ([0.0, math.inf], [1.0, 1.0], "nodes must be finite"),
        ],
        ids=["lengths_differ", "two_dimensional", "nan_weight", "negative_weight", "inf_node"],
    )
    def test_rejects_nodes_and_weights_that_are_not_one_rule(self, nodes, weights, message):
        # a bad value would pass through to NaN entries (and a numpy
        # warning for the square root of a negative weight)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=message):
                kernel_matrix(1.0, nodes, weights)

    def test_eigenvalue_against_independent_quadrature(self):
        # integrate the kernel against the eigenfunction on a finer rule
        c = 1.0
        solution = principal_slepian(c, order=240)
        fine_nodes, fine_weights = gauss_legendre(600)
        psi_fine = evaluate_principal(solution, fine_nodes)
        du = fine_nodes[:, None] - fine_nodes[None, :]
        with np.errstate(invalid="ignore", divide="ignore"):
            kern = np.sin(c * du) / (math.pi * du)
        np.fill_diagonal(kern, c / math.pi)
        applied = kern @ (fine_weights * psi_fine)
        assert np.max(np.abs(applied - solution.lambda0 * psi_fine)) <= 1e-8


class TestInverse:
    @pytest.mark.parametrize("theta", [0.01, 0.16, 0.64, 0.9, 0.99, 1 - 1e-6])
    def test_round_trip(self, theta):
        c = lambda0_inverse(theta)
        assert abs(lambda0(c) - theta) <= 1e-10

    def test_monotone(self):
        thetas = np.linspace(0.02, 0.98, 25)
        values = lambda0_inverse_batch(thetas)
        assert np.all(np.diff(values) > 0)

    def test_batch_matches_scalar_and_preserves_order(self):
        thetas = np.array([0.9, 0.1, 0.64, 0.1])
        batch = lambda0_inverse_batch(thetas)
        for theta, c in zip(thetas, batch):
            assert abs(c - lambda0_inverse(theta)) <= 1e-9
        assert batch[1] == batch[3]

    def test_batch_empty(self):
        assert lambda0_inverse_batch(np.array([])).size == 0

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5])
    def test_rejects_out_of_domain(self, bad):
        with pytest.raises(DomainError):
            lambda0_inverse(bad)

    def test_rejects_unresolvable(self):
        with pytest.raises(DomainError):
            lambda0_inverse(1 - 1e-14)

    def test_asymptotic_inverses(self):
        # small theta: c ~ pi*theta/2; large theta: c ~ -ln(1-theta)/2
        assert abs(lambda0_inverse(0.001) / (math.pi * 0.001 / 2) - 1) <= 0.01
        theta = 1 - 1e-8
        assert abs(lambda0_inverse(theta) / (-0.5 * math.log1p(-theta)) - 1) <= 0.25


class TestAMatrix:
    # at c = 4 and 8 the window holds one and two pairs of 2 pi k panel splits
    @pytest.mark.parametrize("c", [0.5, 1.0, 1.5, 2.0, 4.0, 8.0])
    def test_matches_eigenvalue_route(self, c):
        norm, _ = largest_eigenpair(a_matrix(4.0 * c))
        assert abs(norm / math.pi - lambda0(c)) <= 1e-6

    def test_symmetric_positive_semidefinite(self):
        a = a_matrix(6.0)
        assert np.max(np.abs(a - a.T)) <= 1e-14
        assert np.min(np.linalg.eigvalsh(a)) >= -1e-12

    def test_truncation_converged(self, monkeypatch):
        n64, _ = largest_eigenpair(a_matrix(4.0))
        monkeypatch.setattr(slepian, "_A_TRUNCATION", 32)
        n32, _ = largest_eigenpair(a_matrix(4.0))
        assert abs(n32 - n64) <= 1e-6

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            a_matrix(0.0)


class TestPrincipalFunction:
    def test_unit_norm_on_interval(self):
        solution = principal_slepian(1.5)
        _, weights = gauss_legendre(solution.quadrature_order)
        norm = weights @ solution.principal_function**2
        assert abs(norm - 1.0) <= 1e-10

    def test_even_and_positive_at_origin(self):
        solution = principal_slepian(2.0)
        points = np.linspace(0.05, 0.95, 10)
        left = evaluate_principal(solution, -points)
        right = evaluate_principal(solution, points)
        assert np.max(np.abs(left - right)) <= 1e-8
        assert evaluate_principal(solution, np.array([0.0]))[0] > 0

    def test_extension_reproduces_samples(self):
        solution = principal_slepian(1.0, order=180)
        nodes, _ = gauss_legendre(180)
        again = evaluate_principal(solution, nodes)
        assert np.max(np.abs(again - solution.principal_function)) <= 1e-9

    def test_concentration_decreases_off_interval(self):
        # the extension decays beyond the concentration interval
        solution = principal_slepian(2.0)
        inside = evaluate_principal(solution, np.array([0.0]))[0]
        outside = evaluate_principal(solution, np.array([3.0]))[0]
        assert abs(outside) < inside

    def test_rejects_zero_c(self):
        with pytest.raises(DomainError):
            principal_slepian(0.0)

    def test_rejects_an_order_that_is_not_an_integer(self):
        # once truncated to 40 nodes and then refused for its sample count
        with pytest.raises(DomainError, match="quadrature order must be an integer"):
            principal_slepian(1.0, order=40.5)


@given(st.floats(min_value=0.01, max_value=6.0), st.floats(min_value=0.01, max_value=6.0))
@settings(deadline=None, max_examples=25)
def test_lambda0_monotone_property(c1, c2):
    lo, hi = sorted((c1, c2))
    if hi - lo < 1e-6:
        return
    assert lambda0(lo) < lambda0(hi)


class TestHighConfidence:
    def test_lambda0_stays_below_one(self):
        assert lambda0(40.0) < 1.0
        assert principal_slepian(40.0).lambda0 < 1.0

    def test_inversion_raises_at_iteration_cap(self, monkeypatch):
        # an eigenvalue that steps over the target at c = 0.5 never meets
        # it, and with a zero tolerance the bracket stalls at one ulp
        # around 0.5, so the solver must give up rather than return
        monkeypatch.setattr(slepian, "_INVERSION_TOL", 0.0)
        true_pairs = slepian._eigenpairs

        def step(cs):
            values, edges, rows = true_pairs(cs)
            return np.where(np.asarray(cs) < 0.5, 0.2, 0.4), edges, rows

        monkeypatch.setattr(slepian, "_eigenpairs", step)
        with pytest.raises(ConvergenceError):
            lambda0_inverse(0.3)


def test_fixed_tolerances_are_not_settings():
    # a loose inversion tolerance overstated c 1.9x at theta = 0.5, and an
    # infinite Lenard slack made every witness hold; neither can be passed
    assert type(lambda0_inverse(0.5)) is float
    with pytest.raises(TypeError):
        lambda0_inverse(0.5, tol=1.0)
    state = gaussian_state(Grid.symmetric(10.0, 1024), 1.0)
    with pytest.raises(TypeError):
        verify_lenard(state, (-1.0, 1.0), (-1.0, 1.0), slack=math.inf)
    with pytest.raises(TypeError):
        a_matrix(4.0, truncation=64)


def test_batch_rejects_nan_target():
    with pytest.raises(DomainError):
        lambda0_inverse_batch([0.5, math.nan])


@given(st.floats(min_value=math.log(2e-12), max_value=math.log(0.5)))
@settings(deadline=None, max_examples=6)
def test_inverse_round_trip_in_log_complement(log_eps):
    # the stopping rule is relative in 1 - theta, so the complement
    # 1 - lambda0 is matched even where theta is within 1e-11 of 1
    theta = 1.0 - math.exp(log_eps)
    c = lambda0_inverse(theta)
    assert abs(math.log1p(-lambda0(c)) - math.log1p(-theta)) <= 1e-4


class TestProlateEngine:
    """The tridiagonal prolate route against independent oracles."""

    @pytest.mark.parametrize("c", [0.01, 0.5, 1.0, 3.0, 8.0])
    def test_matches_dense_nystrom_route(self, c):
        dense, _ = largest_eigenpair(kernel_matrix(c, *gauss_legendre(400)))
        assert abs(lambda0(c) - dense) <= 1e-14

    @pytest.mark.parametrize("c", [0.5, 1.0, 3.0, 8.0, 40.0])
    def test_ground_characteristic_value(self, c):
        special = pytest.importorskip("scipy.special")
        chi = np.linalg.eigvalsh(slepian._prolate_matrix(c))[0]
        assert chi == pytest.approx(special.pro_cv(0, 0, c), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_edge_value_gives_the_derivative(self, c):
        # Newton's derivative d lambda0/dc = 2 lambda0 psi0(1)^2 / c, with
        # psi0(1) from the engine, against a central difference of lambda0
        # itself
        (value,), (edge,), _ = slepian._eigenpairs([c])
        h = 1e-5 * c
        difference = (lambda0(c + h) - lambda0(c - h)) / (2.0 * h)
        assert 2.0 * value * edge * edge / c == pytest.approx(difference, rel=1e-8)

    def test_samples_match_nystrom_eigenvector(self):
        c, order = 2.5, 200
        nodes, weights = gauss_legendre(order)
        _, vector = largest_eigenpair(kernel_matrix(c, nodes, weights))
        samples = vector / np.sqrt(weights)
        if samples[order // 2] < 0:
            samples = -samples
        solution = principal_slepian(c, order=order)
        assert np.max(np.abs(solution.principal_function - samples)) <= 1e-10

    @pytest.mark.parametrize("c", [0.5, 1.5, 8.0, 40.0])
    def test_state_series_matches_sinc_interpolation(self, c):
        # slepian_state sums psi0's Legendre series at the cell centres;
        # the sinc-kernel extension of the Gauss-Legendre samples reaches
        # the same values by another route
        length = 3.0
        state = slepian_state(c, length)
        x = state.grid.centers
        inside = np.abs(x) < 0.5 * length
        expected = math.sqrt(2.0 / length) * evaluate_principal(
            principal_slepian(c), 2.0 * x[inside] / length
        )
        # the state is renormalised on its grid, so the reference is too
        expected /= math.sqrt(np.sum(expected**2) * state.grid.dx)
        assert np.max(np.abs(state.amplitudes[inside] - expected)) <= 1e-13
        assert not np.any(state.amplitudes[~inside])

    def test_stays_below_one_up_to_the_cap(self):
        assert lambda0(40.0) < 1.0
        assert lambda0(slepian._C_MAX) < 1.0

    def test_rejects_c_above_the_cap_before_building_a_matrix(self, monkeypatch):
        def refuse(c):
            raise AssertionError(f"prolate matrix built for c = {c}")

        monkeypatch.setattr(slepian, "_prolate_matrix", refuse)
        above = math.nextafter(slepian._C_MAX, math.inf)
        with pytest.raises(DomainError, match="supported range"):
            lambda0(above)
        with pytest.raises(DomainError, match="supported range"):
            principal_slepian(above)


class TestStackedEngine:
    """_eigenpairs solves many c in stacked eigensolves, one per row count."""

    # log-spaced over the whole range plus Lenard-like windows, so the
    # batch spans many row counts and repeats some of them
    SPREAD = np.concatenate(
        [np.geomspace(1e-3, 1000.0, 60), np.random.default_rng(2).uniform(0.0, 6.0, 40)]
    )

    def test_batch_equals_each_c_alone(self):
        values, edges, rows = slepian._eigenpairs(self.SPREAD)
        assert len({slepian._rows(c) for c in self.SPREAD}) > 10
        for c, value, edge, row in zip(self.SPREAD, values, edges, rows):
            assert value == lambda0(c)
            (_,), (alone_edge,), (alone_row,) = slepian._eigenpairs([c])
            assert edge == alone_edge
            assert np.array_equal(row, alone_row)
            assert len(row) == slepian._rows(c)

    def test_last_retained_coefficient_carries_no_digits(self):
        _, _, rows = slepian._eigenpairs(self.SPREAD)
        assert max(abs(row[-1]) for row in rows) <= 1e-20

    def test_edge_is_the_sum_of_the_rows_laid_end_to_end(self):
        # psi0(1), which sets Newton's derivative, keeps the bits of the
        # rows summed end to end; a plain sum over each row differs in
        # the last bits for most c
        _, edges, rows = slepian._eigenpairs(self.SPREAD)
        sizes = slepian._rows(self.SPREAD)
        expected = np.add.reduceat(np.concatenate(rows), np.cumsum(sizes) - sizes)
        assert edges.tobytes() == expected.tobytes()

    def test_one_eigensolve_per_row_count(self, monkeypatch):
        eigh = np.linalg.eigh
        shapes = []

        def counted(matrix):
            shapes.append(matrix.shape)
            return eigh(matrix)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        slepian._eigenpairs([0.5, 13.0, 1.5, 12.5, 0.25])
        assert sorted(shapes) == [(2, 26, 26), (3, 20, 20)]

    def test_rejects_a_bad_c_before_building_a_matrix(self, monkeypatch):
        def refuse(c):
            raise AssertionError(f"prolate matrix built for c = {c}")

        monkeypatch.setattr(slepian, "_prolate_matrix", refuse)
        for bad in (-1.0, math.nan, 1001.0):
            with pytest.raises(DomainError):
                slepian._eigenpairs([1.0, bad])

    def test_refuses_work_above_the_bound_before_building_a_matrix(self, monkeypatch):
        def refuse(c):
            raise AssertionError(f"prolate matrix built for c = {c}")

        monkeypatch.setattr(slepian, "_prolate_matrix", refuse)
        # 200 solves of 515 rows: 2.7e10 rows^3
        monkeypatch.setattr(slepian, "_MAX_SOLVE_WORK", 2e10)
        with pytest.raises(DomainError, match=r"200 values of c up to 990 need 2\.73e\+10"):
            slepian._eigenpairs(np.full(200, 990.0))

    def test_principal_slepian_solves_once(self, monkeypatch):
        calls = []
        eigenpairs = slepian._eigenpairs

        def counted(cs):
            calls.append(list(cs))
            return eigenpairs(cs)

        monkeypatch.setattr(slepian, "_eigenpairs", counted)
        solution = principal_slepian(1.5)
        assert calls == [[1.5]]
        assert solution.lambda0 == eigenpairs([1.5])[0][0]


class TestSmallThetaInverse:
    """Near theta = 0 the inversion is relative in theta, not absolute."""

    # the first trial, pi theta / 2, already meets 1e-10 below about
    # 1e-5, so 1e-4 and 3e-4 are where a tolerance absolute in lambda0
    # still shows
    @pytest.mark.parametrize(
        "theta", [1e-300, 1e-100, 1e-20, 1e-12, 1e-11, 1e-8, 1e-6, 1e-4, 3e-4]
    )
    def test_relative_accuracy(self, theta):
        c = lambda0_inverse(theta)
        assert abs(lambda0(c) / theta - 1.0) <= 1e-10

    @pytest.mark.parametrize("theta", [1e-300, 1e-100, 1e-20, 1e-12, 1e-11, 1e-8])
    def test_small_c_law(self, theta):
        # lambda0(c) = 2c/pi (1 + O(c^2)), so c = pi theta / 2 to 1e-16
        # here, independently of the eigensolve
        assert abs(lambda0_inverse(theta) / (math.pi * theta / 2.0) - 1.0) <= 2e-10

    @pytest.mark.parametrize("theta", [5e-324, 1e-320])
    def test_subnormal_theta_is_refused(self, theta):
        # 1e-10 * theta underflows there, so the relative stopping test
        # cannot hold; 5e-324 used to give 2x pi theta / 2
        with pytest.raises(DomainError, match="normal doubles"):
            lambda0_inverse(theta)
        with pytest.raises(DomainError, match="normal doubles"):
            lambda0_inverse_batch([0.5, theta])

    def test_smallest_normal_theta_is_accepted(self):
        theta = 2.2250738585072014e-308
        assert abs(lambda0_inverse(theta) / (math.pi * theta / 2.0) - 1.0) <= 2e-10


class TestLockstepInverse:
    """lambda0_inverse_batch iterates every target at once, one call of
    the stacked eigensolver per round."""

    MIXED = [1e-300, 1e-12, 0.3, 0.5, 0.99, 1.0 - 1e-11]

    @staticmethod
    def eigh_shapes(monkeypatch):
        eigh = np.linalg.eigh
        shapes = []

        def counted(matrix):
            shapes.append(matrix.shape)
            return eigh(matrix)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        return shapes

    def test_mixed_batch_meets_each_contract(self):
        batch = lambda0_inverse_batch(self.MIXED)
        for theta, c in zip(self.MIXED, batch):
            assert abs(c / lambda0_inverse(theta) - 1.0) <= 1e-9
            gap = abs(lambda0(c) - theta)
            if 1.0 - theta > 1e-6:
                assert gap <= 1e-10 * min(theta, 1.0 - theta)
            else:
                # lambda0 near 1 moves in ulps of 1, coarser than
                # 1e-10 * (1 - theta); the bracket test stops there
                assert gap <= 4 * math.ulp(1.0)

    def test_grid_16_takes_few_eigensolves(self, monkeypatch):
        from confunc.bounds import angular_target

        levels = [i / 17 for i in range(1, 17)]
        targets = {angular_target((tx, tp)) for tx in levels for tp in levels} - {0.0}
        assert len(targets) == 64
        shapes = self.eigh_shapes(monkeypatch)
        lambda0_inverse_batch(sorted(targets))
        assert len(shapes) <= 10

    def test_stacks_never_exceed_the_cap(self, monkeypatch):
        rng = np.random.default_rng(5)
        cs = rng.uniform(0.2, 5.0, 1000) * rng.uniform(0.2, 5.0, 1000) / 4.0
        shapes = self.eigh_shapes(monkeypatch)
        slepian._eigenpairs(cs)
        # these Lenard-like c reach 6.25 and 23 rows, and a full stack of
        # each of their row counts holds 64 matrices or more
        assert slepian._STACK_ENTRIES // (23 * 23) >= 64
        assert all(count * n * n <= slepian._STACK_ENTRIES for count, n, _ in shapes)
        assert sum(shape[0] for shape in shapes) == cs.size
        # one partly filled stack at most per row count
        per_size = {}
        for count, n, _ in shapes:
            per_size.setdefault(n, []).append(count)
        for n, counts in per_size.items():
            full = slepian._STACK_ENTRIES // (n * n)
            assert sum(count < full for count in counts) <= 1

    def test_large_matrices_go_in_smaller_stacks(self, monkeypatch):
        # a 515-row matrix is above the entry budget, so it is solved alone
        shapes = self.eigh_shapes(monkeypatch)
        slepian._eigenpairs(np.full(5, 990.0))
        assert shapes == [(1, 515, 515)] * 5


def _lambda0_high_precision(mp, c):
    """lambda0 of the prolate matrix with floor(c/2) + 40 rows, 20 more
    than the engine keeps, built and solved by mpmath; so it checks the
    engine's truncation as well as its rounding.

    ``mp.eigsy`` gives the ground characteristic value chi; the ground
    eigenvector then follows from the rows of (A - chi) b = 0 by
    backward recurrence, which is stable because the coefficients fall
    off with the degree. lambda0 = (c / 2 pi) (sqrt(2) b0 / psi0(0))^2
    does not depend on the normalisation of b.
    """
    m = int(c // 2) + 40
    cc = mp.mpf(c) ** 2
    a = mp.zeros(m, m)
    for i in range(m):
        k = mp.mpf(2 * i)
        a[i, i] = k * (k + 1) + cc * (2 * k * (k + 1) - 1) / ((2 * k + 3) * (2 * k - 1))
        if i + 1 < m:
            off = cc * (k + 2) * (k + 1) / ((2 * k + 3) * mp.sqrt((2 * k + 1) * (2 * k + 5)))
            a[i, i + 1] = a[i + 1, i] = off
    chi = mp.eigsy(a, eigvals_only=True)[0]
    b = [mp.mpf(0)] * m
    b[m - 1] = mp.mpf(1)
    b[m - 2] = (chi - a[m - 1, m - 1]) * b[m - 1] / a[m - 2, m - 1]
    for i in range(m - 2, 0, -1):
        b[i - 1] = ((chi - a[i, i]) * b[i] - a[i, i + 1] * b[i + 1]) / a[i - 1, i]
    legendre_at_zero, at_zero = mp.mpf(1), mp.mpf(0)
    for j in range(m):
        if j:
            legendre_at_zero *= -mp.mpf(2 * j - 1) / (2 * j)
        at_zero += b[j] * mp.sqrt(2 * j + mp.mpf(0.5)) * legendre_at_zero
    mu = mp.sqrt(2) * b[0] / at_zero
    return mp.mpf(c) / (2 * mp.pi) * mu * mu


@pytest.mark.parametrize("c", [0.05, 1.0, 5.0, 10.0, 13.0])
def test_lambda0_against_40_digit_oracle(c):
    # lambda0 runs from 0.03 to 1 - 1.3e-10 here, so only a bound in
    # ulps of lambda0 is meaningful; the dense Nystrom route and this
    # engine both scatter by up to ~17 ulps over c in [1, 15], and the
    # oracle's 20 extra rows also catch a truncation that drops digits
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        exact = _lambda0_high_precision(mpmath, c)
        error = abs(mpmath.mpf(lambda0(c)) - exact)
        assert error <= 20 * math.ulp(float(exact)), (
            f"c={c}: 1 - lambda0 = {mpmath.nstr(1 - exact, 12)}, "
            f"engine off by {float(error) / math.ulp(float(exact)):.1f} ulps"
        )
