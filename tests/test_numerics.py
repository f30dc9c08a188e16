"""Numerical kernels against independent references.

Quadrature is checked against numpy's Gauss-Legendre tables and against
exact monomial integrals; the special functions are checked against
scipy, which implements them by unrelated methods.
"""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from confunc import bounds, numerics, states
from confunc.errors import ConvergenceError, DomainError
from confunc.numerics import erf_inverse, gauss_legendre, largest_eigenpair, sine_integral

# value of Si(pi), the maximum of the sine integral (Gibbs constant
# scaled by pi); reference: scipy.special.sici and mpmath agree
SI_PI = 1.8519370519824662


class TestGaussLegendre:
    @pytest.mark.parametrize("order", [2, 3, 5, 16, 64, 400])
    def test_matches_numpy_tables(self, order):
        nodes, weights = gauss_legendre(order)
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(order)
        assert np.max(np.abs(nodes - ref_nodes)) <= 1e-13
        assert np.max(np.abs(weights - ref_weights)) <= 1e-13

    @pytest.mark.parametrize("order", [2, 7, 32, 101])
    def test_rule_invariants(self, order):
        nodes, weights = gauss_legendre(order)
        assert nodes.shape == weights.shape == (order,)
        assert np.max(np.abs(nodes + nodes[::-1])) <= 1e-14
        assert abs(float(np.sum(weights)) - 2.0) <= 1e-13
        assert np.all(weights > 0)
        assert np.all(np.diff(nodes) > 0)

    @pytest.mark.parametrize("order", [2, 5, 12])
    def test_monomial_exactness_to_degree_2n_minus_1(self, order):
        nodes, weights = gauss_legendre(order)
        for k in range(2 * order):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(weights @ nodes**k - exact) <= 1e-12

    def test_rejects_tiny_order(self):
        with pytest.raises(DomainError):
            gauss_legendre(1)

    @pytest.mark.parametrize(
        "order, shown",
        [(2.5, "2.5"), (40.0, "40.0"), (True, "True"), ("3", "'3'")],
        ids=["fraction", "integral_float", "bool", "str"],
    )
    def test_rejects_an_order_that_is_not_an_integer_of_at_least_2(self, order, shown):
        gauss_legendre(40)  # a cached 40 must not answer for 40.0
        with pytest.raises(DomainError, match=f"quadrature order .*, got {shown}$"):
            gauss_legendre(order)

    def test_accepts_numpy_integers(self):
        nodes, weights = gauss_legendre(np.int64(8))
        assert np.array_equal(nodes, gauss_legendre(8)[0])
        assert np.array_equal(weights, gauss_legendre(8)[1])

    def test_arrays_read_only(self):
        nodes, weights = gauss_legendre(8)
        with pytest.raises(ValueError):
            nodes[0] = 0.0
        with pytest.raises(ValueError):
            weights[0] = 0.0

    def test_cache_returns_the_same_read_only_arrays(self):
        # sharing the cached arrays is safe only because writes raise
        first, second = gauss_legendre(9), gauss_legendre(9)
        assert first[0] is second[0] and first[1] is second[1]
        assert not first[0].flags.writeable and not first[1].flags.writeable

    @given(st.lists(st.floats(-2, 2), min_size=1, max_size=9))
    def test_integrates_random_polynomials_exactly(self, coeffs):
        # degree <= 8 < 2*order - 1 for order 5... use order 5 only up
        # to degree 9, so cap at order sufficient for the list
        nodes, weights = gauss_legendre(5)
        poly = np.polynomial.Polynomial(coeffs)
        exact = (poly.integ()(1.0)) - (poly.integ()(-1.0))
        assert abs(weights @ poly(nodes) - exact) <= 1e-10 * (
            1 + abs(exact)
        )


class TestSineIntegral:
    @pytest.mark.parametrize(
        "y",
        [1e-12, 1e-6, 0.1, 0.5, 1.0, math.pi, 2 * math.pi, 10.0, 49.7, 50.0, 50.3, 123.0, 1e4],
    )
    def test_matches_scipy(self, y):
        reference = scipy.special.sici(y)[0]
        assert abs(sine_integral(y) - reference) <= 1e-12

    def test_value_at_pi(self):
        assert abs(sine_integral(math.pi) - SI_PI) <= 1e-13

    def test_zero_and_oddness(self):
        assert sine_integral(0.0) == 0.0
        for y in (0.3, 7.0, 80.0):
            assert sine_integral(-y) == -sine_integral(y)

    def test_limit_pi_over_two(self):
        assert abs(sine_integral(1e8) - math.pi / 2) <= 1e-7

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DomainError):
            sine_integral(bad)

    @given(st.floats(min_value=-300.0, max_value=300.0))
    @settings(deadline=None)
    def test_scipy_agreement_property(self, y):
        assert abs(sine_integral(y) - scipy.special.sici(y)[0]) <= 1e-12


class TestErfInverse:
    @pytest.mark.parametrize("theta", [0.0, 1e-12, 0.1, 0.5, 0.9, 0.99, 1 - 1e-9])
    def test_round_trip(self, theta):
        assert abs(math.erf(erf_inverse(theta)) - theta) <= 1e-12

    def test_matches_scipy(self):
        for theta in (0.2, 0.5, 0.95, 0.999999):
            x = erf_inverse(theta)
            # a machine-precision difference in erf maps to a difference
            # of eps/erf'(x) in x, which blows up near theta = 1
            slope = 2.0 / math.sqrt(math.pi) * math.exp(-x * x)
            assert abs(x - scipy.special.erfinv(theta)) <= 1e-12 + 2e-15 / slope

    def test_half_reference_value(self):
        assert abs(erf_inverse(0.5) - 0.4769362762044699) <= 1e-13

    def test_zero(self):
        assert erf_inverse(0.0) == 0.0

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5, math.nan])
    def test_rejects_out_of_domain(self, bad):
        with pytest.raises(DomainError):
            erf_inverse(bad)

    @given(st.floats(min_value=0.0, max_value=0.9999999))
    @settings(deadline=None)
    def test_round_trip_property(self, theta):
        assert abs(math.erf(erf_inverse(theta)) - theta) <= 1e-12

    @pytest.mark.parametrize(
        "theta", [1e-300, 1e-20, 1e-14, 0.3, 0.5, 0.9, 1 - 1e-10, 1 - 1e-13, 1 - 2**-53]
    )
    def test_matches_mpmath_to_the_last_bits(self, theta):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            exact = mpmath.erfinv(mpmath.mpf(theta))
            assert abs(mpmath.mpf(erf_inverse(theta)) / exact - 1) <= 4.5e-16

    def test_monotone(self):
        grid = np.linspace(0.0, 0.999999, 200)
        values = [erf_inverse(t) for t in grid]
        assert np.all(np.diff(values) > 0)


class TestLargestEigenpair:
    def test_known_two_by_two(self):
        # eigenvalues 3 and 1, leading vector (1, 1)/sqrt(2)
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        value, vector = largest_eigenpair(m)
        assert abs(value - 3.0) <= 1e-12
        assert np.max(np.abs(vector - 1 / math.sqrt(2))) <= 1e-12

    def test_largest_not_largest_magnitude(self):
        m = np.diag([-5.0, 1.0])
        value, vector = largest_eigenpair(m)
        assert abs(value - 1.0) <= 1e-14
        assert abs(abs(vector[1]) - 1.0) <= 1e-14

    def test_residual_within_tol(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((40, 40))
        m = (a + a.T) / 2
        value, vector = largest_eigenpair(m)
        assert np.linalg.norm(m @ vector - value * vector) <= numerics._EIGEN_RESIDUAL
        assert abs(np.linalg.norm(vector) - 1.0) <= 1e-12
        assert value >= np.max(np.linalg.eigvalsh(m)) - 1e-11

    def test_sign_convention(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        _, vector = largest_eigenpair(m)
        assert vector[int(np.argmax(np.abs(vector)))] > 0

    def test_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            largest_eigenpair(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(DomainError):
            largest_eigenpair(np.zeros((2, 3)))

    def test_vector_read_only(self):
        _, vector = largest_eigenpair(np.eye(3))
        with pytest.raises(ValueError):
            vector[0] = 2.0

    def test_stack_equals_each_matrix_alone(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((5, 12, 12))
        stack = a + np.swapaxes(a, -1, -2)
        values, vectors = largest_eigenpair(stack)
        assert values.shape == (5,) and vectors.shape == (5, 12)
        for matrix, value, vector in zip(stack, values, vectors):
            alone = largest_eigenpair(matrix)
            assert type(alone[0]) is float
            assert value == alone[0]
            assert np.array_equal(vector, alone[1])
            assert vector[int(np.argmax(np.abs(vector)))] > 0

    @pytest.mark.parametrize("corruption", ["perturbed", "nan"])
    def test_one_bad_matrix_in_a_stack_raises(self, monkeypatch, corruption):
        # a backend that returns one unconverged pair in a stack must not
        # slip past the residual check of the others
        eigh = np.linalg.eigh

        def corrupt(matrix):
            values, vectors = eigh(matrix)
            vectors = vectors.copy()
            vectors[2, :, -1] = math.nan if corruption == "nan" else vectors[2, :, -2]
            return values, vectors

        monkeypatch.setattr(np.linalg, "eigh", corrupt)
        stack = np.stack([np.diag([1.0, 2.0, 3.0 + k]) for k in range(4)])
        with pytest.raises(ConvergenceError):
            largest_eigenpair(stack)

    def test_rejects_non_square_stack(self):
        with pytest.raises(DomainError):
            largest_eigenpair(np.zeros((3, 2, 3)))


@pytest.mark.parametrize(
    "call, name, shown",
    [
        (lambda: bounds.lp_interval_bound((0.9, 0.9), hbar="1"), "hbar", "'1'"),
        (lambda: bounds.reports([0.5], [0.6], hbar=[1.0]), "hbar", "[1.0]"),
        (lambda: bounds.reports([0.5], [0.6], hbar=None), "hbar", "None"),
        (
            lambda: states.gaussian_state(states.Grid.symmetric(8.0, 256), sigma="1"),
            "sigma",
            "'1'",
        ),
        (lambda: bounds.reports([0.5], [0.6], hbar=np.float64(-1.0)), "hbar", "-1.0"),
    ],
    ids=["str_hbar", "list_hbar", "none_hbar", "str_sigma", "numpy_hbar"],
)
def test_a_positive_input_that_is_not_a_real_number(call, name, shown):
    # the string "1" is refused, not read as the number 1, and shown
    # quoted; a refused numpy scalar reads as a plain number
    with pytest.raises(DomainError, match=f"^{name} must be positive and finite") as caught:
        call()
    assert str(caught.value).endswith(f", got {shown}")
