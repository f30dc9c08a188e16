"""One rule for numeric inputs, at every public entry point.

A real number is a Python or numpy int, float or bool. Text, a complex
number, None and a sequence where one number is due are refused with a
DomainError in one of two wordings, "{name} must lie in {domain}, got
{value}" for a single number and "{name} must be real numbers in {domain},
got {values!r}" for an array, and never read as a number or left to fail
as a bare TypeError or ValueError. Array inputs are fed the bad value as
one of their elements.
"""

import re

import numpy as np
import pytest

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
from confunc.errors import ConfuncError
from confunc.numerics import erf_inverse, gauss_legendre, sine_integral
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
from confunc.states import (
    Grid,
    GriddedState,
    confidence_uncertainty,
    gaussian_state,
    interval_confidence_uncertainty,
    probability_in_interval,
    random_smooth_state,
    rect_sinc_prediction,
    rect_sinc_state,
    slepian_state,
    verify_lenard,
    verify_lenard_batch,
)

GRID = Grid.symmetric(64.0, 1024)
STATE = gaussian_state(GRID, 1.0)
SOLUTION = principal_slepian(1.0, 16)
RULE = gauss_legendre(8)

NOT_ONE_NUMBER = {"text": "0.5", "complex": 0.5 + 0j, "none": None, "list": [0.5]}

# each entry point that reads a real number, called with v in its place,
# and the name its message gives that number
REAL_INPUTS = {
    "sine_integral": (lambda v: sine_integral(v), "y"),
    "erf_inverse": (lambda v: erf_inverse(v), "theta"),
    "lambda0": (lambda v: lambda0(v), "c"),
    "lambda0_small_c": (lambda v: lambda0_small_c(v), "c"),
    "lambda0_large_c": (lambda v: lambda0_large_c(v), "c"),
    "lambda0_inverse": (lambda v: lambda0_inverse(v), "theta"),
    "lambda0_inverse_batch": (lambda v: lambda0_inverse_batch([0.5, v]), "theta"),
    "kernel_matrix_c": (lambda v: kernel_matrix(v, *RULE), "c"),
    "kernel_matrix_nodes": (lambda v: kernel_matrix(1.0, [0.0, v], [1.0, 1.0]), "nodes"),
    "kernel_matrix_weights": (lambda v: kernel_matrix(1.0, [0.0, 0.5], [1.0, v]), "weights"),
    "a_matrix": (lambda v: a_matrix(v), "window product"),
    "principal_slepian": (lambda v: principal_slepian(v), "c"),
    "evaluate_principal": (lambda v: evaluate_principal(SOLUTION, [0.0, v]), "points"),
    "classify_region": (lambda v: classify_region((v, 0.5)), "theta_x"),
    "angular_target": (lambda v: angular_target((0.5, v)), "theta_p"),
    "lp_measurable_bound": (lambda v: lp_measurable_bound((v, 0.9)), "theta_x"),
    "lp_measurable_bound_hbar": (lambda v: lp_measurable_bound((0.9, 0.9), v), "hbar"),
    "lp_interval_bound": (lambda v: lp_interval_bound((0.9, v)), "theta_p"),
    "lp_interval_bound_hbar": (lambda v: lp_interval_bound((0.9, 0.9), v), "hbar"),
    "log_asymptote": (lambda v: log_asymptote(v), "theta_p"),
    "log_asymptote_hbar": (lambda v: log_asymptote(0.9, v), "hbar"),
    "donoho_stark_bound": (lambda v: donoho_stark_bound((v, 0.9)), "theta_x"),
    "donoho_stark_bound_hbar": (lambda v: donoho_stark_bound((0.9, 0.9), v), "hbar"),
    "elementary_bound": (lambda v: elementary_bound((0.9, v)), "theta_p"),
    "gaussian_interval_product": (lambda v: gaussian_interval_product(v), "theta"),
    "gaussian_interval_product_hbar": (lambda v: gaussian_interval_product(0.9, v), "hbar"),
    "bbm_reference": (lambda v: bbm_reference(v), "hbar"),
    "report": (lambda v: report((v, 0.9)), "theta_x"),
    "report_hbar": (lambda v: report((0.9, 0.9), v), "hbar"),
    "reports_theta_x": (lambda v: reports([0.9, v], [0.9, 0.9]), "theta_x"),
    "reports_theta_p": (lambda v: reports([0.9, 0.9], [0.9, v]), "theta_p"),
    "reports_hbar": (lambda v: reports([0.9], [0.9], v), "hbar"),
    "momentum_dual": (lambda v: GRID.momentum_dual(v), "hbar"),
    "gridded_state": (lambda v: GriddedState(GRID, STATE.amplitudes, v), "hbar"),
    "probability_in_interval_a": (lambda v: probability_in_interval(STATE, v, 1.0), "a"),
    "probability_in_interval_b": (lambda v: probability_in_interval(STATE, -1.0, v), "b"),
    "confidence_uncertainty": (lambda v: confidence_uncertainty(STATE, v), "theta"),
    "interval_confidence_uncertainty": (
        lambda v: interval_confidence_uncertainty(STATE, v),
        "theta",
    ),
    "gaussian_state": (lambda v: gaussian_state(GRID, v), "sigma"),
    "gaussian_state_hbar": (lambda v: gaussian_state(GRID, 1.0, v), "hbar"),
    "rect_sinc_prediction_length": (lambda v: rect_sinc_prediction(v, 1.0, 0.5), "length"),
    "rect_sinc_prediction_width": (lambda v: rect_sinc_prediction(1.0, v, 0.5), "width"),
    "rect_sinc_prediction_weight": (lambda v: rect_sinc_prediction(1.0, 1.0, v), "weight"),
    "rect_sinc_prediction_hbar": (lambda v: rect_sinc_prediction(1.0, 1.0, 0.5, v), "hbar"),
    "rect_sinc_state_length": (lambda v: rect_sinc_state(GRID, v, 1.0, 0.5), "length"),
    "rect_sinc_state_width": (lambda v: rect_sinc_state(GRID, 1.0, v, 0.5), "width"),
    "rect_sinc_state_weight": (lambda v: rect_sinc_state(GRID, 1.0, 1.0, v), "weight"),
    "rect_sinc_state_hbar": (lambda v: rect_sinc_state(GRID, 1.0, 1.0, 0.5, v), "hbar"),
    "slepian_state_c": (lambda v: slepian_state(v, 2.0), "c"),
    "slepian_state_length": (lambda v: slepian_state(1.0, v), "length"),
    "slepian_state_hbar": (lambda v: slepian_state(1.0, 2.0, v), "hbar"),
    "random_smooth_state_hbar": (lambda v: random_smooth_state(GRID, 1, v), "hbar"),
}


@pytest.mark.parametrize("bad", NOT_ONE_NUMBER.values(), ids=NOT_ONE_NUMBER)
@pytest.mark.parametrize("call, name", REAL_INPUTS.values(), ids=REAL_INPUTS)
def test_a_real_input_that_is_not_one_real_number(call, name, bad):
    with pytest.raises(ConfuncError) as caught:
        call(bad)
    message = str(caught.value)
    assert re.match(rf"{name} must (lie in|be real numbers in) [\[(]\S+, \S+[\])], got ", message)


@pytest.mark.parametrize("bad", ["-1", -1 + 0j, None], ids=["text", "complex", "none"])
@pytest.mark.parametrize(
    "call",
    [
        lambda v: verify_lenard(STATE, (v, 1.0), (-1.0, 1.0)),
        lambda v: verify_lenard_batch(STATE, [((-1.0, 1.0), (v, 1.0))]),
    ],
    ids=["verify_lenard", "verify_lenard_batch"],
)
def test_a_window_end_that_is_not_a_real_number(call, bad):
    # text such as "-1" was read as the number -1; a window end that is a
    # list is a window of another shape (see test_states)
    with pytest.raises(ConfuncError, match=r"^interval endpoints must be real numbers in "):
        call(bad)


@pytest.mark.parametrize("bad", NOT_ONE_NUMBER.values(), ids=NOT_ONE_NUMBER)
@pytest.mark.parametrize(
    "call",
    [
        lambda v: gauss_legendre(v),
        lambda v: principal_slepian(1.0, v),
        lambda v: random_smooth_state(GRID, v),
        lambda v: Grid(0.0, 1.0, v),
        lambda v: Grid.symmetric(v, 32),
    ],
    ids=["gauss_legendre", "principal_slepian_order", "random_smooth_state", "grid", "symmetric"],
)
def test_an_integer_or_grid_input_that_is_not_a_number(call, bad):
    # integer inputs and grid ends keep their own messages, but no bare error
    with pytest.raises(ConfuncError):
        call(bad)


def test_a_numpy_scalar_and_a_bool_are_real_numbers():
    assert lambda0(np.float32(1.0)) == lambda0(1.0)
    assert lambda0_inverse_batch(np.array([0.5], dtype=np.float16)).shape == (1,)
    assert report((True, np.int64(1)))["region"] == "bounded"
