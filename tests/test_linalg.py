import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from pietsp.linalg import elu, elu_grad, logistic, relu, relu_grad, softplus


def test_elu_definition():
    x = np.array([[0.0, 1.0, -1.0]])
    out = elu(x)
    assert out[0, 0] == 0.0
    assert out[0, 1] == 1.0
    assert abs(out[0, 2] - (np.exp(-1.0) - 1.0)) < 1e-15


def test_elu_smooth_at_zero():
    # derivative straddle: both one-sided finite differences equal 1
    h = 1e-6
    left = (elu(np.array([[0.0]])) - elu(np.array([[-h]]))) / h
    right = (elu(np.array([[h]])) - elu(np.array([[0.0]]))) / h
    assert abs(left[0, 0] - 1.0) < 1e-6
    assert abs(right[0, 0] - 1.0) < 1e-9


def test_elu_grad_from_output():
    x = np.array([[-2.0, -0.3, 0.4, 3.0]])
    assert np.allclose(elu_grad(elu(x)), np.where(x > 0, 1.0, np.exp(x)))


def test_relu_definition():
    assert np.array_equal(relu(np.array([[-2.0, 0.0, 3.0]])), [[0.0, 0.0, 3.0]])


def test_relu_grad_from_output():
    x = np.array([[-1.0, 0.0, 2.0]])
    assert np.array_equal(relu_grad(relu(x)), [[0.0, 0.0, 1.0]])


def test_logistic_midpoint_and_saturation():
    assert logistic(np.array([0.0]))[0] == 0.5
    assert logistic(np.array([800.0]))[0] == 1.0
    assert logistic(np.array([-800.0]))[0] == 0.0  # no overflow either way


def test_softplus_stable():
    assert abs(softplus(np.array([0.0]))[0] - np.log(2.0)) < 1e-15
    assert softplus(np.array([1000.0]))[0] == 1000.0
    assert softplus(np.array([-1000.0]))[0] == 0.0


@given(st.lists(st.floats(-30, 30), min_size=2, max_size=30).map(sorted))
def test_activations_monotone(xs):
    row = np.array([xs])
    for fn in (elu, relu, logistic):
        out = fn(row)[0]
        assert all(out[i] <= out[i + 1] + 1e-12 for i in range(len(out) - 1))


def _two_branch_logistic(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_logistic_is_bitwise_the_two_branch_formula():
    grid = np.array([0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 30.0, -30.0, 710.0, -710.0, 1e308, -1e308])
    grid = np.concatenate([grid, np.linspace(-40.0, 40.0, 801)])
    with np.errstate(over="ignore"):
        assert np.array_equal(logistic(grid), _two_branch_logistic(grid))
        assert np.array_equal(logistic(grid.reshape(-1, 3)), _two_branch_logistic(grid).reshape(-1, 3))
        single = grid.astype(np.float32)
        got = logistic(single)
    assert got.dtype == np.float32
    assert np.array_equal(got, _two_branch_logistic(single))
