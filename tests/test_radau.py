import numpy as np
import pytest

from phasectl import radau


def test_tableau_is_radau_iia():
    """The coefficients computed from the nodes satisfy the simplifying
    conditions C(3) and B(5) (order 5), and the method is L-stable."""
    c, a, b = radau.NODES, radau.A, radau.A[-1]
    for k in range(1, 4):
        np.testing.assert_allclose(a @ c ** (k - 1), c ** k / k, atol=1e-15)
    for k in range(1, 6):
        assert abs(b @ c ** (k - 1) - 1.0 / k) <= 1e-15
    for z in (-1e4, -1e8):
        stability = 1.0 + z * b @ np.linalg.solve(np.eye(3) - z * a,
                                                  np.ones(3))
        assert abs(stability) <= 10.0 / abs(z)
    assert abs(1.0 / radau.GAMMA - (3 + 3 ** (2 / 3) - 3 ** (1 / 3))) <= 1e-14


def test_error_estimate_has_order_three():
    """y_hat is exact on polynomials of degree up to 3: for y' = t^k the
    stage increments are exact, and the estimate vanishes for k <= 2."""
    h = 0.1
    for k in range(4):
        z = (radau.NODES * h) ** (k + 1) / (k + 1)
        f0 = 1.0 if k == 0 else 0.0
        estimate = h * radau.GAMMA * f0 + radau.ERR_WEIGHTS @ z
        if k < 3:
            assert abs(estimate) <= 1e-15
        else:
            assert abs(estimate) > 1e-8


def linear(lam):
    return (lambda y, p: lam * y), (lambda y, f: np.array([[lam]]))


@pytest.mark.parametrize("lam", [-1.0, -1e6])
def test_integrate_levels_exponential_decay(lam):
    """y' = lam y at every level to 1e-8 relative or 1e-12 absolute,
    stiff or not, in under a thousand step attempts."""
    fun, jac = linear(lam)
    times = np.linspace(0.0, 1.0, 11)
    got = radau.integrate_levels(fun, jac, [1.0], times, [None] * 10,
                                 rtol=1e-10, atol=1e-13, max_steps=1000)
    np.testing.assert_allclose(got[:, 0], np.exp(lam * times), rtol=1e-8,
                               atol=1e-12)

