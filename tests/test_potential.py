import numpy as np
import pytest

from phasectl import Potential
from phasectl.errors import DomainViolation


def test_flat_at_one_half():
    assert Potential().d1(np.array([0.5]))[0] == 0.0


def test_curvature_at_one_half():
    # c_log/(r(1-r)) - 2 c_quad = 0.5/0.25 - 4
    assert Potential().d2(np.array([0.5]))[0] == pytest.approx(-2.0)


@pytest.mark.parametrize("r", [0.0, 1.0, -0.1, 1.1])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_barrier_domain(r, order):
    pot = Potential()
    with pytest.raises(DomainViolation):
        (pot.value, pot.d1, pot.d2, pot.d3)[order](np.array([r]))


@pytest.mark.parametrize("r", [[np.nan, 0.5], [0.5, np.nan], [np.nan]])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_nan_argument_refused(r, order):
    pot = Potential()
    with pytest.raises(DomainViolation, match="nan"):
        (pot.value, pot.d1, pot.d2, pot.d3)[order](np.array(r))


def test_symmetry_about_one_half():
    pot = Potential()
    r = np.array([0.12, 0.3, 0.41])
    np.testing.assert_allclose(pot.value(r), pot.value(1.0 - r), rtol=1e-14)
    np.testing.assert_allclose(pot.d1(r), -pot.d1(1.0 - r), rtol=1e-13)


def test_derivatives_against_finite_differences():
    """Each derivative order matches a central difference of the one below."""
    pot = Potential(c_log=0.7, c_quad=1.3)
    rng = np.random.default_rng(2)
    r = 0.1 + 0.8 * rng.random(12)
    eps = 1e-6
    below = (pot.value, pot.d1, pot.d2)
    above = (pot.d1, pot.d2, pot.d3)
    for f, df in zip(below, above):
        fd = (f(r + eps) - f(r - eps)) / (2.0 * eps)
        np.testing.assert_allclose(df(r), fd, rtol=5e-8, atol=5e-8)
