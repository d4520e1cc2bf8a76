"""Logarithmic double-well potential split into convex and concave parts.

The convex part c_log * (r log r + (1 - r) log(1 - r)) is defined on the
open interval (0, 1) only; the concave part c_quad * r * (1 - r) caps it
into a double well.  Evaluation anywhere outside the open interval is a
hard error, never a clamp: the solvers rely on iterates staying strictly
interior and silent clamping would mask exactly the failures the bound
diagnostics exist to catch.  ``domain_bounds`` is that test; the
``_unchecked`` derivatives leave it to a caller that has made it, as the
Newton iteration of the order-parameter step does once per iterate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainViolation, require


def domain_bounds(r: np.ndarray) -> tuple:
    """The least and the greatest entry of a nonempty float array, as
    floats, which must both lie inside the open interval (0, 1), or
    DomainViolation naming the one outside it.  Written so that a NaN
    entry fails too."""
    lo, hi = float(r.min()), float(r.max())
    if not (lo > 0.0 and hi < 1.0):
        bad = hi if lo > 0.0 else lo
        raise DomainViolation(
            "potential argument %r outside the open interval (0, 1)" % bad)
    return lo, hi


@dataclass(frozen=True)
class Potential:
    """Coefficients of the convex-log and concave-quadratic parts."""

    c_log: float = 0.5
    c_quad: float = 2.0

    def __post_init__(self):
        require(self.c_log > 0.0, "c_log", "c_log > 0", self.c_log)
        require(self.c_quad >= 0.0, "c_quad", "c_quad >= 0", self.c_quad)

    def _check(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if r.size:
            domain_bounds(r)
        return r

    def value(self, r):
        r = self._check(r)
        return (self.c_log * (r * np.log(r) + (1.0 - r) * np.log1p(-r))
                + self.c_quad * r * (1.0 - r))

    def d1(self, r):
        """First derivative c_log*log(r/(1-r)) + c_quad*(1-2r)."""
        return self.d1_unchecked(self._check(r))

    def d1_unchecked(self, r: np.ndarray) -> np.ndarray:
        """``d1`` of a float array already known to lie inside (0, 1)."""
        return self.c_log * (np.log(r) - np.log1p(-r)) + self.c_quad * (1.0 - 2.0 * r)

    def d2(self, r):
        """Second derivative c_log/(r(1-r)) - 2 c_quad."""
        return self.d2_unchecked(self._check(r))

    def d2_unchecked(self, r: np.ndarray) -> np.ndarray:
        """``d2`` of a float array already known to lie inside (0, 1)."""
        return self.c_log / (r * (1.0 - r)) - 2.0 * self.c_quad

    def d3(self, r):
        """Third derivative c_log*(2r-1)/(r^2 (1-r)^2)."""
        r = self._check(r)
        return self.c_log * (2.0 * r - 1.0) / (r * (1.0 - r)) ** 2
