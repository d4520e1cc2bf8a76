"""Cell-centered finite volume discretization on a 1D or 2D box.

Fields are flat numpy arrays over cells in lexicographic axis order (the
x index varies slowest in 2D).  All spatial inner products share one
uniform cell weight, the product of the per-axis spacings.  The discrete
Laplacian uses mirrored zero-flux faces on the boundary, so constants lie
in its kernel and the operator is symmetric with respect to the cell
inner product.

Grid and TimeGrid objects are read-only after construction and safe to
share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.fft
import scipy.linalg

from .errors import LinearSolveFailure, ShapeMismatch, UnsupportedDimension


@dataclass(eq=False)
class Grid:
    """Uniform cell-centered grid on a box of the given per-axis lengths."""

    dim: int
    n: tuple
    length: tuple
    _dct_eig: object = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise UnsupportedDimension(
                "dim must be 1 or 2, got %r" % (self.dim,))
        self.n = tuple(int(v) for v in self.n)
        self.length = tuple(float(v) for v in self.length)
        if len(self.n) != self.dim or len(self.length) != self.dim:
            raise ShapeMismatch(
                "n and length must each have one entry per axis")
        if any(v < 1 for v in self.n):
            raise ShapeMismatch("cell counts must be positive")
        if any(v <= 0.0 for v in self.length):
            raise ShapeMismatch("axis lengths must be positive")

    @property
    def h(self) -> tuple:
        return tuple(L / m for L, m in zip(self.length, self.n))

    @property
    def num_cells(self) -> int:
        return int(np.prod(self.n))

    @property
    def weight(self) -> float:
        """Cell measure, the product of the per-axis spacings."""
        return float(np.prod(self.h))

    def axis_centers(self, axis: int) -> np.ndarray:
        h = self.h[axis]
        return (np.arange(self.n[axis]) + 0.5) * h

    def cell_centers(self) -> np.ndarray:
        """Coordinates of every cell, shape (num_cells, dim), flat order."""
        axes = [self.axis_centers(a) for a in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def reshape(self, v: np.ndarray) -> np.ndarray:
        return v.reshape(self.n)

    def check_field(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.num_cells,):
            raise ShapeMismatch(
                "field has shape %r, expected (%d,)" % (v.shape, self.num_cells))
        return v

    def _dct_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of -L on the type-II DCT basis, shape ``n``.

        Per axis they are 4 sin^2(pi k / 2m) / h^2, summed over the axes.
        """
        if self._dct_eig is None:
            axes = [4.0 * np.sin(np.pi * np.arange(m) / (2.0 * m)) ** 2 / hh**2
                    for m, hh in zip(self.n, self.h)]
            self._dct_eig = sum(np.meshgrid(*axes, indexing="ij"))
        return self._dct_eig


def make_grid(dim: int, n, length) -> Grid:
    """Build a grid from per-axis cell counts and box lengths.

    Scalars are accepted for convenience and broadcast to every axis.
    """
    if np.isscalar(n):
        n = (n,) * dim
    if np.isscalar(length):
        length = (length,) * dim
    return Grid(dim=dim, n=tuple(n), length=tuple(length))


def laplacian_apply(grid: Grid, v: np.ndarray) -> np.ndarray:
    """Apply the zero-flux Laplacian to a flat field without assembly."""
    return _laplacian(grid, grid.reshape(grid.check_field(v))).ravel()


def _laplacian(grid: Grid, a: np.ndarray) -> np.ndarray:
    """Zero-flux Laplacian of a field already shaped ``grid.n``."""
    out = np.zeros_like(a)
    for axis in range(grid.dim):
        h2 = grid.h[axis] ** 2
        p = np.concatenate(
            [_slab(a, axis, 0), a, _slab(a, axis, -1)], axis=axis)
        n = grid.n[axis]
        lo = _take(p, axis, 0, n)
        hi = _take(p, axis, 2, n + 2)
        out += (lo - 2.0 * a + hi) / h2
    return out


def _slab(a, axis, idx):
    sl = [slice(None)] * a.ndim
    sl[axis] = slice(idx, idx + 1) if idx >= 0 else slice(idx, None)
    return a[tuple(sl)]


def _take(a, axis, start, stop):
    sl = [slice(None)] * a.ndim
    sl[axis] = slice(start, stop)
    return a[tuple(sl)]


def solve_shifted(grid: Grid, shift: np.ndarray, rhs: np.ndarray,
                  tol: float | None = None) -> np.ndarray:
    """Solve (diag(shift) - L) x = rhs for the zero-flux Laplacian L.

    Uses a banded Cholesky solve in 1D.  In 2D it runs conjugate
    gradients preconditioned by the exact DCT solve at the mean shift,
    which is already the solution when the shift is constant.  In either
    dimension the operator must be positive definite, or
    LinearSolveFailure is raised.
    With ``tol`` set, the residual is verified against
    tol * (1 + |rhs|) in the cell norm and LinearSolveFailure is raised
    on excess.
    """
    shift = grid.check_field(shift)
    rhs = grid.check_field(rhs)
    if grid.dim == 1:
        m = grid.num_cells
        h2 = grid.h[0] ** 2
        ab = np.zeros((2, m))
        ab[0, 1:] = -1.0 / h2
        ab[1, :] = shift + 2.0 / h2
        ab[1, 0] -= 1.0 / h2
        ab[1, -1] -= 1.0 / h2
        try:
            x = scipy.linalg.solveh_banded(ab, rhs)
        except (np.linalg.LinAlgError, RuntimeError) as exc:
            raise LinearSolveFailure("shifted Laplacian solve failed: %s" % exc)
    else:
        x = _pcg(grid, grid.reshape(shift), grid.reshape(rhs)).ravel()
    if not np.all(np.isfinite(x)):
        raise LinearSolveFailure("shifted Laplacian solve returned non-finite values")
    if tol is not None:
        res = norm_h(grid, shift * x - laplacian_apply(grid, x) - rhs)
        if res > tol * (1.0 + norm_h(grid, rhs)):
            raise LinearSolveFailure(
                "linear residual %.3e exceeds tolerance %.3e" % (res, tol))
    return x


# Relative residual |rhs - A x| / |rhs| at which CG stops, well below the
# 1e-8 discrete duality gate, and the iteration budget before it gives up.
_CG_RTOL = 1e-14
_CG_MAXITER = 500


def _dct_solve(grid: Grid, shift: float, rhs: np.ndarray) -> np.ndarray:
    """Exact solve of (shift - L) x = rhs for a constant shift > 0.

    The type-II DCT diagonalizes the zero-flux Laplacian on this grid.
    """
    coef = scipy.fft.dctn(rhs, type=2, norm="ortho")
    coef /= shift + grid._dct_eigenvalues()
    return scipy.fft.idctn(coef, type=2, norm="ortho")


def _pcg(grid: Grid, shift: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (diag(shift) - L) x = rhs on fields shaped ``grid.n``.

    Conjugate gradients preconditioned by the DCT solve at the mean
    shift, started from that solve.  Raises LinearSolveFailure when the
    mean shift is not positive, on a curvature breakdown (the operator
    is not positive definite) or when the iteration budget runs out;
    an unconverged iterate is never returned.
    """
    mean = float(np.mean(shift))

    def fail(reason, it, rel):
        raise LinearSolveFailure(
            "2D shifted solve: %s after %d CG iterations, relative residual "
            "%.3e, shift min %.3e mean %.3e"
            % (reason, it, rel, float(np.min(shift)), mean))

    if not mean > 0.0:
        fail("mean shift is not positive", 0, 1.0)
    x = _dct_solve(grid, mean, rhs)
    if np.ptp(shift) == 0.0:
        return x
    r = rhs - (shift * x - _laplacian(grid, x))
    scale = np.linalg.norm(rhs)
    rel = np.linalg.norm(r) / scale if scale > 0.0 else 0.0
    it = 0
    while rel > _CG_RTOL:
        if it == _CG_MAXITER:
            fail("no convergence", it, rel)
        z = _dct_solve(grid, mean, r)
        rz_new = np.vdot(r, z)
        p = z if it == 0 else z + (rz_new / rz) * p
        rz = rz_new
        ap = shift * p - _laplacian(grid, p)
        pap = np.vdot(p, ap)
        if not pap > 0.0:
            fail("curvature p.Ap = %.3e, operator not positive definite"
                 % pap, it, rel)
        alpha = rz / pap
        x = x + alpha * p
        r = r - alpha * ap
        it += 1
        rel = np.linalg.norm(r) / scale
    return x


def inner_h(grid: Grid, a: np.ndarray, b: np.ndarray) -> float:
    """Cell inner product, the discrete analogue of the L2 pairing."""
    return grid.weight * float(np.dot(a, b))


def norm_h(grid: Grid, a: np.ndarray) -> float:
    return float(np.sqrt(max(inner_h(grid, a, a), 0.0)))


def grad_inner(grid: Grid, a: np.ndarray, b: np.ndarray) -> float:
    """Pairing of face-difference gradients, one face volume per face."""
    ar = grid.reshape(np.asarray(a, dtype=float))
    br = grid.reshape(np.asarray(b, dtype=float))
    total = 0.0
    for axis in range(grid.dim):
        da = np.diff(ar, axis=axis)
        db = np.diff(br, axis=axis)
        total += float(np.sum(da * db)) / grid.h[axis] ** 2
    return grid.weight * total


def inner_v(grid: Grid, a: np.ndarray, b: np.ndarray) -> float:
    """Discrete H1 inner product: cell pairing plus gradient pairing."""
    return inner_h(grid, a, b) + grad_inner(grid, a, b)


def norm_v(grid: Grid, a: np.ndarray) -> float:
    return float(np.sqrt(max(inner_v(grid, a, a), 0.0)))


def norm_w(grid: Grid, a: np.ndarray) -> float:
    """Second-order norm: cell norm plus cell norm of the Laplacian."""
    return norm_h(grid, a) + norm_h(grid, laplacian_apply(grid, a))


@dataclass(eq=False)
class TimeGrid:
    """Uniform partition of [0, T] into N implicit Euler steps."""

    T: float
    N: int

    def __post_init__(self):
        self.T = float(self.T)
        self.N = int(self.N)
        if self.T <= 0.0:
            raise ShapeMismatch("final time must be positive")
        if self.N < 1:
            raise ShapeMismatch("step count must be positive")

    @property
    def tau(self) -> float:
        return self.T / self.N

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.N + 1)

    def trap_weights(self) -> np.ndarray:
        """Trapezoidal quadrature weights over the N+1 time levels."""
        c = np.ones(self.N + 1)
        c[0] = c[-1] = 0.5
        return c


def make_time_grid(T: float, N: int) -> TimeGrid:
    return TimeGrid(T=T, N=N)


def check_trajectory(tg: TimeGrid, grid: Grid, a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.shape != (tg.N + 1, grid.num_cells):
        raise ShapeMismatch(
            "trajectory has shape %r, expected (%d, %d)"
            % (a.shape, tg.N + 1, grid.num_cells))
    return a


def inner_q(tg: TimeGrid, grid: Grid, a: np.ndarray, b: np.ndarray) -> float:
    """Space-time inner product: trapezoid in time of cell pairings."""
    a = check_trajectory(tg, grid, a)
    b = check_trajectory(tg, grid, b)
    c = tg.trap_weights()
    per_level = grid.weight * np.einsum("kc,kc->k", a, b)
    return tg.tau * float(np.dot(c, per_level))


def norm_q(tg: TimeGrid, grid: Grid, a: np.ndarray) -> float:
    return float(np.sqrt(max(inner_q(tg, grid, a, a), 0.0)))
