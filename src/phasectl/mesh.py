"""Cell-centered finite volume discretization on a 1D or 2D box.

Fields are flat numpy arrays over cells in lexicographic axis order (the
x index varies slowest in 2D).  The operators act on the last (cell) axis,
so a stack of fields ``(..., cells)`` gives one value per field.  All
spatial inner products share one uniform cell weight, the product of the
per-axis spacings.  The discrete Laplacian uses mirrored zero-flux faces
on the boundary, so constants lie in its kernel and the operator is
symmetric with respect to the cell inner product.  ``as_field`` and
``as_trajectory`` build new arrays from scalars or data, with the shape
tests of ``Grid.check_field`` and ``check_trajectory``.

``solve_shifted`` solves the shifted Laplacian systems of every step.
The marches hand their potential-step, tangent and adjoint solves to
``CheckedSolves``, which checks each residual against LINEAR_TOL with
``check_residuals`` a block of rows at a time: one stencil apply per
block instead of one per solve.  ``block_rows`` gives a block's rows
from the byte budget CHECK_BLOCK_BYTES; the tangent and adjoint marches
form their step coefficients in blocks cut from the same budget.

Grid and TimeGrid objects are read-only after construction and safe to
share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import prod

import numpy as np
import scipy.fft
from scipy.linalg.lapack import dptsv

from .errors import (LinearSolveFailure, ShapeMismatch, SolverStepError,
                     UnsupportedDimension, require)

# The most float64 entries numpy can index, bounding cells and time levels.
_MAX_COUNT = np.iinfo(np.intp).max // np.dtype(float).itemsize


@dataclass(eq=False)
class Grid:
    """Uniform cell-centered grid on a box of the given per-axis lengths.

    A scalar ``n`` or ``length`` is broadcast to every axis.  The
    spacings ``h``, ``num_cells`` and the cell measure ``weight`` are
    set once on construction.
    """

    dim: int
    n: tuple
    length: tuple
    h: tuple = field(init=False)
    num_cells: int = field(init=False)
    weight: float = field(init=False)

    def __post_init__(self):
        require(self.dim in (1, 2), "dim", "dim in {1, 2}", self.dim,
                UnsupportedDimension)
        if np.isscalar(self.n):
            self.n = (self.n,) * self.dim
        if np.isscalar(self.length):
            self.length = (self.length,) * self.dim
        self.n = tuple(int(v) for v in self.n)
        self.length = tuple(float(v) for v in self.length)
        require(len(self.n) == self.dim, "n", "one entry per axis", self.n)
        require(len(self.length) == self.dim, "length", "one entry per axis",
                self.length)
        require(min(self.n) >= 1, "n", "n >= 1 on every axis", self.n)
        self.num_cells = prod(self.n)
        require(self.num_cells <= _MAX_COUNT, "n",
                "at most %d cells" % _MAX_COUNT, self.n)
        # Keeps h^2, 1/h^2 and the cell weight well inside the float range.
        require(all(1e-100 <= v <= 1e100 for v in self.length), "length",
                "1e-100 <= length <= 1e100 on every axis", self.length)
        self.h = tuple(L / m for L, m in zip(self.length, self.n))
        self.weight = prod(self.h)

    def axis_centers(self, axis: int) -> np.ndarray:
        h = self.h[axis]
        return (np.arange(self.n[axis]) + 0.5) * h

    def cell_centers(self) -> np.ndarray:
        """Coordinates of every cell, shape (num_cells, dim), flat order."""
        axes = [self.axis_centers(a) for a in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def reshape(self, v: np.ndarray) -> np.ndarray:
        if v.shape[-1:] != (self.num_cells,):
            raise ShapeMismatch("field has shape %r, expected (..., %d)"
                                % (v.shape, self.num_cells))
        return v.reshape(v.shape[:-1] + self.n)

    def check_field(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.num_cells,):
            raise ShapeMismatch(
                "field has shape %r, expected (%d,)" % (v.shape, self.num_cells))
        return v

    @cached_property
    def _dct_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of -L on the type-II DCT basis, shape ``n``.

        Per axis they are 4 sin^2(pi k / 2m) / h^2, summed over the axes.
        """
        axes = [4.0 * np.sin(np.pi * np.arange(m) / (2.0 * m)) ** 2 / hh**2
                for m, hh in zip(self.n, self.h)]
        return sum(np.meshgrid(*axes, indexing="ij"))

    @cached_property
    def _ptsv_offdiagonal(self) -> np.ndarray:
        """The constant -1/h^2 off-diagonal of -L in 1D, read-only."""
        e = np.full(self.num_cells - 1, -1.0 / self.h[0] ** 2)
        e.flags.writeable = False
        return e


def as_field(grid: Grid, value) -> np.ndarray:
    """A new field from a scalar or any array with one entry per cell."""
    v = np.array(value, dtype=float)
    if v.ndim == 0:
        return np.full(grid.num_cells, v)
    return grid.check_field(v.reshape(-1))


def laplacian_apply(grid: Grid, v: np.ndarray) -> np.ndarray:
    """Apply the zero-flux Laplacian to each field without assembly."""
    v = np.asarray(v, dtype=float)
    return _laplacian(grid, grid.reshape(v)).reshape(v.shape)


def _laplacian(grid: Grid, a: np.ndarray) -> np.ndarray:
    """Zero-flux Laplacian over the trailing ``grid.n`` axes of ``a``.

    Per axis, the flux across each interior face leaves one cell and
    enters its neighbour; the end faces carry none.  The first axis
    writes every cell, so later axes accumulate onto it.
    """
    out = np.empty_like(a)
    for axis in range(-grid.dim, 0):
        o, s = out.swapaxes(0, axis), a.swapaxes(0, axis)
        flux = (s[1:] - s[:-1]) / grid.h[axis] ** 2
        if axis == -grid.dim:
            o[:-1] = flux
            o[-1] = 0.0
        else:
            o[:-1] += flux
        o[1:] -= flux
    return out


def solve_shifted(grid: Grid, shift: np.ndarray, rhs: np.ndarray
                  ) -> np.ndarray:
    """Solve (diag(shift) - L) x = rhs for the zero-flux Laplacian L.

    Uses the LAPACK ``ptsv`` (LDL^T) tridiagonal solve in 1D.  In 2D it
    runs conjugate gradients on DCT coefficients, preconditioned by the
    exact DCT solve at the mean shift, which is already the solution
    when the shift is constant; no stencil is applied.  In either
    dimension the operator must be positive definite and the solution
    finite, or LinearSolveFailure is raised.  The residual is not
    checked here: a march hands its solves to CheckedSolves, which
    checks them a block at a time with check_residuals.
    """
    shift = grid.check_field(shift)
    rhs = grid.check_field(rhs)
    m = grid.num_cells
    if grid.dim == 2:
        x = _pcg(grid, grid.reshape(shift), grid.reshape(rhs)).ravel()
    elif m == 1:
        # L vanishes on one cell, and ptsv rejects an empty off-diagonal.
        if not shift[0] > 0.0:
            raise LinearSolveFailure(
                "1D shifted solve: shift %.3e, not positive definite"
                % shift[0])
        x = rhs / shift
    else:
        h2 = grid.h[0] ** 2
        diag = shift + 2.0 / h2
        diag[0] -= 1.0 / h2
        diag[-1] -= 1.0 / h2
        _, _, x, info = dptsv(diag, grid._ptsv_offdiagonal, rhs,
                              overwrite_d=1)
        if info > 0:
            raise LinearSolveFailure(
                "1D shifted solve: leading minor %d not positive definite"
                % info)
    if not np.isfinite(x).all():
        raise LinearSolveFailure("shifted Laplacian solve returned non-finite values")
    return x


def check_residuals(grid: Grid, shift: np.ndarray, x: np.ndarray,
                    rhs: np.ndarray, steps) -> None:
    """Check a block of solves (diag(shift) - L) x = rhs, one per row.

    ``shift``, ``x`` and ``rhs`` are stacks (rows, cells).  Each row's
    residual must be at most LINEAR_TOL * (1 + |rhs|) in the cell norm,
    both sides over that row's max|rhs| so that no square overflows; a
    NaN fails.  The first row that fails raises LinearSolveFailure with
    its entry of ``steps`` in ``step``.  The check is one stencil apply
    and two row dot products over the whole block.
    """
    scale = np.abs(rhs).max(axis=-1)
    scale[scale == 0.0] = 1.0
    # r = (shift - L) xs - rs for xs = x / scale, formed in place on xs.
    r = x / scale[:, None]
    lap = _laplacian(grid, grid.reshape(r)).reshape(r.shape)
    r *= shift
    r -= lap
    rs = rhs / scale[:, None]
    r -= rs
    # A residual far above its bound may square to inf, which fails; a
    # subnormal scale sends the bound to inf, which passes.
    with np.errstate(over="ignore"):
        res = np.sqrt(grid.weight * np.vecdot(r, r))
        bound = LINEAR_TOL * (1.0 / scale
                              + np.sqrt(grid.weight * np.vecdot(rs, rs)))
    failed = ~(res <= bound)
    if failed.any():
        i = failed.argmax()
        exc = LinearSolveFailure("scaled linear residual %.3e exceeds %.3e"
                                 % (res[i], LINEAR_TOL))
        exc.step = steps[i]
        raise exc


class CheckedSolves:
    """The linear solves of one march, their residuals checked in blocks.

    Used as a context manager around the march.  ``solve`` solves as
    solve_shifted does and queues the row (shift, x, rhs) under the
    current ``step``, which the march sets.  A block holds as many rows
    as fit in CHECK_BLOCK_BYTES, at least one; check_residuals runs on it
    when it fills and when the march ends.  When an exception leaves the
    march the waiting rows are checked first, so an earlier residual
    failure replaces a later error.  A SolverStepError leaving the march
    carries ``steps``, and ``step`` unless it already names one.
    """

    def __init__(self, grid: Grid, steps: int = None):
        self.grid, self.steps, self.step = grid, steps, None
        self._block = np.empty((3, block_rows(grid), grid.num_cells))
        self._steps = []

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        exc = exc_info[1]
        try:
            self._flush()
        except SolverStepError as failure:
            failure.steps = self.steps
            raise
        if isinstance(exc, SolverStepError):
            exc.steps = self.steps
            if exc.step is None:
                exc.step = self.step

    def solve(self, shift: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        x = solve_shifted(self.grid, shift, rhs)
        block, i = self._block, len(self._steps)
        block[0, i] = shift
        block[1, i] = x
        block[2, i] = rhs
        self._steps.append(self.step)
        if i + 1 == block.shape[1]:
            self._flush()
        return x

    def _flush(self) -> None:
        """Check the rows waiting, and empty the block."""
        steps, self._steps = self._steps, []
        if steps:
            shift, x, rhs = self._block[:, :len(steps)]
            check_residuals(self.grid, shift, x, rhs, steps)


# A solve fails its check on a scaled residual above
# LINEAR_TOL * (1 + |rhs|).
LINEAR_TOL = 1e-8
# The bytes of one array of a block of rows waiting for that check; the
# marches form their step coefficients in blocks cut from the same budget.
CHECK_BLOCK_BYTES = 16384


def block_rows(grid: Grid, share: int = 1) -> int:
    """Rows of ``grid.num_cells`` floats that fit in CHECK_BLOCK_BYTES /
    ``share`` bytes, at least one."""
    return max(1, CHECK_BLOCK_BYTES // (share * np.dtype(float).itemsize
                                        * grid.num_cells))


# Relative residual |rhs - A x| / |rhs| at which CG stops, well below the
# 1e-8 discrete duality gate, and the iteration budget before it gives up.
_CG_RTOL = 1e-14
_CG_MAXITER = 500


def _dct(a: np.ndarray) -> np.ndarray:
    return scipy.fft.dctn(a, type=2, norm="ortho")


def _idct(c: np.ndarray) -> np.ndarray:
    return scipy.fft.idctn(c, type=2, norm="ortho")


def _pcg(grid: Grid, shift: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (diag(shift) - L) x = rhs on fields shaped ``grid.n``.

    Conjugate gradients on orthonormal type-II DCT coefficients, in
    which m - L is the diagonal ``diag`` for the mean shift m: the
    preconditioner divides by it, and the operator adds the transformed
    product with shift - m, so an iteration costs one transform pair
    and no stencil.  CG starts from the exact solve at the mean shift,
    the solution when the shift is constant, and keeps its iterate in
    real space.  The right-hand side is divided by the least power of
    two above max|rhs| and the solution multiplied back: exact, and no
    norm overflows or underflows to zero.  Raises LinearSolveFailure
    when the mean shift is not positive, on a curvature breakdown (the
    operator is not positive definite) or when the iteration budget
    runs out; an unconverged iterate is never returned.
    """
    mean = float(np.mean(shift))

    def fail(reason, it, rel):
        raise LinearSolveFailure(
            "2D shifted solve: %s after %d CG iterations, relative residual "
            "%.3e, shift min %.3e mean %.3e"
            % (reason, it, rel, float(np.min(shift)), mean))

    if not mean > 0.0:
        fail("mean shift is not positive", 0, 1.0)
    exponent = int(np.frexp(np.max(np.abs(rhs)))[1])
    rhs_hat = _dct(np.ldexp(rhs, -exponent))
    diag = mean + grid._dct_eigenvalues
    x = _idct(rhs_hat / diag)
    if np.ptp(shift) == 0.0:
        return np.ldexp(x, exponent)
    dev = shift - mean
    r = -_dct(dev * x)
    scale = np.linalg.norm(rhs_hat)
    rel = np.linalg.norm(r) / scale if scale > 0.0 else 0.0
    it = 0
    while rel > _CG_RTOL:
        if it == _CG_MAXITER:
            fail("no convergence", it, rel)
        z = r / diag
        rz_new = np.vdot(r, z)
        if it:
            z += (rz_new / rz) * p
        p, rz = z, rz_new
        p_real = _idct(p)
        ap = _dct(dev * p_real)
        ap += diag * p
        pap = np.vdot(p, ap)
        if not pap > 0.0:
            fail("curvature p.Ap = %.3e, operator not positive definite"
                 % pap, it, rel)
        alpha = rz / pap
        x += alpha * p_real
        r -= alpha * ap
        it += 1
        rel = np.linalg.norm(r) / scale
    return np.ldexp(x, exponent)


def inner_h(grid: Grid, a: np.ndarray, b: np.ndarray):
    """Cell inner product, the discrete analogue of the L2 pairing."""
    return grid.weight * np.vecdot(a, b)


def norm_h(grid: Grid, a: np.ndarray):
    return np.sqrt(inner_h(grid, a, a))


def grad_inner(grid: Grid, a: np.ndarray, b: np.ndarray):
    """Pairing of face-difference gradients, one face volume per face."""
    ar = grid.reshape(np.asarray(a, dtype=float))
    br = grid.reshape(np.asarray(b, dtype=float))
    axes = tuple(range(-grid.dim, 0))
    total = 0.0
    for axis, h in zip(axes, grid.h):
        dd = np.diff(ar, axis=axis) * np.diff(br, axis=axis)
        total += np.sum(dd, axis=axes) / h ** 2
    return grid.weight * total


def inner_v(grid: Grid, a: np.ndarray, b: np.ndarray):
    """Discrete H1 inner product: cell pairing plus gradient pairing."""
    return inner_h(grid, a, b) + grad_inner(grid, a, b)


def norm_v(grid: Grid, a: np.ndarray):
    return np.sqrt(inner_v(grid, a, a))


def norm_w(grid: Grid, a: np.ndarray):
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
        require(self.T > 0.0, "T", "T > 0", self.T)
        require(self.N >= 1, "N", "N >= 1", self.N)
        require(self.N < _MAX_COUNT, "N", "N < %d" % _MAX_COUNT, self.N)

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


def check_trajectory(tg: TimeGrid, grid: Grid, a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.shape != (tg.N + 1, grid.num_cells):
        raise ShapeMismatch(
            "trajectory has shape %r, expected (%d, %d)"
            % (a.shape, tg.N + 1, grid.num_cells))
    return a


def as_trajectory(tg: TimeGrid, grid: Grid, value) -> np.ndarray:
    """A new trajectory from a full stack, or from a scalar or a single
    field replicated across all N+1 time levels."""
    v = np.array(value, dtype=float)
    if v.ndim < 2:
        return np.repeat(as_field(grid, v)[None, :], tg.N + 1, axis=0)
    return check_trajectory(tg, grid, v)


def inner_q(tg: TimeGrid, grid: Grid, a: np.ndarray, b: np.ndarray) -> float:
    """Space-time inner product: trapezoid in time of cell pairings."""
    a = check_trajectory(tg, grid, a)
    b = check_trajectory(tg, grid, b)
    return tg.tau * float(np.dot(tg.trap_weights(), inner_h(grid, a, b)))


def norm_q(tg: TimeGrid, grid: Grid, a: np.ndarray) -> float:
    return float(np.sqrt(inner_q(tg, grid, a, a)))
