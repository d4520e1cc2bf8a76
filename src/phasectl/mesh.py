"""Cell-centered finite volume discretization on a 1D or 2D box.

Fields are flat numpy arrays over cells in lexicographic axis order (the
x index varies slowest in 2D).  The operators act on the last (cell) axis,
so a stack of fields ``(..., cells)`` gives one value per field.  All
spatial inner products share one uniform cell weight, the product of the
per-axis spacings.  The discrete Laplacian uses mirrored zero-flux faces
on the boundary, so constants lie in its kernel and the operator is
symmetric with respect to the cell inner product.  ``as_field`` builds
a new field from a scalar or data.  ``check_trajectory`` takes a
trajectory for code that only reads it: a full stack as it is, and a
scalar or a field as a read-only broadcast over the time levels.
``as_trajectory`` gives one that owns its data, a new stack or a
read-only broadcast of one new field, so that data constant in time is
held once.

``solve_shifted`` solves the shifted Laplacian systems of every step,
in 1D with LAPACK ``dptsv``.  That routine comes from scipy's compiled
LAPACK module, loaded on its own (see ``_load_dptsv``), so importing
this module imports no scipy package.  The marches hand their
potential-step, tangent and adjoint solves to ``CheckedSolves``, which
checks each residual against LINEAR_TOL with ``check_residuals`` a
block of rows at a time: one stencil apply per block instead of one
per solve.  ``block_rows`` gives a block's rows from the byte budget
CHECK_BLOCK_BYTES; the tangent and adjoint marches form their step
coefficients in blocks cut from the same budget.  ``scaled_norm`` forms
a norm whose square overflows on the field over its largest entry; the
Newton residual norm and ``norm_q`` go through it.

In 2D the solve runs on orthonormal type-II DCT coefficients, the
eigenbasis of the zero-flux Laplacian.  A grid caches the DCT matrix of
each axis, and while no axis has more than DCT_MATRIX_MAX cells a
transform is two products with them; past that ``scipy.fft`` computes
it, since a matrix holds m^2 floats and a product costs m^3.  Only
then is ``scipy.fft`` imported.

Grid and TimeGrid objects are read-only after construction and safe to
share across threads.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass, field
from functools import cached_property
from math import prod

import numpy as np

from .errors import (LinearSolveFailure, ShapeMismatch, SolverStepError,
                     UnsupportedDimension, require)

def _load_dptsv():
    """The f2py ``dptsv`` of scipy's compiled LAPACK module.

    Importing ``scipy.linalg`` for this one routine costs about 0.17 s
    (2-vCPU Xeon) of modules phasectl never uses, such as ``numpy.f2py``
    and ``numpy.testing``.  So the module file
    ``scipy/linalg/_flapack<suffix>`` is loaded on its own, under a
    private name: the same compiled function, so the same results bit
    for bit.  A process that has imported ``scipy.linalg`` already holds
    that module, and its ``dptsv`` is used instead of a second copy.
    Without the file this falls back to ``scipy.linalg.lapack``.
    """
    loaded = sys.modules.get("scipy.linalg._flapack")
    if loaded is not None:
        return loaded.dptsv
    spec = importlib.util.find_spec("scipy")
    for directory in spec.submodule_search_locations if spec else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(directory, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(
                    "phasectl._flapack", path)
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_loader(loader.name, loader))
                loader.exec_module(module)
                return module.dptsv
    from scipy.linalg.lapack import dptsv
    return dptsv


dptsv = _load_dptsv()

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
        """A stack of fields ``(..., cells)`` shaped ``(..., *n)``; in 1D
        that is ``v`` itself."""
        if v.shape[-1:] != (self.num_cells,):
            raise ShapeMismatch("field has shape %r, expected (..., %d)"
                                % (v.shape, self.num_cells))
        return v if self.dim == 1 else v.reshape(v.shape[:-1] + self.n)

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
    def _dct_matrices(self) -> tuple:
        """The orthonormal type-II DCT matrix of each axis, read-only.

        Entry (k, j) of an m-cell axis is sqrt(2/m) cos(pi k (j + 1/2) / m),
        row 0 over sqrt 2.  The angle is reduced modulo 2 pi in integers
        before the cosine, so no entry loses accuracy to a large angle.
        """
        mats = []
        for m in self.n:
            k, j = np.ogrid[:m, :m]
            c = np.sqrt(2.0 / m) * np.cos(
                np.pi * (k * (2 * j + 1) % (4 * m)) / (2.0 * m))
            c[0] /= np.sqrt(2.0)
            c.flags.writeable = False
            mats.append(c)
        return tuple(mats)

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
    out = _laplacian(grid, grid.reshape(v))
    return out if grid.dim == 1 else out.reshape(v.shape)


def _laplacian(grid: Grid, a: np.ndarray) -> np.ndarray:
    """Zero-flux Laplacian over the trailing ``grid.n`` axes of ``a``.

    Per axis, the flux across each interior face leaves one cell and
    enters its neighbour; the end faces carry none.  The first axis
    writes every cell, so later axes accumulate onto it.  In 1D the one
    axis is the last, indexed as it is, with the same arithmetic.
    """
    out = np.empty_like(a)
    if grid.dim == 1:
        flux = (a[..., 1:] - a[..., :-1]) / grid.h[0] ** 2
        out[..., :-1] = flux
        out[..., -1] = 0.0
        out[..., 1:] -= flux
        return out
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


# The most cells on an axis for which the 2D transforms are products with
# the cached DCT matrices, the measured crossover: on small axes the
# products beat ``scipy.fft``, whose call overhead dominates, and on large
# ones their m^3 cost loses to m^2 log m.  A transform pair took 55 us as
# products against 113 us at 64x64, and 365 us against 256 us at 128x128
# (one BLAS thread).
DCT_MATRIX_MAX = 104


def _dct(grid: Grid, a: np.ndarray) -> np.ndarray:
    """Orthonormal type-II DCT of a 2D field shaped ``grid.n``."""
    if max(grid.n) <= DCT_MATRIX_MAX:
        c0, c1 = grid._dct_matrices
        return c0 @ a @ c1.T
    import scipy.fft  # only here, so a run on smaller grids never imports it
    return scipy.fft.dctn(a, type=2, norm="ortho")


def _idct(grid: Grid, c: np.ndarray) -> np.ndarray:
    """Inverse of ``_dct``: the transposed products."""
    if max(grid.n) <= DCT_MATRIX_MAX:
        c0, c1 = grid._dct_matrices
        return c0.T @ c @ c1
    import scipy.fft
    return scipy.fft.idctn(c, type=2, norm="ortho")


def _pcg(grid: Grid, shift: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (diag(shift) - L) x = rhs on fields shaped ``grid.n``.

    Conjugate gradients on orthonormal type-II DCT coefficients, in
    which m - L is the diagonal ``diag`` for the mean shift m: the
    preconditioner divides by it, and the operator adds the transformed
    product with shift - m, so an iteration costs one transform pair
    (four matrix products up to DCT_MATRIX_MAX cells per axis) and no
    stencil.  CG starts from the exact solve at the mean shift,
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
    rhs_hat = _dct(grid, np.ldexp(rhs, -exponent))
    diag = mean + grid._dct_eigenvalues
    x = _idct(grid, rhs_hat / diag)
    if np.ptp(shift) == 0.0:
        return np.ldexp(x, exponent)
    dev = shift - mean
    r = -_dct(grid, dev * x)
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
        p_real = _idct(grid, p)
        ap = _dct(grid, dev * p_real)
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


def scaled_norm(norm, *args):
    """``norm(*args)``, one number measuring the last argument ``a``, or,
    where that overflows, max|a| times the norm of a / max|a|.

    The plain norm is kept whenever it is finite, and where ``a`` is not
    finite.  Its overflow either raises FloatingPointError, under
    ``np.errstate(over="raise")``, or gives inf, under ``over="ignore"``:
    call it under one of those two.
    """
    try:
        value = norm(*args)
        if value < np.inf:
            return value
    except FloatingPointError:
        value = np.inf
    *grids, a = args
    scale = np.abs(a).max()
    if not scale < np.inf:
        return value
    with np.errstate(over="ignore"):
        return scale * norm(*grids, a / scale)


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


def check_trajectory(tg: TimeGrid, grid: Grid, a) -> np.ndarray:
    """A trajectory for code that only reads it: a float stack
    ``(N+1, cells)`` as it is, with no copy, or a scalar or a single
    field broadcast read-only over the N+1 time levels."""
    a = np.asarray(a, dtype=float)
    if a.ndim < 2:
        return np.broadcast_to(as_field(grid, a), (tg.N + 1, grid.num_cells))
    if a.shape != (tg.N + 1, grid.num_cells):
        raise ShapeMismatch(
            "trajectory has shape %r, expected (%d, %d)"
            % (a.shape, tg.N + 1, grid.num_cells))
    return a


def constant_in_time(a: np.ndarray) -> bool:
    """Whether a trajectory holds one field broadcast over its time
    levels, a stack whose time stride is 0."""
    return a.strides[0] == 0


def as_trajectory(tg: TimeGrid, grid: Grid, value) -> np.ndarray:
    """A trajectory that owns its data, as check_trajectory takes it: a
    new stack, or, for a scalar, a single field or a broadcast stack
    (``constant_in_time``), a read-only broadcast of one new field."""
    a = check_trajectory(tg, grid, value)
    if constant_in_time(a):
        return np.broadcast_to(a[0].copy(), a.shape)
    return a.copy()


def inner_q(tg: TimeGrid, grid: Grid, a: np.ndarray, b: np.ndarray) -> float:
    """Space-time inner product: trapezoid in time of cell pairings."""
    a = check_trajectory(tg, grid, a)
    b = check_trajectory(tg, grid, b)
    return tg.tau * float(np.dot(tg.trap_weights(), inner_h(grid, a, b)))


def norm_q(tg: TimeGrid, grid: Grid, a: np.ndarray) -> float:
    """Space-time norm, rescaled where its square overflows."""
    with np.errstate(over="ignore"):
        return float(scaled_norm(_plain_norm_q, tg, grid, a))


def _plain_norm_q(tg: TimeGrid, grid: Grid, a: np.ndarray):
    return np.sqrt(inner_q(tg, grid, a, a))
