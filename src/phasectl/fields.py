"""File I/O of fields and trajectories: CSV, snapshot and JSON files.

A field is a flat float array over grid cells; a trajectory stacks one
field per time level, shape (N+1, cells); ``phasectl.mesh`` builds and
checks both.  CSV files carry one row per cell in flat order with a
coordinate header, written at full float precision so a write/read
round trip is bit identical.  JSON files are strict (RFC 8259): a NaN
or infinite number is refused, not written as a ``NaN`` or ``Infinity``
token that JSON does not have.  All writes are atomic: content goes to a
temporary file in the target directory which is then renamed over the
destination.
"""

from __future__ import annotations

import functools
import json
import math
import os
import tempfile
import warnings

import numpy as np

from .errors import (ConfigError, NonfiniteValue, ShapeMismatch,
                     ValidationError)
from .mesh import Grid, TimeGrid

# %.17g prints the shortest decimal that reproduces the exact float64.
_FMT = "%.17g"


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a same-directory temp file and rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def json_text(path: str, payload: dict) -> str:
    """The strict JSON text ``write_json`` writes to ``path``; a NaN or
    infinite number raises NonfiniteValue naming the file and key path."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        found = _nonfinite(payload, "")
        if found is None:
            raise
        key, value = found
        raise NonfiniteValue("%s: %s is %s, which JSON cannot hold"
                             % (path, key, float(value))) from None
    return text + "\n"


def write_json(path: str, payload: dict) -> None:
    """Write ``payload`` as strict JSON; a NaN or infinite number raises
    NonfiniteValue naming its key path, and nothing is written."""
    atomic_write_text(path, json_text(path, payload))


def _nonfinite(value, key: str):
    """(key path, value) of the first NaN or infinite float in ``value``,
    searching dicts and lists, or None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else (key, value)
    if isinstance(value, dict):
        items = (("%s.%s" % (key, k) if key else str(k), v)
                 for k, v in value.items())
    elif isinstance(value, (list, tuple)):
        items = (("%s[%d]" % (key, i), v) for i, v in enumerate(value))
    else:
        return None
    for path, item in items:
        found = _nonfinite(item, path)
        if found is not None:
            return found
    return None


def field_header(grid: Grid) -> str:
    return "x,value" if grid.dim == 1 else "x,y,value"


@functools.lru_cache(maxsize=8)
def _csv_template(grid: Grid) -> str:
    """The CSV text of a grid with one ``%.17g`` slot per value."""
    rows = ("".join(_FMT % c + "," for c in row) + _FMT
            for row in grid.cell_centers())
    return "\n".join([field_header(grid), *rows]) + "\n"


def write_field_csv(path: str, grid: Grid, v: np.ndarray) -> None:
    """Write one field as CSV: coordinate columns then the value column."""
    v = grid.check_field(v)
    atomic_write_text(path, _csv_template(grid) % tuple(v.tolist()))


def read_field_csv(path: str, grid: Grid) -> np.ndarray:
    """Read a field CSV written for an identical grid.

    Every entry must be a finite number, or ValidationError names the
    file and the first offending line.
    """
    try:
        with open(path) as f:
            header = f.readline().strip()
            with warnings.catch_warnings():
                # A file without data rows fails the checks below.
                warnings.filterwarnings("ignore", "loadtxt: input contained")
                data = np.loadtxt(f, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError("cannot read field CSV %s: %s" % (path, exc))
    if header != field_header(grid):
        raise ShapeMismatch(
            "%s: header %r does not match grid (expected %r)"
            % (path, header, field_header(grid)))
    if data.shape != (grid.num_cells, grid.dim + 1):
        raise ShapeMismatch(
            "%s: %d rows for a grid of %d cells" % (path, data.shape[0], grid.num_cells))
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        # Line 1 is the header.
        raise ValidationError(
            "%s: requires finite values, got %s on line %d"
            % (path, ",".join(_FMT % v for v in data[bad[0]]), bad[0] + 2))
    coords = grid.cell_centers()
    scale = max(grid.h)
    if np.max(np.abs(data[:, : grid.dim] - coords)) > 1e-9 * scale:
        raise ShapeMismatch("%s: cell coordinates do not match the grid" % path)
    return np.ascontiguousarray(data[:, -1])


def snapshot_name(base: str, level: int) -> str:
    return "%s_%04d.csv" % (base, level)


def snapshot_levels(tg: TimeGrid, stride: int) -> list:
    """Levels written for a given stride: every stride-th plus the last."""
    levels = list(range(0, tg.N + 1, stride))
    if levels[-1] != tg.N:
        levels.append(tg.N)
    return levels


def write_snapshots(directory: str, base: str, tg: TimeGrid, grid: Grid,
                    traj: np.ndarray, stride: int = 1) -> list:
    """Write trajectory levels as numbered field CSVs; returns the paths."""
    paths = []
    for level in snapshot_levels(tg, stride):
        path = os.path.join(directory, snapshot_name(base, level))
        write_field_csv(path, grid, traj[level])
        paths.append(path)
    return paths


def read_snapshot_dir(directory: str, base: str, tg: TimeGrid,
                      grid: Grid) -> np.ndarray:
    """Read a full trajectory from numbered field CSVs.

    Every level 0..N must be present; partial snapshot sets cannot be
    promoted to a trajectory.
    """
    traj = np.zeros((tg.N + 1, grid.num_cells))
    for level in range(tg.N + 1):
        path = os.path.join(directory, snapshot_name(base, level))
        if not os.path.exists(path):
            raise ShapeMismatch(
                "missing snapshot %s for levels 0..%d" % (path, tg.N))
        traj[level] = read_field_csv(path, grid)
    return traj
