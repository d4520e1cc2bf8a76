import json
import os

import numpy as np
import pytest

import phasectl as pc
from phasectl import fields, mesh
from phasectl.errors import NonfiniteValue, PhasectlError, ShapeMismatch


def test_as_field_broadcast_and_shape():
    g = pc.Grid(1, 5, 1.0)
    np.testing.assert_array_equal(mesh.as_field(g, 0.3), np.full(5, 0.3))
    v = np.arange(5.0)
    assert not np.shares_memory(mesh.as_field(g, v), v)  # defensive copy
    with pytest.raises(ShapeMismatch):
        mesh.as_field(g, np.zeros(4))


def test_as_trajectory_broadcast():
    g = pc.Grid(1, 4, 1.0)
    tg = pc.TimeGrid(1.0, 3)
    t = mesh.as_trajectory(tg, g, 2.0)
    assert t.shape == (4, 4) and np.all(t == 2.0)
    field = np.array([1.0, 2.0, 3.0, 4.0])
    t = mesh.as_trajectory(tg, g, field)
    assert np.all(t == field)
    full = np.random.default_rng(0).random((4, 4))
    np.testing.assert_array_equal(mesh.as_trajectory(tg, g, full), full)
    assert not np.shares_memory(mesh.as_trajectory(tg, g, full), full)
    with pytest.raises(ShapeMismatch):
        mesh.as_trajectory(tg, g, np.zeros((3, 4)))


def test_constant_trajectories_are_held_once_read_only():
    """A scalar, a field and a broadcast become a read-only broadcast of
    one new field in as_trajectory, and of one field in check_trajectory;
    check_trajectory takes a full float stack as it is."""
    g = pc.Grid(1, 4, 1.0)
    tg = pc.TimeGrid(1.0, 3)
    field = np.array([1.0, 2.0, 3.0, 4.0])
    for value in (2.0, field, np.broadcast_to(field, (4, 4))):
        for normalize in (mesh.as_trajectory, mesh.check_trajectory):
            t = normalize(tg, g, value)
            assert t.shape == (4, 4) and mesh.constant_in_time(t)
            assert np.all(t == np.broadcast_to(value, (4, 4)))
            with pytest.raises(ValueError, match="read-only"):
                t[0, 0] = 0.0
        assert not np.shares_memory(mesh.as_trajectory(tg, g, value), field)
    full = np.random.default_rng(0).random((4, 4))
    assert mesh.check_trajectory(tg, g, full) is full
    assert not mesh.constant_in_time(full)
    with pytest.raises(ShapeMismatch):
        mesh.check_trajectory(tg, g, np.zeros(5))


def test_field_csv_roundtrip_bit_exact(tmp_path):
    """Seventeen significant digits reproduce doubles exactly."""
    g = pc.Grid(1, 32, 1.0)
    v = np.random.default_rng(7).standard_normal(32) * 1e3
    path = str(tmp_path / "f.csv")
    fields.write_field_csv(path, g, v)
    back = fields.read_field_csv(path, g)
    assert np.array_equal(back, v)


def test_field_csv_roundtrip_2d(tmp_path):
    g = pc.Grid(2, (4, 3), (1.0, 2.0))
    v = np.random.default_rng(8).random(12)
    path = str(tmp_path / "f2.csv")
    fields.write_field_csv(path, g, v)
    assert np.array_equal(fields.read_field_csv(path, g), v)
    header = open(path).readline().strip()
    assert header == "x,y,value"


def test_field_csv_matches_row_by_row_writer(tmp_path):
    """The one-format writer gives the bytes of a per-row loop."""
    rng = np.random.default_rng(11)
    grids = [pc.Grid(1, 37, 2.5), pc.Grid(2, (5, 7), (1.0, 0.3))]
    for k, g in enumerate(grids):
        v = rng.standard_normal(g.num_cells) * 10.0 ** rng.integers(
            -300, 300, g.num_cells)
        v[0] = -0.0
        rows = [",".join(["%.17g" % c for c in row] + ["%.17g" % val])
                for row, val in zip(g.cell_centers(), v)]
        expected = "\n".join([fields.field_header(g)] + rows) + "\n"
        path = str(tmp_path / ("f%d.csv" % k))
        fields.write_field_csv(path, g, v)
        with open(path) as f:
            assert f.read() == expected
        back = fields.read_field_csv(path, g)
        assert back.tobytes() == v.tobytes()


def test_field_csv_coordinate_check(tmp_path):
    g = pc.Grid(1, 4, 1.0)
    path = str(tmp_path / "f.csv")
    fields.write_field_csv(path, g, np.zeros(4))
    lines = open(path).read().splitlines()
    parts = lines[1].split(",")
    parts[0] = "0.9"  # not a cell center
    lines[1] = ",".join(parts)
    open(path, "w").write("\n".join(lines) + "\n")
    with pytest.raises(ShapeMismatch):
        fields.read_field_csv(path, g)


def test_snapshot_roundtrip(tmp_path):
    g = pc.Grid(1, 6, 1.0)
    tg = pc.TimeGrid(0.5, 5)
    traj = np.random.default_rng(1).random((6, 6))
    out = str(tmp_path / "snaps")
    written = fields.write_snapshots(out, "rho", tg, g, traj, stride=1)
    assert len(written) == 6
    back = fields.read_snapshot_dir(out, "rho", tg, g)
    assert np.array_equal(back, traj)


def test_snapshot_stride_keeps_final(tmp_path):
    tg = pc.TimeGrid(1.0, 7)
    levels = fields.snapshot_levels(tg, 3)
    assert levels == [0, 3, 6, 7]
    g = pc.Grid(1, 3, 1.0)
    out = str(tmp_path / "s")
    fields.write_snapshots(out, "mu", tg, g, np.zeros((8, 3)), stride=3)
    names = sorted(os.listdir(out))
    assert names == [fields.snapshot_name("mu", k) for k in levels]


def test_snapshot_dir_requires_all_levels(tmp_path):
    g = pc.Grid(1, 3, 1.0)
    tg = pc.TimeGrid(1.0, 4)
    out = str(tmp_path / "s")
    fields.write_snapshots(out, "u", tg, g, np.zeros((5, 3)), stride=1)
    os.remove(os.path.join(out, fields.snapshot_name("u", 2)))
    with pytest.raises(ShapeMismatch):
        fields.read_snapshot_dir(out, "u", tg, g)


def test_atomic_write_leaves_no_temp(tmp_path):
    path = tmp_path / "out.json"
    fields.write_json(str(path), {"a": 1})
    assert json.loads(path.read_text()) == {"a": 1}
    assert os.listdir(tmp_path) == ["out.json"]


@pytest.mark.parametrize("value", [float("nan"), np.inf, -np.inf])
def test_write_json_refuses_a_nonfinite_number(tmp_path, value):
    """JSON has no NaN or infinity: the error names the key path, and
    no file is written."""
    path = tmp_path / "out.json"
    with pytest.raises(NonfiniteValue,
                       match=r"out\.json: metrics\.errors\[1\] is -?(nan|inf)"):
        fields.write_json(str(path), {"name": "grad", "metrics": {
            "errors": [1.0, value], "slope": None}})
    assert issubclass(NonfiniteValue, PhasectlError)
    assert os.listdir(tmp_path) == []
