"""IoU, chamfer and F-score metrics."""

from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree

from sdfblend.field import BasisField
from sdfblend.fixtures import sphere_scene
from sdfblend.geom import PointCloud, SceneSpec, Sphere, union
from sdfblend.gradcheck import random_field
from sdfblend.metrics import (
    EvalProtocol, MetricReport, _occupied, chamfer_l2, evaluate, f_score, iou,
    nearest_distances,
)
from sdfblend.surface import GridSpec, marching_cubes

BENCH_CHECKPOINT = Path(__file__).resolve().parents[1] / "bench" / "data" / "sphere_fit.json"


def sphere(r, at=(0, 0, 0)):
    return SceneSpec(root=Sphere(radius=r, translate=list(at)))


def test_iou_self_is_one():
    s = sphere(0.4)
    assert iou(s, s, n=20000, seed=0) == 1.0


def test_iou_disjoint_spheres_is_zero():
    a = sphere(0.1, at=(-0.3, 0, 0))
    b = sphere(0.1, at=(0.3, 0, 0))
    assert iou(a, b, n=200000, seed=1) == 0.0


def test_iou_nested_spheres_matches_volume_ratio():
    inner = sphere(0.2)
    outer = sphere(0.4)
    val = iou(inner, outer, n=1_000_000, seed=2)
    assert val == pytest.approx(0.125, abs=0.01)


def test_iou_empty_vs_empty_convention():
    class Nowhere:
        def sdf(self, pts):
            return np.ones(len(pts))

        def bounds(self):
            return np.full(3, -0.5), np.full(3, 0.5)

    n = Nowhere()
    assert iou(n, n, n=1000, seed=0) == 1.0


def test_iou_is_symmetric():
    a = sphere(0.3)
    b = sphere(0.25, at=(0.1, 0, 0))
    assert iou(a, b, 50000, seed=3) == pytest.approx(iou(b, a, 50000, seed=3),
                                                     abs=0.01)


def test_chamfer_identical_clouds_zero():
    rng = np.random.default_rng(4)
    a = PointCloud(rng.uniform(-0.5, 0.5, (100, 3)))
    assert chamfer_l2(a, a) == 0.0


def test_chamfer_two_points_squared():
    a = PointCloud(np.array([[0.0, 0, 0]]))
    b = PointCloud(np.array([[0.1, 0, 0]]))
    assert chamfer_l2(a, b) == pytest.approx(0.02)


def test_chamfer_matches_bruteforce():
    rng = np.random.default_rng(5)
    a = PointCloud(rng.uniform(-0.5, 0.5, (500, 3)))
    b = PointCloud(rng.uniform(-0.5, 0.5, (500, 3)))
    d = np.linalg.norm(a.points[:, None, :] - b.points[None, :, :], axis=2)
    expected = (d.min(axis=1) ** 2).mean() + (d.min(axis=0) ** 2).mean()
    assert chamfer_l2(a, b) == pytest.approx(expected, rel=1e-12, abs=1e-12)
    assert chamfer_l2(a, b) == chamfer_l2(b, a)


def test_f_score_identical_clouds():
    rng = np.random.default_rng(6)
    a = PointCloud(rng.uniform(-0.5, 0.5, (200, 3)))
    assert f_score(a, a, tau=0.01) == 1.0


def test_f_score_separated_clouds_zero():
    tau = 0.01
    a = PointCloud(np.zeros((10, 3)))
    b = PointCloud(np.zeros((10, 3)) + [10 * tau, 0, 0])
    assert f_score(a, b, tau) == 0.0


def test_f_score_half_precision_fixture():
    tau = 0.01
    # all of b within tau of a; half of a farther than tau from b
    b = PointCloud(np.array([[0.0, 0, 0]]))
    a = PointCloud(np.array([[0.0, 0, 0], [5 * tau, 0, 0]]))
    val = f_score(a, b, tau)
    p, r = 0.5, 1.0
    assert val == pytest.approx(2 * p * r / (p + r))


def test_f_score_monotone_in_tau():
    rng = np.random.default_rng(7)
    a = PointCloud(rng.uniform(-0.5, 0.5, (150, 3)))
    b = PointCloud(a.points + rng.normal(0, 0.01, (150, 3)))
    taus = [0.002, 0.005, 0.01, 0.02, 0.05]
    vals = [f_score(a, b, t) for t in taus]
    assert all(x <= y for x, y in zip(vals, vals[1:]))


def test_nn_metrics_invariant_under_rigid_motion():
    from sdfblend.field import rotation_from_6d
    rng = np.random.default_rng(8)
    a = PointCloud(rng.uniform(-0.4, 0.4, (100, 3)))
    b = PointCloud(rng.uniform(-0.4, 0.4, (120, 3)))
    R = rotation_from_6d(rng.normal(size=6))
    t = rng.normal(size=3) * 0.1
    a2 = PointCloud(a.points @ R.T + t)
    b2 = PointCloud(b.points @ R.T + t)
    assert chamfer_l2(a2, b2) == pytest.approx(chamfer_l2(a, b), abs=1e-9)
    assert f_score(a2, b2, 0.05) == pytest.approx(f_score(a, b, 0.05), abs=1e-9)


def test_metric_input_validation():
    a = PointCloud(np.zeros((1, 3)))
    empty = PointCloud(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        chamfer_l2(a, empty)
    with pytest.raises(ValueError):
        f_score(a, a, tau=0.0)
    with pytest.raises(ValueError):
        iou(sphere(0.1), sphere(0.1), n=0, seed=0)


def test_metric_report_validation():
    with pytest.raises(ValueError):
        MetricReport(iou=1.5, chamfer_l2=0, f_score=1, n_iou_samples=1,
                     n_surface_samples=1, tau=0.01, seed=0)
    with pytest.raises(ValueError):
        MetricReport(iou=0.5, chamfer_l2=-1, f_score=1, n_iou_samples=1,
                     n_surface_samples=1, tau=0.01, seed=0)


def test_evaluate_scene_against_itself():
    scene = SceneSpec(root=union(Sphere(radius=0.3),
                                 Sphere(radius=0.2, translate=[0.25, 0, 0])))
    protocol = EvalProtocol(n_iou=50000, n_surface=20000,
                            grid=GridSpec(48), seed=5)
    rep = evaluate(scene, scene, protocol)
    assert rep.iou == 1.0
    # each side samples with its own seed; squared-NN noise scales ~1/n and
    # the no-neighbor-within-tau fraction follows the Poisson tail at this
    # density (both vanish at the default 100k protocol)
    assert rep.chamfer_l2 <= 1e-4
    assert rep.f_score >= 0.98


def test_evaluate_is_deterministic():
    scene = sphere(0.35)
    protocol = EvalProtocol(n_iou=20000, n_surface=5000, grid=GridSpec(24),
                            seed=9)
    r1 = evaluate(scene, scene, protocol)
    r2 = evaluate(scene, scene, protocol)
    assert r1.to_json_dict() == r2.to_json_dict()


def test_nearest_distances_on_two_workers_equal_one_worker():
    rng = np.random.default_rng(3)
    a = PointCloud(rng.normal(size=(20000, 3)))
    b = PointCloud(rng.normal(size=(15000, 3)))
    d_ab, d_ba = nearest_distances(a, b)
    ref_ab, _ = cKDTree(b.points).query(a.points, workers=1)
    ref_ba, _ = cKDTree(a.points).query(b.points, workers=1)
    np.testing.assert_array_equal(d_ab.view(np.int64), ref_ab.view(np.int64))
    np.testing.assert_array_equal(d_ba.view(np.int64), ref_ba.view(np.int64))


def _iou_probe_points(rng, grid, n):
    """Uniform points in a box wider than the grid, points with one, two or
    three coordinates exactly on cell faces (the grid's far faces too), and
    every grid corner."""
    axes = grid.axes()
    wide = rng.uniform(grid.lo - 0.2, grid.hi + 0.2, size=(n, 3))
    on_faces = rng.uniform(grid.lo, grid.hi, size=(3 * n, 3))
    snap = rng.uniform(size=on_faces.shape) < 0.5
    for a in range(3):
        face = axes[a][rng.integers(0, len(axes[a]), size=len(on_faces))]
        on_faces[snap[:, a], a] = face[snap[:, a]]
    corners = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    return np.concatenate([wide, on_faces, corners])


IOU_FIELDS = {
    "bench": (lambda: BasisField.load(BENCH_CHECKPOINT), 40),
    "N=3": (lambda: random_field(np.random.default_rng(46), n_bases=3), 32),
    "N=8 non-cubic": (lambda: random_field(np.random.default_rng(48), n_bases=8),
                      (37, 50, 29)),
}


@pytest.mark.parametrize("case", list(IOU_FIELDS))
def test_iou_with_cell_signs_equals_iou_with_every_sample_evaluated(case):
    """A sample in a certified cell takes the cell's sign: the occupancy of
    every sample, inside the grid box, outside it and exactly on cell faces,
    equals that of the evaluated field, so the counts and IoU are the same."""
    make, resolution = IOU_FIELDS[case]
    f = make()
    grid = GridSpec(resolution)
    _, cells = marching_cubes(f, grid, with_cells=True)
    assert (cells.sign != 0).any()
    pts = _iou_probe_points(np.random.default_rng(5), grid, 20000)
    np.testing.assert_array_equal(_occupied(f, pts, cells), f.sdf(pts) < 0.0)
    scene = sphere_scene()
    for seed in (0, 7):
        assert (iou(f, scene, 30000, seed, cells)
                == iou(f, scene, 30000, seed))


def test_iou_evaluates_the_bench_field_at_under_10_percent_of_samples(monkeypatch):
    f = BasisField.load(BENCH_CHECKPOINT)
    _, cells = marching_cubes(f, GridSpec(128), with_cells=True)
    calls = []
    sdf = BasisField.sdf
    monkeypatch.setattr(BasisField, "sdf",
                        lambda self, pts: calls.append(len(pts)) or sdf(self, pts))
    iou(f, sphere_scene(), 100_000, 0, cells)
    assert 0 < sum(calls) < 10_000
