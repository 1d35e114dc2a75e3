"""Marching cubes extraction."""

from pathlib import Path

import numpy as np
import pytest

from sdfblend.autodiff import ROW_BLOCK
from sdfblend.errors import GridError
from sdfblend.field import BasisField, Decoder, FieldProgram
from sdfblend.formats import write_obj
from sdfblend.geom import SceneSpec, Sphere
from sdfblend.gradcheck import random_field
from sdfblend.surface import GridSpec, _sample_grid, marching_cubes

BENCH_CHECKPOINT = Path(__file__).resolve().parents[1] / "bench" / "data" / "sphere_fit.json"


class FnField:
    """Adapter exposing a plain function as an sdf-evaluable."""

    def __init__(self, fn):
        self.fn = fn

    def sdf(self, pts):
        return self.fn(np.asarray(pts, dtype=np.float64))


def mesh_stats(mesh):
    t = mesh.triangles
    edges = np.sort(np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]),
                    axis=1)
    uniq, counts = np.unique(edges, axis=0, return_counts=True)
    euler = len(mesh.vertices) - len(uniq) + len(t)
    return euler, counts


def test_linear_field_gives_flat_sheet():
    plane = FnField(lambda p: p[:, 2])
    mesh = marching_cubes(plane, GridSpec(16))
    assert not mesh.is_empty()
    assert np.max(np.abs(mesh.vertices[:, 2])) <= 1e-9


def test_all_positive_field_gives_empty_mesh():
    mesh = marching_cubes(FnField(lambda p: np.full(len(p), 0.25)), GridSpec(8))
    assert mesh.is_empty()


def test_sphere_topology_and_residual():
    scene = SceneSpec(root=Sphere(radius=0.4))
    grid = GridSpec(64)
    mesh = marching_cubes(scene, grid)
    euler, counts = mesh_stats(mesh)
    assert euler == 2
    assert np.all(counts == 2)  # closed: every edge shared by two triangles
    residual = np.max(np.abs(scene.sdf(mesh.vertices)))
    assert residual <= 1.5 * grid.cell_size.max()


def test_normals_point_toward_positive_field():
    scene = SceneSpec(root=Sphere(radius=0.4))
    mesh = marching_cubes(scene, GridSpec(24))
    v, t = mesh.vertices, mesh.triangles
    n = np.cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]])
    centroid = (v[t[:, 0]] + v[t[:, 1]] + v[t[:, 2]]) / 3
    assert np.all(np.sum(n * centroid, axis=1) > 0)


def test_vertices_lie_on_sign_change_edges():
    scene = SceneSpec(root=Sphere(radius=0.35))
    grid = GridSpec(16)
    mesh = marching_cubes(scene, grid)
    xs, ys, zs = grid.axes()
    axes = [xs, ys, zs]
    step = grid.cell_size
    for v in mesh.vertices:
        # exactly one coordinate is off-lattice; its edge endpoints must
        # bracket a sign change
        offs = []
        for a in range(3):
            k = (v[a] - grid.lo[a]) / step[a]
            offs.append(abs(k - round(k)) > 1e-9)
        assert sum(offs) <= 1
        a = offs.index(True) if any(offs) else 0
        lo_idx = int(np.floor((v[a] - grid.lo[a]) / step[a] - 1e-12))
        p0, p1 = v.copy(), v.copy()
        p0[a] = axes[a][lo_idx]
        p1[a] = axes[a][lo_idx + 1]
        f0, f1 = scene.sdf(np.array([p0, p1]))
        assert (f0 < 0) != (f1 < 0)


def test_mesh_invariant_under_basis_permutation():
    rng = np.random.default_rng(0)
    f = random_field(rng, n_bases=5, d_z=3, widths=(8,))
    perm = rng.permutation(5)
    g = BasisField(f.centers[perm], f.latents[perm], f.log_scales[perm],
                   f.rot6s[perm], f.offsets[perm], f.decoder)
    grid = GridSpec(12)
    m1 = marching_cubes(f, grid)
    m2 = marching_cubes(g, grid)
    np.testing.assert_allclose(m1.vertices, m2.vertices, atol=1e-12)
    np.testing.assert_array_equal(m1.triangles, m2.triangles)


def test_doubling_resolution_does_not_worsen_residual():
    scene = SceneSpec(root=Sphere(radius=0.4))
    res_lo = np.max(np.abs(scene.sdf(
        marching_cubes(scene, GridSpec(16)).vertices)))
    res_hi = np.max(np.abs(scene.sdf(
        marching_cubes(scene, GridSpec(32)).vertices)))
    assert res_hi <= res_lo


def test_grid_validation():
    with pytest.raises(GridError):
        GridSpec(7)
    with pytest.raises(GridError):
        GridSpec(16, lo=[0, 0, 0], hi=[0, 1, 1])


def test_nonfinite_field_aborts_with_coordinate():
    def bad(p):
        v = p[:, 0].copy()
        v[p[:, 0] > 0.3] = np.nan
        return v

    with pytest.raises(GridError, match=r"grid corner"):
        marching_cubes(FnField(bad), GridSpec(8))


def test_extraction_is_deterministic():
    scene = SceneSpec(root=Sphere(radius=0.3))
    m1 = marching_cubes(scene, GridSpec(16))
    m2 = marching_cubes(scene, GridSpec(16))
    np.testing.assert_array_equal(m1.vertices, m2.vertices)
    np.testing.assert_array_equal(m1.triangles, m2.triangles)


# ---------------------------------------------------------------------------
# certified narrow-band sampling against the dense oracle


def dense(field):
    """The dense oracle: exposes only `sdf`, so every corner is evaluated."""
    return FnField(field.sdf)


def _fallback_heavy_field():
    f = random_field(np.random.default_rng(41), n_bases=6)
    f.log_scales[:] = np.random.default_rng(42).uniform(4.0, 5.0, (6, 3))
    return f


def _skip_field():
    f = random_field(np.random.default_rng(43), n_bases=5, d_z=4)
    dec = Decoder.init(4, (8, 8), skip_at=(0, 2), rng=np.random.default_rng(44))
    return BasisField(f.centers, f.latents, f.log_scales, f.rot6s, f.offsets, dec)


CERTIFIED_CASES = {
    "bench": (lambda: BasisField.load(BENCH_CHECKPOINT), 40),
    "N=1": (lambda: random_field(np.random.default_rng(45), n_bases=1), 32),
    "N=3": (lambda: random_field(np.random.default_rng(46), n_bases=3), 32),
    "N=32": (lambda: random_field(np.random.default_rng(47), n_bases=32), 32),
    "fallback": (_fallback_heavy_field, 24),
    "skip_at": (_skip_field, 32),
}


@pytest.mark.parametrize("case", list(CERTIFIED_CASES))
def test_certified_grid_equals_dense_oracle(case, tmp_path):
    make, resolution = CERTIFIED_CASES[case]
    f = make()
    grid = GridSpec(resolution)
    vals = _sample_grid(f, grid)
    ref = _sample_grid(dense(f), grid)
    placeholder = (vals == 1.0) | (vals == -1.0)
    assert placeholder.any()
    np.testing.assert_array_equal(vals < 0, ref < 0)
    np.testing.assert_array_equal(vals[~placeholder], ref[~placeholder])
    write_obj(marching_cubes(f, grid), tmp_path / "certified.obj")
    write_obj(marching_cubes(dense(f), grid), tmp_path / "dense.obj")
    assert (tmp_path / "certified.obj").read_bytes() == (tmp_path / "dense.obj").read_bytes()


def test_fallback_field_falls_back_on_the_grid():
    f = _fallback_heavy_field()
    axes = GridSpec(CERTIFIED_CASES["fallback"][1]).axes()
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    assert f.sdf_batch_diag(pts)[1] > 0


def _count_sdf_points(monkeypatch, cls=BasisField) -> list[int]:
    """Record the length of every `cls.sdf` call in the returned list."""
    calls = []
    sdf = cls.sdf
    monkeypatch.setattr(cls, "sdf",
                        lambda self, pts: calls.append(len(pts)) or sdf(self, pts))
    return calls


def test_certified_grid_evaluates_whole_blocks_of_open_corners(monkeypatch):
    f = BasisField.load(BENCH_CHECKPOINT)
    blocks = []
    blend = FieldProgram.blend
    monkeypatch.setattr(FieldProgram, "blend",
                        lambda self, pts, **kw: blocks.append(len(pts))
                        or blend(self, pts, **kw))
    calls = _count_sdf_points(monkeypatch)
    _sample_grid(f, GridSpec(40))
    assert all(n % ROW_BLOCK == 0 for n in blocks)
    assert sum(calls) < 0.85 * 41 ** 3


def test_certified_grid_at_128_evaluates_under_268k_corners(monkeypatch):
    """Back-substituted certificates leave at most 268,000 of the 2,146,689
    corners of the bench checkpoint's resolution-128 grid to evaluate (the
    forward bound alone left 383,152)."""
    f = BasisField.load(BENCH_CHECKPOINT)
    calls = _count_sdf_points(monkeypatch)
    _sample_grid(f, GridSpec(128))
    assert sum(calls) <= 268_000


def test_scene_grid_is_never_certified(monkeypatch):
    """A scene is evaluated at every corner, without a call to box_signs."""
    import sdfblend.surface as surface_mod
    monkeypatch.setattr(surface_mod, "box_signs", lambda *a: pytest.fail(
        "box_signs called for a scene"))
    scene, grid = SceneSpec(root=Sphere(radius=0.4)), GridSpec(16)
    pts = np.stack(np.meshgrid(*grid.axes(), indexing="ij"), axis=-1)
    ref = scene.sdf(pts.reshape(-1, 3))
    calls = _count_sdf_points(monkeypatch, SceneSpec)
    vals = _sample_grid(scene, grid)
    assert sum(calls) == 17 ** 3
    np.testing.assert_array_equal(vals.reshape(-1), ref)


def test_overflowing_field_still_names_the_first_corner():
    from tests.test_fit import overflowing_field
    f = overflowing_field()
    messages = []
    with np.errstate(over="ignore", invalid="ignore"):
        for evaluable in (f, dense(f)):
            with pytest.raises(GridError) as err:
                marching_cubes(evaluable, GridSpec(16))
            messages.append(str(err.value))
    assert messages == ["non-finite field value at grid corner [-0.55, -0.55, -0.55]"] * 2
