"""Marching cubes extraction."""

import itertools
from pathlib import Path

import numpy as np
import pytest

from sdfblend.autodiff import ROW_BLOCK
from sdfblend.errors import GridError
from sdfblend.field import BasisField, Decoder, FieldProgram
from sdfblend.formats import write_obj
from sdfblend.fixtures import chair_scene, sphere_scene
from sdfblend.geom import SceneSpec, Sphere
from sdfblend.gradcheck import random_field
from sdfblend.mc_tables import EDGE_AXIS, EDGE_ORIGIN, TRI_TABLE
from sdfblend.surface import (
    HAS_TRIANGLES, CellSigns, GridSpec, _sample_grid, marching_cubes,
)
from tests.test_geom import _random_scene

BENCH_CHECKPOINT = Path(__file__).resolve().parents[1] / "bench" / "data" / "sphere_fit.json"


class FnField:
    """Adapter exposing a plain function as an sdf-evaluable that
    certifies nothing."""

    def __init__(self, fn):
        self.fn = fn

    def sdf(self, pts):
        return self.fn(np.asarray(pts, dtype=np.float64))

    def box_signs(self, edges):
        s = edges.shape[2] - 1
        return np.zeros((len(edges), s, s, s), dtype=np.int8)


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


# corner offsets in the order of their case bits, as surface._extract sets them
CASE_BIT_CORNERS = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
                    (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)]


def test_triangle_table_uses_exactly_the_sign_change_edges():
    """In each of the 256 cases the row holds triples of distinct edges
    0-11, padded with -1, and the edges its triangles use are exactly the
    case's sign-change edges; so only cases 0 and 255 have none, and
    HAS_TRIANGLES, the only case mask extraction reads, is the edge
    bitmask table's `!= 0`."""
    for case in range(256):
        row = TRI_TABLE[case]
        n = int(np.count_nonzero(row >= 0))
        assert n % 3 == 0 and np.all(row[n:] == -1), case
        triangles = row[:n].reshape(-1, 3)
        assert np.all(triangles < 12), case
        assert all(len(set(t)) == 3 for t in triangles.tolist()), case
        inside = {c: case >> bit & 1 for bit, c in enumerate(CASE_BIT_CORNERS)}
        changes = set()
        for edge in range(12):
            a = tuple(EDGE_ORIGIN[edge].tolist())
            b = tuple(a[k] + (k == EDGE_AXIS[edge]) for k in range(3))
            if inside[a] != inside[b]:
                changes.add(edge)
        assert set(triangles.ravel().tolist()) == changes, case
        assert (n == 0) == (case in (0, 255)), case
        assert HAS_TRIANGLES[case] == (n > 0), case


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
    # NaN compares false, so `hi <= lo` alone lets it through
    with pytest.raises(GridError, match="finite"):
        GridSpec(16, lo=[np.nan] * 3)
    with pytest.raises(GridError, match="finite"):
        GridSpec(16, lo=[-np.inf] * 3)


@pytest.mark.parametrize("args, kwargs, message", [
    ((8, 8), {}, "resolution has 2 entries"),
    ("16", {}, "resolution must be an integer, got '16'"),
    (8.9, {}, "resolution must be an integer, got 8.9"),
    (np.inf, {}, "resolution must be an integer, got inf"),
    (True, {}, "resolution must be an integer, got True"),
    ((16, 16, 4), {}, "resolution must be >= 8, got 4"),
    (16, {"lo": [0, 0]}, "grid lo has shape"),
    (16, {"hi": [0.5, "0.5", 0.5]}, "grid hi holds entries that are not numbers"),
], ids=["two_entries", "string", "fraction", "infinite", "bool", "low_entry",
        "lo_shape", "hi_string"])
def test_grid_spec_refuses_malformed_inputs(args, kwargs, message):
    """A resolution is 1 or 3 integers >= MIN_RESOLUTION, never cast, and
    the box corners finite 3-vectors; anything else raises GridError where
    the grid is made."""
    with pytest.raises(GridError, match=message):
        GridSpec(args, **kwargs)


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
    """The dense oracle: certifies nothing, so every corner is evaluated."""
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
    # blocks cut at the far faces, and a grid of three resolutions
    "N=1 res 50": (lambda: random_field(np.random.default_rng(45), n_bases=1), 50),
    "bench res 37": (lambda: BasisField.load(BENCH_CHECKPOINT), 37),
    "skip_at res 37": (_skip_field, 37),
    "N=32 non-cubic": (lambda: random_field(np.random.default_rng(47), n_bases=32),
                       (37, 50, 29)),
    # scenes: signed by the Lipschitz bound of SceneSpec.box_signs
    "sphere res 64": (sphere_scene, 64),
    "sphere res 128": (sphere_scene, 128),
    "chair res 64": (chair_scene, 64),
    "chair res 128": (chair_scene, 128),
    # random CSG scenes of rotated and reflected primitives
    "CSG res 29": (lambda: _random_scene(np.random.default_rng(1003)), 29),
    "CSG res 40": (lambda: _random_scene(np.random.default_rng(1011)), 40),
    "CSG non-cubic": (lambda: _random_scene(np.random.default_rng(1017)), (23, 37, 31)),
}


@pytest.mark.parametrize("case", list(CERTIFIED_CASES))
def test_certified_grid_equals_dense_oracle(case, tmp_path):
    make, resolution = CERTIFIED_CASES[case]
    f = make()
    grid = GridSpec(resolution)
    vals, cells = _sample_grid(f, grid)
    ref, _ = _sample_grid(dense(f), grid)
    placeholder = (vals == 1.0) | (vals == -1.0)
    assert placeholder.any()
    np.testing.assert_array_equal(vals < 0, ref < 0)
    np.testing.assert_array_equal(vals[~placeholder], ref[~placeholder])
    # every corner of a certified cell has the cell's sign
    for offset in itertools.product((0, 1), repeat=3):
        corner = ref[tuple(slice(o, o + c) for o, c in zip(offset, cells.sign.shape))]
        assert np.all(corner[cells.sign == 1] >= 0)
        assert np.all(corner[cells.sign == -1] < 0)
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


def test_certified_grid_at_128_evaluates_under_145k_corners(monkeypatch):
    """Signing the 4^3 blocks inside each 8^3 block, and single cells inside
    each open 4^3 block, from the back-substituted bounds of their pass
    leaves at most 145,000 corners of the bench checkpoint's resolution-128
    grid to evaluate (blocks down to 4^3 left 262,216)."""
    f = BasisField.load(BENCH_CHECKPOINT)
    calls = _count_sdf_points(monkeypatch)
    _sample_grid(f, GridSpec(128))
    assert sum(calls) <= 145_000


def test_certified_grid_evaluates_under_130k_and_51k_corners(monkeypatch):
    """Dropping the candidates that two other bases dominate leaves at most
    130,000 corners of the bench checkpoint's resolution-128 grid to
    evaluate (126,749; the interval test alone left 140,451) and at most
    51,000 at 64 (49,809; 54,673), and bounds at most 26,000 (box, basis)
    pairs at 128 (25,233; 37,768)."""
    import sdfblend.certify as certify
    f = BasisField.load(BENCH_CHECKPOINT)
    pairs = []
    candidates = certify._box_candidates

    def count_pairs(*args):
        mask = candidates(*args)
        pairs.append(int(mask.sum()))
        return mask

    monkeypatch.setattr(certify, "_box_candidates", count_pairs)
    calls = _count_sdf_points(monkeypatch)
    _sample_grid(f, GridSpec(128))
    assert sum(calls) <= 130_000
    assert sum(pairs) <= 26_000
    calls.clear()
    _sample_grid(f, GridSpec(64))
    assert sum(calls) <= 51_000


def test_scene_grid_at_128_evaluates_under_90k_corners(monkeypatch):
    """The sphere scene's certificates leave at most 90,000 of the
    2,146,689 corners of a resolution-128 grid to evaluate (88,096), and
    those hold the values of a dense evaluation."""
    scene, grid = sphere_scene(), GridSpec(128)
    pts = np.stack(np.meshgrid(*grid.axes(), indexing="ij"), axis=-1)
    ref = scene.sdf(pts.reshape(-1, 3))
    corners, signing = [], []
    box_signs, sdf = SceneSpec.box_signs, SceneSpec.sdf

    def count_box_signs(self, edges):
        signing.append(True)
        try:
            return box_signs(self, edges)
        finally:
            signing.pop()

    def count_corners(self, p):
        if not signing:
            corners.append(len(p))
        return sdf(self, p)

    monkeypatch.setattr(SceneSpec, "box_signs", count_box_signs)
    monkeypatch.setattr(SceneSpec, "sdf", count_corners)
    vals, cells = _sample_grid(scene, grid)
    assert sum(corners) <= 90_000
    vals = vals.reshape(-1)
    open_corners = (vals != 1.0) & (vals != -1.0)
    assert np.count_nonzero(open_corners) == sum(corners)
    np.testing.assert_array_equal(vals[open_corners], ref[open_corners])
    np.testing.assert_array_equal(vals < 0, ref < 0)


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


def test_cell_signs_at_reads_the_cell_of_each_point():
    """CellSigns.at on a non-cubic grid whose cells hold their flat index
    + 1: a point outside a face, or NaN, reads 0; lo reads the first cell,
    the far face the last cell, and an interior face the cell above it."""
    shape = (8, 9, 10)
    axes = GridSpec(shape, lo=[-0.3, -0.2, -0.1], hi=[0.5, 0.4, 0.3]).axes()
    cells = CellSigns(axes, np.arange(1, np.prod(shape) + 1).reshape(shape))
    mid = np.array([0.5 * (ax[3] + ax[4]) for ax in axes])  # in cell (3, 3, 3)
    pts = [mid, [ax[0] for ax in axes], [ax[-1] for ax in axes]]
    want = [(3, 3, 3), (0, 0, 0), (7, 8, 9)]
    for a, ax in enumerate(axes):
        for x, i in [(ax[0], 0), (ax[-1], shape[a] - 1), (ax[5], 5),
                     (np.nextafter(ax[0], -1.0), None),
                     (np.nextafter(ax[-1], 1.0), None), (np.nan, None)]:
            pts.append(np.where(np.arange(3) == a, x, mid))
            want.append(None if i is None else tuple(np.where(np.arange(3) == a, i, 3)))
    expected = [0 if w is None else np.ravel_multi_index(w, shape) + 1 for w in want]
    np.testing.assert_array_equal(cells.at(np.array(pts)), expected)
