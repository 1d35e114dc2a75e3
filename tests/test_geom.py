"""Scenes, oracles and sampling."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdfblend.errors import SamplingError, SceneError
from sdfblend.geom import (
    ROTATION_TOL, Box, Capsule, Cylinder, PointCloud, SampleSet, SceneSpec,
    Sphere, Torus, _Combine, _numeric_gradient, difference, farthest_point_sample,
    intersection, positive_points, sample_mesh_surface, sample_training_set,
    scene_sdf, surface_points, union,
)


def sphere_scene(r=0.4):
    return SceneSpec(root=Sphere(radius=r))


def test_sphere_sdf_values():
    s = sphere_scene(0.4)
    assert scene_sdf(s, (0, 0, 0)) == pytest.approx(-0.4)
    assert scene_sdf(s, (0.4, 0, 0)) == pytest.approx(0.0, abs=1e-15)


def test_box_exterior_distance():
    s = SceneSpec(root=Box(half_extents=[0.2, 0.2, 0.2]))
    assert scene_sdf(s, (0.5, 0, 0)) == pytest.approx(0.3)


def test_primitive_sdfs_on_axis():
    # hand-computed distances for the remaining primitives
    torus = SceneSpec(root=Torus(major_radius=0.3, minor_radius=0.1))
    assert scene_sdf(torus, (0.3, 0, 0)) == pytest.approx(-0.1)
    assert scene_sdf(torus, (0, 0, 0)) == pytest.approx(0.2)
    cyl = SceneSpec(root=Cylinder(radius=0.2, half_height=0.3))
    assert scene_sdf(cyl, (0, 0, 0.45)) == pytest.approx(0.15)
    assert scene_sdf(cyl, (0.3, 0, 0)) == pytest.approx(0.1)
    cap = SceneSpec(root=Capsule(radius=0.1, half_height=0.3))
    assert scene_sdf(cap, (0, 0, 0.45)) == pytest.approx(0.05)


def test_csg_combinations():
    a = Sphere(radius=0.3, translate=[-0.15, 0, 0])
    b = Sphere(radius=0.3, translate=[0.15, 0, 0])
    u = SceneSpec(root=union(a, b))
    assert scene_sdf(u, (-0.15, 0, 0)) == pytest.approx(-0.3)
    i = SceneSpec(root=intersection(a, b))
    assert scene_sdf(i, (0, 0, 0)) == pytest.approx(-0.15)
    d = SceneSpec(root=difference(a, b))
    assert scene_sdf(d, (0.15, 0, 0)) == pytest.approx(0.3)  # carved out


def test_rotated_box_matches_rotating_the_query():
    doc = {"version": 1, "root": {
        "type": "box", "half_extents": [0.3, 0.1, 0.1],
        "rotate": {"axis": [0, 0, 1], "degrees": 90},
    }}
    s = SceneSpec.from_json_dict(doc)
    plain = SceneSpec(root=Box(half_extents=[0.3, 0.1, 0.1]))
    # rotating the box by 90 deg about z swaps the roles of x and y
    assert scene_sdf(s, (0.1, 0.4, 0.0)) == pytest.approx(
        scene_sdf(plain, (0.4, -0.1, 0.0)), abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_sdf_is_1lipschitz_between_random_pairs(seed):
    rng = np.random.default_rng(seed)
    scene = SceneSpec(root=union(
        Sphere(radius=0.2, translate=[-0.2, 0, 0]),
        Box(half_extents=[0.1, 0.2, 0.1], translate=[0.2, 0.1, 0]),
        Torus(major_radius=0.2, minor_radius=0.05, translate=[0, -0.2, 0]),
    ))
    a = rng.uniform(-0.5, 0.5, (64, 3))
    b = rng.uniform(-0.5, 0.5, (64, 3))
    lhs = np.abs(scene.sdf(a) - scene.sdf(b))
    rhs = np.linalg.norm(a - b, axis=1) + 1e-9
    assert np.all(lhs <= rhs)


def test_scene_validation_errors():
    with pytest.raises(SceneError):
        SceneSpec(root=Sphere(radius=-0.1))
    with pytest.raises(SceneError):
        SceneSpec(root=union())
    with pytest.raises(SceneError):
        SceneSpec(root=Sphere(radius=0.4, translate=[0.3, 0, 0]))  # exits cube
    with pytest.raises(SceneError):
        SceneSpec.from_json_dict({"version": 99, "root": {}})


@pytest.mark.parametrize("root, message", [
    ({"type": "sphere", "radius": float("nan")}, "radius must be a finite number"),
    ({"type": "sphere", "radius": 0.2, "translate": [float("nan"), 0, 0]},
     "translate holds non-finite values"),
    ({"type": "box", "half_extents": [0.1, 0.1]}, "half_extents has shape"),
    ({"type": "box", "half_extents": [0.1, 0.1, 0.1], "rotate": [1, 0, 0]},
     "rotate is a list"),
    ({"type": "sphere", "radius": 0.2, "translate": [0, 0.25, 0],
      "rotation": [[1, 0.9, 0], [0, 1, 0], [0, 0, 1]]},
     "Sphere.rotation is not orthonormal"),
    ({"type": "box", "half_extents": [0.1, 0.1, 0.1],
      "rotation": [[0.5, 0, 0], [0, 0.5, 0], [0, 0, 0.5]]},
     "Box.rotation is not orthonormal"),
    ({"type": "sphere", "radius": 0.2, "rotation": None},
     "Sphere.rotation is null"),
    ({"type": "union", "children": 3}, "children is a int"),
    ({"type": "union", "children": [[]]}, "scene node is a list"),
    ({"type": ["sphere"]}, "unknown scene node type"),
], ids=["nan_radius", "nan_translate", "extents_shape", "rotate_kind",
        "shear_rotation", "scale_rotation", "null_rotation", "children_kind",
        "node_kind", "type_kind"])
def test_scene_document_rejects_malformed_values(root, message):
    """Every malformed scene fails where it is loaded, never later as a
    non-finite or shapeless evaluation."""
    with pytest.raises(SceneError, match=message):
        SceneSpec.from_json_dict({"version": 1, "root": root})
    with pytest.raises(SceneError, match="scene document is a list"):
        SceneSpec.from_json_dict([{"version": 1, "root": root}])


def test_scene_rotation_must_be_orthogonal():
    """A shear is refused also where a scene is built in code; a reflection
    (det -1) is an isometry and stays exact."""
    shear = np.array([[1.0, 0.9, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(SceneError, match="Sphere.rotation is not orthonormal"):
        SceneSpec(root=Sphere(radius=0.2, translate=[0, 0.25, 0], rotation=shear))
    flip = Box(half_extents=[0.1, 0.2, 0.3], rotation=np.diag([1.0, -1.0, 1.0]))
    pts = np.random.default_rng(0).uniform(-0.5, 0.5, (256, 3))
    np.testing.assert_allclose(SceneSpec(root=flip).sdf(pts),
                               SceneSpec(root=Box(half_extents=[0.1, 0.2, 0.3])
                                         ).sdf(pts), rtol=0, atol=1e-15)


def test_scene_json_round_trip(tmp_path):
    scene = SceneSpec(root=difference(
        Box(half_extents=[0.3, 0.2, 0.2]),
        Cylinder(radius=0.1, half_height=0.3, translate=[0.1, 0, 0]),
    ))
    path = tmp_path / "scene.json"
    scene.save(path)
    again = SceneSpec.load(path)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-0.5, 0.5, (256, 3))
    np.testing.assert_array_equal(scene.sdf(pts), again.sdf(pts))


def test_scene_writer_spells_every_primitive_as_the_reader_does():
    doc = {"version": 1, "root": {"type": "union", "children": [
        {"type": "sphere", "radius": 0.1, "translate": [0.2, 0.0, 0.0]},
        {"type": "box", "half_extents": [0.05, 0.1, 0.05],
         "rotation": [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]},
        {"type": "torus", "major_radius": 0.1, "minor_radius": 0.03},
        {"type": "cylinder", "radius": 0.07, "half_height": 0.1,
         "translate": [0.0, 0.0, -0.2]},
        {"type": "capsule", "radius": 0.02, "half_height": 0.05},
    ]}}
    scene = SceneSpec.from_json_dict(doc)
    assert [type(c) for c in scene.root.children] == [Sphere, Box, Torus,
                                                      Cylinder, Capsule]
    assert json.dumps(scene.to_json_dict()) == json.dumps(doc)


def test_scenes_built_in_code_are_checked_as_loaded_ones():
    """Non-finite sizes, translations and rotations are refused also where
    a scene is built in code, and a rotation given as nested lists becomes
    a (3, 3) float64 array."""
    for prim in [Sphere(radius=np.nan), Sphere(radius=np.inf),
                 Box(half_extents=[0.1, np.nan, 0.1]),
                 Torus(major_radius=0.2, minor_radius=np.inf),
                 Sphere(radius=0.2, translate=[np.nan, 0, 0]),
                 Sphere(radius=0.2, rotation=np.full((3, 3), np.nan)),
                 Sphere(radius=0.2, rotation=[[1.0, 0.0], [0.0, 1.0]])]:
        with pytest.raises(SceneError):
            SceneSpec(root=prim)
    box = Box(half_extents=[0.1, 0.2, 0.3],
              rotation=[[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    scene = SceneSpec(root=box)
    assert box.rotation.dtype == np.float64 and box.rotation.shape == (3, 3)
    assert scene_sdf(scene, (0.0, 0.0, 0.0)) == pytest.approx(-0.1)


@pytest.mark.parametrize("make, message, root, json_message", [
    (lambda: Box(half_extents=[0.1, 0.1]), "Box.half_extents has shape",
     {"type": "box", "half_extents": [0.1, 0.1]}, None),
    (lambda: Box(half_extents=["0.1", 0.1, 0.1]),
     "Box.half_extents holds entries that are not numbers",
     {"type": "box", "half_extents": ["0.1", 0.1, 0.1]}, None),
    (lambda: Sphere(radius=0.2, translate=[0, 0]), "Sphere.translate has shape",
     {"type": "sphere", "radius": 0.2, "translate": [0, 0]}, None),
    (lambda: Sphere(radius="0.2"),
     "Sphere.radius must be a finite number, got '0.2'",
     {"type": "sphere", "radius": "0.2"}, None),
    (lambda: Sphere(radius=[0.2]), "Sphere.radius must be a finite number",
     {"type": "sphere", "radius": [0.2]}, None),
    (lambda: Sphere(radius=True), "Sphere.radius must be a finite number",
     {"type": "sphere", "radius": True}, None),
    (lambda: Sphere(radius=-0.1), "Sphere.radius must be > 0",
     {"type": "sphere", "radius": -0.1}, None),
    (lambda: Box(half_extents=[0.1, 0.0, 0.1]), "Box.half_extents must be > 0",
     {"type": "box", "half_extents": [0.1, 0.0, 0.1]}, None),
    (lambda: _Combine(children=[Sphere(radius=0.1)], kind="xor"),
     "_Combine.kind must be one of",
     {"type": "xor", "children": [{"type": "sphere", "radius": 0.1}]},
     "unknown scene node type 'xor'"),
], ids=["extents_shape", "extents_string", "translate_shape", "radius_string",
        "radius_list", "radius_bool", "radius_negative", "extents_zero",
        "combine_kind"])
def test_malformed_nodes_fail_in_the_scene_however_built(make, message, root,
                                                          json_message):
    """A malformed node can be built, and raises SceneError naming its
    field when it is put in a SceneSpec, as the same node read from a scene
    document does."""
    node = make()
    with pytest.raises(SceneError, match=message):
        SceneSpec(root=node)
    with pytest.raises(SceneError, match=json_message or message):
        SceneSpec.from_json_dict({"version": 1, "root": root})


# ---------------------------------------------------------------------------
# SceneSpec.box_signs


def _perturbed_rotation(rng):
    """A random rotation or reflection Q, exact, or stretched so that
    _validate still accepts it: along its axes by up to 0.49 ROTATION_TOL
    (by at least 0.3 ROTATION_TOL on every axis one time in four), or to
    R^T R = I + 0.99 ROTATION_TOL J (J all ones), whose norm 1 + 1.485
    ROTATION_TOL is near the largest that _validate accepts."""
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    kind = rng.integers(4)
    if kind == 0:
        return q
    if kind == 3:
        c = (np.sqrt(1.0 + 3 * 0.99 * ROTATION_TOL) - 1.0) / 3.0
        return q @ (np.eye(3) + c)
    lo = -0.49 if kind == 1 else 0.3
    return q * (1.0 + rng.uniform(lo, 0.49, 3) * ROTATION_TOL)


def _random_primitive(rng, kind=None):
    """A primitive of a random type (or of type `kind`, an index into
    Sphere, Box, Torus, Cylinder, Capsule), rotated three times in four;
    its bounds stay inside the unit cube whatever its rotation."""
    common = {"translate": rng.uniform(-0.15, 0.15, 3)}
    if rng.uniform() < 0.75:
        common["rotation"] = _perturbed_rotation(rng)
    u = rng.uniform
    return [Sphere(radius=u(0.05, 0.18), **common),
            Box(half_extents=u(0.03, 0.15, 3), **common),
            Torus(major_radius=u(0.06, 0.12), minor_radius=u(0.02, 0.04), **common),
            Cylinder(radius=u(0.03, 0.12), half_height=u(0.03, 0.12), **common),
            Capsule(radius=u(0.02, 0.08), half_height=u(0.02, 0.1), **common),
            ][rng.integers(5) if kind is None else kind]


def _random_scene(rng):
    """A union, intersection or difference of a primitive and a nested
    combination of two or three primitives."""
    kinds = (union, intersection, difference)
    inner = kinds[rng.integers(3)](*[_random_primitive(rng)
                                     for _ in range(rng.integers(2, 4))])
    outer = kinds[rng.integers(3)]
    return SceneSpec(root=outer(_random_primitive(rng), inner)
                     if rng.uniform() < 0.5 else outer(inner, _random_primitive(rng)))


def _respelled(prim, rng):
    """`prim` with each field given as one of the spellings that code may
    use: a list, a tuple or an array for a vector, a nested list for a
    rotation, a Python, float64 or float32 number for a size."""
    for name, value in vars(prim).items():
        if value is None:
            continue
        spell = rng.integers(3)
        if np.ndim(value) == 0:
            value = (float, np.float64, np.float32)[spell](value)
        elif spell < 2:
            value = (np.asarray(value).tolist(), tuple(value))[spell]
        setattr(prim, name, value)
    return prim


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), order=st.permutations(range(5)),
       kinds=st.lists(st.sampled_from([union, intersection, difference]),
                      min_size=3, max_size=3))
def test_scenes_built_in_code_round_trip_through_json(seed, order, kinds):
    """A scene built in code from one primitive of every type, with
    translations, rotations and reflections and fields spelled in any way
    code may, writes JSON that reads back to a scene writing the same JSON,
    whose `sdf` equals the first one's bit for bit."""
    rng = np.random.default_rng(seed)
    prims = [_respelled(_random_primitive(rng, k), rng) for k in order]
    scene = SceneSpec(root=kinds[2](kinds[0](*prims[:2]), kinds[1](*prims[2:])))
    text = json.dumps(scene.to_json_dict())
    again = SceneSpec.from_json_dict(json.loads(text))
    assert json.dumps(again.to_json_dict()) == text
    pts = rng.uniform(-0.6, 0.6, (512, 3))
    assert scene.sdf(pts).tobytes() == again.sdf(pts).tobytes()


def _scene_surface(rng, scene, n):
    """n points on the surface of the scene, Newton-refined onto its zero
    level set; none where it has no surface."""
    try:
        p = surface_points(scene, n, int(rng.integers(2 ** 31))).points
    except SamplingError:
        return np.zeros((0, 3))
    for _ in range(2):
        g = _numeric_gradient(scene, p)
        p = p - (scene.sdf(p) / np.sum(g * g, axis=1))[:, None] * g
    return p


def _surface_boxes(rng, scene, p, width):
    """Boxes of half-diagonal h = width[k] with one corner a distance
    0.1 ROTATION_TOL h inside (or outside) the surface point p[k] of the
    scene, and the midpoint h from that corner along the surface normal, so
    that the scene's value there exceeds h (or is below -h) wherever the
    scene stretches by more than 0.1 ROTATION_TOL: a certificate with
    Lipschitz constant 1 signs them wrongly. Returns (lo, hi)."""
    g = _numeric_gradient(scene, p)
    norm = np.linalg.norm(g, axis=1)[:, None]
    n = g / norm
    side = np.where(rng.uniform(size=(len(p), 1)) < 0.5, 1.0, -1.0)
    h = width[:, None]
    corner = p - side * (0.1 * ROTATION_TOL * h / norm) * n
    mid = corner + side * h * n
    rad = h * np.abs(n)
    return mid - rad, mid + rad


def _sub_box_points(rng, edges, n_inner):
    """The 8 corners and n_inner uniform points of every sub-box of `edges`,
    (K, s^3, 8 + n_inner, 3)."""
    k, s = len(edges), edges.shape[2] - 1
    ijk = np.array(list(itertools.product(range(s), repeat=3)))
    sub_lo = np.stack([edges[:, a, ijk[:, a]] for a in range(3)], axis=-1)
    sub_hi = np.stack([edges[:, a, ijk[:, a] + 1] for a in range(3)], axis=-1)
    t = np.concatenate([
        np.broadcast_to(np.array(list(itertools.product((0.0, 1.0), repeat=3))),
                        (k, len(ijk), 8, 3)),
        rng.uniform(size=(k, len(ijk), n_inner, 3)),
    ], axis=2)
    return np.clip(sub_lo[:, :, None] + t * (sub_hi - sub_lo)[:, :, None],
                   sub_lo[:, :, None], sub_hi[:, :, None])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), split=st.sampled_from([1, 2, 4, 8]))
def test_scene_box_signs_never_contradict_the_scene(seed, split):
    """No corner or random point of a sub-box that SceneSpec.box_signs
    signs has the other sign: random CSG scenes of every primitive type,
    union, intersection and difference, with reflections and rotations
    stretched up to ROTATION_TOL; boxes one cell to an 8^3 block wide at
    resolution 128, in and out of the scene's bounds, split into split^3
    sub-boxes, plus boxes placed on the surface so that a Lipschitz
    constant of 1 signs them wrongly."""
    rng = np.random.default_rng(seed)
    scene = _random_scene(rng)
    cell = 1.1 / 128
    k = 64 // split
    p = _scene_surface(rng, scene, 64 + k)
    width = cell * 2.0 ** rng.uniform(0.0, 3.0, size=(k + len(p[64:]), 3))
    # boxes anywhere, some out of the scene's bounds, and boxes that hold a
    # surface point, split into sub-boxes
    lo = np.concatenate([rng.uniform(-0.6, 0.6 - 8 * cell, size=(k, 3)),
                         p[64:] - width[k:] * rng.uniform(size=(len(p[64:]), 3))])
    hi = lo + width
    edges = lo[..., None] + (hi - lo)[..., None] * np.linspace(0.0, 1.0, split + 1)
    s_lo, s_hi = _surface_boxes(rng, scene, p[:64],
                                cell * 2.0 ** rng.uniform(0.0, 3.0, len(p[:64])))
    checked = 0
    for e in (edges, np.stack([s_lo, s_hi], axis=2)):
        signs = scene.box_signs(e).reshape(len(e), (e.shape[2] - 1) ** 3)
        pts = _sub_box_points(rng, e, 4)
        vals = scene.sdf(pts.reshape(-1, 3)).reshape(pts.shape[:3])
        assert np.all(vals[signs == 1] >= 0)
        assert np.all(vals[signs == -1] < 0)
        checked += np.count_nonzero(signs)
    assert checked


def test_scene_box_signs_windows_equal_one_box_at_a_time(monkeypatch):
    """160 boxes of 8^3 sub-boxes, 81,920 midpoints, reach `sdf` in calls of
    at most GRID_CHUNK points, and sign as each box alone does."""
    from sdfblend.geom import GRID_CHUNK
    rng = np.random.default_rng(5)
    scene = _random_scene(rng)
    lo = rng.uniform(-0.6, 0.5, size=(160, 3))
    edges = lo[..., None] + 0.1 * np.linspace(0.0, 1.0, 9)
    calls = []
    sdf = SceneSpec.sdf
    monkeypatch.setattr(SceneSpec, "sdf", lambda self, p: calls.append(len(p))
                        or sdf(self, p))
    signs = scene.box_signs(edges)
    assert max(calls) <= GRID_CHUNK < sum(calls) == 160 * 8 ** 3
    assert signs.any()
    np.testing.assert_array_equal(
        signs, np.concatenate([scene.box_signs(e[None]) for e in edges]))


# ---------------------------------------------------------------------------
# surface_points


def test_surface_points_land_on_sphere():
    cloud = surface_points(sphere_scene(0.4), 100, seed=1)
    assert len(cloud) == 100
    r = np.linalg.norm(cloud.points, axis=1)
    assert np.max(np.abs(r - 0.4)) <= 1e-4


def test_surface_points_deterministic():
    a = surface_points(sphere_scene(), 50, seed=7)
    b = surface_points(sphere_scene(), 50, seed=7)
    np.testing.assert_array_equal(a.points, b.points)


def test_surface_points_cover_disjoint_components():
    scene = SceneSpec(root=union(
        Sphere(radius=0.12, translate=[-0.3, 0, 0]),
        Sphere(radius=0.12, translate=[0.3, 0, 0]),
    ))
    cloud = surface_points(scene, 1000, seed=3)
    # brute-force membership: nearest component center
    left = np.linalg.norm(cloud.points - [-0.3, 0, 0], axis=1)
    right = np.linalg.norm(cloud.points - [0.3, 0, 0], axis=1)
    n_left = int(np.count_nonzero(left < right))
    assert 100 < n_left < 900  # both components receive points


# ---------------------------------------------------------------------------
# farthest_point_sample


def _fps_reference(points, n, first):
    """O(n*m) greedy reference."""
    chosen = [first]
    for _ in range(n - 1):
        best, best_d = -1, -1.0
        for i in range(len(points)):
            d = min(np.linalg.norm(points[i] - points[j]) for j in chosen)
            if d > best_d + 1e-15:
                best, best_d = i, d
        chosen.append(best)
    return np.array(chosen)


def test_fps_full_subset_is_permutation():
    rng = np.random.default_rng(5)
    cloud = PointCloud(rng.uniform(-0.5, 0.5, (20, 3)))
    idx = farthest_point_sample(cloud, 20, seed=0)
    assert sorted(idx.tolist()) == list(range(20))


def test_fps_three_point_example():
    cloud = PointCloud(np.array([[0, 0, 0], [1, 0, 0], [0.5, 0, 0]]))
    # choose a seed whose first draw is index 0
    seed = next(s for s in range(100)
                if int(np.random.default_rng(s).integers(3)) == 0)
    idx = farthest_point_sample(cloud, 2, seed=seed)
    assert idx.tolist() == [0, 1]  # farthest from origin is (1,0,0)


def test_fps_matches_bruteforce_reference():
    rng = np.random.default_rng(12)
    pts = rng.uniform(-0.5, 0.5, (50, 3))
    cloud = PointCloud(pts)
    idx = farthest_point_sample(cloud, 10, seed=4)
    first = int(idx[0])
    ref = _fps_reference(pts, 10, first)
    np.testing.assert_array_equal(idx, ref)


def test_fps_min_distance_sequence_decreases():
    rng = np.random.default_rng(8)
    pts = rng.uniform(-0.5, 0.5, (80, 3))
    idx = farthest_point_sample(PointCloud(pts), 20, seed=2)
    dists = []
    for k in range(1, len(idx)):
        d = min(np.linalg.norm(pts[idx[k]] - pts[idx[j]]) for j in range(k))
        dists.append(d)
    assert all(a > b for a, b in zip(dists, dists[1:]))


def test_fps_range_errors():
    cloud = PointCloud(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        farthest_point_sample(cloud, 0, seed=0)
    with pytest.raises(ValueError):
        farthest_point_sample(cloud, 4, seed=0)


# ---------------------------------------------------------------------------
# sample_training_set


def test_training_set_uniform_only_targets_match_oracle():
    scene = sphere_scene()
    ss = sample_training_set(scene, n_near=0, n_uniform=1000, seed=9)
    assert len(ss) == 1000
    assert set(ss.tags) == {"uniform"}
    np.testing.assert_array_equal(ss.targets, scene.sdf(ss.points))


def test_training_set_near_samples_stay_near():
    scene = sphere_scene(0.4)
    ss = sample_training_set(scene, n_near=1000, n_uniform=0,
                             noise_stds=(0.01, 0.01), seed=2)
    frac = np.mean(np.abs(ss.targets) <= 0.05)
    assert frac >= 0.99


def test_training_set_targets_exact_and_deterministic():
    scene = SceneSpec(root=union(Sphere(radius=0.25),
                                 Box(half_extents=[0.1, 0.1, 0.4])))
    a = sample_training_set(scene, 200, 100, seed=5)
    b = sample_training_set(scene, 200, 100, seed=5)
    np.testing.assert_array_equal(a.points, b.points)
    np.testing.assert_array_equal(a.targets, b.targets)
    assert all(a.tags == b.tags)
    np.testing.assert_array_equal(a.targets, scene.sdf(a.points))


def test_training_set_validates_inputs():
    with pytest.raises(ValueError):
        sample_training_set(sphere_scene(), 0, 0, seed=0)
    with pytest.raises(ValueError):
        sample_training_set(sphere_scene(), 10, 0, noise_stds=(0.0, 0.01), seed=0)


@pytest.mark.parametrize("n_near, n_uniform, name", [
    (-1, 10, "n_near"), (10, -1, "n_uniform"), (-3, -2, "n_near"),
    (10.0, 10, "n_near")])
def test_training_set_rejects_counts_that_are_not_natural(n_near, n_uniform,
                                                          name):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        sample_training_set(sphere_scene(), n_near, n_uniform, seed=0)


def test_sample_set_json_round_trip():
    ss = sample_training_set(sphere_scene(), 50, 50, seed=1)
    again = SampleSet.from_json_dict(ss.to_json_dict())
    np.testing.assert_array_equal(ss.points, again.points)
    np.testing.assert_array_equal(ss.targets, again.targets)


# ---------------------------------------------------------------------------
# positive_points


def test_positive_points_respect_margin():
    cloud = positive_points(sphere_scene(0.1), 100, margin=0.05, seed=0)
    assert np.all(np.linalg.norm(cloud.points, axis=1) > 0.15)


def test_positive_points_zero_margin_strictly_outside():
    scene = sphere_scene(0.3)
    cloud = positive_points(scene, 500, margin=0.0, seed=1)
    assert np.all(scene.sdf(cloud.points) > 0.0)


def test_positive_points_deterministic():
    a = positive_points(sphere_scene(), 64, 0.01, seed=3)
    b = positive_points(sphere_scene(), 64, 0.01, seed=3)
    np.testing.assert_array_equal(a.points, b.points)


def test_positive_points_fails_when_scene_fills_cube():
    scene = SceneSpec(root=Box(half_extents=[0.5, 0.5, 0.5]))
    with pytest.raises(SamplingError):
        positive_points(scene, 100, margin=0.2, seed=0)


# ---------------------------------------------------------------------------
# mesh sampling plumbing


def test_sample_mesh_surface_on_single_triangle():
    from sdfblend.geom import TriMesh
    mesh = TriMesh(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]]),
                   np.array([[0, 1, 2]]))
    cloud = sample_mesh_surface(mesh, 500, seed=0)
    p = cloud.points
    assert np.all(p[:, 2] == 0.0)
    assert np.all(p[:, 0] >= -1e-12) and np.all(p[:, 1] >= -1e-12)
    assert np.all(p[:, 0] + p[:, 1] <= 1 + 1e-12)


def test_trimesh_validation():
    from sdfblend.geom import TriMesh
    with pytest.raises(ValueError):
        TriMesh(np.zeros((2, 3)), np.array([[0, 1, 2]]))  # index out of range
    with pytest.raises(ValueError):
        TriMesh(np.zeros((3, 3)), np.array([[0, 1, 1]]))  # degenerate
