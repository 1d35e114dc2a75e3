"""Scenes, oracles and sampling."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdfblend.errors import SamplingError, SceneError
from sdfblend.geom import (
    Box, Capsule, Cylinder, PointCloud, SampleSet, SceneSpec, Sphere, Torus,
    difference, farthest_point_sample, intersection, positive_points,
    sample_mesh_surface, sample_training_set, scene_sdf, surface_points,
    union,
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
    ({"type": "union", "children": 3}, "children is a int"),
    ({"type": "union", "children": [[]]}, "scene node is a list"),
    ({"type": ["sphere"]}, "unknown scene node type"),
], ids=["nan_radius", "nan_translate", "extents_shape", "rotate_kind",
        "shear_rotation", "scale_rotation", "children_kind", "node_kind",
        "type_kind"])
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
