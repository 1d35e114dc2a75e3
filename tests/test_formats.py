"""OBJ round trips."""

from types import SimpleNamespace

import numpy as np

from sdfblend.formats import read_obj, write_obj
from sdfblend.geom import SceneSpec, Sphere, TriMesh
from sdfblend.surface import GridSpec, marching_cubes


def test_obj_round_trip(tmp_path):
    scene = SceneSpec(root=Sphere(radius=0.3))
    mesh = marching_cubes(scene, GridSpec(12))
    path = tmp_path / "m.obj"
    write_obj(mesh, path)
    again = read_obj(path)
    assert np.allclose(mesh.vertices, again.vertices, atol=1e-8)
    np.testing.assert_array_equal(mesh.triangles, again.triangles)


def test_obj_write_is_deterministic(tmp_path):
    mesh = TriMesh(np.array([[0.123456789123, 1, 2], [1, 0, 0], [0, 1, 0]]),
                   np.array([[0, 1, 2]]))
    p1, p2 = tmp_path / "a.obj", tmp_path / "b.obj"
    write_obj(mesh, p1)
    write_obj(mesh, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert b"0.123456789" in p1.read_bytes()  # 9 significant digits


def test_empty_mesh_obj(tmp_path):
    mesh = TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
    path = tmp_path / "empty.obj"
    write_obj(mesh, path)
    again = read_obj(path)
    assert again.is_empty()


# the writer's earlier one-f-string-per-row form: the byte reference
def _row_obj(mesh, path):
    with open(path, "w") as f:
        for v in mesh.vertices:
            f.write(f"v {v[0]:.9g} {v[1]:.9g} {v[2]:.9g}\n")
        for t in mesh.triangles:
            f.write(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}\n")


EDGE_COORDS = np.array([[-0.0, 0.0, 1e-300], [123456789.5, -123456789.5, 5e-324],
                        [1.7976931348623157e308, -2.5e-7, 0.1],
                        [0.123456789123, 1.0, -1.0]])


def test_obj_bytes_match_the_row_writer(tmp_path):
    # write_obj reads only these two arrays; indices beyond any real mesh
    mesh = SimpleNamespace(
        vertices=np.concatenate([EDGE_COORDS, [[np.inf, -np.inf, np.nan]]]),
        triangles=np.array([[0, 1, 2], [2 ** 40, 2 ** 62, 4], [123456788, 0, 3]],
                           dtype=np.int64))
    write_obj(mesh, tmp_path / "new.obj")
    _row_obj(mesh, tmp_path / "row.obj")
    assert (tmp_path / "new.obj").read_bytes() == (tmp_path / "row.obj").read_bytes()
    assert b"v -0 0 1e-300\nv 123456790 -123456790 4.94065646e-324\n" in \
        (tmp_path / "new.obj").read_bytes()

