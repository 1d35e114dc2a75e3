"""Geometry file I/O: OBJ meshes and ascii PLY point clouds.

Coordinates are written with 9 significant digits. Writers are
deterministic: identical inputs produce identical bytes.
"""

from __future__ import annotations

import numpy as np

from .errors import CheckpointError
from .geom import PointCloud, TriMesh


def _rows(line: str, a: np.ndarray) -> str:
    """`line` (one %-format per column) filled row by row from the (n, k)
    array `a`, in one formatting call."""
    return (line * len(a)) % tuple(a.ravel().tolist())


def write_obj(mesh: TriMesh, path) -> None:
    with open(path, "w") as f:
        f.write(_rows("v %.9g %.9g %.9g\n", mesh.vertices))
        f.write(_rows("f %d %d %d\n", mesh.triangles + 1))


def read_obj(path) -> TriMesh:
    verts, tris = [], []
    with open(path) as f:
        for line in f:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                verts.append([float(x) for x in parts[1:4]])
            elif parts[0] == "f":
                idx = [int(p.split("/")[0]) - 1 for p in parts[1:4]]
                tris.append(idx)
    return TriMesh(np.array(verts, dtype=np.float64).reshape(-1, 3),
                   np.array(tris, dtype=np.int64).reshape(-1, 3))


def write_ply(cloud: PointCloud, path) -> None:
    with open(path, "w") as f:
        f.write("ply\nformat ascii 1.0\n")
        f.write(f"element vertex {len(cloud)}\n")
        f.write("property double x\nproperty double y\nproperty double z\n")
        f.write("end_header\n")
        f.write(_rows("%.9g %.9g %.9g\n", cloud.points))


def read_ply(path) -> PointCloud:
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or lines[0].strip() != "ply":
        raise CheckpointError(f"{path} is not a PLY file")
    n = None
    body_at = None
    for i, line in enumerate(lines[1:], start=1):
        parts = line.split()
        if parts[:2] == ["element", "vertex"]:
            n = int(parts[2])
        if parts[:1] == ["end_header"]:
            body_at = i + 1
            break
    if n is None or body_at is None:
        raise CheckpointError(f"{path} has a malformed PLY header")
    pts = [[float(x) for x in lines[body_at + k].split()[:3]] for k in range(n)]
    return PointCloud(np.array(pts, dtype=np.float64))
