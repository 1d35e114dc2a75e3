"""Geometry file I/O: OBJ meshes.

Coordinates are written with 9 significant digits. The writer is
deterministic: identical inputs produce identical bytes.
"""

from __future__ import annotations

import numpy as np

from .geom import TriMesh


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
