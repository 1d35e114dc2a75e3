"""Zero-level-set extraction as a triangle mesh (table-driven marching cubes).

Cells are classified by the signs of the field at their 8 corners
(negative = inside), vertices are placed on sign-change edges by linear
interpolation, and triangles come from the canonical 256-case lookup
table. Vertices are emitted in sorted global-edge order and cells are
processed in lexicographic order, so output is deterministic. Triangle
winding is chosen so normals point toward positive field values.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import GridError
from .geom import TriMesh
from .mc_tables import EDGE_AXIS, EDGE_ORIGIN, EDGE_TABLE, TRI_TABLE

# Grid corners per `evaluable.sdf` call; bounds a scene oracle's memory
# (SceneSpec.sdf is not blocked, unlike BasisField.sdf_batch).
GRID_CHUNK = 65536


@dataclass
class GridSpec:
    """Sampling lattice: cells per axis and a bounding box."""

    resolution: int | tuple[int, int, int] = 128
    lo: np.ndarray = dc_field(default_factory=lambda: np.full(3, -0.55))
    hi: np.ndarray = dc_field(default_factory=lambda: np.full(3, 0.55))

    def __post_init__(self):
        if np.isscalar(self.resolution):
            self.resolution = (int(self.resolution),) * 3
        else:
            self.resolution = tuple(int(r) for r in self.resolution)
        self.lo = np.asarray(self.lo, dtype=np.float64).reshape(3)
        self.hi = np.asarray(self.hi, dtype=np.float64).reshape(3)
        if min(self.resolution) < 8:
            raise GridError(f"resolution {self.resolution} below minimum 8")
        if np.any(self.hi <= self.lo):
            raise GridError("grid box is empty")

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return tuple(
            np.linspace(self.lo[a], self.hi[a], self.resolution[a] + 1)
            for a in range(3)
        )

    @property
    def cell_size(self) -> np.ndarray:
        return (self.hi - self.lo) / np.asarray(self.resolution, dtype=np.float64)


def _sample_grid(evaluable, grid: GridSpec) -> np.ndarray:
    xs, ys, zs = grid.axes()
    nx, ny, nz = len(xs), len(ys), len(zs)
    vals = np.empty(nx * ny * nz)
    pts = np.stack(np.meshgrid(xs, ys, zs, indexing="ij"), axis=-1).reshape(-1, 3)
    for lo in range(0, len(pts), GRID_CHUNK):
        sl = slice(lo, min(lo + GRID_CHUNK, len(pts)))
        vals[sl] = evaluable.sdf(pts[sl])
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise GridError(
            f"non-finite field value at grid corner {pts[bad[0]].tolist()}"
        )
    return vals.reshape(nx, ny, nz)


def marching_cubes(evaluable, grid: GridSpec) -> TriMesh:
    """Extract the zero level set of `evaluable.sdf` as a triangle mesh.

    Returns an empty mesh when the field has no sign change on the grid.
    Raises GridError if any grid corner evaluates non-finite.
    """
    vals = _sample_grid(evaluable, grid)
    nx, ny, nz = vals.shape  # corner counts

    inside = vals < 0.0
    case = np.zeros((nx - 1, ny - 1, nz - 1), dtype=np.uint16)
    for bit, (dx, dy, dz) in enumerate(
            [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
             (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)]):
        corner = inside[dx:dx + nx - 1, dy:dy + ny - 1, dz:dz + nz - 1]
        case |= corner.astype(np.uint16) << bit

    active = np.flatnonzero(EDGE_TABLE[case] != 0)
    if active.size == 0:
        return TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
    cell = np.stack(np.unravel_index(active, case.shape), axis=1)  # (M, 3)
    tri_rows = TRI_TABLE[case.reshape(-1)[active]]  # (M, 15) local edges, -1 pad

    valid = tri_rows >= 0
    local_edges = tri_rows[valid]
    cell_rep = np.repeat(cell, valid.sum(axis=1), axis=0)
    origin = cell_rep + EDGE_ORIGIN[local_edges]
    axis = EDGE_AXIS[local_edges]
    edge_ids = ((origin[:, 0] * ny + origin[:, 1]) * nz + origin[:, 2]) * 3 + axis

    unique_ids, inverse = np.unique(edge_ids, return_inverse=True)
    triangles = inverse.reshape(-1, 3)

    # Interpolate one vertex per unique sign-change edge.
    corner_flat, v_axis = np.divmod(unique_ids, 3)
    ci = np.stack(np.unravel_index(corner_flat, (nx, ny, nz)), axis=1)
    cj = ci.copy()
    cj[np.arange(len(cj)), v_axis] += 1
    f0 = vals[ci[:, 0], ci[:, 1], ci[:, 2]]
    f1 = vals[cj[:, 0], cj[:, 1], cj[:, 2]]
    t = f0 / (f0 - f1)
    step = grid.cell_size
    p0 = grid.lo + ci * step
    verts = p0.astype(np.float64)
    verts[np.arange(len(verts)), v_axis] += t * step[v_axis]

    # Winding from the case tables points normals toward negative values;
    # flip to orient them toward positive field (outward for an SDF).
    triangles = triangles[:, ::-1]
    return TriMesh(verts, triangles)
