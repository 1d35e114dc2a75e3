"""Zero-level-set extraction as a triangle mesh (table-driven marching cubes).

Cells are classified by the signs of the field at their 8 corners
(negative = inside), vertices are placed on sign-change edges by linear
interpolation, and triangles come from the canonical 256-case lookup
table. Vertices are emitted in sorted global-edge order and cells are
processed in lexicographic order, so output is deterministic. Triangle
winding is chosen so normals point toward positive field values.

An evaluable with `box_signs(lo, hi)` (a BasisField) is evaluated only at
the corners of cell blocks whose sign it cannot certify; the other corners
hold a placeholder of their block's sign, which is all marching cubes
reads of them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import GridError
from .geom import TriMesh
from .mc_tables import EDGE_AXIS, EDGE_ORIGIN, EDGE_TABLE, TRI_TABLE

# Flat-grid window of _sample_grid: at most this many corners per
# `evaluable.sdf` call, which bounds a scene oracle's memory (SceneSpec.sdf
# is not blocked, unlike BasisField.sdf_batch).
GRID_CHUNK = 65536

# Cells per block edge at each certification level of _sample_grid: blocks
# of 8^3 cells, then 4^3 inside those left uncertified (a 2^3 level costs
# more bound passes than the corner evaluations it saves).
CERTIFY_BLOCKS = (8, 4)


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


def _cell_signs(evaluable, axes) -> np.ndarray:
    """Certified sign per cell (+1, -1, or 0 where unproven), int8.

    Blocks of CERTIFY_BLOCKS[0] cells per axis are certified first through
    `evaluable.box_signs`, then the blocks of each next size inside the
    blocks left open; blocks at the far faces are cut to the grid. An
    evaluable without `box_signs` certifies nothing.
    """
    cells = tuple(len(a) - 1 for a in axes)
    box_signs = getattr(evaluable, "box_signs", None)
    if box_signs is None:
        return np.zeros(cells, dtype=np.int8)
    sign, size = None, None
    for block in CERTIFY_BLOCKS:
        n_blocks = tuple(-(-c // block) for c in cells)
        sign = (np.zeros(n_blocks, dtype=np.int8) if sign is None
                else _expand(sign, size // block, n_blocks))
        size = block
        open_blocks = np.argwhere(sign == 0)
        if len(open_blocks):
            first = open_blocks * block
            last = np.minimum(first + block, cells)
            sign[tuple(open_blocks.T)] = box_signs(_corner_points(axes, first.T),
                                                   _corner_points(axes, last.T))
    return _expand(sign, size, cells)


def _expand(a: np.ndarray, factor: int, shape: tuple[int, ...]) -> np.ndarray:
    """Repeat every entry `factor` times along each axis, cut to `shape`."""
    for axis in range(3):
        a = np.repeat(a, factor, axis=axis)
    return a[:shape[0], :shape[1], :shape[2]]


def _sample_grid(evaluable, grid: GridSpec) -> np.ndarray:
    """Field values at the grid corners that marching cubes can read.

    A corner whose every adjacent cell has a certified sign holds a signed
    placeholder (+1.0 or -1.0); every other corner holds its evaluated
    value. Sign-change edges lie only in uncertified cells, so marching
    cubes gives the same mesh as from fully evaluated corners.
    """
    axes = grid.axes()
    shape = tuple(len(a) for a in axes)
    cell_sign = _cell_signs(evaluable, axes)
    need = np.zeros(shape, dtype=bool)
    negative = np.zeros(shape, dtype=bool)
    open_cells = cell_sign == 0
    negative_cells = cell_sign < 0
    for offset in itertools.product((0, 1), repeat=3):
        corners = tuple(slice(o, o + c) for o, c in zip(offset, cell_sign.shape))
        need[corners] |= open_cells
        negative[corners] |= negative_cells
    vals = np.where(negative, -1.0, 1.0).reshape(-1)
    # open corners window by window of the flat grid, in grid order: no
    # index array of every open corner (17 MB for a dense grid at 128)
    need = need.reshape(-1)
    for lo in range(0, len(need), GRID_CHUNK):
        idx = lo + np.flatnonzero(need[lo:lo + GRID_CHUNK])
        vals[idx] = evaluable.sdf(_corner_points(axes, np.unravel_index(idx, shape)))
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        corner = _corner_points(axes, np.unravel_index(bad[0], shape))
        raise GridError(f"non-finite field value at grid corner {corner.tolist()}")
    return vals.reshape(shape)


def _corner_points(axes, ijk) -> np.ndarray:
    """Coordinates of the grid corners with axis indices ijk = (i, j, k);
    (n, 3) for index arrays, (3,) for scalars."""
    return np.stack([axes[a][ijk[a]] for a in range(3)], axis=-1)


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
