"""Zero-level-set extraction as a triangle mesh (table-driven marching cubes).

Cells are classified by the signs of the field at their 8 corners
(negative = inside), vertices are placed on sign-change edges by linear
interpolation, and triangles come from the canonical 256-case lookup
table. Vertices are emitted in sorted global-edge order and cells are
processed in lexicographic order, so output is deterministic. Triangle
winding is chosen so normals point toward positive field values.

An evaluable has `sdf(points)`, `bounds()` (read by metrics.iou) and
`box_signs(edges)`, which proves the sign of its `sdf` over sub-boxes of
boxes with the contract of `certify.box_signs`: a field from linear
bounds of its decoder (`certify.box_signs`), a scene from the Lipschitz
bound of its SDF (`SceneSpec.box_signs`); one that returns zeros
certifies nothing, and is evaluated at every corner. Each pass over
a level of cell blocks signs the blocks of the next level inside them,
and the last level's pass signs single cells; only the corners of cells
left unsigned are evaluated. The other corners hold a placeholder of
their cells' sign, which is all marching cubes reads of them. The cell
signs (CellSigns) outlive the corner values: `metrics.iou` takes a
sample's sign from its certified cell.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import GridError, check_array, check_number, check_type
from .field import DEFAULT_FIELD_BOUNDS
from .geom import GRID_CHUNK, TriMesh
from .mc_tables import EDGE_AXIS, EDGE_ORIGIN, TRI_TABLE

# Cells per block edge at each bound pass of _cell_signs: blocks of 8^3
# cells, whose pass also signs their 4^3 sub-blocks, then the 4^3 blocks
# left open, whose pass signs their single cells.
CERTIFY_BLOCKS = (8, 4)

MIN_RESOLUTION = 8  # cells per axis of a GridSpec, at least

# cases whose cells hold triangles: those with a sign-change edge
HAS_TRIANGLES = TRI_TABLE[:, 0] >= 0


@dataclass
class GridSpec:
    """Sampling lattice: cells per axis and a bounding box."""

    resolution: int | tuple[int, int, int] = 128
    lo: np.ndarray = dc_field(default_factory=DEFAULT_FIELD_BOUNDS[0].copy)
    hi: np.ndarray = dc_field(default_factory=DEFAULT_FIELD_BOUNDS[1].copy)

    def __post_init__(self):
        res = self.resolution
        res = [res] if np.ndim(res) == 0 else list(res)
        if len(res) not in (1, 3):
            raise GridError(f"resolution has {len(res)} entries, expected 1 or 3")
        self.resolution = tuple(
            check_number(r, "resolution", MIN_RESOLUTION, integer=True,
                         error=GridError)
            for r in (res * 3 if len(res) == 1 else res))
        self.lo = check_array(self.lo, (3,), "grid lo", GridError)
        self.hi = check_array(self.hi, (3,), "grid hi", GridError)
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

    Blocks of CERTIFY_BLOCKS[0] cells per axis go first through
    `evaluable.box_signs`, which signs the blocks of the next size inside
    each of them; the blocks left open go through again at the next size,
    and at the last level they are split into single cells. Blocks at the
    far faces are cut to the grid, and their sub-blocks take their
    coordinates from `axes`.
    """
    cells = tuple(len(a) - 1 for a in axes)
    size = CERTIFY_BLOCKS[0]
    sign = np.zeros(tuple(-(-c // size) for c in cells), dtype=np.int8)
    for sub in CERTIFY_BLOCKS[1:] + (1,):
        s = size // sub
        # every sub-block inherits its block's sign; the grid is cut below
        nxt = _expand(sign, s)
        open_blocks = np.argwhere(sign == 0)
        if len(open_blocks):
            ends = np.minimum(open_blocks[:, :, None] * size
                              + sub * np.arange(s + 1), np.reshape(cells, (3, 1)))
            edges = np.stack([axes[a][ends[:, a]] for a in range(3)], axis=1)
            blocks = nxt.reshape(sign.shape[0], s, sign.shape[1], s,
                                 sign.shape[2], s).transpose(0, 2, 4, 1, 3, 5)
            blocks[tuple(open_blocks.T)] = evaluable.box_signs(edges)
        sign = nxt[tuple(slice(-(-c // sub)) for c in cells)]
        size = sub
    return sign


def _expand(a: np.ndarray, factor: int) -> np.ndarray:
    """Repeat every entry `factor` times along each axis."""
    for axis in range(3):
        a = np.repeat(a, factor, axis=axis)
    return a


@dataclass(frozen=True)
class CellSigns:
    """The certified sign of a field over each closed cell of a grid.

    `sign` is int8 per cell: +1 where `sdf` gives a finite value >= 0
    at every point of the cell, -1 where it gives a finite value < 0, and
    0 where neither is proven. `axes` are the grid's corner coordinates.
    """

    axes: tuple[np.ndarray, np.ndarray, np.ndarray]
    sign: np.ndarray

    def at(self, pts: np.ndarray) -> np.ndarray:
        """The sign of a cell that holds each point, int8; 0 for a point
        outside the grid (or NaN). A point on a face between cells reads
        one of them, and both hold it."""
        pts = np.asarray(pts, dtype=np.float64).reshape(-1, 3)
        inside = np.ones(len(pts), dtype=bool)
        ijk = []
        for a, ax in enumerate(self.axes):
            # ax[i] <= x < ax[i + 1], compared with the corner coordinates
            # themselves; the far face belongs to the last cell
            i = np.searchsorted(ax, pts[:, a], side="right") - 1
            i[pts[:, a] == ax[-1]] = len(ax) - 2
            inside &= (i >= 0) & (i < len(ax) - 1)
            ijk.append(np.clip(i, 0, len(ax) - 2))
        return np.where(inside, self.sign[tuple(ijk)], 0)


def _sample_grid(evaluable, grid: GridSpec) -> tuple[np.ndarray, CellSigns]:
    """Field values at the grid corners that marching cubes can read, and
    the certified cell signs.

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
    return vals.reshape(shape), CellSigns(axes, cell_sign)


def _corner_points(axes, ijk) -> np.ndarray:
    """Coordinates of the grid corners with axis indices ijk = (i, j, k);
    (n, 3) for index arrays, (3,) for scalars."""
    return np.stack([axes[a][ijk[a]] for a in range(3)], axis=-1)


def marching_cubes(evaluable, grid: GridSpec, with_cells: bool = False):
    """Extract the zero level set of `evaluable.sdf` as a triangle mesh.

    Returns an empty mesh when the field has no sign change on the grid;
    with `with_cells`, returns (mesh, CellSigns of the grid). Raises
    GridError if any grid corner evaluates non-finite, and ValueError if
    `grid` is not a GridSpec.
    """
    vals, cells = _sample_grid(evaluable, check_type(grid, GridSpec, "grid"))
    mesh = _extract(vals, grid)
    return (mesh, cells) if with_cells else mesh


def _extract(vals: np.ndarray, grid: GridSpec) -> TriMesh:
    """The marching-cubes mesh of the corner values `vals` of `grid`."""
    nx, ny, nz = vals.shape  # corner counts

    inside = vals < 0.0
    case = np.zeros((nx - 1, ny - 1, nz - 1), dtype=np.uint16)
    for bit, (dx, dy, dz) in enumerate(
            [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
             (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)]):
        corner = inside[dx:dx + nx - 1, dy:dy + ny - 1, dz:dz + nz - 1]
        case |= corner.astype(np.uint16) << bit

    active = np.flatnonzero(HAS_TRIANGLES[case])
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
