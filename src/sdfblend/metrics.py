"""Quantitative surface evaluation: volumetric IoU, Chamfer-L2, F-score.

Note the two chamfer conventions in this package: the *metric* here uses
squared nearest-neighbor distances, while objective.loss_chamfer uses
unsquared ones. Nearest-neighbor queries are exact (KD-tree).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import check_number, check_positive, check_type
from .geom import PointCloud, sample_mesh_surface, spawn_seeds
from .surface import CellSigns, GridSpec, marching_cubes

# Samples per IoU draw; bounds a scene oracle's memory
# (SceneSpec.sdf is not blocked, unlike BasisField.sdf_batch).
IOU_CHUNK = 262144


@dataclass
class EvalProtocol:
    """Sample counts, seeds and thresholds for `evaluate`."""

    n_iou: int = 100_000
    n_surface: int = 100_000
    tau: float = 0.01
    grid: GridSpec = dc_field(default_factory=lambda: GridSpec(128))
    seed: int = 0

    def __post_init__(self):
        # stored as Python numbers: a numpy scalar would reach the report,
        # whose JSON could not be written
        self.n_iou = int(check_number(self.n_iou, "n_iou", 1, integer=True))
        self.n_surface = int(check_number(self.n_surface, "n_surface", 1,
                                          integer=True))
        self.tau = float(check_positive(self.tau, "tau"))
        self.seed = int(check_number(self.seed, "seed", 0, integer=True))


@dataclass
class MetricReport:
    iou: float
    chamfer_l2: float
    f_score: float
    n_iou_samples: int
    n_surface_samples: int
    tau: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.iou <= 1.0:
            raise ValueError("iou out of [0, 1]")
        if not 0.0 <= self.f_score <= 1.0:
            raise ValueError("f_score out of [0, 1]")
        if self.chamfer_l2 < 0.0:
            raise ValueError("chamfer_l2 negative")

    def to_json_dict(self) -> dict:
        return {
            "iou": self.iou, "chamfer_l2": self.chamfer_l2,
            "f_score": self.f_score, "n_iou_samples": self.n_iou_samples,
            "n_surface_samples": self.n_surface_samples, "tau": self.tau,
            "seed": self.seed,
        }


def _union_bounds(a, b) -> tuple[np.ndarray, np.ndarray]:
    lo_a, hi_a = a.bounds()
    lo_b, hi_b = b.bounds()
    return np.minimum(lo_a, lo_b), np.maximum(hi_a, hi_b)


def iou(a, b, n: int, seed: int, cells_a: CellSigns | None = None) -> float:
    """Occupancy IoU over uniform samples in the union bounding box.

    `a` and `b` expose sdf(points) and bounds(); occupancy is sdf < 0.
    Returns 1.0 when neither occupies any sample. A sample in a certified
    cell of `cells_a` (from marching_cubes(a, grid, with_cells=True))
    takes that cell's sign, which is the sign of `a.sdf` there, so `a` is
    evaluated only at the other samples and the counts are the same.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    lo, hi = _union_bounds(a, b)
    rng = np.random.default_rng(seed)
    n_both = 0
    n_either = 0
    remaining = n
    while remaining > 0:
        m = min(remaining, IOU_CHUNK)
        pts = rng.uniform(lo, hi, size=(m, 3))
        occ_a = _occupied(a, pts, cells_a)
        occ_b = b.sdf(pts) < 0.0
        n_both += int(np.count_nonzero(occ_a & occ_b))
        n_either += int(np.count_nonzero(occ_a | occ_b))
        remaining -= m
    if n_either == 0:
        return 1.0
    return n_both / n_either


def _occupied(evaluable, pts: np.ndarray, cells: CellSigns | None
              ) -> np.ndarray:
    """sdf < 0 at each point; a point in a certified cell of `cells` takes
    the cell's sign without an evaluation."""
    if cells is None:
        return evaluable.sdf(pts) < 0.0
    sign = cells.at(pts)
    occupied = sign < 0
    open_pts = np.flatnonzero(sign == 0)
    if len(open_pts):
        occupied[open_pts] = evaluable.sdf(pts[open_pts]) < 0.0
    return occupied


def cKDTree(points: np.ndarray):
    """scipy.spatial.cKDTree over `points`. scipy.spatial is imported on the
    first call: it is a third of the package's import time, and only
    nearest-neighbor queries need it."""
    from scipy.spatial import cKDTree as tree
    return tree(points)


def nearest_distances(a: PointCloud, b: PointCloud
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Distance from each point of `a` to its nearest point of `b`, and from
    each point of `b` to `a`: one KD-tree per cloud."""
    if len(a) == 0 or len(b) == 0:
        raise ValueError("nearest-neighbor distances need nonempty point clouds")
    d_ab, _ = cKDTree(b.points).query(a.points, workers=2)
    d_ba, _ = cKDTree(a.points).query(b.points, workers=2)
    return d_ab, d_ba


def chamfer_l2(a: PointCloud, b: PointCloud) -> float:
    """Symmetric mean of squared nearest-neighbor distances."""
    return _chamfer_l2(*nearest_distances(a, b))


def _chamfer_l2(d_ab: np.ndarray, d_ba: np.ndarray) -> float:
    return float(np.mean(d_ab ** 2) + np.mean(d_ba ** 2))


def f_score(a: PointCloud, b: PointCloud, tau: float = 0.01) -> float:
    """Harmonic mean of precision/recall at distance threshold tau."""
    check_positive(tau, "tau")
    return _f_score(*nearest_distances(a, b), tau)


def _f_score(d_ab: np.ndarray, d_ba: np.ndarray, tau: float) -> float:
    precision = float(np.mean(d_ab <= tau))
    recall = float(np.mean(d_ba <= tau))
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def evaluate(subject, reference, protocol: EvalProtocol | None = None) -> MetricReport:
    """Mesh both sides, sample their surfaces, and compute all three metrics.

    `subject` and `reference` are sdf-evaluables (field or scene). Surface
    samples are drawn on each extracted mesh; IoU is computed directly on
    the two fields, reading the subject's certified cells. Deterministic
    per protocol seed.
    """
    protocol = (EvalProtocol() if protocol is None
                else check_type(protocol, EvalProtocol, "protocol"))
    s_a, s_b, s_iou = spawn_seeds(protocol.seed, 3)
    mesh_a, cells_a = marching_cubes(subject, protocol.grid, with_cells=True)
    mesh_b = marching_cubes(reference, protocol.grid)
    cloud_a = sample_mesh_surface(mesh_a, protocol.n_surface, s_a)
    cloud_b = sample_mesh_surface(mesh_b, protocol.n_surface, s_b)
    # chamfer and F-score share one query in each direction
    d_ab, d_ba = nearest_distances(cloud_a, cloud_b)
    return MetricReport(
        iou=iou(subject, reference, protocol.n_iou, s_iou, cells_a),
        chamfer_l2=_chamfer_l2(d_ab, d_ba),
        f_score=_f_score(d_ab, d_ba, protocol.tau),
        n_iou_samples=protocol.n_iou,
        n_surface_samples=protocol.n_surface,
        tau=protocol.tau,
        seed=protocol.seed,
    )
