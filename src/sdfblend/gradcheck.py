"""Finite-difference verification of every loss gradient on random fixtures.

Fixtures are small random fields with well-conditioned domains plus random
query points and targets. Each loss is rebuilt on a recording tape so
coordinates whose probes cross a kink or flip the top-2 selection are
excluded rather than failed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import FdCheckResult, ParamVector, Tape, Var, finite_diff_check
from .field import IDENTITY_ROT6, BasisField, Decoder, FieldProgram
from .geom import PointCloud
from .objective import (
    Anchor, LossWeights, RefineInputs, loss_adj_t, loss_face_t, loss_inte_t,
    loss_opt_t, loss_pos_t, loss_reg_t, loss_sdf_euc_t, loss_sdf_t,
    loss_smooth_t, loss_stable_t,
)

LOSS_NAMES = ("sdf", "smooth", "sdf_euc", "reg", "inte", "face", "pos",
              "adj", "stable", "opt")


def random_field(rng: np.random.Generator, n_bases: int = 3, d_z: int = 4,
                 widths: tuple[int, ...] = (8, 8)) -> BasisField:
    """Small random field with moderate scales and non-degenerate rotations."""
    centers = rng.uniform(-0.35, 0.35, size=(n_bases, 3))
    latents = rng.normal(0.0, 0.3, size=(n_bases, d_z))
    log_scales = rng.uniform(np.log(0.8), np.log(3.0), size=(n_bases, 3))
    rot6s = np.tile(IDENTITY_ROT6, (n_bases, 1)) + rng.normal(0.0, 0.3, (n_bases, 6))
    offsets = rng.normal(0.0, 0.02, size=(n_bases, 3))
    decoder = Decoder.init(d_z, widths, rng=rng)
    return BasisField(centers, latents, log_scales, rot6s, offsets, decoder)


def _fixture_points(rng: np.random.Generator, field: BasisField, n: int) -> np.ndarray:
    """Queries biased toward the centers so both blend slots see signal."""
    n_near = n // 2
    idx = rng.integers(field.n_bases, size=n_near)
    near = field.effective_centers[idx] + rng.normal(0.0, 0.15, (n_near, 3))
    far = rng.uniform(-0.5, 0.5, size=(n - n_near, 3))
    return np.concatenate([near, far], axis=0)


@dataclass
class GradCheckReport:
    results: dict[str, FdCheckResult]

    @property
    def max_rel_err(self) -> float:
        return max(r.max_rel_err for r in self.results.values())

    def to_json_dict(self) -> dict:
        return {
            name: {"max_rel_err": r.max_rel_err, "n_checked": r.n_checked,
                   "n_excluded": len(r.excluded)}
            for name, r in self.results.items()
        }


def run_gradcheck(seed: int = 0, fixtures_per_loss: int = 11,
                  n_points: int = 10, h: float = 1e-6,
                  corrupt: bool = False) -> GradCheckReport:
    """Check every loss gradient on `fixtures_per_loss` random fixtures.

    `corrupt` deliberately biases the analytic gradient (to exercise failure
    reporting paths).
    """
    rng = np.random.default_rng(seed)
    weights = LossWeights()
    results: dict[str, FdCheckResult] = {}
    for loss_name in LOSS_NAMES:
        worst = FdCheckResult(max_rel_err=0.0, n_checked=0)
        for _ in range(fixtures_per_loss):
            field = random_field(rng)
            pts = _fixture_points(rng, field, n_points)
            targets = rng.normal(0.0, 0.3, size=len(pts))
            anchor = Anchor(field.centers + rng.normal(0.0, 0.05, field.centers.shape),
                            field.latents + rng.normal(0.0, 0.05, field.latents.shape))
            pos_pts = rng.uniform(-0.5, 0.5, size=(n_points, 3))
            adj_pts = _fixture_points(rng, field, n_points)
            objective = _make_objective(loss_name, field, pts, targets, weights,
                                        anchor, pos_pts, adj_pts)
            res = finite_diff_check(objective, field.to_params(), h=h)
            if corrupt:
                res = FdCheckResult(max_rel_err=res.max_rel_err + 1.0,
                                    n_checked=res.n_checked,
                                    excluded=res.excluded)
            worst = FdCheckResult(
                max_rel_err=max(worst.max_rel_err, res.max_rel_err),
                n_checked=worst.n_checked + res.n_checked,
                excluded=worst.excluded + res.excluded,
            )
        results[loss_name] = worst
    return GradCheckReport(results=results)


def _make_objective(loss_name: str, field: BasisField, pts, targets, weights,
                    anchor, pos_pts, adj_pts):
    eps = weights.hinge_eps

    def objective(tape: Tape, pv: ParamVector) -> Var:
        prog = FieldProgram(tape, field.with_params(pv))
        if loss_name == "sdf":
            return loss_sdf_t(prog, pts, targets)
        if loss_name == "smooth":
            return loss_smooth_t(prog, pts)
        if loss_name == "sdf_euc":
            return loss_sdf_euc_t(prog, pts, targets)
        if loss_name == "reg":
            return loss_reg_t(prog)
        if loss_name == "inte":
            return loss_inte_t(prog, pts, targets, weights, epoch=0)[0]
        if loss_name == "face":
            return loss_face_t(prog, pts, eps)
        if loss_name == "pos":
            return loss_pos_t(prog, pos_pts, eps)
        if loss_name == "adj":
            return loss_adj_t(prog, adj_pts, weights)
        if loss_name == "stable":
            return loss_stable_t(prog, anchor)
        if loss_name == "opt":
            inputs = RefineInputs(surface=PointCloud(pts),
                                  positive=PointCloud(pos_pts),
                                  adjacency=PointCloud(adj_pts))
            return loss_opt_t(prog, inputs, weights, anchor)[0]
        raise ValueError(f"unknown loss {loss_name!r}")

    return objective
