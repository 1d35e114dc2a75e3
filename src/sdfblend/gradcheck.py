"""Finite-difference verification of every loss gradient on random fixtures.

Fixtures are small random fields with well-conditioned domains plus random
query points and targets. Each loss is rebuilt on a recording tape so
coordinates whose probes cross a kink or flip the top-2 selection are
excluded rather than failed.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .autodiff import FdCheckResult, ParamVector, Tape, Var, finite_diff_check
from .field import IDENTITY_ROT6, BasisField, Decoder, FieldProgram
from .geom import PointCloud
from .objective import (
    Anchor, LossWeights, RefineInputs, loss_adj_t, loss_face_t, loss_inte_t,
    loss_opt_t, loss_pos_t, loss_reg_t, loss_sdf_euc_t, loss_sdf_t,
    loss_smooth_t, loss_stable_t,
)

# query points per fixture, and per positive and adjacency point set
N_POINTS = 10


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
                  h: float = 1e-6) -> GradCheckReport:
    """Check every loss gradient on `fixtures_per_loss` random fixtures."""
    rng = np.random.default_rng(seed)
    weights = LossWeights()
    results: dict[str, FdCheckResult] = {}
    for loss_name in LOSS_NAMES:
        worst = FdCheckResult(max_rel_err=0.0, n_checked=0)
        for _ in range(fixtures_per_loss):
            field = random_field(rng)
            fx = SimpleNamespace(  # arguments evaluate, and draw, in order
                pts=_fixture_points(rng, field, N_POINTS),
                targets=rng.normal(0.0, 0.3, size=N_POINTS),
                weights=weights,
                anchor=Anchor(
                    field.centers + rng.normal(0.0, 0.05, field.centers.shape),
                    field.latents + rng.normal(0.0, 0.05, field.latents.shape)),
                pos_pts=rng.uniform(-0.5, 0.5, size=(N_POINTS, 3)),
                adj_pts=_fixture_points(rng, field, N_POINTS))
            res = finite_diff_check(_objective(LOSSES[loss_name], field, fx),
                                    field.to_params(), h=h)
            worst = FdCheckResult(
                max_rel_err=max(worst.max_rel_err, res.max_rel_err),
                n_checked=worst.n_checked + res.n_checked,
                excluded=worst.excluded + res.excluded,
            )
        results[loss_name] = worst
    return GradCheckReport(results=results)


def _loss_opt(prog: FieldProgram, fx: SimpleNamespace) -> Var:
    inputs = RefineInputs(surface=PointCloud(fx.pts),
                          positive=PointCloud(fx.pos_pts),
                          adjacency=PointCloud(fx.adj_pts))
    return loss_opt_t(prog, inputs, fx.weights, fx.anchor)[0]


# loss name -> its value on a program at a fixture's inputs (see
# run_gradcheck); the losses are checked in this order
LOSSES = {
    "sdf": lambda prog, fx: loss_sdf_t(prog, fx.pts, fx.targets),
    "smooth": lambda prog, fx: loss_smooth_t(prog, fx.pts),
    "sdf_euc": lambda prog, fx: loss_sdf_euc_t(prog, fx.pts, fx.targets),
    "reg": lambda prog, fx: loss_reg_t(prog),
    "inte": lambda prog, fx: loss_inte_t(prog, fx.pts, fx.targets, fx.weights,
                                         epoch=0)[0],
    "face": lambda prog, fx: loss_face_t(prog, fx.pts, fx.weights.hinge_eps),
    "pos": lambda prog, fx: loss_pos_t(prog, fx.pos_pts, fx.weights.hinge_eps),
    "adj": lambda prog, fx: loss_adj_t(prog, fx.adj_pts, fx.weights),
    "stable": lambda prog, fx: loss_stable_t(prog, fx.anchor),
    "opt": _loss_opt,
}
LOSS_NAMES = tuple(LOSSES)


def _objective(loss, field: BasisField, fx: SimpleNamespace):
    """`loss` of `fx` as a function of the parameters of `field`."""
    def objective(tape: Tape, pv: ParamVector) -> Var:
        return loss(FieldProgram(tape, field.with_params(pv)), fx)

    return objective
