"""End-to-end fitting: initialize a field, fit it to sampled SDF data,
compact it by domain-based downsampling, and refine centers/latents with
the post-fit objective.

Every loop is a pure function of its inputs and its seed (config.seed for
a fit, `seed` for a refinement): batches, noise and initialization all
derive from one seed sequence, so reruns are bit-identical.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .autodiff import AdamState, NonFiniteError, Tape, adam_step, backward
from .errors import check_document, check_number, check_positive, check_type
from .field import (
    DOMAIN_PARAM_NAMES, IDENTITY_ROT6, BasisField, Decoder, FieldProgram,
)
from .geom import (
    PointCloud, SampleSet, SceneSpec, farthest_point_sample, positive_points,
    sample_training_set, spawn_seeds, surface_points,
)
from .objective import Anchor, LossWeights, RefineInputs, loss_inte_t, loss_opt_t

# Refinement's adjacency points (adjacency_points); constants, not settings,
# since no command or job has ever set another value.
N_REFINE_ADJ = 4096  # the refine command's default surface + free-space counts
ADJ_SPREAD = 0.05    # std. dev. around an effective center, on shapes ~1 across


@dataclass
class FitConfig:
    """Hyperparameters for one fitting job."""

    n_bases: int = 64
    n_init: int | None = None          # compaction starting count (>= n_bases)
    d_z: int = 64
    decoder_widths: tuple[int, ...] = (128, 128, 128, 128)
    decoder_skip: tuple[int, ...] = ()
    steps: int = 4000
    batch_size: int = 2048
    lr: float = 1e-3
    seed: int = 0
    weights: LossWeights = dc_field(default_factory=LossWeights)
    reg_boundary_frac: float = 0.1     # offset regularizer active before this
    # self-sampling counts for ops that generate their own data
    n_near: int = 18000
    n_uniform: int = 2000
    noise_stds: tuple[float, float] = (0.01, 0.003)
    # parameter names to optimize; None trains everything
    trainable: tuple[str, ...] | None = None

    def __post_init__(self):
        for name in ("n_bases", "steps", "batch_size"):
            check_number(getattr(self, name), name, 1, integer=True)
        for name in ("d_z", "seed", "n_near", "n_uniform"):
            check_number(getattr(self, name), name, 0, integer=True)
        check_number(self.reg_boundary_frac, "reg_boundary_frac", 0.0)
        check_positive(self.lr, "lr")
        if self.n_init is not None:
            check_number(self.n_init, "n_init", self.n_bases, integer=True)
        if not isinstance(self.weights, LossWeights):
            self.weights = LossWeights.from_json_dict(self.weights)
        self.decoder_widths = tuple(
            int(check_number(w, "decoder_widths entries", 1, integer=True))
            for w in _as_list(self.decoder_widths, "decoder_widths"))
        self.decoder_skip = tuple(
            int(check_number(i, "decoder_skip entries", 0, integer=True))
            for i in _as_list(self.decoder_skip, "decoder_skip"))
        if any(i > len(self.decoder_widths) for i in self.decoder_skip):
            raise ValueError("decoder_skip entries must name decoder layers")
        self.noise_stds = tuple(
            float(check_positive(s, "noise_stds entries"))
            for s in _as_list(self.noise_stds, "noise_stds", length=2))
        if self.trainable is not None:
            self.trainable = _as_list(self.trainable, "trainable")
            names = set(DOMAIN_PARAM_NAMES) | {
                f"dec_{kind}{i}" for kind in "wb"
                for i in range(len(self.decoder_widths) + 1)}
            unknown = [n for n in self.trainable
                       if not isinstance(n, str) or n not in names]
            if unknown:
                raise ValueError(f"trainable entries match no parameter: {unknown}")
            if not self.trainable:
                raise ValueError("trainable must name at least one parameter")

    def to_json_dict(self) -> dict:
        doc = {}
        for name in self.__dataclass_fields__:
            v = getattr(self, name)
            if isinstance(v, LossWeights):
                v = v.to_json_dict()
            elif isinstance(v, tuple):
                v = list(v)
            doc[name] = v
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "FitConfig":
        return cls(**check_document(doc, None, "fit config", ValueError,
                                    fields=cls.__dataclass_fields__))


def _as_list(value, what: str, length: int | None = None) -> tuple:
    """`value` (a list or tuple, of `length` entries if given) as a tuple."""
    if not isinstance(value, (list, tuple)) or (
            length is not None and len(value) != length):
        raise ValueError(f"{what} must be a list"
                         + (f" of {length} entries" if length else ""))
    return tuple(value)


@dataclass
class FitReport:
    """Loss trace and run diagnostics for one optimization loop."""

    trace: dict[str, list[float]]
    wall_time_s: float
    param_norms: dict[str, float]
    diagnostics: dict[str, int]

    @property
    def steps(self) -> int:
        return len(self.trace["total"])

    def to_json_dict(self) -> dict:
        # wall time deliberately omitted: emitted reports are byte-stable
        return {
            "trace": self.trace,
            "param_norms": self.param_norms,
            "diagnostics": self.diagnostics,
        }


def init_field(scene: SceneSpec, config: FitConfig) -> BasisField:
    """Field with centers from farthest-point-sampled surface points,
    spacing-scaled isotropic domains, small random latents, and a
    Kaiming-initialized decoder. Deterministic per config.seed."""
    n = config.n_bases
    s_surf, s_fps, s_z, s_dec = spawn_seeds(config.seed, 4)
    cloud = surface_points(scene, max(1024, 8 * n), s_surf)
    idx = farthest_point_sample(cloud, n, s_fps)
    centers = cloud.points[idx]
    if n > 1:
        d = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2)
        np.fill_diagonal(d, np.inf)
        spacing = float(d.min(axis=1).mean())
    else:
        spacing = 0.5
    # e^-1 isocontour radius of each domain ~ 2x the mean nearest-center gap
    log_scale = -np.log(2.0 * spacing)
    rng = np.random.default_rng(s_z)
    latents = rng.normal(0.0, 0.01, size=(n, config.d_z))
    decoder = Decoder.init(config.d_z, config.decoder_widths, config.decoder_skip,
                           rng=np.random.default_rng(s_dec))
    return BasisField(
        centers=centers,
        latents=latents,
        log_scales=np.full((n, 3), log_scale),
        rot6s=np.tile(IDENTITY_ROT6, (n, 1)),
        offsets=np.zeros((n, 3)),
        decoder=decoder,
    )


def _batch_indices(n_samples: int, batch_size: int, seed: int
                   ) -> Iterator[np.ndarray]:
    """Endless stream of shuffled minibatch index arrays, reshuffled each
    pass; deterministic. Only the current pass's permutation is held."""
    rng = np.random.default_rng(seed)
    batch = min(batch_size, n_samples)
    order = rng.permutation(n_samples)
    at = 0
    while True:
        if at + batch > n_samples:
            order = rng.permutation(n_samples)
            at = 0
        yield order[at:at + batch]
        at += batch


def _optimize(field: BasisField, trainable: set[str] | None, lr: float,
              steps: int, step_loss) -> tuple[BasisField, FitReport]:
    """Adam on the `trainable` parameters of `field` (None: all), one
    FieldProgram per step; `step_loss(prog, step)` returns the loss Var and
    its named float terms. Aborts with the step index on non-finite loss."""
    pv = field.to_params()
    state = AdamState.init(len(pv), lr=lr)
    trace: dict[str, list[float]] = {"total": []}
    n_fallback = 0
    t0 = time.perf_counter()
    for step in range(steps):
        tape = Tape()
        prog = FieldProgram(tape, field.with_params(pv), trainable)
        total, parts = step_loss(prog, step)
        value = float(total.value)
        if not np.isfinite(value):
            raise NonFiniteError(f"non-finite loss at step {step}")
        n_fallback += prog.n_fallback_total
        trace["total"].append(value)
        for k, v in parts.items():
            trace.setdefault(k, []).append(v)
        grads = pv.flatten_grads(backward(tape, total))
        pv.data, state = adam_step(pv.data, grads, state)
    wall = time.perf_counter() - t0
    report = FitReport(
        trace=trace,
        wall_time_s=wall,
        param_norms={name: float(np.linalg.norm(pv.view(name)))
                     for name in pv.names()},
        diagnostics={"underflow_fallbacks": n_fallback,
                     "excluded_grad_coords": 0},
    )
    return field.with_params(pv), report


def fit_field(field: BasisField, samples: SampleSet, config: FitConfig
              ) -> tuple[BasisField, FitReport]:
    """Adam over the field parameters minimizing the integrated objective
    on shuffled minibatches. Aborts with the step index on non-finite loss."""
    check_type(config, FitConfig, "config")
    if len(samples) == 0:
        raise ValueError("samples must be nonempty")
    trainable = set(config.trainable) if config.trainable is not None else None
    reg_boundary = config.reg_boundary_frac * config.steps
    (s_batch,) = spawn_seeds(config.seed, 1)
    batches = _batch_indices(len(samples), config.batch_size, s_batch)

    def step_loss(prog, step):
        idx = next(batches)  # _optimize calls this once per step, in order
        epoch = 0 if step < reg_boundary else 1
        return loss_inte_t(prog, np.take(samples.points, idx, axis=0),
                           np.take(samples.targets, idx), config.weights, epoch)

    return _optimize(field, trainable, config.lr, config.steps, step_loss)


def compact_fit(scene: SceneSpec, config: FitConfig
                ) -> tuple[BasisField, np.ndarray, FitReport]:
    """Fit n_init bases, downsample to n_bases by domain coverage, refit.

    Survivors keep their phase-1 parameters as a warm start. The report
    concatenates both phases' traces (phase boundary in diagnostics).
    """
    # looked up in `field` at call time, so a wrapper installed on
    # field.domain_downsample (bench/tracer.py) sees this call
    from .field import domain_downsample

    n_init = config.n_init if config.n_init is not None else config.n_bases
    if config.n_bases > n_init:
        raise ValueError("n_bases must be <= n_init")
    s_samp, s_fit1, s_fit2 = spawn_seeds(config.seed, 3)
    samples = sample_training_set(scene, config.n_near, config.n_uniform,
                                  config.noise_stds, seed=s_samp)
    phase1_cfg = replace(config, n_bases=n_init, n_init=None, seed=s_fit1)
    start = init_field(scene, phase1_cfg)
    field1, report1 = fit_field(start, samples, phase1_cfg)
    kept = domain_downsample(field1, config.n_bases)
    warm = field1.take(kept)
    phase2_cfg = replace(phase1_cfg, n_bases=config.n_bases, seed=s_fit2)
    field2, report2 = fit_field(warm, samples, phase2_cfg)
    combined = FitReport(
        trace={k: report1.trace[k] + report2.trace[k] for k in report1.trace},
        wall_time_s=report1.wall_time_s + report2.wall_time_s,
        param_norms=report2.param_norms,
        diagnostics={
            **{k: report1.diagnostics[k] + report2.diagnostics[k]
               for k in report1.diagnostics},
            "phase_boundary": report1.steps,
        },
    )
    return field2, kept, combined


def adjacency_points(field: BasisField, n: int, spread: float, seed: int
                     ) -> PointCloud:
    """Gaussian samples around the effective centers (for the adjacency term)."""
    rng = np.random.default_rng(seed)
    idx = rng.integers(field.n_bases, size=n)
    pts = field.effective_centers[idx] + rng.normal(0.0, spread, size=(n, 3))
    return PointCloud(pts)


def refine(field: BasisField, surface_pts: PointCloud, pos_pts: PointCloud,
           anchor: Anchor, *, steps: int = 1000, lr: float = 1e-3,
           seed: int = 0, weights: LossWeights | None = None
           ) -> tuple[BasisField, FitReport]:
    """Post-fit refinement: `steps` Adam steps of rate `lr` on centers and
    latents only, against loss_opt_t under `weights` (None: LossWeights()),
    with N_REFINE_ADJ adjacency points drawn from `seed`.

    All other parameters are frozen by construction (their gradients are
    exactly zero, so their values are bit-identical afterwards).
    """
    check_number(steps, "steps", 1, integer=True)
    check_positive(lr, "lr")
    check_number(seed, "seed", 0, integer=True)
    weights = (LossWeights() if weights is None
               else check_type(weights, LossWeights, "weights"))
    anchor.check_matches(field)
    (s_adj,) = spawn_seeds(seed, 1)
    adj = adjacency_points(field, N_REFINE_ADJ, ADJ_SPREAD, s_adj)
    inputs = RefineInputs(surface=surface_pts, positive=pos_pts, adjacency=adj)
    return _optimize(field, {"centers", "latents"}, lr, steps,
                     lambda prog, step: loss_opt_t(prog, inputs, weights,
                                                   anchor))


def refine_from_scene(field: BasisField, scene: SceneSpec, *,
                      steps: int = 1000, lr: float = 1e-3, seed: int = 0,
                      weights: LossWeights | None = None,
                      n_surface: int = 2048, n_positive: int = 2048
                      ) -> tuple[BasisField, FitReport]:
    """Convenience wrapper: draw refinement inputs from the scene oracle
    (from `seed + 1`, so they are independent of the adjacency points)."""
    weights = (LossWeights() if weights is None
               else check_type(weights, LossWeights, "weights"))
    s_surf, s_pos = spawn_seeds(seed + 1, 2)
    surf = surface_points(scene, n_surface, s_surf)
    pos = positive_points(scene, n_positive, margin=weights.hinge_eps,
                          seed=s_pos)
    anchor = Anchor.from_field(field)
    return refine(field, surf, pos, anchor, steps=steps, lr=lr, seed=seed,
                  weights=weights)
