"""Fitting pipelines: initialization, optimization loop, compaction, refinement."""

import numpy as np
import pytest

from sdfblend.field import BasisField, Decoder, domain_downsample
from sdfblend.fit import (
    FitConfig, _batch_indices, _spawn_seeds, compact_fit, fit_field,
    init_field, refine,
)
from sdfblend.geom import PointCloud, SceneSpec, Sphere, sample_training_set
from sdfblend.objective import Anchor, LossWeights, loss_inte

SPHERE = SceneSpec(root=Sphere(radius=0.4))

SMALL = dict(d_z=4, decoder_widths=(12, 12), batch_size=256,
             n_near=900, n_uniform=100)


def small_config(**kw):
    base = dict(SMALL)
    base.update(kw)
    return FitConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        FitConfig(steps=0)
    with pytest.raises(ValueError):
        FitConfig(lr=0.0)
    with pytest.raises(ValueError):
        FitConfig(n_bases=4, n_init=2)
    with pytest.raises(ValueError):
        FitConfig.from_json_dict({"bogus_field": 1})


def test_config_json_round_trip():
    cfg = small_config(n_bases=6, steps=17, weights=LossWeights(smooth=0.7))
    again = FitConfig.from_json_dict(cfg.to_json_dict())
    assert again == cfg


def test_init_field_single_basis_on_sphere_surface():
    cfg = small_config(n_bases=1, steps=1, seed=3)
    f = init_field(SPHERE, cfg)
    assert f.n_bases == 1
    assert abs(np.linalg.norm(f.centers[0]) - 0.4) <= 1e-4
    assert np.all(f.offsets == 0.0)


def test_init_field_deterministic():
    cfg = small_config(n_bases=8, steps=1, seed=5)
    a = init_field(SPHERE, cfg)
    b = init_field(SPHERE, cfg)
    np.testing.assert_array_equal(a.centers, b.centers)
    np.testing.assert_array_equal(a.latents, b.latents)
    for w1, w2 in zip(a.decoder.weights, b.decoder.weights):
        np.testing.assert_array_equal(w1, w2)


def test_init_field_well_conditioned_blending():
    cfg = small_config(n_bases=64, steps=1, seed=7)
    f = init_field(SPHERE, cfg)
    axes = np.linspace(-0.55, 0.55, 16)
    grid = np.stack(np.meshgrid(axes, axes, axes, indexing="ij"),
                    axis=-1).reshape(-1, 3)
    _, n_fallback = f.sdf_batch_diag(grid)
    assert n_fallback == 0


def test_fit_field_rejects_empty_samples():
    from sdfblend.geom import SampleSet
    cfg = small_config(n_bases=2, steps=2)
    f = init_field(SPHERE, cfg)
    empty = SampleSet(np.zeros((0, 3)), np.zeros(0), np.zeros(0, dtype="U8"))
    with pytest.raises(ValueError):
        fit_field(f, empty, cfg)


def test_fit_field_deterministic_and_traced():
    cfg = small_config(n_bases=4, steps=25, seed=11)
    samples = sample_training_set(SPHERE, 900, 100, seed=2)
    f0 = init_field(SPHERE, cfg)
    f1, r1 = fit_field(f0, samples, cfg)
    f2, r2 = fit_field(f0, samples, cfg)
    assert r1.trace == r2.trace
    assert r1.steps == 25
    assert all(len(v) == 25 for v in r1.trace.values())
    np.testing.assert_array_equal(f1.centers, f2.centers)
    np.testing.assert_array_equal(f1.latents, f2.latents)
    assert r1.to_json_dict() == r2.to_json_dict()
    # emitted report excludes volatile wall time
    assert "wall_time_s" not in r1.to_json_dict()


def test_fit_trace_entries_match_recomputed_losses():
    # the loss logged at step t is the objective of the params entering t,
    # evaluated on that step's minibatch
    steps, check_at = 12, 5
    # same absolute offset-regularizer boundary (3 steps) in both runs
    cfg = small_config(n_bases=3, steps=steps, seed=13, reg_boundary_frac=0.25)
    samples = sample_training_set(SPHERE, 450, 50, seed=3)
    f0 = init_field(SPHERE, cfg)
    _, report = fit_field(f0, samples, cfg)

    cfg_partial = small_config(n_bases=3, steps=check_at, seed=13,
                               reg_boundary_frac=0.6)
    f_partial, _ = fit_field(f0, samples, cfg_partial)

    (s_batch,) = _spawn_seeds(cfg.seed, 1)
    batches = _batch_indices(len(samples), cfg.batch_size, steps, s_batch)
    idx = batches[check_at]
    from sdfblend.geom import SampleSet
    batch = SampleSet(samples.points[idx], samples.targets[idx],
                      samples.tags[idx])
    epoch = 0 if check_at < cfg.reg_boundary_frac * steps else 1
    recomputed = loss_inte(f_partial, batch, cfg.weights, epoch)
    assert report.trace["total"][check_at] == pytest.approx(recomputed, rel=1e-12)


def test_fit_loss_decreases_on_small_problem():
    cfg = small_config(n_bases=4, steps=150, seed=17)
    samples = sample_training_set(SPHERE, 900, 100, seed=4)
    f0 = init_field(SPHERE, cfg)
    _, report = fit_field(f0, samples, cfg)
    first = np.mean(report.trace["total"][:10])
    last = np.mean(report.trace["total"][-10:])
    assert last < 0.5 * first


# ---------------------------------------------------------------------------
# compact_fit


def test_compact_fit_phases_and_warm_start():
    cfg = small_config(n_bases=6, n_init=10, steps=20, seed=19)
    field, kept, report = compact_fit(SPHERE, cfg)
    assert field.n_bases == 6
    assert len(kept) == 6
    assert report.diagnostics["phase_boundary"] == 20
    assert len(report.trace["total"]) == 40

    # reproduce phase 1 + downsample independently: warm start must be exact
    from dataclasses import replace
    s_samp, s_fit1, s_fit2 = _spawn_seeds(cfg.seed, 3)
    samples = sample_training_set(SPHERE, cfg.n_near, cfg.n_uniform,
                                  cfg.noise_stds, seed=s_samp)
    p1 = replace(cfg, n_bases=10, n_init=None, seed=s_fit1)
    f1, _ = fit_field(init_field(SPHERE, p1), samples, p1)
    np.testing.assert_array_equal(kept, domain_downsample(f1, 6))
    p2 = replace(p1, n_bases=6, seed=s_fit2)
    f2, r2 = fit_field(f1.take(kept), samples, p2)
    np.testing.assert_array_equal(field.centers, f2.centers)
    assert report.trace["total"][20:] == r2.trace["total"]


def test_compact_fit_keep_all_still_runs_second_phase():
    cfg = small_config(n_bases=5, n_init=5, steps=8, seed=23)
    field, kept, report = compact_fit(SPHERE, cfg)
    np.testing.assert_array_equal(kept, np.arange(5))
    assert len(report.trace["total"]) == 16


# ---------------------------------------------------------------------------
# refine


def plane_field():
    """Single-basis field whose decoder is the linear map f(x) = x_z."""
    dec = Decoder(d_z=1, widths=())
    dec.weights[0][2, 0] = 1.0  # input layout (dx, dy, dz, z0)
    return BasisField(centers=np.zeros((1, 3)), latents=np.zeros((1, 1)),
                      log_scales=np.zeros((1, 3)),
                      rot6s=np.array([[1.0, 0, 0, 0, 1, 0]]),
                      offsets=np.zeros((1, 3)), decoder=dec)


def test_refine_noop_when_objective_already_zero():
    f = plane_field()
    rng = np.random.default_rng(0)
    surf = rng.uniform(-0.4, 0.4, (64, 3))
    surf[:, 2] = 0.0  # on the plane: |sdf| = 0 <= eps
    pos = rng.uniform(-0.4, 0.4, (64, 3))
    pos[:, 2] = np.abs(pos[:, 2]) + 0.1  # sdf >= 0.1 >= eps
    cfg = FitConfig(n_bases=1, d_z=1, refine_steps=50, seed=1)
    refined, report = refine(f, PointCloud(surf), PointCloud(pos),
                             Anchor.from_field(f), cfg)
    assert max(np.max(np.abs(refined.centers - f.centers)),
               np.max(np.abs(refined.latents - f.latents))) <= 1e-6
    assert report.trace["total"][-1] == 0.0


def test_refine_counts_underflow_fallbacks():
    dec = Decoder(d_z=1, widths=())
    dec.weights[0][3, 0] = 1.0  # reads latent[0]
    f = BasisField(centers=np.array([[-0.3, 0, 0], [0.3, 0, 0]]),
                   latents=np.array([[1.0], [2.0]]),
                   log_scales=np.full((2, 3), 40.0),  # astronomically narrow
                   rot6s=np.tile([1, 0, 0, 0, 1, 0], (2, 1)),
                   offsets=np.zeros((2, 3)), decoder=dec)
    rng = np.random.default_rng(6)
    surf = PointCloud(rng.uniform(-0.4, 0.4, (16, 3)))
    pos = PointCloud(rng.uniform(-0.4, 0.4, (16, 3)))
    cfg = FitConfig(n_bases=2, d_z=1, refine_steps=3, seed=1, n_refine_adj=16)
    _, report = refine(f, surf, pos, Anchor.from_field(f), cfg)
    # every surface and positive point is far from both domains, every step
    assert report.diagnostics["underflow_fallbacks"] >= 3 * (16 + 16)


def test_refine_freezes_everything_but_centers_and_latents():
    rng = np.random.default_rng(3)
    from sdfblend.gradcheck import random_field
    f = random_field(rng, n_bases=3)
    surf = PointCloud(rng.uniform(-0.4, 0.4, (32, 3)))
    pos = PointCloud(rng.uniform(-0.4, 0.4, (32, 3)))
    cfg = FitConfig(n_bases=3, d_z=4, refine_steps=30, seed=2,
                    n_refine_adj=64)
    refined, _ = refine(f, surf, pos, Anchor.from_field(f), cfg)
    # frozen: bit-identical
    np.testing.assert_array_equal(refined.log_scales, f.log_scales)
    np.testing.assert_array_equal(refined.rot6s, f.rot6s)
    np.testing.assert_array_equal(refined.offsets, f.offsets)
    for w1, w2 in zip(refined.decoder.weights, f.decoder.weights):
        np.testing.assert_array_equal(w1, w2)
    for b1, b2 in zip(refined.decoder.biases, f.decoder.biases):
        np.testing.assert_array_equal(b1, b2)
    # trained: moved
    assert np.any(refined.centers != f.centers)
    assert np.any(refined.latents != f.latents)


def test_refine_requires_matching_anchor():
    rng = np.random.default_rng(4)
    from sdfblend.gradcheck import random_field
    from sdfblend.errors import FieldError
    f3 = random_field(rng, n_bases=3)
    f2 = random_field(rng, n_bases=2)
    cloud = PointCloud(rng.uniform(-0.3, 0.3, (8, 3)))
    with pytest.raises(FieldError):
        refine(f3, cloud, cloud, Anchor.from_field(f2),
               FitConfig(n_bases=3, d_z=4, refine_steps=1))
