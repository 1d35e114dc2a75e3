"""Fitting pipelines: initialization, optimization loop, compaction, refinement."""

import gc
import itertools
import weakref
from pathlib import Path

import numpy as np
import pytest

from sdfblend import autodiff
from sdfblend import fit as fit_mod
from sdfblend.autodiff import NonFiniteError, Tape
from sdfblend.field import BasisField, Decoder, domain_downsample
from sdfblend.fit import (
    FitConfig, _batch_indices, compact_fit, fit_field, init_field, refine,
    refine_from_scene,
)
from sdfblend.geom import (
    PointCloud, SceneSpec, Sphere, sample_training_set, spawn_seeds,
)
from sdfblend.objective import Anchor, LossWeights, loss_inte

SPHERE = SceneSpec(root=Sphere(radius=0.4))
BENCH_CHECKPOINT = Path(__file__).resolve().parents[1] / "bench" / "data" / "sphere_fit.json"

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
    for bad in (0, -3):
        with pytest.raises(ValueError, match="batch_size"):
            FitConfig(batch_size=bad)
    # refinement's settings are refine's arguments, checked there
    f, cloud = plane_field(), PointCloud(np.zeros((4, 3)))
    for bad in (0, -1):
        with pytest.raises(ValueError, match="steps must be >= 1"):
            refine(f, cloud, cloud, Anchor.from_field(f), steps=bad)
    with pytest.raises(ValueError, match="lr must be > 0, got 0.0"):
        refine(f, cloud, cloud, Anchor.from_field(f), lr=0.0)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        refine(f, cloud, cloud, Anchor.from_field(f), seed=-1)


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


def test_fit_field_rejects_a_config_that_is_not_a_fit_config():
    samples = sample_training_set(SPHERE, 9, 1, seed=2)
    with pytest.raises(ValueError, match="^config is a dict, expected a FitConfig$"):
        fit_field(plane_field(), samples, {"steps": 1})


def test_refine_rejects_weights_that_are_not_loss_weights():
    f, cloud = plane_field(), PointCloud(np.zeros((4, 3)))
    message = "^weights is a dict, expected a LossWeights$"
    with pytest.raises(ValueError, match=message):
        refine(f, cloud, cloud, Anchor.from_field(f), steps=1,
               weights={"face": 1.0})
    with pytest.raises(ValueError, match=message):
        refine_from_scene(f, SPHERE, steps=1, weights={"face": 1.0})


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

    (s_batch,) = spawn_seeds(cfg.seed, 1)
    batches = _batch_indices(len(samples), cfg.batch_size, s_batch)
    idx = next(itertools.islice(batches, check_at, None))
    from sdfblend.geom import SampleSet
    batch = SampleSet(samples.points[idx], samples.targets[idx],
                      samples.tags[idx])
    epoch = 0 if check_at < cfg.reg_boundary_frac * steps else 1
    recomputed = loss_inte(f_partial, batch, cfg.weights, epoch)
    assert report.trace["total"][check_at] == pytest.approx(recomputed, rel=1e-12)


def test_batch_stream_reshuffles_after_each_whole_pass():
    # 1000 samples in batches of 300: three batches per permutation, the
    # last 100 indices of each pass unused, as the stream has always done
    batches = _batch_indices(1000, 300, 7)
    rng = np.random.default_rng(7)
    for _ in range(4):
        order = rng.permutation(1000)
        for at in (0, 300, 600):
            np.testing.assert_array_equal(next(batches), order[at:at + 300])
    # a batch larger than the set is the whole set, reshuffled every step
    whole = _batch_indices(5, 300, 1)
    rng = np.random.default_rng(1)
    for _ in range(3):
        np.testing.assert_array_equal(next(whole), rng.permutation(5))


def overflowing_field():
    """A valid (finite) checkpoint whose decoder overflows to inf everywhere:
    every weight is 1e300 and every latent 1, so each first-layer ReLU input
    is positive near the unit box and the second layer overflows."""
    from sdfblend.gradcheck import random_field
    f = random_field(np.random.default_rng(9), n_bases=3)
    f.latents[:] = 1.0
    for w in f.decoder.weights:
        w[:] = 1e300
    return BasisField.from_json_dict(f.to_json_dict())


def test_fit_and_refine_stop_at_non_finite_loss():
    f = overflowing_field()
    cfg = small_config(n_bases=3, steps=5)
    samples = sample_training_set(SPHERE, 90, 10, cfg.noise_stds, seed=1)
    cloud = PointCloud(np.random.default_rng(2).uniform(-0.4, 0.4, (32, 3)))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError, match="non-finite loss at step 0$"):
            fit_field(f, samples, cfg)
        with pytest.raises(NonFiniteError, match="non-finite loss at step 0$"):
            refine(f, cloud, cloud, Anchor.from_field(f), steps=5)


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
    s_samp, s_fit1, s_fit2 = spawn_seeds(cfg.seed, 3)
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
    refined, report = refine(f, PointCloud(surf), PointCloud(pos),
                             Anchor.from_field(f), steps=50, seed=1)
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
    _, report = refine(f, surf, pos, Anchor.from_field(f), steps=3, seed=1)
    # every surface and positive point is far from both domains, every step
    assert report.diagnostics["underflow_fallbacks"] >= 3 * (16 + 16)


def test_refine_freezes_everything_but_centers_and_latents():
    rng = np.random.default_rng(3)
    from sdfblend.gradcheck import random_field
    f = random_field(rng, n_bases=3)
    surf = PointCloud(rng.uniform(-0.4, 0.4, (32, 3)))
    pos = PointCloud(rng.uniform(-0.4, 0.4, (32, 3)))
    refined, _ = refine(f, surf, pos, Anchor.from_field(f), steps=30, seed=2)
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


def test_refine_gradients_of_frozen_parameters_are_exactly_zero():
    from sdfblend.autodiff import Tape, backward
    from sdfblend.field import FieldProgram
    from sdfblend.gradcheck import random_field
    from sdfblend.objective import RefineInputs, loss_opt_t
    rng = np.random.default_rng(5)
    f = random_field(rng, n_bases=3)
    inputs = RefineInputs(*(PointCloud(rng.uniform(-0.4, 0.4, (32, 3)))
                            for _ in range(3)))
    anchor = Anchor.from_field(f)
    pv = f.to_params()
    grads = {}
    for trainable in ({"centers", "latents"}, None):  # refine, then all
        tape = Tape()
        prog = FieldProgram(tape, f, trainable)
        total, _ = loss_opt_t(prog, inputs, LossWeights(), anchor)
        grads[trainable is None] = backward(tape, total)
        if trainable is not None:
            # no node is formed for a frozen parameter, e.g. a decoder
            # weight, nor for an op that no trained leaf reaches
            assert {n.leaf_name for n in tape.nodes
                    if n.vjp is None} == trainable
            assert all(n.leaf_name is None and n.parents
                       for n in tape.nodes if n.vjp is not None)
    refine_grads, all_grads = grads[False], grads[True]
    assert refine_grads.keys() == {"centers", "latents"}
    flat = pv.flatten_grads(refine_grads)
    for name in pv.names():
        offset, _, size = pv.slot(name)
        part = flat[offset:offset + size]
        if name in refine_grads:
            assert np.any(part != 0.0)
            # the same terms in the same order as on the all-trainable tape
            np.testing.assert_array_equal(refine_grads[name].view(np.int64),
                                          all_grads[name].view(np.int64))
        else:
            assert np.all(part == 0.0)


def test_refine_requires_matching_anchor():
    rng = np.random.default_rng(4)
    from sdfblend.gradcheck import random_field
    from sdfblend.errors import FieldError
    f3 = random_field(rng, n_bases=3)
    f2 = random_field(rng, n_bases=2)
    cloud = PointCloud(rng.uniform(-0.3, 0.3, (8, 3)))
    with pytest.raises(FieldError):
        refine(f3, cloud, cloud, Anchor.from_field(f2), steps=1)


# ---------------------------------------------------------------------------
# subnormal arithmetic


@pytest.fixture
def subnormal_vjp_entries(monkeypatch):
    """A list whose one entry counts, while the test runs, the nonzero
    entries below the smallest normal float64 in every VJP output: each
    such entry sends the GEMMs it reaches onto a slow path."""
    count = [0]
    record = autodiff._record

    def counted(f):
        def vjp(g):
            out = f(g)
            mag = np.abs(out)
            count[0] += int(np.count_nonzero(
                (mag > 0.0) & (mag < np.finfo(np.float64).tiny)))
            return out
        return vjp

    monkeypatch.setattr(autodiff, "_record", lambda tape, out, grads, pre=None:
                        record(tape, out, [(v, counted(f)) for v, f in grads], pre))
    return count


def test_subnormal_guard_counts_the_decoder_vjp_outputs(subnormal_vjp_entries):
    """The decoder is one node whose backward pass returns the input
    gradient (frozen weights: computed on the live rows only) and the
    weight and bias gradients; the guard sees every one of them."""
    rng = np.random.default_rng(8)
    x0 = rng.normal(size=(512, 7))
    ws = [rng.normal(size=(7, 16)), rng.normal(size=(16, 1))]
    bs = [rng.normal(size=16), rng.normal(size=1)]
    g = np.zeros((512, 1))
    g[::9] = 1e-310  # a subnormal cotangent on some rows, zero on the rest
    for train_weights in (False, True):
        tape = Tape()
        const = tape.leaf if train_weights else (lambda v, name: tape.constant(v))
        out = autodiff.mlp(tape.leaf(x0, "x"),
                           [const(w, f"w{i}") for i, w in enumerate(ws)],
                           [const(b, f"b{i}") for i, b in enumerate(bs)])
        before = subnormal_vjp_entries[0]
        grads = tape.nodes[out.idx].vjp(g)
        assert len(grads) == (5 if train_weights else 1)
        tiny = np.finfo(np.float64).tiny
        expected = sum(int(np.count_nonzero((np.abs(a) > 0.0) & (np.abs(a) < tiny)))
                       for a in grads)
        assert expected > 0
        assert subnormal_vjp_entries[0] - before == expected


def test_refine_of_a_converged_fit_stays_out_of_subnormals(subnormal_vjp_entries):
    # the converged criterion-4 sphere, its latents perturbed as criterion 7
    # does: a third of its adjacency rows have weights below e^-600
    field = BasisField.load(BENCH_CHECKPOINT)
    field.latents += np.random.default_rng(123).normal(0.0, 0.05,
                                                       field.latents.shape)
    _, report = refine_from_scene(field, SPHERE, steps=3, seed=7,
                                  n_surface=64, n_positive=64)
    assert report.trace["adj"][-1] > 0.0
    assert subnormal_vjp_entries[0] == 0


def test_fits_stay_out_of_subnormals(subnormal_vjp_entries):
    cfg = small_config(n_bases=4, steps=5, seed=31)
    samples = sample_training_set(SPHERE, 900, 100, seed=6)
    fit_field(init_field(SPHERE, cfg), samples, cfg)
    compact_fit(SPHERE, small_config(n_bases=4, n_init=8, steps=3, seed=37))
    assert subnormal_vjp_entries[0] == 0


# ---------------------------------------------------------------------------
# the tape of a step


def _perturbed_bench_field():
    """The converged criterion-4 sphere, its latents perturbed as criterion 7
    does (the refine_sphere benchmark's input)."""
    field = BasisField.load(BENCH_CHECKPOINT)
    field.latents += np.random.default_rng(123).normal(0.0, 0.05,
                                                       field.latents.shape)
    return field


def test_a_step_tape_is_freed_by_reference_counting(monkeypatch):
    """No VJP closure of a fit or a refine step refers back to its tape, so
    the tape, with every activation its nodes hold, is freed when the step
    drops it, without the cycle collector (which counts objects, not
    bytes, so it would let many steps' activations pile up)."""
    refs = []

    class WatchedTape(Tape):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(fit_mod, "Tape", WatchedTape)
    cfg = small_config(n_bases=4, steps=1, seed=5)
    samples = sample_training_set(SPHERE, 900, 100, seed=6)
    start = init_field(SPHERE, cfg)
    gc.disable()
    try:
        fit_field(start, samples, cfg)
        refine_from_scene(_perturbed_bench_field(), SPHERE, steps=1, seed=5,
                          n_surface=64, n_positive=64)
        assert len(refs) == 2
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_step_tape_node_counts_are_pinned(monkeypatch):
    """The tape of a fit step at N = 8 (the fit_sphere shape) and of a
    refine step of the refine_sphere input. Each count is exact:

    * a fit step holds 21 nodes: the 13 trainable leaves (the five domain
      arrays, and a weight and a bias per layer of the 4-layer decoder),
      3 per-field values (the effective centers, ad.rotation_columns and
      the domain scales), the stacked pass's 4 per-point nodes
      (decoder_input, mlp, the sum of its output column and
      domain_quadratic) and loss_inte_t's one node;
    * a refine step holds 113: its leaves are centers and latents only,
      so its per-field values are constants but the effective centers,
      and each of its three blends is the stacked pass's four nodes, then
      the blend's tail and its loss term in generic ops.

    A refactor that expands a node back into generic ops fails here: the
    chains those nodes replaced took 30 nodes for the rotation and 43 for
    the blend's tail and the integrated loss (92 a fit step), and a refine
    step took 152 nodes before decoder_input and domain_quadratic."""
    counts = []
    backward = fit_mod.backward
    monkeypatch.setattr(fit_mod, "backward", lambda tape, out:
                        counts.append(len(tape.nodes)) or backward(tape, out))
    cfg = FitConfig(n_bases=8, d_z=16, decoder_widths=(48, 48, 48),
                    batch_size=256, steps=1, seed=1)
    samples = sample_training_set(SPHERE, 900, 100, seed=6)
    fit_field(init_field(SPHERE, cfg), samples, cfg)
    _, report = refine_from_scene(_perturbed_bench_field(), SPHERE, steps=1,
                                  seed=1, n_surface=256, n_positive=256)
    assert report.trace["adj"][-1] > 0.0  # the adjacency blend ran
    fit_nodes, refine_nodes = counts
    assert fit_nodes == 21
    assert refine_nodes == 113
