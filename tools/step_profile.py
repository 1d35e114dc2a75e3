"""Per-phase times of a fit step and a refine step of one checkout, as JSON.

    python3 tools/step_profile.py [TREE]

TREE is a checkout of this repository (default: the one holding this
file); its `src/` is the program timed. It runs, in this process:

* fit steps at the `fit_sphere` shape (the sphere, N = 8) and at the
  chair shape of `compact_chair`'s first phase (N = 128), each on batches
  of 2048 points of a training set of the benchmark's size (18,000 near
  and 2,000 uniform points);
* refine steps of the `refine_sphere` input: the benchmark checkpoint with
  its latents perturbed as the benchmark perturbs them, and 2048 surface
  and 2048 free-space points.

Each step does what `fit._optimize` does: build the FieldProgram, the loss
forward, backward, Adam. The tool wraps `BasisField.select_top2_nearest`
and `autodiff.mlp` (the decoder node, whose VJP it wraps too) from outside
and changes nothing in the program; while the decoder's VJP runs it also
wraps `numpy.take`, which there gathers the ReLU masks of the live rows
(frozen decoder only). For every phase it prints the median over STEPS
steps, after WARMUP steps, in ms: `program`, `forward`, `backward`,
`adam` and `step`, with `select` (inside forward),
`decoder_forward`/`decoder_backward` (inside forward and backward) and
`decoder_gathers` (inside the decoder's backward), and the tape nodes of a
step. Then MEMORY_STEPS more steps run under tracemalloc, which slows
them, so they are not timed: `held_after_forward_mb` is the memory that
the step's allocations still hold once the loss forward has returned (the
tape, its VJP closures included), and `step_peak_mb` the most that they
held at once during the step; each is the median over those steps, in MB
of 10^6 bytes.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

WARMUP = 5
STEPS = 60
MEMORY_STEPS = 3
BATCH = 2048


def _load(tree: Path):
    """The sdfblend modules of `tree`."""
    sys.path.insert(0, str(tree / "src"))
    from sdfblend import autodiff, field, fit, fixtures, geom, objective
    if not Path(field.__file__).resolve().is_relative_to(tree.resolve()):
        raise SystemExit(f"sdfblend imported from {field.__file__}, not {tree}")
    return autodiff, field, fit, fixtures, geom, objective


class Timer:
    """Wall time of the wrapped calls, summed per step."""

    def __init__(self):
        self.spent = 0.0

    def wrap(self, fn):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spent += time.perf_counter() - t0
        return timed

    def take(self) -> float:
        spent, self.spent = self.spent, 0.0
        return spent


def profile(mods, field_obj, trainable, step_loss) -> dict:
    """Median phase times (ms) and tape nodes of STEPS steps of Adam on
    `field_obj`, as fit._optimize runs them, then the median traced memory
    (MB) of MEMORY_STEPS more steps."""
    ad, fmod = mods[0], mods[1]
    select, dec_fwd, dec_bwd, gathers = Timer(), Timer(), Timer(), Timer()
    orig_select, orig_mlp, orig_take = (fmod.BasisField.select_top2_nearest,
                                        ad.mlp, np.take)

    def mlp(x, *args, **kwargs):
        out = dec_fwd.wrap(orig_mlp)(x, *args, **kwargs)
        if out.idx is not None:
            node = x.tape.nodes[out.idx]
            node.vjp = dec_bwd.wrap(gathering(node.vjp))
        return out

    def gathering(vjp):
        def run(g):
            np.take = gathers.wrap(orig_take)
            try:
                return vjp(g)
            finally:
                np.take = orig_take
        return run

    fmod.BasisField.select_top2_nearest = select.wrap(orig_select)
    ad.mlp = mlp
    try:
        pv = field_obj.to_params()
        state = ad.AdamState.init(len(pv), lr=1e-3)
        rows: dict[str, list[float]] = {}
        for step in range(WARMUP + STEPS + MEMORY_STEPS):
            traced = step >= WARMUP + STEPS
            if traced:
                tracemalloc.start()
            t0 = time.perf_counter()
            tape = ad.Tape()
            prog = fmod.FieldProgram(tape, field_obj.with_params(pv), trainable)
            t1 = time.perf_counter()
            total, _ = step_loss(prog, step)
            t2 = time.perf_counter()
            held = tracemalloc.get_traced_memory()[0]
            grads = pv.flatten_grads(ad.backward(tape, total))
            t3 = time.perf_counter()
            pv.data, state = ad.adam_step(pv.data, grads, state)
            t4 = time.perf_counter()
            times = {"program": t1 - t0, "forward": t2 - t1,
                     "backward": t3 - t2, "adam": t4 - t3, "step": t4 - t0,
                     "select": select.take(), "decoder_forward": dec_fwd.take(),
                     "decoder_backward": dec_bwd.take(),
                     "decoder_gathers": gathers.take()}
            if traced:
                rows.setdefault("held_after_forward_mb", []).append(held / 1e6)
                rows.setdefault("step_peak_mb", []).append(
                    tracemalloc.get_traced_memory()[1] / 1e6)
                tracemalloc.stop()
            elif step >= WARMUP:
                for k, v in times.items():
                    rows.setdefault(k, []).append(1e3 * v)
                rows.setdefault("tape_nodes", []).append(len(tape.nodes))
            del tape, prog, total, grads
    finally:
        fmod.BasisField.select_top2_nearest = orig_select
        ad.mlp = orig_mlp
        tracemalloc.stop()
    return {k: round(statistics.median(v), 3) for k, v in rows.items()}


def fit_case(mods, scene, n_bases: int, seed: int) -> dict:
    """Fit steps of the integrated objective at the benchmark's fit shape."""
    _, _, fit, _, geom, objective = mods
    config = fit.FitConfig(n_bases=n_bases, d_z=16, decoder_widths=(48, 48, 48),
                           batch_size=BATCH, seed=seed)
    samples = geom.sample_training_set(scene, 18000, 2000, config.noise_stds,
                                       seed=seed)
    rng = np.random.default_rng(seed)

    def step_loss(prog, step):
        idx = rng.choice(len(samples), BATCH, replace=False)
        return objective.loss_inte_t(prog, samples.points[idx],
                                     samples.targets[idx], config.weights, 0)

    return profile(mods, fit.init_field(scene, config), None, step_loss)


def refine_case(mods, tree: Path, seed: int) -> dict:
    """Refine steps of the benchmark's perturbed checkpoint."""
    _, fmod, fit, fixtures, geom, objective = mods
    field_obj = fmod.BasisField.load(tree / "bench" / "data" / "sphere_fit.json")
    field_obj.latents += np.random.default_rng(123).normal(
        0.0, 0.05, field_obj.latents.shape)
    scene, weights = fixtures.sphere_scene(), objective.LossWeights()
    inputs = objective.RefineInputs(
        surface=geom.surface_points(scene, 2048, seed),
        positive=geom.positive_points(scene, 2048, margin=weights.hinge_eps,
                                      seed=seed + 1),
        adjacency=fit.adjacency_points(field_obj, 4096, 0.05, seed + 2))
    anchor = objective.Anchor.from_field(field_obj)
    return profile(mods, field_obj, {"centers", "latents"},
                   lambda prog, step: objective.loss_opt_t(
                       prog, inputs, weights, anchor))


def main(argv: list[str]) -> None:
    tree = Path(argv[0] if argv else Path(__file__).resolve().parent.parent)
    mods = _load(tree)
    fixtures = mods[3]
    doc = {
        "tree": str(tree),
        "environment": {"python": platform.python_version(),
                        "numpy": np.__version__, "cpus": os.cpu_count(),
                        "loadavg_before": os.getloadavg()[0]},
        "steps": STEPS, "batch": BATCH,
        "fit_sphere_n8": fit_case(mods, fixtures.sphere_scene(), 8, 1),
        "fit_chair_n128": fit_case(mods, fixtures.chair_scene(), 128, 1),
        "refine_sphere": refine_case(mods, tree, 1),
    }
    doc["environment"]["loadavg_after"] = os.getloadavg()[0]
    print(json.dumps(doc, indent=1))


if __name__ == "__main__":
    main(sys.argv[1:])
