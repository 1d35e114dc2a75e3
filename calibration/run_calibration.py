#!/usr/bin/env python3
"""Calibration runs that fixed the acceptance-suite hyperparameters and
confirmed its thresholds are attainable with margin.

Regenerates calibration/results.json (takes roughly 15 minutes on one CPU).
The acceptance tests in tests/test_acceptance.py re-verify every number;
this script exists so the committed thresholds are traceable to a run.
"""

import json
import time
from pathlib import Path

import numpy as np

from sdfblend.fit import FitConfig, compact_fit, fit_field, init_field, refine
from sdfblend.fixtures import chair_scene, sphere_scene
from sdfblend.geom import positive_points, sample_training_set, surface_points
from sdfblend.metrics import EvalProtocol, evaluate, iou
from sdfblend.objective import Anchor, LossWeights
from sdfblend.surface import GridSpec

OUT = Path(__file__).parent / "results.json"

SPHERE_BENCH = dict(n_bases=8, d_z=16, decoder_widths=(48, 48, 48),
                    steps=4000, batch_size=2048, lr=1e-3, seed=0,
                    n_near=18000, n_uniform=2000)
CHAIR_BENCH = dict(d_z=16, decoder_widths=(48, 48, 48), steps=800,
                   batch_size=2048, lr=1e-3, n_near=18000, n_uniform=2000)


def sphere_benchmark():
    scene = sphere_scene()
    cfg = FitConfig(**SPHERE_BENCH)
    samples = sample_training_set(scene, cfg.n_near, cfg.n_uniform, seed=1)
    t0 = time.perf_counter()
    fitted, _ = fit_field(init_field(scene, cfg), samples, cfg)
    fit_s = time.perf_counter() - t0
    protocol = EvalProtocol(n_iou=100_000, n_surface=100_000,
                            grid=GridSpec(128), seed=2)
    t0 = time.perf_counter()
    m = evaluate(fitted, scene, protocol)
    return fitted, {
        "config": cfg.to_json_dict(),
        "fit_seconds": round(fit_s, 1),
        "eval_seconds": round(time.perf_counter() - t0, 1),
        "iou": m.iou, "chamfer_l2": m.chamfer_l2, "f_score": m.f_score,
        "thresholds": {"iou": 0.97, "chamfer_l2": 1e-3, "f_score": 0.95,
                       "runtime_seconds": 300},
    }


def compactness_trend():
    scene = chair_scene()
    ious = {}
    for n in (128, 96, 64, 32):
        cfg = FitConfig(n_bases=n, n_init=128, seed=11, **CHAIR_BENCH)
        field, _, _ = compact_fit(scene, cfg)
        ious[str(n)] = iou(field, scene, n=200_000, seed=99)
    return {"config": CHAIR_BENCH | {"n_init": 128, "seed": 11},
            "iou_by_n": ious,
            "thresholds": {"pairwise_band": 0.02, "overall_drop": 0.05}}


def weight_strategy_ablation():
    scene = chair_scene()
    frozen_names = tuple(["centers", "latents"]
                         + [f"dec_w{i}" for i in range(4)]
                         + [f"dec_b{i}" for i in range(4)])

    def run(frozen_soft):
        cfg = FitConfig(n_bases=64, seed=21,
                        trainable=frozen_names if frozen_soft else None,
                        **CHAIR_BENCH)
        samples = sample_training_set(scene, cfg.n_near, cfg.n_uniform,
                                      seed=31)
        f0 = init_field(scene, cfg)
        if frozen_soft:
            f0.log_scales[:] = np.log(500.0)
            f0.offsets[:] = 0.0
        f1, _ = fit_field(f0, samples, cfg)
        return iou(f1, scene, n=200_000, seed=99)

    learnable = run(False)
    soft = run(True)
    return {"iou_learnable": learnable, "iou_frozen_soft": soft,
            "margin": learnable - soft, "threshold": {"margin": 0.0}}


def refinement_efficacy(fitted):
    scene = sphere_scene()
    rng = np.random.default_rng(123)
    perturbed = fitted.copy()
    perturbed.latents += rng.normal(0.0, 0.05, perturbed.latents.shape)
    probe = surface_points(scene, 10_000, seed=77).points
    before = float(np.mean(np.abs(perturbed.sdf_batch(probe))))
    weights = LossWeights()
    surf = surface_points(scene, 2048, seed=5)
    pos = positive_points(scene, 2048, margin=weights.hinge_eps, seed=6)
    t0 = time.perf_counter()
    refined, _ = refine(perturbed, surf, pos, Anchor.from_field(perturbed),
                        steps=1000, lr=1e-3, seed=9, weights=weights)
    after = float(np.mean(np.abs(refined.sdf_batch(probe))))
    return {"mean_abs_sdf_perturbed": before, "mean_abs_sdf_refined": after,
            "reduction": 1.0 - after / before,
            "refine_seconds": round(time.perf_counter() - t0, 1),
            "threshold": {"reduction": 0.5}}


def main():
    results = {}
    fitted, results["sphere_benchmark"] = sphere_benchmark()
    results["compactness_trend"] = compactness_trend()
    results["weight_strategy_ablation"] = weight_strategy_ablation()
    results["refinement_efficacy"] = refinement_efficacy(fitted)
    OUT.write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results, indent=2))


if __name__ == "__main__":
    main()
