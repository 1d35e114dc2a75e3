"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS line (visible with `pytest -s`); a failed
assertion marks the criterion failed. The fitted-sphere benchmark and the
chair fits use the hyperparameters frozen by the calibration runs committed
under calibration/. Every test here carries the `acceptance` marker:
`pytest -m "not acceptance"` runs the quick unit and property suite alone.
"""

import json
import time

import numpy as np
import pytest

from sdfblend.autodiff import Tape
from sdfblend.cli import main
from sdfblend.field import BasisField, FieldProgram, domain_downsample, rotations_from_6d
from sdfblend.fit import FitConfig, compact_fit, fit_field, init_field, refine
from sdfblend.fixtures import chair_scene, sphere_scene
from sdfblend.geom import sample_training_set, surface_points, positive_points
from sdfblend.gradcheck import random_field, run_gradcheck
from sdfblend.metrics import EvalProtocol, chamfer_l2, evaluate, f_score, iou
from sdfblend.objective import Anchor, LossWeights
from sdfblend.surface import GridSpec, marching_cubes

pytestmark = pytest.mark.acceptance

# Hyperparameters frozen by calibration/results.json
SPHERE_BENCH = dict(n_bases=8, d_z=16, decoder_widths=(48, 48, 48),
                    steps=4000, batch_size=2048, lr=1e-3, seed=0,
                    n_near=18000, n_uniform=2000)
CHAIR_BENCH = dict(d_z=16, decoder_widths=(48, 48, 48), steps=800,
                   batch_size=2048, lr=1e-3, n_near=18000, n_uniform=2000)


def _report(criterion: str, detail: str) -> None:
    print(f"[acceptance] {criterion}: PASS ({detail})", flush=True)


@pytest.fixture(scope="session")
def sphere_benchmark():
    """Criterion-4 fit, reused by criterion 7."""
    scene = sphere_scene()
    cfg = FitConfig(**SPHERE_BENCH)
    samples = sample_training_set(scene, cfg.n_near, cfg.n_uniform, seed=1)
    t0 = time.perf_counter()
    fitted, report = fit_field(init_field(scene, cfg), samples, cfg)
    protocol = EvalProtocol(n_iou=100_000, n_surface=100_000,
                            grid=GridSpec(128), seed=2)
    metrics = evaluate(fitted, scene, protocol)
    elapsed = time.perf_counter() - t0
    return scene, fitted, report, metrics, elapsed


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    rep = run_gradcheck(seed=0, fixtures_per_loss=11)  # 110 fixtures total
    elapsed = time.perf_counter() - t0
    n_fixtures = 11 * len(rep.results)
    assert n_fixtures >= 100
    assert rep.max_rel_err <= 1e-5
    assert elapsed <= 60.0
    _report("criterion 1 gradient correctness",
            f"{n_fixtures} fixtures, max rel err {rep.max_rel_err:.2e}, "
            f"{elapsed:.1f}s")


def test_criterion_2_blending_invariants():
    rng = np.random.default_rng(7)
    # rotation orthogonality over 10^4 random parameterizations
    r6 = rng.normal(size=(10_000, 6))
    R = rotations_from_6d(r6)
    rtr = np.einsum("nji,njk->nik", R, R)
    assert np.max(np.abs(rtr - np.eye(3))) <= 1e-9
    dets = np.linalg.det(R)
    assert np.max(np.abs(dets - 1.0)) <= 1e-9

    # partition of unity + permutation invariance over >= 10^4 field/point cases
    n_cases = 0
    max_pou = 0.0
    max_perm = 0.0
    for trial in range(20):
        n = int(rng.integers(2, 9))
        f = random_field(rng, n_bases=n)
        pts = rng.uniform(-0.5, 0.5, (600, 3))
        blend = FieldProgram(Tape(), f, set()).blend(pts)
        s = blend.a_p.value + blend.a_q.value
        assert np.all(blend.a_p.value >= 0) and np.all(blend.a_q.value >= 0)
        max_pou = max(max_pou, float(np.max(np.abs(s - 1.0))))
        perm = rng.permutation(n)
        g = BasisField(f.centers[perm], f.latents[perm], f.log_scales[perm],
                       f.rot6s[perm], f.offsets[perm], f.decoder)
        max_perm = max(max_perm, float(np.max(np.abs(
            f.sdf_batch(pts) - g.sdf_batch(pts)))))
        n_cases += len(pts)
    assert n_cases >= 10_000
    assert max_pou <= 1e-12
    assert max_perm <= 1e-12
    _report("criterion 2 blending invariants",
            f"{n_cases} blend cases, pou err {max_pou:.1e}, "
            f"perm err {max_perm:.1e}, 10k rotations")


def _downsample_full_recompute(G: np.ndarray, n_keep: int) -> np.ndarray:
    """Re-derive every score from scratch after each removal."""
    n = G.shape[0]
    alive = np.ones(n, dtype=bool)
    while alive.sum() > n_keep:
        idx = np.flatnonzero(alive)
        scores = np.array([G[j, idx[idx != j]].sum() for j in idx])
        alive[idx[int(np.argmax(scores))]] = False
    return np.flatnonzero(alive)


def test_criterion_3_downsampling_oracle_equivalence():
    rng = np.random.default_rng(17)
    for trial in range(1000):
        n = int(rng.integers(2, 33))
        f = random_field(rng, n_bases=n, d_z=2, widths=(4,))
        n_keep = int(rng.integers(1, n + 1))
        kept = domain_downsample(f, n_keep)
        G = f.rbf_matrix(f.effective_centers)
        expected = _downsample_full_recompute(G, n_keep)
        np.testing.assert_array_equal(kept, expected,
                                      err_msg=f"trial {trial} n={n} keep={n_keep}")
    _report("criterion 3 downsampling oracle equivalence",
            "1000 random fields, identical kept sets")


def test_criterion_4_sphere_fit_benchmark(sphere_benchmark):
    _, _, report, metrics, elapsed = sphere_benchmark
    assert metrics.iou >= 0.97
    assert metrics.chamfer_l2 <= 1e-3
    assert metrics.f_score >= 0.95
    assert elapsed <= 300.0
    # smoothed loss trace never climbs by more than 5% between windows
    total = np.asarray(report.trace["total"])
    smoothed = np.convolve(total, np.ones(50) / 50, mode="valid")
    assert np.all(smoothed[1:] <= 1.05 * smoothed[:-1])
    _report("criterion 4 sphere fit benchmark",
            f"iou {metrics.iou:.3f}, cd {metrics.chamfer_l2:.2e}, "
            f"f1 {metrics.f_score:.3f}, {elapsed:.0f}s")


def test_criterion_5_compactness_trend():
    scene = chair_scene()
    ious = {}
    for n in (128, 96, 64, 32):
        cfg = FitConfig(n_bases=n, n_init=128, seed=11, **CHAIR_BENCH)
        field, _, _ = compact_fit(scene, cfg)
        ious[n] = iou(field, scene, n=200_000, seed=99)
    pairs = [(128, 96), (96, 64), (64, 32)]
    for big, small in pairs:
        assert ious[big] >= ious[small] - 0.02, ious
    assert ious[32] >= ious[128] - 0.05, ious
    _report("criterion 5 compactness trend",
            " ".join(f"iou[{n}]={v:.3f}" for n, v in ious.items()))


def test_criterion_6_weight_strategy_ablation():
    scene = chair_scene()
    frozen_names = tuple(["centers", "latents"]
                         + [f"dec_w{i}" for i in range(4)]
                         + [f"dec_b{i}" for i in range(4)])

    def run(frozen_soft):
        cfg = FitConfig(n_bases=64, seed=21,
                        trainable=frozen_names if frozen_soft else None,
                        **CHAIR_BENCH)
        samples = sample_training_set(scene, cfg.n_near, cfg.n_uniform, seed=31)
        f0 = init_field(scene, cfg)
        if frozen_soft:
            f0.log_scales[:] = np.log(500.0)  # fixed isotropic domains
            f0.offsets[:] = 0.0               # identity rotation is the init
        f1, _ = fit_field(f0, samples, cfg)
        return iou(f1, scene, n=200_000, seed=99)

    iou_learnable = run(False)
    iou_soft = run(True)
    assert iou_learnable >= iou_soft
    _report("criterion 6 weight strategy ablation",
            f"learnable {iou_learnable:.3f} >= frozen-soft {iou_soft:.3f}")


def test_criterion_7_post_optimization_efficacy(sphere_benchmark):
    scene, fitted, _, _, _ = sphere_benchmark
    rng = np.random.default_rng(123)
    perturbed = fitted.copy()
    perturbed.latents += rng.normal(0.0, 0.05, perturbed.latents.shape)

    probe = surface_points(scene, 10_000, seed=77).points
    before = float(np.mean(np.abs(perturbed.sdf_batch(probe))))

    weights = LossWeights(face=1.0, pos=10.0, adj=10.0, stable=0.1,
                          adj_sharp_surface=10000.0, adj_sharp_balance=1000.0)
    surf = surface_points(scene, 2048, seed=5)
    pos = positive_points(scene, 2048, margin=weights.hinge_eps, seed=6)
    refined, _ = refine(perturbed, surf, pos, Anchor.from_field(perturbed),
                        steps=1000, lr=1e-3, seed=9, weights=weights)

    after = float(np.mean(np.abs(refined.sdf_batch(probe))))
    assert after <= 0.5 * before
    # frozen parameters bit-identical
    np.testing.assert_array_equal(refined.log_scales, perturbed.log_scales)
    np.testing.assert_array_equal(refined.rot6s, perturbed.rot6s)
    np.testing.assert_array_equal(refined.offsets, perturbed.offsets)
    for a, b in zip(refined.decoder.weights, perturbed.decoder.weights):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(refined.decoder.biases, perturbed.decoder.biases):
        np.testing.assert_array_equal(a, b)
    _report("criterion 7 post-optimization efficacy",
            f"mean |sdf| {before:.4f} -> {after:.4f} "
            f"({100 * (1 - after / before):.0f}% reduction)")


def test_criterion_8_surfacing_and_metric_self_consistency():
    scene = sphere_scene()
    grid = GridSpec(64)
    mesh = marching_cubes(scene, grid)
    t = mesh.triangles
    edges = np.sort(np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]),
                    axis=1)
    uniq, counts = np.unique(edges, axis=0, return_counts=True)
    assert np.all(counts == 2)  # closed
    euler = len(mesh.vertices) - len(uniq) + len(t)
    assert euler == 2
    residual = float(np.max(np.abs(scene.sdf(mesh.vertices))))
    assert residual <= 1.5 * float(grid.cell_size.max())

    assert iou(scene, scene, n=200_000, seed=3) >= 0.999
    from sdfblend.geom import sample_mesh_surface
    cloud = sample_mesh_surface(mesh, 50_000, seed=4)
    assert chamfer_l2(cloud, cloud) == 0.0
    assert f_score(cloud, cloud, tau=0.01) == 1.0
    _report("criterion 8 surfacing correctness",
            f"euler 2, residual {residual:.2e}, self-metrics exact")


def test_criterion_9_cli_determinism(tmp_path):
    scene_path = tmp_path / "scene.json"
    sphere_scene().save(scene_path)
    artifacts = {}
    for run in ("a", "b"):
        d = tmp_path / run
        d.mkdir()
        cfg = {
            "version": 1,
            "scene": str(scene_path),
            "fit": {"n_bases": 4, "d_z": 4, "decoder_widths": [12, 12],
                    "steps": 60, "batch_size": 256, "seed": 5,
                    "n_near": 900, "n_uniform": 100},
            "out_checkpoint": str(d / "field.json"),
            "out_report": str(d / "report.json"),
        }
        cfg_path = d / "fit.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["fit", str(cfg_path)]) == 0
        assert main(["mesh", str(d / "field.json"), "--resolution", "32",
                     "--out", str(d / "mesh.obj")]) == 0
        assert main(["eval", str(d / "field.json"), str(scene_path),
                     "--n-iou", "20000", "--n-surface", "10000",
                     "--resolution", "32", "--seed", "2",
                     "--out", str(d / "metrics.json")]) == 0
        artifacts[run] = {name: (d / name).read_bytes()
                          for name in ("field.json", "report.json",
                                       "mesh.obj", "metrics.json")}
    for name in artifacts["a"]:
        assert artifacts["a"][name] == artifacts["b"][name], name
    _report("criterion 9 determinism",
            "fit/mesh/eval artifacts byte-identical across runs")
