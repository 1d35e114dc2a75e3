"""sdfblend benchmark: runs CLI workloads through `sdfblend.cli.main`,
checks their outputs, and prints the metrics as one JSON line.

    python3 bench/run.py --workload fit_sphere --seed 1 --seconds 15 --trace 0

Run from the repository root. `--trace 0` prints the end-to-end metrics,
`--trace 1` the per-layer metrics of a traced run (see bench/README.md).
The line before the last one holds the environment block and the
per-workload detail (steps/s, mesh and eval seconds, eval scores, error
rate). `--tiny` shrinks every workload for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHECKPOINT = BENCH_DIR / "data" / "sphere_fit.json"
CHECKSUM = BENCH_DIR / "data" / "sphere_fit.sha256"
WORK_ROOT = ROOT / ".bench_work"
SETUP_PROBES = 5
MIN_PASSES = 2

WORKLOAD_NAMES = ("fit_sphere", "compact_chair", "refine_sphere",
                  "mesh_eval_sphere")

# name -> unit; BENCHMARK.json lists the same names and units
END_TO_END = {
    "setup_s": "s",
    "command_s": "s",
    "peak_rss_mb": "MB",
    "quality_loss": "1",
}
PER_LAYER = {
    "field.select_ms": "ms",
    "field.top2_nearest_hit_ratio": "ratio",
    "field.fallback_points": "count",
    "fit.report_underflow_fallbacks": "count",
    "field.decode_rows_per_step": "count",
    "objective.forward_ms": "ms",
    "autodiff.backward_ms": "ms",
    "autodiff.adam_ms": "ms",
    "autodiff.tape_nodes_per_step": "count",
    "autodiff.tape_mb_per_step": "MB",
    "fit.step_ms_p50": "ms",
    "fit.step_ms_p99": "ms",
    "field.sdf_batch_s": "s",
    "field.sdf_points": "count",
    "surface.grid_corners": "count",
    "surface.extract_s": "s",
    "metrics.iou_s": "s",
    "metrics.kdtree_s": "s",
    "metrics.kdtree_builds": "count",
    "geom.sample_mesh_surface_s": "s",
    "formats.write_obj_s": "s",
    "geom.sample_training_set_s": "s",
    "field.downsample_s": "s",
    "field.checkpoint_load_s": "s",
    "field.checkpoint_save_s": "s",
    "trace.overhead_s": "s",
}

# criterion-4 sphere fit and criterion-5 chair compaction hyperparameters;
# only the step counts are cut to fit a run (see bench/README.md)
SPHERE_FIT = {"n_bases": 8, "d_z": 16, "decoder_widths": [48, 48, 48],
              "batch_size": 2048, "lr": 0.001, "n_near": 18000,
              "n_uniform": 2000}
CHAIR_COMPACT = {"n_init": 128, "n_bases": 32, "d_z": 16,
                 "decoder_widths": [48, 48, 48], "batch_size": 2048,
                 "lr": 0.001, "n_near": 18000, "n_uniform": 2000}
TINY_FIT = {"batch_size": 256, "n_near": 900, "n_uniform": 100}
CRITERION_4 = {"iou": 0.97, "chamfer_l2": 1e-3, "f_score": 0.95}
PERTURB_SEED = 123  # latent perturbation of criterion 7
QUALITY_WINDOW = 10


class BenchError(Exception):
    """The benchmark cannot run here: the program or an input is missing."""


# ---------------------------------------------------------------------------
# Inputs


def _import_sdfblend():
    if not (SRC / "sdfblend" / "__init__.py").is_file():
        raise BenchError(f"no sdfblend sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sdfblend
    if not Path(sdfblend.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"sdfblend imported from {sdfblend.__file__}, "
                         f"not from {SRC}")
    return sdfblend


def _fixed_checkpoint() -> Path:
    """The committed converged sphere fit, refused on a hash mismatch."""
    if not CHECKPOINT.is_file() or not CHECKSUM.is_file():
        raise BenchError(f"missing {CHECKPOINT} or {CHECKSUM}")
    digest = _sha256(CHECKPOINT)
    expected = CHECKSUM.read_text().split()[0]
    if digest != expected:
        raise BenchError(f"{CHECKPOINT.name} sha256 {digest} != {expected}; "
                         "regenerate with bench/make_checkpoint.py")
    return CHECKPOINT


@dataclass
class Command:
    """One CLI call of a pass and the files it must reproduce exactly."""

    name: str
    argv: list[str]
    outputs: list[Path]
    kind: str            # "checkpoint", "mesh" or "eval": selects the check
    n_bases: int = 0     # expected bases of a written checkpoint


@dataclass
class Plan:
    commands: list[Command]
    steps: int           # optimiser steps per pass; 0 for inference


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc))


def write_inputs(workload: str, work: Path, seed: int, tiny: bool) -> Plan:
    """Write the workload's input files into `work`; return its commands."""
    from sdfblend.field import BasisField
    from sdfblend.fixtures import chair_scene, sphere_scene

    out = work / "out"
    out.mkdir(parents=True, exist_ok=True)
    scene = work / "scene.json"

    if workload in ("fit_sphere", "compact_chair"):
        if workload == "fit_sphere":
            sphere_scene().save(scene)
            fit = {**SPHERE_FIT, "steps": 4 if tiny else 100}
            steps = fit["steps"]
        else:
            chair_scene().save(scene)
            fit = {**CHAIR_COMPACT, "steps": 3 if tiny else 80}
            if tiny:
                fit.update(n_init=16, n_bases=8)
            steps = 2 * fit["steps"]  # phase 1 + refit after downsampling
        if tiny:
            fit.update(TINY_FIT)
        fit["seed"] = seed
        config = work / "fit.json"
        _write_json(config, {"version": 1, "scene": str(scene), "fit": fit,
                             "out_checkpoint": str(out / "field.json"),
                             "out_report": str(out / "report.json")})
        cmd = Command("fit", ["fit", str(config)],
                      [out / "field.json", out / "report.json"], "checkpoint",
                      fit["n_bases"])
        return Plan([cmd], steps)

    checkpoint = _fixed_checkpoint()
    sphere_scene().save(scene)
    if workload == "refine_sphere":
        import numpy as np
        field = BasisField.load(checkpoint)
        # criterion 7 perturbs with a fixed seed; --seed drives the refine
        # points, so final losses of different seeds stay comparable
        rng = np.random.default_rng(PERTURB_SEED)
        field.latents += rng.normal(0.0, 0.05, field.latents.shape)
        perturbed = work / "perturbed.json"
        field.save(perturbed)
        steps = 3 if tiny else 20
        n_pts = "128" if tiny else "2048"
        cmd = Command("refine", [
            "refine", str(perturbed), str(scene), "--out",
            str(out / "refined.json"), "--report", str(out / "report.json"),
            "--steps", str(steps), "--seed", str(seed),
            "--n-surface", n_pts, "--n-positive", n_pts,
        ], [out / "refined.json", out / "report.json"], "checkpoint",
            field.n_bases)
        return Plan([cmd], steps)

    if workload == "mesh_eval_sphere":
        res = "32" if tiny else "128"
        n_eval = ["--n-iou", "5000", "--n-surface", "50000"] if tiny else []
        mesh = Command("mesh", ["mesh", str(checkpoint), "--resolution", res,
                                "--out", str(out / "sphere.obj")],
                       [out / "sphere.obj"], "mesh")
        evaluate = Command("eval", ["eval", str(checkpoint), str(scene),
                                    "--resolution", res, "--seed", str(seed),
                                    "--out", str(out / "metrics.json"),
                                    *n_eval],
                           [out / "metrics.json"], "eval")
        return Plan([mesh, evaluate], 0)

    raise BenchError(f"unknown workload {workload!r}")


def setup_probe(workload: str, work: Path, seed: int, tiny: bool) -> float:
    """Import sdfblend and write the inputs in this (fresh) process."""
    t0 = time.perf_counter()
    _import_sdfblend()
    write_inputs(workload, work, seed, tiny)
    return time.perf_counter() - t0


def measure_setup(workload: str, work: Path, seed: int, tiny: bool,
                  probes: int) -> list[float]:
    """Set-up time of `probes` fresh processes, run one after another."""
    times = []
    for i in range(probes):
        probe_dir = work / f"setup{i}"
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--setup-probe", str(probe_dir), "--workload", workload,
                "--seed", str(seed)] + (["--tiny"] if tiny else [])
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
        shutil.rmtree(probe_dir, ignore_errors=True)
    return times


# ---------------------------------------------------------------------------
# Output checks


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_closed_sphere_obj(path: Path) -> str | None:
    """A closed triangle mesh with Euler characteristic 2, or a problem."""
    import numpy as np
    n_verts, faces = 0, []
    with open(path) as f:
        for line in f:
            if line.startswith("v "):
                n_verts += 1
            elif line.startswith("f "):
                faces.append([int(tok) - 1 for tok in line.split()[1:4]])
    if not faces:
        return "empty mesh"
    tris = np.asarray(faces)
    if tris.min() < 0 or tris.max() >= n_verts:
        return "face index out of range"
    edges = np.sort(np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]],
                                    tris[:, [2, 0]]]), axis=1)
    uniq, counts = np.unique(edges, axis=0, return_counts=True)
    if not np.all(counts == 2):
        return "mesh is not closed"
    euler = n_verts - len(uniq) + len(tris)
    if euler != 2:
        return f"Euler characteristic {euler} != 2"
    return None


def check_command(cmd: Command) -> tuple[list[str], dict]:
    """Problems with a command's outputs, plus values read from them."""
    from sdfblend.field import BasisField
    from sdfblend.errors import SdfBlendError

    problems, values = [], {}
    if cmd.kind == "checkpoint":
        checkpoint, report = cmd.outputs
        try:
            field = BasisField.load(checkpoint)
        except (SdfBlendError, ValueError, KeyError) as e:
            return [f"checkpoint does not reload: {e}"], values
        if field.n_bases != cmd.n_bases:
            problems.append(f"{field.n_bases} bases, expected {cmd.n_bases}")
        doc = json.loads(report.read_text())
        values["final_loss"] = doc["trace"]["total"][-1]
        # the last QUALITY_WINDOW losses, so one minibatch does not decide it
        values["quality_loss"] = statistics.fmean(
            doc["trace"]["total"][-QUALITY_WINDOW:])
        values["underflow_fallbacks"] = doc["diagnostics"]["underflow_fallbacks"]
        if not math.isfinite(values["final_loss"]):
            problems.append(f"final loss {values['final_loss']} not finite")
    elif cmd.kind == "mesh":
        problem = check_closed_sphere_obj(cmd.outputs[0])
        if problem:
            problems.append(problem)
    elif cmd.kind == "eval":
        doc = json.loads(cmd.outputs[0].read_text())
        values.update({k: doc[k] for k in CRITERION_4})
        if not (doc["iou"] >= CRITERION_4["iou"]
                and doc["chamfer_l2"] <= CRITERION_4["chamfer_l2"]
                and doc["f_score"] >= CRITERION_4["f_score"]):
            problems.append(f"eval below criterion 4: {doc}")
    return problems, values


# ---------------------------------------------------------------------------
# Running


@dataclass
class PassResult:
    traced: bool
    walls: dict[str, float] = field(default_factory=dict)
    values: dict = field(default_factory=dict)
    digests: dict[str, dict[str, str]] = field(default_factory=dict)
    failed: dict[str, list[str]] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(self.walls.values())


def run_pass(plan: Plan, tracer, traced: bool, label: str) -> PassResult:
    from sdfblend.cli import main as cli_main

    result = PassResult(traced)
    for cmd in plan.commands:
        for path in cmd.outputs:
            path.unlink(missing_ok=True)
        tracer.run = f"{label}/{cmd.name}"
        tracer.active = traced
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(cmd.argv)
        except Exception:  # a crash is a failed command, not a failed run
            traceback.print_exc()
            code = None
        result.walls[cmd.name] = time.perf_counter() - t0
        tracer.active = False
        missing = [p.name for p in cmd.outputs if not p.is_file()]
        if code != 0 or missing:
            result.failed[cmd.name] = [f"exit code {code}, missing {missing}"]
            continue
        try:
            problems, values = check_command(cmd)
        except (OSError, ValueError, KeyError, IndexError) as e:
            problems, values = [f"unreadable output: {e!r}"], {}
        result.values.update(values)
        result.digests[cmd.name] = {p.name: _sha256(p) for p in cmd.outputs}
        if problems:
            result.failed[cmd.name] = problems
    return result


def _median(xs):
    return statistics.median(xs) if xs else None


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f
                    if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "SDFBLEND_THREADS_set": "SDFBLEND_THREADS" in os.environ,
        "thread_env": {k: v for k, v in os.environ.items()
                       if k.endswith("_NUM_THREADS")},
    }


def layer_metrics(tracer, traced: list[PassResult],
                  untraced: list[PassResult]) -> dict[str, float]:
    import numpy as np

    incl, own = tracer.totals()
    c = tracer.counters
    steps = c["steps"]
    n = len(traced)

    def per_step(x: float, scale: float = 1e3) -> float:
        return x * scale / steps if steps else 0.0

    def per_pass(x: float) -> float:
        return x / n

    step_ms = [t * 1e3 for t in tracer.step_times(
        {"fit.fit_field", "fit.refine"}, "autodiff.adam_step")]
    p50, p99 = np.percentile(step_ms, [50, 99]) if step_ms else (0.0, 0.0)
    points = c["select_points"]
    return {
        "field.select_ms": per_step(incl["field.select_top2_nearest"]),
        "field.top2_nearest_hit_ratio":
            c["select_nearest_hits"] / points if points else 0.0,
        "field.fallback_points": per_pass(c["fallback_points"]),
        "fit.report_underflow_fallbacks":
            traced[0].values.get("underflow_fallbacks", 0),
        "field.decode_rows_per_step": per_step(c["decode_rows"], 1.0),
        "objective.forward_ms": per_step(own["objective.loss_inte_t"]
                                         + own["objective.loss_opt_t"]),
        "autodiff.backward_ms": per_step(incl["autodiff.backward"]),
        "autodiff.adam_ms": per_step(incl["autodiff.adam_step"]),
        "autodiff.tape_nodes_per_step": per_step(c["tape_nodes"], 1.0),
        "autodiff.tape_mb_per_step": per_step(c["tape_bytes"], 1e-6),
        "fit.step_ms_p50": float(p50),
        "fit.step_ms_p99": float(p99),
        "field.sdf_batch_s": per_pass(incl["field.sdf_batch"]),
        "field.sdf_points": per_pass(c["sdf_points"]),
        "surface.grid_corners": per_pass(c["grid_corners"]),
        "surface.extract_s": per_pass(own["surface.marching_cubes"]),
        "metrics.iou_s": per_pass(own["metrics.iou"]),
        "metrics.kdtree_s": per_pass(incl["metrics.chamfer_l2"]
                                     + incl["metrics.f_score"]),
        "metrics.kdtree_builds": per_pass(c["kdtree_builds"]),
        "geom.sample_mesh_surface_s":
            per_pass(incl["geom.sample_mesh_surface"]),
        "formats.write_obj_s": per_pass(incl["formats.write_obj"]),
        "geom.sample_training_set_s":
            per_pass(incl["geom.sample_training_set"]),
        "field.downsample_s": per_pass(incl["field.domain_downsample"]),
        "field.checkpoint_load_s": per_pass(incl["field.checkpoint_load"]),
        "field.checkpoint_save_s": per_pass(incl["field.checkpoint_save"]),
        "trace.overhead_s": _median([p.wall for p in traced])
                            - _median([p.wall for p in untraced[1:] or untraced]),
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False, probes: int = SETUP_PROBES,
        targets=None, spans_out: Path | None = None) -> dict:
    """One benchmark run; returns the result and detail documents."""
    if workload not in WORKLOAD_NAMES:
        raise BenchError(f"unknown workload {workload!r}")
    _import_sdfblend()
    import tracer as tracing

    load_before = _loadavg()
    work = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_times = measure_setup(workload, work, seed, tiny, probes)
        plan = write_inputs(workload, work / "run", seed, tiny)
        passes: list[PassResult] = []
        with tracing.Tracer() as tracer:
            if trace:
                tracer.install(tracing.TARGETS if targets is None else targets)
            t_start = time.perf_counter()
            while (len(passes) < MIN_PASSES
                   or time.perf_counter() - t_start < seconds):
                # a traced run alternates untraced and traced passes, so
                # the tracing overhead compares warm passes with warm ones
                traced = trace and len(passes) % 2 == 1
                passes.append(run_pass(plan, tracer, traced,
                                       f"{workload}/pass{len(passes)}"))
        if trace and spans_out is not None:
            spans_out.parent.mkdir(parents=True, exist_ok=True)
            tracer.dump(spans_out)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # identical inputs and code must give byte-identical outputs
    reference = passes[0].digests
    for i, p in enumerate(passes[1:], 1):
        for name, digests in p.digests.items():
            if digests != reference.get(name, digests):
                p.failed.setdefault(name, []).append(
                    f"outputs differ from pass 0 in pass {i}")
    attempted = len(plan.commands) * len(passes)
    failures = [f"pass {i} {name}: {msg}" for i, p in enumerate(passes)
                for name, msgs in p.failed.items() for msg in msgs]
    failed_commands = sum(len(p.failed) for p in passes)

    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    values = passes[0].values
    quality = values.get("chamfer_l2" if workload == "mesh_eval_sphere"
                         else "quality_loss")
    if trace:
        metrics = layer_metrics(tracer, traced, untraced)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": _median(setup_times),
            "command_s": _median([p.wall for p in passes]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "quality_loss": quality,
        }
        units = END_TO_END
    detail = {
        "workload": workload, "seed": seed, "trace": trace, "tiny": tiny,
        "passes": len(passes),
        "pass_walls_s": [p.wall for p in passes],
        "setup_probes_s": setup_times,
        "steps_per_pass": plan.steps,
        "steps_per_s": (_median([plan.steps / p.wall for p in untraced])
                        if plan.steps else None),
        "mesh_s": _median([p.walls["mesh"] for p in untraced
                           if "mesh" in p.walls]),
        "eval_s": _median([p.walls["eval"] for p in untraced
                           if "eval" in p.walls]),
        **{k: values.get(k) for k in ("final_loss", "underflow_fallbacks",
                                      *CRITERION_4)},
        "error_rate": failed_commands / attempted,
        "failures": failures,
        "missing_trace_targets": tracer.missing,
        "environment": environment(),
        "loadavg_before": load_before,
        "loadavg_after": _loadavg(),
    }
    result = {
        "correct": failed_commands == 0,
        "attempted": attempted,
        "failed": failed_commands,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return {"result": result, "detail": detail}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink every workload (for the benchmark's tests)")
    p.add_argument("--setup-probe", metavar="DIR",
                   help="internal: time one set-up in this process")
    args = p.parse_args(argv)
    seed = args.seed % 2**32
    try:
        if args.setup_probe:
            elapsed = setup_probe(args.workload, Path(args.setup_probe), seed,
                                  args.tiny)
            print(json.dumps({"setup_s": elapsed}))
            return 0
        spans = WORK_ROOT / "spans" / f"{args.workload}-seed{seed}.json"
        doc = run(args.workload, seed, args.seconds, bool(args.trace),
                  args.tiny, spans_out=spans if args.trace else None)
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(doc["detail"]))
    print(json.dumps(doc["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
