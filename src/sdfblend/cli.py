"""Command-line entry points tying the pipeline together.

Exit codes: 0 success, 1 config or I/O problem, 2 numerical failure,
3 verification failure. Machine-readable output goes to stdout; progress
and warnings go to stderr. Set SDFBLEND_THREADS to cap BLAS threads.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .autodiff import NonFiniteError
from .errors import (CheckpointError, SdfBlendError, check_document,
                     check_number, read_json)
from .field import BasisField, domain_downsample
from .fit import FitConfig, compact_fit, fit_field, init_field, refine_from_scene
from .formats import write_obj
from .geom import SampleSet, SceneSpec, sample_training_set
from .gradcheck import run_gradcheck
from .metrics import EvalProtocol, evaluate
from .objective import LossWeights
from .surface import GridSpec, marching_cubes

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_VERIFICATION = 3

FIT_CONFIG_SCHEMA_VERSION = 1
FIT_JOB_FIELDS = ("version", "scene", "samples", "fit", "out_checkpoint",
                  "out_report")


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _dump_json(doc: dict, path) -> None:
    with open(path, "w") as f:
        json.dump(doc, f)
        f.write("\n")


def _check_positive(value, what: str) -> float:
    """`value` if it is a finite number > 0; else ValueError naming `what`."""
    if check_number(value, what, -math.inf) <= 0:
        raise ValueError(f"{what} must be > 0, got {value!r}")
    return value


def cmd_sample(args) -> int:
    # argparse's `type=` checks the type only; the ranges are checked here
    check_number(args.n_near, "--n-near", 0, integer=True)
    check_number(args.n_uniform, "--n-uniform", 0, integer=True)
    check_number(args.seed, "--seed", 0, integer=True)
    for std in args.noise_stds:
        _check_positive(std, "--noise-stds entries")
    scene = SceneSpec.load(args.scene)
    samples = sample_training_set(scene, args.n_near, args.n_uniform,
                                  tuple(args.noise_stds), args.seed)
    _dump_json(samples.to_json_dict(), args.out)
    _log(f"wrote {len(samples)} samples to {args.out}")
    return EXIT_OK


def cmd_fit(args) -> int:
    doc = check_document(read_json(args.config, "fit config", SdfBlendError),
                         FIT_CONFIG_SCHEMA_VERSION, "fit config", SdfBlendError,
                         fields=FIT_JOB_FIELDS)
    for key in ("scene", "samples", "out_checkpoint", "out_report"):
        # open() takes an integer as a file descriptor of this process
        if key in doc and not isinstance(doc[key], str):
            raise SdfBlendError(f"fit config {key} must be a path string, "
                                f"got {doc[key]!r}")
    config = FitConfig.from_json_dict(doc["fit"])
    scene = SceneSpec.load(doc["scene"])
    if config.n_init is not None and config.n_init > config.n_bases:
        _log(f"compaction fit: {config.n_init} -> {config.n_bases} bases")
        field, kept, report = compact_fit(scene, config)
    else:
        if "samples" in doc:
            samples = SampleSet.from_json_dict(
                read_json(doc["samples"], "sample-set", CheckpointError))
        else:
            samples = sample_training_set(scene, config.n_near,
                                          config.n_uniform, config.noise_stds,
                                          seed=config.seed)
        start = init_field(scene, config)
        field, report = fit_field(start, samples, config)
    field.save(doc["out_checkpoint"])
    _dump_json(report.to_json_dict(), doc["out_report"])
    _log(f"fit finished in {report.wall_time_s:.1f}s; "
         f"final loss {report.trace['total'][-1]:.6g}")
    return EXIT_OK


def cmd_downsample(args) -> int:
    field = BasisField.load(args.checkpoint)
    kept = domain_downsample(field, args.keep)
    field.take(kept).save(args.out)
    kept_doc = {"kept": kept.tolist()}
    print(json.dumps(kept_doc))
    if args.indices_out:
        _dump_json(kept_doc, args.indices_out)
    _log(f"kept {len(kept)}/{field.n_bases} bases")
    return EXIT_OK


def cmd_refine(args) -> int:
    check_number(args.n_surface, "--n-surface", 1, integer=True)
    check_number(args.n_positive, "--n-positive", 1, integer=True)
    field = BasisField.load(args.checkpoint)
    scene = SceneSpec.load(args.scene)
    config = FitConfig(refine_steps=args.steps, refine_lr=args.lr,
                       seed=args.seed, weights=LossWeights(hinge_eps=args.eps))
    refined, report = refine_from_scene(field, scene, config,
                                        n_surface=args.n_surface,
                                        n_positive=args.n_positive)
    refined.save(args.out)
    if args.report:
        _dump_json(report.to_json_dict(), args.report)
    _log(f"refined {report.steps} steps: loss "
         f"{report.trace['total'][0]:.6g} -> {report.trace['total'][-1]:.6g}")
    return EXIT_OK


def cmd_mesh(args) -> int:
    field = BasisField.load(args.checkpoint)
    grid = GridSpec(args.resolution)
    mesh = marching_cubes(field, grid)
    if mesh.is_empty():
        _log("warning: field has no zero crossing on the grid; empty mesh")
    write_obj(mesh, args.out)
    _log(f"wrote {len(mesh.vertices)} vertices / {len(mesh.triangles)} "
         f"triangles to {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    field = BasisField.load(args.checkpoint)
    scene = SceneSpec.load(args.scene)
    protocol = EvalProtocol(n_iou=args.n_iou, n_surface=args.n_surface,
                            tau=args.tau, grid=GridSpec(args.resolution),
                            seed=args.seed)
    report = evaluate(field, scene, protocol)
    payload = json.dumps(report.to_json_dict())
    print(payload)
    if args.out:
        with open(args.out, "w") as f:
            f.write(payload + "\n")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    check_number(args.fixtures, "--fixtures", 1, integer=True)
    check_number(args.seed, "--seed", 0, integer=True)
    _check_positive(args.h, "--h")
    _check_positive(args.tolerance, "--tolerance")
    report = run_gradcheck(seed=args.seed, fixtures_per_loss=args.fixtures,
                           h=args.h, corrupt=args.corrupt)
    for name, res in report.results.items():
        _log(f"{name}: max rel err {res.max_rel_err:.3e} "
             f"({res.n_checked} coords, {len(res.excluded)} excluded)")
    print(json.dumps(report.to_json_dict()))
    if not sum(res.n_checked for res in report.results.values()):
        _log("FAIL: no gradient coordinate was checked")
        return EXIT_VERIFICATION
    if report.max_rel_err > args.tolerance:
        _log(f"FAIL: max rel err {report.max_rel_err:.3e} > {args.tolerance}")
        return EXIT_VERIFICATION
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit EXIT_CONFIG: argparse's
    own code, 2, is EXIT_NUMERICAL here. Subparsers are of the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="sdfblend",
        description="Fit, compact, refine, surface and evaluate blended "
                    "local-basis signed-distance fields.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("sample", help="sample a training set from a scene")
    s.add_argument("scene")
    s.add_argument("--n-near", type=int, default=18000)
    s.add_argument("--n-uniform", type=int, default=2000)
    s.add_argument("--noise-stds", type=float, nargs=2, default=[0.01, 0.003])
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_sample)

    s = sub.add_parser("fit", help="fit a field per a JSON config")
    s.add_argument("config")
    s.set_defaults(fn=cmd_fit)

    s = sub.add_parser("downsample", help="drop the most-covered bases")
    s.add_argument("checkpoint")
    s.add_argument("--keep", type=int, required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--indices-out")
    s.set_defaults(fn=cmd_downsample)

    s = sub.add_parser("refine", help="post-fit refinement of centers/latents")
    s.add_argument("checkpoint")
    s.add_argument("scene")
    s.add_argument("--out", required=True)
    s.add_argument("--steps", type=int, default=1000)
    s.add_argument("--lr", type=float, default=1e-3)
    s.add_argument("--eps", type=float, default=0.005)
    s.add_argument("--n-surface", type=int, default=2048)
    s.add_argument("--n-positive", type=int, default=2048)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--report")
    s.set_defaults(fn=cmd_refine)

    s = sub.add_parser("mesh", help="extract the zero level set as OBJ")
    s.add_argument("checkpoint")
    s.add_argument("--resolution", type=int, default=128)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_mesh)

    s = sub.add_parser("eval", help="score a checkpoint against a scene")
    s.add_argument("checkpoint")
    s.add_argument("scene")
    s.add_argument("--n-iou", type=int, default=100000)
    s.add_argument("--n-surface", type=int, default=100000)
    s.add_argument("--tau", type=float, default=0.01)
    s.add_argument("--resolution", type=int, default=128)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out")
    s.set_defaults(fn=cmd_eval)

    s = sub.add_parser("gradcheck",
                       help="finite-difference check of all loss gradients")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--fixtures", type=int, default=11,
                   help="random fixtures per loss")
    s.add_argument("--h", type=float, default=1e-6)
    s.add_argument("--tolerance", type=float, default=1e-5)
    s.add_argument("--corrupt", action="store_true",
                   help="bias gradients to exercise the failure path")
    s.set_defaults(fn=cmd_gradcheck)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except NonFiniteError as e:
        _log(f"numerical failure: {e}")
        return EXIT_NUMERICAL
    except MemoryError as e:  # e.g. a grid too large for this machine
        _log(f"error: out of memory: {e}")
        return EXIT_CONFIG
    except (SdfBlendError, OSError, ValueError, KeyError) as e:
        _log(f"error: {e}")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
