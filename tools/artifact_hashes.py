"""SHA-256 of the CLI artifacts of one checkout, printed as JSON.

    python3 tools/artifact_hashes.py TREE

TREE is a checkout of this repository; its `src/` is the program run and
its `bench/run.py` writes the benchmark's job files. Two checkouts whose
JSON is equal write the same bytes for every artifact below:

* the `fit_sphere`, `compact_chair` and `refine_sphere` benchmark jobs at
  seed 1: checkpoint and report, and the scene files that `SceneSpec.save`
  writes for the first two,
* `sample` of the sphere scene with 900 near-surface and 100 uniform
  points: the sample set,
* a single-basis fit of the sphere: checkpoint and report,
* `mesh` of the benchmark checkpoint at resolutions 128 and 64,
* `eval` of it against the sphere at seeds 0 and 7,
* `downsample` of it to 4 bases: checkpoint and indices file,
* `eval` of the `compact_chair` checkpoint against the chair scene at
  resolution 64, with 20,000 IoU and surface samples: a CSG reference,
* `gradcheck` at seeds 0, 1 and 2 (default fixtures),

and the stdout and stderr of every command but the fits, whose stderr
holds their wall time. Every command runs in its own process in one
temporary directory, whose path is replaced by `<tmp>` in the stderr
hashed.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_JOBS = ("fit_sphere", "compact_chair", "refine_sphere")
GRADCHECK_SEEDS = (0, 1, 2)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Runner:
    """Runs CLI commands of one checkout, hashing what they write."""

    def __init__(self, tree: Path, tmp: Path):
        self.tmp = tmp
        self.env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        self.hashes: dict[str, str] = {}

    def run(self, name: str, argv: list[str], outputs=(),
            streams: bool = True) -> None:
        """Run `sdfblend argv`; hash each of `outputs` and, with `streams`,
        its stdout and its stderr, as `name/<file>`."""
        proc = subprocess.run([sys.executable, "-m", "sdfblend.cli", *argv],
                              capture_output=True, env=self.env, cwd=self.tmp)
        if proc.returncode != 0:
            sys.exit(f"sdfblend {' '.join(argv)} exited {proc.returncode}:\n"
                     f"{proc.stderr.decode()}")
        for path in outputs:
            self.hashes[f"{name}/{Path(path).name}"] = _sha256(Path(path).read_bytes())
        if streams:
            self.hashes[f"{name}/stdout"] = _sha256(proc.stdout)
            stderr = proc.stderr.replace(str(self.tmp).encode(), b"<tmp>")
            self.hashes[f"{name}/stderr"] = _sha256(stderr)


def artifact_hashes(tree: Path) -> dict[str, str]:
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    import run as bench

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        runner = Runner(tree, tmp)
        # a fit's stderr holds its wall time: its files only
        for job in BENCH_JOBS:
            plan = bench.write_inputs(job, tmp / job, 1, False)
            for cmd in plan.commands:
                runner.run(job, cmd.argv, cmd.outputs, streams=False)
        for job in ("fit_sphere", "compact_chair"):
            runner.hashes[f"{job}/scene.json"] = _sha256(
                (tmp / job / "scene.json").read_bytes())

        scene = tmp / "fit_sphere" / "scene.json"
        out = tmp / "samples.json"
        runner.run("sample", ["sample", str(scene), "--n-near", "900",
                              "--n-uniform", "100", "--out", str(out)], [out])

        # one basis: the blend's N = 1 path, which no benchmark job takes
        outputs = [tmp / "field.json", tmp / "report.json"]
        fit = {**bench.SPHERE_FIT, "n_bases": 1, "steps": 20, "seed": 1}
        (tmp / "single.json").write_text(json.dumps({
            "version": 1, "scene": str(scene), "fit": fit,
            "out_checkpoint": str(outputs[0]), "out_report": str(outputs[1])}))
        runner.run("fit_single_basis", ["fit", str(tmp / "single.json")],
                   outputs, streams=False)

        checkpoint = str(bench.CHECKPOINT)
        for res in (128, 64):
            out = tmp / f"mesh_{res}.obj"
            runner.run(f"mesh_{res}", ["mesh", checkpoint, "--resolution",
                                       str(res), "--out", str(out)], [out])
        for seed in (0, 7):
            out = tmp / f"eval_seed{seed}.json"
            runner.run(f"eval_seed{seed}", ["eval", checkpoint, str(scene),
                                            "--seed", str(seed), "--out",
                                            str(out)], [out])
        chair = tmp / "compact_chair"
        out = tmp / "eval_chair.json"
        runner.run("eval_chair", ["eval", str(chair / "out" / "field.json"),
                                  str(chair / "scene.json"), "--resolution", "64",
                                  "--n-iou", "20000", "--n-surface", "20000",
                                  "--out", str(out)], [out])
        outputs = [tmp / "down.json", tmp / "kept.json"]
        runner.run("downsample", ["downsample", checkpoint, "--keep", "4",
                                  "--out", str(outputs[0]),
                                  "--indices-out", str(outputs[1])], outputs)
        for seed in GRADCHECK_SEEDS:
            runner.run(f"gradcheck_seed{seed}", ["gradcheck", "--seed", str(seed)])
        return runner.hashes


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "sdfblend").is_dir():
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 1
    print(json.dumps(artifact_hashes(Path(argv[0]).resolve()), indent=1,
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
