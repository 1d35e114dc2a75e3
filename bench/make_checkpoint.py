"""Regenerate the fixed converged sphere checkpoint used by the
refine_sphere and mesh_eval_sphere workloads.

It is the criterion-4 sphere fit (sphere r=0.4, N=8, d_z=16, widths 48x3,
batch 2048, 18k near + 2k uniform samples, 4000 steps, seed 0) run through
the `fit` CLI. The file and its sha256 are committed, so a later change to
`fit` never changes the inputs of the surfacing workloads. Run from the
repository root:

    python3 bench/make_checkpoint.py

It rewrites bench/data/sphere_fit.json and bench/data/sphere_fit.sha256.
Refresh both only on purpose: the benchmark refuses a checkpoint whose
hash does not match.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import CHECKPOINT, CHECKSUM, SPHERE_FIT, _import_sdfblend, _sha256


def main() -> int:
    _import_sdfblend()
    from sdfblend.cli import main as cli_main
    from sdfblend.fixtures import sphere_scene

    CHECKPOINT.parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=CHECKPOINT.parent) as tmp:
        tmp = Path(tmp)
        sphere_scene().save(tmp / "scene.json")
        config = {"version": 1, "scene": str(tmp / "scene.json"),
                  "fit": {**SPHERE_FIT, "steps": 4000, "seed": 0},
                  "out_checkpoint": str(CHECKPOINT),
                  "out_report": str(tmp / "report.json")}
        (tmp / "fit.json").write_text(json.dumps(config))
        code = cli_main(["fit", str(tmp / "fit.json")])
        if code != 0:
            return code
    CHECKSUM.write_text(_sha256(CHECKPOINT) + "\n")
    print(f"wrote {CHECKPOINT.name} sha256 {CHECKSUM.read_text().strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
