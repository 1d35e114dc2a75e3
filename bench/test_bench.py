"""Tests of the benchmark itself, on the tiny size of every workload.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTERS = ("field.decode_rows_per_step", "autodiff.tape_nodes_per_step",
                  "surface.grid_corners", "metrics.kdtree_builds",
                  "field.fallback_points")


def _tiny(workload: str, trace: bool, **kwargs) -> dict:
    return bench.run(workload, seed=3, seconds=0.0, trace=trace, tiny=True,
                     probes=1, **kwargs)


def test_spec_matches_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_every_metric_present_with_unit(workload):
    for trace, spec in ((False, SPEC["end_to_end"]), (True, SPEC["per_layer"])):
        doc = _tiny(workload, trace)
        result = doc["result"]
        assert result["correct"], doc["detail"]["failures"]
        assert result["failed"] == 0 and result["attempted"] >= 2
        assert set(result["metrics"]) == {m["name"] for m in spec}
        for m in spec:
            entry = result["metrics"][m["name"]]
            assert entry["unit"] == m["unit"]
            assert isinstance(entry["value"], (int, float))
        if not trace:
            assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_exact_counters_repeat(workload):
    first, second = (_tiny(workload, True)["result"]["metrics"]
                     for _ in range(2))
    for name in EXACT_COUNTERS:
        assert first[name]["value"] == second[name]["value"], name


def test_counters_see_the_layers():
    fit = _tiny("fit_sphere", True)["result"]["metrics"]
    assert fit["field.decode_rows_per_step"]["value"] == 3 * 256
    assert fit["autodiff.tape_nodes_per_step"]["value"] > 0
    mesh = _tiny("mesh_eval_sphere", True)["result"]["metrics"]
    # mesh, then eval meshes the field and the reference scene: 3 grids of 33^3
    assert mesh["surface.grid_corners"]["value"] == 3 * 33 ** 3
    assert mesh["metrics.kdtree_builds"]["value"] == 4


def test_removed_name_is_reported_missing():
    targets = tracing.TARGETS + [
        tracing.Target("sdfblend.field:BasisField.removed_method", "gone"),
        tracing.Target("sdfblend.removed_module:function", "gone"),
    ]
    doc = _tiny("fit_sphere", True, targets=targets)
    assert doc["result"]["correct"]
    assert doc["detail"]["missing_trace_targets"] == [
        "sdfblend.field:BasisField.removed_method",
        "sdfblend.removed_module:function",
    ]


def test_tracer_restores_wrapped_names():
    from sdfblend import cli, field, fit
    before = (cli.fit_field, fit.backward, field.BasisField.__dict__["load"])
    _tiny("fit_sphere", True)
    after = (cli.fit_field, fit.backward, field.BasisField.__dict__["load"])
    assert before == after


def test_refuses_checkpoint_with_wrong_hash(tmp_path, monkeypatch):
    bad = tmp_path / "sphere_fit.sha256"
    bad.write_text("0" * 64 + "\n")
    monkeypatch.setattr(bench, "CHECKSUM", bad)
    with pytest.raises(bench.BenchError, match="sha256"):
        _tiny("refine_sphere", False)


def test_fails_without_the_program(tmp_path):
    """In a tree holding only the benchmark it exits non-zero, no result."""
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fit_sphere",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
