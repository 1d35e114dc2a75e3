"""Every name the benchmark traces still exists in sdfblend.

bench/tracer.py records a renamed or removed name as missing and runs on,
so without this test a refactor would show up only as a
`missing_trace_targets` entry in a benchmark run.
"""

from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import tracer

    t = tracer.Tracer()
    try:
        t.install(tracer.TARGETS)
        assert t.missing == []
    finally:
        t.uninstall()
