"""Span tracing from outside the program.

The tracer wraps public names of `sdfblend` at the place where the calling
code looks them up (a module global, or a class attribute reached through
an instance), records a span per call and optional exact counters, and
restores every original name on exit. Spans stay in memory until the run
writes them out. A name that no longer exists is recorded as missing and
left alone, so a refactor that removes it does not crash the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# count(counters, args, kwargs, result) adds exact counts for one call
CountFn = Callable[[Counter, tuple, dict, object], None]


@dataclass
class Target:
    """One wrapped lookup site: `module:Attr.path` traced as `span`."""

    site: str
    span: str
    count: CountFn | None = None
    timed: bool = True   # False: count only, record no span


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    missing: list[str] = field(default_factory=list)
    active: bool = False
    run: str = ""
    _stack: list[int] = field(default_factory=list)
    _restore: list[tuple[object, str, object]] = field(default_factory=list)

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(target.span) if target.timed else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if idx is not None:
                    self._close(idx)
            if target.count is not None:
                target.count(self.counters, args, kwargs, result)
            return result
        return traced

    # -- installing ----------------------------------------------------------

    def install(self, targets: list[Target]) -> None:
        for target in targets:
            module_name, _, path = target.site.partition(":")
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for name in parents:
                    owner = getattr(owner, name)
                original = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(target.site)
                continue
            if isinstance(original, (classmethod, staticmethod)):
                wrapped = type(original)(self._wrap(original.__func__, target))
            else:
                wrapped = self._wrap(original, target)
            setattr(owner, attr, wrapped)
            self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.active = False
        self.uninstall()

    # -- reading -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def totals(self) -> tuple[Counter, Counter]:
        """Summed inclusive and self seconds per span name."""
        incl, own = Counter(), Counter()
        for s, d in zip(self.spans, self.self_times()):
            incl[s.name] += s.end - s.start
            own[s.name] += d
        return incl, own

    def step_times(self, loops: set[str], step_end: str) -> list[float]:
        """Optimiser step durations: each step runs from the end of the
        previous `step_end` span (or the start of its enclosing loop span)
        to the end of its own `step_end` span."""
        last: dict[int, float] = {}
        out = []
        for i, s in enumerate(self.spans):
            if s.name in loops:
                last[i] = s.start
            elif s.name == step_end and s.parent in last:
                out.append(s.end - last[s.parent])
                last[s.parent] = s.end
        return out

    def dump(self, path) -> None:
        doc = {
            "missing": self.missing,
            "counters": dict(self.counters),
            "spans": [[s.name, s.start, s.end, s.parent, s.run]
                      for s in self.spans],
        }
        with open(path, "w") as f:
            json.dump(doc, f)


# ---------------------------------------------------------------------------
# Counters of the sdfblend layers


def count_select(c: Counter, args, kwargs, result) -> None:
    p, q, fallback, nearest = result
    c["select_points"] += len(p)
    c["select_nearest_hits"] += int(np.count_nonzero((nearest == p)
                                                     | (nearest == q)))
    c["fallback_points"] += int(np.count_nonzero(fallback))


def count_decode_rows(c: Counter, args, kwargs, result) -> None:
    c["decode_rows"] += len(result.value)


def count_tape(c: Counter, args, kwargs, result) -> None:
    tape = args[0]
    c["tape_nodes"] += len(tape.nodes)
    # computed from array sizes, not measured from the allocator
    c["tape_bytes"] += sum(np.asarray(n.value).nbytes for n in tape.nodes)


def count_step(c: Counter, args, kwargs, result) -> None:
    c["steps"] += 1


def count_sdf_points(c: Counter, args, kwargs, result) -> None:
    c["sdf_points"] += len(result)


def count_grid_corners(c: Counter, args, kwargs, result) -> None:
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    c["grid_corners"] += int(np.prod([r + 1 for r in grid.resolution]))


def count_kdtree(c: Counter, args, kwargs, result) -> None:
    c["kdtree_builds"] += 1


TARGETS = [
    # fitting loop (names as fit.py and cli.py look them up)
    Target("sdfblend.cli:fit_field", "fit.fit_field"),
    Target("sdfblend.fit:fit_field", "fit.fit_field"),
    Target("sdfblend.cli:compact_fit", "fit.compact_fit"),
    Target("sdfblend.cli:refine_from_scene", "fit.refine_from_scene"),
    Target("sdfblend.fit:refine", "fit.refine"),
    Target("sdfblend.cli:init_field", "fit.init_field"),
    Target("sdfblend.fit:init_field", "fit.init_field"),
    Target("sdfblend.fit:loss_inte_t", "objective.loss_inte_t"),
    Target("sdfblend.fit:loss_opt_t", "objective.loss_opt_t"),
    Target("sdfblend.fit:backward", "autodiff.backward", count_tape),
    Target("sdfblend.fit:adam_step", "autodiff.adam_step", count_step),
    # sampling
    Target("sdfblend.cli:sample_training_set", "geom.sample_training_set"),
    Target("sdfblend.fit:sample_training_set", "geom.sample_training_set"),
    Target("sdfblend.fit:surface_points", "geom.surface_points"),
    Target("sdfblend.fit:positive_points", "geom.positive_points"),
    Target("sdfblend.geom:SceneSpec.sdf", "geom.SceneSpec.sdf"),
    # field
    Target("sdfblend.field:BasisField.select_top2_nearest",
           "field.select_top2_nearest", count_select),
    Target("sdfblend.field:BasisField.rbf_matrix", "field.rbf_matrix"),
    Target("sdfblend.field:FieldProgram.decode", "field.decode",
           count_decode_rows, timed=False),
    Target("sdfblend.field:BasisField.sdf_batch", "field.sdf_batch",
           count_sdf_points),
    Target("sdfblend.field:domain_downsample", "field.domain_downsample"),
    Target("sdfblend.field:BasisField.load", "field.checkpoint_load"),
    Target("sdfblend.field:BasisField.save", "field.checkpoint_save"),
    # surfacing, file formats, metrics
    Target("sdfblend.cli:marching_cubes", "surface.marching_cubes",
           count_grid_corners),
    Target("sdfblend.metrics:marching_cubes", "surface.marching_cubes",
           count_grid_corners),
    Target("sdfblend.cli:write_obj", "formats.write_obj"),
    Target("sdfblend.cli:evaluate", "metrics.evaluate"),
    Target("sdfblend.metrics:iou", "metrics.iou"),
    Target("sdfblend.metrics:chamfer_l2", "metrics.chamfer_l2"),
    Target("sdfblend.metrics:f_score", "metrics.f_score"),
    Target("sdfblend.metrics:cKDTree", "metrics.cKDTree", count_kdtree,
           timed=False),
    Target("sdfblend.metrics:sample_mesh_surface", "geom.sample_mesh_surface"),
]
