"""Spans and density-evaluation counts recorded from outside annuharm.

The tracer replaces the public stage functions in every annuharm module
namespace that holds them with wrappers that record a span (stage, start,
end, parent span, op id), so calls made inside the library (run_full_suite
calling solve_c) are spanned too.  Density work is
counted by a RadialMetric whose ``eval`` is wrapped with
``dataclasses.replace``; each call is charged to the innermost open stage.
Nothing in annuharm changes, and every wrapper returns the wrapped
function's own result, so traced outputs are bitwise those of an untraced
run.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# stage name -> (defining module, function); the layer is the module suffix
STAGES = {
    "solve_c": ("annuharm.solver", "solve_c"),
    "critical_inner_radius": ("annuharm.solver", "critical_inner_radius"),
    "build_profile": ("annuharm.solver", "build_profile"),
    "energy": ("annuharm.fields", "energy"),
    "lipschitz_constant": ("annuharm.fields", "lipschitz_constant"),
    "kk_constants": ("annuharm.fields", "kk_constants"),
    "export_grid": ("annuharm.fields", "export_grid"),
    "run_full_suite": ("annuharm.verify", "run_full_suite"),
    "pde_residual": ("annuharm.verify", "pde_residual"),
    "general_harmonic_residual": ("annuharm.verify", "general_harmonic_residual"),
    "hopf_constancy_check": ("annuharm.verify", "hopf_constancy_check"),
    "minimality_probe": ("annuharm.verify", "minimality_probe"),
    "modulus_equivalence_check": ("annuharm.verify", "modulus_equivalence_check"),
}
LAYERS = ("solver", "fields", "verify")
ERROR_TYPES = ("BelowCritical", "DivergentModulus", "ProfileMismatch",
               "NoConvergence", "Other")
_LIBRARIES = ("numpy", "scipy")
_PATCHED_MODULES = ("annuharm", "annuharm.solver", "annuharm.fields",
                    "annuharm.verify")


def layer_of(stage: str) -> str:
    return STAGES[stage][0].rsplit(".", 1)[1]


class Tracer:
    """In-memory span and counter store for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [stage, start, end, parent, op_id]
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._last_error: BaseException | None = None
        self.rho_calls: dict[str, int] = defaultdict(int)
        self.rho_points: dict[str, int] = defaultdict(int)
        self.rho_scalar_calls: dict[str, int] = defaultdict(int)
        self.errors: dict[tuple[str, str], int] = defaultdict(int)

    def _current_stage(self) -> str:
        return self.spans[self._stack[-1]][0] if self._stack else "outside"

    def _wrap(self, stage, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            self._stack.append(len(self.spans))
            span = [stage, time.perf_counter(), None, parent, self.op_id]
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                # charge an exception once, to the innermost stage it left
                if exc is not self._last_error:
                    self._last_error = exc
                    kind = type(exc).__name__
                    kind = kind if kind in ERROR_TYPES else "Other"
                    self.errors[(layer_of(stage), kind)] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
        return wrapper

    def counted(self, metric):
        """The same density, with every evaluation charged to the current
        stage."""
        inner = metric.eval

        def counted_eval(y):
            stage = self._current_stage()
            self.rho_calls[stage] += 1
            self.rho_points[stage] += int(np.size(y))
            if np.ndim(y) == 0:
                self.rho_scalar_calls[stage] += 1
            return inner(y)

        return dataclasses.replace(metric, eval=counted_eval)

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        modules = [importlib.import_module(name) for name in _PATCHED_MODULES]
        originals = {stage: getattr(importlib.import_module(mod), fn)
                     for stage, (mod, fn) in STAGES.items()}
        replacements = {id(orig): self._wrap(stage, orig)
                        for stage, orig in originals.items()}
        saved = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    saved.append((module, attr, value))
                    setattr(module, attr, replacements[id(value)])
        try:
            yield self
        finally:
            for module, attr, value in saved:
                setattr(module, attr, value)

    def stage_seconds(self) -> dict[str, float]:
        """Inclusive seconds per stage, summed over all its spans."""
        total: dict[str, float] = defaultdict(float)
        for stage, start, end, _, _ in self.spans:
            total[stage] += end - start
        return total

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["stage", "start", "end", "parent", "op_id"],
                       "spans": self.spans}, handle)

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-op stage time, per-round density counts and error counts."""
        out = {}
        seconds = self.stage_seconds()
        for stage in STAGES:
            out[f"{layer_of(stage)}.{stage}.s"] = seconds.get(stage, 0.0) / n_ops
            calls = self.rho_calls.get(stage, 0)
            points = self.rho_points.get(stage, 0)
            out[f"metrics.rho_calls.{stage}"] = calls
            out[f"metrics.rho_points.{stage}"] = points
            out[f"metrics.points_per_call.{stage}"] = points / calls if calls else 0.0
        out["metrics.rho_scalar_calls.build_profile"] = \
            self.rho_scalar_calls.get("build_profile", 0)
        for layer in LAYERS:
            for kind in ERROR_TYPES:
                out[f"{layer}.errors.{kind}"] = self.errors.get((layer, kind), 0)
        return out


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {
        "setup.numpy_s": "s", "setup.scipy_s": "s", "setup.annuharm_own_s": "s",
    }
    for command in ("solve", "critical", "eval", "verify", "sweep"):
        units[f"cli.{command}.wall_s"] = "s"
    units["cli.import_share"] = "fraction"
    for stage in STAGES:
        units[f"{layer_of(stage)}.{stage}.s"] = "s"
        units[f"metrics.rho_calls.{stage}"] = "count"
        units[f"metrics.rho_points.{stage}"] = "count"
        units[f"metrics.points_per_call.{stage}"] = "points/call"
    units["metrics.rho_scalar_calls.build_profile"] = "count"
    for layer in LAYERS:
        for kind in ERROR_TYPES:
            units[f"{layer}.errors.{kind}"] = "count"
    units["trace.overhead_s"] = "s"
    return units


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds spent importing numpy, scipy and annuharm's own modules, from
    ``python -X importtime -c "import annuharm"`` output.

    Lines are printed children first; reversing them gives each module
    before its children, so a stack of open depths yields every line's
    parent.  numpy and scipy time is the cumulative time of each numpy or
    scipy module that no other numpy or scipy module imported.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue
        stripped = name.lstrip()
        depth = (len(name) - len(stripped) - 1) // 2
        rows.append((depth, stripped.strip(), int(cumulative) * 1e-6))
    package = lambda mod: mod.split(".", 1)[0]
    totals = defaultdict(float)
    stack: list[tuple[int, str]] = []
    for depth, mod, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        outermost = all(package(a) not in _LIBRARIES for _, a in stack)
        if mod == "annuharm" or (package(mod) in _LIBRARIES and outermost):
            totals[package(mod)] += cumulative
        stack.append((depth, mod))
    own = totals["annuharm"] - totals["numpy"] - totals["scipy"]
    return {"setup.numpy_s": totals["numpy"], "setup.scipy_s": totals["scipy"],
            "setup.annuharm_own_s": own}
