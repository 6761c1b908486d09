"""Outside-in tracing of the rdfilter layers.

The tracer wraps public functions of each module with a span recorder while
a traced solve runs, and restores the originals afterwards.  Nothing inside
``src/`` is changed.  The rdfilter modules import each other's functions by
name (``bench`` imports ``step``, ``solver2d`` imports ``filter_factors``,
...), so a wrapper is installed under every name in every ``rdfilter``
module that refers to the wrapped object, not only in the defining module.

A span records its name, start, end, parent span and run id (one run id per
traced solve).  Spans are kept in flat arrays in memory and written out when
the benchmark ends.  A name that no longer exists in the package is reported
as absent: its metrics read 0 and never fail a run.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

# Span names are "<module>.<function>" or "<module>.<Class>.<method>".
SPANS = (
    "stepper.step",
    "stepper.startup_step",
    "stepper.apply_dxx",
    "stepper.newton_point_solve",
    "shift.shift1",
    "shift.shift3",
    "shift.estimate_uxx_endpoints",
    "shift.unshift",
    "shift.shift2d",
    "shift.unshift2d",
    "filtering.postprocess_field",
    "filtering.apply_filter_values",
    "filtering.filter_factors",
    "filtering.sine_coefficients",
    "filtering.sine_reconstruct",
    "filtering.filter_boundary_trace",
    "ddm.postprocess_dd",
    "ddm.blend_weights",
    "solver2d.step2d",
    "solver2d.startup_step2d",
    "solver2d.apply_laplacian_5pt",
    "solver2d.postprocess2d",
    "solver2d.apply_tensor_filter_values",
    "core.Field.blown_up",
    "core.Field2D.blown_up",
    "bench.integrate_1d",
    "bench.integrate_2d",
    "bench.run_predator_prey",
    "bench.run_dd_study",
    "bench.bisect_max_stable_ratio",
)

# Integration drivers: each call is one trial; its RunOutcome.steps counts
# the time steps taken.
DRIVERS = ("bench.integrate_1d", "bench.integrate_2d")

# Grid properties that rebuild their node array with linspace on each access.
NODE_PROPERTIES = (("Grid1D", "nodes"), ("Grid2D", "nodes_x"), ("Grid2D", "nodes_y"))

COUNTS = ("core.nodes", "reaction.eval", "reaction.jacobian", "bench.trials",
          "bench.trial_steps")

SPAN_STATS = (("calls_per_step", "1/step"), ("us_per_step", "us/step"),
              ("self_us_per_step", "us/step"))


def metric_units(span_names=SPANS) -> dict[str, str]:
    """Every per-layer metric name the tracer reports, with its unit."""
    units = {f"{span}.{stat}": unit for span in span_names for stat, unit in SPAN_STATS}
    units.update({
        "core.nodes.calls_per_step": "1/step",
        "reaction.eval.calls_per_step": "1/step",
        "reaction.jacobian.calls_per_step": "1/step",
        "bench.trials": "count",
        "bench.trial_steps": "steps",
        "trace.wall_s": "s",
        "trace.overhead_s": "s",
        "trace.self_sum_frac": "1",
    })
    return units


def _resolve(span: str):
    """(owner object, attribute name, original) of a span, or None if absent."""
    module_name, _, attr = span.partition(".")
    try:
        owner = importlib.import_module(f"rdfilter.{module_name}")
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = vars(owner).get(name) if isinstance(owner, type) else getattr(owner, name, None)
    return None if original is None else (owner, name, original)


class Tracer:
    """Records spans and counts for the solves run inside ``with tracer:``."""

    def __init__(self, span_names=SPANS):
        self.span_names = tuple(span_names)
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("i")
        self.counts = dict.fromkeys(COUNTS, 0)
        self.runs = 0
        self.absent: list[str] = []
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.runs += 1
        modules = [m for n, m in list(sys.modules.items())
                   if n == "rdfilter" or n.startswith("rdfilter.")]
        absent = []
        for idx, span in enumerate(self.span_names):
            found = _resolve(span)
            if found is None:
                absent.append(span)
                continue
            owner, name, original = found
            wrapper = self._span_wrapper(idx, original, span in DRIVERS)
            if isinstance(owner, type):
                self._replace(owner, name, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapper)
        self._count_nodes()
        self._count_reactions()
        self.absent = absent
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _replace(self, owner, name, new) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def _span_wrapper(self, idx: int, fn, driver: bool):
        name, start, end, parent, run = self.name, self.start, self.end, self.parent, self.run
        stack, counts = self._stack, self.counts
        run_id = self.runs

        def traced(*args, **kwargs):
            i = len(start)
            name.append(idx)
            parent.append(stack[-1])
            run.append(run_id)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if driver:
                counts["bench.trials"] += 1
                counts["bench.trial_steps"] += result.steps
            return result

        return traced

    def _count_nodes(self) -> None:
        core = importlib.import_module("rdfilter.core")
        counts = self.counts
        for cls_name, prop_name in NODE_PROPERTIES:
            cls = getattr(core, cls_name, None)
            prop = vars(cls).get(prop_name) if cls is not None else None
            if not isinstance(prop, property):
                continue

            def counted(obj, _get=prop.fget):
                counts["core.nodes"] += 1
                return _get(obj)

            self._replace(cls, prop_name, property(counted))

    def _count_reactions(self) -> None:
        """Count eval/Jacobian calls of every ReactionSystem built while the
        tracer is installed (the Jacobian count is the Newton iteration count)."""
        cls = getattr(importlib.import_module("rdfilter.core"), "ReactionSystem", None)
        if cls is None:
            return
        counts = self.counts
        init = vars(cls)["__init__"]

        def counter(key, fn):
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return counted

        def counted_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            object.__setattr__(obj, "eval", counter("reaction.eval", obj.eval))
            object.__setattr__(obj, "jacobian", counter("reaction.jacobian", obj.jacobian))

        self._replace(cls, "__init__", counted_init)

    # -- results ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "run": np.frombuffer(self.run, dtype=np.int32),
        }

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """(duration, self time) per span; self = duration minus the time
        covered by its direct children (spans nest: one thread)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                              minlength=dur.size)
        return dur, dur - covered

    def metrics(self, walls: list[float]) -> dict[str, float]:
        """Per-layer metrics over the traced solves whose times are ``walls``."""
        units = max(len(walls), 1)
        steps = max(self.counts["bench.trial_steps"], 1)
        dur, own = self.self_times()
        names = np.frombuffer(self.name, dtype=np.int32)
        n = len(self.span_names)
        calls = np.bincount(names, minlength=n)
        total = np.bincount(names, weights=dur, minlength=n)
        selfsum = np.bincount(names, weights=own, minlength=n)
        out = {}
        for idx, span in enumerate(self.span_names):
            out[f"{span}.calls_per_step"] = calls[idx] / steps
            out[f"{span}.us_per_step"] = total[idx] * 1e6 / steps
            out[f"{span}.self_us_per_step"] = selfsum[idx] * 1e6 / steps
        for key in ("core.nodes", "reaction.eval", "reaction.jacobian"):
            out[f"{key}.calls_per_step"] = self.counts[key] / steps
        out["bench.trials"] = self.counts["bench.trials"] / units
        out["bench.trial_steps"] = self.counts["bench.trial_steps"] / units
        out["trace.self_sum_frac"] = own.sum() / sum(walls) if walls else 0.0
        return {k: float(v) for k, v in out.items()}

    def save(self, path) -> None:
        np.savez_compressed(path, span_names=np.array(self.span_names), **self.arrays())
