"""Layer tracing by wrapping the program's functions where they are imported.

The program is not edited. For each layer module, its public functions
(and two methods) are replaced by timing wrappers in every ``ppfa`` module
namespace that holds a reference to them, so a call made through any
import path is seen. Each wrapper records a span (id, parent, name, start,
end, operation) in memory, accumulates the span's self time (duration minus
the time covered by child spans) and updates the exact counters attached to
that function. ``restore`` puts every original object back.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = (
    "preprocess",
    "statespace",
    "kalman",
    "training",
    "genetic",
    "monitoring",
    "pipeline",
    "selection",
    "cli",
)

# Methods traced under their own span names, as (module, class, method, name).
METHODS = (
    ("monitoring", "MonitorSession", "score", "monitoring.session_score"),
    ("monitoring", "MonitorReport", "write_csv", "monitoring.report_write"),
)


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


class Tracer:
    """Spans and counters for the calls into the program's layers."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, int, float, float]] = []
        self.names: list[str] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.single_row_score_s: list[float] = []
        self.operation = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        self._hooks = {
            "kalman.log_likelihood_filter": self._on_loglik_filter,
            "training.fit": self._on_fit,
            "genetic.minimize": self._on_minimize,
            "monitoring.kde_limit": self._on_kde_limit,
            "monitoring.session_score": self._on_session_score,
            "monitoring.report_write": self._on_report_write,
            "pipeline.save_model": self._on_save_model,
            "selection.select": self._on_select,
            "cli.read_csv": self._on_read_csv,
        }

    # -- counters computed from arguments and results ----------------------

    def _on_loglik_filter(self, fn, args, kwargs, result, duration):
        a = _bound(fn, args, kwargs)
        self.counts["kalman.loglik_rows"] += np.asarray(a["X"]).shape[0] - a["aug"].s + 1

    def _on_fit(self, fn, args, kwargs, result, duration):
        trace = result[1]
        self.counts["training.em_iterations"] += len(trace.rows)
        self.counts["training.ga_fallbacks"] += sum(len(row.warnings) for row in trace.rows)

    def _on_minimize(self, fn, args, kwargs, result, duration):
        cfg = _bound(fn, args, kwargs)["cfg"]
        self.counts["genetic.evaluations"] += cfg.generations * cfg.population_size
        self.counts["genetic.feasible"] += bool(result.feasible)

    def _on_kde_limit(self, fn, args, kwargs, result, duration):
        values = _bound(fn, args, kwargs)["values"]
        self.counts["monitoring.kde_values"] += np.asarray(values).shape[0]

    def _on_session_score(self, fn, args, kwargs, result, duration):
        if len(result) == 1:
            self.single_row_score_s.append(duration)

    def _on_report_write(self, fn, args, kwargs, result, duration):
        path = _bound(fn, args, kwargs)["path"]
        self.counts["monitoring.report_write.bytes"] += os.path.getsize(path)

    def _on_save_model(self, fn, args, kwargs, result, duration):
        self.counts["pipeline.model_bytes"] += os.path.getsize(_bound(fn, args, kwargs)["path"])

    def _on_select(self, fn, args, kwargs, result, duration):
        self.counts["selection.candidates"] += len(result.scoreboard)
        self.counts["selection.candidates_skipped"] += sum(
            row.skipped is not None for row in result.scoreboard
        )

    def _on_read_csv(self, fn, args, kwargs, result, duration):
        self.counts["cli.read_csv.bytes"] += os.path.getsize(_bound(fn, args, kwargs)["path"])

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name: str):
        name_idx = len(self.names)
        self.names.append(name)
        stack = self._stack
        spans = self.spans
        self_s = self.self_s
        calls = self.calls
        hook = self._hooks.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                self_s[name] += duration - frame[0]
                calls[name] += 1
                spans.append((span_id, parent, name_idx, self.operation, start, end))
            if hook is not None:
                hook(fn, args, kwargs, result, duration)
            return result

        return wrapper

    def _targets(self) -> dict[int, tuple[object, str]]:
        """id(original) -> (original, span name) for every traced function."""
        targets = {}
        for layer in LAYERS:
            module = sys.modules[f"ppfa.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    targets[id(obj)] = (obj, f"{layer}.{attr}")
        return targets

    def install(self) -> None:
        """Wrap every traced function in every loaded module of ``ppfa``."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        targets = self._targets()
        wrappers = {key: self._wrap(fn, name) for key, (fn, name) in targets.items()}
        modules = [
            mod for mod_name, mod in sorted(sys.modules.items())
            if mod is not None and (mod_name == "ppfa" or mod_name.startswith("ppfa."))
        ]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and targets[id(obj)][0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        for layer, cls_name, method, name in METHODS:
            cls = getattr(sys.modules[f"ppfa.{layer}"], cls_name)
            original = cls.__dict__[method]
            self._patched.append((cls, method, original))
            setattr(cls, method, self._wrap(original, name))

    def restore(self) -> None:
        """Put back every object that ``install`` replaced."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for name, value in self.self_s.items():
            totals[name.split(".", 1)[0]] += value
        return totals

    def span_arrays(self) -> dict[str, np.ndarray]:
        """Spans as columns, for writing out when the run ends."""
        ids, parents, name_index, ops, starts, ends = map(np.asarray, zip(*self.spans))
        return {
            "id": ids, "parent": parents, "name_index": name_index, "operation": ops,
            "start": starts, "end": ends, "names": np.asarray(self.names),
        }
