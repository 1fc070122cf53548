"""Per-layer attribution by wrapping weylprod's public functions from outside.

`Tracer.install` replaces each target function, in every weylprod module
namespace that holds it, with a wrapper that times the call, and
`Tracer.uninstall` puts the originals back. A wrapped call's self time is
its duration minus the durations of the wrapped calls it made. Per-point
functions (`frac_part`, `floor_surd`, `ostrowski`, `decimal_str`) only add
to their call count and times; every other wrapped call also records a span
(op, name, start, end, parent span) in memory. No file of the package
changes.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

import numpy as np

# (module, function or Class.method, per-point, extra count hook)
TARGETS = (
    ("irrational", "FracPartEvaluator.frac_part", True, None),
    ("irrational", "floor_surd", True, None),
    ("irrational", "ostrowski", True, None),
    ("sequences", "kronecker", False, "kronecker"),
    ("sequences", "van_der_corput", False, None),
    ("numerics", "log_two_sin_pi_array", False, "elements"),
    ("numerics", "compensated_cumsum", False, None),
    ("numerics", "decimal_str", True, None),
    ("products", "product_trace", False, "terms"),
    ("discrepancy", "discrepancy_trace", False, "prefixes"),
    ("discrepancy", "star_discrepancy", False, None),
    ("extremal", "sweep", False, "rows"),
    ("bounds", "kronecker_log_trace", False, None),
    ("bounds", "check_hlawka", False, None),
    ("bounds", "check_kronecker_sandwich", False, None),
    ("bounds", "check_ostrowski_bound", False, None),
    ("bounds", "check_cesaro_log_bound", False, None),
    ("bounds", "check_type_growth", False, None),
    ("bounds", "check_vdc_limits", False, None),
    ("bounds", "check_kronecker_conjectures", False, None),
    ("bounds", "grid_hlawka_report", False, None),
    ("bounds", "hlawka_sequence_report", False, None),
    ("stochastic", "iid_lil_experiment", False, None),
    ("stochastic", "rademacher_lil_experiment", False, None),
    ("stochastic", "subsequence_product_experiment", False, None),
    ("stochastic", "kronecker_log_weights", False, None),
    ("cli", "main", False, None),
)


def _metric_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """Call counts, total and self times, extra counts and spans."""

    def __init__(self):
        self.calls = {}
        self.total_s = {}
        self.self_s = {}
        self.counts = {}
        self.spans = []
        self.op = None
        self._stack = []  # [child seconds, span index or None, name]
        self._patches = []

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _hook(self, hook, name, args, result, parent):
        if hook == "kronecker":
            # kronecker_log_trace builds an orbit only on a cache miss
            if parent == "bounds.kronecker_log_trace":
                self.count("bounds.kronecker_log_trace.misses", 1)
        elif hook == "elements":
            self.count(f"{name}.elements", int(np.size(args[0])))
        elif hook == "terms":
            path = "mpf" if isinstance(result.log_values, list) else "float"
            self.count(f"products.{path}_terms", result.N)
        else:
            self.count(f"{name}.{hook}", len(result))

    def wrap(self, name: str, fn, per_point: bool, hook):
        stack = self._stack
        spans = self.spans
        self.calls[name] = 0
        self.total_s[name] = self.self_s[name] = 0.0

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, None, name]
            if not per_point:
                frame[1] = len(spans)
                spans.append([self.op, name, 0.0, 0.0,
                              parent[1] if parent else None])
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self.calls[name] += 1
                self.total_s[name] += dt
                self.self_s[name] += dt - frame[0]
                if parent:
                    parent[0] += dt
                if frame[1] is not None:
                    spans[frame[1]][2:4] = [t0, t0 + dt]
            if hook:
                self._hook(hook, name, args, result,
                           parent[2] if parent else None)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded weylprod module namespace."""
        if not self._patches:
            self._patches = self._plan()
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        """Put the original functions back."""
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    def _plan(self) -> list:
        """(namespace, attribute, original, wrapper) for every target."""
        modules = [m for key, m in sys.modules.items()
                   if key == "weylprod" or key.startswith("weylprod.")]
        patches = []
        for module, attr, per_point, hook in TARGETS:
            owner = importlib.import_module(f"weylprod.{module}")
            name = _metric_name(module, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = getattr(cls, meth)
                patches.append((cls, meth, fn,
                                self.wrap(name, fn, per_point, hook)))
                continue
            fn = getattr(owner, attr)
            wrapper = self.wrap(name, fn, per_point, hook)
            patches += [(m, key, fn, wrapper) for m in modules
                        for key, value in vars(m).items() if value is fn]
        return patches
