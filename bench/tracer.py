"""Counters and timers around bchkit's public entry points, installed from outside.

Nothing under ``src/`` knows about this module.  ``Tracer.install`` replaces
each entry point listed in ``ENTRY_POINTS`` by a timing wrapper, in every
``bchkit`` module namespace that holds a reference to it (so
``cli.classify_pair`` and ``detect.classify_pair`` are both wrapped), and
``uninstall`` puts the originals back.  Times are inclusive: a generator's
time contains the ``validate`` call it makes.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import Counter, defaultdict

# layer -> (module, attribute) of every wrapped entry point; several entry
# points may report under one layer name
ENTRY_POINTS = (
    ("algebra.validate", "bchkit.algebra", "validate"),
    ("detect.classify_pair", "bchkit.detect", "classify_pair"),
    ("closed_form.bch_closed_form", "bchkit.closed_form", "bch_closed_form"),
    ("closed_form.f_scalar", "bchkit.closed_form", "f_scalar"),
    ("closed_form.f_series", "bchkit.closed_form", "f_series"),
    ("oracle.integral_series", "bchkit.oracle", "bch_integral_series"),
    ("oracle.matrix_bch", "bchkit.oracle", "matrix_bch"),
    ("families.generate", "bchkit.families", "random_rank_one"),
    ("families.generate", "bchkit.families", "random_case1"),
    ("families.generate", "bchkit.families", "random_derived_abelian"),
    ("cli.run_fuzz", "bchkit.cli", "run_fuzz"),
)

TAGS = ("Commuting", "CentralBracket", "SimultaneousEigenvector",
        "OperatorCommuting", "NoClosedForm")
METHODS = ("Sum", "Central", "ScalarF", "OperatorF")
F_REGIMES = ("series", "axis", "diagonal", "band", "band_large", "generic",
             "positive", "large")


def f_regime(u, v) -> str:
    """The f_range regime an argument pair (u, v) belongs to."""
    u, v = float(u), float(v)
    if abs(u) + abs(v) > 700.0:
        return "large"
    if max(abs(u), abs(v), abs(u - v)) < 0.25:
        return "series"
    if u == 0.0 or v == 0.0:
        return "axis"
    if u == v:
        return "diagonal"
    if abs(u - v) < 1e-3:
        return "band" if max(abs(u), abs(v)) < 90.0 else "band_large"
    if min(u, v) >= 30.0:
        return "positive"
    return "generic"


class Tracer:
    """Per-layer call counts, inclusive busy time and per-call durations."""

    def __init__(self):
        self.calls = Counter()
        self.seconds = defaultdict(float)
        self.durations = defaultdict(list)
        self.tags = Counter()
        self.methods = Counter()
        self.nonconvergence = 0
        self.f_regime_s = defaultdict(list)
        self._active = set()
        self._patched = []

    # -- wrapping ---------------------------------------------------------

    def install(self) -> None:
        originals = {}
        for layer, module, attr in ENTRY_POINTS:
            fn = getattr(importlib.import_module(module), attr)
            originals[id(fn)] = (fn, self._wrap(layer, fn))
        for name, module in list(sys.modules.items()):
            if name != "bchkit" and not name.startswith("bchkit."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, layer, fn):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if layer in self._active:  # nested call of the same layer
                return fn(*args, **kwargs)
            self._active.add(layer)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "NonConvergence":
                    self.nonconvergence += 1
                raise
            finally:
                elapsed = clock() - start
                self._active.discard(layer)
                self.calls[layer] += 1
                self.seconds[layer] += elapsed
                self.durations[layer].append(elapsed)
                if layer == "closed_form.f_scalar":
                    self.f_regime_s[f_regime(*args[:2])].append(elapsed)
            if layer == "detect.classify_pair":
                self.tags[result.tag.value] += 1
            elif layer == "closed_form.bch_closed_form":
                self.methods[result.method] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def record(self, layer: str, calls: int, seconds: float) -> None:
        """Count work the benchmark timed itself, such as whole CLI calls."""
        self.calls[layer] += calls
        self.seconds[layer] += seconds

    # -- child processes ----------------------------------------------------

    def export(self) -> dict:
        return {
            "calls": dict(self.calls), "seconds": dict(self.seconds),
            "durations": {k: list(v) for k, v in self.durations.items()},
            "tags": dict(self.tags), "methods": dict(self.methods),
            "nonconvergence": self.nonconvergence,
            "f_regime_s": {k: list(v) for k, v in self.f_regime_s.items()},
        }

    def merge(self, data: dict) -> None:
        self.calls.update(data["calls"])
        for k, v in data["seconds"].items():
            self.seconds[k] += v
        for k, v in data["durations"].items():
            self.durations[k].extend(v)
        self.tags.update(data["tags"])
        self.methods.update(data["methods"])
        self.nonconvergence += data["nonconvergence"]
        for k, v in data["f_regime_s"].items():
            self.f_regime_s[k].extend(v)

    # -- report ---------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Every per-layer metric this tracer produces, zero where unused."""

        def p50_ms(layer):
            d = self.durations.get(layer)
            return statistics.median(d) * 1e3 if d else 0.0

        def max_ms(layer):
            d = self.durations.get(layer)
            return max(d) * 1e3 if d else 0.0

        def calls_and_s(layer, prefix):
            return {prefix + "_calls": (self.calls[layer], "count"),
                    prefix + "_s": (self.seconds[layer], "s")}

        m = {}
        m.update(calls_and_s("algebra.validate", "algebra.validate"))
        m["algebra.validate_ms_max"] = (max_ms("algebra.validate"), "ms")
        m.update(calls_and_s("detect.classify_pair", "detect.classify_pair"))
        m["detect.classify_pair_ms_p50"] = (p50_ms("detect.classify_pair"), "ms")
        for tag in TAGS:
            m[f"detect.tag_count.{tag}"] = (self.tags[tag], "count")
        m.update(calls_and_s("closed_form.bch_closed_form", "closed_form.bch_closed_form"))
        m["closed_form.bch_closed_form_ms_p50"] = (p50_ms("closed_form.bch_closed_form"), "ms")
        for method in METHODS:
            m[f"closed_form.method_count.{method}"] = (self.methods[method], "count")
        m["closed_form.nonconvergence_count"] = (self.nonconvergence, "count")
        m.update(calls_and_s("closed_form.f_series", "closed_form.f_series"))
        m.update(calls_and_s("closed_form.f_scalar", "closed_form.f_scalar"))
        for regime in F_REGIMES:
            d = self.f_regime_s.get(regime)
            m[f"closed_form.f_scalar_us_p50.{regime}"] = (
                statistics.median(d) * 1e6 if d else 0.0, "us")
        m.update(calls_and_s("oracle.integral_series", "oracle.integral_series"))
        m["oracle.integral_series_ms_p50"] = (p50_ms("oracle.integral_series"), "ms")
        m.update(calls_and_s("oracle.matrix_bch", "oracle.matrix_bch"))
        m.update(calls_and_s("families.generate", "families.generate"))
        m.update(calls_and_s("cli.run_fuzz", "cli.run_fuzz"))
        m.update(calls_and_s("cli.subprocess", "cli.subprocess"))
        return m
