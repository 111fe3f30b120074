"""The benchmark tracer's contract with the package.

bench/tracer.py wraps every entry point listed in its ENTRY_POINTS by
replacing the (module, attribute) binding, so a refactor that renames or
drops one of them would silently drop a traced layer, and an internal call
that binds f_scalar early (as a default argument, say) would
silently stop being counted.
"""

import importlib
import importlib.util
from pathlib import Path

import bchkit
from bchkit import cli
from bchkit.oracle import affine_algebra, two_scale_algebra

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
TRACER_PATH = BENCH_DIR / "tracer.py"


def load_bench_module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_bench_module("bench_tracer", TRACER_PATH)


def test_entry_points_resolve_to_callables():
    tracer = load_tracer()
    assert tracer.ENTRY_POINTS
    for layer, module, attr in tracer.ENTRY_POINTS:
        target = getattr(importlib.import_module(module), attr, None)
        assert callable(target), f"{layer}: {module}.{attr} is missing"


def test_f_is_called_through_module_globals():
    tracer = load_tracer().Tracer()
    aff, two = affine_algebra(), two_scale_algebra()
    pairs = [(aff, aff.basis_element(0), aff.basis_element(1)),          # ScalarF
             (aff, aff.element(["1/8", "0"]), aff.basis_element(1)),     # ScalarF, series box
             (two, two.element(["1/4", "1/2", "0", "0"]),
              two.element(["0", "0", "1/4", "1/4"]))]                   # OperatorF
    tracer.install()
    try:
        for alg, x, y in pairs:
            # looked up on the package at call time, as the benchmark does
            bchkit.bch_closed_form(alg, x, y, classification=bchkit.classify_pair(alg, x, y))
    finally:
        tracer.uninstall()
    for layer in ("detect.classify_pair", "closed_form.bch_closed_form",
                  "closed_form.f_scalar", "closed_form.f_series"):
        assert tracer.calls[layer] >= 1, layer


def test_fuzz_reaches_every_expected_layer(monkeypatch):
    # the fuzz_verify workload fails its coverage check when a layer it expects
    # (the series oracle, say) drops out of the fuzz path; the call is the
    # workload's own, cut to two instances per family, one graded and one not
    monkeypatch.syspath_prepend(str(BENCH_DIR))  # fuzz_verify imports its siblings
    expected = load_bench_module("bench_fuzz_verify",
                                 BENCH_DIR / "fuzz_verify.py").FuzzVerify.expected_layers
    child = load_bench_module("bench_fuzz_child", BENCH_DIR / "fuzz_child.py")
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        report = cli.run_fuzz(1, 2, list(child.FAMILIES), child.DEGREE, child.TOLERANCE,
                              child.SLOPE_EVERY)
    finally:
        tracer.uninstall()
    assert report["pass"]
    for layer in expected:
        assert tracer.calls[layer] >= 1, layer
