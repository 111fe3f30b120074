"""bchkit benchmark: one workload per run, end-to-end or per-layer metrics.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

With --trace 0 the timed loop runs untraced for S seconds and the result
holds the end-to-end metrics.  With --trace 1 the loop runs S/2 seconds
untraced and S/2 seconds with the tracer installed; the result holds the
per-layer metrics and trace.overhead_share.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  README.md
describes the workloads, the metrics and the known defects.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys

from common import ROOT, SRC, Speed, log, peak_rss_mb, percentile, run_child, run_probed
from cli_oneshot import CliOneshot
from f_range import FRange
from fuzz_verify import FuzzVerify
from library_stream import LibraryStream
from tracer import Tracer

WORKLOADS = {w.name: w for w in (LibraryStream, FuzzVerify, FRange, CliOneshot)}
SETUP_PROBES = 4  # fresh interpreters that repeat the set-up for setup_s

def timed_setup(workload, seed: int, tracer=None) -> tuple:
    """Import bchkit and run the workload's set-up.

    Returns its time and the speed factor measured during it.
    """
    def setup():
        import bchkit.cli  # noqa: F401

        if tracer is not None:
            tracer.install()
        try:
            workload.setup(seed)
        finally:
            if tracer is not None:
                tracer.uninstall()

    speed = Speed()
    _, seconds = run_probed(setup, speed)
    return seconds, speed.factor


def setup_probe(name: str, seed: int) -> tuple:
    """The set-up time and speed factor of a fresh interpreter."""
    proc = run_child([sys.executable, __file__, "--workload", name, "--seed",
                      str(seed), "--setup-probe"])
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr[-500:]}")
    return tuple(json.loads(proc.stdout.strip().splitlines()[-1]))


def end_to_end(setups, sample, verdict) -> dict:
    """The end-to-end metrics, every time at reference speed."""
    latencies_ms = [sample.normalized(s) * 1e3 for s in sample.latencies_s]
    return {
        "setup_s": (statistics.median(s / f for s, f in setups), "s"),
        "ops_per_s": (sample.ops / sample.normalized(sample.seconds), "1/s"),
        "latency_ms_p50": (percentile(latencies_ms, 50), "ms"),
        "latency_ms_p75": (percentile(latencies_ms, 75), "ms"),
        "ok_share": ((verdict.attempted - verdict.failed) / verdict.attempted, "share"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def machine_summary(setups, sample) -> str:
    """The same figures at machine speed, and the speed factors."""
    return (f"# at machine speed: setup_s={statistics.median(s for s, _ in setups):.4f} s "
            f"ops_per_s={sample.ops / sample.seconds:.4f} 1/s "
            f"latency_ms_p50={percentile(sample.latencies_s, 50) * 1e3:.4f} ms; "
            f"speed factor {sample.speed.factor:.3f} in the loop, "
            f"{statistics.median(f for _, f in setups):.3f} in set-up")


def run_workload(args) -> dict:
    workload = WORKLOADS[args.workload]()
    tracer = Tracer() if args.trace else None
    problems = []
    notes = []
    try:
        own_setup = timed_setup(workload, args.seed, tracer)
        if tracer is None:
            sample = workload.run(args.seconds)
            verdict = workload.check()
            setups = [own_setup] + [setup_probe(workload.name, args.seed)
                                    for _ in range(SETUP_PROBES)]
            metrics = end_to_end(setups, sample, verdict)
            notes.append(workload.summary(sample, {k: v for k, (v, _) in metrics.items()}))
            notes.append(machine_summary(setups, sample))
        else:
            plain = workload.run(args.seconds / 2)
            tracer.install()
            try:
                sample = workload.run(args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            verdict = workload.check()  # untraced: the references are not program work
            metrics = tracer.layer_metrics()
            metrics.update(workload_layer_metrics(workload))
            overhead = 0.0  # unless both halves completed ops; check() says why not
            if sample.ops and plain.ops:
                overhead = ((sample.normalized(sample.seconds) / sample.ops)
                            / (plain.normalized(plain.seconds) / plain.ops) - 1.0)
            metrics["trace.overhead_share"] = (overhead, "share")
            problems = [f"coverage: {layer} was never called"
                        for layer in workload.expected_layers if tracer.calls[layer] == 0]
            metrics["trace.coverage_errors"] = (len(problems), "count")
            notes.append(f"{len(metrics)} per-layer metrics, at machine speed; "
                         f"speed factor {sample.speed.factor:.3f} in the traced half;")
    finally:
        workload.close()
    failed_share = verdict.failed / verdict.attempted
    print(f"# {workload.name} seed={args.seed} trace={args.trace}: {notes[0]}"
          f" failed_share={failed_share:.4f} ({verdict.failed}/{verdict.attempted},"
          f" {verdict.known} in documented defect regimes)")
    for note in notes[1:]:
        print(note)
    problems = verdict.unexpected + problems
    for problem in problems[:20]:
        log(f"{workload.name}: {problem}")
    if len(problems) > 20:
        log(f"{workload.name}: ... {len(problems) - 20} more")
    return {
        "correct": not problems,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def workload_layer_metrics(workload) -> dict:
    """Per-layer metrics the workload measures itself, zero where it has none."""
    own = workload.layer_metrics()
    return {name: own.get(name, (0.0, "ms"))
            for name in ("cli.interpreter_ms", "cli.import_ms", "cli.command_ms")}


def run_all(args) -> dict:
    """Every workload in its own interpreter, metrics prefixed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = run_child([sys.executable, __file__, "--workload", name,
                          "--seed", str(args.seed), "--seconds", str(args.seconds),
                          "--trace", str(args.trace)], timeout=None)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(line for line in lines if line.startswith("#")))
        if proc.returncode != 0:
            raise RuntimeError(f"workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def environment() -> str:
    import mpmath
    import numpy

    return (f"# python={platform.python_version()} numpy={numpy.__version__} "
            f"mpmath={mpmath.__version__} nproc={os.cpu_count()} "
            f"machine={platform.machine()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "bchkit" / "__init__.py").is_file():
        log(f"error: no bchkit sources under {SRC.relative_to(ROOT)}/ of this checkout")
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        workload = WORKLOADS[args.workload]()
        try:
            print(json.dumps(timed_setup(workload, args.seed)))
        finally:
            workload.close()
        return 0
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(environment())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
