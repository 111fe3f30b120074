"""One cold ``bchkit.cli.run_fuzz`` call in a fresh interpreter.

Usage: python3 bench/fuzz_child.py SEED N TRACE

The parent puts src on PYTHONPATH; this directory is on sys.path as the
script's own.  Prints one JSON line: the call's time without the speed
probes made during it, the probes, the report exactly as the ``fuzz``
command prints it, and, with TRACE=1, the tracer's counters.
"""

from __future__ import annotations

import json
import sys

from common import Speed, run_probed

FAMILIES = ("rank_one", "case1", "catalog")
DEGREE = 8
TOLERANCE = 1e-8
SLOPE_EVERY = 5


def main(argv) -> int:
    seed, n, traced = int(argv[0]), int(argv[1]), argv[2] == "1"
    from bchkit import cli

    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    speed = Speed()
    report, seconds = run_probed(
        lambda: cli.run_fuzz(seed, n, list(FAMILIES), DEGREE, TOLERANCE, SLOPE_EVERY),
        speed)
    if tracer is not None:
        tracer.uninstall()
    print(json.dumps({
        "seconds": seconds,
        "per_slice_s": speed.per_slice_s,
        "report": json.dumps(report, sort_keys=True),
        "trace": tracer.export() if tracer is not None else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
