"""cli_oneshot: serial ``python -m bchkit.cli`` calls on small catalog inputs.

Each call pays interpreter start, imports and one command, as a shell user
does.  The calls cycle through ``f``, ``check``, ``bch`` and ``bch --verify``
over a seeded pool of inputs.  Each exit code and stdout JSON is compared
with the same command run in-process through ``cli.main``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import statistics
import sys
import tempfile
import time
from fractions import Fraction

from common import ROOT, Sample, Speed, Verdict, Workload, percentile, run_child

ALGEBRAS = ("heisenberg", "affine", "uvc", "two_scale", "sl2")
COMMANDS = ("f", "check", "bch", "bch --verify")
POOL = 24          # distinct calls; the loop cycles through them
PROBES = 5         # samples of the interpreter and import probes
CALL_CALIBRATION_SLICES = 20  # speed probe after each call


class CliOneshot(Workload):
    name = "cli_oneshot"
    # every bchkit layer runs inside the CLI children, which are not traced;
    # the traced run reports only the cli.* breakdown
    expected_layers = ()

    def setup(self, seed: int) -> None:
        self.workdir = tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT)
        rng = random.Random(seed)
        calls = []
        for k in range(POOL):
            command = COMMANDS[k % len(COMMANDS)]
            if command == "f":
                u, v = rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0)
                calls.append(("f", None, (u, v)))
                continue
            name = ALGEBRAS[(k // len(COMMANDS)) % len(ALGEBRAS)]
            dim = 2 if name == "affine" else 4 if name == "two_scale" else 3
            if k == 3:  # bch --verify on uvc with unit x and y: the oracle
                name, x, y = "uvc", _unit(3, 0), _unit(3, 1)  # disagrees, exit 4
            else:
                x, y = _coords(rng, dim), _coords(rng, dim)
            calls.append((command, name, (x, y)))
        self.argvs = [self._argv(k, call) for k, call in enumerate(calls)]
        self.outputs = {}   # pool index -> list of (exit code, stdout)
        # the first call in a checkout writes the bytecode caches
        run_child(self.argvs[0])

    def _argv(self, k, call):
        command, name, args = call
        base = [sys.executable, "-m", "bchkit.cli"]
        if command == "f":
            u, v = args
            return base + ["f", "--u", repr(u), "--v", repr(v)]
        paths = []
        for label, coords in zip("xy", args):
            path = f"{self.workdir}/{label}{k}.json"
            with open(path, "w") as fh:
                json.dump({"coords": [str(c) for c in coords]}, fh)
            paths.append(path)
        argv = base + command.split()[:1] + ["--algebra", name, "--x", paths[0],
                                            "--y", paths[1]]
        return argv + command.split()[1:]

    def run(self, seconds: float, tracer=None) -> Sample:
        latencies = []
        speed = Speed()
        clock = time.perf_counter
        deadline = clock() + seconds
        k = 0
        while not latencies or clock() < deadline:
            t0 = clock()
            proc = run_child(self.argvs[k])
            latencies.append(clock() - t0)
            speed.probe(CALL_CALIBRATION_SLICES)
            self.outputs.setdefault(k, []).append((proc.returncode, proc.stdout))
            k = (k + 1) % POOL
        if tracer is not None:
            tracer.record("cli.subprocess", len(latencies), sum(latencies))
            self._probe()
        self.call_p50_s = percentile(latencies, 50)
        return Sample(len(latencies), sum(latencies), latencies, speed)

    def _probe(self) -> None:
        """Interpreter start and import time, for the traced run's breakdown."""
        def median_s(argv):
            times = []
            for _ in range(PROBES):
                t0 = time.perf_counter()
                run_child(argv).check_returncode()
                times.append(time.perf_counter() - t0)
            return statistics.median(times)

        self.interpreter_s = median_s([sys.executable, "-c", "pass"])
        self.import_s = median_s([sys.executable, "-c", "import bchkit.cli"]) - self.interpreter_s

    def layer_metrics(self) -> dict:
        if not hasattr(self, "interpreter_s"):  # only the traced run probes
            return {}
        return {
            "cli.interpreter_ms": (self.interpreter_s * 1e3, "ms"),
            "cli.import_ms": (self.import_s * 1e3, "ms"),
            "cli.command_ms": ((self.call_p50_s - self.interpreter_s - self.import_s) * 1e3,
                               "ms"),
        }

    def check(self) -> Verdict:
        verdict = Verdict()
        for k, results in sorted(self.outputs.items()):
            expected = self._expected(k)
            for code, stdout in results:
                verdict.attempted += 1
                what = " ".join(self.argvs[k][3:])
                if code != expected[0]:
                    verdict.fail(f"{what}: exit {code}, expected {expected[0]}")
                    continue
                try:
                    got = json.loads(stdout)
                except json.JSONDecodeError:
                    verdict.fail(f"{what}: stdout is not JSON: {stdout[:200]!r}")
                    continue
                if got != expected[1]:
                    verdict.fail(f"{what}: stdout {got} != in-process {expected[1]}")
        return verdict

    def _expected(self, k):
        """(exit code, stdout JSON) of call k, run in-process through ``cli.main``."""
        from bchkit import cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(self.argvs[k][3:])
        return code, json.loads(out.getvalue())

    def summary(self, sample, metrics) -> str:
        return (f"cli_latency_ms_p50={metrics['latency_ms_p50']:.1f} ms "
                f"cli_latency_ms_p75={metrics['latency_ms_p75']:.1f} ms")

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def _unit(dim, i):
    return tuple(Fraction(int(j == i)) for j in range(dim))


def _coords(rng, dim):
    """Small exact coordinates, at most 1/4 in magnitude, not all zero."""
    while True:
        coords = tuple(Fraction(rng.randint(-2, 2), 8) for _ in range(dim))
        if any(coords):
            return coords
