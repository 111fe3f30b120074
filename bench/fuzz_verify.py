"""fuzz_verify: ``bchkit.cli.run_fuzz`` cold, at a fixed seed, in fresh interpreters.

Every ``bchkit fuzz`` invocation builds the lazy f_series tables again, so
each timed call runs in its own interpreter (``fuzz_child.py``) and only the
``run_fuzz`` call itself is timed.  The fuzz seed is fixed, whatever the
benchmark seed: the cost of one call swings widely with the fuzz seed
(README.md gives the numbers), more than any bound of this benchmark could
hold, so every run repeats the same call.  Each report must
pass with no violations, and all reports of a run, traced or not, must be
byte-identical.
"""

from __future__ import annotations

import json
import sys
import time

from common import BENCH_DIR, Sample, Speed, Verdict, Workload, run_child
from fuzz_child import FAMILIES

FUZZ_SEED = 1
FUZZ_N = 10  # instances per family: a 20-second loop makes about four calls


class FuzzVerify(Workload):
    name = "fuzz_verify"
    expected_layers = ("cli.run_fuzz", "families.generate", "algebra.validate",
                       "detect.classify_pair", "closed_form.bch_closed_form",
                       "closed_form.f_series", "oracle.integral_series")

    def setup(self, seed: int) -> None:
        import bchkit.cli  # noqa: F401  (cold policy: nothing is warmed)

        self.reports = []
        self.broken = []

    def _request(self, tracer, speed=None):
        proc = run_child([sys.executable, str(BENCH_DIR / "fuzz_child.py"),
                          str(FUZZ_SEED), str(FUZZ_N), "1" if tracer else "0"])
        if proc.returncode != 0:
            self.broken.append(f"fuzz child exited {proc.returncode}: {proc.stderr[-500:]}")
            return None
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.reports.append(result["report"])
        if speed is not None:
            speed.per_slice_s.extend(result["per_slice_s"])
        if tracer is not None:
            tracer.merge(result["trace"])
        return result["seconds"]

    def run(self, seconds: float, tracer=None) -> Sample:
        latencies = []
        completed = 0
        speed = Speed()
        clock = time.perf_counter
        deadline = clock() + seconds
        while not latencies or clock() < deadline:
            t0 = clock()
            took = self._request(tracer, speed)
            if took is None:  # a failed call counts with its wall time; check() reports it
                speed.probe()
                took = clock() - t0
            else:
                completed += 1
            latencies.append(took)
        return Sample(completed * FUZZ_N * len(FAMILIES), sum(latencies), latencies, speed)

    def check(self) -> Verdict:
        if len(self.reports) == 1:
            self._request(None)  # a second report at the same seed for the byte check
        per_report = FUZZ_N * len(FAMILIES)
        verdict = Verdict()
        for problem in self.broken:
            verdict.attempted += per_report
            verdict.failed += per_report
            verdict.unexpected.append(problem)
        for k, text in enumerate(self.reports):
            verdict.attempted += per_report
            report = json.loads(text)
            for violation in report["violations"]:
                verdict.fail(f"report {k}: violation {json.dumps(violation)[:300]}")
            if not report["pass"] and not report["violations"]:
                verdict.fail(f"report {k}: pass is false")
            if text != self.reports[0]:
                verdict.fail(f"report {k} differs from report 0 at fuzz seed {FUZZ_SEED}")
        return verdict

    def summary(self, sample, metrics) -> str:
        return f"fuzz_instances_per_s={metrics['ops_per_s']:.3f} instances/s"
