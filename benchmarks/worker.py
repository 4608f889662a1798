"""One pass of one workload in a fresh interpreter.

Usage::

    python3 benchmarks/worker.py WORKLOAD SEED --seconds S [--trace | --calibrate]
    python3 benchmarks/worker.py WORKLOAD SEED --count R [--trace]
    python3 benchmarks/worker.py WORKLOAD SEED --setup-only

The pass imports hypeuler, generates the request stream, then sends
requests one at a time until ``--count`` requests are done, or until the
summed request time reaches ``--seconds`` and a block of the stream ends.
Each answer is checked after its timer stops; with ``--calibrate`` the
reference kernel of ``calibrate.py`` then runs once, timed on its own.
The last stdout line is a JSON object with the latencies, the kernel
times, the failures, the request mix, the peak RSS and, with ``--trace``,
the span totals.  ``--setup-only`` stops once the pass is ready to send
its first request; ``run.py`` times that to get the set-up time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibrate
import spans
import workloads
from cli_child import MARKER

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
MAX_ERRORS_KEPT = 5


def import_hypeuler():
    """Import hypeuler and refuse any copy other than the one in ``src/``."""
    import hypeuler
    import hypeuler.cli  # noqa: F401  (the in-process series workload calls it)

    where = Path(hypeuler.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"hypeuler was imported from {where}, not from {SRC}")
    return hypeuler


class Pass:
    """The request loop of one workload, untraced or traced."""

    def __init__(
        self, workload: str, seed: int, traced: bool, calibrated: bool = False
    ):
        self.hypeuler = import_hypeuler()
        core = self.hypeuler.hyperelliptic_core
        # Bound before any wrapper is installed, so checks are never traced.
        self.oracle = workloads.Oracle(core.nonequivariant_series, core.chi_pointed)
        self.workload = workload
        self.requests = workloads.generate(workload, seed)
        self.in_process = workload != "cli-oneshot"
        self.tracer = None
        if traced and self.in_process:
            self.tracer = spans.Tracer()
            self.tracer.install()
        self.traced = traced
        self.calibrated = calibrated
        self.block = workloads.BLOCK_SIZE[workload]
        self.child_traces: list[dict] = []
        self.child_wall_s = 0.0
        self.child_rss_kib: list[int] = []

    def call(self, req: dict):
        """Send one request; returns (exit code, output, stderr)."""
        if self.workload == "schur-session":
            return 0, self.hypeuler.equivariant_schur(req["g"], req["n"]), ""
        if self.in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.hypeuler.cli.run(req["args"])
            return code, buf.getvalue(), ""
        if self.traced:
            cmd = [sys.executable, str(BENCH_DIR / "cli_child.py")]
        else:
            cmd = [sys.executable, "-m", "hypeuler.cli"]
        with subprocess.Popen(
            cmd + req["args"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        ) as proc:
            # The CLI writes at most a short message or the span totals to
            # stderr, well under a pipe buffer, so reading stdout first
            # cannot block.  A hung child is killed with its worker by
            # run.py's timeout.
            out = proc.stdout.read()
            err = proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kib.append(usage.ru_maxrss)
        return proc.returncode, out, err

    def run(self, seconds: float | None, count: int | None) -> dict:
        latencies: list[float] = []
        kernel_s: list[float] = []
        errors: list[str] = []
        failed = 0
        bytes_out = 0
        busy = 0.0
        while (
            (busy < seconds or len(latencies) % self.block)
            if count is None
            else len(latencies) < count
        ):
            req = self.requests[len(latencies) % len(self.requests)]
            start = perf_counter()
            try:
                code, output, stderr = self.call(req)
            except Exception as exc:  # a failed request; the loop goes on
                elapsed = perf_counter() - start
                code, output, stderr = None, None, ""
                error = f"{type(exc).__name__}: {exc}"
            else:
                elapsed = perf_counter() - start
                error = None
            latencies.append(elapsed)
            busy += elapsed
            if error is None:
                if self.traced and not self.in_process:
                    error = self._take_child_trace(stderr, elapsed)
                if isinstance(output, str):
                    bytes_out += len(output.encode())
            if error is None:
                try:
                    error = self.oracle.check(req, code, output)
                except Exception as exc:  # a malformed answer is a wrong one
                    error = f"unparsable output: {type(exc).__name__}: {exc}"
            if error is not None:
                failed += 1
                if len(errors) < MAX_ERRORS_KEPT:
                    errors.append(f"{req.get('args') or req}: {error}")
            if self.calibrated:
                kernel_s.append(calibrate.timed())
        done = [
            self.requests[i % len(self.requests)] for i in range(len(latencies))
        ]
        if self.in_process:
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            rss_kib = statistics.mean(self.child_rss_kib)
        return {
            "latencies": latencies,
            "kernel_s": kernel_s,
            "failed": failed,
            "errors": errors,
            "mix": workloads.describe_mix(done),
            "peak_rss_mib": rss_kib / 1024,
            "trace": self._trace_totals(bytes_out) if self.traced else None,
        }

    def _take_child_trace(self, stderr: str, wall_s: float) -> str | None:
        lines = stderr.splitlines()
        if not lines or not lines[-1].startswith(MARKER):
            return "traced child reported no spans"
        self.child_traces.append(json.loads(lines[-1][len(MARKER):]))
        self.child_wall_s += wall_s
        return None

    def _trace_totals(self, bytes_out: int) -> dict:
        if self.tracer is not None:
            totals = self.tracer.payload()
            startup_s = 0.0
        else:
            totals = spans.merge(self.child_traces)
            startup_s = self.child_wall_s - totals["root_s"]
        totals["counters"]["cli.bytes_out"] = bytes_out
        totals["startup_s"] = startup_s
        return totals


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("seed", type=int)
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--seconds", type=float)
    group.add_argument("--count", type=int)
    group.add_argument("--setup-only", action="store_true")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--calibrate", action="store_true")
    args = parser.parse_args()
    bench = Pass(args.workload, args.seed, args.trace, args.calibrate)
    if args.setup_only:
        return
    print(json.dumps(bench.run(args.seconds, args.count)))


if __name__ == "__main__":
    main()
