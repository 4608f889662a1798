"""The hypeuler benchmark: one workload (or all), untraced or traced.

Usage::

    python3 benchmarks/run.py --workload series-powersum --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time (median of
repeated fresh-interpreter starts of the workload process), then one
untraced pass of ``--seconds`` of summed request time.  Each of its
timings is scaled to a machine of fixed speed by the reference kernel of
``calibrate.py``, run after every request and every set-up start.  ``--trace 1``
measures the per-layer metrics: an untraced pass of half the time, then a
traced pass over the same requests in a fresh process; the difference in
their summed request time is the tracing overhead.

The last stdout line is the result: ``correct``, ``attempted``, ``failed``
and ``metrics`` (name -> value and unit).  The line before it holds the
details: run environment, request mix, the tail percentile used, the
failure ratio and the first failures.  The exit code is 1 when any answer
failed its check, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from math import ceil
from pathlib import Path
from time import perf_counter

import calibrate
import spans
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_PROBES = 16
KERNELS_PER_PROBE = 3
WORKER_TIMEOUT_S = 150
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10
# CPUs this process may use, counted before it pins itself to one of them.
NPROC = len(os.sched_getaffinity(0))


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def _run_worker(args: list[str]) -> str:
    """Run worker.py to completion in its own session; returns its stdout."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=_worker_env(),
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # with any cli child it started
        proc.communicate()
        raise RuntimeError(f"worker {args} timed out") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited {proc.returncode}:\n{err}")
    return out


def _pass(workload: str, seed: int, *extra: str) -> dict:
    return json.loads(_run_worker([workload, str(seed), *extra]).splitlines()[-1])


def setup_seconds(
    workload: str, seed: int, probes: int
) -> tuple[list[float], list[float]]:
    """Wall times of fresh worker starts up to their first request, and
    the reference kernel times measured between them.

    One unmeasured start comes first, so every measured one finds the
    bytecode caches as the others do.
    """
    times, kernel_s = [], []
    for _ in range(probes + 1):
        start = perf_counter()
        _run_worker([workload, str(seed), "--setup-only"])
        times.append(perf_counter() - start)
        kernel_s += [calibrate.timed() for _ in range(KERNELS_PER_PROBE)]
    return times[1:], kernel_s[KERNELS_PER_PROBE:]


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it."""
    chosen = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if n - ceil(pct / 100 * n) >= TAIL_MIN_BEYOND:
            chosen = pct
    return chosen


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, ceil(pct / 100 * len(ordered)) - 1)]


def environment() -> dict:
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "nproc": NPROC,
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def _git_sha() -> str | None:
    # The benchmark may run from an export that is not a repository, or
    # one nested inside an unrelated repository: then there is no sha.
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "hypeuler").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    """(pass result, metrics, details) of an untraced run.

    Every timing is scaled to a machine of fixed speed (``calibrate.py``).
    """
    # Half the set-up samples before the pass and half after, so that a
    # short spell of a faster or slower machine moves fewer of them.
    setup, setup_kernel = setup_seconds(workload, seed, SETUP_PROBES // 2)
    res = _pass(workload, seed, "--seconds", str(seconds), "--calibrate")
    after, after_kernel = setup_seconds(workload, seed, SETUP_PROBES // 2)
    setup += after
    setup_kernel += after_kernel
    # A set-up sample takes about as long as a few kernel runs, so one
    # factor for all of them is as good as a running one.
    setup_factor = calibrate.NOMINAL_S / statistics.median(setup_kernel)
    raw = res["latencies"]
    lat = calibrate.scale(raw, res["kernel_s"])
    pct = tail_percentile(len(lat))
    metrics = {
        "latency_p50_s": _metric(statistics.median(lat), "s"),
        "latency_tail_s": _metric(percentile(lat, pct), "s"),
        "throughput_rps": _metric(len(lat) / sum(lat), "1/s"),
        "setup_s": _metric(statistics.median(setup) * setup_factor, "s"),
        "peak_rss_mib": _metric(res["peak_rss_mib"], "MiB"),
    }
    details = {
        "latency_tail_percentile": pct,
        "speed_factor": calibrate.NOMINAL_S / statistics.median(res["kernel_s"]),
        "setup_speed_factor": setup_factor,
        "unscaled": {
            "latency_p50_s": statistics.median(raw),
            "latency_tail_s": percentile(raw, pct),
            "throughput_rps": len(raw) / sum(raw),
            "setup_s": statistics.median(setup),
        },
        "busy_s": sum(raw),
        "setup_samples_s": setup,
    }
    return res, metrics, details


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    """(pass result, metrics, details) of an untraced and a traced pass."""
    plain = _pass(workload, seed, "--seconds", str(seconds / 2))
    count = len(plain["latencies"])
    res = _pass(workload, seed, "--count", str(count), "--trace")
    if len(res["latencies"]) != count:
        raise RuntimeError("traced pass sent a different number of requests")
    tr = res["trace"]
    wall = sum(res["latencies"])
    metrics = {}
    for name in spans.SPAN_NAMES:
        metrics[f"{name}.calls"] = _metric(tr["calls"][name], "count")
        metrics[f"{name}.self_s"] = _metric(tr["self_s"][name], "s")
    units = {"cli.bytes_out": "bytes"}
    for name in spans.COUNTERS:
        metrics[name] = _metric(tr["counters"][name], units.get(name, "count"))
    hits, misses = tr["phi_cache"]
    attributed = sum(tr["self_s"].values())
    metrics |= {
        "exact_arith.euler_phi.hit_ratio": _metric(
            hits / (hits + misses) if hits + misses else 0.0, "ratio"
        ),
        "process.startup_s": _metric(tr["startup_s"], "s"),
        "trace.wall_s": _metric(wall, "s"),
        "trace.overhead_s": _metric(wall - sum(plain["latencies"]), "s"),
        "unattributed_s": _metric(wall - attributed - tr["startup_s"], "s"),
    }
    modules: dict[str, float] = {}
    for name, self_s in tr["self_s"].items():
        module = name.split(".")[0]
        modules[module] = modules.get(module, 0.0) + self_s / wall
    modules["process.startup"] = tr["startup_s"] / wall
    modules["unattributed"] = metrics["unattributed_s"]["value"] / wall
    details = {"module_shares": modules, "untraced_failed": plain["failed"]}
    res["failed"] += plain["failed"]
    res["errors"] = plain["errors"] + res["errors"]
    return res, metrics, details


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(details, result) for one workload."""
    env = environment()
    measure = per_layer if trace else end_to_end
    res, metrics, extra = measure(workload, seed, seconds)
    env["loadavg_1m_end"] = os.getloadavg()[0]
    attempted = len(res["latencies"])
    details = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": env,
        "mix": res["mix"],
        "fail_ratio": _metric(res["failed"] / attempted, "ratio"),
        "errors": res["errors"],
        **extra,
    }
    result = {
        "correct": res["failed"] == 0,
        "attempted": attempted,
        "failed": res["failed"],
        "metrics": metrics,
    }
    return details, result


def main() -> int:
    parser = argparse.ArgumentParser(description="hypeuler benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "hypeuler" / "__init__.py").is_file():
        print(f"error: no hypeuler sources under {SRC}", file=sys.stderr)
        return 2
    # Everything the benchmark starts runs on one CPU, the one it measures
    # the machine's speed on: on a shared host the CPUs of one machine are
    # not equally fast at the same moment.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        runs = [run_one(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for details, result in runs:
        print(json.dumps(details))
        if len(runs) > 1:
            print(json.dumps({"workload": details["workload"], **result}))
    if len(runs) == 1:
        final = runs[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in runs),
            "attempted": sum(r["attempted"] for _, r in runs),
            "failed": sum(r["failed"] for _, r in runs),
            "metrics": {
                f"{d['workload']}/{name}": m
                for d, r in runs
                for name, m in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
