"""Tests of the benchmark itself.

Run with ``python -m pytest benchmarks`` from the repository root.  Each
short run still measures one whole block of its workload, so the module
takes about a minute and a quarter.
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import workloads  # noqa: E402
from worker import Pass  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str) -> tuple[int, list[dict]]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=170,
    )
    assert proc.stderr == ""
    return proc.returncode, [json.loads(line) for line in proc.stdout.splitlines()]


def _names_and_units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_untraced_run_of_every_workload_emits_each_end_to_end_metric():
    code, lines = _run("--workload", "all", "--seed", "5", "--seconds", "0.2")
    assert code == 0
    final = lines[-1]
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0
    want = _names_and_units("end_to_end")
    for workload in workloads.WORKLOADS:
        result = next(r for r in lines if r.get("workload") == workload and "metrics" in r)
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want, workload
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert final["metrics"][f"{workload}/setup_s"] == result["metrics"]["setup_s"]
    details = [r for r in lines if "environment" in r]
    assert len(details) == 3
    for d in details:
        assert d["fail_ratio"] == {"value": 0.0, "unit": "ratio"}
        assert d["mix"]["requests"] >= 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_emits_each_per_layer_metric(workload):
    code, lines = _run(
        "--workload", workload, "--seed", "5", "--seconds", "0.2", "--trace", "1"
    )
    assert code == 0
    result = lines[-1]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _names_and_units("per_layer")
    m = {name: v["value"] for name, v in result["metrics"].items()}
    self_total = sum(v for name, v in m.items() if name.endswith(".self_s"))
    assert self_total + m["process.startup_s"] + m["unattributed_s"] == pytest.approx(
        m["trace.wall_s"]
    )
    assert self_total > 0


def test_same_seed_same_stream_other_seed_other_stream():
    for workload in workloads.WORKLOADS:
        a = workloads.generate(workload, 1, blocks=3)
        assert a == workloads.generate(workload, 1, blocks=3)
        assert a != workloads.generate(workload, 2, blocks=3)


def _corrupt_first(call, corrupt):
    # Wrap Pass.call so that the first answer comes back corrupted.
    state = {"done": False}

    def wrapped(req):
        code, output, stderr = call(req)
        if not state["done"]:
            state["done"] = True
            output = corrupt(output)
        return code, output, stderr

    return wrapped


def _bump_coefficient(text: str) -> str:
    # The first line of a text series is "t^0: 1"; make it "t^0: 2".
    first, rest = text.split("\n", 1)
    assert first == "t^0: 1"
    return "t^0: 2\n" + rest


def _bump_multiplicity(vec):
    lam, c = next(iter(vec.coeffs.items()))
    return type(vec)(vec.n, {**vec.coeffs, lam: c + 1})


@pytest.mark.parametrize(
    "workload, corrupt",
    [
        ("series-powersum", _bump_coefficient),
        ("series-powersum", lambda text: "no series here\n"),
        ("schur-session", _bump_multiplicity),
        ("schur-session", lambda vec: None),
    ],
)
def test_loop_counts_a_corrupted_answer_as_failed(workload, corrupt):
    bench = Pass(workload, 11, traced=False)
    if workload == "series-powersum":
        # Start on a small text request, so the run stays short.
        bench.requests = [workloads.series_request(3, 8, "text")] * 3
    else:
        bench.requests = [{"kind": "schur", "g": 3, "n": 6}] * 3
    bench.call = _corrupt_first(bench.call, corrupt)
    res = bench.run(seconds=None, count=3)
    assert res["failed"] == 1
    assert len(res["errors"]) == 1


def _oracle():
    from hypeuler import hyperelliptic_core as core

    return workloads.Oracle(core.nonequivariant_series, core.chi_pointed)


def _cli(args: list[str]) -> str:
    import contextlib
    import io

    from hypeuler import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.run(args) == 0
    return buf.getvalue()


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_checker_rejects_one_changed_powersum_coefficient(fmt):
    oracle = _oracle()
    req = workloads.series_request(2, 7, fmt)
    out = _cli(req["args"])
    assert oracle.check(req, 0, out) is None
    # p1*p3 at t^4 is 2/3 for genus 2: change it to 7/6, which breaks the
    # integrality of the trivial multiplicity but not the p_1 sum.
    terms = workloads.parse_series(fmt, out)
    assert ("p1*p3", (2, 3)) in terms[4]
    if fmt == "json":
        doc = json.loads(out)
        for c in doc["terms"][4]["coeffs"]:
            if c["monomial"] == [[1, 1], [3, 1]]:
                c["value"] = "7/6"
        bad = json.dumps(doc)
    elif fmt == "csv":
        bad = out.replace("\n4,p1*p3,2/3\n", "\n4,p1*p3,7/6\n")
    else:
        bad = out.replace("t^4: 2/3*p1*p3 ", "t^4: 7/6*p1*p3 ")
    assert bad != out
    assert "multiplicity" in oracle.check(req, 0, bad)


def _text_term(num: int, key: str) -> str:
    return key if num == 1 else f"-{key}" if num == -1 else f"{num}*{key}"


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_checker_rejects_one_changed_schur_multiplicity(fmt):
    oracle = _oracle()
    req = workloads.series_request(3, 6, fmt, "schur")
    out = _cli(req["args"])
    assert oracle.check(req, 0, out) is None
    terms = workloads.parse_series(fmt, out)
    key, (num, den) = terms[6][0]
    assert den == 1
    # Move the first t^6 multiplicity one step away from zero.
    new = num + 1 if num > 0 else num - 1
    if fmt == "json":
        doc = json.loads(out)
        doc["terms"][6]["coeffs"][0]["value"] = str(new)
        bad = json.dumps(doc)
    elif fmt == "csv":
        bad = out.replace(f"\n6,{key},{num}\n", f"\n6,{key},{new}\n", 1)
    else:
        bad = out.replace(f"t^6: {_text_term(num, key)} ", f"t^6: {_text_term(new, key)} ")
    assert bad != out
    assert "dimension sum" in oracle.check(req, 0, bad)


def test_checker_rejects_a_changed_schur_vector_and_euler_value():
    from hypeuler import equivariant_schur

    oracle = _oracle()
    vec = equivariant_schur(3, 7)
    req = {"kind": "schur", "g": 3, "n": 7}
    assert oracle.check(req, 0, vec) is None
    assert oracle.check(req, 0, _bump_multiplicity(vec)) is not None
    lam = next(iter(vec.coeffs))
    half = type(vec)(vec.n, {**vec.coeffs, lam: vec.coeffs[lam] + Fraction(1, 2)})
    assert "non-integer" in oracle.check(req, 0, half)

    euler = {"kind": "euler", "g": 5, "n": 9, "fmt": "csv"}
    out = _cli(["euler", "--genus", "5", "--max-points", "9", "--format", "csv"])
    assert oracle.check(euler, 0, out) is None
    assert oracle.check(euler, 0, out.replace("\n4,-10\n", "\n4,-11\n")) is not None


def test_verify_check_needs_every_line_to_pass():
    good = "PASS a: x\nPASS b: y\n2/2 checks passed\n"
    assert workloads.check_verify(good) is None
    assert workloads.check_verify(good.replace("PASS b", "FAIL b")) is not None
    assert workloads.check_verify("PASS a: x\n1/2 checks passed\n") is not None


def test_scaling_uses_the_kernel_times_around_each_request():
    nominal = calibrate.NOMINAL_S
    kernel = [nominal] * 20 + [2 * nominal] * 20
    scaled = calibrate.scale([1.0] * 40, kernel)
    assert scaled[0] == 1.0
    assert scaled[-1] == 0.5
    # The 31 requests around request 20 met 15 fast and 16 slow kernels.
    assert scaled[20] == 0.5


def test_hook_dimension_matches_known_values():
    assert workloads.hook_dimension(()) == 1
    assert workloads.hook_dimension((3, 2)) == 5
    assert workloads.hook_dimension((2, 2, 1)) == 5
    assert workloads.hook_dimension((4, 3, 1)) == 70


def test_bare_directory_fails_without_a_result(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    for path in BENCH_DIR.glob("*.py"):
        (tmp_path / "benchmarks" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "cli-oneshot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
