"""The package behaves the same when Python strips assert statements."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_package_has_no_assert_statements():
    # python -O removes assert statements, so invariants must raise.
    found = []
    for path in sorted((SRC / "hypeuler").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def _euler_stdout(*interpreter_flags: str) -> bytes:
    command = ["hypeuler.cli", "euler", "--genus", "7", "--max-points", "20"]
    proc = subprocess.run(
        [sys.executable, *interpreter_flags, "-m", *command],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        check=True,
        timeout=120,
    )
    return proc.stdout


def test_euler_output_is_the_same_under_optimize():
    plain = _euler_stdout()
    assert plain.startswith(b"chi(H_(g,n)) for genus g = 7\n")
    assert _euler_stdout("-O") == plain


# Each call passes one malformed key or argument to a public entry point.
MALFORMED_CALLS = """
from hypeuler import (
    PSPolynomial, SchurVector, centralizer_order, low_degree_coefficient,
    mn_character,
)
calls = [
    lambda: PSPolynomial({((2, 1), (1, 1)): 1}),
    lambda: PSPolynomial({((1, 0),): 1}),
    lambda: SchurVector(3, {(1, 2): 1}),
    lambda: SchurVector(3, {(2, 0, 1): 1}),
    lambda: mn_character((1, 2), (3,)),
    lambda: centralizer_order((0,)),
    lambda: low_degree_coefficient(3, ((5, 1),)),
]
for call in calls:
    try:
        call()
        print("accepted")
    except ValueError:
        print("ValueError")
"""


def test_malformed_keys_raise_under_optimize():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", MALFORMED_CALLS],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        check=True,
        timeout=120,
    )
    assert proc.stdout.split() == [b"ValueError"] * 7
