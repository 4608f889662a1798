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
