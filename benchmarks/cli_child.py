"""``python -m hypeuler.cli`` with span tracing, for the traced cli-oneshot pass.

Usage: ``python3 benchmarks/cli_child.py <hypeuler arguments>``.  Stdout and
the exit code are those of the command line; the span totals follow on the
last line of stderr, after ``MARKER``.
"""

from __future__ import annotations

import json
import sys

import spans

MARKER = "hypeuler-bench-trace "


def main(argv: list[str]) -> int:
    tracer = spans.Tracer()
    tracer.install()
    from hypeuler import cli

    code = cli.run(argv)
    sys.stdout.flush()
    print(MARKER + json.dumps(tracer.payload()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
