"""Run ``python -m repro <args>`` with every layer boundary traced.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 areabench/host.py SPANS.json serve --load snapshot.npz --port 0

Installs the wrappers of :mod:`spans` before the program imports its
server, hands the remaining arguments to the program's own command-line
entry point, and writes every recorded span to ``SPANS.json`` when the
program exits (``serve`` exits cleanly on SIGINT).
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    spans.install(tracer)
    from repro.__main__ import main as program

    try:
        return program(argv)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    raise SystemExit(main())
