"""The repository benchmark: one workload, one seed, one JSON result.

Run from the repository root::

    python3 areabench/run.py --workload paper_area --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same op list once untraced and once with every
layer boundary wrapped (see ``spans.py``), and prints the per-layer
metrics plus ``trace.overhead_pct``.  The last line of standard output
is the result object; the line before it is a context line (seed,
source fingerprint, versions, percentile ranks) that is never a metric.
Scratch files and span dumps go to ``.areabench/`` under the current
directory.  See ``NOTES.md`` for what each workload loads and bypasses.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

WORKLOADS = ("paper_area", "served_writes")
END_TO_END_UNITS = {
    "setup_s": "s",
    "rss_mb": "MB",
    "answered_frac": "frac",
    "read_p50_ms": "ms",
    "read_tail_ms": "ms",
    "read_rps": "1/s",
}


def source_context(root: str) -> dict:
    """Fingerprint and size of ``src/`` (the checkout has no git)."""
    digest = hashlib.sha1()
    lines = 0
    for base, dirs, files in sorted(os.walk(os.path.join(root, "src"))):
        dirs.sort()
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(base, name), "rb") as handle:
                data = handle.read()
            digest.update(name.encode() + b"\0" + data)
            lines += data.count(b"\n")
    return {"src_sha1": digest.hexdigest()[:12], "src_loc": lines}


def versions() -> dict:
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy_version}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("areabench: run from a checkout of the repository (no src/repro here)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))

    scratch = os.path.join(root, ".areabench")
    spans_dir = os.path.join(scratch, "spans")
    workdir = os.path.join(scratch, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(spans_dir, exist_ok=True)
    os.makedirs(workdir, exist_ok=True)
    trace = bool(args.trace)
    try:
        if args.workload == "paper_area":
            import paper_area

            out = paper_area.run(args.seed, args.seconds, trace, spans_dir)
        else:
            import served

            out = served.run(args.seed, args.seconds, trace, workdir, spans_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        import spans

        metrics = {name: {"value": float(out["metrics"][name]), "unit": spans.unit_of(name)} for name in spans.PER_LAYER}
    else:
        metrics = {name: {"value": float(out["metrics"][name]), "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        **versions(),
        **source_context(root),
        **out.get("context", {}),
    }
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
