"""The repository benchmark: ``engine``, ``serve`` and ``paper`` workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload engine --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is the separate traced run that prints the per-layer
metrics.  Either way the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``, preceded by a
table of every metric with its unit and sample count.  A failed output
check exits 1 and prints no result; a checkout without ``src/repro``
exits 2.  See ``perfbench/README.md``.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import harness  # noqa: E402

os.environ.update(harness.BLAS_ENV)  # before anything imports numpy

import engine  # noqa: E402
import paper  # noqa: E402
import serving  # noqa: E402

WORKLOADS = {"engine": engine, "serve": serving, "paper": paper}
EXPECTED = Path(__file__).resolve().parent / "expected.json"


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed: the same seed, the same inputs")
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="sizes the measured work (see README)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run printing per-layer metrics")
    # Internal: the fresh processes the workloads start.
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--paper-task", choices=paper.ARTIFACTS,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        harness.import_repro()
    except harness.MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    try:
        if args.setup_only:
            print(json.dumps(
                {"setup_s": workload.setup_only(args.seed, STARTED)}))
            return 0
        if args.paper_task:
            print(json.dumps(paper.child(args.paper_task, bool(args.trace),
                                         STARTED)))
            return 0
        expected = json.loads(EXPECTED.read_text())
        metrics, attempted, host = workload.run(
            args.seed, args.seconds, bool(args.trace), STARTED, expected)
    except harness.CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        harness.clean_scratch()
    harness.emit(metrics, attempted, host)
    return 0


if __name__ == "__main__":
    sys.exit(main())
