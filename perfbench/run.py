#!/usr/bin/env python3
"""Benchmark for taxonav: tree build, narrow queries and broad queries.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload build|query_narrow|query_broad \\
        --seed N --seconds S --trace 0|1

Every chat call goes through a mock backend that answers from an oracle
and sleeps 20 ms + 5 us per estimated prompt token, outside the mock's
lock. Queries come from two closed-loop clients. The seed makes the
inputs; the library only sees the generated files.

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
runs the workload's main stage twice, untraced and then traced, and
reports per-layer metrics from spans recorded around the library's public
functions, plus the tracing overhead. Either way the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. Spans of a traced run are written to ``.perfbench_out/``.
The run exits with code 2 and prints no result when the library sources
are missing.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("build", "query_narrow", "query_broad")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="minimum length of the main stage")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "taxonav" / "__init__.py").is_file():
        print(f"perfbench: no taxonav package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import modes

    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        if args.trace:
            ledger, metrics = modes.traced(args.workload, args.seed, args.seconds, work, OUT_DIR)
        else:
            ledger, metrics = modes.end_to_end(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in ledger.failures[:20]:
        print(f"FAILED: {failure}")
    print(
        json.dumps(
            {
                "correct": not ledger.failures,
                "attempted": ledger.attempted,
                "failed": len(ledger.failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
