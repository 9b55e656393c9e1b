#!/usr/bin/env python3
"""Acceptance criterion 9, live: taxonomy search against full-catalog prompting.

Runs `taxonav eval` into OUT/run_taxonomy and `taxonav baseline --method
pure-llm` into OUT/run_pure_llm, both with --dataset live --backend http and
every argument not named here, so backend flags, --config and TAXONAV_*
variables work as for `taxonav build`. Then checks the dataset profile and
the bands: roughly 3k-15k tokens per query versus 50k-90k, with hit rate
within two points of the baseline. The registry and queries are read as JSONL
in the package's own field names. Exits 0 when every check passes, 1 when
one fails, 3 when the dataset cannot be read, else with a failed run's CLI code."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from taxonav import cli
from taxonav.errors import DataError
from taxonav.eval_harness import load_summary
from taxonav.registry import load_queries, load_registry, mean_ground_truth_size, save_queries

TAXONOMY_TOKEN_BAND = (3_000, 15_000)
PURE_LLM_TOKEN_BAND = (50_000, 90_000)
HIT_RATE_MARGIN = 0.02
# the expected dataset profile, each figure accepted within +-PROFILE_TOLERANCE of it
EXPECTED_SERVICES = 352
EXPECTED_QUERIES = 324
EXPECTED_MEAN_TRUTH = 12.7
PROFILE_TOLERANCE = 0.5


def check(ok: bool, line: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'}: {line}")
    return ok


def in_band(name: str, value: float, lo: float, hi: float) -> bool:
    return check(lo <= value <= hi, f"{name} = {value:.1f} (band {lo:g}-{hi:g})")


def near(name: str, value: float, expected: float) -> bool:
    slack = PROFILE_TOLERANCE * expected
    return in_band(name, value, expected - slack, expected + slack)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--registry", required=True)
    parser.add_argument("--queries", required=True)
    parser.add_argument("--taxonomy", required=True, help="directory with a built taxonomy")
    parser.add_argument("--out", required=True, help="directory for the two run directories")
    parser.add_argument("--limit", type=int, default=None, metavar="N",
                        help="run only the first N queries, written to OUT/queries.jsonl")
    args, passed_on = parser.parse_known_args(argv)
    if args.limit is not None and args.limit < 1:
        parser.error("--limit must be at least 1")

    try:
        registry = load_registry(args.registry)
        queries = load_queries(args.queries, registry)
    except DataError as exc:
        print(f"error category=data: {exc}", file=sys.stderr)
        return 3
    ok = near("services", len(registry), EXPECTED_SERVICES)
    ok &= near("queries", len(queries), EXPECTED_QUERIES)
    ok &= near("mean ground-truth size", mean_ground_truth_size(queries), EXPECTED_MEAN_TRUTH)

    out = Path(args.out)
    query_file = args.queries
    if args.limit is not None:
        query_file = out / "queries.jsonl"
        save_queries(queries[: args.limit], query_file)
    shared = ["--dataset", "live", "--backend", "http", "--registry", args.registry,
              "--queries", str(query_file), *passed_on]
    runs = {
        "taxonomy": ["eval", "--taxonomy", args.taxonomy],
        "pure_llm": ["baseline", "--method", "pure-llm"],
    }
    summaries = {}
    for name, command in runs.items():
        run_dir = out / f"run_{name}"
        code = cli.main([*command, "--run-dir", str(run_dir), *shared])
        if code:
            return code
        summaries[name] = load_summary(run_dir)

    tax, pure = summaries["taxonomy"], summaries["pure_llm"]
    ok &= in_band("taxonomy tokens/query", tax["tokens_per_query"], *TAXONOMY_TOKEN_BAND)
    ok &= in_band("pure-llm tokens/query", pure["tokens_per_query"], *PURE_LLM_TOKEN_BAND)
    ok &= check(
        tax["hit_rate"] >= pure["hit_rate"] - HIT_RATE_MARGIN,
        f"hit rate {tax['hit_rate']:.3f} vs pure-llm {pure['hit_rate']:.3f} "
        f"(margin {HIT_RATE_MARGIN})",
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
