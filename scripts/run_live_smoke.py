#!/usr/bin/env python3
"""Acceptance criterion 9, live: taxonomy search against full-catalog prompting.

Runs `taxonav eval` into OUT/run_taxonomy and `taxonav baseline --method
pure-llm` into OUT/run_pure_llm, both with --dataset live --backend http and
every argument not named here, so backend flags, --config and TAXONAV_*
variables work as for `taxonav build`. Then checks the dataset profile and
the bands: roughly 3k-15k tokens per query versus 50k-90k, with hit rate
within two points of the baseline. The registry and queries are read with
--format and --field-map as the two runs read them. Exits 0 when every check
passes, 1 when one fails, 3 when the dataset cannot be read, else with a
failed run's CLI code (4 when every query of a run failed)."""

from __future__ import annotations

import argparse
import json
import sys
from itertools import islice
from pathlib import Path

from taxonav import cli
from taxonav.errors import ConfigError, DataError
from taxonav.eval_harness import load_summary
from taxonav.registry import _iter_records, mean_ground_truth_size, write_atomic

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
    # --registry, --format and --field-map as the CLI defines them
    parser = argparse.ArgumentParser(description=__doc__, parents=[cli._dataset_parent()])
    parser.add_argument("--queries", required=True)
    parser.add_argument("--taxonomy", required=True, help="directory with a built taxonomy")
    parser.add_argument("--out", required=True, help="directory for the two run directories")
    parser.add_argument("--limit", type=int, default=None, metavar="N",
                        help="run only the first N queries, written to OUT/queries.FORMAT")
    args, passed_on = parser.parse_known_args(argv)
    if args.limit is not None and args.limit < 1:
        parser.error("--limit must be at least 1")

    out = Path(args.out)
    query_file = args.queries
    try:
        registry, queries = cli._load_dataset(args, args.queries)
        if args.limit is not None:  # the first N records, in the input's own format and keys
            query_file = out / f"queries.{args.format}"
            records = _iter_records(Path(args.queries), args.format)
            head = [record for _, record in islice(records, args.limit)]
            if args.format == "jsonl":
                lines = [json.dumps(record, ensure_ascii=False) + "\n" for record in head]
            else:
                lines = [json.dumps(head, ensure_ascii=False) + "\n"]
            write_atomic({query_file: lines})
    except (DataError, ConfigError) as exc:
        print(f"error category=data: {exc}", file=sys.stderr)
        return 3
    ok = near("services", len(registry), EXPECTED_SERVICES)
    ok &= near("queries", len(queries), EXPECTED_QUERIES)
    ok &= near("mean ground-truth size", mean_ground_truth_size(queries), EXPECTED_MEAN_TRUTH)

    dataset = ["--format", args.format, *(["--field-map", args.field_map] if args.field_map else [])]
    shared = ["--dataset", "live", "--backend", "http", "--registry", args.registry,
              "--queries", str(query_file), *dataset, *passed_on]
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
