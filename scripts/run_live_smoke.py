#!/usr/bin/env python3
"""Live smoke run against a real OpenAI-compatible endpoint.

Evaluates taxonomy search and the pure-catalog baseline over a real dataset,
then checks cost and quality bands: taxonomy search should spend roughly
3k-15k tokens per query versus 50k-90k for the baseline, and its hit rate
must stay within two points of the baseline. Requires TAXONAV_ENDPOINT and
TAXONAV_API_KEY in the environment; the key is never read from flags."""

from __future__ import annotations

import argparse
import logging
import os
from pathlib import Path

from taxonav import taxonomy as taxonomy_io
from taxonav.baselines import pure_llm_retrieve
from taxonav.cli import RuntimeConfig, make_gateway
from taxonav.errors import ConfigError
from taxonav.eval_harness import EvalConfig, evaluate, write_run
from taxonav.registry import load_queries, load_registry
from taxonav.search import SearchConfig, retrieve

logger = logging.getLogger("run_live_smoke")

TAXONOMY_TOKEN_BAND = (3_000, 15_000)
PURE_LLM_TOKEN_BAND = (50_000, 90_000)
HIT_RATE_MARGIN = 0.02


def band_check(name: str, value: float, lo: float, hi: float) -> bool:
    ok = lo <= value <= hi
    print(f"{'PASS' if ok else 'FAIL'}: {name} = {value:.1f} (band {lo}-{hi})")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--registry", required=True)
    parser.add_argument("--queries", required=True)
    parser.add_argument("--taxonomy", required=True, help="directory with a built taxonomy")
    parser.add_argument("--out", required=True, help="directory for the two run artifacts")
    parser.add_argument("--chat-model", dest="chat_model", default=None)
    parser.add_argument("--embed-model", dest="embedding_model", default=None)
    parser.add_argument("--limit", type=int, default=None, help="cap the number of queries")
    parser.add_argument("--workers", type=int, default=8)
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING)

    endpoint = os.environ.get("TAXONAV_ENDPOINT", "")
    if not endpoint:
        raise ConfigError("set TAXONAV_ENDPOINT to an OpenAI-compatible base URL")
    cfg = RuntimeConfig(
        backend="http",
        endpoint=endpoint,
        api_key=os.environ.get("TAXONAV_API_KEY"),
        workers=args.workers,
    )
    if args.chat_model:
        cfg.chat_model = args.chat_model
    if args.embedding_model:
        cfg.embedding_model = args.embedding_model
    gateway = make_gateway(cfg)

    registry = load_registry(args.registry)
    queries = load_queries(args.queries, registry)
    if args.limit:
        queries = queries[: args.limit]
    taxonomy = taxonomy_io.load(args.taxonomy)
    out = Path(args.out)

    search_cfg = SearchConfig(mode="get_all")
    tax_summary, tax_records = evaluate(
        lambda case: retrieve(case.text, taxonomy, registry, gateway, search_cfg),
        queries,
        EvalConfig(method="taxonomy", dataset="live", setting="get_all", workers=args.workers),
    )
    write_run(out / "run_taxonomy", tax_summary, tax_records)

    pure_summary, pure_records = evaluate(
        lambda case: pure_llm_retrieve(case.text, registry, gateway),
        queries,
        EvalConfig(method="pure-llm", dataset="live", setting="", workers=args.workers),
    )
    write_run(out / "run_pure_llm", pure_summary, pure_records)

    ok = band_check(
        "taxonomy tokens/query", tax_summary.tokens_per_query, *TAXONOMY_TOKEN_BAND
    )
    ok &= band_check(
        "pure-llm tokens/query", pure_summary.tokens_per_query, *PURE_LLM_TOKEN_BAND
    )
    margin_ok = tax_summary.hit_rate >= pure_summary.hit_rate - HIT_RATE_MARGIN
    print(
        f"{'PASS' if margin_ok else 'FAIL'}: hit rate {tax_summary.hit_rate:.3f} vs "
        f"pure-llm {pure_summary.hit_rate:.3f} (margin {HIT_RATE_MARGIN})"
    )
    ok &= margin_ok
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
