"""Metrics and run artifacts for retrieval evaluation.

Hit rate asks whether any ground-truth service came back; recall and
precision are macro-averaged over queries. Precision is labeled secondary
everywhere it is reported, because ground-truth coverage in tool-retrieval
benchmarks is incomplete: a "wrong" service can be a perfectly good answer
that the annotators never listed.

A run directory holds summary.json, per_query.jsonl, and the config.json
the CLI persisted before doing any work; the summary must always be
recomputable from the per-query lines bit for bit.
"""

from __future__ import annotations

import csv
import io
import json
import logging
from collections.abc import Callable, Iterable, Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from statistics import fmean

from .errors import ConfigError, DiscoveryError, SchemaError
from .registry import (
    QueryCase,
    check_fields,
    field_types,
    iter_jsonl,
    json_text,
    read_json,
    write_atomic,
)
from .gateway import metered
from .search import RetrievalResult, usage_fields

logger = logging.getLogger(__name__)

SUMMARY_FILE = "summary.json"
PER_QUERY_FILE = "per_query.jsonl"


def score_query(returned: Sequence[str], truth: Iterable[str]) -> tuple[int, float, float]:
    """(hit, recall, precision) for one query.

    Precision over an empty return is 0 by convention; an empty truth set
    is a configuration error, not a scorable case.
    """
    truth_set = set(truth)
    if not truth_set:
        raise ConfigError("cannot score a query with an empty ground-truth set")
    returned_set = set(returned)
    overlap = len(returned_set & truth_set)
    hit = 1 if overlap else 0
    recall = overlap / len(truth_set)
    precision = overlap / len(returned_set) if returned_set else 0.0
    return hit, recall, precision


@dataclass
class EvalConfig:
    method: str
    dataset: str = "unknown"
    setting: str = ""  # mode name or K value, whatever distinguishes the run
    workers: int = 8

    def __post_init__(self) -> None:
        if not self.method:
            raise ConfigError("eval config needs a method name")
        if self.workers < 1:
            raise ConfigError("workers must be positive")


@dataclass
class PerQueryRecord:
    query_id: str
    returned: list[str]
    truth: list[str]
    hit: int
    recall: float
    precision: float
    calls: int
    prompt_tokens: int
    output_tokens: int
    error: str | None = None
    flags: list[str] = field(default_factory=list)
    trace: list[dict] = field(default_factory=list)

    @classmethod
    def from_dict(cls, record: object, where: str) -> "PerQueryRecord":
        """The record a per_query.jsonl line holds. Raises SchemaError, led
        by ``where``, unless every field has its annotated type; only
        error, flags and trace may be absent."""
        if not isinstance(record, dict):
            raise SchemaError(f"{where} is not a JSON object")
        types = field_types(cls)
        check_fields(record, types, where, SchemaError, ("error", "flags", "trace"))
        return cls(**{key: record[key] for key in types if key in record})


@dataclass
class Summary:
    method: str
    dataset: str
    setting: str
    query_count: int
    failure_count: int
    hit_rate: float
    recall: float
    precision: float
    tokens_per_query: float
    calls_per_query: float

    def to_dict(self) -> dict:
        return {**asdict(self), "precision_is_secondary": True}


def summarize(records: Iterable[PerQueryRecord], cfg: EvalConfig) -> Summary:
    """Macro averages over per-query records, in record order, in one pass
    over any iterable: only each field's values are kept, not the records."""
    hits: list[int] = []
    recalls: list[float] = []
    precisions: list[float] = []
    tokens: list[int] = []
    calls: list[int] = []
    failures = 0
    for r in records:
        hits.append(r.hit)
        recalls.append(r.recall)
        precisions.append(r.precision)
        tokens.append(r.prompt_tokens + r.output_tokens)
        calls.append(r.calls)
        failures += bool(r.error)
    if not hits:
        raise ConfigError("cannot summarize an empty record list")
    return Summary(
        method=cfg.method,
        dataset=cfg.dataset,
        setting=cfg.setting,
        query_count=len(hits),
        failure_count=failures,
        hit_rate=fmean(hits),
        recall=fmean(recalls),
        precision=fmean(precisions),
        tokens_per_query=fmean(tokens),
        calls_per_query=fmean(calls),
    )


def evaluate(
    retrieve_fn: Callable[[QueryCase], RetrievalResult],
    queries: Sequence[QueryCase],
    cfg: EvalConfig,
) -> tuple[Summary, list[PerQueryRecord]]:
    """Runs the retriever over every query in parallel, in stable order.

    A query whose retrieval raises a package error is recorded as a failure,
    with an empty return and the calls it made, instead of aborting the run.
    """
    if not queries:
        raise ConfigError("cannot evaluate over an empty query list")

    def run_one(query: QueryCase) -> PerQueryRecord:
        error = None
        with metered() as usage:
            try:
                result = retrieve_fn(query)
            except DiscoveryError as exc:
                logger.error("retrieval failed for query %s: %s", query.id, exc)
                result = RetrievalResult(service_ids=[], **usage_fields(usage.snapshot()))
                error = str(exc)
        hit, recall, precision = score_query(result.service_ids, query.ground_truth)
        return PerQueryRecord(
            query_id=query.id,
            returned=list(result.service_ids),
            truth=sorted(query.ground_truth),
            hit=hit,
            recall=recall,
            precision=precision,
            calls=result.calls,
            prompt_tokens=result.prompt_tokens,
            output_tokens=result.output_tokens,
            error=error,
            flags=list(result.flags),
            # vars(), not asdict(), here and in write_run: asdict deep-copies
            # every field, tens of times slower, for every step and record.
            # Each step is made for this query alone, so the record keeps the
            # step's own attribute dict rather than a copy of it.
            trace=[vars(step) for step in result.trace],
        )

    if cfg.workers <= 1 or len(queries) <= 1:
        records = [run_one(q) for q in queries]
    else:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            records = list(pool.map(run_one, queries))
    return summarize(records, cfg), records


# -- run artifacts ------------------------------------------------------------


def write_run(run_dir: str | Path, summary: Summary, records: Sequence[PerQueryRecord]) -> None:
    """Writes summary.json and per_query.jsonl. Raises DataError, before
    either file is replaced, if a string cannot be written as UTF-8."""
    run_dir = Path(run_dir)
    write_atomic({
        run_dir / SUMMARY_FILE: [json_text(summary.to_dict())],
        run_dir / PER_QUERY_FILE: (
            json.dumps(vars(record), ensure_ascii=False, sort_keys=True) + "\n" for record in records
        ),
    })


def load_summary(run_dir: str | Path) -> dict:
    summary = read_json(Path(run_dir) / SUMMARY_FILE, SchemaError)
    if not isinstance(summary, dict):
        raise SchemaError(f"run {run_dir}: {SUMMARY_FILE} must hold a JSON object")
    check_fields(summary, field_types(Summary), f"run {run_dir}: summary", SchemaError)
    return summary


def _iter_records(run_dir: str | Path) -> Iterator[PerQueryRecord]:
    """per_query.jsonl's records, read one line at a time."""
    path = Path(run_dir) / PER_QUERY_FILE
    for lineno, record in iter_jsonl(path, SchemaError):
        yield PerQueryRecord.from_dict(record, f"{path}: line {lineno}: per-query record")


def load_records(run_dir: str | Path) -> list[PerQueryRecord]:
    return list(_iter_records(run_dir))


def recompute_summary(run_dir: str | Path) -> Summary:
    """Rebuilds the summary from per_query.jsonl; must match summary.json
    exactly (same arithmetic, same order). Records are summarized as they
    are read, so no more than one is held at a time."""
    existing = load_summary(run_dir)
    cfg = EvalConfig(
        method=existing["method"], dataset=existing["dataset"], setting=existing["setting"]
    )
    return summarize(_iter_records(run_dir), cfg)


@dataclass
class ComparisonTable:
    rows: list[dict]

    def render_text(self) -> str:
        headers = [
            "method", "dataset", "setting", "queries", "hit_rate",
            "recall", "prec(2nd)", "tok/q", "calls/q",
        ]
        body = [
            [
                str(row["method"]),
                str(row["dataset"]),
                str(row["setting"]),
                str(row["query_count"]),
                f"{row['hit_rate']:.4f}",
                f"{row['recall']:.4f}",
                f"{row['precision']:.4f}",
                f"{row['tokens_per_query']:.1f}",
                f"{row['calls_per_query']:.2f}",
            ]
            for row in self.rows
        ]
        widths = [max(len(h), *(len(r[i]) for r in body)) if body else len(h) for i, h in enumerate(headers)]
        lines = [
            "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
            "  ".join("-" * widths[i] for i in range(len(headers))),
        ]
        lines.extend("  ".join(r[i].ljust(widths[i]) for i in range(len(headers))) for r in body)
        lines.append("precision is a secondary metric: benchmark ground truth is incomplete")
        return "\n".join(lines)

    def to_csv(self, path: str | Path) -> None:
        fields = list(field_types(Summary))
        text = io.StringIO()
        writer = csv.DictWriter(text, fieldnames=fields)
        writer.writeheader()
        for row in self.rows:
            writer.writerow({key: row[key] for key in fields})
        write_atomic({Path(path): [text.getvalue()]})


def compare(run_dirs: Sequence[str | Path]) -> ComparisonTable:
    """Aligns several runs into one table, best hit rate first."""
    if not run_dirs:
        raise ConfigError("compare needs at least one run directory")
    rows = [load_summary(run_dir) for run_dir in run_dirs]
    rows.sort(key=lambda row: (-row["hit_rate"], row["method"], row["setting"]))
    return ComparisonTable(rows=rows)
