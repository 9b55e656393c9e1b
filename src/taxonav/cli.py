"""Command line entry points for building, searching, and evaluating.

Runtime settings resolve in four layers, later ones winning: built-in
defaults, a --config JSON file, TAXONAV_* environment variables, then
explicit flags. Flags and config keys fill the RuntimeConfig fields of the
same name (--embed-model fills embedding_model). Each field's variable is
TAXONAV_ plus its flag, upper-cased with - turned to _ (--embed-model is
TAXONAV_EMBED_MODEL); an empty variable counts as unset. The API key is
read only from TAXONAV_API_KEY; it cannot appear in a config file and is
never written to the persisted config.json.

Exit codes: 0 success, 2 usage, 3 bad data or configuration, 4 backend
transport failure or an eval run in which every query failed, 1 anything
else.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from . import baselines, builder, eval_harness, search
from . import taxonomy as taxonomy_io
from .builder import BuildConfig
from .errors import ConfigError, DataError, DiscoveryError, TransportError
from .gateway import HttpBackend, LlmGateway, MockChatBackend, MockEmbeddingBackend
from .registry import (
    FieldMap,
    QueryCase,
    Registry,
    check_fields,
    decode_json,
    dump_json,
    field_types,
    json_text,
    load_queries,
    load_registry,
    mean_ground_truth_size,
    read_json,
    registry_stats,
)
from .search import MODES, SearchConfig

logger = logging.getLogger(__name__)

ENV_PREFIX = "TAXONAV_"
BACKENDS = ("mock", "http")
CONFIG_FILE = "config.json"
BUILD_REPORT_FILE = "build_report.json"

# dataclass field annotation -> the parser of an environment variable's text
_ENV_PARSERS = {"str": str, "str | None": str, "int": int, "float": float}


@dataclass
class RuntimeConfig:
    """Gateway-level settings shared by every subcommand."""

    backend: str = "mock"
    endpoint: str = ""
    chat_model: str = "mock-chat"
    embedding_model: str = "mock-embed"
    workers: int = 20
    retries: int = 3
    retry_backoff: float = 1.0
    cache_dir: str | None = None
    script: str | None = None
    api_key: str | None = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ConfigError(f"unknown backend {self.backend!r}; expected one of {BACKENDS}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.retries < 1:
            raise ConfigError("retries must be >= 1")
        backoff = self.retry_backoff
        if not (math.isfinite(backoff) and backoff >= 0):
            raise ConfigError(f"retry_backoff must be a finite number >= 0, not {backoff!r}")
        if self.backend == "http" and not self.endpoint:
            raise ConfigError(
                "the http backend needs an endpoint (--endpoint, config file, or TAXONAV_ENDPOINT)"
            )

    def public_dict(self) -> dict:
        """Everything except the API key; safe to persist."""
        payload = dataclasses.asdict(self)
        del payload["api_key"]
        return payload


def env_vars() -> dict[str, str]:
    """RuntimeConfig field -> its environment variable: TAXONAV_ plus its flag
    (its name for the API key, which has none), upper-cased, - turned to _."""
    flags = {action.dest: action.option_strings[-1] for action in _backend_parent()._actions}
    return {name: ENV_PREFIX + flags.get(name, name).lstrip("-").replace("-", "_").upper()
            for name in field_types(RuntimeConfig)}


def resolve_runtime(args: argparse.Namespace) -> RuntimeConfig:
    types = field_types(RuntimeConfig)
    path = Path(args.config) if args.config else None
    doc = _json_object("config file", path) if path else {}
    if "api_key" in doc:
        raise ConfigError(
            "the API key is read only from the TAXONAV_API_KEY environment "
            "variable; remove 'api_key' from the config file"
        )
    for key in doc:
        if key not in types:
            raise ConfigError(f"unknown config key {key!r} in {path}")

    values, variables = {}, env_vars()
    for f in dataclasses.fields(RuntimeConfig):
        name, var, (ok, what) = f.name, variables[f.name], types[f.name]
        if name in doc and not ok(doc[name]):
            raise ConfigError(f"config key {name!r} in {path} must be {what}, not {doc[name]!r:.80}")
        values[name] = doc.get(name, f.default)
        if raw := os.environ.get(var):  # an empty variable counts as unset
            try:
                values[name] = _ENV_PARSERS[f.type](raw)
            except ValueError:
                message = f"environment variable {var} must be {what}, not {raw!r:.80}"
                raise ConfigError(message) from None
        if getattr(args, name, None) is not None:  # each field but api_key is a flag's dest
            values[name] = getattr(args, name)
    return RuntimeConfig(**values)


def make_gateway(cfg: RuntimeConfig) -> LlmGateway:
    if cfg.backend == "mock":
        script = _json_object("mock script", Path(cfg.script)) if cfg.script else {}
        chat_backend = MockChatBackend.from_script(script)
        embedding_backend = MockEmbeddingBackend.from_script(script)
    else:
        import requests
        from requests.adapters import HTTPAdapter

        # requests pools 10 connections per host by default; with more workers
        # each map would close the surplus and the next map reopen them
        session = requests.Session()
        adapter = HTTPAdapter(pool_maxsize=cfg.workers)
        session.mount("http://", adapter)
        session.mount("https://", adapter)
        chat_backend = embedding_backend = HttpBackend(
            cfg.endpoint, api_key=cfg.api_key, session=session
        )
    return LlmGateway(
        chat_backend=chat_backend,
        embedding_backend=embedding_backend,
        chat_model=cfg.chat_model,
        embedding_model=cfg.embedding_model,
        retries=cfg.retries,
        retry_backoff=cfg.retry_backoff,
        cache_dir=cfg.cache_dir,
        workers=cfg.workers,
    )


def _json_object(what: str, path: Path | None = None, *, text: str | None = None) -> dict:
    """The JSON object in ``text``, or else in the UTF-8 file at ``path``.
    Raises ConfigError naming ``what`` and the path when the file cannot be
    read, is not JSON, or does not hold an object."""
    where = what if path is None else f"{what} {path}"
    if path is None:
        doc = decode_json(text, ConfigError, where)
    else:
        doc = read_json(path, ConfigError, where)
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must hold a JSON object")
    return doc


def _parse_field_map(raw: str | None) -> FieldMap | None:
    """Accepts an inline JSON object or a path to a JSON file."""
    if raw is None:
        return None
    text = raw.strip()
    if text.startswith("{"):
        where, doc = "field map", _json_object("field map", text=text)
    else:
        path = Path(text)
        where, doc = f"field map file {path}", _json_object("field map file", path)
    types = field_types(FieldMap)
    unknown = sorted(set(doc) - set(types))
    if unknown:
        raise ConfigError(f"unknown field map keys: {', '.join(unknown)}")
    check_fields(doc, types, where, ConfigError, types)
    return FieldMap(**doc)


def _load_dataset(
    args: argparse.Namespace, queries: str | None = None
) -> tuple[Registry, list[QueryCase] | None]:
    """The registry, and the query cases in the file ``queries`` when one is
    given, both read through the one parsed --field-map."""
    field_map = _parse_field_map(args.field_map)
    registry = load_registry(args.registry, format=args.format, field_map=field_map)
    if queries is None:
        return registry, None
    return registry, load_queries(queries, registry, format=args.format, field_map=field_map)


def _write_config(out_dir: Path, cfg: RuntimeConfig, extra: dict) -> None:
    """Persists the effective run configuration before any work happens."""
    payload = cfg.public_dict()
    payload.update(extra)
    dump_json(payload, out_dir / CONFIG_FILE)


def _from_flags(cls: type, args: argparse.Namespace):
    """The ``cls`` settings (BuildConfig or SearchConfig) read from the flags
    whose dests are its field names; the class checks its own ranges."""
    return cls(**{f.name: getattr(args, f.name) for f in dataclasses.fields(cls)})


# -- subcommands ---------------------------------------------------------------


def _build(args: argparse.Namespace, extra: dict, build: Callable) -> tuple:
    """Checks every setting, the mock script included, writes config.json,
    then saves in --out the tree and report that ``build(registry,
    build_cfg, gateway)`` returns. Returns the service count, the tree's
    stats, the report and --out."""
    cfg = resolve_runtime(args)
    build_cfg = _from_flags(BuildConfig, args)
    gateway = make_gateway(cfg)
    out_dir = Path(args.out)
    _write_config(
        out_dir, cfg, {"command": args.command, **extra, "build": dataclasses.asdict(build_cfg)}
    )

    registry, _ = _load_dataset(args)
    taxonomy, report = build(registry, build_cfg, gateway)
    taxonomy_io.save(taxonomy, out_dir)
    report.save(out_dir / BUILD_REPORT_FILE)
    return len(registry), taxonomy_io.stats(taxonomy), report, out_dir


def cmd_build(args: argparse.Namespace) -> int:
    count, tax_stats, report, out_dir = _build(args, {}, builder.build)
    print(
        f"built taxonomy over {count} services: "
        f"{tax_stats.total_categories} categories, {tax_stats.leaf_categories} leaves, "
        f"{report.total_calls()} chat calls -> {out_dir}"
    )
    return 0


def cmd_build_oneshot(args: argparse.Namespace) -> int:
    count, tax_stats, report, out_dir = _build(
        args,
        {"variant": args.variant},
        lambda registry, cfg, gateway: builder.build_oneshot(registry, args.variant, cfg, gateway),
    )
    print(
        f"one-shot ({report.method}) taxonomy over {count} services: "
        f"{tax_stats.total_categories} categories, {len(report.classification_failures)} "
        f"classification failures, {report.total_calls()} chat calls -> {out_dir}"
    )
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    cfg = resolve_runtime(args)
    search_cfg = _from_flags(SearchConfig, args)
    registry, _ = _load_dataset(args)
    taxonomy = taxonomy_io.load(args.taxonomy)
    result = search.retrieve(args.query, taxonomy, registry, make_gateway(cfg), search_cfg)
    payload = result.to_dict()
    if not args.trace:
        del payload["trace"]
    sys.stdout.write(json_text(payload))
    return 0


def _evaluate(
    args: argparse.Namespace, cfg: RuntimeConfig, extra: dict, setting: str, title: str,
    retriever: Callable,
) -> int:
    """Reads the mock script, if any, writes config.json, then scores the
    per-query retriever that ``retriever(registry, gateway)`` returns, writes
    the run to --run-dir and prints its summary line under ``title``.
    Returns 4 when every query failed, else 0."""
    gateway = make_gateway(cfg)
    run_dir = Path(args.run_dir)
    _write_config(run_dir, cfg, {"command": args.command, **extra, "dataset": args.dataset})

    registry, queries = _load_dataset(args, args.queries)
    run_one = retriever(registry, gateway)
    eval_cfg = eval_harness.EvalConfig(
        method=extra["method"], dataset=args.dataset, setting=setting, workers=cfg.workers
    )
    summary, records = eval_harness.evaluate(run_one, queries, eval_cfg)
    eval_harness.write_run(run_dir, summary, records)
    print(
        f"{title}: hit_rate={summary.hit_rate:.3f} recall={summary.recall:.3f} "
        f"over {summary.query_count} queries -> {run_dir}"
    )
    if summary.failure_count == summary.query_count:
        records_file = run_dir / eval_harness.PER_QUERY_FILE
        count = summary.query_count
        return _fail("backend", f"every query failed ({count} of {count}); see {records_file}", 4)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = resolve_runtime(args)
    search_cfg = _from_flags(SearchConfig, args)

    def retriever(registry: Registry, gateway: LlmGateway):
        taxonomy = taxonomy_io.load(args.taxonomy)
        return lambda case: search.retrieve(case.text, taxonomy, registry, gateway, search_cfg)

    extra = {
        "method": "taxonomy",
        "mode": args.mode,
        "theta_merge": args.merge_threshold,
        "taxonomy": str(args.taxonomy),
    }
    return _evaluate(args, cfg, extra, args.mode, f"taxonomy/{args.mode}", retriever)


def cmd_baseline(args: argparse.Namespace) -> int:
    cfg = resolve_runtime(args)
    method = args.method
    k = args.k
    if method in ("embed", "rewrite") and k is None:
        if args.shape is None:
            raise ConfigError(f"method {method!r} needs --k or --shape to pick a top-K")
        k = baselines.default_k(args.shape)
    if k is not None and k < 1:
        raise ConfigError(f"k must be positive, not {k}")
    setting = f"k={k}" if method in ("embed", "rewrite") else ""

    def retriever(registry: Registry, gateway: LlmGateway):
        if method == "pure-llm":
            return lambda case: baselines.pure_llm_retrieve(case.text, registry, gateway)
        index = baselines.build_embedding_index(registry, gateway)
        retrieve = baselines.topk_retrieve if method == "embed" else baselines.rewrite_retrieve
        return lambda case: retrieve(case.text, index, k, gateway)

    title = f"{method}{' ' + setting if setting else ''}"
    return _evaluate(args, cfg, {"method": method, "k": k}, setting, title, retriever)


def cmd_stats(args: argparse.Namespace) -> int:
    if not (args.registry or args.taxonomy):
        raise ConfigError("nothing to report: provide --registry and/or --taxonomy")
    if args.queries and not args.registry:
        raise ConfigError("--queries needs --registry to validate ground-truth ids")
    payload: dict = {}
    if args.registry:
        registry, queries = _load_dataset(args, args.queries)
        payload["registry"] = registry_stats(registry)
        if queries is not None:
            payload["queries"] = {
                "count": len(queries),
                "mean_ground_truth_size": mean_ground_truth_size(queries),
            }
    else:
        _parse_field_map(args.field_map)  # a bad map fails even with no registry to read
    if args.taxonomy:
        tax_stats = taxonomy_io.stats(taxonomy_io.load(args.taxonomy))
        payload["taxonomy"] = dataclasses.asdict(tax_stats)
    sys.stdout.write(json_text(payload))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    table = eval_harness.compare(args.run_dirs)
    print(table.render_text())
    if args.csv:
        table.to_csv(args.csv)
        print(f"wrote {args.csv}")
    return 0


# -- parser ----------------------------------------------------------------


def _backend_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    g = p.add_argument_group("backend")
    g.add_argument("--config", help="JSON file with runtime defaults (never the API key)")
    g.add_argument("--backend", choices=BACKENDS, default=None)
    g.add_argument("--endpoint", default=None, help="OpenAI-compatible base URL")
    g.add_argument("--chat-model", dest="chat_model", default=None)
    g.add_argument("--embed-model", dest="embedding_model", default=None)
    g.add_argument("--workers", type=int, default=None, help="parallel request cap")
    g.add_argument("--retries", type=int, default=None)
    g.add_argument("--retry-backoff", dest="retry_backoff", type=float, default=None)
    g.add_argument("--cache-dir", dest="cache_dir", default=None, help="embedding cache directory")
    g.add_argument("--script", default=None, help="scripted replies for the mock backend (JSON)")
    g.add_argument("-v", "--verbose", action="store_true")
    return p


def _dataset_parent(require_registry: bool = True) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    g = p.add_argument_group("dataset")
    g.add_argument("--registry", required=require_registry, help="service registry file")
    g.add_argument("--format", choices=("jsonl", "json"), default="jsonl")
    g.add_argument(
        "--field-map",
        dest="field_map",
        default=None,
        help="JSON object (or file) mapping canonical field names to dataset keys",
    )
    return p


def _build_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    g = p.add_argument_group("build thresholds")
    d = BuildConfig
    g.add_argument("--theta-kw", dest="keyword_threshold", metavar="THETA_KW", type=int,
                   default=d.keyword_threshold,
                   help="switch to keyword compression above this node size")
    g.add_argument("--theta-leaf", dest="leaf_threshold", metavar="THETA_LEAF", type=int,
                   default=d.leaf_threshold, help="stop splitting nodes at or below this size")
    g.add_argument("--max-depth", type=int, default=d.max_depth)
    g.add_argument("--generic-ratio", type=float, default=d.generic_ratio,
                   help="a service that matches more than max(1, ratio x drafts) drafts is generic")
    g.add_argument("--max-categories", type=int, default=d.max_categories)
    g.add_argument("--max-refine-iterations", type=int, default=d.max_refine_iterations)
    g.add_argument("--keyword-batch-size", type=int, default=d.keyword_batch_size)
    g.add_argument("--tiny-merge-threshold", type=int, default=d.tiny_merge_threshold)
    return p


def _search_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    g = p.add_argument_group("search")
    g.add_argument("--mode", choices=MODES, default=SearchConfig.mode)
    g.add_argument("--theta-merge", dest="merge_threshold", metavar="THETA_MERGE", type=int,
                   default=SearchConfig.merge_threshold, help="merge result groups smaller than this")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taxonav",
        description="LLM-navigated service taxonomy: build, search, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    backend = _backend_parent()
    dataset = _dataset_parent()
    build_flags = _build_parent()
    search_flags = _search_parent()

    p = sub.add_parser("build", parents=[backend, dataset, build_flags],
                       help="construct a taxonomy by recursive splitting")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("build-oneshot", parents=[backend, dataset, build_flags],
                       help="construct a taxonomy with one whole-tree design call")
    p.add_argument("--out", required=True)
    p.add_argument("--variant", default="base",
                   help="base, +freq, +refine, or +axis (plus sign optional)")
    p.set_defaults(func=cmd_build_oneshot)

    p = sub.add_parser("search", parents=[backend, dataset, search_flags],
                       help="answer one query against a built taxonomy")
    p.add_argument("--taxonomy", required=True, help="directory holding taxonomy.json/class.json")
    p.add_argument("--query", required=True)
    p.add_argument("--trace", action="store_true", help="include per-step trace in the output")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("eval", parents=[backend, dataset, search_flags],
                       help="run a query set through taxonomy search and score it")
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--run-dir", dest="run_dir", required=True)
    p.add_argument("--dataset", default="unknown", help="dataset name for reports")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("baseline", parents=[backend, dataset],
                       help="run a non-taxonomy retrieval baseline")
    p.add_argument("--method", required=True, choices=("pure-llm", "embed", "rewrite"))
    p.add_argument("--queries", required=True)
    p.add_argument("--run-dir", dest="run_dir", required=True)
    p.add_argument("--k", type=int, default=None, help="top-K for embedding methods")
    p.add_argument("--shape", choices=sorted(baselines.DEFAULT_K_BY_SHAPE), default=None,
                   help="dataset shape that picks the default top-K")
    p.add_argument("--dataset", default="unknown")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("stats", parents=[_dataset_parent(require_registry=False)],
                       help="print dataset and taxonomy statistics as JSON")
    p.add_argument("--taxonomy", default=None)
    p.add_argument("--queries", default=None)
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("compare", help="tabulate summaries from evaluation run directories")
    p.add_argument("run_dirs", nargs="+", metavar="RUN_DIR")
    p.add_argument("--csv", default=None, help="also write the table as CSV")
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    logging.basicConfig(
        level=logging.INFO if getattr(args, "verbose", False) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except TransportError as exc:
        return _fail("backend", exc, 4)
    except (DataError, ConfigError) as exc:
        return _fail("data", exc, 3)
    except DiscoveryError as exc:
        return _fail("internal", exc, 1)


def _fail(category: str, error: object, code: int) -> int:
    print(f"error category={category}: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
