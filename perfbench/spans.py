"""In-memory span tracer that wraps the library's public functions.

``Tracer.install()`` replaces each function named in ``TRACED`` with a
wrapper that records a span: name, start, end, parent span, the operation
(query or build) it belongs to, the benchmark phase, and a few attributes
read from arguments or results. The program's source is not touched; the
wrappers are attributes set on its modules and classes and are removed
again by ``uninstall()``.

``gateway.run_parallel`` maps work onto pool threads, where the caller's
context is lost. Its wrapper hands each item the run_parallel span as
parent and the caller's operation id, and records each item as a
``gateway.run_parallel.item`` span whose start gives the item's queue wait.

A span's self time is its duration minus the union of its children's
intervals, clipped to the span. A call that raises records no span.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import time
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from taxonav import baselines, builder, eval_harness, gateway, prompts, registry, search, taxonomy


@dataclass(slots=True)
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float
    op: str | None
    phase: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True, slots=True)
class _Context:
    span_id: int | None
    op: str | None


def _merge_attrs(args, _kwargs, result) -> dict:
    return {"groups_in": len(args[0]), "groups_out": len(result)}


def _select_attrs(args, _kwargs, _result) -> dict:
    return {"options": len(args[0].services)}


def _selection_attrs(_args, _kwargs, result) -> dict:
    return {"parse_failed": result.parse_failed}


def _json_attrs(_args, _kwargs, result) -> dict:
    return {"parse_failed": result is None}


def _split_attrs(args, _kwargs, _result) -> dict:
    tax, node_id = args[1], args[2]
    return {"depth": tax.node(node_id).depth}


# (owner, attribute, span name, attribute reader). Module functions are
# looked up through their module's globals at call time, so patching the
# module attribute reaches callers inside the package too.
TRACED: tuple[tuple[object, str, str, Callable | None], ...] = (
    (search, "retrieve", "search.retrieve", None),
    (search, "navigate", "search.navigate", None),
    (search, "dedup", "search.dedup", None),
    (search, "merge_small_groups", "search.merge_small_groups", _merge_attrs),
    (search, "select_services", "search.select_services", _select_attrs),
    (taxonomy, "load", "taxonomy.load", None),
    (taxonomy, "save", "taxonomy.save", None),
    (taxonomy, "validate", "taxonomy.validate", None),
    (taxonomy.Taxonomy, "parent_map", "taxonomy.parent_map", None),
    (taxonomy.Taxonomy, "lca_distance", "taxonomy.lca_distance", None),
    (taxonomy.Taxonomy, "top_level_of", "taxonomy.top_level_of", None),
    (taxonomy.Taxonomy, "add_child", "taxonomy.add_child", None),
    (registry, "load_registry", "registry.load_registry", None),
    (registry, "save_registry", "registry.save_registry", None),
    (gateway.LlmGateway, "chat", "gateway.chat", None),
    (gateway.LlmGateway, "select_indices", "gateway.select_indices", _selection_attrs),
    (gateway.LlmGateway, "chat_json", "gateway.chat_json", _json_attrs),
    (prompts.PromptTemplate, "render", "prompts.render", None),
    (builder, "build", "builder.build", None),
    (builder.TaxonomyBuilder, "split_node", "builder.split_node", _split_attrs),
    (builder.TaxonomyBuilder, "extract_keywords", "builder.extract_keywords", None),
    (builder.TaxonomyBuilder, "design_categories", "builder.design_categories", None),
    (builder.TaxonomyBuilder, "validate_root", "builder.validate_root", None),
    (builder.TaxonomyBuilder, "classify_services", "builder.classify_services", None),
    (builder.TaxonomyBuilder, "refine_drafts", "builder.refine_drafts", None),
    (builder.TaxonomyBuilder, "cross_domain_assign", "builder.cross_domain_assign", None),
    (baselines, "pure_llm_retrieve", "baselines.pure_llm_retrieve", None),
    (baselines, "build_embedding_index", "baselines.build_embedding_index", None),
    (baselines, "topk_retrieve", "baselines.topk_retrieve", None),
    (eval_harness, "write_run", "eval_harness.write_run", None),
    (eval_harness, "recompute_summary", "eval_harness.recompute_summary", None),
)


class Tracer:
    """Records spans while ``enabled``; idle wrappers cost one attribute read."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = False
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[_Context] = contextvars.ContextVar(
            "perfbench_span", default=_Context(None, None)
        )
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _record(self, name: str, fn: Callable, args, kwargs, attrs: Callable | None = None):
        parent = self._current.get()
        span_id = next(self._ids)
        token = self._current.set(_Context(span_id, parent.op))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._current.reset(token)
        span = Span(span_id, parent.span_id, name, start, end, parent.op, self.phase)
        if attrs is not None:
            span.attrs = attrs(args, kwargs, result)
        self.spans.append(span)
        return result

    def operation(self, op: str, name: str, fn: Callable, *args, **kwargs):
        """Runs fn as the root span of one query or build, tagging every
        span below it with the operation id."""
        if not self.enabled:
            return fn(*args, **kwargs)
        token = self._current.set(_Context(None, op))
        try:
            return self._record(name, fn, args, kwargs)
        finally:
            self._current.reset(token)

    # -- patching ------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, attrs: Callable | None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            return tracer._record(name, fn, args, kwargs, attrs)

        return functools.update_wrapper(wrapper, fn)

    def _wrap_run_parallel(self, fn: Callable):
        tracer = self

        def run_parallel(gw, mapped, items):
            if not tracer.enabled:
                return fn(gw, mapped, items)
            items = list(items)
            pooled = gw.workers > 1 and len(items) > 1

            def body(gw, mapped, items):
                caller = tracer._current.get()

                def carried(item):
                    token = tracer._current.set(caller)
                    try:
                        return tracer._record("gateway.run_parallel.item", mapped, (item,), {})
                    finally:
                        tracer._current.reset(token)

                return fn(gw, carried, items)

            return tracer._record(
                "gateway.run_parallel",
                body,
                (gw, mapped, items),
                {},
                lambda _a, _k, _r: {"items": len(items), "pooled": pooled},
            )

        return functools.update_wrapper(run_parallel, fn)

    def install(self, extra: tuple[tuple[object, str, str, Callable | None], ...] = ()) -> None:
        """Wraps every function in TRACED plus ``extra``, given in the same
        (owner, attribute, span name, attribute reader) form."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, attrs in (*TRACED, *extra):
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, attrs))
        original = gateway.LlmGateway.__dict__["run_parallel"]
        self._saved.append((gateway.LlmGateway, "run_parallel", original))
        gateway.LlmGateway.run_parallel = self._wrap_run_parallel(original)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- output --------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Writes one JSON object per span, times relative to the first span."""
        origin = min((s.start for s in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                record = {
                    "id": s.span_id,
                    "parent": s.parent,
                    "name": s.name,
                    "start_us": round((s.start - origin) * 1e6, 1),
                    "end_us": round((s.end - origin) * 1e6, 1),
                    "op": s.op,
                    "phase": s.phase,
                }
                if s.attrs:
                    record["attrs"] = s.attrs
                fh.write(json.dumps(record) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out: dict[int, float] = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(s.span_id, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out[s.span_id] = s.duration - covered
    return out
