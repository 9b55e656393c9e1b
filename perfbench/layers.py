"""Per-layer metrics derived from the spans of a traced run.

Counts and times of the main stage are per operation: per query on the
query workloads, per build on ``build``. Where a layer does not run in a
workload's main stage its per-operation metrics read 0 (search on
``build``, the builder on the query workloads). Load, save, validate and
eval-harness times are per call over the whole traced run, and
``gateway.run_parallel.queue_wait_ms`` is the mean wait of a pooled item
from the ``run_parallel`` call to the start of its work. Times are in
milliseconds: ``.ms`` is span time, ``.self_ms`` is span time minus child
spans. The self time of a ``gateway.run_parallel`` item (the mapped
closure) counts toward the function that called ``run_parallel``.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import Span, self_times

GATEWAY_LABELS = (
    "build.keyword",
    "build.design",
    "build.classify",
    "build.refine",
    "build.cross_domain",
    "search.navigate",
    "search.select",
)
BUILD_PHASES = ("keyword", "design", "classify", "refine", "cross_domain")
SPLIT_DEPTHS = (0, 1)
REASKING = ("gateway.select_indices", "gateway.chat_json", "builder.design_categories", "builder.refine_drafts")


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


class SpanIndex:
    def __init__(self, spans: list[Span]) -> None:
        self.self_s = self_times(spans)
        self.children: dict[int, list[Span]] = defaultdict(list)
        self.by_name: dict[tuple[str, str], list[Span]] = defaultdict(list)
        for s in spans:
            if s.parent is not None:
                self.children[s.parent].append(s)
            self.by_name[s.phase, s.name].append(s)

    def named(self, name: str, phase: str | None = "main") -> list[Span]:
        if phase is not None:
            return self.by_name.get((phase, name), [])
        return [s for (_, n), group in self.by_name.items() if n == name for s in group]

    def kids(self, span: Span, name: str) -> list[Span]:
        return [c for c in self.children.get(span.span_id, ()) if c.name == name]

    def layer_self_s(self, span: Span) -> float:
        """Own self time plus the self time of run_parallel items it mapped."""
        total = self.self_s[span.span_id]
        for pool in self.kids(span, "gateway.run_parallel"):
            total += sum(self.self_s[i.span_id] for i in self.kids(pool, "gateway.run_parallel.item"))
        return total


def derive(spans: list[Span], n_ops: int, extra: dict) -> dict[str, tuple[float, str]]:
    """All per-layer metrics as name -> (value, unit).

    ``extra`` holds what spans do not show. From the untraced pass of the
    same run: ``peak_inflight``, ``mean_inflight``, ``critical_path_ratio``,
    ``bound_ratio`` and ``overhead_pct``. From the traced builds:
    ``calls_by_phase``, the mean of ``BuildReport.calls_by_phase``. From
    the reference retrievers: ``pure_llm_tokens`` and ``taxonomy_tokens``.
    """
    ix = SpanIndex(spans)
    ops = max(n_ops, 1)
    out: dict[str, tuple[float, str]] = {}

    def per_op_ms(name: str) -> float:
        return 1000 * sum(s.duration for s in ix.named(name)) / ops

    def per_op_count(name: str) -> float:
        return len(ix.named(name)) / ops

    def per_call_ms(name: str) -> float:
        return 1000 * _mean(s.duration for s in ix.named(name, phase=None))

    # search
    navigates = ix.named("search.navigate")
    merges = ix.named("search.merge_small_groups")
    selects = ix.named("search.select_services")
    out["search.retrieve.self_ms"] = (
        1000 * sum(ix.layer_self_s(s) for s in ix.named("search.retrieve")) / ops, "ms")
    out["search.navigate.self_ms"] = (1000 * sum(ix.layer_self_s(s) for s in navigates) / ops, "ms")
    out["search.navigate.levels"] = (
        sum(len(ix.kids(s, "gateway.run_parallel")) for s in navigates) / ops, "count")
    out["search.dedup.ms"] = (per_op_ms("search.dedup"), "ms")
    out["search.merge_small_groups.ms"] = (per_op_ms("search.merge_small_groups"), "ms")
    out["search.merge.groups_in"] = (sum(s.attrs["groups_in"] for s in merges) / ops, "count")
    out["search.merge.groups_out"] = (sum(s.attrs["groups_out"] for s in merges) / ops, "count")
    out["search.select_services.calls"] = (len(selects) / ops, "count")
    out["search.select.options_mean"] = (_mean(s.attrs["options"] for s in selects), "count")
    out["search.critical_path_ratio"] = (extra["critical_path_ratio"], "ratio")

    # taxonomy
    out["taxonomy.load_ms"] = (per_call_ms("taxonomy.load"), "ms")
    out["taxonomy.save_ms"] = (per_call_ms("taxonomy.save"), "ms")
    out["taxonomy.validate_ms"] = (per_call_ms("taxonomy.validate"), "ms")
    out["taxonomy.parent_map.calls"] = (per_op_count("taxonomy.parent_map"), "count")
    out["taxonomy.parent_map.ms"] = (per_op_ms("taxonomy.parent_map"), "ms")
    out["taxonomy.lca_distance.calls"] = (per_op_count("taxonomy.lca_distance"), "count")
    out["taxonomy.top_level_of.calls"] = (per_op_count("taxonomy.top_level_of"), "count")
    out["taxonomy.add_child.calls"] = (per_op_count("taxonomy.add_child"), "count")

    # gateway
    backends = ix.named("gateway.backend")
    chats = ix.named("gateway.chat")
    pools = [s for s in ix.named("gateway.run_parallel") if s.attrs["pooled"]]
    out["gateway.calls"] = (len(backends) / ops, "count")
    by_label: dict[str, int] = defaultdict(int)
    for s in backends:
        by_label[s.attrs["label"]] += 1
    for label in GATEWAY_LABELS:
        out[f"gateway.calls.{label}"] = (by_label[label] / ops, "count")
    out["gateway.prompt_tokens"] = (sum(s.attrs["prompt_tokens"] for s in backends) / ops, "tokens")
    out["gateway.output_tokens"] = (sum(s.attrs["output_tokens"] for s in backends) / ops, "tokens")
    out["gateway.chat.self_ms"] = (1000 * sum(ix.self_s[s.span_id] for s in chats) / ops, "ms")
    out["gateway.backend.wait_ms"] = (per_op_ms("gateway.backend"), "ms")
    out["gateway.peak_inflight"] = (extra["peak_inflight"], "count")
    out["gateway.mean_inflight"] = (extra["mean_inflight"], "count")
    reasks = sum(
        max(0, len(ix.kids(s, "gateway.chat")) - 1) for name in REASKING for s in ix.named(name)
    )
    out["gateway.reasks"] = (reasks / ops, "count")
    failures = sum(
        1
        for name in ("gateway.select_indices", "gateway.chat_json")
        for s in ix.named(name)
        if s.attrs["parse_failed"]
    )
    out["gateway.parse_failures"] = (failures / ops, "count")
    retries = sum(max(0, len(ix.kids(s, "gateway.backend")) - 1) for s in chats)
    out["gateway.transport_retries"] = (retries / ops, "count")
    out["gateway.run_parallel.pools"] = (len(pools) / ops, "count")
    waits = [item.start - pool.start for pool in pools for item in ix.kids(pool, "gateway.run_parallel.item")]
    out["gateway.run_parallel.queue_wait_ms"] = (1000 * _mean(waits), "ms")

    # prompts
    renders = ix.named("prompts.render")
    out["prompts.render.calls"] = (len(renders) / ops, "count")
    out["prompts.render.self_ms"] = (1000 * sum(ix.self_s[s.span_id] for s in renders) / ops, "ms")

    # builder
    splits = ix.named("builder.split_node")
    for depth in SPLIT_DEPTHS:
        total = sum(s.duration for s in splits if s.attrs["depth"] == depth)
        out[f"builder.split_node.ms.depth{depth}"] = (1000 * total / ops, "ms")
    for name in ("extract_keywords", "design_categories", "validate_root", "classify_services", "cross_domain_assign"):
        out[f"builder.{name}.ms"] = (per_op_ms(f"builder.{name}"), "ms")
    out["builder.refine_drafts.calls"] = (per_op_count("builder.refine_drafts"), "count")
    for phase in BUILD_PHASES:
        out[f"builder.calls.{phase}"] = (extra["calls_by_phase"].get(phase, 0), "count")
    out["builder.bound_ratio"] = (extra["bound_ratio"], "ratio")

    # registry
    out["registry.load_ms"] = (per_call_ms("registry.load_registry"), "ms")
    out["registry.save_ms"] = (per_call_ms("registry.save_registry"), "ms")

    # baselines
    out["baselines.pure_llm.tokens_per_query"] = (extra["pure_llm_tokens"], "tokens")
    out["baselines.taxonomy.tokens_per_query"] = (extra["taxonomy_tokens"], "tokens")
    out["baselines.token_ratio"] = (extra["pure_llm_tokens"] / extra["taxonomy_tokens"], "ratio")
    out["baselines.embed_index.ms"] = (per_call_ms("baselines.build_embedding_index"), "ms")
    out["baselines.topk.ms"] = (per_call_ms("baselines.topk_retrieve"), "ms")

    # eval harness
    out["eval_harness.write_run.ms"] = (per_call_ms("eval_harness.write_run"), "ms")
    out["eval_harness.recompute_summary.ms"] = (per_call_ms("eval_harness.recompute_summary"), "ms")

    out["trace.overhead_pct"] = (extra["overhead_pct"], "%")
    return out
