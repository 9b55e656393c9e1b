"""Progressive-disclosure retrieval over a built taxonomy.

A query descends the tree level by level: each chat call sees exactly one
node's children and picks the relevant ones, so no prompt ever enumerates
the registry. Reached leaves are deduplicated first-come-first-served,
undersized leaf groups are merged by tree distance to keep selection
prompts worth their overhead, and a final per-group call picks services.

The three modes (get_all, get_important, get_one) share all machinery and
differ only in the instruction sentence injected into the two prompts.

Parallel fan-out is level-synchronous with results merged in child-index
order, so retrieval is deterministic for a fixed backend script.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field
from itertools import combinations
from statistics import fmean

from . import prompts
from .errors import ConfigError
from .gateway import LlmGateway, metered
from .registry import Registry
from .taxonomy import Taxonomy

logger = logging.getLogger(__name__)

MODES = ("get_all", "get_important", "get_one")

NAVIGATE_INSTRUCTIONS = {
    "get_all": "Select all categories that could contain query-relevant services.",
    "get_important": (
        "Select all categories that could contain query-relevant services, "
        "but deduplicate services with the same function."
    ),
    "get_one": "Always select the single most relevant branch.",
}

SELECT_INSTRUCTIONS = {
    "get_all": "Select every service relevant to the query.",
    "get_important": (
        "Select the services relevant to the query, "
        "but deduplicate services with the same function."
    ),
    "get_one": "Select the single most relevant service.",
}


@dataclass
class SearchConfig:
    mode: str = "get_all"
    merge_threshold: int = 30

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"unknown search mode {self.mode!r}; expected one of {MODES}")
        if self.merge_threshold < 1:
            raise ConfigError("merge_threshold must be positive")


@dataclass
class LeafHit:
    """One reached leaf (or merged group of leaves) and its services in
    presentation order. leaf_id is the representative leaf."""

    leaf_id: str
    services: list[str]


@dataclass
class TraceStep:
    kind: str  # navigate | select
    node_id: str
    options_shown: int
    chosen: list[int]
    dropped: int = 0
    parse_failed: bool = False
    depth: int = 0


@dataclass
class RetrievalResult:
    service_ids: list[str]
    trace: list[TraceStep] = field(default_factory=list)
    calls: int = 0
    navigation_calls: int = 0
    selection_calls: int = 0
    prompt_tokens: int = 0
    output_tokens: int = 0
    depth_reached: int = 0
    branches_per_level: float = 0.0
    groups_visited: int = 0
    flags: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def usage_fields(snap: dict) -> dict[str, int]:
    """The calls and token fields of a RetrievalResult, from a snapshot of
    the meter of the metered() scope that the retrieval ran in."""
    return {
        "calls": snap["total_calls"],
        "prompt_tokens": snap["total_prompt_tokens"],
        "output_tokens": snap["total_output_tokens"],
    }


def navigate(
    taxonomy: Taxonomy,
    query: str,
    mode: str,
    gateway: LlmGateway,
) -> tuple[list[LeafHit], list[TraceStep]]:
    """Descends from the root, one chat call per visited internal node.

    Fan-out is processed level by level with parallel calls; hits and trace
    steps come back in depth-first child-index order regardless of thread
    scheduling. An empty or unparseable selection prunes that subtree.
    """
    template = prompts.load("search_navigate")
    instruction = NAVIGATE_INSTRUCTIONS[mode]
    hits: list[tuple[tuple[int, ...], LeafHit]] = []
    steps: list[tuple[tuple[int, ...], TraceStep]] = []

    frontier: list[tuple[tuple[int, ...], str]] = [((), taxonomy.root_id)]
    while frontier:
        internal: list[tuple[tuple[int, ...], str]] = []
        for path, node_id in frontier:
            node = taxonomy.node(node_id)
            if node.is_leaf():
                hits.append((path, LeafHit(leaf_id=node_id, services=list(node.service_ids))))
            else:
                internal.append((path, node_id))
        if not internal:
            break

        def call(entry: tuple[tuple[int, ...], str]):
            _, node_id = entry
            children = taxonomy.node(node_id).children
            system, user = template.render(
                mode_instruction=instruction,
                query=query,
                options=prompts.category_options(taxonomy.node(c) for c in children),
            )
            return gateway.select_indices(
                system, user, label="search.navigate", n_options=len(children)
            )

        selections = gateway.run_parallel(call, internal)
        next_frontier: list[tuple[tuple[int, ...], str]] = []
        for (path, node_id), sel in zip(internal, selections):
            node = taxonomy.node(node_id)
            steps.append(
                (
                    path,
                    TraceStep(
                        kind="navigate",
                        node_id=node_id,
                        options_shown=len(node.children),
                        chosen=list(sel.indices),
                        dropped=sel.dropped,
                        parse_failed=sel.parse_failed,
                        depth=node.depth,
                    ),
                )
            )
            for idx in sel.indices:
                next_frontier.append((path + (idx,), node.children[idx - 1]))
        frontier = next_frontier

    hits.sort(key=lambda item: item[0])
    steps.sort(key=lambda item: item[0])
    return [hit for _, hit in hits], [step for _, step in steps]


def dedup(hits: list[LeafHit]) -> list[LeafHit]:
    """First-come-first-served: a service stays in the earliest hit that
    contains it. Hits emptied by dedup are dropped."""
    seen: set[str] = set()
    out: list[LeafHit] = []
    for hit in hits:
        kept = []
        for sid in hit.services:
            if sid not in seen:
                seen.add(sid)
                kept.append(sid)
        if kept:
            out.append(LeafHit(leaf_id=hit.leaf_id, services=kept))
    return out


def merge_small_groups(
    hits: list[LeafHit], merge_threshold: int, taxonomy: Taxonomy
) -> list[LeafHit]:
    """Greedily merges sub-threshold groups with each other.

    While at least two groups are below the threshold, the pair of
    sub-threshold groups with the smallest tree (LCA) distance between
    their representative leaves merges; ties break on smaller combined
    size, then lexicographic leaf ids. The merged group keeps the earlier
    hit's leaf as representative and its position in the list. Groups at or
    above the threshold are never touched, so one undersized straggler
    simply stays as it is.

    Cost: with k groups initially below the threshold, the O(k^2) pairwise
    distances come from one `Taxonomy.distances` call (a single parent-map
    pass), made only when k >= 2. Representatives never change, so each
    greedy round then compares precomputed (distance, sorted leaf ids) keys
    plus the current sizes: O(k^2) per round, O(k^3) in all, and no further
    tree walks.
    """
    groups = [LeafHit(leaf_id=h.leaf_id, services=list(h.services)) for h in hits]
    small_ids = [g.leaf_id for g in groups if len(g.services) < merge_threshold]
    if len(small_ids) < 2:
        return groups
    pair_keys = {
        pair: (distance, tuple(sorted(pair)))
        for pair, distance in taxonomy.distances(small_ids).items()
    }

    def merge_key(pair: tuple[int, int]) -> tuple:
        a, b = groups[pair[0]], groups[pair[1]]
        distance, ids = pair_keys[a.leaf_id, b.leaf_id]
        return (distance, len(a.services) + len(b.services), ids)

    while True:
        small = [i for i, g in enumerate(groups) if len(g.services) < merge_threshold]
        if len(small) < 2:
            return groups
        # equal keys need a repeated leaf id; min then keeps the earliest pair
        i, j = min(combinations(small, 2), key=merge_key)
        groups[i] = LeafHit(
            leaf_id=groups[i].leaf_id, services=groups[i].services + groups[j].services
        )
        del groups[j]


def select_services(
    group: LeafHit,
    query: str,
    mode: str,
    registry: Registry,
    gateway: LlmGateway,
) -> tuple[list[str], TraceStep]:
    """One chat call choosing services from a merged group."""
    services = [registry.get(sid) for sid in group.services]
    options = "\n".join(
        f"{i}. {svc.name}: {svc.description}" for i, svc in enumerate(services, start=1)
    )
    system, user = prompts.render(
        "search_select",
        mode_instruction=SELECT_INSTRUCTIONS[mode],
        query=query,
        options=options,
    )
    sel = gateway.select_indices(
        system, user, label="search.select", n_options=len(group.services)
    )
    chosen = [group.services[idx - 1] for idx in sel.indices]
    step = TraceStep(
        kind="select",
        node_id=group.leaf_id,
        options_shown=len(group.services),
        chosen=list(sel.indices),
        dropped=sel.dropped,
        parse_failed=sel.parse_failed,
    )
    return chosen, step


def retrieve(
    query: str,
    taxonomy: Taxonomy,
    registry: Registry,
    gateway: LlmGateway,
    cfg: SearchConfig | None = None,
) -> RetrievalResult:
    """Full taxonomy retrieval: navigate, dedup, merge, select.

    In get_one mode the result is capped to the single first-selected
    service, matching the single-branch navigation instruction.
    """
    cfg = cfg or SearchConfig()

    with metered() as usage:
        hits, nav_steps = navigate(taxonomy, query, cfg.mode, gateway)
        groups = merge_small_groups(dedup(hits), cfg.merge_threshold, taxonomy)
        groups = [g for g in groups if g.services]
        selections = gateway.run_parallel(
            lambda g: select_services(g, query, cfg.mode, registry, gateway), groups
        )

    service_ids: list[str] = []
    steps = list(nav_steps)
    for chosen, step in selections:
        service_ids.extend(chosen)
        steps.append(step)
    if cfg.mode == "get_one":
        service_ids = service_ids[:1]

    nav_levels: dict[int, list[int]] = {}
    for step in nav_steps:
        nav_levels.setdefault(step.depth, []).append(len(step.chosen))
    branches = fmean(fmean(counts) for counts in nav_levels.values()) if nav_levels else 0.0
    leaf_depths = [
        taxonomy.node(h.leaf_id).depth for h in hits
    ]
    snap = usage.snapshot()

    return RetrievalResult(
        service_ids=service_ids,
        trace=steps,
        **usage_fields(snap),
        navigation_calls=snap["labels"].get("search.navigate", {}).get("calls", 0),
        selection_calls=snap["labels"].get("search.select", {}).get("calls", 0),
        depth_reached=max(leaf_depths) if leaf_depths else 0,
        branches_per_level=branches,
        groups_visited=len(groups),
    )
