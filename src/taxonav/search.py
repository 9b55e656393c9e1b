"""Progressive-disclosure retrieval over a built taxonomy.

A query descends the tree level by level: each chat call sees exactly one
node's children and picks the relevant ones, so no prompt ever enumerates
the registry. Reached leaves are deduplicated first-come-first-served,
undersized leaf groups are merged by tree distance to keep selection
prompts worth their overhead, and a final per-group call picks services.
Each hit carries the child-index path its walk took, so the merge reads
distances off the paths and a query touches only the nodes it visits.

The three modes (get_all, get_important, get_one) share all machinery and
differ in the instruction sentence injected into the two prompts; besides,
a get_one walk follows only the smallest chosen branch, and its result is
capped to one service.

Parallel fan-out is level-synchronous with results merged in child-index
order, so retrieval is deterministic for a fixed backend script. The walker,
``navigate``, takes many (query, start node) walks and advances all of them
one level per parallel map; a retrieval is one walk from the root, and the
builder's cross-domain pass routes all its candidates as get_one walks from
their target domains.
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from heapq import heapify, heappop, heappush
from itertools import combinations
from operator import attrgetter, itemgetter
from statistics import fmean

from . import prompts
from .errors import ConfigError, DataError
from .gateway import LlmGateway, metered
from .registry import Registry
from .taxonomy import Taxonomy, TaxonomyNode

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
    presentation order. leaf_id is the representative leaf and path its
    child-index path (1-based) from the start node of the walk that
    reached it."""

    leaf_id: str
    services: list[str]
    path: tuple[int, ...]


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
    walks: Sequence[tuple[str, str]],
    mode: str,
    gateway: LlmGateway,
    *,
    label: str = "search.navigate",
) -> list[tuple[list[LeafHit], list[TraceStep]]]:
    """Walks each (query, start node id) pair down the tree, one chat call
    per visited internal node; returns each walk's hits and trace steps.

    All walks still descending advance one level together, as one parallel
    map of calls; hits and trace steps come back in depth-first child-index
    order regardless of thread scheduling. An empty or unparseable selection
    prunes that subtree. In get_one mode a walk follows only the smallest
    chosen index. A walk that reaches a node it has already expanded raises
    DataError, so a cyclic node table cannot loop forever.
    """
    template = prompts.load("search_navigate")
    instruction = NAVIGATE_INSTRUCTIONS[mode]
    hits: list[list[LeafHit]] = [[] for _ in walks]
    steps: list[list[tuple[tuple[int, ...], TraceStep]]] = [[] for _ in walks]
    expanded: list[set[str]] = [set() for _ in walks]

    # (walk index, child-index path from the walk's start, node id)
    frontier = [(w, (), start_id) for w, (_, start_id) in enumerate(walks)]
    while frontier:
        internal: list[tuple[int, tuple[int, ...], TaxonomyNode]] = []
        for w, path, node_id in frontier:
            node = taxonomy.node(node_id)
            if node.is_leaf():
                hits[w].append(LeafHit(leaf_id=node_id, services=list(node.service_ids), path=path))
            elif node_id in expanded[w]:
                raise DataError(f"navigation reached node {node_id!r} twice; the tree has a cycle")
            else:
                expanded[w].add(node_id)
                internal.append((w, path, node))
        if not internal:
            break

        def call(entry: tuple[int, tuple[int, ...], TaxonomyNode]):
            w, _, node = entry
            system, user = template.render(
                mode_instruction=instruction,
                query=walks[w][0],
                options=prompts.category_options(taxonomy.node(c) for c in node.children),
            )
            return gateway.select_indices(system, user, label=label, n_options=len(node.children))

        selections = gateway.run_parallel(call, internal)
        frontier = []
        for (w, path, node), sel in zip(internal, selections):
            steps[w].append(
                (
                    path,
                    TraceStep(
                        kind="navigate",
                        node_id=node.node_id,
                        options_shown=len(node.children),
                        chosen=list(sel.indices),
                        dropped=sel.dropped,
                        parse_failed=sel.parse_failed,
                        depth=node.depth,
                    ),
                )
            )
            followed = sel.indices[:1] if mode == "get_one" else sel.indices
            frontier.extend((w, path + (idx,), node.children[idx - 1]) for idx in followed)

    return [
        (sorted(h, key=attrgetter("path")), [step for _, step in sorted(s, key=itemgetter(0))])
        for h, s in zip(hits, steps)
    ]


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
            out.append(LeafHit(leaf_id=hit.leaf_id, services=kept, path=hit.path))
    return out


def path_distance(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Tree distance between the nodes at child-index paths a and b from one
    start node: the steps from each up to their longest common prefix."""
    common = 0
    for x, y in zip(a, b):
        if x != y:
            break
        common += 1
    return len(a) + len(b) - 2 * common


def merge_small_groups(hits: list[LeafHit], merge_threshold: int) -> list[LeafHit]:
    """Greedily merges sub-threshold groups with each other.

    While at least two groups are below the threshold, the pair of
    sub-threshold groups with the smallest tree (LCA) distance between
    their representative leaves merges; ties break on smaller combined
    size, then lexicographic leaf ids. The merged group keeps the earlier
    hit's leaf and path as representative and its position in the list.
    Groups at or above the threshold are never touched, so one undersized
    straggler simply stays as it is.

    Distances come from the hits' walk paths, so every hit must come from
    one walk. Cost: with k groups initially below the threshold, the
    O(k^2) pair keys (distance, combined size, sorted leaf ids, positions)
    are built once, at O(depth) each and with no tree access, into a heap.
    Only sizes change between rounds, and only upward, so a stored key is
    never above the pair's current one: a popped key with an out-of-date
    size is pushed back with the current size, and a popped key that is
    current is the round's minimum. A merge re-keys each pair of the grown
    group at most once, so the merge costs O(k^2 log k) in all.
    """
    groups: list[LeafHit | None] = [LeafHit(h.leaf_id, list(h.services), h.path) for h in hits]
    where = [p for p, g in enumerate(groups) if len(g.services) < merge_threshold]
    if len(where) < 2:
        return groups
    small = [groups[p] for p in where]
    size = [len(g.services) for g in small]
    # equal keys need a repeated leaf id; the positions then put the
    # earliest pair first
    heap = [
        (
            path_distance(a.path, b.path),
            size[i] + size[j],
            min(a.leaf_id, b.leaf_id),
            max(a.leaf_id, b.leaf_id),
            i,
            j,
        )
        for (i, a), (j, b) in combinations(enumerate(small), 2)
    ]
    heapify(heap)
    live = [True] * len(small)  # still below the threshold and not merged away
    left = len(small)
    while left >= 2:
        distance, total, low, high, i, j = heappop(heap)
        if not (live[i] and live[j]):
            continue
        if total != size[i] + size[j]:
            heappush(heap, (distance, size[i] + size[j], low, high, i, j))
            continue
        small[i].services += small[j].services
        size[i] = total
        live[j] = False
        groups[where[j]] = None
        left -= 1
        if total >= merge_threshold:
            live[i] = False
            left -= 1
    return [g for g in groups if g is not None]


def select_services(
    group: LeafHit,
    query: str,
    mode: str,
    registry: Registry,
    gateway: LlmGateway,
) -> tuple[list[str], TraceStep]:
    """One chat call choosing services from a merged group."""
    system, user = prompts.render(
        "search_select",
        mode_instruction=SELECT_INSTRUCTIONS[mode],
        query=query,
        options=prompts.service_options(map(registry.get, group.services)),
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

    Each step that chose nothing adds one flag, in trace order:
    ``parse_failed:<node id>`` when its reply stayed unparseable after the
    re-ask, ``empty_selection:<node id>`` when it parsed to no pick.
    """
    cfg = cfg or SearchConfig()

    with metered() as usage:
        [(hits, nav_steps)] = navigate(taxonomy, [(query, taxonomy.root_id)], cfg.mode, gateway)
        groups = merge_small_groups(dedup(hits), cfg.merge_threshold)
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
    flags = [
        f"parse_failed:{step.node_id}" if step.parse_failed else f"empty_selection:{step.node_id}"
        for step in steps if not step.chosen
    ]

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
        flags=flags,
    )
