"""Retrieval behavior: level-synchronous navigation, dedup, small-group
merging, per-group selection, and the three disclosure modes."""

from __future__ import annotations

import random
from itertools import combinations
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import RecordingChatBackend, bfs_distance, make_oracle_gateway, random_tree
from taxonav.baselines import pure_llm_retrieve
from taxonav.builder import BuildConfig, build
from taxonav.errors import ConfigError, DataError, TransportError
from taxonav.eval_harness import EvalConfig, evaluate
from taxonav.gateway import LlmGateway, ScriptRule, estimate_tokens
from taxonav.registry import QueryCase, Registry, Service
from taxonav.search import (
    NAVIGATE_INSTRUCTIONS,
    SELECT_INSTRUCTIONS,
    LeafHit,
    SearchConfig,
    dedup,
    merge_small_groups,
    navigate,
    path_distance,
    retrieve,
)
from taxonav.synthetic import make_balanced_taxonomy, make_queries, make_world, parse_options
from taxonav.taxonomy import Taxonomy, TaxonomyNode


def gw(*rules: ScriptRule, oracle=None) -> LlmGateway:
    return LlmGateway(chat_backend=RecordingChatBackend(rules=rules, oracle=oracle))


def make_registry(ids: list[str]) -> Registry:
    return Registry([Service(id=i, name=i, description=f"{i} does things") for i in ids])


def leaf(tax: Taxonomy, parent: str, name: str, services: list[str]):
    node = tax.add_child(parent, name, f"{name} category")
    node.service_ids = list(services)
    return node


def path_to(tax: Taxonomy, node_id: str) -> tuple[int, ...]:
    """The 1-based child-index path from the root to node_id, found by a
    depth-first search of the child lists."""
    stack = [(tax.root_id, ())]
    while stack:
        current, path = stack.pop()
        if current == node_id:
            return path
        stack.extend((c, path + (i,)) for i, c in enumerate(tax.node(current).children, start=1))
    raise AssertionError(f"{node_id} is not in the tree")


def hit(tax: Taxonomy, leaf_id: str, services: list[str]) -> LeafHit:
    return LeafHit(leaf_id, services, path_to(tax, leaf_id))


# -- dedup -------------------------------------------------------------------


def test_dedup_keeps_first_occurrence_and_drops_emptied_hits():
    hits = [
        LeafHit("a", ["s1", "s2"], (1,)),
        LeafHit("b", ["s2", "s3"], (2,)),
        LeafHit("c", ["s1"], (3,)),
    ]
    out = dedup(hits)
    assert [(h.leaf_id, h.services, h.path) for h in out] == [
        ("a", ["s1", "s2"], (1,)),
        ("b", ["s3"], (2,)),
    ]


@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=20), max_size=8),
        max_size=8,
    )
)
def test_dedup_preserves_union_without_duplicates(raw):
    hits = [LeafHit(f"leaf{i}", [f"s{v}" for v in svc], (i + 1,)) for i, svc in enumerate(raw)]
    out = dedup(hits)
    flat = [sid for h in out for sid in h.services]
    assert len(flat) == len(set(flat))
    assert set(flat) == {sid for h in hits for sid in h.services}
    assert all(h.services for h in out)


# -- merging -----------------------------------------------------------------


def sibling_tree() -> Taxonomy:
    tax = Taxonomy()
    a = tax.add_child("root", "A", "a")
    b = tax.add_child("root", "B", "b")
    leaf(tax, a.node_id, "A1", [])
    leaf(tax, a.node_id, "A2", [])
    leaf(tax, b.node_id, "B1", [])
    return tax


def test_merge_joins_closest_small_groups_and_leaves_big_ones():
    tax = sibling_tree()
    hits = [
        hit(tax, "root/a/a1", [f"x{i}" for i in range(5)]),
        hit(tax, "root/a/a2", [f"y{i}" for i in range(5)]),
        hit(tax, "root/b/b1", [f"z{i}" for i in range(40)]),
    ]
    out = merge_small_groups(hits, 30)
    assert [(h.leaf_id, len(h.services)) for h in out] == [("root/a/a1", 10), ("root/b/b1", 40)]
    # siblings (distance 2) merged instead of the cross-branch pair (distance 4)
    assert out[0].services == hits[0].services + hits[1].services


def test_merge_noop_when_groups_are_large_enough():
    tax = sibling_tree()
    hits = [
        hit(tax, "root/a/a1", [f"x{i}" for i in range(30)]),
        hit(tax, "root/a/a2", [f"y{i}" for i in range(31)]),
    ]
    out = merge_small_groups(hits, 30)
    assert [(h.leaf_id, h.services) for h in out] == [(h.leaf_id, h.services) for h in hits]


def test_merge_single_straggler_stays():
    tax = sibling_tree()
    hits = [
        hit(tax, "root/a/a1", ["x0"]),
        hit(tax, "root/b/b1", [f"z{i}" for i in range(30)]),
    ]
    out = merge_small_groups(hits, 30)
    assert [(h.leaf_id, len(h.services)) for h in out] == [("root/a/a1", 1), ("root/b/b1", 30)]


def test_merge_distance_beats_list_order():
    # A1 appears before B1, but A2 is A1's sibling, so A1+A2 merge first
    tax = sibling_tree()
    hits = [
        hit(tax, "root/a/a1", ["a1s"]),
        hit(tax, "root/b/b1", ["b1s"]),
        hit(tax, "root/a/a2", ["a2s"]),
    ]
    out = merge_small_groups(hits, 2)
    assert [(h.leaf_id, h.services) for h in out] == [
        ("root/a/a1", ["a1s", "a2s"]),
        ("root/b/b1", ["b1s"]),
    ]


def test_merge_size_tiebreak_prefers_smaller_combined_group():
    tax = Taxonomy()
    p = tax.add_child("root", "P", "p")
    for name in ("X", "Y", "Z"):
        leaf(tax, p.node_id, name, [])
    hits = [
        hit(tax, "root/p/x", ["sx"]),
        hit(tax, "root/p/y", ["sy1", "sy2"]),
        hit(tax, "root/p/z", ["sz"]),
    ]
    # all pairs are siblings (distance 2); (X, Z) has the smallest combined size
    out = merge_small_groups(hits, 3)
    assert len(out) == 1
    assert out[0].leaf_id == "root/p/x"
    assert out[0].services == ["sx", "sz", "sy1", "sy2"]


def test_merge_id_tiebreak_is_lexicographic():
    tax = Taxonomy()
    p = tax.add_child("root", "P", "p")
    for name in ("X", "Y", "Z"):
        leaf(tax, p.node_id, name, [])
    hits = [
        hit(tax, "root/p/x", ["sx"]),
        hit(tax, "root/p/y", ["sy"]),
        hit(tax, "root/p/z", ["sz"]),
    ]
    out = merge_small_groups(hits, 2)
    assert [(h.leaf_id, h.services) for h in out] == [
        ("root/p/x", ["sx", "sy"]),
        ("root/p/z", ["sz"]),
    ]


def reference_merge_small_groups(
    hits: list[LeafHit], merge_threshold: int, taxonomy: Taxonomy
) -> list[LeafHit]:
    """The plain O(k^3) greedy merge: every round scores every candidate
    pair afresh, with the BFS oracle's distance between their leaves. The
    path-based merge must return exactly what it does, ties included."""
    groups = [LeafHit(h.leaf_id, list(h.services), h.path) for h in hits]
    while True:
        small = [i for i, g in enumerate(groups) if len(g.services) < merge_threshold]
        if len(small) < 2:
            return groups
        best: tuple | None = None
        for a_pos in range(len(small)):
            for b_pos in range(a_pos + 1, len(small)):
                i, j = small[a_pos], small[b_pos]
                key = (
                    bfs_distance(taxonomy, groups[i].leaf_id, groups[j].leaf_id),
                    len(groups[i].services) + len(groups[j].services),
                    tuple(sorted((groups[i].leaf_id, groups[j].leaf_id))),
                )
                if best is None or key < best[0]:
                    best = (key, i, j)
        _, i, j = best
        groups[i] = LeafHit(
            groups[i].leaf_id, groups[i].services + groups[j].services, groups[i].path
        )
        del groups[j]


@st.composite
def merge_cases(draw):
    tax = random_tree(draw(st.integers(0, 10_000)), draw(st.integers(0, 80)))
    leaves = tax.leaves()
    rng = draw(st.randoms(use_true_random=False))
    hit_leaves = rng.sample(leaves, draw(st.integers(0, len(leaves))))
    # sizes come from a small pool so that equal-size pairs, and with them
    # the leaf-id tie-break, are common
    pool = draw(st.lists(st.integers(0, 40), min_size=1, max_size=4))
    hits = [
        hit(tax, leaf_id, [f"{leaf_id}#{n}" for n in range(draw(st.sampled_from(pool)))])
        for leaf_id in hit_leaves
    ]
    return tax, hits, draw(st.integers(1, 40))


@settings(max_examples=200, deadline=None)
@given(merge_cases())
def test_merge_matches_reference(case):
    tax, hits, threshold = case
    out = merge_small_groups(hits, threshold)
    expected = reference_merge_small_groups(hits, threshold, tax)
    assert [(h.leaf_id, h.services, h.path) for h in out] == [
        (h.leaf_id, h.services, h.path) for h in expected
    ]


def rescoring_merge_small_groups(hits: list[LeafHit], merge_threshold: int) -> list[LeafHit]:
    """The O(k^3) path-based merge that the heap replaced, verbatim: each
    round takes the min over every pair of the current small groups, so
    equal keys keep the earliest pair."""
    groups = [LeafHit(h.leaf_id, list(h.services), h.path) for h in hits]
    small_groups = [g for g in groups if len(g.services) < merge_threshold]
    if len(small_groups) < 2:
        return groups
    pair_keys = {
        (a.leaf_id, b.leaf_id): (
            path_distance(a.path, b.path),
            tuple(sorted((a.leaf_id, b.leaf_id))),
        )
        for a, b in combinations(small_groups, 2)
    }

    def merge_key(pair: tuple[int, int]) -> tuple:
        a, b = groups[pair[0]], groups[pair[1]]
        distance, ids = pair_keys[a.leaf_id, b.leaf_id]
        return (distance, len(a.services) + len(b.services), ids)

    while True:
        small = [i for i, g in enumerate(groups) if len(g.services) < merge_threshold]
        if len(small) < 2:
            return groups
        i, j = min(combinations(small, 2), key=merge_key)
        groups[i].services += groups[j].services
        del groups[j]


def test_merge_matches_the_rescoring_merge():
    """Seeded cases of 0-20 groups on the leaves of a random tree, drawn
    with repeats, so equal keys and with them the earliest-pair rule are
    common; sizes come from a small pool and thresholds run from 1 to 40."""
    for seed in range(400):
        rng = random.Random(seed)
        tax = random_tree(seed, rng.randint(0, 30))
        leaves = tax.leaves()
        pool = [rng.randint(0, 40) for _ in range(rng.randint(1, 4))]
        hits = []
        for g in range(rng.randint(0, 20)):
            leaf_id = rng.choice(leaves)
            hits.append(hit(tax, leaf_id, [f"{leaf_id}#{g}.{n}" for n in range(rng.choice(pool))]))
        given_hits = [(h.leaf_id, list(h.services), h.path) for h in hits]
        threshold = rng.randint(1, 40)
        out = merge_small_groups(hits, threshold)
        expected = rescoring_merge_small_groups(hits, threshold)
        assert [(h.leaf_id, h.services, h.path) for h in out] == [
            (h.leaf_id, h.services, h.path) for h in expected
        ], seed
        assert [(h.leaf_id, h.services, h.path) for h in hits] == given_hits, seed


def select_all_oracle(label, request):
    return ",".join(str(i) for i, _ in parse_options(request.user_prompt))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n_nodes=st.integers(0, 40), threshold=st.integers(1, 6))
def test_navigated_paths_give_oracle_distances_and_the_reference_merge(seed, n_nodes, threshold):
    """Hits straight from a walk of a random tree: each path is its leaf's
    path from the root, path distances equal the BFS oracle's, and the
    merge of the hits (leaves of one to five services) equals the
    reference merge."""
    tax = random_tree(seed, n_nodes)
    for i, leaf_id in enumerate(tax.leaves()):
        tax.node(leaf_id).service_ids = [f"{leaf_id}#{n}" for n in range(1 + i % 5)]
    [(hits, _)] = navigate(tax, [("q", tax.root_id)], "get_all", gw(oracle=select_all_oracle))
    assert [h.leaf_id for h in hits] == tax.leaves()
    assert all(h.path == path_to(tax, h.leaf_id) for h in hits)
    for a in hits:
        for b in hits:
            assert path_distance(a.path, b.path) == bfs_distance(tax, a.leaf_id, b.leaf_id)
    out = merge_small_groups(hits, threshold)
    expected = reference_merge_small_groups(hits, threshold, tax)
    assert [(h.leaf_id, h.services) for h in out] == [(h.leaf_id, h.services) for h in expected]


@pytest.mark.parametrize(
    "sizes, threshold, merges",
    [
        ([], 30, 0),
        ([5], 30, 0),
        ([5, 40, 30], 30, 0),
        ([5, 5, 40], 30, 1),
        ([1] * 40, 2, 1),
        ([1] * 40, 41, 1),
    ],
)
def test_merge_builds_at_most_one_parent_map(monkeypatch, sizes, threshold, merges):
    """The merge reads distances off the hits' paths, so whether or not it
    merges anything (merges is 1 when two groups start below the threshold)
    it builds no parent map and asks the tree for no distance or node."""
    tax = random_tree(3, 120)
    hits = [
        hit(tax, leaf_id, [f"{leaf_id}#{n}" for n in range(size)])
        for leaf_id, size in zip(tax.leaves(), sizes)
    ]
    assert len(hits) == len(sizes)
    calls = []

    def counted(name):
        original = getattr(Taxonomy, name)

        def wrapper(self, *args):
            calls.append(name)
            return original(self, *args)

        return wrapper

    for name in ("parent_map", "lca_distance", "node"):
        monkeypatch.setattr(Taxonomy, name, counted(name))
    out = merge_small_groups(hits, threshold)
    assert calls == []
    assert (len(out) < len(hits)) == bool(merges)


def two_level_tree() -> tuple[Taxonomy, Registry]:
    tax = Taxonomy()
    c1 = tax.add_child("root", "C1", "first")
    c2 = tax.add_child("root", "C2", "second")
    leaf(tax, c1.node_id, "L11", ["a1", "a2"])
    leaf(tax, c1.node_id, "L12", ["b1"])
    leaf(tax, c2.node_id, "L21", ["c1"])
    tax.rebuild_assignment()
    return tax, make_registry(["a1", "a2", "b1", "c1"])


def test_retrieve_on_leaf_root_is_selection_only():
    tax = Taxonomy()
    tax.root.service_ids = ["a1", "a2"]
    tax.rebuild_assignment()
    registry = make_registry(["a1", "a2"])
    gateway = gw(ScriptRule(pattern=".*", label="search.select", reply="1, 2"))
    result = retrieve("q", tax, registry, gateway)
    assert result.service_ids == ["a1", "a2"]
    assert result.navigation_calls == 0
    assert result.selection_calls == 1
    assert result.calls == 1
    assert result.depth_reached == 0
    assert result.groups_visited == 1
    assert result.branches_per_level == 0.0


def test_retrieve_empty_leaf_costs_nothing():
    tax = Taxonomy()
    tax.rebuild_assignment()
    gateway = gw()
    result = retrieve("q", tax, make_registry([]), gateway)
    assert result.service_ids == []
    assert result.calls == 0
    assert result.groups_visited == 0
    assert gateway.chat_backend.transcript == []


def test_retrieve_empty_selection_gives_empty_result():
    tax = Taxonomy()
    tax.root.service_ids = ["a1"]
    registry = make_registry(["a1"])
    gateway = gw(ScriptRule(pattern=".*", label="search.select", reply="0"))
    result = retrieve("q", tax, registry, gateway)
    assert result.service_ids == []
    assert result.calls == 1
    assert result.groups_visited == 1
    assert result.trace[-1].chosen == []


def test_retrieve_orders_hits_by_navigation_path():
    tax, registry = two_level_tree()
    gateway = gw(
        ScriptRule(pattern=r"1\. C1:", label="search.navigate", reply="1, 2"),
        ScriptRule(pattern=r"1\. L11:", label="search.navigate", reply="2"),
        ScriptRule(pattern=r"1\. L21:", label="search.navigate", reply="1"),
        ScriptRule(pattern=r"1\. b1:", label="search.select", reply="1"),
        ScriptRule(pattern=r"1\. c1:", label="search.select", reply="1"),
    )
    result = retrieve("q", tax, registry, gateway, SearchConfig(merge_threshold=1))
    assert result.service_ids == ["b1", "c1"]
    assert result.flags == []
    nav_nodes = [s.node_id for s in result.trace if s.kind == "navigate"]
    assert nav_nodes == ["root", "root/c1", "root/c2"]
    assert result.depth_reached == 2
    assert result.groups_visited == 2
    # level 0 chose 2 branches, level 1 averaged (1 + 1) / 2
    assert result.branches_per_level == pytest.approx(1.5)


def test_retrieve_flags_each_step_that_chose_nothing():
    tax, registry = two_level_tree()
    leaf(tax, leaf(tax, "root", "C3", []).node_id, "L31", ["d1"])
    tax.rebuild_assignment()
    gateway = gw(
        ScriptRule(pattern=r"1\. C1:", label="search.navigate", reply="1, 2, 3"),
        ScriptRule(pattern=r"1\. L11:", label="search.navigate", reply=["junk", "still junk"]),
        ScriptRule(pattern=r"1\. L21:", label="search.navigate", reply="1"),
        ScriptRule(pattern=r"1\. L31:", label="search.navigate", reply="0"),
        ScriptRule(pattern=r"1\. c1:", label="search.select", reply="none of them: 0"),
    )
    result = retrieve("q", tax, registry, gateway)
    assert result.service_ids == []
    assert result.flags == [
        "parse_failed:root/c1",  # unparseable after its re-ask
        "empty_selection:root/c3",  # parsed, chose nothing
        "empty_selection:root/c2/l21",
    ]


def test_retrieve_counts_reask_calls():
    tax = Taxonomy()
    leaf(tax, "root", "L", ["a1"])
    leaf(tax, "root", "L2", ["b1"])
    registry = make_registry(["a1", "b1"])
    gateway = gw(
        ScriptRule(pattern=r"1\. L:", label="search.navigate", reply=["junk reply", "1"]),
        ScriptRule(pattern=".*", label="search.select", reply="1"),
    )
    result = retrieve("q", tax, registry, gateway)
    assert result.navigation_calls == 2  # the parse failure costs one re-ask
    assert result.selection_calls == 1
    assert result.calls == 3
    assert result.service_ids == ["a1"]


def mode_oracle(label, request):
    """Replies are a pure function of the injected instruction sentence, so
    any behavior difference between modes comes from that sentence alone."""
    system = request.system_prompt
    options = [
        line for line in request.user_prompt.splitlines() if line[:1].isdigit()
    ]
    if label == "search.navigate":
        if NAVIGATE_INSTRUCTIONS["get_one"] in system:
            return "1"
        return ", ".join(str(i) for i in range(1, len(options) + 1))
    if label == "search.select":
        if SELECT_INSTRUCTIONS["get_one"] in system:
            return "1"
        if SELECT_INSTRUCTIONS["get_important"] in system:
            seen: set[str] = set()
            keep = []
            for i, line in enumerate(options, start=1):
                function = line.split(": ", 1)[1]
                if function not in seen:
                    seen.add(function)
                    keep.append(str(i))
            return ", ".join(keep)
        return ", ".join(str(i) for i in range(1, len(options) + 1))
    return None


def duplicate_function_world() -> tuple[Taxonomy, Registry]:
    tax = Taxonomy()
    leaf(tax, "root", "Mail", ["m1", "m2"])
    leaf(tax, "root", "Files", ["f1"])
    tax.rebuild_assignment()
    registry = Registry(
        [
            Service(id="m1", name="m1", description="sends email"),
            Service(id="m2", name="m2", description="sends email"),
            Service(id="f1", name="f1", description="stores files"),
        ]
    )
    return tax, registry


def test_modes_differ_only_by_instruction_and_nest():
    tax, registry = duplicate_function_world()
    results = {}
    for mode in ("get_all", "get_important", "get_one"):
        gateway = gw(oracle=mode_oracle)
        results[mode] = retrieve("q", tax, registry, gateway, SearchConfig(mode=mode))
    assert results["get_all"].service_ids == ["m1", "m2", "f1"]
    assert results["get_important"].service_ids == ["m1", "f1"]
    assert results["get_one"].service_ids == ["m1"]
    assert set(results["get_one"].service_ids) < set(results["get_important"].service_ids)
    assert set(results["get_important"].service_ids) < set(results["get_all"].service_ids)


def test_get_one_caps_even_a_multi_index_reply():
    tax = Taxonomy()
    leaf(tax, "root", "Mail", ["m1", "m2"])
    leaf(tax, "root", "Files", ["f1"])
    registry = make_registry(["m1", "m2", "f1"])
    gateway = gw(
        ScriptRule(pattern=r"Categories:", label="search.navigate", reply="1"),
        ScriptRule(pattern=r"Services:", label="search.select", reply="1, 2"),
    )
    result = retrieve("q", tax, registry, gateway, SearchConfig(mode="get_one"))
    assert result.service_ids == ["m1"]
    assert result.selection_calls == 1


def test_get_one_follows_only_the_smallest_chosen_branch():
    tax, registry = make_balanced_taxonomy(branching=2, depth=2, leaf_size=1)
    gateway = gw(
        ScriptRule(pattern=r"Categories:", label="search.navigate", reply="1, 2"),
        ScriptRule(pattern=r"Services:", label="search.select", reply="1"),
    )
    result = retrieve("q", tax, registry, gateway, SearchConfig(mode="get_one"))
    assert result.navigation_calls == 2  # the root, then its first child only
    assert result.selection_calls == 1
    assert result.service_ids == ["svc-1-1-01"]


def test_retrieval_is_deterministic(world200, gateway_factory):
    from taxonav.builder import BuildConfig, build

    taxonomy, _ = build(world200.registry, BuildConfig(), gateway_factory(world200))
    query = world200.queries[0]
    runs = []
    for _ in range(2):
        gateway = gateway_factory(world200)
        runs.append(retrieve(query.text, taxonomy, world200.registry, gateway).to_dict())
    assert runs[0] == runs[1]


def test_no_prompt_enumerates_the_registry(world200, gateway_factory):
    from taxonav.builder import BuildConfig, build

    taxonomy, _ = build(world200.registry, BuildConfig(), gateway_factory(world200))
    gateway = gateway_factory(world200)
    for query in world200.queries[:5]:
        result = retrieve(query.text, taxonomy, world200.registry, gateway)
        assert set(result.service_ids) == set(query.ground_truth)
        assert max(step.options_shown for step in result.trace) < len(world200.registry)


class PromptSizes(NamedTuple):
    navigate_chars: int  # the largest navigate prompt, system and user text
    navigate_menu: tuple[str, ...]  # the option names that prompt lists
    select_options: int  # the most options a select prompt lists
    pure_llm_tokens: int  # the pure-LLM prompt of the first query


def prompt_sizes(tax: Taxonomy, registry: Registry, queries: list[str], gateway: LlmGateway) -> PromptSizes:
    """Retrieves each query over the tree and measures the prompts the
    gateway's recording backend saw, then the pure-LLM prompt of the first."""
    for query in queries:
        retrieve(query, tax, registry, gateway)
    calls = gateway.chat_backend.transcript
    navigate = max((c.request for c in calls if c.label == "search.navigate"),
                   key=lambda request: len(request.system_prompt) + len(request.user_prompt))
    return PromptSizes(
        navigate_chars=len(navigate.system_prompt) + len(navigate.user_prompt),
        navigate_menu=tuple(name for _, name in parse_options(navigate.user_prompt)),
        select_options=max(len(parse_options(c.request.user_prompt))
                           for c in calls if c.label == "search.select"),
        pure_llm_tokens=pure_llm_retrieve(queries[0], registry, gw(ScriptRule(".*", "NONE"))).prompt_tokens,
    )


def menus(tax: Taxonomy) -> set[tuple[str, ...]]:
    """Each internal node's children names, in child order."""
    return {tuple(tax.nodes[c].name for c in node.children) for node in tax.nodes.values() if node.children}


def balanced_case(leaf_size: int) -> tuple[Taxonomy, Registry, list[str], LlmGateway]:
    """make_balanced_taxonomy(8, 3, leaf_size), walked down its first branch."""
    tax, registry = make_balanced_taxonomy(8, 3, leaf_size)
    return tax, registry, ["I need a synthetic service"], gw(ScriptRule(pattern=".*", label="search", reply="1"))


def built_case(n_services: int) -> tuple[Taxonomy, Registry, list[str], LlmGateway]:
    """The tree the builder makes of a 4 x 4 latent world, and ten of its
    queries, all answered by its oracle."""
    world = make_world(4, 4, n_services)
    queries = [case.text for case in make_queries(world, n=10, seed=1)]
    gateway = make_oracle_gateway(world)
    cfg = BuildConfig()
    tax, _ = build(world.registry, cfg, gateway)
    assert all(len(node.service_ids) <= cfg.leaf_threshold or node.depth == cfg.max_depth
               for node in tax.nodes.values() if node.is_leaf())
    return tax, world.registry, queries, gateway


@pytest.mark.parametrize("case, scales", [(balanced_case, (5, 30)), (built_case, (200, 600))])
def test_prompt_size_follows_the_tree_not_the_registry(case, scales):
    """Progressive disclosure: the largest navigate prompt lists one node's
    children and the largest select prompt at most one leaf, whatever the
    registry size, while the pure-LLM prompt grows with the catalog."""
    sides = []
    for scale in scales:
        tax, registry, queries, gateway = case(scale)
        sizes = prompt_sizes(tax, registry, queries, gateway)
        assert sizes.navigate_menu in menus(tax)
        assert sizes.select_options <= max(len(tax.nodes[leaf_id].service_ids) for leaf_id in tax.leaves())
        sides.append((len(registry), sizes))
    (small_n, small), (large_n, large) = sides
    if case is balanced_case:
        assert small.navigate_chars == large.navigate_chars
        assert (small.select_options, large.select_options) == scales
    assert large.pure_llm_tokens / small.pure_llm_tokens == pytest.approx(large_n / small_n, rel=0.05)


def test_search_config_validation():
    with pytest.raises(ConfigError, match="unknown search mode"):
        SearchConfig(mode="get_some")
    with pytest.raises(ConfigError):
        SearchConfig(merge_threshold=0)
    with pytest.raises(TypeError):
        SearchConfig(workers=20)


def test_result_to_dict_round_trips_trace():
    tax = Taxonomy()
    tax.root.service_ids = ["a1"]
    registry = make_registry(["a1"])
    gateway = gw(ScriptRule(pattern=".*", label="search.select", reply="1"))
    payload = retrieve("q", tax, registry, gateway).to_dict()
    assert payload["service_ids"] == ["a1"]
    assert payload["trace"][0]["kind"] == "select"
    assert payload["trace"][0]["options_shown"] == 1
    assert set(payload) >= {
        "calls",
        "navigation_calls",
        "selection_calls",
        "prompt_tokens",
        "output_tokens",
        "depth_reached",
        "branches_per_level",
        "groups_visited",
        "flags",
    }


def test_navigate_prompt_text_is_pinned():
    tax = Taxonomy()
    tax.add_child("root", "Travel", "Trips and bookings.", "Paying for anything.")
    tax.add_child("root", "Finance", "Money matters.")  # no boundary: no NOT clause
    gateway = gw(ScriptRule(pattern=".*", label="search.navigate", reply="0"))
    navigate(tax, [("book a flight", tax.root_id)], "get_all", gateway)
    (call,) = gateway.chat_backend.transcript
    assert call.request.system_prompt == (
        "You route a user query through a catalog of service categories, one level at a time. "
        "Select all categories that could contain query-relevant services."
    )
    assert call.request.user_prompt == (
        "Query: book a flight\n"
        "\n"
        "Categories:\n"
        "1. Travel: Trips and bookings. (NOT: Paying for anything.)\n"
        "2. Finance: Money matters.\n"
        "\n"
        "Reply with comma-separated numbers of the selected categories. "
        "Reply 0 if none are relevant."
    )


# -- many walks ----------------------------------------------------------------


def subset_oracle(label, request):
    """Picks a subset of the options from the query and the option names
    alone, so a reply does not depend on which walk asked or when."""
    user = request.user_prompt
    query = user.split("\n", 1)[0]
    names = [name for _, name in parse_options(user)]
    seed = sum(map(ord, query + names[0]))
    chosen = [str(i) for i in range(1, len(names) + 1) if (seed >> i) & 1]
    return ", ".join(chosen) or "0"


@pytest.mark.parametrize("mode", ["get_all", "get_one"])
def test_many_walks_match_one_walk_each(monkeypatch, mode):
    tax, _ = make_balanced_taxonomy(branching=3, depth=3, leaf_size=2)
    walks = [
        ("find alpha", tax.root_id),
        ("find beta", tax.root_id),
        ("find gamma", tax.root.children[1]),
        ("find delta", tax.leaves()[5]),
        ("find alpha", tax.root_id),
    ]
    alone = [
        navigate(tax, [walk], mode, gw(oracle=subset_oracle))[0]
        for walk in walks
    ]
    maps = []
    original = LlmGateway.run_parallel

    def counted(self, fn, items):
        maps.append(len(items))
        return original(self, fn, items)

    monkeypatch.setattr(LlmGateway, "run_parallel", counted)
    together = navigate(tax, walks, mode, gw(oracle=subset_oracle))
    assert together == alone
    hit_counts = [len(hits) for hits, _ in together]
    if mode == "get_one":
        assert max(hit_counts) == 1
    else:
        assert sum(hit_counts) > len(walks)  # the walks fan out
    assert len(maps) == 3  # one map per level of the tree


def test_a_walk_that_revisits_a_node_raises_data_error():
    tax = Taxonomy(nodes={
        "root": TaxonomyNode("root", "root", children=["root/a"]),
        "root/a": TaxonomyNode("root/a", "A", "a things", children=["root"], depth=1),
    })
    calls = []

    def oracle(label, request):
        calls.append(label)
        if len(calls) > 10:
            raise RuntimeError("the walk did not end")
        return "1"

    gateway = gw(oracle=oracle)
    with pytest.raises(DataError, match="node 'root' twice"):
        retrieve("anything", tax, make_registry([]), gateway)
    assert len(calls) == 2
    query = QueryCase(id="q1", text="anything", ground_truth=frozenset({"s1"}))
    _, records = evaluate(
        lambda q: retrieve(q.text, tax, make_registry([]), gateway),
        [query],
        EvalConfig(method="taxonomy", workers=1),
    )
    assert "node 'root' twice" in records[0].error


def test_a_failed_query_records_the_calls_it_made_before_failing():
    tax = Taxonomy()
    leaf(tax, "root", "A", ["s1", "s2"])
    leaf(tax, "root", "B", ["s3"])

    def oracle(label, request):
        if label == "search.select":
            raise TransportError("select timed out")
        return "1"

    backend = RecordingChatBackend(oracle=oracle)
    gateway = LlmGateway(chat_backend=backend, retries=1)
    query = QueryCase(id="q1", text="find s1", ground_truth=frozenset({"s1"}))
    _, records = evaluate(
        lambda q: retrieve(q.text, tax, make_registry(["s1", "s2", "s3"]), gateway),
        [query],
        EvalConfig(method="taxonomy", workers=1),
    )
    [navigate_call] = backend.transcript
    request = navigate_call.request
    record = records[0]
    assert "select timed out" in record.error
    assert (record.calls, record.prompt_tokens, record.output_tokens) == (
        1, estimate_tokens(request.system_prompt + request.user_prompt), estimate_tokens("1"),
    )
