"""The synthetic world and its oracle: the same queries and ground truth
from one pass over the registry, in the registry's current order, and
``LatentOracle``'s reply to every prompt, a prompt the world does not
determine included."""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from conftest import make_oracle_gateway
from taxonav.builder import BuildConfig, build
from taxonav.gateway import ChatRequest, MockChatBackend, ScriptRule
from taxonav.registry import Registry
from taxonav.synthetic import LatentOracle, LatentWorld, make_queries, make_world

# sha256 of each query's (id, text, sorted truth), then query_truth and
# query_target, as written by the generator that scanned the whole registry
# once per query. The shuffle seed reorders the registry after make_world.
QUERY_DIGESTS = [
    # (world shape, queries, seed, shuffle seed, digest)
    ((4, 4, 200), 50, 7, None, "13c285ba8f5e870d910ddd8d1dcd3f323d866b27e10c3a049d44c945b52a871e"),
    ((6, 6, 1440), 200, 3, None, "d9b1be91f76ac1e924fe2dcca0c09f673eca6c561d877de753bac4315b6de7c1"),
    ((3, 3, 180), 100, 5, 5, "00eb8cd2771f15c283c2d8abee9298f6f31b09b1c05a73fc30fd4cb5b1266868"),
    ((6, 6, 1440), 200, 2, 2, "565a9536bd0435b36da8eb6ecd90eb1d9a0d261eeb4ce78abd14b6b79746be88"),
    # one cell has no service, and then every cell
    ((2, 3, 5), 40, 11, None, "13e4d20c5b9d7a35b3103003b815a73e1a5e7733dda348f546b8326df3ad6b58"),
    ((2, 2, 0), 5, 1, None, "e6b5bcbebc5df6b89fe0b4e4ea3b8a7fa21f3a10f50ffe66f4bb96ed2ec7b83d"),
]


def world_of(shape: tuple[int, int, int], shuffle: int | None) -> LatentWorld:
    world = make_world(*shape)
    if shuffle is not None:
        services = list(world.registry)
        random.Random(shuffle).shuffle(services)
        world.registry = Registry(services)
    return world


def query_digest(world: LatentWorld, queries) -> str:
    h = hashlib.sha256()
    for q in queries:
        h.update(json.dumps([q.id, q.text, sorted(q.ground_truth)]).encode())
    h.update(json.dumps(world.query_truth).encode())
    h.update(json.dumps(world.query_target).encode())
    return h.hexdigest()


@pytest.mark.parametrize("shape, n, seed, shuffle, expected", QUERY_DIGESTS)
def test_queries_match_golden_digests(shape, n, seed, shuffle, expected):
    world = world_of(shape, shuffle)
    queries = make_queries(world, n=n, seed=seed)
    assert world.queries == queries
    assert query_digest(world, queries) == expected


def test_ground_truth_follows_the_registry_order_after_a_shuffle():
    plain = world_of((6, 6, 1440), None)
    shuffled = world_of((6, 6, 1440), 2)
    plain_queries = make_queries(plain, n=200, seed=2)
    shuffled_queries = make_queries(shuffled, n=200, seed=2)
    assert [q.text for q in plain_queries] == [q.text for q in shuffled_queries]
    assert [q.ground_truth for q in plain_queries] != [q.ground_truth for q in shuffled_queries]
    for q in shuffled_queries:
        truth = shuffled.query_truth[q.text]
        members = shuffled.leaf_services(*shuffled.query_target[q.text])
        start = members.index(truth[0])
        assert members[start : start + len(truth)] == truth


def test_cells_partition_the_registry_in_its_order():
    world = world_of((3, 4, 50), 9)
    cells = world.cells()
    assert sorted(cells) == sorted((d, s) for d in world.domains for s in world.domains[d])
    assert sorted(sid for members in cells.values() for sid in members) == sorted(world.registry.ids)
    position = {sid: i for i, sid in enumerate(world.registry.ids)}
    for (domain, sub), members in cells.items():
        assert members == sorted(members, key=position.__getitem__)
        assert world.leaf_services(domain, sub) == members
        assert {world.domain_of[s] for s in members} == {domain}
        assert {world.subdomain_of[s] for s in members} == {sub}
    assert world.leaf_services("Travel", "No Such Cell") == []


class CountingRegistry(Registry):
    """Counts reads of the registry's ids and iterations over it."""

    def __init__(self, services):
        super().__init__(services)
        self.reads = 0

    @property
    def ids(self) -> list[str]:
        self.reads += 1
        return super().ids

    def __iter__(self):
        self.reads += 1
        return super().__iter__()


@pytest.mark.parametrize("n", [10, 1000])
def test_make_queries_reads_the_registry_once(n):
    world = make_world(4, 4, 200)
    world.registry = CountingRegistry(list(world.registry))
    make_queries(world, n=n)
    assert world.registry.reads == 1


@pytest.mark.parametrize(
    "shape, message",
    [((7, 4), "at most 6 domains available"), ((4, 7), "at most 6 subdomains available")],
    ids=["domains", "subdomains"],
)
def test_make_world_refuses_more_cells_than_its_vocabulary(shape, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make_world(*shape)


def test_a_one_domain_keyword_table_designs_its_subdomains(world200):
    """At a threshold of 20 the root and each domain are designed from a
    keyword table, a domain's from keywords of that domain alone: the tree
    is the one designed from the services themselves."""
    plain, _ = build(world200.registry, BuildConfig(), make_oracle_gateway(world200))
    tree, report = build(world200.registry, BuildConfig(keyword_threshold=20), make_oracle_gateway(world200))
    assert tree == plain
    assert report.calls_by_phase["keyword"] == 10  # 4 at the root, 6 over the domains' 48-52 services
    assert report.warnings == []


def request(user: str) -> ChatRequest:
    return ChatRequest(system_prompt="system", user_prompt=user, model="mock")


@pytest.fixture(scope="module")
def small_world() -> LatentWorld:
    world = make_world(2, 2, 8)  # Travel: Flights, Hotels; Finance: Payments, Invoicing
    world.query_target["book a flight"] = ("Travel", "Flights")
    return world


FLIGHT = "flights-000: books seats"

# (case, label, user prompt, reply): a service or query outside the world, a
# prompt without its service or query line, options that miss the target,
# and labels the oracle does not script
UNDETERMINED_PROMPTS = [
    ("keyword-ghost", "build.keyword", f"1. ghost-000: haunts\n2. {FLIGHT}", "2: flights, travel"),
    ("design-ghosts", "build.design", "Services:\n1. ghost-000: haunts",
     '{"axis": "functional-domain", "categories": []}'),
    ("classify-no-service", "build.classify", "Categories:\n1. Flights: air travel.", None),
    ("classify-no-cell", "build.classify",
     f"Service:\n{FLIGHT}\n\nCategories:\n1. Payments: money.\n2. Finance: money.", "0"),
    ("navigate-no-query", "search.navigate", "Categories:\n1. Travel: trips.", None),
    ("navigate-unknown-query", "search.navigate",
     "Query: sell a house\n\nCategories:\n1. Travel: trips.", None),
    ("navigate-no-target", "search.navigate",
     "Query: book a flight\n\nCategories:\n1. Finance: money.", "0"),
    ("select-no-query", "search.select", f"Services:\n1. {FLIGHT}", None),
    ("refine", "build.refine", f"Generic services:\n1. {FLIGHT}", None),
    ("pure-llm", "baseline.pure_llm", f"Query: book a flight\n\nServices:\n1. {FLIGHT}", None),
]


@pytest.mark.parametrize(
    "label, user, reply", [case[1:] for case in UNDETERMINED_PROMPTS],
    ids=[case[0] for case in UNDETERMINED_PROMPTS],
)
def test_the_oracle_replies_none_or_0_where_the_world_does_not_determine_it(
    small_world, label, user, reply
):
    assert LatentOracle(small_world)(label, request(user)) == reply


def test_a_declined_prompt_falls_through_to_the_backend_rules(small_world):
    backend = MockChatBackend(
        rules=[ScriptRule(pattern="sell a house", label="search.navigate", reply="1")],
        oracle=LatentOracle(small_world),
    )
    user = "Query: sell a house\n\nCategories:\n1. Travel: trips."
    assert backend.complete(request(user), "search.navigate").text == "1"
