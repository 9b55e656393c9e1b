"""The BFS build splits every node of a level together.

Golden digests pin the artifacts of three builds: the latent ``world200``
oracle build; a scripted world whose level-1 siblings each go through a
refine round, a forced single-best placement, a tiny-merge
re-classification and a catch-all, next to a sibling whose design fails;
and ``world200`` with two cross-domain candidates per leaf. The first two
digests were taken from the node-by-node builder that preceded the
level-wide one, the third from the builder that routed each candidate by
its own serial descent, so they also prove the old and new code produce
the same bytes. The other tests check that a node split alone gets what it
gets among its siblings, that siblings at different steps share each wave
of calls, that calls in flight stay within the gateway's ``workers`` and
that no ``run_parallel`` runs inside another.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import threading
import time

import pytest

from conftest import RecordingChatBackend
from taxonav import taxonomy as taxonomy_io
from taxonav.builder import BuildConfig, BuildReport, TaxonomyBuilder, _absorb, build
from taxonav.gateway import LlmGateway, MockChatBackend
from taxonav.registry import Registry, Service
from taxonav.synthetic import LatentOracle, parse_options
from taxonav.taxonomy import Taxonomy

ARTIFACTS = ("taxonomy.json", "class.json", "build_report.json")

# sha256 of each artifact as written by the node-by-node builder.
WORLD200_DIGESTS = {
    "taxonomy.json": "a0b6d7be8569f5c929c10ad046d8b7029b3594160b1edb0814b1026a2c19fa44",
    "class.json": "900ab4dfc672d4955874a25813e467d9499c22db89535baae0d517a3c52a94a8",
    "build_report.json": "aceab5ffc2bed71e8fbd93e4e5b4ad9fb063e8018436906ff1b95c7340b24b53",
}
SCRIPTED_DIGESTS = {
    "taxonomy.json": "207c046d00cf082e9516fcadd577bbe09cc9a0dedfb6de7da5d23a39c3ac4157",
    "class.json": "3791c1c15db9fdfe4a6fcf76025e483536e3d30c505b8611da52d481fe31b039",
    "build_report.json": "83822e10081a40d99fb87b814213886289615a5527d52e24f81bc2b178785e7b",
}
# sha256 of each artifact as written with one serial descent per candidate.
CROSS_DOMAIN_DIGESTS = {
    "taxonomy.json": "cb9450bfd862f000e66b5be61b60756c38362a4bdb1d784f818237a66804afed",
    "class.json": "553fe63131e0e35f6b48600ee98be1aa33052211ee9db618b4b22682c26bbceb",
    "build_report.json": "a4950b9d6b1be0abf9a65702a88a1d143aca40c199929f22f0fe1a38c6e05feb",
}

# -- the scripted world ---------------------------------------------------------
#
# Root: 34 services, designed from keywords into Alpha (a01-a12), Gamma
# (g01-g09) and Beta (b01-b13). At level 1 Alpha and Beta are designed from
# keywords too, and Gamma's design fails twice, so Gamma stays an oversized
# leaf between two split siblings. In Alpha and Beta, x01-x04 match X1 and
# x05-x08 match X2. x09 matches nothing until the drafts are refined, then
# only X3, which is then tiny and merged away: a09 re-classifies to nothing,
# b09 to B1. x10 matches X1 and X2 (generic) and is forced into X2 (Alpha) or
# X1 (Beta). The rest never match and form the catch-all. Alpha refines
# twice; Beta's second refinement is unusable. Leaf A1 proposes a01 for
# Beta, where routing picks B2.

SCRIPTED_CONFIG = BuildConfig(
    keyword_threshold=10, leaf_threshold=6, generic_ratio=0.5, max_refine_iterations=2
)
_SERVICE_RE = re.compile(r"^Service:\n(\S+):", re.MULTILINE)
_CONTEXT_RE = re.compile(r'The parent category is "(\w+)"')


def scripted_registry() -> Registry:
    ids = (
        [f"a{i:02d}" for i in range(1, 13)]
        + [f"b{i:02d}" for i in range(1, 14)]
        + [f"g{i:02d}" for i in range(1, 10)]
    )
    return Registry([Service(id=sid, name=sid, description=f"does {sid} work") for sid in ids])


def _drafts(prefix: str, *, refined: bool, axis: str) -> str:
    categories = []
    for i in (1, 2, 3):
        description = f"{prefix}{i} {'refined' if refined else 'stuff'}"
        item = {"name": f"{prefix}{i}", "description": description}
        if not (prefix == "B" and i == 3):  # one missing boundary clause warns
            item["not_here"] = f"not {prefix}{i}"
        categories.append(item)
    return json.dumps({"axis": axis, "categories": categories})


def _classify(user: str) -> str:
    name = _SERVICE_RE.search(user).group(1)
    options = {opt: idx for idx, opt in parse_options(user)}
    if "Alpha" in options:  # the root level
        return str(options[{"a": "Alpha", "b": "Beta", "g": "Gamma"}[name[0]]])
    prefix, n = name[0].upper(), int(name[1:])
    if "exactly one number" in user:
        return str(options[f"{prefix}2" if prefix == "A" else f"{prefix}1"])
    if n <= 4:
        return str(options[f"{prefix}1"])
    if n <= 8:
        return str(options[f"{prefix}2"])
    if n == 9:
        if f"{prefix}3" not in options:  # re-classified after the tiny merge
            return "0" if prefix == "A" else str(options["B1"])
        return str(options[f"{prefix}3"]) if "refined" in user else "0"
    if n == 10:
        return f"{options[prefix + '1']},{options[prefix + '2']}"
    return "0"


def scripted_oracle(label: str, request) -> str | None:
    user = request.user_prompt
    context = _CONTEXT_RE.search(user)
    node = context.group(1) if context else "root"
    if label == "build.keyword":
        return "\n".join(f"{idx}: {name[0]}-work, shared" for idx, name in parse_options(user))
    if label == "build.design":
        if "Audit the proposed" in user:
            return '{"ok": true}'
        if node == "root":
            return json.dumps(
                {"axis": "functional-domain", "categories": [
                    {"name": n, "description": f"{n} services", "not_here": f"not {n}"}
                    for n in ("Alpha", "Gamma", "Beta")
                ]}
            )
        if node == "Gamma":
            return "junk"
        axis = "vibes" if node == "Alpha" else "functional-domain"  # vibes warns
        return _drafts(node[0], refined=False, axis=axis)
    if label == "build.refine":
        if node == "Beta" and "B1 refined" in user:
            return "cannot help"
        return _drafts(node[0], refined=True, axis="functional-domain")
    if label == "build.classify":
        return _classify(user)
    if label == "build.cross_domain":
        if user.startswith("Query:"):
            return "2"
        if re.search(r"^1\. a01:", user, re.MULTILINE):
            return '{"candidates": [{"index": 1, "domain": "Beta"}]}'
        return '{"candidates": []}'
    return None


# -- the cross-domain world ------------------------------------------------------
#
# world200 with two cross-domain candidates per leaf. Each leaf proposes its
# first service for the next domain (in name order). Leaves listing an odd
# number of services propose that service a second time, a duplicate; the
# others propose their second service for the domain after that. Routing
# follows the candidate's own subdomain position p in its domain: option 1
# for p=0, "3, 2" for p=1 (the smallest index wins), 3 for p=2, and "0", a
# routing failure, for p=3. Every reply depends on its prompt alone.

_QUERY_NAME_RE = re.compile(r"^Query: (\S+):", re.MULTILINE)
_OWN_DOMAIN_RE = re.compile(r'top-level domain "(\w+)"')


class CrossDomainOracle:
    def __init__(self, world) -> None:
        self.world = world
        self.latent = LatentOracle(world)
        self.domains = sorted(world.domains)

    def __call__(self, label: str, request) -> str | None:
        if label != "build.cross_domain":
            return self.latent(label, request)
        user = request.user_prompt
        query = _QUERY_NAME_RE.search(user)
        if query:
            sid = query.group(1)
            domain = self.world.domain_of[sid]
            position = self.world.domains[domain].index(self.world.subdomain_of[sid])
            return ("1", "3, 2", "3", "0")[position]
        own = self.domains.index(_OWN_DOMAIN_RE.search(user).group(1))
        first = {"index": 1, "domain": self.domains[(own + 1) % len(self.domains)]}
        if len(parse_options(user)) % 2:
            second = dict(first)
        else:
            second = {"index": 2, "domain": self.domains[(own + 2) % len(self.domains)]}
        return json.dumps({"candidates": [first, second]})


# -- helpers ---------------------------------------------------------------------


def digests(taxonomy, report, out_dir) -> dict[str, str]:
    taxonomy_io.save(taxonomy, out_dir)
    report.save(out_dir / "build_report.json")
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in ARTIFACTS}


class CountingBackend:
    """Sleeps before each call and records calls in flight and call spans."""

    def __init__(self, inner, delay: float = 0.002) -> None:
        self.inner = inner
        self.delay = delay
        self.inflight = 0
        self.peak_inflight = 0
        self.spans: list[tuple[str, str, float, float]] = []
        self._lock = threading.Lock()

    def complete(self, request, label):
        with self._lock:
            self.inflight += 1
            self.peak_inflight = max(self.peak_inflight, self.inflight)
        start = time.perf_counter()
        try:
            time.sleep(self.delay)
            return self.inner.complete(request, label)
        finally:
            end = time.perf_counter()
            with self._lock:
                self.inflight -= 1
                self.spans.append((label, request.user_prompt, start, end))


def _world200_build(world, workers: int | None = None, backend_wrapper=None, oracle=LatentOracle):
    backend = MockChatBackend(oracle=oracle(world))
    if backend_wrapper is not None:
        backend = backend_wrapper(backend)
    kwargs = {} if workers is None else {"workers": workers}
    gateway = LlmGateway(chat_backend=backend, **kwargs)
    return build(world.registry, BuildConfig(), gateway), backend


def _scripted_build(workers: int | None = None):
    kwargs = {} if workers is None else {"workers": workers}
    gateway = LlmGateway(chat_backend=MockChatBackend(oracle=scripted_oracle), **kwargs)
    return build(scripted_registry(), SCRIPTED_CONFIG, gateway)


# -- golden artifacts -------------------------------------------------------------


@pytest.mark.parametrize("workers", [None, 1, 8])
def test_world200_artifacts_match_golden_digests(world200, tmp_path, workers):
    (taxonomy, report), _ = _world200_build(world200, workers)
    assert digests(taxonomy, report, tmp_path) == WORLD200_DIGESTS


@pytest.fixture()
def fast_thread_switching():
    """Switches threads far more often than by default, so that an order
    that depends on call timing shows up in the artifacts."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("workers", [None, 1, 8])
def test_scripted_artifacts_match_golden_digests(tmp_path, workers, fast_thread_switching):
    taxonomy, report = _scripted_build(workers)
    assert digests(taxonomy, report, tmp_path) == SCRIPTED_DIGESTS


@pytest.mark.parametrize("workers", [None, 1, 8])
def test_cross_domain_artifacts_match_golden_digests(
    world200, tmp_path, workers, fast_thread_switching
):
    (taxonomy, report), _ = _world200_build(world200, workers, oracle=CrossDomainOracle)
    assert report.cross_domain == {
        "proposals": 32,
        "accepted": 18,
        "duplicates": 6,
        "skipped": 0,
        "routing_failures": 8,
        "extra_assignments_distribution": {"1": 18},
    }
    assert digests(taxonomy, report, tmp_path) == CROSS_DOMAIN_DIGESTS


def test_scripted_world_exercises_every_level_phase():
    taxonomy, report = _scripted_build()
    names = {
        parent: [taxonomy.node(c).name for c in taxonomy.node(parent).children]
        for parent in ("root", "root/alpha", "root/beta")
    }
    assert names == {
        "root": ["Alpha", "Gamma", "Beta"],
        "root/alpha": ["A1", "A2", "Other"],
        "root/beta": ["B1", "B2", "Other"],
    }
    assert report.refine_iterations == {"root": 0, "root/alpha": 2, "root/beta": 1}
    assert report.merged_tiny_categories == 2
    assert report.catchall_placements == 6
    assert report.oversized_leaves == ["root/gamma"]
    assert taxonomy.node("root/alpha/other").service_ids == ["a11", "a12", "a09"]
    assert "a10" in taxonomy.node("root/alpha/a2").service_ids  # forced choice
    assert {"b09", "b10"} <= set(taxonomy.node("root/beta/b1").service_ids)
    assert taxonomy.assignment["a01"] == ["root/alpha/a1", "root/beta/b2"]
    # warnings arrive in BFS node order, whatever order the calls finished in
    def first(text: str) -> int:
        return next(i for i, w in enumerate(report.warnings) if text in w)

    assert (
        first("coerced")
        < first("root/gamma: design failed")
        < first("without a boundary")
        < first("refinement reply unusable")
    )
    assert report.calls_by_phase["keyword"] == 3  # root, Alpha and Beta


def scripted_level_one() -> tuple[TaxonomyBuilder, Taxonomy, list]:
    """The scripted world's tree after the root split, and its level 1."""
    services = list(scripted_registry())
    taxonomy = Taxonomy()
    taxonomy.root.service_ids = [s.id for s in services]
    gateway = LlmGateway(chat_backend=MockChatBackend(oracle=scripted_oracle))
    builder = TaxonomyBuilder(gateway, SCRIPTED_CONFIG)
    [level] = builder._split_level(taxonomy, [(taxonomy.root_id, services)], BuildReport())
    return builder, taxonomy, level


def test_a_node_split_alone_matches_its_split_among_siblings():
    builder, taxonomy, level = scripted_level_one()
    assert [node_id for node_id, _ in level] == ["root/alpha", "root/gamma", "root/beta"]
    together = BuildReport()
    children = builder._split_level(taxonomy, level, together)
    alone = BuildReport()
    for entry, node_children in zip(level, children):
        builder, own_taxonomy, _ = scripted_level_one()
        log = BuildReport()
        assert builder._split_level(own_taxonomy, [entry], log) == [node_children]
        for child_id, members in node_children:
            assert own_taxonomy.node(child_id) == taxonomy.node(child_id)
            assert own_taxonomy.node(child_id).service_ids == [s.id for s in members]
        assert own_taxonomy.node(entry[0]) == taxonomy.node(entry[0])
        _absorb(alone, log)
    assert alone == together
    assert together.warnings and together.refine_iterations and together.oversized_leaves


def test_nodes_at_different_steps_share_a_wave(monkeypatch):
    """Level 1 of the scripted world: Gamma stops after its design, Beta
    after one refine round, Alpha after two, yet each wave is one map."""
    sizes = []
    original = LlmGateway.run_parallel

    def counted(self, fn, items):
        items = list(items)
        sizes.append(len(items))
        return original(self, fn, items)

    monkeypatch.setattr(LlmGateway, "run_parallel", counted)
    _scripted_build()
    # root classify; level 1: design, classify, refine, classify, refine,
    # Alpha's classify with Beta's forced choice, Alpha's forced choice with
    # Beta's re-classification; then the cross-domain proposals
    assert [n for n in sizes if n > 1] == [34, 3, 25, 2, 25, 2, 13, 2, 7]


# -- concurrency ------------------------------------------------------------------


def test_sibling_designs_overlap_and_inflight_stays_within_workers(world200):
    (_, report), backend = _world200_build(world200, 4, CountingBackend)
    assert backend.peak_inflight <= 4
    designs = [
        (start, end)
        for label, user, start, end in backend.spans
        if label == "build.design" and "The parent category is" in user
    ]
    assert len(designs) == 4
    assert any(
        a_start < b_end and b_start < a_end
        for i, (a_start, a_end) in enumerate(designs)
        for b_start, b_end in designs[i + 1 :]
    )
    assert report.total_calls() == len(backend.spans)


def test_cross_domain_routing_calls_overlap_within_workers(world200):
    (_, report), backend = _world200_build(world200, 4, CountingBackend, oracle=CrossDomainOracle)
    routes = [
        (start, end)
        for label, user, start, end in backend.spans
        if label == "build.cross_domain" and user.startswith("Query:")
    ]
    assert len(routes) == 32
    peak = max(sum(1 for s, e in routes if s <= start < e) for start, _ in routes)
    assert 1 < peak <= 4
    assert report.total_calls() == len(backend.spans)


def test_no_run_parallel_starts_inside_another(world200, monkeypatch):
    original = LlmGateway.run_parallel
    inside = threading.local()
    nested: list[int] = []
    maps: list[int] = []

    def guarded(self, fn, items):
        if getattr(inside, "depth", 0):
            nested.append(len(items))

        def item(x):
            inside.depth = getattr(inside, "depth", 0) + 1
            try:
                return fn(x)
            finally:
                inside.depth -= 1

        items = list(items)
        maps.append(len(items))
        return original(self, item, items)

    monkeypatch.setattr(LlmGateway, "run_parallel", guarded)
    _world200_build(world200, 4)
    _world200_build(world200, 4, oracle=CrossDomainOracle)
    build(scripted_registry(), SCRIPTED_CONFIG,
          LlmGateway(chat_backend=MockChatBackend(oracle=scripted_oracle), workers=4))
    assert maps and nested == []


def test_concurrent_builds_on_one_gateway_each_count_their_own_calls(
    world200, tmp_path, fast_thread_switching
):
    (_, alone), _ = _world200_build(world200)
    backend = RecordingChatBackend(oracle=LatentOracle(world200))
    gateway = LlmGateway(chat_backend=backend, workers=8)
    start = threading.Barrier(2)
    builds: list = [None, None]

    def run(index: int) -> None:
        start.wait()
        builds[index] = build(world200.registry, BuildConfig(), gateway)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    for index, (taxonomy, report) in enumerate(builds):
        assert report.total_calls() == alone.total_calls()
        assert report.calls_by_phase == alone.calls_by_phase
        assert report.tokens_by_phase == alone.tokens_by_phase
        assert digests(taxonomy, report, tmp_path / str(index)) == WORLD200_DIGESTS
    assert len(backend.transcript) == 2 * alone.total_calls()
