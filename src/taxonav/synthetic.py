"""Synthetic registries with a known latent taxonomy, plus mock oracles.

The generator plants every service in exactly one (domain, subdomain) cell
and phrases names, descriptions, and queries so the latent labels are
recoverable from any prompt. The oracle answers builder and search prompts
purely from those labels, which makes end-to-end pipeline runs fully
deterministic and lets tests assert exact call counts and perfect
retrieval without any network.

``make_queries`` groups the registry into its cells in one pass, in the
registry's current order, so q queries over n services cost O(n + q).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

from .gateway import ChatRequest
from .registry import QueryCase, Registry, Service
from .taxonomy import Taxonomy

DOMAIN_VOCAB: dict[str, list[str]] = {
    "Travel": ["Flights", "Hotels", "Car Rental", "Trip Planning", "Rail Tickets", "Visas"],
    "Finance": ["Payments", "Invoicing", "Stock Data", "Budgeting", "Crypto Prices", "Tax Forms"],
    "Health": ["Fitness Tracking", "Nutrition", "Telemedicine", "Sleep Analysis", "Mental Wellness", "Medication"],
    "Media": ["Video Streaming", "Podcasts", "Photo Editing", "Music Discovery", "News Feeds", "Ebooks"],
    "Commerce": ["Product Search", "Order Tracking", "Price Comparison", "Coupons", "Inventory", "Reviews"],
    "Communication": ["Email", "Team Chat", "Video Calls", "SMS", "Calendars", "Translation"],
}


@dataclass
class LatentWorld:
    registry: Registry
    queries: list[QueryCase] = field(default_factory=list)
    domain_of: dict[str, str] = field(default_factory=dict)
    subdomain_of: dict[str, str] = field(default_factory=dict)
    domains: dict[str, list[str]] = field(default_factory=dict)
    query_target: dict[str, tuple[str, str]] = field(default_factory=dict)
    query_truth: dict[str, list[str]] = field(default_factory=dict)

    def cells(self) -> dict[tuple[str, str], list[str]]:
        """The service ids of each non-empty (domain, subdomain) cell, in the
        registry's current order, from one pass over the registry. Nothing
        is cached, because a caller may swap ``registry`` for a reordered
        one after ``make_world``."""
        cells: dict[tuple[str, str], list[str]] = {}
        for sid in self.registry.ids:
            cells.setdefault((self.domain_of[sid], self.subdomain_of[sid]), []).append(sid)
        return cells

    def leaf_services(self, domain: str, sub: str) -> list[str]:
        return self.cells().get((domain, sub), [])


def _slug(text: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", text.lower()).strip("-")


def make_world(
    n_domains: int = 4,
    n_subdomains: int = 4,
    total_services: int = 200,
    extra_description: str = "",
) -> LatentWorld:
    """Evenly spreads total_services over n_domains * n_subdomains cells."""
    if n_domains > len(DOMAIN_VOCAB):
        raise ValueError(f"at most {len(DOMAIN_VOCAB)} domains available")
    domains = {
        name: subs[:n_subdomains]
        for name, subs in list(DOMAIN_VOCAB.items())[:n_domains]
    }
    if any(len(subs) < n_subdomains for subs in domains.values()):
        raise ValueError(f"at most {min(len(s) for s in DOMAIN_VOCAB.values())} subdomains available")

    cells = [(d, s) for d in domains for s in domains[d]]
    base, remainder = divmod(total_services, len(cells))
    services: list[Service] = []
    world = LatentWorld(registry=Registry([]), domains=domains)
    for cell_idx, (domain, sub) in enumerate(cells):
        count = base + (1 if cell_idx < remainder else 0)
        slug = _slug(sub)
        for i in range(count):
            sid = f"{slug}-{i:03d}"
            services.append(
                Service(
                    id=sid,
                    name=sid,
                    description=(
                        f"Helps users with {sub.lower()} tasks in the {domain.lower()} space"
                        f" (tool {i:03d}).{extra_description}"
                    ),
                )
            )
            world.domain_of[sid] = domain
            world.subdomain_of[sid] = sub
    world.registry = Registry(services)
    return world


def make_queries(world: LatentWorld, n: int = 50, seed: int = 7) -> list[QueryCase]:
    """Each query targets 1-3 adjacent services inside a single latent leaf.

    The cells are grouped once, in one pass over the registry, so the cost
    is O(services + queries). The grouping follows the registry's current
    order, not the order ``make_world`` wrote: each query's ground truth is
    a slice of its cell's members, so a reordered registry gives other
    slices from the same draws.
    """
    rng = random.Random(seed)
    cells = [(d, s) for d in world.domains for s in world.domains[d]]
    members_of = world.cells()
    queries: list[QueryCase] = []
    for qi in range(n):
        domain, sub = cells[rng.randrange(len(cells))]
        members = members_of.get((domain, sub), [])
        size = min(rng.randint(1, 3), len(members))
        start = rng.randrange(len(members) - size + 1)
        truth = members[start : start + size]
        text = f"I need a tool for {sub.lower()} work in {domain.lower()} (case {qi:03d})"
        qid = f"q{qi:03d}"
        queries.append(QueryCase(id=qid, text=text, ground_truth=frozenset(truth)))
        world.query_target[text] = (domain, sub)
        world.query_truth[text] = truth
    world.queries = queries
    return queries


# -- prompt parsing helpers (shapes fixed by the prompt templates) -----------

_OPTION_RE = re.compile(r"^\s*(\d+)\.\s(.+?): ", re.MULTILINE)
_QUERY_RE = re.compile(r"^Query: (.*)$", re.MULTILINE)
_SERVICE_RE = re.compile(r"^Service:\n(.+?): ", re.MULTILINE)
_KEYWORD_RE = re.compile(r"^- (.+?) \(\d+\)$", re.MULTILINE)


def parse_options(user_prompt: str) -> list[tuple[int, str]]:
    return [(int(m.group(1)), m.group(2)) for m in _OPTION_RE.finditer(user_prompt)]


class LatentOracle:
    """Answers builder and search prompts from the latent labels."""

    def __init__(self, world: LatentWorld):
        self.world = world

    # Categories the world would design for a homogeneous or mixed group.
    def _categories_for(self, names: list[str]) -> list[str]:
        world = self.world
        present_domains: list[str] = []
        for name in names:
            domain = world.domain_of.get(name)
            if domain and domain not in present_domains:
                present_domains.append(domain)
        if len(present_domains) == 1:
            subs: list[str] = []
            for name in names:
                sub = world.subdomain_of.get(name)
                if sub and sub not in subs:
                    subs.append(sub)
            return sorted(subs)
        return sorted(present_domains)

    def _design_reply(self, categories: list[str]) -> str:
        cats = ", ".join(
            '{"name": "%s", "description": "Services about %s.", "not_here": "Services not about %s."}'
            % (c, c.lower(), c.lower())
            for c in categories
        )
        return '{"axis": "functional-domain", "categories": [%s]}' % cats

    def __call__(self, label: str, request: ChatRequest) -> str | None:
        user = request.user_prompt
        world = self.world

        if label == "build.keyword":
            lines = []
            for idx, name in parse_options(user):
                domain = world.domain_of.get(name)
                sub = world.subdomain_of.get(name)
                if domain is None or sub is None:
                    continue
                lines.append(f"{idx}: {sub.lower()}, {domain.lower()}")
            return "\n".join(lines)

        if label == "build.design":
            if "Audit the proposed top-level categories" in user:
                return '{"ok": true}'
            if "Keyword frequencies" in user:
                keywords = {m.group(1) for m in _KEYWORD_RE.finditer(user)}
                domains = sorted(d for d in world.domains if d.lower() in keywords)
                if len(domains) == 1:
                    subs = sorted(s for s in world.domains[domains[0]] if s.lower() in keywords)
                    return self._design_reply(subs)
                return self._design_reply(domains)
            names = [name for _, name in parse_options(user)]
            return self._design_reply(self._categories_for(names))

        if label == "build.classify":
            service = _SERVICE_RE.search(user)
            if not service:
                return None
            name = service.group(1)
            domain = world.domain_of.get(name)
            sub = world.subdomain_of.get(name)
            for idx, option in parse_options(user):
                if option in (domain, sub):
                    return str(idx)
            return "0"

        if label == "build.cross_domain":
            return '{"candidates": []}'

        if label == "search.navigate":
            query = _QUERY_RE.search(user)
            if not query:
                return None
            target = world.query_target.get(query.group(1))
            if target is None:
                return None
            for idx, option in parse_options(user):
                if option in target:
                    return str(idx)
            return "0"

        if label == "search.select":
            query = _QUERY_RE.search(user)
            if not query:
                return None
            truth = set(world.query_truth.get(query.group(1), []))
            chosen = [str(idx) for idx, option in parse_options(user) if option in truth]
            return ", ".join(chosen) if chosen else "0"

        return None


def _grow(
    taxonomy: Taxonomy, services: list[Service], parent_id: str, path: str, level: int,
    branching: int, depth: int, leaf_size: int,
) -> None:
    """Adds parent_id's subtree, depth-first, and its leaves' services. A
    module function rather than a self-calling closure, whose reference to
    itself would keep the tree alive until the cyclic collector ran."""
    for i in range(1, branching + 1):
        tag = f"{path}{i}" if not path else f"{path}-{i}"
        node = taxonomy.add_child(
            parent_id, f"cat-{tag}", f"Synthetic category {tag}.", f"Anything outside {tag}."
        )
        if level < depth:
            _grow(taxonomy, services, node.node_id, tag, level + 1, branching, depth, leaf_size)
        else:
            for j in range(1, leaf_size + 1):
                sid = f"svc-{tag}-{j:02d}"
                services.append(
                    Service(id=sid, name=sid, description=f"Synthetic service {tag}/{j:02d}.")
                )
                node.service_ids.append(sid)


def make_balanced_taxonomy(
    branching: int = 8, depth: int = 2, leaf_size: int = 30
) -> tuple[Taxonomy, Registry]:
    """A complete b-ary category tree with synthetic leaf services, for
    exercising search cost accounting without a build. The pair is freed on
    its last reference, with no help from the cyclic collector."""
    taxonomy = Taxonomy()
    taxonomy.root.name = "All services"
    services: list[Service] = []
    _grow(taxonomy, services, taxonomy.root_id, "", 1, branching, depth, leaf_size)
    taxonomy.rebuild_assignment()
    return taxonomy, Registry(services)
