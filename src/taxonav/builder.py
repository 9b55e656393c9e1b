"""Category-tree construction.

Two builders live here. The main one grows the tree breadth-first: any node
holding more services than the leaf threshold (and above the depth cap) is
split by an LLM-designed set of sibling categories, with a classification /
refinement loop that tightens boundaries until every service lands cleanly
or the iteration budget runs out. All nodes of one level are split
together, as one parallel map of ``split_node``, and each node's own calls
run as maps nested inside it, all within the gateway's workers. Oversized
nodes are first compressed into a keyword frequency table so the designer
prompt stays small. After the tree settles, a cross-domain pass lets
services surface under additional top-level domains, which is where the
multi-parent structure comes from. Its candidates are routed to a leaf by
search's own walker (``search.navigate``), all of them one level at a
time, as get_one walks that follow a single branch.

The second builder produces the whole tree from one design call plus one
classification call per service. It exists as a baseline and deliberately
skips the per-node machinery; its variants toggle a keyword payload, a
whole-tree refinement loop, and single-axis design rules.
"""

from __future__ import annotations

import logging
import re
from collections.abc import Callable, Iterator
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import prompts
from .errors import ConfigError, DataError, DesignError, ReplyParseError
from .gateway import LlmGateway, SelectionResult, UsageMeter, extract_json_object, metered, parse_index_list
from .registry import Registry, Service, dump_json
from .search import navigate
from .taxonomy import Taxonomy

logger = logging.getLogger(__name__)

AXIS_TAGS = ("functional-domain", "operation-object", "operation-type", "technical-approach")

CATCHALL_NAME = "Other"

ONESHOT_VARIANTS = ("base", "freq", "refine", "axis")


@dataclass
class BuildConfig:
    keyword_threshold: int = 500
    leaf_threshold: int = 40
    max_depth: int = 3
    generic_ratio: float = 1 / 3
    max_categories: int = 20
    max_refine_iterations: int = 3
    keyword_batch_size: int = 50
    tiny_merge_threshold: int = 2

    def __post_init__(self) -> None:
        if self.keyword_threshold < 1 or self.leaf_threshold < 1:
            raise ConfigError("thresholds must be positive")
        if self.max_depth < 1:
            raise ConfigError("max_depth must be at least 1")
        if not 0 < self.generic_ratio <= 1:
            raise ConfigError("generic_ratio must be in (0, 1]")
        if self.max_categories < 2:
            raise ConfigError("max_categories must allow at least 2 drafts")
        if self.max_refine_iterations < 0:
            raise ConfigError("max_refine_iterations must be non-negative")
        if self.keyword_batch_size < 1:
            raise ConfigError("keyword_batch_size must be positive")
        if self.tiny_merge_threshold < 0:
            raise ConfigError("tiny_merge_threshold must be non-negative")


@dataclass
class KeywordTable:
    """Frequency-ranked functional keywords for a group of services."""

    entries: list[tuple[str, int]]

    def render(self) -> str:
        return "\n".join(f"- {kw} ({freq})" for kw, freq in self.entries)


@dataclass
class CategoryDraft:
    name: str
    description: str
    boundary: str
    axis: str


@dataclass
class BuildReport:
    method: str = "bfs"
    calls_by_phase: dict[str, int] = field(default_factory=dict)
    tokens_by_phase: dict[str, int] = field(default_factory=dict)
    refine_iterations: dict[str, int] = field(default_factory=dict)
    merged_tiny_categories: int = 0
    catchall_placements: int = 0
    forced_placements: int = 0
    oversized_leaves: list[str] = field(default_factory=list)
    cross_domain: dict = field(default_factory=dict)
    classification_failures: list[dict] = field(default_factory=list)
    assigned_services: int = 0
    pruned_empty_categories: int = 0
    warnings: list[str] = field(default_factory=list)

    def total_calls(self) -> int:
        return sum(self.calls_by_phase.values())

    def save(self, path: str | Path) -> None:
        dump_json({**asdict(self), "total_calls": self.total_calls()}, Path(path))


def _normalize_axis(raw: object) -> str | None:
    if not isinstance(raw, str) or not raw.strip():
        return None
    return re.sub(r"[\s_]+", "-", raw.strip().lower())


def _normalize_name(name: str) -> str:
    return re.sub(r"\s+", " ", name).strip().lower()


def _named_items(items: list) -> Iterator[tuple[str, str, dict]]:
    """(name, description, item) for each object of a reply's list that has
    a name; any other item is skipped."""
    for item in items:
        if isinstance(item, dict) and (name := str(item.get("name") or "").strip()):
            yield name, str(item.get("description") or "").strip(), item


def _fill_phases(report: BuildReport, usage: UsageMeter) -> None:
    """Calls and tokens per phase, the label after its "build." or
    "oneshot." prefix, from the meter of the build's metered() scope."""
    labels = usage.snapshot()["labels"]
    phases = {label.split(".", 1)[-1]: bucket for label, bucket in labels.items()}
    report.calls_by_phase = {phase: b["calls"] for phase, b in phases.items()}
    report.tokens_by_phase = {
        phase: b["prompt_tokens"] + b["output_tokens"] for phase, b in phases.items()
    }


def _absorb(report: BuildReport, part: BuildReport) -> None:
    """Adds the warnings and counters of one node's own report."""
    report.warnings.extend(part.warnings)
    report.oversized_leaves.extend(part.oversized_leaves)
    report.refine_iterations.update(part.refine_iterations)
    report.merged_tiny_categories += part.merged_tiny_categories
    report.catchall_placements += part.catchall_placements
    report.forced_placements += part.forced_placements


class TaxonomyBuilder:
    """Stateful driver for the breadth-first build."""

    def __init__(self, gateway: LlmGateway, cfg: BuildConfig | None = None) -> None:
        self.gateway = gateway
        self.cfg = cfg or BuildConfig()

    # -- keyword compression ----------------------------------------------

    def extract_keywords(
        self, services: list[Service], *, label: str = "build.keyword",
        report: BuildReport | None = None, node_id: str | None = None,
    ) -> KeywordTable:
        """Batched keyword extraction; one chat call per batch of services.

        Keywords deduplicate case-insensitively; the frequency of a keyword
        is the number of services that mentioned it. A batch whose reply
        parses to nothing contributes nothing, with one warning in the
        report, led by node_id when there is one; only all batches failing
        is an error.
        """
        cfg = self.cfg
        batches = [
            services[i : i + cfg.keyword_batch_size]
            for i in range(0, len(services), cfg.keyword_batch_size)
        ]
        template = prompts.load("keyword_extract")

        def call(batch: list[Service]) -> str:
            system, user = template.render(services=prompts.service_options(batch))
            return self.gateway.chat(system, user, label=label).text

        replies = self.gateway.run_parallel(call, batches)
        counts: dict[str, int] = {}
        failed_batches = 0
        line_re = re.compile(r"^\s*(\d+)\s*[:.)\-]\s*(.+)$")
        for batch, reply in zip(batches, replies):
            parsed_any = False
            for line in reply.splitlines():
                match = line_re.match(line)
                if not match:
                    continue
                if not parse_index_list(match.group(1), len(batch))[0]:  # out of range
                    continue
                parsed_any = True
                seen: set[str] = set()
                for raw in match.group(2).split(","):
                    keyword = raw.strip().lower()
                    if not keyword or keyword in seen:
                        continue
                    seen.add(keyword)
                    if len(seen) > 5:  # per-service cap
                        break
                    counts[keyword] = counts.get(keyword, 0) + 1
            if not parsed_any:
                failed_batches += 1
                warning = f"keyword batch of {len(batch)} services parsed to nothing"
                logger.warning(warning)
                if report is not None:
                    report.warnings.append(f"{node_id}: {warning}" if node_id else warning)
        if batches and failed_batches == len(batches):
            raise DataError("keyword extraction failed for every batch")
        entries = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return KeywordTable(entries=entries)

    # -- category design ----------------------------------------------------

    def _parse_drafts(self, obj: dict, report: BuildReport) -> list[CategoryDraft]:
        """Validates a design reply, or raises ReplyParseError naming what
        it violates. A valid reply's warnings go to the report, and a
        violating reply has none."""
        raw = obj.get("categories")
        if not isinstance(raw, list):
            raise ReplyParseError("the reply JSON lacks a 'categories' array")
        shared_axis = _normalize_axis(obj.get("axis"))
        drafts = [
            CategoryDraft(
                name=name,
                description=description,
                boundary=str(item.get("not_here") or "").strip(),
                axis=_normalize_axis(item.get("axis")) or shared_axis or "",
            )
            for name, description, item in _named_items(raw)
        ]
        axes = {d.axis for d in drafts if d.axis}
        if len(axes) > 1:
            raise ReplyParseError(
                "the sibling categories mix classification axes (" + ", ".join(sorted(axes)) + ")"
            )
        if len(drafts) < 2:
            raise ReplyParseError("fewer than 2 categories were proposed")
        axis = next(iter(axes), "")
        if axis not in AXIS_TAGS:
            if axis:
                report.warnings.append(f"unknown axis tag {axis!r} coerced to functional-domain")
            axis = "functional-domain"
        for draft in drafts:
            draft.axis = axis
            if not draft.boundary:
                report.warnings.append(f"category {draft.name!r} came without a boundary clause")
                draft.boundary = "Services that fit a sibling category better."
        if len(drafts) > self.cfg.max_categories:
            report.warnings.append(
                f"designer proposed {len(drafts)} categories; truncated to {self.cfg.max_categories}"
            )
            drafts = drafts[: self.cfg.max_categories]
        return drafts

    def _request_drafts(
        self, template_name: str, values: dict[str, str], *, label: str, report: BuildReport
    ) -> list[CategoryDraft]:
        """One design call with a single validation re-ask, then DesignError."""

        def parse(text: str) -> list[CategoryDraft]:
            try:
                obj = extract_json_object(text)
            except ReplyParseError as exc:  # malformed JSON counts as a violation
                raise ReplyParseError(f"the reply was not a valid JSON object ({exc})") from exc
            return self._parse_drafts(obj, report)

        def reask(violation: ReplyParseError) -> str:
            return (
                f"\n\nYour previous reply was invalid: {violation}."
                " Reply again with a single JSON object following the schema exactly."
            )

        system, user = prompts.render(template_name, **values)
        try:
            return self.gateway.ask(system, user, label=label, parse=parse, reask=reask)
        except ReplyParseError as exc:
            raise DesignError(f"category design failed after re-ask: {exc}") from exc

    def design_categories(
        self,
        payload: KeywordTable | list[Service],
        parent_context: str,
        *,
        report: BuildReport,
    ) -> list[CategoryDraft]:
        """Designs sibling categories from either a keyword table (large
        nodes) or raw service descriptions (small nodes)."""
        values = {
            "parent_context": parent_context,
            "axis_rules": prompts.snippet("axis_rules"),
            "max_categories": str(self.cfg.max_categories),
        }
        if isinstance(payload, KeywordTable):
            if not payload.entries:
                raise DesignError("cannot design categories from an empty keyword table")
            values["keywords"] = payload.render()
            template = "design_from_keywords"
        else:
            if not payload:
                raise DesignError("cannot design categories for zero services")
            values["services"] = prompts.service_options(payload)
            template = "design_from_descriptions"
        return self._request_drafts(template, values, label="build.design", report=report)

    def validate_root(
        self,
        drafts: list[CategoryDraft],
        keyword_table: KeywordTable | None,
        services: list[Service],
        report: BuildReport,
    ) -> list[CategoryDraft]:
        """Root-only audit: one chat call, with no re-ask, that either
        confirms the top-level set or supplies a full replacement. An
        unparseable reply or an invalid replacement keeps the drafts, with
        one warning."""
        if keyword_table is not None:
            payload_header = "Keyword frequencies observed across the catalog:"
            payload = keyword_table.render()
        else:
            payload_header = "Catalog services:"
            payload = prompts.service_options(services)
        system, user = prompts.render(
            "validate_root",
            axis_rules=prompts.snippet("axis_rules"),
            categories=prompts.category_options(drafts),
            payload_header=payload_header,
            payload=payload,
        )
        response = self.gateway.chat(system, user, label="build.design")
        try:
            obj = extract_json_object(response.text)
            if obj.get("ok") is True:
                return drafts
            repaired = self._parse_drafts(obj, report)
        except ReplyParseError as exc:
            report.warnings.append(f"root repair rejected ({exc}); keeping original drafts")
            return drafts
        logger.info("root validation replaced %d drafts with %d", len(drafts), len(repaired))
        return repaired

    # -- classification ------------------------------------------------------

    def classify_services(
        self,
        services: list[Service],
        drafts: list[CategoryDraft],
    ) -> list[SelectionResult]:
        """One chat call per service against the draft list, as one
        run_parallel map; each service's selection of 1-based draft indices,
        as the gateway returns it. split_node reads the statuses from them."""
        return self.gateway.run_parallel(self._classifier(drafts), services)

    def _classifier(
        self, drafts: list[CategoryDraft], template_name: str = "classify_service"
    ) -> Callable[[Service], SelectionResult]:
        """The single-service call of classify_services. With the
        "classify_single_best" prompt it is the forced choice for generic
        services, whose pick is the smallest index named: indices come sorted."""
        options = prompts.category_options(drafts)
        template = prompts.load(template_name)

        def call(svc: Service) -> SelectionResult:
            system, user = template.render(
                service_name=svc.name, service_description=svc.description, options=options
            )
            return self.gateway.select_indices(
                system, user, label="build.classify", n_options=len(drafts)
            )

        return call

    def refine_drafts(
        self,
        drafts: list[CategoryDraft],
        generic: list[Service],
        unmatched: list[Service],
        parent_context: str,
        *,
        report: BuildReport,
    ) -> list[CategoryDraft]:
        """One refinement round: one design call with a single re-ask, as in
        design_categories. Raises DesignError when the reply is unusable."""

        def listing(items: list[Service]) -> str:
            return prompts.service_options(items) if items else "(none)"

        values = {
            "parent_context": parent_context,
            "axis_rules": prompts.snippet("axis_rules"),
            "options": prompts.category_options(drafts),
            "generic_services": listing(generic),
            "unmatched_services": listing(unmatched),
            "max_categories": str(self.cfg.max_categories),
        }
        return self._request_drafts("refine_categories", values, label="build.refine", report=report)

    # -- node splitting ------------------------------------------------------

    def _split_level(
        self,
        taxonomy: Taxonomy,
        level: list[tuple[str, list[Service]]],
        report: BuildReport,
    ) -> list[list[tuple[str, list[Service]]]]:
        """Splits the given (node_id, services) nodes of one level together,
        as one run_parallel map of split_node. Each node's own maps nest
        inside it, so the gateway's workers bound the calls in flight across
        the level. Children and each node's own report are added in node
        order once the level is done, so the result does not depend on call
        timing. When a node's split raises, no node that has not started
        starts, the nodes already started finish their split, and then the
        earliest failed node's exception is raised.

        Returns, per node, (child_id, child_services) pairs in draft order
        with any catch-all last, or an empty list when the node stays a leaf.
        """
        splits = self.gateway.run_parallel(lambda entry: self.split_node(taxonomy, *entry), level)
        children: list[list[tuple[str, list[Service]]]] = []
        for (node_id, _), (log, placements) in zip(level, splits):
            children.append([])
            for draft, members in placements:
                child = taxonomy.add_child(node_id, draft.name, draft.description, draft.boundary)
                child.service_ids = [s.id for s in members]
                children[-1].append((child.node_id, members))
            if placements:
                taxonomy.node(node_id).service_ids = []
            _absorb(report, log)
        return children

    def split_node(
        self, taxonomy: Taxonomy, node_id: str, services: list[Service]
    ) -> tuple[BuildReport, list[tuple[CategoryDraft, list[Service]]]]:
        """One node's split, start to end; it reads the taxonomy and does not
        change it. Returns the node's own report and its (draft, services)
        placements. Each classification round reads a status per service,
        with limit = max(1, generic_ratio * len(drafts)): a service that
        matched more than limit drafts is generic, one that matched none (an
        unparseable reply included) is unmatched, any other is ok. Ok
        services go to every matched child, generic services to a single
        forced choice, the rest to the catch-all. Children at or below the
        tiny threshold are deleted and their services re-classified among the
        survivors, each once; a survivor that already holds a service does
        not take it again, and a service that a survivor holds goes to no
        catch-all.

        ``build`` splits only nodes above ``leaf_threshold``, so the node is
        oversized whenever it stays a leaf. No placements means it does: its
        design failed even after the re-ask, or fewer than two children
        survived the tiny merge. The report says why. A design failure at
        the root raises DesignError. The report's last warning counts the
        node's classification replies that stayed unparseable after their
        re-ask, if any did.
        """
        cfg = self.cfg
        log = BuildReport()
        is_root = node_id == taxonomy.root_id
        if is_root:
            parent_context = "These services form the root of the catalog."
        else:
            node = taxonomy.node(node_id)
            parent_context = f'The parent category is "{node.name}": {node.description}'
        table = None
        if len(services) > cfg.keyword_threshold:
            table = self.extract_keywords(services, report=log, node_id=node_id)
        unparseable = 0  # classification replies, over every map of the node

        def done(placements: list) -> tuple[BuildReport, list]:
            if unparseable:
                log.warnings.append(
                    f"{node_id}: {unparseable} classification replies unparseable after re-ask"
                )
            return log, placements

        try:
            drafts = self.design_categories(
                table if table is not None else services, parent_context, report=log
            )
        except DesignError as exc:
            if is_root:
                raise DesignError(f"unrecoverable design failure at the root: {exc}") from exc
            log.warnings.append(f"{node_id}: design failed ({exc}); kept as a leaf")
            log.oversized_leaves.append(node_id)
            return log, []
        if is_root:
            drafts = self.validate_root(drafts, table, services, log)

        rounds = 0
        while True:
            selections = self.classify_services(services, drafts)
            unparseable += sum(sel.parse_failed for sel in selections)
            limit = max(1.0, cfg.generic_ratio * len(drafts))
            generic = [s for s, sel in zip(services, selections) if len(sel.indices) > limit]
            unmatched = [s for s, sel in zip(services, selections) if not sel.indices]
            if not (generic or unmatched) or rounds == cfg.max_refine_iterations:
                break
            try:
                drafts = self.refine_drafts(drafts, generic, unmatched, parent_context, report=log)
            except DesignError:
                log.warnings.append(f"{node_id}: refinement reply unusable; boundaries kept as-is")
                break
            rounds += 1
        log.refine_iterations[node_id] = rounds

        choices = self.gateway.run_parallel(self._classifier(drafts, "classify_single_best"), generic)
        unparseable += sum(choice.parse_failed for choice in choices)
        forced = {
            svc.id: choice.indices[0]  # indices come sorted
            for svc, choice in zip(generic, choices)
            if choice.indices
        }
        buckets: list[list[Service]] = [[] for _ in drafts]
        catchall: list[Service] = []
        for svc, sel in zip(services, selections):
            if 0 < len(sel.indices) <= limit:  # ok
                for idx in sel.indices:
                    buckets[idx - 1].append(svc)
            elif svc.id in forced:
                buckets[forced[svc.id] - 1].append(svc)
            else:
                catchall.append(svc)
        tiny = [i for i, b in enumerate(buckets) if len(b) <= cfg.tiny_merge_threshold]
        survivors = [i for i in range(len(buckets)) if i not in tiny]
        if len(survivors) < 2:
            log.warnings.append(
                f"{node_id}: fewer than 2 children survived the tiny merge; kept as a leaf"
            )
            log.oversized_leaves.append(node_id)
            return done([])
        log.merged_tiny_categories += sum(1 for i in tiny if buckets[i])

        # An ok service can sit in several tiny children, and in a survivor
        # too: it is re-classified once and joins no child twice.
        displaced = {svc.id: svc for i in tiny for svc in buckets[i]}
        held = {(i, svc.id) for i in survivors for svc in buckets[i] if svc.id in displaced}
        placed = {svc_id for _, svc_id in held}
        selections = self.classify_services(list(displaced.values()), [drafts[i] for i in survivors])
        unparseable += sum(sel.parse_failed for sel in selections)
        for svc, sel in zip(displaced.values(), selections):
            for i in (survivors[idx - 1] for idx in sel.indices):
                if (i, svc.id) not in held:
                    buckets[i].append(svc)
            if not sel.indices and svc.id not in placed:
                catchall.append(svc)
        if catchall and len(catchall) <= cfg.tiny_merge_threshold:
            # A tiny catch-all would immediately violate the tiny rule, so
            # force its services into the largest surviving child instead.
            largest = max(survivors, key=lambda i: (len(buckets[i]), -i))
            buckets[largest].extend(catchall)
            log.forced_placements += len(catchall)
            log.warnings.append(
                f"{node_id}: {len(catchall)} stray services forced into {drafts[largest].name!r}"
            )
            catchall = []
        placements = [(drafts[i], buckets[i]) for i in survivors]
        if catchall:
            placements.append((
                CategoryDraft(
                    name=CATCHALL_NAME,
                    description="Services that did not fit any sibling category.",
                    boundary="Anything that clearly belongs to a named sibling.",
                    axis="",
                ),
                catchall,
            ))
            log.catchall_placements += len(catchall)
        return done(placements)

    # -- cross-domain pass -----------------------------------------------------

    def cross_domain_assign(self, taxonomy: Taxonomy, registry: Registry, report: BuildReport) -> None:
        """One proposal call per non-empty leaf; a reply with no candidate
        list, junk included, is one warning. Each valid candidate is then
        routed to a leaf under the named top-level domain by a get_one
        search walk, all candidates together, one map of calls per level.
        Results apply in (leaf, candidate) order; re-proposing an existing
        placement changes nothing."""
        root = taxonomy.root
        order = taxonomy.walk()  # DataError unless one tree whose inner nodes list no services
        if len(root.children) < 2:
            order = order[:1]  # no other domain to surface under: no leaf is asked
        domain_ids = set(root.children)
        domain_by_name = {
            _normalize_name(taxonomy.node(cid).name): cid for cid in root.children
        }
        domain_names = ", ".join(taxonomy.node(cid).name for cid in root.children)
        # In preorder a node's domain is the last depth-1 node seen before it.
        leaf_ids: list[str] = []
        own_domain: dict[str, str] = {}
        for node_id in order[1:]:
            if node_id in domain_ids:
                domain_id = node_id
            node = taxonomy.nodes[node_id]
            if node.is_leaf() and node.service_ids:
                leaf_ids.append(node_id)
                own_domain[node_id] = domain_id
        template = prompts.load("cross_domain_candidates")
        stats = {"proposals": 0, "accepted": 0, "duplicates": 0, "skipped": 0, "routing_failures": 0}
        extra_counts: dict[str, int] = {}

        def propose(leaf_id: str) -> dict | None:
            leaf_services = [registry.get(sid) for sid in taxonomy.node(leaf_id).service_ids]
            own = taxonomy.node(own_domain[leaf_id]).name
            system, user = template.render(
                own_domain=own, domains=domain_names, options=prompts.service_options(leaf_services)
            )
            return self.gateway.chat_json(system, user, label="build.cross_domain")

        # Every candidate is resolved before any is applied, so an index
        # refers to the services the leaf's prompt listed.
        routed: list[tuple[Service, str]] = []
        replies = self.gateway.run_parallel(propose, leaf_ids)
        for leaf_id, obj in zip(leaf_ids, replies):
            candidates = (obj or {}).get("candidates")  # None: junk after the re-ask
            if not isinstance(candidates, list):
                report.warnings.append(f"{leaf_id}: cross-domain reply had no candidate list")
                continue
            leaf = taxonomy.node(leaf_id)
            for cand in candidates:
                stats["proposals"] += 1
                cand = cand if isinstance(cand, dict) else {}  # skipped below
                idx = cand.get("index")
                target_id = domain_by_name.get(_normalize_name(str(cand.get("domain") or "")))
                if (
                    type(idx) is not int  # JSON true is a bool, an int subclass
                    or not 1 <= idx <= len(leaf.service_ids)
                    or target_id is None
                    or target_id == own_domain[leaf_id]
                ):
                    stats["skipped"] += 1
                    continue
                routed.append((registry.get(leaf.service_ids[idx - 1]), target_id))

        walks = [(f"{svc.name}: {svc.description}", target_id) for svc, target_id in routed]
        results = navigate(taxonomy, walks, "get_one", self.gateway, label="build.cross_domain")
        # placement -> its one tuple, so an extension equal to a held tuple shares it
        placements = {leaf_ids: leaf_ids for leaf_ids in taxonomy.assignment.values()}
        for (svc, _), (hits, _) in zip(routed, results):
            if not hits:
                stats["routing_failures"] += 1
                continue
            target = taxonomy.node(hits[0].leaf_id)
            if svc.id in target.service_ids:
                stats["duplicates"] += 1
                continue
            target.service_ids.append(svc.id)
            grown = taxonomy.assignment.get(svc.id, ()) + (target.node_id,)
            taxonomy.assignment[svc.id] = placements.setdefault(grown, grown)
            stats["accepted"] += 1
            extra_counts[svc.id] = extra_counts.get(svc.id, 0) + 1

        distribution: dict[str, int] = {}
        for count in extra_counts.values():
            distribution[str(count)] = distribution.get(str(count), 0) + 1
        report.cross_domain = {**stats, "extra_assignments_distribution": distribution}

    # -- the BFS build -----------------------------------------------------------

    def build(self, registry: Registry) -> tuple[Taxonomy, BuildReport]:
        """Grows the full tree breadth-first, one level at a time, then runs
        the cross-domain pass."""
        cfg = self.cfg
        report = BuildReport(method="bfs")
        taxonomy = Taxonomy()
        taxonomy.root.name = "All services"
        all_services = list(registry)
        taxonomy.root.service_ids = [s.id for s in all_services]

        def splittable(node_id: str, services: list[Service]) -> bool:
            return (
                len(services) > cfg.leaf_threshold
                and taxonomy.node(node_id).depth < cfg.max_depth
            )

        level = [(taxonomy.root_id, all_services)]
        with metered() as usage:
            # Nodes that stay leaves drop out before their level is split.
            while level := [entry for entry in level if splittable(*entry)]:
                level = [
                    child
                    for children in self._split_level(taxonomy, level, report)
                    for child in children
                ]
            taxonomy.rebuild_assignment()
            self.cross_domain_assign(taxonomy, registry, report)
        report.assigned_services = len(taxonomy.assignment)
        _fill_phases(report, usage)
        return taxonomy, report


def build(registry: Registry, cfg: BuildConfig, gateway: LlmGateway) -> tuple[Taxonomy, BuildReport]:
    return TaxonomyBuilder(gateway, cfg).build(registry)


# -- one-shot construction ----------------------------------------------------


def _add_level(
    taxonomy: Taxonomy, report: BuildReport, parent_id: str, items: list, level: int
) -> int:
    """Adds one level of a one-shot design under parent_id, depth-first,
    and returns how many nodes it added there. A module function rather than
    a self-calling closure, whose reference to itself would keep the tree
    alive until the cyclic collector ran."""
    added = 0
    for name, description, item in _named_items(items):
        node = taxonomy.add_child(parent_id, name, description)
        added += 1
        children = item.get("children")
        if isinstance(children, list) and level < 3:
            count = _add_level(taxonomy, report, node.node_id, children, level + 1)
            if not 3 <= count <= 5:
                report.warnings.append(
                    f"{node.node_id}: {count} children outside the requested (3, 5) range"
                )
    return added


def _tree_from_design(obj: dict, report: BuildReport) -> Taxonomy:
    """Materializes the strict-JSON design tree; bounds are advisory."""
    categories = obj.get("categories")
    if not isinstance(categories, list) or not categories:
        raise DesignError("one-shot design reply has no non-empty 'categories' array")
    taxonomy = Taxonomy()
    taxonomy.root.name = "All services"
    top_count = _add_level(taxonomy, report, taxonomy.root_id, categories, 1)
    if not 6 <= top_count <= 10:
        report.warnings.append(f"{top_count} top-level categories outside the requested (6, 10) range")
    return taxonomy


def _render_outline(taxonomy: Taxonomy) -> str:
    lines: list[str] = []
    for node_id in taxonomy.walk()[1:]:
        node = taxonomy.nodes[node_id]
        desc = f": {node.description}" if node.description else ""
        lines.append(f"{'  ' * (node.depth - 1)}- {node.name}{desc}")
    return "\n".join(lines)


def _resolve_path(taxonomy: Taxonomy, reply: str) -> str | None:
    """Maps a 'Top > Sub > Leaf' reply onto a leaf id, or None."""
    path_line = None
    for line in reply.splitlines():
        if ">" in line:
            path_line = line
    if path_line is None:
        return None
    # One list marker ("-", "*", "1." or "1)") may lead the line; a part
    # loses only quotes and spaces, so "3D Printing" keeps its digit.
    path_line = re.sub(r"^\s*(?:[-*]|\d+[.)])\s", "", path_line)
    parts = [p.strip("\"' \t") for p in path_line.split(">")]
    parts = [p for p in parts if p]
    if not parts:
        return None
    current = taxonomy.root
    for part in parts:
        wanted = _normalize_name(part)
        next_node = None
        for child_id in current.children:
            if _normalize_name(taxonomy.node(child_id).name) == wanted:
                next_node = taxonomy.node(child_id)
                break
        if next_node is None:
            return None
        current = next_node
    return current.node_id if current.is_leaf() else None


def _prune_empty(taxonomy: Taxonomy, report: BuildReport) -> None:
    """Removes leaves that absorbed nothing, then any childless ancestors:
    one pass in reverse preorder, where every node comes after all of its
    descendants."""
    parents = taxonomy.parent_map()
    for node_id in reversed(taxonomy.walk()[1:]):
        node = taxonomy.nodes[node_id]
        if not node.children and not node.service_ids:
            taxonomy.remove_child(parents[node_id], node_id)
            report.pruned_empty_categories += 1


def build_oneshot(
    registry: Registry,
    variant: str,
    cfg: BuildConfig,
    gateway: LlmGateway,
) -> tuple[Taxonomy, BuildReport]:
    """Single-pass baseline builder: one design call for the whole tree,
    then one classification call per service. Variants: base, freq (keyword
    payload), refine (whole-tree refinement cycles), axis (single-axis rules
    prepended to the design prompt)."""
    variant = variant.lstrip("+")
    if variant not in ONESHOT_VARIANTS:
        raise DataError(f"unknown one-shot variant {variant!r}; expected one of {ONESHOT_VARIANTS}")
    builder = TaxonomyBuilder(gateway, cfg)
    report = BuildReport(method=f"oneshot-{variant}")
    services = list(registry)
    if not services:
        raise DataError("cannot build a taxonomy over an empty registry")

    with metered() as usage:
        if variant == "freq":
            table = builder.extract_keywords(services, label="oneshot.keyword", report=report)
            payload_header = "Keyword frequencies (keyword, number of services mentioning it):"
            payload = table.render()
        else:
            payload_header = "Services:"
            payload = prompts.service_options(services)
        axis_prefix = prompts.snippet("axis_rules") + "\n\n" if variant == "axis" else ""

        system, user = prompts.render(
            "oneshot_design", axis_prefix=axis_prefix, payload_header=payload_header, payload=payload
        )
        design = gateway.chat_json(system, user, label="oneshot.design")
        taxonomy = _tree_from_design(design or {}, report)  # None: junk after the re-ask

        classify_template = prompts.load("oneshot_classify")

        def classify_all() -> list[dict]:
            outline = _render_outline(taxonomy)

            def call(svc: Service) -> tuple[str | None, str]:
                sys_p, user_p = classify_template.render(
                    tree=outline, service_name=svc.name, service_description=svc.description
                )
                reply = gateway.chat(sys_p, user_p, label="oneshot.classify").text
                return _resolve_path(taxonomy, reply), reply

            failures: list[dict] = []
            for leaf in taxonomy.nodes.values():
                leaf.service_ids = []
            for svc, (leaf_id, reply) in zip(services, gateway.run_parallel(call, services)):
                if leaf_id is None:
                    failures.append({"service_id": svc.id, "reply": reply.strip()[:200]})
                else:
                    taxonomy.node(leaf_id).service_ids.append(svc.id)
            return failures

        failures = classify_all()
        if variant == "refine":
            cycles = 0
            while failures and cycles < cfg.max_refine_iterations:
                failed_services = [registry.get(f["service_id"]) for f in failures]
                sys_p, user_p = prompts.render(
                    "oneshot_refine",
                    tree=_render_outline(taxonomy),
                    failure_count=str(len(failures)),
                    failures=prompts.service_options(failed_services[:20]),
                )
                refined = gateway.chat_json(sys_p, user_p, label="oneshot.refine")
                try:
                    taxonomy = _tree_from_design(refined or {}, report)
                except DesignError as exc:
                    report.warnings.append(f"one-shot refinement rejected ({exc}); stopping early")
                    break
                failures = classify_all()
                cycles += 1

    report.classification_failures = failures
    _prune_empty(taxonomy, report)
    taxonomy.rebuild_assignment()
    report.assigned_services = len(taxonomy.assignment)
    _fill_phases(report, usage)
    return taxonomy, report
