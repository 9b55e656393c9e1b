"""Multi-parent category tree: structure, traversal, persistence, statistics.

The tree itself is a plain rooted tree (every node has one parent). The
multi-parent property lives only in the assignment map and in leaf service
lists: one service id may appear under several leaves. Node ids are
path-derived slugs ("root/travel/flights") so diffs stay readable;
collisions within a parent are resolved by numeric suffixes.

The downward traversals here and in the builder share one walk, ``_walk``:
depth-first, child-index order, each node once. It records each way the
child lists fail to form one tree: an unknown child, the root listed as a
child, a node listed twice or under two parents, a wrong depth, an
unreachable node. ``load`` raises the first such fault as SchemaError,
``validate`` reports them all, and ``Taxonomy.walk`` (under leaves, the
assignment rebuild and statistics) raises the first as DataError.

Persistence splits into two files: taxonomy.json (nodes, child order,
boundaries, leaf service lists) and class.json (service id -> ordered leaf
ids, primary placement first). ``load`` checks the type of every field.
"""

from __future__ import annotations

import json
import logging
import re
import statistics
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DataError, SchemaError
from .registry import INTEGER, STRING, STRINGS, Registry, check_fields, read_json, write_atomic

logger = logging.getLogger(__name__)

ROOT_ID = "root"

TAXONOMY_FILE = "taxonomy.json"
CLASS_FILE = "class.json"


@dataclass
class TaxonomyNode:
    node_id: str
    name: str
    description: str = ""
    boundary: str = ""
    children: list[str] = field(default_factory=list)
    service_ids: list[str] = field(default_factory=list)
    depth: int = 0

    def is_leaf(self) -> bool:
        return not self.children


def _walk(nodes: dict[str, TaxonomyNode], root_id: str) -> tuple[list[str], list[Violation]]:
    """The ids reachable from the root, depth-first in child-index order and
    each once, plus every fault that keeps the child lists from forming one
    tree, in the order met; unreachable nodes come last, in id order.

    A cycle through the root lists the root as a child; any other cycle
    reached from the root enters it at a node with two parents; a cycle
    detached from the root is unreachable. A faulty child entry is not
    followed, so the walk always ends.
    """
    faults: list[Violation] = []
    parent_of: dict[str, str] = {}
    order: list[str] = []
    stack = [root_id]
    while stack:
        node_id = stack.pop()
        order.append(node_id)
        node = nodes[node_id]
        fresh: list[str] = []
        for child_id in node.children:
            if child_id not in nodes:
                fault = ("dangling-child", node_id,
                         f"node {node_id!r} references unknown child {child_id!r}")
            elif child_id == root_id:
                fault = ("cycle", node_id,
                         f"parent cycle: root {root_id!r} is listed as a child of {node_id!r}")
            elif parent_of.get(child_id) == node_id:
                fault = ("duplicate-child", node_id,
                         f"node {child_id!r} is listed twice under {node_id!r}")
            elif child_id in parent_of:
                fault = ("two-parents", child_id, f"node {child_id!r} is listed under two "
                         f"parents, {parent_of[child_id]!r} and {node_id!r}")
            else:
                parent_of[child_id] = node_id
                fresh.append(child_id)
                depth = nodes[child_id].depth
                if depth == node.depth + 1:
                    continue
                fault = ("wrong-depth", child_id, f"node {child_id!r} has depth {depth}, expected "
                         f"{node.depth + 1} (its parent {node_id!r} has depth {node.depth})")
            faults.append(Violation(*fault))
        stack.extend(reversed(fresh))
    if len(order) < len(nodes):
        reached = set(order)
        faults += [
            Violation("unreachable", node_id, f"node {node_id!r} is not reachable from the root {root_id!r}")
            for node_id in sorted(nodes) if node_id not in reached
        ]
    return order, faults


class Taxonomy:
    """Rooted category tree plus the service -> leaves assignment map."""

    def __init__(
        self,
        nodes: dict[str, TaxonomyNode] | None = None,
        root_id: str = ROOT_ID,
        assignment: dict[str, list[str]] | None = None,
    ) -> None:
        self.nodes: dict[str, TaxonomyNode] = nodes or {
            root_id: TaxonomyNode(node_id=root_id, name=root_id)
        }
        self.root_id = root_id
        if root_id not in self.nodes:
            raise DataError(f"root node {root_id!r} missing from node table")
        self.assignment: dict[str, list[str]] = assignment or {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Taxonomy):
            return NotImplemented
        return (
            self.root_id == other.root_id
            and self.nodes == other.nodes
            and self.assignment == other.assignment
        )

    # -- structure ---------------------------------------------------------

    def node(self, node_id: str) -> TaxonomyNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise DataError(f"unknown node id {node_id!r}") from None

    @property
    def root(self) -> TaxonomyNode:
        return self.nodes[self.root_id]

    def add_child(
        self, parent_id: str, name: str, description: str = "", boundary: str = ""
    ) -> TaxonomyNode:
        parent = self.node(parent_id)
        child = TaxonomyNode(
            node_id=make_node_id(self, parent_id, name),
            name=name,
            description=description,
            boundary=boundary,
            depth=parent.depth + 1,
        )
        self.nodes[child.node_id] = child
        parent.children.append(child.node_id)
        return child

    def remove_child(self, parent_id: str, child_id: str) -> None:
        """Detaches and deletes a childless child node."""
        child = self.node(child_id)
        if child.children:
            raise DataError(f"cannot remove node {child_id!r}: it still has children")
        self.node(parent_id).children.remove(child_id)
        del self.nodes[child_id]

    def parent_map(self) -> dict[str, str]:
        parents: dict[str, str] = {}
        for node in self.nodes.values():
            for child_id in node.children:
                parents[child_id] = node.node_id
        return parents

    def walk(self) -> list[str]:
        """Every node id once, depth-first in child-index order. Raises
        DataError naming the first fault if the child lists are not one tree."""
        order, faults = _walk(self.nodes, self.root_id)
        if faults:
            raise DataError(faults[0].detail)
        return order

    def leaves(self) -> list[str]:
        """Leaf ids in depth-first, child-index order. Deterministic."""
        return [node_id for node_id in self.walk() if self.nodes[node_id].is_leaf()]

    def _ancestors(self, node_id: str, parents: dict[str, str]) -> list[str]:
        """The chain node_id, its parent, ..., the root.

        Raises DataError for an unknown id and for a node whose parent chain
        ends, or cycles, without reaching the root.
        """
        self.node(node_id)
        chain = [node_id]
        while chain[-1] != self.root_id:
            parent = parents.get(chain[-1])
            if parent is None or len(chain) > len(self.nodes):
                raise DataError(f"node {chain[-1]!r} is not reachable from the root")
            chain.append(parent)
        return chain

    def top_level_of(self, node_id: str) -> str:
        """The depth-1 ancestor of a node (the node itself if it is the root).
        Raises DataError for an unknown or unreachable node."""
        chain = self._ancestors(node_id, self.parent_map())
        return chain[-2] if len(chain) > 1 else chain[-1]

    def lca_distance(self, a: str, b: str) -> int:
        """Tree path length between two nodes: depth(a)+depth(b)-2*depth(lca).
        Raises DataError for an unknown or unreachable node."""
        parents = self.parent_map()
        up_a = {anc: i for i, anc in enumerate(self._ancestors(a, parents))}
        # the first ancestor of b that is also an ancestor of a is the LCA
        return next(
            up_a[anc] + i for i, anc in enumerate(self._ancestors(b, parents)) if anc in up_a
        )

    def rebuild_assignment(self) -> None:
        """Derives the assignment map from leaf service lists.

        Walks leaves depth-first so the primary placement (first leaf that
        holds the service in tree order) comes first. Cross-domain additions
        made later must append to the map themselves to keep "primary first".
        """
        assignment: dict[str, list[str]] = {}
        for leaf_id in self.leaves():
            for sid in self.node(leaf_id).service_ids:
                assignment.setdefault(sid, [])
                if leaf_id not in assignment[sid]:
                    assignment[sid].append(leaf_id)
        self.assignment = assignment


def make_node_id(taxonomy: Taxonomy, parent_id: str, name: str) -> str:
    slug = re.sub(r"[^a-z0-9]+", "-", name.lower()).strip("-") or "node"
    base = f"{parent_id}/{slug}"
    node_id = base
    suffix = 2
    while node_id in taxonomy.nodes:
        node_id = f"{base}-{suffix}"
        suffix += 1
    return node_id


@dataclass
class TaxonomyStats:
    total_categories: int
    leaf_categories: int
    max_depth: int
    avg_services_per_leaf: float
    branching_min: int
    branching_mean: float
    branching_max: int


def stats(taxonomy: Taxonomy) -> TaxonomyStats:
    """Structure statistics. Services sitting in several leaves count once
    per leaf, so cross-domain copies inflate avg_services_per_leaf."""
    leaf_ids = taxonomy.leaves()
    leaf_sizes = [len(taxonomy.node(l).service_ids) for l in leaf_ids]
    internal = [n for n in taxonomy.nodes.values() if n.children]
    branching = [len(n.children) for n in internal]
    return TaxonomyStats(
        total_categories=len(taxonomy.nodes),
        leaf_categories=len(leaf_ids),
        max_depth=max(n.depth for n in taxonomy.nodes.values()),
        avg_services_per_leaf=statistics.fmean(leaf_sizes) if leaf_sizes else 0.0,
        branching_min=min(branching) if branching else 0,
        branching_mean=statistics.fmean(branching) if branching else 0.0,
        branching_max=max(branching) if branching else 0,
    )


@dataclass
class Violation:
    kind: str
    subject: str
    detail: str


def validate(taxonomy: Taxonomy, registry: Registry, max_depth: int = 3) -> list[Violation]:
    """Reports violations instead of raising: every tree-shape fault of
    ``_walk``, then over-depth nodes, duplicate and dangling services,
    uncovered services and assignment entries that no leaf backs."""
    order, violations = _walk(taxonomy.nodes, taxonomy.root_id)
    held: dict[str, set[str]] = {}
    for node_id in sorted(taxonomy.nodes):
        node = taxonomy.nodes[node_id]
        if node.depth > max_depth:
            violations.append(
                Violation("over-depth", node_id, f"depth {node.depth} exceeds cap {max_depth}")
            )
        seen = held[node_id] = set()
        for sid in node.service_ids:
            if sid in seen:
                violations.append(
                    Violation("duplicate-in-leaf", node_id, f"service {sid!r} listed twice")
                )
            seen.add(sid)
            if sid not in registry:
                violations.append(
                    Violation("dangling-service", node_id, f"service {sid!r} not in registry")
                )

    covered: set[str] = set()
    for node_id in order:
        if taxonomy.nodes[node_id].is_leaf():
            covered |= held[node_id]
    for svc in registry:
        if svc.id not in covered:
            violations.append(Violation("uncovered", svc.id, "service appears in no leaf"))

    for sid, leaf_ids in taxonomy.assignment.items():
        for leaf_id in leaf_ids:
            node = taxonomy.nodes.get(leaf_id)
            if node is None or not node.is_leaf() or sid not in held[leaf_id]:
                violations.append(
                    Violation("assignment-mismatch", sid, f"assignment names leaf {leaf_id!r}")
                )
    return violations


# -- persistence -----------------------------------------------------------


# json.dumps(..., ensure_ascii=False) writes a string through this function
_encode = json.encoder.encode_basestring


def _strings_writer(indent: int) -> Callable[[list[str]], str]:
    """A function giving json.dumps(items, indent=2, ensure_ascii=False) for
    a list of strings whose opening bracket sits ``indent`` spaces deep. The
    padding is built once, not per list: class.json has a list per service."""
    start = "[\n" + " " * (indent + 2)
    sep = ",\n" + " " * (indent + 2)
    end = "\n" + " " * indent + "]"

    def write(items: list[str]) -> str:
        return f"{start}{sep.join(map(_encode, items))}{end}" if items else "[]"

    return write


_node_strings = _strings_writer(6)  # a node's children or services in taxonomy.json
_class_strings = _strings_writer(2)  # a service's leaf ids in class.json


def _node_json(node: TaxonomyNode) -> str:
    """The node's record as json.dumps(..., indent=2, sort_keys=True) writes
    it two levels deep in taxonomy.json, from its opening brace on."""
    services = f',\n      "services": {_node_strings(node.service_ids)}' if node.is_leaf() else ""
    return (
        f'{{\n      "boundary": {_encode(node.boundary)},'
        f'\n      "children": {_node_strings(node.children)},'
        f'\n      "depth": {json.dumps(node.depth)},'
        f'\n      "description": {_encode(node.description)},'
        f'\n      "id": {_encode(node.node_id)},'
        f'\n      "name": {_encode(node.name)}{services}\n    }}'
    )


def save(taxonomy: Taxonomy, directory: str | Path) -> None:
    """Writes taxonomy.json and class.json, byte for byte what json.dumps
    writes with indent=2 (and sort_keys=True for taxonomy.json), at a
    fraction of the cost of its pure-Python indenting encoder. Raises
    DataError, before either file is replaced, if the child lists are not one
    tree or a string cannot be written as UTF-8."""
    taxonomy.walk()
    directory = Path(directory)
    nodes = ",\n    ".join(_node_json(taxonomy.nodes[node_id]) for node_id in sorted(taxonomy.nodes))
    entries = ",\n  ".join(
        f"{_encode(sid)}: {_class_strings(leaf_ids)}" for sid, leaf_ids in taxonomy.assignment.items()
    )
    write_atomic({
        directory / TAXONOMY_FILE: [
            f'{{\n  "nodes": [\n    {nodes}\n  ],\n  "root": {_encode(taxonomy.root_id)}\n}}\n'
        ],
        directory / CLASS_FILE: [f"{{\n  {entries}\n}}\n" if entries else "{}\n"],
    })


# field of a taxonomy.json node record -> (type test, what it must be); only
# "services" may be absent
_NODE_FIELDS = {
    "id": STRING,
    "name": STRING,
    "description": STRING,
    "boundary": STRING,
    "children": STRINGS,
    "depth": INTEGER,
    "services": STRINGS,
}


def load(directory: str | Path) -> Taxonomy:
    directory = Path(directory)
    tax_path = directory / TAXONOMY_FILE
    class_path = directory / CLASS_FILE
    for path in (tax_path, class_path):
        if not path.exists():
            raise DataError(f"missing taxonomy file: {path}")
    doc = read_json(tax_path, SchemaError)
    assignment = read_json(class_path, SchemaError)

    if not isinstance(doc, dict) or "root" not in doc or "nodes" not in doc:
        raise SchemaError(f"{tax_path}: expected an object with 'root' and 'nodes'")
    if not isinstance(doc["root"], str) or not isinstance(doc["nodes"], list):
        raise SchemaError(f"{tax_path}: 'root' must be a string and 'nodes' a list")
    if not isinstance(assignment, dict):
        raise SchemaError(f"{class_path}: expected an object mapping service id to leaf ids")

    # The lists read_json built become the taxonomy's own, uncopied.
    nodes: dict[str, TaxonomyNode] = {}
    for idx, record in enumerate(doc["nodes"]):
        if not isinstance(record, dict):
            raise SchemaError(f"{tax_path}: nodes[{idx}] is not an object")
        check_fields(record, _NODE_FIELDS, f"{tax_path}: nodes[{idx}]", SchemaError, ("services",))
        node = TaxonomyNode(
            node_id=record["id"],
            name=record["name"],
            description=record["description"],
            boundary=record["boundary"],
            children=record["children"],
            service_ids=record.get("services", []),
            depth=record["depth"],
        )
        if node.node_id in nodes:
            raise SchemaError(f"{tax_path}: duplicate node id {node.node_id!r}")
        nodes[node.node_id] = node

    root_id = doc["root"]
    if root_id not in nodes:
        raise SchemaError(f"{tax_path}: root {root_id!r} has no node record")
    _, faults = _walk(nodes, root_id)
    if faults:
        raise SchemaError(f"{tax_path}: {faults[0].detail}")

    held = {node_id: set(node.service_ids) for node_id, node in nodes.items() if node.is_leaf()}
    for sid, leaf_ids in assignment.items():
        if not isinstance(leaf_ids, list) or not leaf_ids:
            raise SchemaError(f"{class_path}: service {sid!r} must map to a non-empty list")
        for leaf_id in leaf_ids:
            leaf = nodes.get(leaf_id) if isinstance(leaf_id, str) else None
            if leaf is None:
                raise SchemaError(f"{class_path}: service {sid!r} references unknown leaf {leaf_id!r}")
            if leaf.children:
                raise SchemaError(f"{class_path}: service {sid!r} references non-leaf {leaf_id!r}")
            if sid not in held[leaf_id]:
                raise SchemaError(
                    f"{class_path}: service {sid!r} assigned to leaf {leaf_id!r} "
                    "but missing from its service list"
                )

    for node in nodes.values():
        if node.is_leaf():
            for sid in node.service_ids:
                if sid not in assignment or node.node_id not in assignment[sid]:
                    raise SchemaError(
                        f"{class_path}: leaf {node.node_id!r} holds service {sid!r} "
                        "absent from the assignment map"
                    )

    taxonomy = Taxonomy(nodes=nodes, root_id=root_id, assignment=assignment)
    logger.info(
        "loaded taxonomy from %s: %d nodes, %d assigned services",
        directory, len(nodes), len(assignment),
    )
    return taxonomy
