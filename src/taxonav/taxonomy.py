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
unreachable node; after those, a node with children that lists services.
``load`` raises the first such fault as SchemaError, ``validate`` reports
them all, and ``Taxonomy.walk`` (under ``save``, leaves, the assignment
rebuild and statistics) raises the first as DataError.

Persistence splits into two files: taxonomy.json (nodes, child order,
boundaries, leaf service lists) and class.json (service id -> ordered leaf
ids, primary placement first; a tuple in memory). ``load`` decodes
class.json first and folds each entry to its tuple, with one tuple object
per distinct placement and one string object per leaf id, before it reads
taxonomy.json; it checks the type of every field, raises the first
``_assignment_faults`` where the files disagree, whose ``share`` pass makes
each service id in a leaf's list the map's key object. ``save`` hands the
writer one node record, or about a thousand class.json entries, at a time,
and renders each leaf's one-leaf list once.
"""

from __future__ import annotations

import json
import logging
import re
import statistics
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import islice, repeat
from pathlib import Path

from .errors import DataError, SchemaError
from .registry import INTEGER, STRING, STRINGS, Registry, _encode, check_fields, read_json, write_atomic

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
    tree, in the order met; unreachable nodes come last, in id order. Then
    each reached node with children that lists services, in walk order.

    A cycle through the root lists the root as a child; any other cycle
    reached from the root enters it at a node with two parents; a cycle
    detached from the root is unreachable. A faulty child entry is not
    followed, so the walk always ends.
    """
    faults: list[Violation] = []
    inner: list[Violation] = []  # after the shape faults, which a leaf given a child also makes
    parent_of: dict[str, str] = {}
    order: list[str] = []
    stack = [root_id]
    while stack:
        node_id = stack.pop()
        order.append(node_id)
        node = nodes[node_id]
        if node.children and node.service_ids:
            inner.append(Violation("inner-services", node_id,
                                   f"node {node_id!r} has children and lists services"))
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
    return order, faults + inner


class Taxonomy:
    """Rooted category tree plus the service -> leaves assignment map.

    Each value of ``assignment`` is a tuple of leaf ids, primary placement
    first. A tuple of strings is exactly sized and leaves the cyclic
    collector at its first pass, so the map adds no GC-tracked object per
    service; an update replaces a service's tuple rather than growing it.
    Services placed alike share one tuple object, whether ``load``, a build
    or ``rebuild_assignment`` made the map, so its tuples follow the leaves
    and the distinct placements, not the services.
    """

    def __init__(
        self,
        nodes: dict[str, TaxonomyNode] | None = None,
        root_id: str = ROOT_ID,
        assignment: dict[str, tuple[str, ...]] | None = None,
    ) -> None:
        self.nodes: dict[str, TaxonomyNode] = nodes or {
            root_id: TaxonomyNode(node_id=root_id, name=root_id)
        }
        self.root_id = root_id
        if root_id not in self.nodes:
            raise DataError(f"root node {root_id!r} missing from node table")
        self.assignment: dict[str, tuple[str, ...]] = assignment or {}

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
        DataError naming the first fault if the child lists are not one tree
        or a node with children lists services."""
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
        """Derives the assignment map from leaf service lists: each service
        maps to the tuple of leaves that hold it.

        Walks leaves depth-first so the primary placement (first leaf that
        holds the service in tree order) comes first. Cross-domain additions
        made later must extend a service's tuple themselves, at its end, to
        keep "primary first".
        """
        assignment: dict[str, tuple[str, ...]] = {}
        placements: dict[tuple[str, ...], tuple[str, ...]] = {}  # multi-leaf value -> its one tuple
        for leaf_id in self.leaves():
            alone = (leaf_id,)  # each leaf is visited once: one tuple for all it holds alone
            for sid in self.node(leaf_id).service_ids:
                held = assignment.get(sid)
                if held is None:
                    assignment[sid] = alone
                elif leaf_id not in held:
                    grown = held + (leaf_id,)
                    assignment[sid] = placements.setdefault(grown, grown)
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


def _assignment_faults(
    nodes: dict[str, TaxonomyNode], assignment: dict, share: bool = False
) -> list[Violation]:
    """Every way the assignment map and the leaf service lists disagree, in
    the order met: an entry that is no non-empty tuple or list; a leaf id
    that is unknown, not a leaf, a leaf without the service, or listed twice
    in the entry; then, leaf by leaf, each service the map does not list
    under its leaf.

    With ``share``, the same pass makes each service in a leaf's list the
    map's key object, replaced in place; ``load`` has already made each
    entry's leaf ids the nodes' ``node_id`` objects. A leaf list that names a
    service twice cannot be shared, so with ``share`` it comes first, as a
    ``duplicate-in-leaf`` fault; ``validate`` reports those itself. Without
    ``share`` nothing is changed."""
    # leaf id -> {service: its index in the leaf's list} for each service not
    # yet listed under that leaf; an entry pops what it lists
    unlisted: dict[str, dict[str, int]] = {}
    repeats = []
    for node_id, node in nodes.items():
        if not node.children:
            index = unlisted[node_id] = dict(zip(node.service_ids, range(len(node.service_ids))))
            if share and len(index) < len(node.service_ids):  # a shorter dict holds a repeat
                seen: set[str] = set()
                sid = next(sid for sid in node.service_ids if sid in seen or seen.add(sid))
                repeats.append(Violation("duplicate-in-leaf", node_id, f"service {sid!r} listed twice"))
    held: dict[str, set[str]] = {}  # leaf id -> its services, built on a fault only
    faults = []  # (service id, detail)
    for sid, leaf_ids in assignment.items():
        if not isinstance(leaf_ids, (list, tuple)) or not leaf_ids:
            faults.append((sid, f"service {sid!r} must map to a non-empty list"))
            continue
        for leaf_id in leaf_ids:
            leaf = nodes.get(leaf_id) if isinstance(leaf_id, str) else None
            if leaf is None:
                faults.append((sid, f"service {sid!r} references unknown leaf {leaf_id!r}"))
            elif leaf.children:
                faults.append((sid, f"service {sid!r} references non-leaf {leaf_id!r}"))
            elif (index := unlisted[leaf_id].pop(sid, None)) is not None:
                if share:
                    leaf.service_ids[index] = sid
            else:
                if leaf_id not in held:
                    held[leaf_id] = set(leaf.service_ids)
                faults.append((sid, f"service {sid!r} lists leaf {leaf_id!r} twice"
                               if sid in held[leaf_id] else f"service {sid!r} assigned to leaf "
                               f"{leaf_id!r} but missing from its service list"))
    for leaf_id, rest in unlisted.items():
        if rest:
            faults += [(sid, f"leaf {leaf_id!r} holds service {sid!r} absent from the assignment map")
                       for sid in nodes[leaf_id].service_ids if sid in rest]
    return repeats + [Violation("assignment-mismatch", sid, detail) for sid, detail in faults]


def validate(taxonomy: Taxonomy, registry: Registry, max_depth: int = 3) -> list[Violation]:
    """Reports violations instead of raising: every fault of ``_walk``, an
    inner node that lists services included, then over-depth nodes,
    duplicate and dangling services, uncovered services, and every
    assignment fault ``load`` would raise."""
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

    return violations + _assignment_faults(taxonomy.nodes, taxonomy.assignment)


# -- persistence -----------------------------------------------------------


def _strings_writer(indent: int) -> Callable[[Sequence[str]], str]:
    """A function giving json.dumps(items, indent=2, ensure_ascii=False) for
    a list of strings whose opening bracket sits ``indent`` spaces deep. The
    padding is built once, not per list: class.json has a list per service."""
    start = "[\n" + " " * (indent + 2)
    sep = ",\n" + " " * (indent + 2)
    end = "\n" + " " * indent + "]"

    def write(items: Sequence[str]) -> str:
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


def _taxonomy_chunks(taxonomy: Taxonomy) -> Iterator[str]:
    """taxonomy.json, one node record at a time."""
    lead = '{\n  "nodes": [\n    '
    for node_id in sorted(taxonomy.nodes):
        yield lead + _node_json(taxonomy.nodes[node_id])
        lead = ",\n    "
    yield f'\n  ],\n  "root": {_encode(taxonomy.root_id)}\n}}\n'


def _class_chunks(assignment: dict[str, tuple[str, ...]]) -> Iterator[str]:
    """class.json, about a thousand entries at a time. Each one-leaf list is
    rendered once per leaf, not once per service."""
    if not assignment:
        yield "{}\n"
        return
    alone: dict[str, str] = {}  # leaf id -> its one-leaf list as written

    def leaf_list(leaf_ids: tuple[str, ...]) -> str:
        if len(leaf_ids) != 1:
            return _class_strings(leaf_ids)
        text = alone.get(leaf_ids[0])
        if text is None:
            text = alone[leaf_ids[0]] = _class_strings(leaf_ids)
        return text

    entries = (f"{_encode(sid)}: {leaf_list(leaf_ids)}" for sid, leaf_ids in assignment.items())
    lead = "{\n  "
    while batch := list(islice(entries, 1000)):
        yield lead + ",\n  ".join(batch)
        lead = ",\n  "
    yield "\n}\n"


def save(taxonomy: Taxonomy, directory: str | Path) -> None:
    """Writes taxonomy.json and class.json, byte for byte what json.dumps
    writes with indent=2 (and sort_keys=True for taxonomy.json), at a
    fraction of the cost of its pure-Python indenting encoder. The text is
    handed to the writer in pieces, so no whole file is ever held. Raises
    DataError, before either file is replaced, on the first ``_walk`` fault
    (an inner node's services have no place in the files) or on a string
    that cannot be written as UTF-8."""
    taxonomy.walk()
    directory = Path(directory)
    write_atomic({
        directory / TAXONOMY_FILE: _taxonomy_chunks(taxonomy),
        directory / CLASS_FILE: _class_chunks(taxonomy.assignment),
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


def _fold_entries(assignment: dict) -> dict[str | tuple[str, ...], tuple[str, ...]]:
    """Replaces each decoded class.json entry that is a list of strings with
    the tuple the assignment map holds, in place, one tuple object per
    distinct placement, and returns the memo those tuples came from: leaf id
    -> its one-leaf tuple, whose string is the first-seen copy every tuple
    takes that leaf id from, and multi-leaf tuple -> itself. An entry of any
    other shape is left as decoded: it is always an ``_assignment_faults``
    fault, named from what the file holds."""
    placements: dict[str | tuple[str, ...], tuple[str, ...]] = {}
    # each store replaces an existing key's value, so the iteration goes on
    for sid, leaf_ids in assignment.items():
        if type(leaf_ids) is not list:
            continue
        if len(leaf_ids) == 1:  # nearly every entry
            leaf_id = leaf_ids[0]
            if type(leaf_id) is str:
                placement = placements.get(leaf_id)
                if placement is None:
                    placement = placements[leaf_id] = (leaf_id,)
                assignment[sid] = placement
        elif all(map(isinstance, leaf_ids, repeat(str))):
            folded = tuple([placements.setdefault(leaf_id, (leaf_id,))[0] for leaf_id in leaf_ids])
            assignment[sid] = placements.setdefault(folded, folded)
    return placements


def load(directory: str | Path) -> Taxonomy:
    """Reads the taxonomy that ``save`` wrote to ``directory``.

    Raises SchemaError naming the file and the first fault: a file that is
    not the expected JSON, a node record field of the wrong type, a
    duplicate node id, a root with no record, the first ``_walk`` fault (an
    inner node that lists services included), a leaf list that names a
    service twice, or the first ``_assignment_faults`` fault where class.json
    and the leaf service lists disagree.

    class.json is decoded first, and each entry folded to its tuple before
    taxonomy.json is read, so the two decoded files are never held at once
    and ``load`` peaks no higher than decoding class.json alone. A read error
    of class.json waits until taxonomy.json is read, whose own comes first.

    The loaded tree keeps one string object per id: each leaf id of a
    service is taken from one dict of first-seen copies, and each node whose
    id is in it takes that copy as its ``node_id``; the pass that checks
    class.json then makes each service in a leaf's list the assignment
    map's key object. The lists taxonomy.json was read into become the
    tree's own, uncopied.
    """
    directory = Path(directory)
    tax_path = directory / TAXONOMY_FILE
    class_path = directory / CLASS_FILE
    try:
        assignment = read_json(class_path, SchemaError)
    except SchemaError:  # bound to no name, so its traceback forms no cycle
        read_json(tax_path, SchemaError)  # whose own error comes first
        raise
    placements = _fold_entries(assignment) if isinstance(assignment, dict) else {}
    doc = read_json(tax_path, SchemaError)

    if not isinstance(doc, dict) or "root" not in doc or "nodes" not in doc:
        raise SchemaError(f"{tax_path}: expected an object with 'root' and 'nodes'")
    if not isinstance(doc["root"], str) or not isinstance(doc["nodes"], list):
        raise SchemaError(f"{tax_path}: 'root' must be a string and 'nodes' a list")
    if not isinstance(assignment, dict):
        raise SchemaError(f"{class_path}: expected an object mapping service id to leaf ids")

    nodes: dict[str, TaxonomyNode] = {}
    for idx, record in enumerate(doc["nodes"]):
        if not isinstance(record, dict):
            raise SchemaError(f"{tax_path}: nodes[{idx}] is not an object")
        check_fields(record, _NODE_FIELDS, f"{tax_path}: nodes[{idx}]", SchemaError, ("services",))
        node_id = record["id"]
        node = TaxonomyNode(
            node_id=placements.get(node_id, (node_id,))[0],
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

    faults = _assignment_faults(nodes, assignment, share=True)
    if faults:
        path = tax_path if faults[0].kind == "duplicate-in-leaf" else class_path
        raise SchemaError(f"{path}: {faults[0].detail}")

    taxonomy = Taxonomy(nodes=nodes, root_id=root_id, assignment=assignment)
    logger.info(
        "loaded taxonomy from %s: %d nodes, %d assigned services",
        directory, len(nodes), len(assignment),
    )
    return taxonomy
