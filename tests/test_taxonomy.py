"""Tree structure, LCA distances vs a BFS oracle, persistence, validation."""

from __future__ import annotations

import gc
import json
import os
import re
import sys
import tempfile
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import assert_tuples_that_load_keeps, bfs_distance, random_tree
from taxonav.builder import BuildReport, TaxonomyBuilder
from taxonav.errors import DataError, SchemaError
from taxonav.gateway import LlmGateway
from taxonav.registry import Registry, Service, read_json
from taxonav.synthetic import make_balanced_taxonomy
from taxonav.taxonomy import (
    Taxonomy,
    TaxonomyNode,
    load,
    save,
    stats,
    validate,
)


def small_tree() -> Taxonomy:
    """root -> a -> a1, root -> b; a1 and b are leaves with services."""
    tax = Taxonomy()
    a = tax.add_child("root", "A", "alpha things")
    a1 = tax.add_child(a.node_id, "A1", "alpha ones")
    b = tax.add_child("root", "B", "beta things")
    a1.service_ids = ["s1", "s2"]
    b.service_ids = ["s2", "s3"]
    tax.rebuild_assignment()
    return tax


def test_add_child_slugs_and_collisions():
    tax = Taxonomy()
    first = tax.add_child("root", "Crypto Prices!")
    second = tax.add_child("root", "crypto prices")
    assert first.node_id == "root/crypto-prices"
    assert second.node_id == "root/crypto-prices-2"
    assert first.depth == 1


def test_leaves_depth_first_child_order():
    tax = small_tree()
    assert tax.leaves() == ["root/a/a1", "root/b"]


def test_top_level_of():
    tax = small_tree()
    assert tax.top_level_of("root/a/a1") == "root/a"
    assert tax.top_level_of("root/b") == "root/b"
    assert tax.top_level_of("root") == "root"


def test_lca_distance_hand_cases():
    tax = small_tree()
    assert tax.lca_distance("root/a/a1", "root/b") == 3
    assert tax.lca_distance("root/a/a1", "root/a") == 1
    assert tax.lca_distance("root", "root/a/a1") == 2
    assert tax.lca_distance("root/b", "root/b") == 0


@given(seed=st.integers(0, 10_000), n_nodes=st.integers(1, 25), data=st.data())
def test_lca_distance_matches_bfs_oracle(seed, n_nodes, data):
    tax = random_tree(seed, n_nodes)
    ids = sorted(tax.nodes)
    a = data.draw(st.sampled_from(ids))
    b = data.draw(st.sampled_from(ids))
    d = tax.lca_distance(a, b)
    assert d == bfs_distance(tax, a, b)
    assert d == tax.lca_distance(b, a)
    assert (d == 0) == (a == b)


def test_lca_distance_unknown_node():
    with pytest.raises(DataError):
        small_tree().lca_distance("root", "root/missing")


def detached_tree() -> Taxonomy:
    """small_tree plus a node with no parent and a two-node cycle off the root."""
    tax = small_tree()
    tax.nodes["lone"] = TaxonomyNode(node_id="lone", name="lone")
    tax.nodes["x"] = TaxonomyNode(node_id="x", name="x", children=["y"])
    tax.nodes["y"] = TaxonomyNode(node_id="y", name="y", children=["x"])
    return tax


@pytest.mark.parametrize(
    "bad, match",
    [("root/missing", "unknown node"), ("lone", "not reachable"), ("x", "not reachable")],
)
def test_distances_reject_unknown_and_unreachable_nodes(bad, match):
    tax = detached_tree()
    with pytest.raises(DataError, match=match):
        tax.lca_distance(bad, "root/b")
    with pytest.raises(DataError, match=match):
        tax.lca_distance("root/b", bad)
    with pytest.raises(DataError, match=match):
        tax.top_level_of(bad)


def test_rebuild_assignment_primary_first():
    tax = small_tree()
    # s2 sits in both leaves; the depth-first earlier leaf is primary
    assert tax.assignment["s2"] == ("root/a/a1", "root/b")
    assert tax.assignment["s1"] == ("root/a/a1",)


@pytest.mark.parametrize("other", [None, "root", {"root": TaxonomyNode("root", "root")}])
def test_a_taxonomy_is_unequal_to_what_is_no_taxonomy(other):
    tax = small_tree()
    assert tax.__eq__(other) is NotImplemented
    assert (tax == other) is False
    assert (tax != other) is True


def test_stats_root_only():
    tax = Taxonomy()
    tax.root.service_ids = ["a", "b", "c", "d", "e"]
    s = stats(tax)
    assert (s.total_categories, s.leaf_categories, s.max_depth) == (1, 1, 0)
    assert s.avg_services_per_leaf == 5.0
    assert (s.branching_min, s.branching_mean, s.branching_max) == (0, 0.0, 0)


def test_stats_counts_cross_domain_copies_per_leaf():
    tax = small_tree()
    s = stats(tax)
    assert s.total_categories == 4
    assert s.leaf_categories == 2
    assert s.max_depth == 2
    assert s.avg_services_per_leaf == 2.0
    assert (s.branching_min, s.branching_mean, s.branching_max) == (1, 1.5, 2)


def registry_for(tax: Taxonomy) -> Registry:
    sids = sorted({sid for n in tax.nodes.values() for sid in n.service_ids})
    return Registry([Service(id=s, name=s, description="d") for s in sids])


def test_validate_clean_tree():
    tax = small_tree()
    assert validate(tax, registry_for(tax)) == []
    assert validate(tax, registry_for(tax), max_depth=2) == []  # root/a/a1 sits exactly at the cap
    assert [(v.kind, v.subject) for v in validate(tax, registry_for(tax), max_depth=1)] == [
        ("over-depth", "root/a/a1"),
    ]


def test_validate_detects_violations():
    tax = small_tree()
    reg = registry_for(tax)

    tax.node("root/b").service_ids.append("ghost")
    tax.node("root/b").service_ids.append("s3")
    tax.node("root/a").children.append("root/a/missing")
    tax.nodes["orphan"] = type(tax.root)(node_id="orphan", name="x", depth=9)
    tax.assignment["s1"] = ["root/b"]  # leaf that does not hold s1
    kinds = {v.kind for v in validate(tax, reg, max_depth=3)}
    assert {"dangling-service", "duplicate-in-leaf", "dangling-child",
            "unreachable", "over-depth", "assignment-mismatch"} <= kinds


def test_validate_uncovered_service():
    tax = small_tree()
    reg = Registry(list(registry_for(tax)) + [Service(id="s9", name="s9", description="d")])
    kinds = {v.kind for v in validate(tax, reg)}
    assert "uncovered" in kinds


# -- persistence ---------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    tax = small_tree()
    save(tax, tmp_path)
    assert load(tmp_path) == tax


def test_save_is_deterministic(tmp_path):
    tax = small_tree()
    save(tax, tmp_path / "one")
    save(tax, tmp_path / "two")
    for name in ("taxonomy.json", "class.json"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_class_file_preserves_primary_first_order(tmp_path):
    tax = small_tree()
    save(tax, tmp_path)
    doc = json.loads((tmp_path / "class.json").read_text())
    assert doc["s2"] == ["root/a/a1", "root/b"]
    # leaf service order survives the round trip even for shared services
    assert load(tmp_path).node("root/b").service_ids == ["s2", "s3"]


def test_save_refuses_a_table_that_is_not_one_tree(tmp_path):
    with pytest.raises(DataError, match="parent cycle: root 'root' is listed as a child of 'root/a'"):
        save(cyclic_tree(), tmp_path / "out")
    assert not (tmp_path / "out").exists()


def spoil_a_node_name(tax: Taxonomy) -> None:
    tax.node("root/b").name = "bad \ud800"


def spoil_the_assignment_only(tax: Taxonomy) -> None:
    tax.assignment["bad \ud800"] = ["root/b"]


@pytest.mark.parametrize(
    "spoil, bad_file",
    [(spoil_a_node_name, "taxonomy.json"), (spoil_the_assignment_only, "class.json")],
)
def test_a_failed_save_replaces_neither_file(tmp_path, spoil, bad_file):
    save(small_tree(), tmp_path)
    before = {name: (tmp_path / name).read_bytes() for name in ("class.json", "taxonomy.json")}
    tax = small_tree()
    spoil(tax)
    with pytest.raises(DataError) as exc:
        save(tax, tmp_path)
    assert str(exc.value) == (
        f"{tmp_path / bad_file}: cannot write as UTF-8 (surrogates not allowed: '\\ud800')"
    )
    assert {name: (tmp_path / name).read_bytes() for name in sorted(os.listdir(tmp_path))} == before


# any text, weighted towards what JSON must escape and what json.dumps leaves raw
unicode_text = st.text(
    st.one_of(st.characters(codec="utf-8"), st.sampled_from('"\\/\x00\x1f\x7f\n\r\t\x85\u2028\u2029é€😀')),
    max_size=8,
)


def json_dumps_save(tax: Taxonomy) -> tuple[str, str]:
    """The taxonomy.json and class.json texts as json.dumps writes them."""
    nodes = []
    for node_id in sorted(tax.nodes):
        node = tax.nodes[node_id]
        record = {"id": node.node_id, "name": node.name, "description": node.description,
                  "boundary": node.boundary, "children": list(node.children), "depth": node.depth}
        if node.is_leaf():
            record["services"] = list(node.service_ids)
        nodes.append(record)
    doc = {"root": tax.root_id, "nodes": nodes}
    return (
        json.dumps(doc, indent=2, ensure_ascii=False, sort_keys=True) + "\n",
        json.dumps(tax.assignment, indent=2, ensure_ascii=False) + "\n",
    )


@st.composite
def unicode_trees(draw) -> Taxonomy:
    """A random tree whose ids, texts and service ids are any Unicode, with
    services shared between leaves and each assignment tuple in random order."""
    ids = draw(st.lists(unicode_text, min_size=1, max_size=8, unique=True))
    nodes = {ids[0]: TaxonomyNode(ids[0], draw(unicode_text))}
    for i, node_id in enumerate(ids[1:], start=1):
        parent = nodes[ids[draw(st.integers(0, i - 1))]]
        parent.children.append(node_id)
        nodes[node_id] = TaxonomyNode(node_id, draw(unicode_text), draw(unicode_text),
                                      draw(unicode_text), depth=parent.depth + 1)
    pool = draw(st.lists(unicode_text, max_size=6, unique=True))
    for node in nodes.values():
        if node.is_leaf() and pool:
            node.service_ids = draw(st.lists(st.sampled_from(pool), max_size=4, unique=True))
    tax = Taxonomy(nodes=nodes, root_id=ids[0])
    tax.rebuild_assignment()
    tax.assignment = {sid: draw(st.permutations(leaf_ids).map(tuple))
                      for sid, leaf_ids in tax.assignment.items()}
    return tax


@given(tax=unicode_trees())
def test_save_writes_the_json_dumps_bytes_and_load_reads_them_back(tax):
    taxonomy_text, class_text = json_dumps_save(tax)
    with tempfile.TemporaryDirectory() as tmp:
        save(tax, tmp)
        with open(f"{tmp}/taxonomy.json", "rb") as fh:
            assert fh.read() == taxonomy_text.encode("utf-8")
        with open(f"{tmp}/class.json", "rb") as fh:
            assert fh.read() == class_text.encode("utf-8")
        assert load(tmp) == tax


@pytest.mark.parametrize("n_services", [999, 1000, 1001, 2500])
def test_save_writes_the_json_dumps_bytes_across_class_batches(tmp_path, n_services):
    tax = Taxonomy()
    tax.add_child("root", "A").service_ids = [f"svc-{i}" for i in range(n_services)]
    tax.rebuild_assignment()
    save(tax, tmp_path)
    taxonomy_text, class_text = json_dumps_save(tax)
    assert (tmp_path / "taxonomy.json").read_bytes() == taxonomy_text.encode("utf-8")
    assert (tmp_path / "class.json").read_bytes() == class_text.encode("utf-8")


def test_save_streams_its_files(tmp_path):
    """save never holds a whole file: its peak stays far below what it writes."""
    tax, _ = make_balanced_taxonomy(8, 3, 30)  # 15,360 services
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        save(tax, tmp_path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    written = sum(path.stat().st_size for path in tmp_path.iterdir())
    assert peak < written / 4


def test_a_balanced_tree_and_its_loaded_copy_hold_tuples_that_load_keeps(tmp_path):
    tax, _ = make_balanced_taxonomy(3, 2, 4)
    # two services in the same two leaves
    tax.node("root/cat-1/cat-1-2").service_ids += ["svc-1-1-01", "svc-1-1-02"]
    tax.rebuild_assignment()
    assert tax.assignment["svc-1-1-01"] == ("root/cat-1/cat-1-1", "root/cat-1/cat-1-2")
    assert tax.assignment["svc-1-1-01"] is tax.assignment["svc-1-1-02"]
    loaded = assert_tuples_that_load_keeps(tax, tmp_path / "made")
    assert_tuples_that_load_keeps(loaded, tmp_path / "loaded")


def test_a_loaded_assignment_adds_no_tracked_object_per_service(tmp_path):
    """Tuples of strings leave the cyclic collector at its first pass, so
    the objects a loaded tree adds to it follow its nodes, not its services."""
    tax, _ = make_balanced_taxonomy(3, 2, 40)  # 13 nodes, 360 services
    save(tax, tmp_path)
    del tax
    gc.collect()
    before = len(gc.get_objects())
    loaded = load(tmp_path)
    gc.collect()
    added = len(gc.get_objects()) - before
    assert not any(gc.is_tracked(leaf_ids) for leaf_ids in loaded.assignment.values())
    assert added < len(loaded.assignment) == 360


def deep_size(obj: object) -> int:
    """sys.getsizeof summed over every object reachable from ``obj`` through
    dicts, lists, tuples and instance dicts, each counted once."""
    seen: set[int] = set()
    stack = [obj]
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, dict):
            stack += [*obj.keys(), *obj.values()]
        elif isinstance(obj, (list, tuple)):
            stack += obj
        elif hasattr(obj, "__dict__"):
            stack.append(vars(obj))
    return total


def test_load_peaks_no_higher_than_decoding_class_json(tmp_path):
    """load folds class.json to its tuples before it reads taxonomy.json, so
    the two decoded files are never held at once (decoding both before
    checking either peaks at 1.29x), and it keeps no more than the tree it
    returns."""
    tax, _ = make_balanced_taxonomy(8, 2, 40)  # 73 nodes, 2,560 services
    save(tax, tmp_path)
    del tax

    def traced(fn):
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = fn()
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return out, peak - before, kept - before

    _, decode_peak, _ = traced(lambda: read_json(tmp_path / "class.json"))
    loaded, load_peak, kept = traced(lambda: load(tmp_path))
    assert load_peak <= 1.05 * decode_peak
    assert kept <= 1.03 * deep_size(loaded)  # 1.007x; 1.022x when the check built the tuples


def test_load_keeps_one_string_per_id(tmp_path):
    tax, _ = make_balanced_taxonomy(3, 2, 4)
    tax.node("root/cat-1/cat-1-2").service_ids.append("svc-1-1-01")  # one service in two leaves
    tax.rebuild_assignment()
    save(tax, tmp_path)
    loaded = load(tmp_path)
    assert loaded == tax
    for sid, leaf_ids in loaded.assignment.items():
        for leaf_id in leaf_ids:
            leaf = loaded.nodes[leaf_id]
            assert leaf_id is leaf.node_id
            assert any(held is sid for held in leaf.service_ids)


def test_validate_changes_no_list():
    tax = small_tree()
    tax.assignment["s2"] += ("root/a/a1",)  # a leaf listed twice
    tax.assignment["s4"] = ("root/b",)  # a leaf without the service
    # lists, as class.json decodes them, of string objects the nodes do not hold
    tax.assignment = json.loads(json.dumps(tax.assignment))
    assert all(type(leaf_ids) is list for leaf_ids in tax.assignment.values())

    def objects() -> list:
        return [(id(node.service_ids), [id(sid) for sid in node.service_ids])
                for node in tax.nodes.values()] + [
                (id(sid), id(leaf_ids), [id(leaf_id) for leaf_id in leaf_ids])
                for sid, leaf_ids in tax.assignment.items()]

    before = objects()
    validate(tax, registry_for(tax))
    assert objects() == before


def test_validate_reports_a_leaf_listed_twice():
    tax = small_tree()
    tax.assignment["s2"] = ["root/a/a1", "root/b", "root/a/a1"]
    assert [(v.kind, v.subject, v.detail) for v in validate(tax, registry_for(tax))] == [
        ("assignment-mismatch", "s2", "service 's2' lists leaf 'root/a/a1' twice"),
    ]


def test_load_rejects_a_leaf_listed_twice(tmp_path):
    save(small_tree(), tmp_path)
    doc = json.loads((tmp_path / "class.json").read_text())
    doc["s1"] = ["root/a/a1", "root/a/a1"]
    (tmp_path / "class.json").write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as exc:
        load(tmp_path)
    assert str(exc.value) == f"{tmp_path / 'class.json'}: service 's1' lists leaf 'root/a/a1' twice"


def leaf_listing_a_service_twice() -> Taxonomy:
    tax = Taxonomy()
    tax.add_child("root", "A").service_ids = ["s2", "s1", "s2", "s1"]
    tax.assignment = {"s1": ["root/a"], "s2": ["root/a"]}
    return tax


def test_load_rejects_a_leaf_that_lists_a_service_twice(tmp_path):
    save(leaf_listing_a_service_twice(), tmp_path)
    with pytest.raises(SchemaError) as exc:
        load(tmp_path)
    assert str(exc.value) == f"{tmp_path / 'taxonomy.json'}: service 's2' listed twice"


def test_validate_reports_a_service_listed_twice_in_a_leaf_once():
    tax = leaf_listing_a_service_twice()
    assert [(v.kind, v.subject, v.detail) for v in validate(tax, registry_for(tax))] == [
        ("duplicate-in-leaf", "root/a", "service 's2' listed twice"),
        ("duplicate-in-leaf", "root/a", "service 's1' listed twice"),
    ]


def test_load_missing_file(tmp_path):
    with pytest.raises(SchemaError) as exc:
        load(tmp_path)
    assert str(exc.value) == f"{tmp_path / 'taxonomy.json'}: cannot read (No such file or directory)"
    save(small_tree(), tmp_path)
    (tmp_path / "class.json").unlink()
    with pytest.raises(SchemaError) as exc:
        load(tmp_path)
    assert str(exc.value) == f"{tmp_path / 'class.json'}: cannot read (No such file or directory)"


def test_load_invalid_json(tmp_path):
    save(small_tree(), tmp_path)
    (tmp_path / "taxonomy.json").write_text("{nope")
    with pytest.raises(SchemaError, match="invalid JSON"):
        load(tmp_path)



@pytest.mark.parametrize("name", ["taxonomy.json", "class.json"])
def test_load_a_file_that_is_not_utf8_is_a_schema_error(tmp_path, name):
    save(small_tree(), tmp_path)
    path = tmp_path / name
    data = path.read_bytes()
    path.write_bytes(data[:1] + b"\xff" + data[1:])
    with pytest.raises(SchemaError) as exc:
        load(tmp_path)
    assert str(exc.value) == f"{path}: line 1: not UTF-8 (invalid start byte at byte 1)"

def test_load_names_missing_field(tmp_path):
    save(small_tree(), tmp_path)
    doc = json.loads((tmp_path / "taxonomy.json").read_text())
    del doc["nodes"][0]["boundary"]
    (tmp_path / "taxonomy.json").write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=r"nodes\[0\] missing field 'boundary'"):
        load(tmp_path)


def test_load_rejects_cross_file_mismatch(tmp_path):
    save(small_tree(), tmp_path)
    doc = json.loads((tmp_path / "class.json").read_text())
    doc["s1"] = ["root/a"]  # internal node, not a leaf
    (tmp_path / "class.json").write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="non-leaf"):
        load(tmp_path)


def test_load_rejects_assignment_missing_leaf_service(tmp_path):
    save(small_tree(), tmp_path)
    doc = json.loads((tmp_path / "class.json").read_text())
    del doc["s3"]
    (tmp_path / "class.json").write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="absent from the assignment map"):
        load(tmp_path)


def test_validate_reports_the_assignment_fault_that_load_raises(tmp_path):
    tax = small_tree()
    tax.node("root/b").service_ids.append("s1")  # the map lists s1 under root/a/a1 only
    assert [(v.kind, v.subject, v.detail) for v in validate(tax, registry_for(tax))] == [
        ("assignment-mismatch", "s1",
         "leaf 'root/b' holds service 's1' absent from the assignment map"),
    ]
    save(tax, tmp_path)
    with pytest.raises(SchemaError) as exc:
        load(tmp_path)
    assert str(exc.value) == (
        f"{tmp_path / 'class.json'}: leaf 'root/b' holds service 's1' absent from the assignment map"
    )


def test_load_rejects_a_node_with_children_that_lists_services(tmp_path):
    """save writes a services list for leaves only, so a later save would
    drop this one; an empty list lists nothing and loads."""
    save(small_tree(), tmp_path)
    doc = json.loads((tmp_path / "taxonomy.json").read_text())
    assert doc["nodes"][0]["id"] == "root"
    doc["nodes"][0]["services"] = ["s1", "s1", "ghost"]
    (tmp_path / "taxonomy.json").write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as exc:
        load(tmp_path)
    assert str(exc.value) == f"{tmp_path / 'taxonomy.json'}: node 'root' has children and lists services"
    doc["nodes"][0]["services"] = []
    (tmp_path / "taxonomy.json").write_text(json.dumps(doc))
    assert load(tmp_path) == small_tree()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda nodes: nodes.__setitem__(1, "root/a"), "nodes[1] is not an object"),
        (lambda nodes: nodes.append(dict(nodes[1])), "duplicate node id 'root/a'"),
    ],
    ids=["record-string", "duplicate-id"],
)
def test_load_rejects_a_bad_node_record(tmp_path, edit, message):
    save(small_tree(), tmp_path)
    doc = json.loads((tmp_path / "taxonomy.json").read_text())
    edit(doc["nodes"])
    (tmp_path / "taxonomy.json").write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as exc:
        load(tmp_path)
    assert str(exc.value) == f"{tmp_path / 'taxonomy.json'}: {message}"


def test_load_rejects_a_root_with_no_node_record(tmp_path):
    save(small_tree(), tmp_path)
    doc = json.loads((tmp_path / "taxonomy.json").read_text())
    doc["root"] = "x"
    (tmp_path / "taxonomy.json").write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as exc:
        load(tmp_path)
    assert str(exc.value) == f"{tmp_path / 'taxonomy.json'}: root 'x' has no node record"


def test_a_node_table_without_its_root_is_refused():
    with pytest.raises(DataError, match="^root node 'root' missing from node table$"):
        Taxonomy(nodes={"a": TaxonomyNode("a", "a")})


def test_load_rejects_unknown_leaf_reference(tmp_path):
    save(small_tree(), tmp_path)
    doc = json.loads((tmp_path / "class.json").read_text())
    doc["s1"] = ["root/nowhere"]
    (tmp_path / "class.json").write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="unknown leaf"):
        load(tmp_path)


def _add_node(records: dict, node_id: str, depth: int, children=()) -> None:
    records[node_id] = {"id": node_id, "name": node_id, "description": "", "boundary": "",
                        "children": list(children), "depth": depth}


@pytest.mark.parametrize(
    "edit, match, kind",
    [
        # the two-node cycle root -> a -> root made retrieve descend forever
        (lambda r: r["root/a"]["children"].append("root"), r"parent cycle: root 'root'.*'root/a'",
         "cycle"),
        (lambda r: (_add_node(r, "x", 1, ["y"]), _add_node(r, "y", 2, ["x"])),
         r"node 'x' is not reachable from the root 'root'$", "unreachable"),
        # a cycle below the root enters at a node with two parents
        (lambda r: r["root/a/a1"].update(children=["root/a"]),
         r"node 'root/a' is listed under two parents, 'root' and 'root/a/a1'$", "two-parents"),
        (lambda r: r["root/b"]["children"].append("root/a/a1"),
         r"node 'root/a/a1' is listed under two parents, 'root/a' and 'root/b'", "two-parents"),
        (lambda r: r["root"]["children"].append("root/b"), r"node 'root/b' is listed twice under 'root'$",
         "duplicate-child"),
        (lambda r: _add_node(r, "stray", 1), r"node 'stray' is not reachable from the root",
         "unreachable"),
        (lambda r: r["root/a/a1"].update(depth=1), r"node 'root/a/a1' has depth 1, expected 2",
         "wrong-depth"),
    ],
    ids=["root-cycle", "detached-cycle", "inner-cycle", "two-parents", "listed-twice", "unreachable", "depth"],
)
def test_load_rejects_trees_that_are_not_one_tree(tmp_path, edit, match, kind):
    save(small_tree(), tmp_path)
    doc = json.loads((tmp_path / "taxonomy.json").read_text())
    records = {record["id"]: record for record in doc["nodes"]}
    edit(records)
    doc["nodes"] = list(records.values())
    (tmp_path / "taxonomy.json").write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=match):
        load(tmp_path)

    # the same edit made in memory: validate reports it, walk raises it
    tax = Taxonomy(nodes={
        r["id"]: TaxonomyNode(r["id"], r["name"], children=r["children"],
                              service_ids=r.get("services", []), depth=r["depth"])
        for r in records.values()
    })
    violations = validate(tax, registry_for(small_tree()))
    assert kind in {v.kind for v in violations}
    assert any(re.search(match, v.detail) for v in violations if v.kind == kind)
    with pytest.raises(DataError, match=match):
        tax.walk()


def cyclic_tree() -> Taxonomy:
    """root -> a -> root, with a leaf b under a."""
    tax = Taxonomy()
    a = tax.add_child("root", "A")
    b = tax.add_child(a.node_id, "B")
    b.service_ids = ["s1"]
    tax.assignment = {"s1": [b.node_id]}
    a.children.append("root")
    return tax


def test_a_cycle_built_in_memory_is_reported_not_recursed():
    tax = cyclic_tree()
    reg = Registry([Service(id="s1", name="s1", description="d")])
    assert [v.kind for v in validate(tax, reg)] == ["cycle"]
    for call in (tax.walk, tax.leaves, tax.rebuild_assignment, lambda: stats(tax),
                 lambda: TaxonomyBuilder(LlmGateway()).cross_domain_assign(tax, reg, BuildReport())):
        with pytest.raises(DataError, match="parent cycle: root 'root' is listed as a child of 'root/a'"):
            call()


def test_walk_is_preorder_and_validate_reports_every_fault():
    tax = small_tree()
    assert tax.walk() == ["root", "root/a", "root/a/a1", "root/b"]
    tax.node("root/a").children += ["root/zz", "root/b"]
    tax.nodes["lone"] = TaxonomyNode("lone", "lone", depth=1)
    faults = [(v.kind, v.subject) for v in validate(tax, registry_for(small_tree()))]
    assert faults == [
        ("dangling-child", "root/a"), ("two-parents", "root/b"), ("unreachable", "lone"),
    ]


def test_remove_child_requires_childless():
    tax = small_tree()
    with pytest.raises(DataError, match="still has children"):
        tax.remove_child("root", "root/a")
    tax.remove_child("root/a", "root/a/a1")
    assert "root/a/a1" not in tax.nodes


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda d: d["nodes"][0].update(depth="x"), r"nodes\[0\] field 'depth' must be an integer"),
        (lambda d: d["nodes"][1].update(depth=None), r"nodes\[1\] field 'depth' must be an integer"),
        (lambda d: d["nodes"][1].update(depth=[1]), r"nodes\[1\] field 'depth' must be an integer"),
        (lambda d: d["nodes"][2].update(depth=True), r"nodes\[2\] field 'depth' must be an integer"),
        (lambda d: d["nodes"][0].update(name=5), r"nodes\[0\] field 'name' must be a string"),
        (lambda d: d["nodes"][3].update(id=["root/b"]), r"nodes\[3\] field 'id' must be a string"),
        (lambda d: d["nodes"][1].update(boundary=None), r"nodes\[1\] field 'boundary' must be a string"),
        (lambda d: d["nodes"][0].update(children="root/a"),
         r"nodes\[0\] field 'children' must be a list of strings"),
        (lambda d: d["nodes"][0].update(children=[{}]),
         r"nodes\[0\] field 'children' must be a list of strings"),
        (lambda d: d["nodes"][3].update(services=[1]),
         r"nodes\[3\] field 'services' must be a list of strings"),
        (lambda d: d.update(root=["root"]), r"'root' must be a string and 'nodes' a list"),
        (lambda d: d.update(nodes={}), r"'root' must be a string and 'nodes' a list"),
    ],
    ids=["depth-str", "depth-null", "depth-list", "depth-bool", "name-int", "id-list",
         "boundary-null", "children-str", "children-obj", "services-int", "root-list", "nodes-obj"],
)
def test_load_checks_field_types(tmp_path, edit, match):
    save(small_tree(), tmp_path)
    doc = json.loads((tmp_path / "taxonomy.json").read_text())
    assert [n["id"] for n in doc["nodes"]] == ["root", "root/a", "root/a/a1", "root/b"]
    edit(doc)
    (tmp_path / "taxonomy.json").write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=match):
        load(tmp_path)


def test_load_rejects_non_string_leaf_ids_in_class_file(tmp_path):
    save(small_tree(), tmp_path)
    (tmp_path / "class.json").write_text(json.dumps({"s1": [["root/a/a1"]]}))
    with pytest.raises(SchemaError, match=r"'s1' references unknown leaf \['root/a/a1'\]"):
        load(tmp_path)


TREE_FAULTS = {"dangling-child", "cycle", "duplicate-child", "two-parents", "wrong-depth", "unreachable"}
NODE_IDS = ["root", "a", "b", "c", "d"]
odd_values = st.one_of(st.none(), st.booleans(), st.integers(-1, 3), st.text(max_size=2),
                       st.sampled_from(NODE_IDS + ["zz"]),
                       st.lists(st.sampled_from(NODE_IDS + ["zz", 1]), max_size=3), st.just({}))


@st.composite
def node_tables(draw) -> tuple[object, list[dict]]:
    """(root, node records): a random tree over the first few NODE_IDS, then
    up to three fields of random nodes set to random values."""
    ids = NODE_IDS[: draw(st.integers(1, len(NODE_IDS)))]
    records = {nid: {"id": nid, "name": nid, "description": "", "boundary": "",
                     "children": [], "depth": 0} for nid in ids}
    for i, nid in enumerate(ids[1:], start=1):
        parent = records[draw(st.sampled_from(ids[:i]))]
        parent["children"].append(nid)
        records[nid]["depth"] = parent["depth"] + 1
    for record in records.values():
        if not record["children"]:
            record["services"] = draw(st.lists(st.sampled_from(["s1", "s2"]), max_size=2))
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(["id", "name", "boundary", "children", "depth", "services"]))
        records[draw(st.sampled_from(ids))][key] = draw(odd_values)
    return draw(st.sampled_from(["root", "root", "a", None])), list(records.values())


@given(table=node_tables())
def test_load_either_rejects_or_returns_one_tree(table):
    """load raises SchemaError, or the tree it returns walks cleanly and
    validate finds no tree-shape fault in it."""
    root, records = table
    # class.json backs every leaf service, so the tree's shape decides
    assignment: dict = {}
    for record in records:
        services, children = record.get("services", []), record["children"]
        if isinstance(services, list) and children == [] and isinstance(record["id"], str):
            for sid in services:
                if isinstance(sid, str) and record["id"] not in assignment.get(sid, []):
                    assignment.setdefault(sid, []).append(record["id"])
    with tempfile.TemporaryDirectory() as tmp:
        with open(f"{tmp}/taxonomy.json", "w") as fh:
            json.dump({"root": root, "nodes": records}, fh)
        with open(f"{tmp}/class.json", "w") as fh:
            json.dump(assignment, fh)
        try:
            tax = load(tmp)
        except SchemaError:
            return
    order = tax.walk()
    assert sorted(order) == sorted(tax.nodes)
    assert tax.leaves() == [n for n in order if not tax.nodes[n].children]
    kinds = {v.kind for v in validate(tax, registry_for(tax))}
    assert not kinds & TREE_FAULTS


SERVICES = ["s1", "s2", "s3"]
LOAD_FAULTS = TREE_FAULTS | {"duplicate-in-leaf", "assignment-mismatch"}


@st.composite
def mutated_files(draw) -> tuple[list[dict], dict]:
    """(node records, class.json) for a random well-typed tree whose inner
    nodes list no services and whose class.json is the inverse of its leaf
    lists, then up to four random edits: a leaf list that repeats, drops or
    adds a service; a class.json entry whose leaf ids are dropped, repeated,
    unknown or not leaves, that is empty or no list, or that is gone; and a
    tree-shape fault (a wrong depth, a bad child entry, an unreachable leaf)."""
    ids = NODE_IDS[: draw(st.integers(1, len(NODE_IDS)))]
    records = {nid: {"id": nid, "name": nid, "description": "", "boundary": "",
                     "children": [], "depth": 0} for nid in ids}
    for i, nid in enumerate(ids[1:], start=1):
        parent = records[draw(st.sampled_from(ids[:i]))]
        parent["children"].append(nid)
        records[nid]["depth"] = parent["depth"] + 1
    leaves = [r for r in records.values() if not r["children"]]
    inner = [r["id"] for r in records.values() if r["children"]]
    assignment: dict = {}
    for leaf in leaves:
        leaf["services"] = draw(st.lists(st.sampled_from(SERVICES), unique=True, max_size=3))
        for sid in leaf["services"]:
            assignment.setdefault(sid, []).append(leaf["id"])
    leaf_ids = [leaf["id"] for leaf in leaves]

    def add_to_a_leaf() -> None:  # a repeat or an addition
        draw(st.sampled_from(leaves))["services"].append(draw(st.sampled_from(SERVICES + ["s9"])))

    def drop_from_a_leaf() -> None:
        services = draw(st.sampled_from(leaves))["services"]
        if services:
            del services[draw(st.integers(0, len(services) - 1))]

    def set_an_entry() -> None:  # an empty list, dropped, repeated, unknown or inner ids, or no list
        assignment[draw(st.sampled_from(SERVICES + ["s9"]))] = draw(st.one_of(
            st.lists(st.sampled_from(leaf_ids + inner + ["zz"]), max_size=3),
            st.sampled_from(leaf_ids + [None, {}, 1]),
        ))

    def drop_an_entry() -> None:
        assignment.pop(draw(st.sampled_from(SERVICES)), None)

    def set_a_depth() -> None:
        records[draw(st.sampled_from(ids))]["depth"] = draw(st.integers(0, 3))

    def add_a_child() -> None:  # a repeat, a second parent, a cycle or an unknown id
        records[draw(st.sampled_from(inner or ["root"]))]["children"].append(draw(st.sampled_from(ids + ["zz"])))

    def add_an_unreachable_leaf() -> None:
        records["x"] = {"id": "x", "name": "x", "description": "", "boundary": "",
                        "children": [], "depth": 1, "services": ["s1"]}

    edits = [add_to_a_leaf, drop_from_a_leaf, set_an_entry, drop_an_entry, set_a_depth, add_a_child,
             add_an_unreachable_leaf]
    for _ in range(draw(st.integers(0, 4))):
        draw(st.sampled_from(edits))()
    return list(records.values()), assignment


@given(files=mutated_files())
def test_load_rejects_exactly_the_files_validate_faults_and_returns_the_inverse_of_its_leaf_lists(files):
    """load raises SchemaError exactly when validate, on the same tables,
    reports a tree-shape, duplicate-in-leaf or assignment-mismatch fault. A
    tree it returns maps each service to the leaves that list it, and saves
    and loads back equal."""
    records, assignment = files
    tables = Taxonomy(
        nodes={r["id"]: TaxonomyNode(r["id"], r["name"], children=list(r["children"]),
                                     service_ids=list(r.get("services", [])), depth=r["depth"])
               for r in records},
        assignment=json.loads(json.dumps(assignment)),
    )
    faults = [v for v in validate(tables, registry_for(tables)) if v.kind in LOAD_FAULTS]
    with tempfile.TemporaryDirectory() as tmp:
        with open(f"{tmp}/taxonomy.json", "w") as fh:
            json.dump({"root": "root", "nodes": records}, fh)
        with open(f"{tmp}/class.json", "w") as fh:
            json.dump(assignment, fh)
        try:
            tax = load(tmp)
        except SchemaError:
            assert faults
            return
        assert not faults
        inverse: dict[str, set[str]] = {}
        for node_id, node in tax.nodes.items():
            for sid in node.service_ids:
                inverse.setdefault(sid, set()).add(node_id)
        assert {sid: set(leaf_ids) for sid, leaf_ids in tax.assignment.items()} == inverse
        assert all(len(set(leaf_ids)) == len(leaf_ids) for leaf_ids in tax.assignment.values())
        save(tax, f"{tmp}/again")
        assert load(f"{tmp}/again") == tax
