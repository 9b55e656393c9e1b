"""Registry and query loading: formats, field maps, validation, stats."""

from __future__ import annotations

import gc
import json
import os
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from taxonav.errors import ConfigError, DataError, ReplyParseError, SchemaError
from taxonav.registry import (
    FieldMap,
    QueryCase,
    Registry,
    Service,
    decode_json,
    iter_jsonl,
    load_queries,
    load_registry,
    mean_ground_truth_size,
    registry_stats,
    save_queries,
    save_registry,
    write_atomic,
)


def svc(i: int, description: str = "does things") -> Service:
    return Service(id=f"s{i}", name=f"svc-{i}", description=description)


def test_registry_order_and_lookup():
    reg = Registry([svc(1), svc(2), svc(3)])
    assert reg.ids == ["s1", "s2", "s3"]
    assert reg.get("s3").name == "svc-3"
    assert "s1" in reg and "nope" not in reg


def test_registries_are_equal_only_with_the_same_services_in_the_same_order():
    assert Registry([svc(1), svc(2)]) == Registry([svc(1), svc(2)])
    assert Registry([svc(1), svc(2)]) != Registry([svc(2), svc(1)])
    assert Registry([svc(1)]) != Registry([svc(1, "does other things")])


def test_registry_rejects_duplicate_ids():
    with pytest.raises(DataError, match="duplicate service id"):
        Registry([svc(1), svc(1)])


def test_registry_unknown_id_raises():
    reg = Registry([svc(1)])
    with pytest.raises(DataError, match="unknown service id"):
        reg.get("s9")


def test_save_load_round_trip(tmp_path):
    reg = Registry([svc(1), Service(id="s2", name="two", description="d", source="mcp")])
    path = tmp_path / "services.jsonl"
    save_registry(reg, path)
    assert load_registry(path) == reg
    # source key is omitted entirely when absent
    first_line = path.read_text().splitlines()[0]
    assert "source" not in json.loads(first_line)


def test_load_registry_json_array(tmp_path):
    path = tmp_path / "services.json"
    path.write_text(json.dumps([{"id": "a", "name": "A", "description": "d"}]))
    reg = load_registry(path, format="json")
    assert reg.ids == ["a"]


def test_load_registry_names_locator_and_field(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        json.dumps({"id": "a", "name": "A", "description": "d"})
        + "\n"
        + json.dumps({"id": "b", "name": "B"})
        + "\n"
    )
    with pytest.raises(DataError, match=r"line 2.*description"):
        load_registry(path)


def test_load_registry_unknown_format(tmp_path):
    with pytest.raises(DataError, match="unknown dataset format"):
        load_registry(tmp_path / "x.jsonl", format="csv")


def test_load_registry_missing_file(tmp_path):
    with pytest.raises(DataError) as exc:
        load_registry(tmp_path / "missing.jsonl")
    assert str(exc.value) == f"{tmp_path / 'missing.jsonl'}: cannot read (No such file or directory)"


def test_write_atomic_onto_a_directory_names_it_and_leaves_no_temp_file(tmp_path):
    (tmp_path / "taken").mkdir()
    with pytest.raises(DataError) as exc:
        write_atomic({tmp_path / "taken": ["b"], tmp_path / "a.txt": ["a"]})
    assert str(exc.value) == f"{tmp_path / 'taken'}: cannot write (Is a directory)"
    assert os.listdir(tmp_path) == ["taken"]
    assert os.listdir(tmp_path / "taken") == []


def test_a_failed_later_rename_leaves_the_earlier_paths_replaced(tmp_path):
    """Every file is written before any rename, but the renames run one
    after another, so they are not all-or-nothing."""
    first, second = tmp_path / "first.txt", tmp_path / "second"
    first.write_text("old", encoding="utf-8")
    second.mkdir()
    with pytest.raises(DataError) as exc:
        write_atomic({first: ["new"], second: ["text"]})
    assert str(exc.value) == f"{second}: cannot write (Is a directory)"
    assert first.read_text(encoding="utf-8") == "new"
    assert os.listdir(second) == []
    assert sorted(os.listdir(tmp_path)) == ["first.txt", "second"]


def test_field_map_renames_keys(tmp_path):
    path = tmp_path / "tools.jsonl"
    path.write_text(json.dumps({"tool_id": "t1", "tool_name": "T", "desc": "does x"}) + "\n")
    fm = FieldMap(id="tool_id", name="tool_name", description="desc")
    reg = load_registry(path, field_map=fm)
    assert reg.get("t1").description == "does x"


def test_load_queries_checks_ground_truth(tmp_path):
    reg = Registry([svc(1), svc(2)])
    path = tmp_path / "queries.jsonl"
    path.write_text(json.dumps({"id": "q1", "text": "find", "ground_truth": ["s1", "s9"]}) + "\n")
    with pytest.raises(DataError, match=r"q1.*unknown service 's9'"):
        load_queries(path, reg)
    path.write_text(json.dumps({"id": "q1", "text": "find", "ground_truth": []}) + "\n")
    with pytest.raises(DataError, match="no ground-truth ids"):
        load_queries(path, reg)


def test_queries_round_trip(tmp_path):
    reg = Registry([svc(1), svc(2)])
    cases = [QueryCase(id="q1", text="hello", ground_truth=frozenset({"s1", "s2"}))]
    path = tmp_path / "queries.jsonl"
    save_queries(cases, path)
    assert load_queries(path, reg) == cases


def test_registry_stats_values():
    reg = Registry(
        [svc(1, "a" * 10), svc(2, "b" * 20), svc(3, "c" * 40)]
    )
    stats = registry_stats(reg)
    assert stats["count"] == 3
    dist = stats["description_length"]
    assert dist["min"] == 10 and dist["max"] == 40 and dist["median"] == 20
    assert dist["mean"] == pytest.approx(70 / 3)


def test_registry_stats_empty():
    stats = registry_stats(Registry([]))
    assert stats == {"count": 0}


def test_mean_ground_truth_size():
    assert mean_ground_truth_size([]) == 0.0
    qs = [
        QueryCase(id="a", text="t", ground_truth=frozenset({"x"})),
        QueryCase(id="b", text="t", ground_truth=frozenset({"x", "y", "z"})),
    ]
    assert mean_ground_truth_size(qs) == 2.0


ids = st.lists(
    st.text(alphabet="abcdefghij0123456789-", min_size=1, max_size=12),
    min_size=1,
    max_size=20,
    unique=True,
)


@given(ids=ids)
def test_save_load_round_trip_property(tmp_path_factory, ids):
    reg = Registry([Service(id=i, name=f"n-{i}", description=f"d {i}") for i in ids])
    path = tmp_path_factory.mktemp("prop") / "reg.jsonl"
    save_registry(reg, path)
    assert load_registry(path) == reg


# -- loader errors, pinned word for word ------------------------------------

A = '{"id": "a", "name": "A", "description": "d"}'
B = '{"id": "b", "name": "B", "description": "e"}'
HUGE = "7" * 5000  # past the interpreter's int-string digit limit
DEEP = "[" * 100_000 + "]" * 100_000  # past the recursion limit


def digit_limit_message() -> str:
    """The interpreter's own words for HUGE, which vary between versions."""
    try:
        int(HUGE)
    except ValueError as exc:
        return str(exc)
    raise AssertionError("no int-string digit limit")


@pytest.mark.parametrize("error", [DataError, ConfigError, ReplyParseError])
@pytest.mark.parametrize(
    "text, message",
    [
        ('{"a" 1}', "here: invalid JSON (Expecting ':' delimiter)"),
        ("", "here: invalid JSON (Expecting value)"),
        ('{"a": ' + HUGE + "}", f"here: unreadable JSON ({digit_limit_message()})"),
        ('{"a": ' + DEEP + "}", "here: JSON nests too deeply"),
    ],
    ids=["invalid", "empty", "huge-integer", "deep-nesting"],
)
def test_decode_json_maps_every_rejection_to_the_given_error(text, message, error):
    with pytest.raises(error) as exc:
        decode_json(text, error, "here")
    assert str(exc.value) == message
    assert decode_json('{"a": [1, 2.5, null]}', error, "here") == {"a": [1, 2.5, None]}


@pytest.mark.parametrize(
    "text, error",
    [
        (A + "\n" + A + " " + B + "\n", "line 2: invalid JSON (Extra data)"),
        (A + "\n" + '{"id": "b", "name": "B",\n"description": "e"}\n',
         "line 2: invalid JSON (Expecting property name enclosed in double quotes)"),
        ('{"id": "a",\n "name": "A", "description": "d"}\n',
         "line 1: invalid JSON (Expecting property name enclosed in double quotes)"),
        ('{"id": "a", "name": "A"\n, "description": "d"}\n',
         "line 1: invalid JSON (Expecting ',' delimiter)"),
        (A + "\n" + '["a", "A", "d"]\n', "line 2: expected a JSON object"),
        (A + "\n" + '"a"\n', "line 2: expected a JSON object"),
        (A + "\n" + B + "\n" + '{"id": "c", "description": "f"}\n',
         "line 3: missing or empty field 'name'"),
        (A + "\n" + '{"id": "b", "name": " \\t", "description": "e"}\n',
         "line 2: missing or empty field 'name'"),
        (A + "\n" + '{"id": "b", "name": "B", "description": 7}\n',
         "line 2: missing or empty field 'description'"),
        ('{"id": "", "name": "", "description": ""}\n', "line 1: missing or empty field 'id'"),
        ("\n\n" + A + "\n  \n" + '{"id": "b", "name": "B"}\n',
         "line 5: missing or empty field 'description'"),
        (A + "\r\n\r\n" + B + "\r\n" + '{"name": "C", "description": "f"}\r\n',
         "line 4: missing or empty field 'id'"),
        (A + "\r\n" + B + "\r\n" + A + "\r\n", "line 3: duplicate service id 'a'"),
        (A + "\n" + "{'id': 'b'}\n",
         "line 2: invalid JSON (Expecting property name enclosed in double quotes)"),
        (A + "\n" + B + "}\n", "line 2: invalid JSON (Extra data)"),
        (A + "\n" + '{"id": "b", "name": "B", "description": "e\n"}\n',
         "line 2: invalid JSON (Unterminated string starting at)"),
        (A + "\n" + "nul\n", "line 2: invalid JSON (Expecting value)"),
        ("﻿" + A + "\n", "line 1: invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))"),
        (A + "\n" + '{"id": "b", "name": "B", "description": "tab\there"}\n',
         "line 2: invalid JSON (Invalid control character at)"),
        (A + "\n" + '{"id": ' + HUGE + "}\n", f"line 2: unreadable JSON ({digit_limit_message()})"),
        (DEEP + "\n", "line 1: JSON nests too deeply"),
    ],
    ids=[
        "two-objects-on-one-line", "object-split-over-two-lines", "split-first-line",
        "split-before-comma", "array-line", "string-line", "missing-field-line-3",
        "blank-field", "non-string-field", "all-blank-names-id-first", "blank-lines-count",
        "crlf-and-blank-lines", "duplicate-id", "single-quotes", "trailing-brace",
        "newline-in-string", "bad-literal", "bom", "raw-tab-in-string", "huge-integer",
        "deep-nesting",
    ],
)
def test_load_registry_error_messages(tmp_path, text, error):
    path = tmp_path / "services.jsonl"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(DataError) as exc:
        load_registry(path)
    assert str(exc.value) == f"{path}: {error}"


@pytest.mark.parametrize(
    "text, error",
    [
        ("[" + A + ", 3]", "record 1: expected a JSON object"),
        ("[" + A + ', {"id": "b", "name": "B"}]', "record 1: missing or empty field 'description'"),
        ("[" + A + "] " + A, "invalid JSON (Extra data)"),
        (A, "expected a JSON array of records"),
        ("[" + A + ", " + DEEP + "]", "JSON nests too deeply"),
        ("[" + A + ", " + HUGE + "]", f"unreadable JSON ({digit_limit_message()})"),
        ("[" + A + ", " + A + "]", "record 1: duplicate service id 'a'"),
    ],
    ids=["non-object", "missing-field", "extra-data", "not-an-array", "deep-nesting",
         "huge-integer", "duplicate-id"],
)
def test_load_registry_json_array_error_messages(tmp_path, text, error):
    path = tmp_path / "services.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError) as exc:
        load_registry(path, format="json")
    assert str(exc.value) == f"{path}: {error}"



@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("good_lines", [1, 3000], ids=["short", "past-the-first-read"])
def test_a_jsonl_file_that_is_not_utf8_names_its_line(tmp_path, newline, good_lines):
    """The text reader decodes ahead of the line it returns, so the line is
    counted from the bytes; every line end the reader knows counts."""
    good = "".join(
        json.dumps({"id": f"s{i}", "name": "n", "description": "d"}) + newline
        for i in range(good_lines)
    ).encode("utf-8")
    path = tmp_path / "services.jsonl"
    data = good + b'{"id": "x", "name": "n", "description": "\xff"}' + newline.encode()
    path.write_bytes(data)
    offset = data.index(b"\xff")
    with pytest.raises(DataError) as exc:
        load_registry(path)
    assert str(exc.value) == (
        f"{path}: line {good_lines + 1}: not UTF-8 (invalid start byte at byte {offset})"
    )
    assert isinstance(exc.value.__cause__, UnicodeDecodeError)
    with pytest.raises(SchemaError, match=f"line {good_lines + 1}: not UTF-8"):
        list(iter_jsonl(path, SchemaError))


def test_a_json_array_file_that_is_not_utf8_is_a_data_error(tmp_path):
    path = tmp_path / "services.json"
    data = b"[" + A.encode() + b',\n{"id": "b", "name": "B", "description": "\xe9"}]'
    path.write_bytes(data)
    with pytest.raises(DataError) as exc:
        load_registry(path, format="json")
    offset = data.index(b"\xe9")
    assert str(exc.value) == f"{path}: line 2: not UTF-8 (invalid continuation byte at byte {offset})"


Q1 = '{"id": "q1", "text": "find a", "ground_truth": ["s1"]}'


@pytest.mark.parametrize(
    "text, error",
    [
        (Q1 + " " + Q1 + "\n", "line 1: invalid JSON (Extra data)"),
        (Q1 + '\n{"id": "q2",\n"text": "t", "ground_truth": ["s1"]}\n',
         "line 2: invalid JSON (Expecting property name enclosed in double quotes)"),
        (Q1 + "\n" + "[1, 2]\n", "line 2: expected a JSON object"),
        (Q1 + "\n" + '{"id": "q2", "ground_truth": ["s1"]}\n', "line 2: missing or empty field 'text'"),
        (Q1 + "\n" + '{"id": " ", "text": "t", "ground_truth": ["s1"]}\n',
         "line 2: missing or empty field 'id'"),
        ("\n" + Q1 + "\r\n\r\n" + '{"id": "q2", "text": "t", "ground_truth": ["s1", "s9"]}\r\n',
         "line 4: query 'q2' references unknown service 's9'"),
        (Q1 + "\n" + '{"id": "q2", "text": "t", "ground_truth": ["s1", 7]}\n',
         "line 2: query 'q2' references unknown service 7"),
        (Q1 + "\n" + '{"id": "q2", "text": "t", "ground_truth": []}\n',
         "line 2: query 'q2' has no ground-truth ids"),
        (Q1 + "\n" + '{"id": "q2", "text": "t", "ground_truth": "s1"}\n',
         "line 2: query 'q2' has no ground-truth ids"),
        (Q1 + "\n" + '{"id": "q2", "text": "t"}\n', "line 2: query 'q2' has no ground-truth ids"),
        (Q1 + "\n\n" + Q1 + "\n", "line 3: duplicate query id 'q1'"),
    ],
    ids=[
        "two-objects-on-one-line", "object-split-over-two-lines", "array-line", "missing-field",
        "blank-id", "crlf-blank-lines-bad-ground-truth", "non-string-ground-truth",
        "empty-ground-truth", "string-ground-truth", "missing-ground-truth", "duplicate-id",
    ],
)
def test_load_queries_error_messages(tmp_path, text, error):
    reg = Registry([svc(1), svc(2)])
    path = tmp_path / "queries.jsonl"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(DataError) as exc:
        load_queries(path, reg)
    assert str(exc.value) == f"{path}: {error}"


def test_a_non_string_ground_truth_id_is_a_data_error(tmp_path):
    path = tmp_path / "queries.jsonl"
    path.write_text('{"id": "q1", "text": "t", "ground_truth": [["s1"]]}\n', encoding="utf-8")
    with pytest.raises(DataError) as exc:
        load_queries(path, Registry([svc(1)]))
    assert str(exc.value) == f"{path}: line 1: query 'q1' references unknown service ['s1']"


def test_records_keep_no_instance_dict():
    assert not hasattr(svc(1), "__dict__")
    assert not hasattr(QueryCase("q1", "find", frozenset({"s1"})), "__dict__")


def test_load_registry_peak_stays_near_what_the_registry_keeps(tmp_path):
    """A jsonl file is read line by line: the loader's peak is the registry
    it returns plus one line in flight, not a copy of the whole file."""
    path = tmp_path / "services.jsonl"
    save_registry(
        Registry(svc(i, f"does thing number {i} for whoever asks for it") for i in range(4000)), path
    )
    gc.collect()
    tracemalloc.start()
    try:
        registry = load_registry(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(registry) == 4000
    assert peak < 1.25 * kept


def registry_lines(services: list[Service]) -> tuple[Registry, str]:
    text = "".join(
        json.dumps({"id": s.id, "name": s.name, "description": s.description}, ensure_ascii=False)
        + "\n"
        for s in services
    )
    return Registry(services), text


def query_lines(services: list[Service]) -> tuple[list[QueryCase], str]:
    queries = [QueryCase(s.id, s.description, frozenset({"s1"})) for s in services]
    text = "".join(
        json.dumps({"id": q.id, "text": q.text, "ground_truth": ["s1"]}, ensure_ascii=False) + "\n"
        for q in queries
    )
    return queries, text


@pytest.mark.parametrize(
    "save, make",
    [(save_registry, registry_lines), (save_queries, query_lines)],
    ids=["registry", "queries"],
)
def test_a_failed_save_leaves_the_old_file_whole(tmp_path, save, make):
    """The writers write a temporary file and rename it into place: text
    UTF-8 cannot encode is a DataError naming the file, and the old bytes
    stay as they were."""
    path = tmp_path / "out.jsonl"
    good, text = make([svc(1), Service("b", "n", "fine")])
    save(good, path)
    assert path.read_bytes() == text.encode("utf-8")
    bad, _ = make([svc(1), Service("b", "n", "bad \ud800")])
    with pytest.raises(DataError) as exc:
        save(bad, path)
    assert str(exc.value) == f"{path}: cannot write as UTF-8 (surrogates not allowed: '\\ud800')"
    assert path.read_bytes() == text.encode("utf-8")
    assert os.listdir(tmp_path) == ["out.jsonl"]


def test_line_breaks_inside_strings_round_trip(tmp_path):
    """json.dumps leaves U+0085, U+2028 and U+2029 raw; only a newline ends a record."""
    reg = Registry([Service(id="a\u2028b", name="n\x85", description="d\u2029e", source="\u2028")])
    path = tmp_path / "services.jsonl"
    save_registry(reg, path)
    assert path.read_text(encoding="utf-8").count("\n") == 1
    assert load_registry(path) == reg


# -- writers, byte for byte against json.dumps ------------------------------

# any text, weighted towards what JSON must escape and what json.dumps leaves raw
unicode_text = st.text(
    st.one_of(st.characters(codec="utf-8"), st.sampled_from('"\\/\x00\x1f\x7f\n\r\t\x85\u2028\u2029é€😀')),
    max_size=8,
)
field_text = unicode_text.filter(str.strip)  # the loaders reject blank fields

services = st.lists(
    st.builds(Service, id=field_text, name=field_text, description=field_text,
              source=st.none() | unicode_text.filter(bool)),
    max_size=8,
    unique_by=lambda s: s.id,
)


@given(services=services, data=st.data())
def test_writers_match_json_dumps_and_round_trip(tmp_path_factory, services, data):
    reg = Registry(services)
    query_ids = data.draw(st.lists(field_text, max_size=3 if services else 0, unique=True))
    queries = [
        QueryCase(id=query_id, text=data.draw(field_text),
                  ground_truth=frozenset(data.draw(st.lists(st.sampled_from(reg.ids), min_size=1))))
        for query_id in query_ids
    ]
    registry_text = "".join(
        json.dumps(
            {"id": s.id, "name": s.name, "description": s.description}
            | ({"source": s.source} if s.source is not None else {}),
            ensure_ascii=False,
        ) + "\n"
        for s in services
    )
    queries_text = "".join(
        json.dumps({"id": q.id, "text": q.text, "ground_truth": sorted(q.ground_truth)},
                   ensure_ascii=False) + "\n"
        for q in queries
    )
    tmp = tmp_path_factory.mktemp("writers")
    save_registry(reg, tmp / "services.jsonl")
    save_queries(queries, tmp / "queries.jsonl")
    assert (tmp / "services.jsonl").read_bytes() == registry_text.encode("utf-8")
    assert (tmp / "queries.jsonl").read_bytes() == queries_text.encode("utf-8")
    assert load_registry(tmp / "services.jsonl") == reg
    assert load_queries(tmp / "queries.jsonl", reg) == queries
