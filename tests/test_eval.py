"""Metric arithmetic, run artifacts, and the comparison table."""

from __future__ import annotations

import gc
import json
import os
import re
import tempfile
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from taxonav.builder import BuildConfig, build_oneshot
from taxonav.errors import ConfigError, DataError, SchemaError
from taxonav.eval_harness import (
    EvalConfig,
    PerQueryRecord,
    Summary,
    compare,
    evaluate,
    load_records,
    load_summary,
    recompute_summary,
    score_query,
    summarize,
    write_run,
)
from taxonav.gateway import LlmGateway, MockChatBackend, ScriptRule
from taxonav.registry import QueryCase, Registry, Service
from taxonav.search import RetrievalResult, SearchConfig, TraceStep, retrieve
from taxonav.synthetic import make_balanced_taxonomy


def test_score_query_hand_cases():
    assert score_query(["a", "b", "c"], {"a", "d"}) == (1, 0.5, pytest.approx(1 / 3))
    assert score_query([], {"a"}) == (0, 0.0, 0.0)
    assert score_query(["x"], {"a"}) == (0, 0.0, 0.0)
    assert score_query(["a", "a", "b"], {"a"}) == (1, 1.0, 0.5)  # sets, not lists
    with pytest.raises(ConfigError, match="empty ground-truth"):
        score_query(["a"], set())


@given(
    st.sets(st.integers(0, 30), min_size=1, max_size=10),
    st.lists(st.integers(0, 30), max_size=10),
)
def test_score_query_bounds_and_hit_consistency(truth, returned):
    hit, recall, precision = score_query([str(v) for v in returned], {str(v) for v in truth})
    assert hit in (0, 1)
    assert 0.0 <= recall <= 1.0
    assert 0.0 <= precision <= 1.0
    overlap = set(map(str, returned)) & set(map(str, truth))
    assert hit == (1 if overlap else 0)
    if set(map(str, returned)) <= set(map(str, truth)) and returned:
        assert precision == 1.0


def test_eval_config_validation():
    with pytest.raises(ConfigError, match="method"):
        EvalConfig(method="")
    with pytest.raises(ConfigError, match="workers"):
        EvalConfig(method="taxonomy", workers=0)


def record(qid, hit, recall, precision, calls, ptok, otok=50, error=None):
    return PerQueryRecord(
        query_id=qid,
        returned=["r"],
        truth=["t"],
        hit=hit,
        recall=recall,
        precision=precision,
        calls=calls,
        prompt_tokens=ptok,
        output_tokens=otok,
        error=error,
    )


def ten_records() -> list[PerQueryRecord]:
    rows = [
        (1, 1.0, 1.0, 3, 1000),
        (1, 0.5, 0.5, 3, 1200),
        (1, 0.25, 0.125, 3, 800),
        (1, 1.0, 1.0, 5, 1500),
        (1, 0.75, 0.25, 3, 900),
        (1, 0.5, 0.5, 3, 1100),
        (1, 1.0, 0.25, 3, 1000),
        (0, 0.0, 0.0, 1, 400),
        (0, 0.0, 0.0, 1, 500),
        (0, 0.25, 0.125, 2, 700),
    ]
    records = [record(f"q{i:02d}", *row) for i, row in enumerate(rows)]
    records[8].error = "backend timeout"
    return records


def test_summarize_ten_record_fixture_full_precision():
    # means verified against an independent exact-fraction computation
    summary = summarize(ten_records(), EvalConfig(method="m", dataset="d", setting="s"))
    assert summary.query_count == 10
    assert summary.failure_count == 1
    assert summary.hit_rate == 0.7
    assert summary.recall == 0.525
    assert summary.precision == 0.375
    assert summary.tokens_per_query == 960.0
    assert summary.calls_per_query == 2.7
    assert summary.to_dict()["precision_is_secondary"] is True


def test_summarize_is_order_independent():
    cfg = EvalConfig(method="m")
    forward = summarize(ten_records(), cfg)
    backward = summarize(list(reversed(ten_records())), cfg)
    assert forward == backward  # fsum-based means are exact


def test_summarize_small_hand_case_and_empty():
    records = [
        record("q0", 1, 1.0, 0.5, 2, 100, otok=10),
        record("q1", 0, 0.0, 0.0, 4, 300, otok=30),
    ]
    summary = summarize(records, EvalConfig(method="m"))
    assert summary.hit_rate == 0.5
    assert summary.recall == 0.5
    assert summary.precision == 0.25
    assert summary.tokens_per_query == 220.0
    assert summary.calls_per_query == 3.0
    with pytest.raises(ConfigError, match="empty record list"):
        summarize([], EvalConfig(method="m"))


def test_summarize_takes_one_pass_over_any_iterable():
    cfg = EvalConfig(method="m", dataset="d", setting="s")
    from_list = summarize(ten_records(), cfg)
    from_generator = summarize((r for r in ten_records()), cfg)
    assert from_generator.to_dict() == from_list.to_dict()
    with pytest.raises(ConfigError, match="empty record list"):
        summarize(iter([]), cfg)


# -- evaluate -------------------------------------------------------------------


def queries(n: int) -> list[QueryCase]:
    return [QueryCase(id=f"q{i}", text=f"text {i}", ground_truth=frozenset({f"s{i}"})) for i in range(n)]


def test_evaluate_records_stay_in_query_order():
    def retrieve_fn(query: QueryCase) -> RetrievalResult:
        return RetrievalResult(
            service_ids=[f"s{query.id[1:]}"],
            calls=2,
            prompt_tokens=10,
            output_tokens=1,
            trace=[TraceStep(kind="select", node_id="root", options_shown=1, chosen=[1])],
        )

    summary, records = evaluate(retrieve_fn, queries(9), EvalConfig(method="m", workers=4))
    assert [r.query_id for r in records] == [f"q{i}" for i in range(9)]
    assert summary.hit_rate == 1.0
    assert summary.failure_count == 0
    assert records[0].trace[0]["kind"] == "select"


def test_evaluate_captures_package_errors_as_failures():
    def retrieve_fn(query: QueryCase) -> RetrievalResult:
        if query.id == "q1":
            raise DataError("leaf vanished")
        return RetrievalResult(service_ids=list(query.ground_truth), calls=1)

    summary, records = evaluate(retrieve_fn, queries(3), EvalConfig(method="m", workers=1))
    assert summary.failure_count == 1
    failed = records[1]
    assert failed.error == "leaf vanished"
    assert failed.returned == []
    assert failed.hit == 0
    assert summary.hit_rate == pytest.approx(2 / 3)


def test_evaluate_lets_foreign_exceptions_propagate():
    def retrieve_fn(query: QueryCase) -> RetrievalResult:
        raise RuntimeError("not a package error")

    with pytest.raises(RuntimeError):
        evaluate(retrieve_fn, queries(1), EvalConfig(method="m"))
    with pytest.raises(ConfigError, match="empty query list"):
        evaluate(lambda q: RetrievalResult(service_ids=[]), [], EvalConfig(method="m"))


# -- run artifacts ----------------------------------------------------------------


def write_fixture_run(tmp_path):
    cfg = EvalConfig(method="taxonomy", dataset="toolret", setting="get_all")
    records = ten_records()
    summary = summarize(records, cfg)
    run_dir = tmp_path / "run"
    write_run(run_dir, summary, records)
    return run_dir, summary, records


def test_write_run_round_trips(tmp_path):
    run_dir, summary, records = write_fixture_run(tmp_path)
    assert load_records(run_dir) == records
    loaded = load_summary(run_dir)
    assert loaded["hit_rate"] == summary.hit_rate
    assert loaded["precision_is_secondary"] is True


def test_recompute_summary_is_bit_identical(tmp_path):
    run_dir, _, _ = write_fixture_run(tmp_path)
    recomputed = recompute_summary(run_dir)
    rendered = (
        json.dumps(recomputed.to_dict(), indent=2, ensure_ascii=False, sort_keys=True) + "\n"
    )
    assert rendered.encode("utf-8") == (run_dir / "summary.json").read_bytes()


def test_load_summary_schema_errors(tmp_path):
    with pytest.raises(SchemaError) as exc:
        load_summary(tmp_path)
    assert str(exc.value) == f"{tmp_path / 'summary.json'}: cannot read (No such file or directory)"
    (tmp_path / "summary.json").write_text("{not json", encoding="utf-8")
    with pytest.raises(SchemaError, match="invalid JSON"):
        load_summary(tmp_path)
    (tmp_path / "summary.json").write_text('{"method": "m"}', encoding="utf-8")
    with pytest.raises(SchemaError, match="missing field"):
        load_summary(tmp_path)


SUMMARY = {
    "method": "taxonomy", "dataset": "d", "setting": "", "query_count": 2, "failure_count": 0,
    "hit_rate": 1.0, "recall": 0.5, "precision": 0.25, "tokens_per_query": 900.0,
    "calls_per_query": 3,
}


@pytest.mark.parametrize(
    "text, message",
    [
        ("3", "summary.json must hold a JSON object"),
        ("[]", "summary.json must hold a JSON object"),
        (json.dumps({**SUMMARY, "hit_rate": "x"}), "summary field 'hit_rate' must be a finite number"),
        (json.dumps({**SUMMARY, "recall": float("nan")}),
         "summary field 'recall' must be a finite number"),
        (json.dumps({**SUMMARY, "calls_per_query": True}),
         "summary field 'calls_per_query' must be a finite number"),
        (json.dumps({**SUMMARY, "query_count": 2.0}),
         "summary field 'query_count' must be an integer"),
        (json.dumps({**SUMMARY, "failure_count": False}),
         "summary field 'failure_count' must be an integer"),
        (json.dumps({**SUMMARY, "method": None}), "summary field 'method' must be a string"),
        (json.dumps({**SUMMARY, "setting": 5}), "summary field 'setting' must be a string"),
    ],
    ids=["number", "array", "string-rate", "nan-rate", "bool-rate", "float-count", "bool-count",
         "null-method", "int-setting"],
)
def test_load_summary_checks_the_type_of_every_field(tmp_path, text, message):
    (tmp_path / "summary.json").write_text(text, encoding="utf-8")
    with pytest.raises(SchemaError) as exc:
        load_summary(tmp_path)
    assert str(exc.value) == f"run {tmp_path}: {message}"
    (tmp_path / "summary.json").write_text(json.dumps(SUMMARY), encoding="utf-8")
    assert load_summary(tmp_path) == SUMMARY


def test_load_records_schema_errors(tmp_path):
    with pytest.raises(SchemaError) as exc:
        load_records(tmp_path)
    assert str(exc.value) == f"{tmp_path / 'per_query.jsonl'}: cannot read (No such file or directory)"
    (tmp_path / "per_query.jsonl").write_text('{"query_id": "q0"}\nnot json\n', encoding="utf-8")
    with pytest.raises(SchemaError, match="line 1: per-query record missing field 'returned'"):
        load_records(tmp_path)
    (tmp_path / "per_query.jsonl").write_text("not json\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="line 1"):
        load_records(tmp_path)
    (tmp_path / "per_query.jsonl").write_text('{"query_id": ' + "7" * 5000 + "}\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=r"per_query.jsonl: line 1: unreadable JSON \("):
        load_records(tmp_path)
    good = json.dumps(vars(ten_records()[0]))
    probes = [
        ({"calls": float("inf")}, "field 'calls' must be an integer"),
        ({"returned": "ab"}, "field 'returned' must be a list of strings"),
        ({"hit": 1.9}, "field 'hit' must be an integer"),
        ({"recall": "0.5"}, "field 'recall' must be a finite number"),
        ({"calls": True}, "field 'calls' must be an integer"),
        ({"trace": ["step"]}, "field 'trace' must be a list of objects"),
    ]
    for change, message in probes:
        record = json.dumps({**vars(ten_records()[0]), **change})
        (tmp_path / "per_query.jsonl").write_text(f"{good}\n{record}\n", encoding="utf-8")
        with pytest.raises(SchemaError) as exc:
            load_records(tmp_path)
        assert str(exc.value) == f"{tmp_path / 'per_query.jsonl'}: line 2: per-query record {message}"
    (tmp_path / "per_query.jsonl").write_text("[1]\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="line 1: per-query record is not a JSON object"):
        load_records(tmp_path)



def test_run_files_that_are_not_utf8_are_schema_errors(tmp_path):
    write_run(tmp_path, summarize(ten_records(), EvalConfig(method="taxonomy")), ten_records())
    for name, load in (("summary.json", load_summary), ("per_query.jsonl", load_records)):
        path = tmp_path / name
        lines = path.read_bytes().split(b"\n")
        lines[2] = b"\xff" + lines[2]
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(SchemaError, match=rf"^{re.escape(str(path))}: line 3: not UTF-8"):
            load(tmp_path)

def test_line_breaks_inside_strings_survive_the_run_files(tmp_path):
    """json.dumps leaves U+2028 and U+0085 raw; only a newline ends a record."""
    cfg = EvalConfig(method="taxonomy")
    records = ten_records()
    records[0].returned = ["svc\u2028x", "svc\x85y"]
    summary = summarize(records, cfg)
    write_run(tmp_path, summary, records)
    assert load_records(tmp_path) == records
    assert recompute_summary(tmp_path) == summary


def test_a_failed_write_run_replaces_neither_file(tmp_path):
    run_dir, summary, records = write_fixture_run(tmp_path)
    before = {name: (run_dir / name).read_bytes() for name in ("summary.json", "per_query.jsonl")}
    records[3].returned = ["bad \ud800"]
    with pytest.raises(DataError, match="per_query.jsonl: cannot write as UTF-8"):
        write_run(run_dir, summary, records)
    assert {name: (run_dir / name).read_bytes() for name in sorted(os.listdir(run_dir))} == before


any_text = st.text(
    st.one_of(st.characters(codec="utf-8"), st.sampled_from('"\\\x00\n\r\x0b\x0c\x1c\x85\u2028\u2029')),
    max_size=8,
)
trace_steps = st.builds(
    TraceStep, kind=st.sampled_from(["navigate", "select"]), node_id=any_text,
    options_shown=st.integers(0, 9), chosen=st.lists(st.integers(1, 9), max_size=3),
)
per_query_records = st.builds(
    PerQueryRecord,
    query_id=any_text,
    returned=st.lists(any_text, max_size=4),
    truth=st.lists(any_text, min_size=1, max_size=3),
    hit=st.integers(0, 1),
    recall=st.floats(0, 1),
    precision=st.floats(0, 1),
    calls=st.integers(0, 20),
    prompt_tokens=st.integers(0, 10_000),
    output_tokens=st.integers(0, 500),
    error=st.none() | any_text,
    flags=st.lists(any_text, max_size=3),
    trace=st.lists(trace_steps.map(lambda step: dict(vars(step))), max_size=3),
)


@given(records=st.lists(per_query_records, min_size=1, max_size=5))
def test_any_unicode_record_round_trips_through_the_run_files(records):
    summary = summarize(records, EvalConfig(method="taxonomy"))
    with tempfile.TemporaryDirectory() as run_dir:
        write_run(run_dir, summary, records)
        assert load_records(run_dir) == records
        assert recompute_summary(run_dir) == summary


# -- comparison -------------------------------------------------------------------


def seed_runs(tmp_path) -> list:
    specs = [
        ("taxonomy", "get_all", [record("q0", 1, 1.0, 0.5, 3, 900)]),
        ("pure-llm", "full", [record("q0", 1, 1.0, 0.25, 1, 60000)]),
        ("embed", "k=5", [record("q0", 0, 0.0, 0.0, 0, 0)]),
    ]
    dirs = []
    for method, setting, records in specs:
        cfg = EvalConfig(method=method, dataset="toolret", setting=setting)
        run_dir = tmp_path / method
        write_run(run_dir, summarize(records, cfg), records)
        dirs.append(run_dir)
    return dirs


def test_compare_sorts_and_footnotes(tmp_path):
    table = compare(seed_runs(tmp_path))
    assert [row["method"] for row in table.rows] == ["pure-llm", "taxonomy", "embed"]
    text = table.render_text()
    assert "prec(2nd)" in text
    assert text.splitlines()[-1] == (
        "precision is a secondary metric: benchmark ground truth is incomplete"
    )
    assert "taxonomy" in text and "60050.0" in text
    with pytest.raises(ConfigError, match="at least one run"):
        compare([])


def test_compare_to_csv(tmp_path):
    table = compare(seed_runs(tmp_path))
    out = tmp_path / "table.csv"
    table.to_csv(out)
    assert out.read_bytes() == (
        b"method,dataset,setting,query_count,failure_count,hit_rate,recall,precision,"
        b"tokens_per_query,calls_per_query\r\n"
        b"pure-llm,toolret,full,1,0,1.0,1.0,0.25,60050.0,1.0\r\n"
        b"taxonomy,toolret,get_all,1,0,1.0,1.0,0.5,950.0,3.0\r\n"
        b"embed,toolret,k=5,1,0,0.0,0.0,0.0,50.0,0.0\r\n"
    )


def test_summary_dataclass_round_trip():
    summary = Summary(
        method="m", dataset="d", setting="s", query_count=1, failure_count=0,
        hit_rate=1.0, recall=1.0, precision=1.0, tokens_per_query=10.0, calls_per_query=1.0,
    )
    payload = summary.to_dict()
    assert payload["query_count"] == 1
    assert payload["precision_is_secondary"] is True


ONESHOT_DESIGN = json.dumps({
    "categories": [
        {"name": "Work", "children": [{"name": "Docs", "children": [{"name": "Editors"}]}]},
        {"name": "Play", "children": [{"name": "Games"}]},
    ]
})


def test_generated_worlds_oneshot_trees_and_eval_results_die_on_their_last_reference():
    """With the cyclic collector off, a tree or registry that is part of a
    reference cycle outlives its last reference; each must be freed at once."""
    gc.disable()
    try:
        taxonomy, registry = make_balanced_taxonomy(3, 2, 2)
        world = [weakref.ref(taxonomy), weakref.ref(registry)]
        del taxonomy, registry

        gateway = LlmGateway(chat_backend=MockChatBackend(rules=[
            ScriptRule(pattern=".*", label="oneshot.design", reply=ONESHOT_DESIGN),
            ScriptRule(pattern=".*", label="oneshot.classify", reply="Work > Docs > Editors"),
        ]))
        services = Registry([Service(id=s, name=s, description="edits") for s in ("e1", "e2")])
        taxonomy, report = build_oneshot(services, "base", BuildConfig(), gateway)
        assert taxonomy.node("root/work/docs/editors").service_ids == ["e1", "e2"]
        oneshot = [weakref.ref(taxonomy), weakref.ref(services)]
        del taxonomy, services, report, gateway

        taxonomy, registry = make_balanced_taxonomy(3, 2, 2)
        gateway = LlmGateway(workers=2, chat_backend=MockChatBackend(rules=[
            ScriptRule(pattern=".*", label="search.navigate", reply="1"),
            ScriptRule(pattern=".*", label="search.select", reply="1"),
        ]))
        queries = [QueryCase(f"q{i}", f"need {i}", frozenset({"svc-1-1-01"})) for i in range(3)]
        summary, records = evaluate(
            lambda q: retrieve(q.text, taxonomy, registry, gateway, SearchConfig()),
            queries, EvalConfig(method="taxonomy", workers=2),
        )
        assert summary.recall == 1.0 and len(records[0].trace) == 3
        evaluated = [weakref.ref(taxonomy), weakref.ref(registry)]
        del taxonomy, registry, gateway, summary, records

        alive = [ref() for ref in world + oneshot + evaluated]
        assert alive == [None] * 6
    finally:
        gc.enable()
