"""Gateway behavior: parsing, retries, re-ask policy, metering, caching."""

from __future__ import annotations

import gc
import itertools
import json
import re
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import RecordingChatBackend, RecordingEmbeddingBackend
from taxonav.errors import (
    DataError,
    GatewayError,
    MalformedReplyError,
    ReplyParseError,
    TransportError,
)
from taxonav import gateway as gateway_module
from taxonav.eval_harness import EvalConfig, evaluate
from taxonav.registry import QueryCase
from taxonav.search import RetrievalResult
from taxonav.gateway import (
    EMBED_BATCH_SIZE,
    STRICT_REPLY_SUFFIX,
    ChatRequest,
    ChatResponse,
    HttpBackend,
    LlmGateway,
    MockChatBackend,
    MockEmbeddingBackend,
    ScriptRule,
    UsageMeter,
    estimate_tokens,
    extract_json_object,
    l2_normalize,
    metered,
    parse_index_list,
)

SYS = "You are a router."
USER = "Pick options.\n1. a\n2. b"


# -- parsing -------------------------------------------------------------------


def test_parse_index_list_basic():
    assert parse_index_list("1, 3", 5) == ({1, 3}, 0)
    assert parse_index_list("I would pick options 2 and 4.", 4) == ({2, 4}, 0)
    assert parse_index_list("[1][2]", 2) == ({1, 2}, 0)
    assert parse_index_list("2, 2, 2", 3) == ({2}, 0)


def test_parse_index_list_drops_out_of_range():
    assert parse_index_list("0, 5", 4) == (set(), 2)
    assert parse_index_list("1, 9", 4) == ({1}, 1)


def test_parse_index_list_no_digits_raises():
    with pytest.raises(ReplyParseError, match="^no indices found in reply 'none of these'$"):
        parse_index_list("none of these", 4)


def test_parse_index_list_rejects_empty_option_set():
    with pytest.raises(ValueError):
        parse_index_list("1", 0)


@given(
    n=st.integers(min_value=1, max_value=40),
    data=st.data(),
)
def test_parse_index_list_round_trip(n, data):
    chosen = data.draw(st.sets(st.integers(min_value=1, max_value=n), min_size=1))
    text = ", ".join(str(i) for i in sorted(chosen))
    assert parse_index_list(text, n) == (chosen, 0)


def test_estimate_tokens():
    assert estimate_tokens("") == 0
    assert estimate_tokens("abcd") == 1
    assert estimate_tokens("abcde") == 2


@given(st.text(max_size=200), st.text(max_size=50))
def test_estimate_tokens_monotone_under_extension(a, b):
    assert estimate_tokens(a + b) >= estimate_tokens(a)


@given(st.lists(st.text(max_size=60), max_size=4))
def test_estimate_tokens_of_several_texts_counts_their_concatenation(texts):
    assert estimate_tokens(*texts) == estimate_tokens("".join(texts))


def test_extract_json_object_tolerates_fences_and_prose():
    assert extract_json_object('```json\n{"a": 1}\n```') == {"a": 1}
    assert extract_json_object('Sure! {"a": {"b": 2}} hope that helps') == {"a": {"b": 2}}
    assert extract_json_object('{"a": 1}.') == {"a": 1}  # the object ends at its last brace


def test_extract_json_object_rejects_junk():
    with pytest.raises(MalformedReplyError):
        extract_json_object("no json here")
    with pytest.raises(MalformedReplyError):
        extract_json_object("{broken")
    with pytest.raises(MalformedReplyError):
        extract_json_object("[1, 2]")


def test_parse_index_list_drops_huge_numbers_unconverted():
    # int() of a 5,000-digit string would hit the int-string digit limit
    assert parse_index_list("pick " + "9" * 5000, 5) == (set(), 1)
    assert parse_index_list("0" * 5000 + "3, 12", 5) == ({3}, 1)


def test_extract_json_object_huge_integer_is_a_parse_error():
    # json.loads raises a plain ValueError past the int-string digit limit
    with pytest.raises(ReplyParseError, match="unreadable JSON"):
        extract_json_object('{"a": ' + "1" * 5000 + "}")


def test_extract_json_object_deep_nesting_is_a_malformed_reply():
    with pytest.raises(MalformedReplyError, match="nests too deeply"):
        extract_json_object('{"a": ' + "[" * 100000 + "]" * 100000 + "}")


DIGIT_HEAVY = st.text(alphabet=st.sampled_from("0123456789 ,[]x\u0663"))


@given(st.one_of(st.text(), DIGIT_HEAVY), st.integers(min_value=1, max_value=50))
def test_parse_index_list_returns_in_range_indices_or_raises(text, n):
    try:
        chosen, dropped = parse_index_list(text, n)
    except ReplyParseError:  # only a reply with no digits at all
        assert not re.search(r"\d", text)
        return
    assert all(1 <= idx <= n for idx in chosen)
    assert dropped >= 0


@given(st.one_of(st.text(), st.text(alphabet=st.sampled_from('{}[]":,0123456789ab \n`'))))
def test_extract_json_object_returns_a_dict_or_raises_malformed(text):
    try:
        obj = extract_json_object(text)
    except MalformedReplyError:
        return
    assert isinstance(obj, dict)


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@given(st.dictionaries(st.text(), JSON_VALUES, max_size=5))
def test_fenced_json_object_round_trips(obj):
    assert extract_json_object(f"```json\n{json.dumps(obj)}\n```") == obj


def test_l2_normalize():
    vec = l2_normalize([3.0, 4.0])
    assert np.allclose(vec, [0.6, 0.8])
    with pytest.raises(GatewayError):
        l2_normalize([0.0, 0.0])


@pytest.mark.parametrize(
    "values",
    [[1, "x"], [float("nan"), 1.0], [float("inf"), 1.0], [[1.0], [2.0]], 3.0, None, {"a": 1}],
    ids=["string", "nan", "inf", "nested", "scalar", "null", "object"],
)
def test_l2_normalize_rejects_anything_but_finite_numbers(values):
    with pytest.raises(MalformedReplyError, match="embedding is not a list of"):
        l2_normalize(values)


@pytest.mark.parametrize(
    "reply, message",
    [
        ("{oops}", "reply: invalid JSON (Expecting property name enclosed in double quotes)"),
        ('{"a": ' + "7" * 5000 + "}", "reply: unreadable JSON ("),
        ('{"a": ' + "[" * 100000 + "]" * 100000 + "}", "reply: JSON nests too deeply"),
    ],
    ids=["invalid", "huge-integer", "deep-nesting"],
)
def test_extract_json_object_messages_share_the_file_readers_shape(reply, message):
    with pytest.raises(ReplyParseError) as exc:
        extract_json_object(reply)
    assert str(exc.value).startswith(message)


def test_chat_request_pins_temperature():
    # a request carries no temperature: the HTTP body always sends 0
    with pytest.raises(TypeError, match="temperature"):
        ChatRequest(system_prompt=SYS, user_prompt=USER, model="m", temperature=0.7)
    with pytest.raises(ValueError, match="non-empty"):
        ChatRequest(system_prompt="", user_prompt=USER, model="m")


# -- metering --------------------------------------------------------------


def test_usage_meter_and_delta():
    meter = UsageMeter()
    meter.record("a", 10, 2)
    meter.record("a", 5, 1)
    meter.record("b", 7, 3)
    snap = meter.snapshot()
    assert snap["total_calls"] == 3
    assert snap["total_prompt_tokens"] == 22
    assert snap["labels"]["a"] == {"calls": 2, "prompt_tokens": 15, "output_tokens": 3}

    # a metered() scope counts only the calls made inside it
    backend = RecordingChatBackend(default_reply="1")
    gw = LlmGateway(chat_backend=backend)
    gw.chat(SYS, USER, label="a")
    with metered() as usage:
        gw.chat(SYS, USER, label="b")
    delta = usage.snapshot()
    assert delta["total_calls"] == 1
    assert list(delta["labels"]) == ["b"]
    assert [call.label for call in backend.transcript] == ["a", "b"]


def test_meter_counts_every_mock_call(oracle_gateway, world200):
    # metering completeness: total calls equals the transcript length
    from taxonav.builder import BuildConfig, TaxonomyBuilder

    builder = TaxonomyBuilder(oracle_gateway, BuildConfig())
    with metered() as usage:
        builder.classify_services(list(world200.registry)[:10], _drafts())
    snap = usage.snapshot()
    assert snap["total_calls"] == len(oracle_gateway.chat_backend.transcript) == 10


def _drafts():
    from taxonav.builder import CategoryDraft

    return [
        CategoryDraft(name="Travel", description="d", boundary="b", axis="functional-domain"),
        CategoryDraft(name="Finance", description="d", boundary="b", axis="functional-domain"),
    ]


# -- mock backend ------------------------------------------------------------


def test_script_rules_match_label_and_prompt():
    backend = RecordingChatBackend(
        rules=[
            ScriptRule(pattern="Pick", label="nav", reply="1"),
            ScriptRule(pattern=".*", reply="2"),
        ]
    )
    req = ChatRequest(system_prompt=SYS, user_prompt=USER, model="m")
    assert backend.complete(req, "nav").text == "1"
    assert backend.complete(req, "other").text == "2"
    assert len(backend.transcript) == 2


def test_script_rule_reply_list_sticks_at_last():
    backend = MockChatBackend(rules=[ScriptRule(pattern=".*", reply=["a", "b"])])
    req = ChatRequest(system_prompt=SYS, user_prompt=USER, model="m")
    assert [backend.complete(req, "x").text for _ in range(3)] == ["a", "b", "b"]


def test_mock_backend_without_match_raises():
    backend = MockChatBackend()
    req = ChatRequest(system_prompt=SYS, user_prompt=USER, model="m")
    with pytest.raises(MalformedReplyError, match="no scripted reply"):
        backend.complete(req, "x")


def test_from_script_dict_and_token_overrides():
    # from_script builds the class it is called on, so a test can record
    backend = RecordingChatBackend.from_script(
        {"rules": [{"pattern": "Pick", "reply": "1", "prompt_tokens": 100, "output_tokens": 7}]}
    )
    req = ChatRequest(system_prompt=SYS, user_prompt=USER, model="m")
    resp = backend.complete(req, "x")
    assert (resp.prompt_tokens, resp.output_tokens) == (100, 7)
    assert backend.transcript == [("x", req, "1")]


def test_mock_backend_memory_does_not_grow_with_calls():
    gw = LlmGateway(chat_backend=MockChatBackend(oracle=lambda label, request: "1, 2"))

    def select(n):
        for i in range(n):
            gw.select_indices(SYS, f"{USER}\n3. option {i}", label="x", n_options=3)

    gc.collect()
    tracemalloc.start()
    try:
        select(200)  # first-call caches and meter buckets count as the base
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        select(2000)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024


# -- gateway chat policies ----------------------------------------------------


class FlakyBackend:
    """Raises TransportError for the first n attempts, then succeeds."""

    def __init__(self, failures: int):
        self.failures = failures
        self.attempts = 0

    def complete(self, request, label):
        self.attempts += 1
        if self.attempts <= self.failures:
            raise TransportError("boom")
        return ChatResponse(text="1", prompt_tokens=1, output_tokens=1)


def test_chat_retries_then_succeeds():
    backend = FlakyBackend(failures=2)
    gw = LlmGateway(chat_backend=backend, retries=3, retry_backoff=0.0)
    assert gw.chat(SYS, USER, label="x").text == "1"
    assert backend.attempts == 3


def test_chat_retry_exhaustion_counts_attempts():
    backend = FlakyBackend(failures=99)
    gw = LlmGateway(chat_backend=backend, retries=3, retry_backoff=0.0)
    with metered() as usage, pytest.raises(TransportError, match="after 3 attempts"):
        gw.chat(SYS, USER, label="x")
    assert backend.attempts == 3
    assert usage.snapshot()["total_calls"] == 0


def test_select_indices_reasks_once_with_strict_suffix():
    backend = RecordingChatBackend(rules=[ScriptRule(pattern=".*", reply=["garbage", "2"])])
    gw = LlmGateway(chat_backend=backend)
    sel = gw.select_indices(SYS, USER, label="x", n_options=3)
    assert sel.indices == (2,) and len(backend.transcript) == 2 and not sel.parse_failed
    assert backend.transcript[1].request.user_prompt.endswith(STRICT_REPLY_SUFFIX)


def test_select_indices_degrades_to_empty():
    backend = RecordingChatBackend(rules=[ScriptRule(pattern=".*", reply="still garbage")])
    gw = LlmGateway(chat_backend=backend)
    sel = gw.select_indices(SYS, USER, label="x", n_options=3)
    assert sel.indices == () and sel.parse_failed and len(backend.transcript) == 2


def test_select_indices_single_call_on_success():
    backend = RecordingChatBackend(rules=[ScriptRule(pattern=".*", reply="1, 2")])
    gw = LlmGateway(chat_backend=backend)
    sel = gw.select_indices(SYS, USER, label="x", n_options=3)
    assert sel.indices == (1, 2) and len(backend.transcript) == 1


def test_chat_json_reask_then_none():
    backend = MockChatBackend(rules=[ScriptRule(pattern=".*", reply=["nope", '{"a": 1}'])])
    gw = LlmGateway(chat_backend=backend)
    assert gw.chat_json(SYS, USER, label="x") == {"a": 1}

    backend = RecordingChatBackend(rules=[ScriptRule(pattern=".*", reply="nope")])
    gw = LlmGateway(chat_backend=backend)
    assert gw.chat_json(SYS, USER, label="x") is None
    assert len(backend.transcript) == 2


def test_ask_reasks_once_with_the_reask_suffix():
    backend = RecordingChatBackend(rules=[ScriptRule(pattern=".*", reply=["bad", "good"])])
    gw = LlmGateway(chat_backend=backend)
    errors = []

    def parse(text):
        if text != "good":
            raise ReplyParseError(f"not good: {text}")
        return text.upper()

    def reask(exc):
        errors.append(str(exc))
        return "\n\nSay good."

    assert gw.ask(SYS, USER, label="x", parse=parse, reask=reask) == "GOOD"
    assert errors == ["not good: bad"]
    assert [c.request.user_prompt for c in backend.transcript] == [USER, USER + "\n\nSay good."]


def test_ask_raises_the_second_parse_error_caused_by_the_first():
    backend = RecordingChatBackend(rules=[ScriptRule(pattern=".*", reply=["one", "two", "three"])])
    gw = LlmGateway(chat_backend=backend)

    def parse(text):
        raise ReplyParseError(text)

    with pytest.raises(ReplyParseError, match="two") as info:
        gw.ask(SYS, USER, label="x", parse=parse, reask=lambda _: "!")
    assert str(info.value.__cause__) == "one"
    assert len(backend.transcript) == 2


def test_backend_errors_are_neither_reasked_nor_swallowed():
    # a backend that cannot answer is not a bad reply: no re-ask, no fallback
    gw = LlmGateway(chat_backend=MockChatBackend())
    with pytest.raises(MalformedReplyError, match="no scripted reply"):
        gw.chat_json(SYS, USER, label="x")
    with pytest.raises(MalformedReplyError, match="no scripted reply"):
        gw.select_indices(SYS, USER, label="x", n_options=3)

    backend = RecordingChatBackend(default_reply="1")
    gw = LlmGateway(chat_backend=backend)
    with pytest.raises(ValueError, match="n_options"):  # not a reply error
        gw.select_indices(SYS, USER, label="x", n_options=0)
    assert len(backend.transcript) == 1


def test_meter_is_not_a_constructor_option():
    with pytest.raises(TypeError):
        LlmGateway(meter=UsageMeter())


def test_metered_scopes_nest_and_follow_pool_threads():
    backend = RecordingChatBackend(default_reply="1")
    gw = LlmGateway(chat_backend=backend, workers=4)
    with metered() as outer:
        gw.chat(SYS, USER, label="a")
        with metered() as inner:
            gw.run_parallel(lambda _: gw.chat(SYS, USER, label="b"), range(10))
    gw.chat(SYS, USER, label="c")
    assert {k: b["calls"] for k, b in outer.snapshot()["labels"].items()} == {"a": 1, "b": 10}
    assert {k: b["calls"] for k, b in inner.snapshot()["labels"].items()} == {"b": 10}
    assert len(backend.transcript) == 12


def test_metered_scopes_count_calls_made_on_helper_threads():
    backend = RecordingChatBackend(default_reply="1")
    gw = LlmGateway(chat_backend=backend, workers=3)
    together = threading.Barrier(3, timeout=10)
    item_meters: list[UsageMeter] = []

    def call(_):
        together.wait()  # three items at once: the caller's and two helpers'
        with metered() as mine:
            gw.chat(SYS, USER, label="x")
        item_meters.append(mine)
        return threading.current_thread()

    with metered() as outer:
        threads = gw.run_parallel(call, range(3))
    helpers = set(threads) - {threading.current_thread()}
    assert len(helpers) == 2
    assert outer.snapshot()["total_calls"] == 3
    assert [meter.snapshot()["total_calls"] for meter in item_meters] == [1, 1, 1]


def test_concurrent_scopes_on_one_gateway_count_their_own_calls():
    gw = LlmGateway(chat_backend=MockChatBackend(default_reply="1"), workers=3)
    start = threading.Barrier(4)
    totals = {}

    def work(n):
        with metered() as usage:
            start.wait()
            gw.run_parallel(lambda _: gw.chat(SYS, USER, label="x"), range(5 * n))
            gw.chat(SYS, USER, label="x")
        totals[n] = usage.snapshot()["total_calls"]

    threads = [threading.Thread(target=work, args=(n,)) for n in (1, 2, 3, 4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert totals == {1: 6, 2: 11, 3: 16, 4: 21}


def test_thinking_disable_flag_follows_model_pattern():
    backend = RecordingChatBackend(default_reply="1")
    gw = LlmGateway(chat_backend=backend, chat_model="prov-v4-large")
    gw.chat(SYS, USER, label="x")
    assert backend.transcript[0].request.thinking_disabled is True

    gw = LlmGateway(chat_backend=backend, chat_model="other-model")
    gw.chat(SYS, USER, label="x")
    assert backend.transcript[1].request.thinking_disabled is False


# -- embeddings ---------------------------------------------------------------


def test_embed_dedupes_within_batch():
    backend = RecordingEmbeddingBackend()
    gw = LlmGateway(embedding_backend=backend)
    out = gw.embed(["a", "b", "a"])
    assert len(out) == 3
    assert backend.batches == [["a", "b"]]
    assert np.allclose(out[0], out[2])


def test_embed_sends_misses_in_fixed_size_batches(monkeypatch):
    texts = [f"text {i}" for i in range(600)]
    backend = RecordingEmbeddingBackend()
    out = LlmGateway(embedding_backend=backend).embed(texts + texts[:5])
    chunks = [texts[i : i + EMBED_BATCH_SIZE] for i in range(0, 600, EMBED_BATCH_SIZE)]
    assert len(chunks) > 1
    assert sorted(backend.batches) == sorted(chunks)  # the batches may finish in any order

    monkeypatch.setattr(gateway_module, "EMBED_BATCH_SIZE", 10_000)
    single = RecordingEmbeddingBackend()
    expected = LlmGateway(embedding_backend=single).embed(texts + texts[:5])
    assert single.batches == [texts]
    assert all(np.array_equal(a, b) for a, b in zip(out, expected, strict=True))


def test_embed_batches_are_in_flight_together():
    texts = [f"text {i}" for i in range(2 * EMBED_BATCH_SIZE + 1)]
    all_batches_waiting = threading.Barrier(3, timeout=5)  # broken if the batches run in turn

    class Meeting(RecordingEmbeddingBackend):
        def embed(self, texts, model):
            all_batches_waiting.wait()
            return super().embed(texts, model)

    backend = Meeting()
    gw = LlmGateway(embedding_backend=backend, workers=3)
    assert len(gw.embed(texts)) == len(texts)
    assert len(backend.batches) == 3


def test_embed_caches_the_batches_that_succeed_when_one_fails():
    texts = [f"text {i}" for i in range(2 * EMBED_BATCH_SIZE)]

    class FailsOnTheLast(MockEmbeddingBackend):
        def embed(self, texts_, model):
            if texts[-1] in texts_:
                raise MalformedReplyError("bad batch")
            return super().embed(texts_, model)

    gw = LlmGateway(embedding_backend=FailsOnTheLast())
    with pytest.raises(MalformedReplyError, match="bad batch"):
        gw.embed(texts)
    gw.embedding_backend = backend = RecordingEmbeddingBackend()
    gw.embed(texts)
    assert backend.batches == [texts[EMBED_BATCH_SIZE:]]


def test_embed_checks_dimensions_across_batches():
    texts = [f"text {i}" for i in range(EMBED_BATCH_SIZE + 1)]
    backend = RecordingEmbeddingBackend(vectors={texts[-1]: [1.0, 2.0]})  # the rest get 8 numbers
    gw = LlmGateway(embedding_backend=backend)
    for _ in range(2):  # the second call finds every vector cached and still refuses
        with pytest.raises(MalformedReplyError, match=r"inconsistent embedding dimensions \[2, 8\]"):
            gw.embed(texts)
    assert len(backend.batches) == 2


def test_embed_memory_and_disk_cache(tmp_path, caplog):
    backend = RecordingEmbeddingBackend()
    gw = LlmGateway(embedding_backend=backend, cache_dir=tmp_path)
    gw.embed(["a", "b"])
    gw.embed(["a", "b"])
    assert len(backend.batches) == 1
    assert caplog.records == []  # a missing entry is a plain miss, not an unreadable one

    fresh_backend = RecordingEmbeddingBackend()
    gw2 = LlmGateway(embedding_backend=fresh_backend, cache_dir=tmp_path)
    out = gw2.embed(["a"])
    assert fresh_backend.batches == []
    assert np.isclose(np.linalg.norm(out[0]), 1.0)


@pytest.mark.parametrize("keep_bytes", [0, 60, 130])
def test_truncated_cache_entry_is_a_cache_miss(tmp_path, keep_bytes):
    gw = LlmGateway(embedding_backend=MockEmbeddingBackend(), cache_dir=tmp_path)
    expected = gw.embed(["a"])[0]
    (entry,) = tmp_path.iterdir()
    entry.write_bytes(entry.read_bytes()[:keep_bytes])  # an interrupted write

    backend = RecordingEmbeddingBackend()
    out = LlmGateway(embedding_backend=backend, cache_dir=tmp_path).embed(["a"])
    assert backend.batches == [["a"]]
    assert np.allclose(out[0], expected)
    assert [p.name for p in tmp_path.iterdir()] == [entry.name]  # rewritten, no temp file
    assert np.allclose(np.load(entry), expected)


def test_mock_embed_builds_a_fallback_only_for_an_unscripted_text(monkeypatch):
    backend = MockEmbeddingBackend(vectors={"a": [1.0] * 8, "b": [2.0] * 8})
    fallback, made = backend._fallback, []
    monkeypatch.setattr(backend, "_fallback", lambda text: made.append(text) or fallback(text))
    assert backend.embed(["a", "b", "a"], "m") == [[1.0] * 8, [2.0] * 8, [1.0] * 8]
    assert made == []
    assert backend.embed(["a", "c"], "m")[1] == fallback("c")
    assert made == ["c"]


def test_embed_vectors_are_unit_norm():
    gw = LlmGateway(embedding_backend=MockEmbeddingBackend(vectors={"x": [3.0, 0.0, 4.0]}))
    vec = gw.embed(["x"])[0]
    assert np.isclose(np.linalg.norm(vec), 1.0)
    assert np.allclose(vec, [0.6, 0.0, 0.8])


@given(st.lists(st.text(min_size=1, max_size=30), min_size=1, max_size=8, unique=True))
def test_embed_norm_property(texts):
    gw = LlmGateway(embedding_backend=MockEmbeddingBackend())
    for ev in gw.embed(texts):
        assert np.isclose(np.linalg.norm(ev), 1.0)


def test_a_gateway_without_a_backend_for_a_role_refuses_its_calls():
    with pytest.raises(GatewayError, match="^no chat backend configured$"):
        LlmGateway(embedding_backend=MockEmbeddingBackend()).chat(SYS, USER, label="x")
    with pytest.raises(GatewayError, match="^no embedding backend configured$"):
        LlmGateway(chat_backend=MockChatBackend(default_reply="1")).embed(["a"])


def test_embed_reply_with_the_wrong_vector_count_is_malformed():
    class DropsOne(MockEmbeddingBackend):
        def embed(self, texts, model):
            return super().embed(texts, model)[1:]

    with pytest.raises(
        MalformedReplyError, match="^embedding backend returned 1 vectors for 2 texts$"
    ):
        LlmGateway(embedding_backend=DropsOne()).embed(["a", "b"])


def test_a_failed_cache_write_names_its_entry_and_leaves_no_temporary_file(tmp_path, monkeypatch):
    gw = LlmGateway(embedding_backend=MockEmbeddingBackend(), cache_dir=tmp_path)
    entry = tmp_path / f"{gw._cache_key(gw.embedding_model, 'a')}.npy"
    (entry / "occupied").mkdir(parents=True)  # a directory in the entry's place
    with pytest.raises(DataError) as exc:
        gw.embed(["a"])
    assert str(exc.value) == f"{entry}: cannot write (Is a directory)"
    assert [p.name for p in tmp_path.iterdir()] == [entry.name]

    def fails(fh, vec):  # a failure other than OSError passes through unchanged
        raise ValueError("cannot serialize")

    monkeypatch.setattr(np, "save", fails)
    with pytest.raises(ValueError, match="^cannot serialize$"):
        gw.embed(["b"])
    assert [p.name for p in tmp_path.iterdir()] == [entry.name]


def test_embed_dimension_mismatch_raises():
    class Lopsided:
        def embed(self, texts, model):
            return [[1.0, 0.0], [1.0, 0.0, 0.0]][: len(texts)]

    gw = LlmGateway(embedding_backend=Lopsided())
    with pytest.raises(MalformedReplyError, match="inconsistent embedding dimensions"):
        gw.embed(["a", "b"])


# -- http backend (stub session) -----------------------------------------------


class StubResponse:
    def __init__(
        self, status_code: int, payload: dict | None = None, text: str = "", headers: dict | None = None
    ):
        self.status_code = status_code
        self.headers = headers or {}
        self._payload = payload or {}
        self.text = text or json.dumps(self._payload)

    def json(self):
        return self._payload


class StubSession:
    def __init__(self, response: StubResponse):
        self.response = response
        self.requests: list[dict] = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers})
        return self.response


def test_http_chat_body_and_headers():
    payload = {
        "choices": [{"message": {"content": "2"}}],
        "usage": {"prompt_tokens": 11, "completion_tokens": 3},
    }
    session = StubSession(StubResponse(200, payload))
    backend = HttpBackend("http://llm.local/v1", api_key="sk-test", session=session)
    req = ChatRequest(system_prompt=SYS, user_prompt=USER, model="m-v4", thinking_disabled=True)
    resp = backend.complete(req, "x")
    assert resp.text == "2" and resp.prompt_tokens == 11 and resp.output_tokens == 3

    body = session.requests[0]["json"]
    assert body["temperature"] == 0
    assert body["thinking"] == {"type": "disabled"}
    assert body["messages"][0]["role"] == "system"
    assert session.requests[0]["headers"]["Authorization"] == "Bearer sk-test"
    assert session.requests[0]["url"] == "http://llm.local/v1/chat/completions"


def test_http_chat_missing_usage_falls_back_to_estimates():
    payload = {"choices": [{"message": {"content": "four"}}]}
    backend = HttpBackend("http://x", session=StubSession(StubResponse(200, payload)))
    req = ChatRequest(system_prompt=SYS, user_prompt=USER, model="m")
    resp = backend.complete(req, "x")
    assert resp.prompt_tokens == estimate_tokens(SYS + USER)
    assert resp.output_tokens == estimate_tokens("four")


class UndecodableResponse(StubResponse):
    """A 200 reply whose body nests past the recursion limit."""

    def __init__(self):
        super().__init__(200, text="[" * 100_000)

    def json(self):
        raise RecursionError("maximum recursion depth exceeded")


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"choices": [{"message": {"content": None}}]}, "content is not a string: None"),
        ({"choices": [{"message": {"content": 5}}]}, "content is not a string: 5"),
        ({"choices": [{"message": {"content": "1"}}], "usage": {"prompt_tokens": "abc"}},
         "usage 'prompt_tokens' is not a token count: 'abc'"),
        ({"choices": [{"message": {"content": "1"}}], "usage": {"completion_tokens": -5}},
         "usage 'completion_tokens' is not a token count: -5"),
        ({"choices": [{"message": {"content": "1"}}], "usage": {"prompt_tokens": 2.5}},
         "usage 'prompt_tokens' is not a token count: 2.5"),
        ({"choices": [{"message": {"content": "1"}}], "usage": {"prompt_tokens": True}},
         "usage 'prompt_tokens' is not a token count: True"),
        ({"choices": [{"message": {"content": "1"}}], "usage": [3, 1]},
         "usage is not an object: [3, 1]"),
        ({"choices": []}, "unexpected chat response shape"),
        (None, "unexpected chat response shape: maximum recursion depth"),
    ],
    ids=["null-content", "int-content", "string-tokens", "negative-tokens", "float-tokens",
         "bool-tokens", "list-usage", "no-choices", "deep-nesting"],
)
def test_http_chat_rejects_a_malformed_reply(payload, message):
    response = UndecodableResponse() if payload is None else StubResponse(200, payload)
    backend = HttpBackend("http://x", session=StubSession(response))
    req = ChatRequest(system_prompt=SYS, user_prompt=USER, model="m")
    with pytest.raises(MalformedReplyError, match=re.escape(message)):
        backend.complete(req, "x")


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"data": [{"embedding": [1, "x"]}]}, "embedding is not a list of numbers"),
        ({"data": [{"embedding": [float("nan"), 1.0]}]}, "embedding is not a list of finite numbers"),
        ({"data": [{"embedding": None}]}, "embedding is not a list of finite numbers"),
        ({"data": "abc"}, "unexpected embedding response shape"),
        (None, "unexpected embedding response shape: maximum recursion depth"),
    ],
    ids=["string-value", "nan-value", "null-embedding", "string-data", "deep-nesting"],
)
def test_http_embedding_rejects_a_malformed_reply(payload, message):
    response = UndecodableResponse() if payload is None else StubResponse(200, payload)
    gw = LlmGateway(embedding_backend=HttpBackend("http://x", session=StubSession(response)))
    with pytest.raises(MalformedReplyError, match=message):
        gw.embed(["a"])


def test_a_malformed_http_reply_fails_one_query_not_the_eval():
    replies = iter([None, "ok"])

    class OneBadReply(StubSession):
        def post(self, url, json=None, headers=None, timeout=None):
            return StubResponse(200, {"choices": [{"message": {"content": next(replies)}}]})

    gw = LlmGateway(chat_backend=HttpBackend("http://x", session=OneBadReply(None)), workers=1)
    queries = [QueryCase(qid, text, frozenset({"s1"})) for qid, text in (("q1", "a"), ("q2", "b"))]

    def retrieve(case):
        return RetrievalResult(service_ids=[gw.chat(SYS, case.text, label="x").text])

    summary, records = evaluate(retrieve, queries, EvalConfig(method="m", workers=1))
    assert [r.error for r in records] == ["chat reply content is not a string: None", None]
    assert records[1].returned == ["ok"]
    assert summary.failure_count == 1


def test_http_chat_status_mapping():
    req = ChatRequest(system_prompt=SYS, user_prompt=USER, model="m")
    for status in (503, 429, 408):
        backend = HttpBackend("http://x", session=StubSession(StubResponse(status)))
        with pytest.raises(TransportError, match=str(status)):
            backend.complete(req, "x")
    backend = HttpBackend("http://x", session=StubSession(StubResponse(404)))
    with pytest.raises(MalformedReplyError):
        backend.complete(req, "x")


def test_http_embedding_status_mapping():
    for status in (503, 429, 408):
        backend = HttpBackend("http://x", session=StubSession(StubResponse(status)))
        with pytest.raises(TransportError, match=str(status)):
            backend.embed(["a"], "emb")
    backend = HttpBackend("http://x", session=StubSession(StubResponse(404)))
    with pytest.raises(MalformedReplyError):
        backend.embed(["a"], "emb")


def test_rate_limited_chat_is_retried_by_the_gateway():
    payload = {"choices": [{"message": {"content": "2"}}]}

    class Flaky(StubSession):
        def post(self, url, json=None, headers=None, timeout=None):
            self.requests.append({"url": url})
            return StubResponse(429) if len(self.requests) == 1 else StubResponse(200, payload)

    session = Flaky(None)
    gw = LlmGateway(chat_backend=HttpBackend("http://x", session=session), retry_backoff=0)
    assert gw.chat(SYS, USER, label="x").text == "2"
    assert len(session.requests) == 2


def test_http_backends_carry_numeric_retry_after():
    chat_req = ChatRequest(system_prompt=SYS, user_prompt=USER, model="m")
    cases = [
        (429, {"Retry-After": "7"}, 7.0),
        (503, {"Retry-After": "0.5"}, 0.5),
        (408, {}, None),
        (429, {"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}, None),
        (429, {"Retry-After": "-3"}, None),
        (429, {"Retry-After": "86400"}, 60.0),
    ]
    for status, headers, expected in cases:
        session = StubSession(StubResponse(status, headers=headers))
        calls = (
            lambda: HttpBackend("http://x", session=session).complete(chat_req, "x"),
            lambda: HttpBackend("http://x", session=session).embed(["a"], "emb"),
        )
        for call in calls:
            with pytest.raises(TransportError) as info:
                call()
            assert info.value.retry_after == expected, (status, headers)


def _sleep_recorder(monkeypatch, gw):
    """Replaces time.sleep with a recorder that also notes whether a
    permit was free while the gateway slept."""
    sleeps: list[tuple[float, bool]] = []

    def record(seconds):
        free = gw._permits.acquire(blocking=False)
        if free:
            gw._permits.release()
        sleeps.append((seconds, free))

    monkeypatch.setattr(time, "sleep", record)
    return sleeps


def test_gateway_sleeps_the_longer_of_backoff_and_retry_after(monkeypatch):
    payload = {"choices": [{"message": {"content": "2"}}]}
    for retry_after, backoff, expected in (("3", 0.5, 3.0), ("0.1", 0.5, 0.5), (None, 0.25, 0.25)):
        headers = {} if retry_after is None else {"Retry-After": retry_after}

        class RateLimited(StubSession):
            def post(self, url, json=None, headers=None, timeout=None, _h=headers):
                self.requests.append({"url": url})
                if len(self.requests) == 1:
                    return StubResponse(429, headers=_h)
                return StubResponse(200, payload)

        session = RateLimited(None)
        gw = LlmGateway(
            chat_backend=HttpBackend("http://x", session=session),
            retry_backoff=backoff,
            workers=1,
        )
        sleeps = _sleep_recorder(monkeypatch, gw)
        assert gw.chat(SYS, USER, label="x").text == "2"
        assert sleeps == [(expected, True)]


@pytest.mark.parametrize("backoff", [1.0, float("inf")])
def test_no_retry_wait_exceeds_the_cap(monkeypatch, backoff):
    """Past attempt 1023 the exponential backoff no longer fits a float."""
    backend = FlakyBackend(failures=10**9)
    gw = LlmGateway(chat_backend=backend, retries=2000, retry_backoff=backoff, workers=1)
    sleeps = _sleep_recorder(monkeypatch, gw)
    with pytest.raises(TransportError, match="after 2000 attempts"):
        gw.chat(SYS, USER, label="x")
    assert backend.attempts == 2000
    assert len(sleeps) == 1999
    assert all(0 < seconds <= gateway_module.MAX_RETRY_AFTER_S for seconds, _ in sleeps)
    assert sleeps[-1][0] == gateway_module.MAX_RETRY_AFTER_S


def test_gateway_retries_embedding_transport_errors(monkeypatch):
    payload = {"data": [{"embedding": [1.0, 0.0]}]}

    class Unavailable(StubSession):
        def post(self, url, json=None, headers=None, timeout=None):
            self.requests.append({"url": url})
            if len(self.requests) == 1:
                return StubResponse(503, headers={"Retry-After": "2"})
            return StubResponse(200, payload)

    session = Unavailable(None)
    gw = LlmGateway(
        embedding_backend=HttpBackend("http://x", session=session),
        retry_backoff=0,
        workers=1,
    )
    sleeps = _sleep_recorder(monkeypatch, gw)
    assert gw.embed(["a"])[0].tolist() == [1.0, 0.0]
    assert len(session.requests) == 2
    assert sleeps == [(2.0, True)]


def test_http_embedding_backend():
    payload = {"data": [{"embedding": [1.0, 0.0]}, {"embedding": [0.0, 1.0]}]}
    session = StubSession(StubResponse(200, payload))
    backend = HttpBackend("http://llm.local/v1", session=session)
    assert backend.embed(["a", "b"], "emb") == [[1.0, 0.0], [0.0, 1.0]]
    assert session.requests[0]["url"] == "http://llm.local/v1/embeddings"
    assert session.requests[0]["json"] == {"model": "emb", "input": ["a", "b"]}


# -- parallelism ----------------------------------------------------------------


def test_run_parallel_preserves_order():
    gw = LlmGateway(workers=8)
    items = list(range(50))
    assert gw.run_parallel(lambda i: i * i, items) == [i * i for i in items]


def test_run_parallel_sequential_when_one_worker():
    gw = LlmGateway(workers=1)
    assert gw.run_parallel(lambda i: i + 1, [1, 2, 3]) == [2, 3, 4]


def test_run_parallel_reuses_one_pool_across_maps():
    gw = LlmGateway(workers=4)
    barrier = threading.Barrier(4, timeout=10)

    def whoami(_):
        barrier.wait()  # all four items run at once, each on its own thread
        return threading.current_thread()

    caller = threading.current_thread()
    first = gw.run_parallel(whoami, range(4))
    second = gw.run_parallel(whoami, range(4))
    # the caller runs one item and three helpers the rest
    assert len(set(first)) == len(set(second)) == 4
    assert caller in first and caller in second
    # a pool per map would show six helper threads; one pool has at most four
    helpers = (set(first) | set(second)) - {caller}
    assert len(helpers) <= gw.workers
    assert all(thread.name.startswith("taxonav-gateway") for thread in helpers)


def test_nested_maps_queue_helper_jobs_on_the_caller_and_on_helpers(monkeypatch):
    jobs = counting_pool_jobs(monkeypatch)
    gw = LlmGateway(workers=2)
    both = threading.Barrier(2, timeout=10)

    def outer(i):
        both.wait()  # the two items run at once: one on the caller, one on a helper
        inner = gw.run_parallel(lambda j: (i, j), range(5))
        return threading.current_thread(), inner

    caller = threading.current_thread()
    results = gw.run_parallel(outer, range(2))
    ran_on = {thread for thread, _ in results}
    assert len(ran_on) == 2 and caller in ran_on
    assert [inner for _, inner in results] == [[(i, j) for j in range(5)] for i in range(2)]
    assert len(jobs) == 3  # the outer map's helper and one for each nested map


def nest(gw: LlmGateway, depth: int, width: int, prefix: tuple = ()) -> list:
    """A map of width items, each a map one level down, depth levels deep;
    the leaves are their index paths."""
    if depth == 0:
        return prefix
    return gw.run_parallel(lambda i: nest(gw, depth - 1, width, (*prefix, i)), range(width))


def expected_nest(depth: int, width: int, prefix: tuple = ()) -> list:
    if depth == 0:
        return prefix
    return [expected_nest(depth - 1, width, (*prefix, i)) for i in range(width)]


def finishes(fn, timeout: float = 10) -> list:
    """fn's result, from a thread that must end within timeout seconds. The
    thread is a daemon, so a deadlocked map fails the test, not the run."""
    out: list = []
    thread = threading.Thread(target=lambda: out.append(fn()), daemon=True)
    thread.start()
    thread.join(timeout=timeout)
    assert not thread.is_alive(), "the map did not finish"
    return out[0]


@pytest.mark.parametrize("workers", [2, 3])
def test_a_three_deep_nest_finishes_in_order_while_other_maps_hold_every_pool_thread(
    monkeypatch, workers
):
    thread_errors: list = []
    monkeypatch.setattr(threading, "excepthook", thread_errors.append)
    gw = LlmGateway(workers=workers)
    release = threading.Event()
    held = threading.Semaphore(0)

    def hold(_):
        if threading.current_thread().name.startswith("taxonav-gateway"):
            held.release()
        release.wait(timeout=30)

    # two maps of workers blocking items hand the pool more helper jobs than threads
    holders = [
        threading.Thread(target=gw.run_parallel, args=(hold, range(workers))) for _ in range(2)
    ]
    for thread in holders:
        thread.start()
    try:
        for _ in range(workers):
            assert held.acquire(timeout=10), "the pool threads never all held an item"
        # every helper the nest queues waits behind the holders; its callers
        # drain each map alone and never wait for a queued job to start
        assert finishes(lambda: nest(gw, 3, 4)) == expected_nest(3, 4)
    finally:
        release.set()
        for thread in holders:
            thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in holders)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:  # with the pool free, the nest's maps share its threads at every depth
        for _ in range(5):
            assert finishes(lambda: nest(gw, 3, 4)) == expected_nest(3, 4)
    finally:
        sys.setswitchinterval(interval)
    assert thread_errors == []


def test_a_map_finishes_on_its_caller_while_other_maps_hold_every_pool_thread(monkeypatch):
    thread_errors: list = []
    monkeypatch.setattr(threading, "excepthook", thread_errors.append)
    gw = LlmGateway(workers=3)
    release = threading.Event()
    held = threading.Semaphore(0)

    def hold(_):
        if threading.current_thread().name.startswith("taxonav-gateway"):
            held.release()
        release.wait(timeout=30)

    # two maps of three blocking items: four helper jobs for three pool threads
    holders = [threading.Thread(target=gw.run_parallel, args=(hold, range(3))) for _ in range(2)]
    for thread in holders:
        thread.start()
    try:
        for _ in range(gw.workers):
            assert held.acquire(timeout=10), "the pool threads never all held an item"
        caller = threading.current_thread()
        start = time.monotonic()
        ran_on = gw.run_parallel(lambda _: threading.current_thread(), range(5))
        assert time.monotonic() - start < 5  # its helpers never start, and it does not wait for them
        assert ran_on == [caller] * 5
    finally:
        release.set()
        for thread in holders:
            thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in holders)
    # the late helpers of the finished map start now and must do nothing; a
    # barrier job per pool thread trips only once each thread has finished
    # every job queued before it
    drained = threading.Barrier(gw.workers + 1, timeout=10)
    for _ in range(gw.workers):
        gw._helpers().put(drained.wait)
    drained.wait()
    assert thread_errors == []


class InflightBackend:
    """Sleeps in every call; counts the calls and records the most in
    flight at once."""

    def __init__(self, delay: float = 0.003) -> None:
        self.delay = delay
        self.inflight = 0
        self.peak = 0
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, request, label):
        with self._lock:
            self.calls += 1
            self.inflight += 1
            self.peak = max(self.peak, self.inflight)
        try:
            time.sleep(self.delay)
        finally:
            with self._lock:
                self.inflight -= 1
        return ChatResponse(text="1", prompt_tokens=1, output_tokens=1)


def test_workers_caps_calls_in_flight_across_callers():
    backend = InflightBackend()
    gw = LlmGateway(chat_backend=backend, workers=3)

    def client():
        for _ in range(3):
            gw.run_parallel(lambda _i: gw.chat(SYS, USER, label="x"), range(6))
            gw.chat(SYS, USER, label="x")

    clients = [threading.Thread(target=client) for _ in range(4)]
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in clients)
    assert backend.calls == 4 * 3 * 7
    assert backend.peak == 3


def counting_pool_jobs(monkeypatch) -> list:
    """Patches the gateway's pool queue to append each job it is handed to a
    list."""
    jobs: list = []
    helpers = LlmGateway._helpers

    class CountingQueue:
        def __init__(self, queue):
            self.queue = queue

        def put(self, job):
            jobs.append(job)
            self.queue.put(job)

    monkeypatch.setattr(LlmGateway, "_helpers", lambda gw: CountingQueue(helpers(gw)))
    return jobs


def new_pool_threads(before: set[threading.Thread]) -> set[threading.Thread]:
    return {
        thread for thread in set(threading.enumerate()) - before
        if thread.name.startswith("taxonav-gateway_")
    }


def test_run_parallel_keeps_a_bounded_window(monkeypatch):
    """A map of any length hands the pool workers - 1 jobs and runs at most
    workers items at once; the first workers items run all at once."""
    jobs = counting_pool_jobs(monkeypatch)
    lock = threading.Lock()
    state = {"running": 0, "peak": 0}
    gw = LlmGateway(workers=3)
    first = threading.Barrier(gw.workers, timeout=10)

    def slow_square(i):
        with lock:
            state["running"] += 1
            state["peak"] = max(state["peak"], state["running"])
        if i < gw.workers:
            first.wait()
        time.sleep(0.001)
        with lock:
            state["running"] -= 1
        return i * i

    assert gw.run_parallel(slow_square, range(60)) == [i * i for i in range(60)]
    assert len(jobs) == gw.workers - 1
    assert state["peak"] == gw.workers


@pytest.mark.parametrize("n_items, n_jobs", [(0, 0), (1, 0), (2, 1), (5, 4), (8, 7), (500, 7)])
def test_a_map_submits_at_most_workers_minus_one_jobs(monkeypatch, n_items, n_jobs):
    jobs = counting_pool_jobs(monkeypatch)
    gw = LlmGateway(workers=8)
    assert gw.run_parallel(lambda i: -i, range(n_items)) == [-i for i in range(n_items)]
    assert len(jobs) == n_jobs


def test_a_gateway_whose_maps_all_run_inline_starts_no_thread():
    before = set(threading.enumerate())
    gw, single = LlmGateway(workers=8), LlmGateway(workers=1)
    assert gw.run_parallel(lambda i: -i, []) == []
    assert gw.run_parallel(lambda i: -i, [3]) == [-3]
    assert single.run_parallel(lambda i: -i, range(50)) == [-i for i in range(50)]
    assert set(threading.enumerate()) - before == set()


def test_the_first_pooled_map_starts_every_pool_thread_and_later_maps_none():
    before = set(threading.enumerate())
    gw = LlmGateway(workers=20)
    assert gw.run_parallel(lambda i: -i, range(2)) == [0, -1]
    started = new_pool_threads(before)
    assert len(started) == gw.workers
    for n_items in (2, 20, 500):
        assert gw.run_parallel(lambda i: -i, range(n_items)) == [-i for i in range(n_items)]
    assert new_pool_threads(before) == started


def test_every_item_runs_once_under_fast_thread_switching():
    gw = LlmGateway(workers=8)
    ran: list[int] = []

    def work(i):
        ran.append(i)
        return i * 3

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            ran.clear()
            assert gw.run_parallel(work, range(300)) == [i * 3 for i in range(300)]
            assert sorted(ran) == list(range(300))
    finally:
        sys.setswitchinterval(interval)


def test_run_parallel_refills_when_any_item_finishes():
    """Item 0 waits for the last item, which is only submitted if the
    window refills behind item 0 as later items finish."""
    gw = LlmGateway(workers=2)
    last_started = threading.Event()

    def work(i):
        if i == 0:
            return last_started.wait(timeout=10)
        if i == 9:
            last_started.set()
        return True

    assert gw.run_parallel(work, range(10)) == [True] * 10


def test_run_parallel_stops_after_a_failure_and_raises_the_earliest():
    gw = LlmGateway(workers=2)
    started: list[int] = []

    def work(i):
        started.append(i)
        if i in (1, 2):
            raise ValueError(f"item {i}")
        time.sleep(0.05)
        return i

    with pytest.raises(ValueError, match="item 1"):
        gw.run_parallel(work, range(40))
    assert len(started) <= 2 * gw.workers


def test_no_item_starts_after_a_failure_is_recorded():
    gw = LlmGateway(workers=3)
    together = threading.Barrier(3, timeout=10)
    started: list[int] = []

    def work(i):
        started.append(i)
        if i < 3:
            together.wait()  # items 0-2 run at once, one per thread
        if i == 1:
            raise ValueError("item 1")
        time.sleep(0.05)  # item 1 has failed by the time 0 and 2 finish
        return i

    with pytest.raises(ValueError, match="item 1"):
        gw.run_parallel(work, range(30))
    assert sorted(started) == [0, 1, 2]


def test_idle_pool_threads_keep_no_map_or_gateway_alive():
    gw = LlmGateway(workers=3)
    barrier = threading.Barrier(3, timeout=10)
    payload = {"items of the map"}

    def whoami(_, gw=gw, payload=payload):  # holds both, beyond the del below
        barrier.wait()
        return threading.current_thread()

    threads = set(gw.run_parallel(whoami, range(3))) - {threading.current_thread()}
    gateway, data = weakref.ref(gw), weakref.ref(payload)
    del gw, payload, whoami
    gc.collect()
    assert gateway() is None and data() is None
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)


def test_dropped_gateway_lets_its_pool_threads_exit():
    gw = LlmGateway(workers=3)
    barrier = threading.Barrier(3, timeout=10)

    def whoami(_):
        barrier.wait()
        return threading.current_thread()

    threads = set(gw.run_parallel(whoami, range(3)))
    threads.discard(threading.current_thread())  # the caller ran one item
    assert len(threads) == 2
    assert all(thread.is_alive() for thread in threads)
    del gw
    gc.collect()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)


# -- run_parallel's contract, as one property ------------------------------------

ITEM_KINDS = ("return", "sleep", "chat", "raise", "map")
MAP_DEADLINE_S = 10.0


@st.composite
def map_plans(draw, depth: int = 4) -> list[tuple]:
    """A map of at most 6 items, each ("return",), ("sleep", seconds),
    ("chat",), ("raise",) or ("map", plan), nested at most depth maps deep."""
    plan = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(ITEM_KINDS if depth > 1 else ITEM_KINDS[:-1]))
        if kind == "sleep":
            plan.append((kind, draw(st.floats(0, 0.002))))
        elif kind == "map":
            plan.append((kind, draw(map_plans(depth - 1))))
        else:
            plan.append((kind,))
    return plan


class ItemError(Exception):
    """Raised by a ("raise",) item; its argument is the item's path."""


def expected_map(plan: list[tuple], path: tuple) -> tuple[list | None, tuple | None]:
    """What a map of plan at path returns, or the path of the item whose
    error it raises: its first item, in input order, that fails. An item
    before that one never fails, so that one always starts."""
    results = []
    for i, item in enumerate(plan):
        here = (*path, i)
        if item[0] == "raise":
            return None, here
        if item[0] == "map":
            inner, failed = expected_map(item[1], here)
            if failed:
                return None, failed
            results.append(inner)
        else:
            results.append((item[0], here))
    return results, None


class CountingChatBackend:
    """Counts chat calls in flight; each call takes 0.2 ms and answers with
    its user prompt."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.in_flight = self.peak = 0

    def complete(self, request: ChatRequest, label: str) -> ChatResponse:
        with self.lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        time.sleep(0.0002)
        with self.lock:
            self.in_flight -= 1
        return ChatResponse(text=request.user_prompt, prompt_tokens=1, output_tokens=1)


def run_plans(plans: list[list[tuple]], workers: int) -> tuple[list, list, list, list, int, set]:
    """Runs each plan as a map from its own caller thread on one gateway.
    Returns each caller's outcome, the item starts (map path, index,
    thread, event number), the failed items (map path, thread, event
    number), the maps (path, first and last event number, seconds taken),
    the peak chat calls in flight and the gateway's pool threads. The
    gateway is unreachable once this returns."""
    backend = CountingChatBackend()
    gw = LlmGateway(chat_backend=backend, workers=workers)
    before = set(threading.enumerate())
    events = itertools.count()  # one number per event, in the order the events happen
    starts, failures, maps = [], [], []

    def run_map(plan: list[tuple], path: tuple) -> list:
        def item(i: int):
            kind, *arg = plan[i]
            starts.append((path, i, threading.current_thread(), next(events)))
            try:
                if kind == "sleep":
                    time.sleep(arg[0])
                elif kind == "chat":
                    return kind, tuple(json.loads(gw.chat(SYS, json.dumps((*path, i)), label="prop").text))
                elif kind == "raise":
                    raise ItemError((*path, i))
                elif kind == "map":
                    return run_map(arg[0], (*path, i))
                return kind, (*path, i)
            except ItemError:
                failures.append((path, threading.current_thread(), next(events)))
                raise

        first, started = next(events), time.monotonic()
        try:
            return gw.run_parallel(item, range(len(plan)))
        finally:
            maps.append((path, first, next(events), time.monotonic() - started))

    outcomes: list = [None] * len(plans)

    def caller(c: int) -> None:
        try:
            outcomes[c] = ("returned", run_map(plans[c], (c,)))
        except ItemError as exc:
            outcomes[c] = ("raised", exc.args[0])

    callers = [threading.Thread(target=caller, args=(c,), daemon=True) for c in range(len(plans))]
    for thread in callers:
        thread.start()
    for thread in callers:
        thread.join(timeout=MAP_DEADLINE_S)
    assert not any(thread.is_alive() for thread in callers), "a map did not finish: deadlock"
    pool = new_pool_threads(before)
    return outcomes, starts, failures, maps, backend.peak, pool


@settings(max_examples=40, deadline=None)
@given(plans=st.lists(map_plans(), min_size=1, max_size=3), workers=st.integers(1, 8))
def test_run_parallel_keeps_its_contract_on_any_nest_of_maps(plans, workers):
    """Any nest of maps, from 1-3 caller threads sharing one gateway, with
    threads switching every microsecond: each map returns its results in
    input order or raises the error of its earliest failing item; a map
    starts its items in index order and none after it ends, and a thread
    whose item failed starts no more of that map's items; at most workers
    chat calls are in flight; every map ends within a deadline; and the
    gateway's pool threads exit once it is dropped."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        outcomes, starts, failures, maps, peak, pool = run_plans(plans, workers)
    finally:
        sys.setswitchinterval(interval)
    deadline = time.monotonic() + 10
    # a helper job still queued when its map ended holds the gateway until a
    # pool thread takes it; the collector then frees the gateway
    while any(thread.is_alive() for thread in pool) and time.monotonic() < deadline:
        gc.collect()
        time.sleep(0.001)
    assert not any(thread.is_alive() for thread in pool)
    assert len(pool) <= workers
    assert peak <= workers

    for c, plan in enumerate(plans):
        results, failed = expected_map(plan, (c,))
        assert outcomes[c] == (("raised", failed) if failed else ("returned", results))
    for path, first, last, seconds in maps:
        assert seconds < MAP_DEADLINE_S
        indices = sorted(i for p, i, _, _ in starts if p == path)
        assert indices == list(range(len(indices)))  # index order, each item once
        assert all(first < event < last for p, _, _, event in starts if p == path)
    for path, thread, failed_at in failures:
        assert not [i for p, i, t, event in starts if p == path and t is thread and event > failed_at]
