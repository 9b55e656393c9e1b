"""Baseline retrievers: pure-LLM full-context, embedding top-K, rewrite."""

from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import RecordingChatBackend, RecordingEmbeddingBackend, run_fresh
from taxonav.baselines import (
    EmbeddingIndex,
    build_embedding_index,
    default_k,
    parse_tool_assistant,
    pure_llm_retrieve,
    rank_by_vector,
    rewrite_retrieve,
    topk_retrieve,
)
from taxonav.errors import ConfigError
from taxonav.gateway import LlmGateway, ScriptRule
from taxonav.registry import Registry, Service


def make_registry(ids: list[str]) -> Registry:
    return Registry([Service(id=i, name=f"name-{i}", description=f"{i} tool") for i in ids])


def gw(*rules: ScriptRule, vectors=None, dim=4) -> LlmGateway:
    return LlmGateway(
        chat_backend=RecordingChatBackend(rules=rules),
        embedding_backend=RecordingEmbeddingBackend(vectors=vectors, dim=dim),
    )


# -- pure LLM -----------------------------------------------------------------


def test_pure_llm_single_call_sees_whole_catalog():
    registry = make_registry(["a", "b", "c"])
    gateway = gw(ScriptRule(pattern=".*", label="baseline.pure_llm", reply="a, b"))
    result = pure_llm_retrieve("q", registry, gateway)
    assert result.service_ids == ["a", "b"]
    assert result.calls == 1
    assert result.flags == []
    transcript = gateway.chat_backend.transcript
    assert len(transcript) == 1
    prompt = transcript[0].request.user_prompt
    assert "a | name-a: a tool" in prompt
    assert "c | name-c: c tool" in prompt
    assert "Reply NONE if no service is relevant." in prompt


def test_pure_llm_drops_unknown_ids_and_flags():
    registry = make_registry(["a", "b", "c"])
    gateway = gw(ScriptRule(pattern=".*", reply="a, b, zz"))
    result = pure_llm_retrieve("q", registry, gateway)
    assert result.service_ids == ["a", "b"]
    assert result.flags == ["dropped_unknown_ids:1"]


def test_pure_llm_none_reply_and_dedup_and_decorations():
    registry = make_registry(["a", "b"])
    gateway = gw(ScriptRule(pattern=".*", reply="NONE"))
    assert pure_llm_retrieve("q", registry, gateway).service_ids == []

    gateway = gw(ScriptRule(pattern=".*", reply="a\na; a"))
    assert pure_llm_retrieve("q", registry, gateway).service_ids == ["a"]

    gateway = gw(ScriptRule(pattern=".*", reply="['a', \"b\"]"))
    assert pure_llm_retrieve("q", registry, gateway).service_ids == ["a", "b"]


# -- embedding top-K -----------------------------------------------------------


def unit(v) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    return arr / np.linalg.norm(arr)


def hand_index() -> EmbeddingIndex:
    matrix = np.stack([unit([1.0, 0.0]), unit([0.6, 0.8]), unit([0.0, 1.0])])
    return EmbeddingIndex(service_ids=["a", "b", "c"], matrix=matrix)


def test_rank_by_vector_hand_case():
    assert rank_by_vector(unit([1.0, 0.0]), hand_index(), 2) == ["a", "b"]
    assert rank_by_vector(unit([0.0, 1.0]), hand_index(), 3) == ["c", "b", "a"]


def test_rank_ties_resolve_to_registry_order():
    # a and c are symmetric around the diagonal query, so they tie exactly
    ranked = rank_by_vector(unit([1.0, 1.0]), hand_index(), 3)
    assert ranked == ["b", "a", "c"]


def test_rank_k_validation_and_clamp():
    with pytest.raises(ConfigError, match="k must be positive"):
        rank_by_vector(unit([1.0, 0.0]), hand_index(), 0)
    assert rank_by_vector(unit([1.0, 0.0]), hand_index(), 99) == ["a", "b", "c"]


def test_topk_matches_brute_force_scan():
    rng = np.random.default_rng(42)
    for trial in range(25):
        n, dim, k = int(rng.integers(2, 40)), int(rng.integers(2, 9)), int(rng.integers(1, 6))
        matrix = rng.standard_normal((n, dim))
        matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
        ids = [f"svc-{i:02d}" for i in range(n)]
        index = EmbeddingIndex(service_ids=ids, matrix=matrix)
        query = unit(rng.standard_normal(dim))
        sims = [float(row @ query) for row in matrix]
        expected = [
            ids[i] for i in sorted(range(n), key=lambda i: (-sims[i], i))[: min(k, n)]
        ]
        assert rank_by_vector(query, index, k) == expected, f"trial {trial}"


def test_build_index_and_topk_retrieve_end_to_end():
    registry = make_registry(["a", "b", "c"])
    gateway = gw()
    index = build_embedding_index(registry, gateway)
    assert index.service_ids == ["a", "b", "c"]
    assert index.matrix.shape == (3, 4)
    assert np.allclose(np.linalg.norm(index.matrix, axis=1), 1.0)
    # a query identical to a stored description embeds identically, so that
    # service must rank first
    result = topk_retrieve("b tool", index, 2, gateway)
    assert result.service_ids[0] == "b"
    assert result.calls == 0

    with pytest.raises(ConfigError, match="empty registry"):
        build_embedding_index(Registry([]), gateway)


EMBEDDING_PATH = """
import json, sys
before = set(sys.modules)
from taxonav.baselines import build_embedding_index, topk_retrieve
from taxonav.gateway import LlmGateway, MockEmbeddingBackend
from taxonav.registry import Registry, Service

on_import = "numpy" in set(sys.modules) - before
gateway = LlmGateway(embedding_backend=MockEmbeddingBackend())
registry = Registry([Service(id=i, name=f"name-{i}", description=f"{i} tool") for i in "abcdefgh"])
index = build_embedding_index(registry, gateway)
ids = [topk_retrieve(q, index, 4, gateway).service_ids for q in ("c tool", "find me a tool")]
print(json.dumps([on_import, "numpy" in sys.modules, ids]))
"""


def test_the_embedding_baseline_loads_numpy_on_first_use():
    """Importing the baselines loads no numpy; building an index does, and
    the hash-seeded mock vectors rank as they did when numpy was imported
    with the module."""
    on_import, loaded, ids = json.loads(run_fresh(EMBEDDING_PATH))
    assert (on_import, loaded) == (False, True)
    assert ids == [["c", "h", "d", "e"], ["a", "g", "b", "d"]]

def test_default_k_by_shape():
    assert default_k("toolret") == 5
    assert default_k("publicmcp") == 10
    with pytest.raises(ConfigError, match="unknown dataset shape"):
        default_k("weird")


# -- rewrite-then-retrieve -------------------------------------------------------


GOOD_BLOCK = "<tool_assistant>\nserver: travel platform\ntool: books plane tickets\n</tool_assistant>"


def test_parse_tool_assistant_cases():
    assert parse_tool_assistant(f"Sure.\n{GOOD_BLOCK}\nDone.") == "books plane tickets"

    assert parse_tool_assistant("no block here") is None
    assert parse_tool_assistant("<tool_assistant>server: x</tool_assistant>") is None
    assert parse_tool_assistant("<tool_assistant>tool:</tool_assistant>") is None

    assert parse_tool_assistant("<TOOL_ASSISTANT>TOOL: Send Mail</TOOL_ASSISTANT>") == "Send Mail"


def test_rewrite_embeds_the_tool_description():
    registry = make_registry(["a", "b"])
    gateway = gw(ScriptRule(pattern=".*", label="baseline.rewrite", reply=GOOD_BLOCK))
    index = build_embedding_index(registry, gateway)
    result = rewrite_retrieve("book me a flight", index, 1, gateway)
    assert result.calls == 1
    assert result.flags == []
    assert gateway.embedding_backend.batches[-1] == ["books plane tickets"]
    assert len(result.service_ids) == 1


def test_rewrite_reasks_once_then_succeeds():
    registry = make_registry(["a", "b"])
    gateway = gw(ScriptRule(pattern=".*", label="baseline.rewrite", reply=["gibberish", GOOD_BLOCK]))
    index = build_embedding_index(registry, gateway)
    result = rewrite_retrieve("book me a flight", index, 1, gateway)
    assert result.calls == 2
    assert result.flags == []
    transcript = gateway.chat_backend.transcript
    assert "exactly the requested format" in transcript[1].request.user_prompt
    assert gateway.embedding_backend.batches[-1] == ["books plane tickets"]


def test_rewrite_falls_back_to_the_raw_query():
    registry = make_registry(["a", "b"])
    gateway = gw(ScriptRule(pattern=".*", label="baseline.rewrite", reply="never a block"))
    index = build_embedding_index(registry, gateway)
    result = rewrite_retrieve("book me a flight", index, 2, gateway)
    assert result.calls == 2
    assert result.flags == ["rewrite_fallback"]
    assert gateway.embedding_backend.batches[-1] == ["book me a flight"]
    assert result.service_ids  # ranking still happens
