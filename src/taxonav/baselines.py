"""Reference retrievers the taxonomy search is measured against.

Three baselines: a pure-LLM retriever that stuffs the whole catalog into a
single prompt (the cost ceiling), a dense embedding top-K retriever (the
no-LLM floor), and a rewrite-then-retrieve pipeline that asks the LLM to
describe the needed tool first and embeds that description instead of the
raw query.

All of them return the same RetrievalResult shape as the taxonomy search
so one evaluation harness serves everything.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import prompts
from .errors import ConfigError, ReplyParseError
from .gateway import LlmGateway, metered
from .registry import Registry
from .search import RetrievalResult, usage_fields

if TYPE_CHECKING:
    # For the annotations only. numpy is imported inside the embedding
    # functions, so the pure-LLM baseline and the modules that import this
    # one never load it.
    import numpy as np

logger = logging.getLogger(__name__)

DEFAULT_K_BY_SHAPE = {"toolret": 5, "publicmcp": 10}

REWRITE_REASK_SUFFIX = "\n\nReply with the <tool_assistant> block in exactly the requested format."


def default_k(shape: str) -> int:
    try:
        return DEFAULT_K_BY_SHAPE[shape]
    except KeyError:
        raise ConfigError(
            f"unknown dataset shape {shape!r}; expected one of {sorted(DEFAULT_K_BY_SHAPE)}"
        ) from None


# -- pure-LLM full-context retrieval ----------------------------------------


def pure_llm_retrieve(query: str, registry: Registry, gateway: LlmGateway) -> RetrievalResult:
    """Single chat call over the entire catalog (ids, names, descriptions;
    no input schemas). Ids in the reply are validated against the registry;
    unknown ones are dropped and counted, never guessed at."""
    catalog = "\n".join(f"{svc.id} | {svc.name}: {svc.description}" for svc in registry)
    system, user = prompts.render("pure_llm_retrieve", query=query, catalog=catalog)
    with metered() as usage:
        response = gateway.chat(system, user, label="baseline.pure_llm")

    returned: list[str] = []
    seen: set[str] = set()
    dropped = 0
    for token in re.split(r"[,\n;]+", response.text):
        candidate = token.strip().strip("\"'`[](){}.")
        if not candidate or candidate.upper() == "NONE":
            continue
        if candidate in registry:
            if candidate not in seen:
                seen.add(candidate)
                returned.append(candidate)
        else:
            dropped += 1
    flags = [f"dropped_unknown_ids:{dropped}"] if dropped else []
    if dropped:
        logger.warning("pure-LLM reply contained %d unknown ids", dropped)
    return RetrievalResult(service_ids=returned, **usage_fields(usage.snapshot()), flags=flags)


# -- dense embedding top-K ----------------------------------------------------


@dataclass
class EmbeddingIndex:
    """Unit-norm description vectors in registry order; cosine similarity
    is therefore a plain dot product."""

    service_ids: list[str]
    matrix: np.ndarray


def build_embedding_index(registry: Registry, gateway: LlmGateway) -> EmbeddingIndex:
    if len(registry) == 0:
        raise ConfigError("cannot build an embedding index over an empty registry")
    import numpy as np

    vectors = gateway.embed([svc.description for svc in registry])
    return EmbeddingIndex(service_ids=registry.ids, matrix=np.stack(vectors))


def rank_by_vector(vector: np.ndarray, index: EmbeddingIndex, k: int) -> list[str]:
    """Top-k ids by cosine similarity; ties resolve to registry order via a
    stable sort. k beyond the index size clamps with a warning."""
    import numpy as np

    if k < 1:
        raise ConfigError("k must be positive")
    if k > len(index.service_ids):
        logger.warning("k=%d exceeds index size %d; returning all", k, len(index.service_ids))
        k = len(index.service_ids)
    sims = index.matrix @ np.asarray(vector, dtype=np.float64)
    order = np.argsort(-sims, kind="stable")
    return [index.service_ids[i] for i in order[:k]]


def topk_retrieve(
    query: str, index: EmbeddingIndex, k: int, gateway: LlmGateway
) -> RetrievalResult:
    vector = gateway.embed([query])[0]
    return RetrievalResult(service_ids=rank_by_vector(vector, index, k))


# -- rewrite-then-retrieve ----------------------------------------------------


def parse_tool_assistant(text: str) -> str | None:
    """The text of the tool line of the <tool_assistant> block; None when
    the block or the tool line is missing or empty."""
    match = re.search(r"<tool_assistant>(.*?)</tool_assistant>", text, re.DOTALL | re.IGNORECASE)
    if not match:
        return None
    body = match.group(1)
    tool = re.search(r"tool\s*:\s*(.+)", body, re.IGNORECASE)
    tool_text = tool.group(1).strip() if tool else ""
    if not tool_text:
        return None
    return tool_text


def rewrite_retrieve(
    query: str, index: EmbeddingIndex, k: int, gateway: LlmGateway
) -> RetrievalResult:
    """One chat call that rewrites the task into a tool description, whose
    embedding then drives top-K. A reply without a usable block gets one
    re-ask; after that the raw query embedding is used and flagged."""

    def parse(text: str) -> str:
        tool_text = parse_tool_assistant(text)
        if tool_text is None:
            raise ReplyParseError("no usable <tool_assistant> block")
        return tool_text

    system, user = prompts.render("rewrite_extract", task=query)
    flags: list[str] = []
    with metered() as usage:
        try:
            search_text = gateway.ask(
                system, user, label="baseline.rewrite",
                parse=parse, reask=lambda _: REWRITE_REASK_SUFFIX,
            )
        except ReplyParseError:
            flags.append("rewrite_fallback")
            logger.warning(
                "rewrite reply had no usable <tool_assistant> block; using the raw query"
            )
            search_text = query
    vector = gateway.embed([search_text])[0]
    return RetrievalResult(
        service_ids=rank_by_vector(vector, index, k), **usage_fields(usage.snapshot()), flags=flags
    )
