"""Shared fixtures: latent synthetic worlds, oracle-backed gateways, and a
mock backend that records its calls."""

from __future__ import annotations

import os
import random
import subprocess
import sys
import threading
from collections import deque
from pathlib import Path
from typing import NamedTuple

import pytest

import taxonav
from taxonav import taxonomy as taxonomy_io
from taxonav.gateway import (
    ChatRequest,
    ChatResponse,
    LlmGateway,
    MockChatBackend,
    MockEmbeddingBackend,
)
from taxonav.synthetic import LatentOracle, make_queries, make_world
from taxonav.taxonomy import Taxonomy


class RecordedCall(NamedTuple):
    label: str
    request: ChatRequest
    reply: str


class RecordingChatBackend(MockChatBackend):
    """A MockChatBackend that keeps every call it answers in ``transcript``,
    in reply order, for tests that read prompts or count calls. The library's
    mock keeps no such record, so its memory stays flat over a long run."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.transcript: list[RecordedCall] = []
        self._record_lock = threading.Lock()

    def complete(self, request: ChatRequest, label: str) -> ChatResponse:
        with self._record_lock:
            response = super().complete(request, label)
            self.transcript.append(RecordedCall(label, request, response.text))
        return response


class RecordingEmbeddingBackend(MockEmbeddingBackend):
    """A MockEmbeddingBackend that keeps every batch of texts it is sent in
    ``batches``, for tests that count embedding requests or read them."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.batches: list[list[str]] = []
        self._record_lock = threading.Lock()

    def embed(self, texts: list[str], model: str) -> list[list[float]]:
        with self._record_lock:
            self.batches.append(list(texts))
        return super().embed(texts, model)


@pytest.fixture(scope="session")
def world200():
    world = make_world(n_domains=4, n_subdomains=4, total_services=200)
    make_queries(world, n=50, seed=7)
    return world


@pytest.fixture()
def oracle_gateway(world200):
    return make_oracle_gateway(world200)


@pytest.fixture()
def gateway_factory():
    return make_oracle_gateway


def make_oracle_gateway(world, **kwargs) -> LlmGateway:
    return LlmGateway(
        chat_backend=RecordingChatBackend(oracle=LatentOracle(world)),
        embedding_backend=MockEmbeddingBackend(),
        **kwargs,
    )


def run_python(*args: str, timeout: float | None = 120) -> subprocess.CompletedProcess:
    """Runs ``python args`` in a new interpreter that imports this taxonav,
    with this process's environment, and returns the finished process."""
    src = str(Path(taxonav.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=timeout,
    )


def run_fresh(source: str, *argv: str) -> str:
    """Runs ``source`` with ``argv`` in a new interpreter and returns its
    stdout: for checks on ``sys.modules``, which a test process has long
    since filled."""
    result = run_python("-c", source, *argv)
    assert result.returncode == 0, result.stderr
    return result.stdout


def random_tree(seed: int, n_nodes: int) -> Taxonomy:
    """A tree of n_nodes nodes under the root, each hung from a node drawn
    from the ones made before it."""
    rng = random.Random(seed)
    tax = Taxonomy()
    ids = ["root"]
    for i in range(n_nodes):
        node = tax.add_child(rng.choice(ids), f"n{i}")
        ids.append(node.node_id)
    return tax


def assert_tuples_that_load_keeps(tax: Taxonomy, directory: Path) -> Taxonomy:
    """Asserts that ``load`` gives back an equal tree from what ``save`` wrote
    to ``directory``, and that the assignment map of each tree holds tuples,
    one tuple object per distinct placement, shared by every service placed
    there. Returns the loaded tree."""
    assert tax.assignment
    taxonomy_io.save(tax, directory)
    loaded = taxonomy_io.load(directory)
    assert loaded == tax
    for tree in (tax, loaded):
        values = tree.assignment.values()
        assert all(type(leaf_ids) is tuple for leaf_ids in values)
        assert len({id(leaf_ids) for leaf_ids in values}) == len(set(values))
    return loaded


def bfs_distance(tax: Taxonomy, a: str, b: str) -> int:
    """Independent oracle: undirected shortest path over the tree edges."""
    adj: dict[str, set[str]] = {nid: set() for nid in tax.nodes}
    for nid, node in tax.nodes.items():
        for child in node.children:
            adj[nid].add(child)
            adj[child].add(nid)
    seen = {a: 0}
    queue = deque([a])
    while queue:
        cur = queue.popleft()
        if cur == b:
            return seen[cur]
        for nxt in adj[cur]:
            if nxt not in seen:
                seen[nxt] = seen[cur] + 1
                queue.append(nxt)
    raise AssertionError("nodes not connected")
