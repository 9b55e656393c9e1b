"""Load model and answer oracles for the benchmark.

``LatencyBackend`` wraps any chat backend and sleeps before each call, as a
real model spends time on prefill before it answers. The sleep happens
outside the wrapped backend's lock (``MockChatBackend`` serialises oracle
evaluation under its own lock), so concurrent calls overlap the way they
would against a served model. The wrapper also counts calls per label and
calls in flight. The program itself is not patched.

``PathOracle`` answers search prompts over a synthetic balanced tree by
picking exactly the branches that lead to a query's target services, and
answers the pure-LLM baseline with the target ids. ``TruthOracle`` adds the
pure-LLM answer in front of another oracle (``LatentOracle`` has none).
"""

from __future__ import annotations

import re
import threading
import time
from collections import Counter
from collections.abc import Callable, Iterable

from taxonav.gateway import ChatRequest, estimate_tokens
from taxonav.registry import QueryCase
from taxonav.synthetic import parse_options
from taxonav.taxonomy import Taxonomy

BASE_LATENCY_S = 0.020
PER_TOKEN_S = 5e-6

_QUERY_RE = re.compile(r"^Query: (.*)$", re.MULTILINE)


def modelled_latency(request: ChatRequest) -> float:
    """Seconds one chat call sleeps: 20 ms plus 5 us per estimated prompt token."""
    tokens = estimate_tokens(request.system_prompt + request.user_prompt)
    return BASE_LATENCY_S + PER_TOKEN_S * tokens


class LatencyBackend:
    """Chat backend wrapper that injects latency and counts traffic.

    ``reset()`` opens a measurement window; ``window()`` reports the calls
    per label, the modelled sleep, and the peak and time-weighted mean
    number of calls in flight since then.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.calls: Counter[str] = Counter()
            self.modelled_s = 0.0
            self.inflight = 0
            self.peak_inflight = 0
            self._area = 0.0
            self._start = self._last = time.perf_counter()

    def _step(self, delta: int) -> None:
        now = time.perf_counter()
        self._area += self.inflight * (now - self._last)
        self._last = now
        self.inflight += delta
        self.peak_inflight = max(self.peak_inflight, self.inflight)

    def complete(self, request: ChatRequest, label: str):
        delay = modelled_latency(request)
        with self._lock:
            self.calls[label] += 1
            self.modelled_s += delay
            self._step(+1)
        try:
            time.sleep(delay)
            return self.inner.complete(request, label)
        finally:
            with self._lock:
                self._step(-1)

    def window(self) -> dict:
        with self._lock:
            self._step(0)
            elapsed = self._last - self._start
            return {
                "calls": dict(self.calls),
                "modelled_s": self.modelled_s,
                "peak_inflight": self.peak_inflight,
                "mean_inflight": self._area / elapsed if elapsed > 0 else 0.0,
            }


def _query_of(request: ChatRequest) -> str | None:
    match = _QUERY_RE.search(request.user_prompt)
    return match.group(1) if match else None


class PathOracle:
    """Oracle for trees from ``synthetic.make_balanced_taxonomy``.

    For each query it knows the target services (the ground truth) and the
    names of every category on a path from the root to a leaf that holds
    one. Navigation picks exactly those categories, selection picks exactly
    the targets, so taxonomy search must return the ground truth.
    """

    def __init__(self, taxonomy: Taxonomy, queries: Iterable[QueryCase]) -> None:
        parents = taxonomy.parent_map()
        self.paths: dict[str, set[str]] = {}
        self.truth: dict[str, list[str]] = {}
        for case in queries:
            names: set[str] = set()
            for sid in case.ground_truth:
                for leaf_id in taxonomy.assignment[sid]:
                    node_id = leaf_id
                    while node_id != taxonomy.root_id:
                        names.add(taxonomy.node(node_id).name)
                        node_id = parents[node_id]
            self.paths[case.text] = names
            self.truth[case.text] = sorted(case.ground_truth)

    def __call__(self, label: str, request: ChatRequest) -> str | None:
        query = _query_of(request)
        if query not in self.truth:
            return None
        if label == "baseline.pure_llm":
            return ", ".join(self.truth[query])
        if label == "search.navigate":
            wanted = self.paths[query]
        elif label == "search.select":
            wanted = set(self.truth[query])
        else:
            return None
        chosen = [str(idx) for idx, name in parse_options(request.user_prompt) if name in wanted]
        return ", ".join(chosen) if chosen else "0"


class TruthOracle:
    """Answers ``baseline.pure_llm`` with the ground truth of a query and
    hands every other request to ``fallback``."""

    def __init__(
        self,
        truth: dict[str, list[str]],
        fallback: Callable[[str, ChatRequest], str | None],
    ) -> None:
        self.truth = truth
        self.fallback = fallback

    def __call__(self, label: str, request: ChatRequest) -> str | None:
        if label == "baseline.pure_llm":
            query = _query_of(request)
            if query in self.truth:
                return ", ".join(self.truth[query])
            return None
        return self.fallback(label, request)
