"""Chat and embedding gateway: backends, retries, metering, reply parsing.

Every LLM interaction in the package goes through ``LlmGateway`` so that
usage accounting, retry policy, concurrency limits and determinism rules
live in one place. Chat temperature is pinned to 0. Transport failures retry
with exponential backoff, or after the server's Retry-After when that is
longer; no wait exceeds MAX_RETRY_AFTER_S.

``LlmGateway.ask`` is the one call-parse-re-ask path: a reply whose parser
raises ReplyParseError gets exactly one re-ask with a stricter suffix, and a
second parse failure propagates for the caller to degrade on (an empty
selection, None, a DesignError, a flagged fallback). ``embed`` caches
vectors only on disk, given a directory: one .npy file per text that
``registry.write_atomic`` writes, as it writes every other file.

Every chat call is counted in the meter of each enclosing ``metered()``
scope, and nowhere else. The scope lives in a context variable that
``run_parallel`` carries onto the pool threads that help drain a map, so a
query or a build counts exactly its own calls even when others share the
gateway.

The scripted mock backend is the test and offline workhorse: a table of
(label pattern, prompt regex) -> reply rules, optionally fronted by a
programmable oracle callable that inspects the full request.
"""

from __future__ import annotations

import contextvars
import functools
import io
import logging
import math
import queue
import re
import threading
import time
import weakref
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, TypeVar

from .errors import (
    ConfigError,
    GatewayError,
    MalformedReplyError,
    ReplyParseError,
    TransportError,
)
from .registry import NUMBER, decode_json, write_atomic

if TYPE_CHECKING:
    # For the annotations only. numpy and hashlib are imported inside the
    # functions that make, cache or read vectors, so a process that only
    # chats never loads them.
    import numpy as np

logger = logging.getLogger(__name__)

STRICT_REPLY_SUFFIX = "\n\nReply only with comma-separated numbers."
JSON_REPLY_SUFFIX = "\n\nReply with a single valid JSON object and nothing else."

# HTTP statuses below 500 that mean "try again later": request timeout and
# rate limiting. They raise TransportError so the gateway's backoff retries.
RETRYABLE_STATUSES = (408, 429)

# Longest wait before a retry, in seconds, whether the backoff or a
# server's Retry-After asks for it, so neither a hostile or broken header nor
# a long run of failures can stall a caller for hours.
MAX_RETRY_AFTER_S = 60.0

# Most texts sent in one /embeddings request. OpenAI's API reference caps a
# request at 2,048 inputs and at 300,000 tokens summed over its inputs. 256
# is an eighth of the input cap and keeps a request under the token cap for
# texts of up to about 1,170 tokens each, far above a service description.
# These are the published limits of that one API, not checked against a live
# endpoint; other OpenAI-compatible servers may set their own.
EMBED_BATCH_SIZE = 256

# Model-id patterns whose backends enable extended thinking by default; the
# request must carry an explicit disable flag to keep outputs deterministic.
THINKING_DISABLE_PATTERNS = ("v4",)


@functools.cache
def _thinking_disabled(model: str) -> bool:
    """Whether requests to ``model`` must carry the disable flag; one regex
    pass per model name, not per call."""
    return any(re.search(pattern, model) for pattern in THINKING_DISABLE_PATTERNS)


T = TypeVar("T")


def estimate_tokens(*texts: str) -> int:
    """Character-count fallback used only when a backend omits usage: the
    count of the texts' concatenation, taken without joining them."""
    return (sum(map(len, texts)) + 3) // 4


def parse_index_list(text: str, n_options: int) -> tuple[set[int], int]:
    """Extracts 1-based option indices from a free-form reply.

    Tolerates prose, brackets, and repeats. Returns the in-range index set
    plus a count of out-of-range tokens that were dropped. A reply with no
    digits at all raises ReplyParseError so the caller can re-ask. A token
    with more significant digits than n_options is dropped unconverted, so a
    huge number cannot trip the interpreter's int-string digit limit.
    """
    if n_options < 1:
        raise ValueError("n_options must be >= 1")
    tokens = re.findall(r"\d+", text)
    if not tokens:
        raise ReplyParseError(f"no indices found in reply {text[:120]!r}")
    max_digits = len(str(n_options))
    chosen: set[int] = set()
    dropped = 0
    for token in tokens:
        token = token.lstrip("0")
        idx = int(token) if token and len(token) <= max_digits else 0
        if 1 <= idx <= n_options:
            chosen.add(idx)
        else:
            dropped += 1
    return chosen, dropped


def extract_json_object(text: str) -> dict:
    """Pulls the first JSON object out of a reply, tolerating code fences."""
    cleaned = re.sub(r"^\s*```(?:json)?|```\s*$", "", text.strip(), flags=re.MULTILINE)
    start = cleaned.find("{")
    end = cleaned.rfind("}")
    if start < 0 or end <= start:
        raise ReplyParseError(f"no JSON object in reply {text[:120]!r}")
    # text from a "{" to a "}" decodes to an object or fails
    return decode_json(cleaned[start : end + 1], ReplyParseError, "reply")


def l2_normalize(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """``values`` scaled to unit length. Raises MalformedReplyError unless
    they are a flat list of finite numbers."""
    import numpy as np

    try:
        vec = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise MalformedReplyError(f"embedding is not a list of numbers: {exc}") from exc
    if vec.ndim != 1 or not np.isfinite(vec).all():
        raise MalformedReplyError(f"embedding is not a list of finite numbers: {values!r:.80}")
    norm = float(np.linalg.norm(vec))
    if norm < 1e-12:
        raise GatewayError("cannot normalize a zero embedding vector")
    return vec / norm


@dataclass
class ChatRequest:
    system_prompt: str
    user_prompt: str
    model: str
    thinking_disabled: bool = False

    def __post_init__(self) -> None:
        if not self.system_prompt or not self.user_prompt:
            raise ValueError("chat prompts must be non-empty")


@dataclass
class ChatResponse:
    text: str
    prompt_tokens: int
    output_tokens: int


@dataclass
class SelectionResult:
    """Outcome of an index-list chat; parse_failed means the reply and its
    re-ask were both unparseable, so nothing was selected."""

    indices: tuple[int, ...]
    dropped: int
    parse_failed: bool


class UsageMeter:
    """Thread-safe call/token counters with a per-label breakdown."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._labels: dict[str, dict[str, int]] = {}

    def record(self, label: str, prompt_tokens: int, output_tokens: int) -> None:
        with self._lock:
            bucket = self._labels.setdefault(
                label, {"calls": 0, "prompt_tokens": 0, "output_tokens": 0}
            )
            bucket["calls"] += 1
            bucket["prompt_tokens"] += prompt_tokens
            bucket["output_tokens"] += output_tokens

    def snapshot(self) -> dict:
        with self._lock:
            labels = {name: dict(bucket) for name, bucket in sorted(self._labels.items())}
        return {
            "total_calls": sum(b["calls"] for b in labels.values()),
            "total_prompt_tokens": sum(b["prompt_tokens"] for b in labels.values()),
            "total_output_tokens": sum(b["output_tokens"] for b in labels.values()),
            "labels": labels,
        }


# The meters of the metered() scopes the current context is inside.
_SCOPES: contextvars.ContextVar[tuple[UsageMeter, ...]] = contextvars.ContextVar(
    "taxonav_usage_scopes", default=()
)


@contextmanager
def metered() -> Iterator[UsageMeter]:
    """Yields a fresh UsageMeter that counts every chat call made inside the
    block: on this thread, and on the pool threads of the run_parallel maps
    it starts. Scopes nest; a call counts toward every enclosing scope."""
    meter = UsageMeter()
    token = _SCOPES.set((*_SCOPES.get(), meter))
    try:
        yield meter
    finally:
        _SCOPES.reset(token)


@dataclass
class ScriptRule:
    """One mock-backend rule: first rule whose patterns match wins."""

    pattern: str
    reply: str | list[str]
    label: str | None = None
    prompt_tokens: int | None = None
    output_tokens: int | None = None
    _served: int = field(default=0, repr=False)

    def matches(self, label: str, request: ChatRequest) -> bool:
        if self.label is not None and not re.search(self.label, label):
            return False
        return re.search(self.pattern, request.user_prompt, re.DOTALL) is not None

    def next_reply(self) -> str:
        if isinstance(self.reply, str):
            return self.reply
        idx = min(self._served, len(self.reply) - 1)
        self._served += 1
        return self.reply[idx]


def _script_rule(rule: object, where: str) -> ScriptRule:
    """One mock-script rule, checked field by field."""
    if not isinstance(rule, dict):
        raise ConfigError(f"mock script {where} is not an object")
    for key, value in (("pattern", rule.get("pattern")), ("label", rule.get("label") or "")):
        if not isinstance(value, str):
            raise ConfigError(f"mock script {where} needs a string {key!r}")
        try:
            re.compile(value)
        except re.error as exc:
            raise ConfigError(f"mock script {where} {key!r} is not a valid regex: {exc}") from None
    reply = rule.get("reply")
    if not isinstance(reply, str) and not (
        isinstance(reply, list) and reply and all(isinstance(r, str) for r in reply)
    ):
        raise ConfigError(f"mock script {where} needs a 'reply' string or non-empty list of strings")
    for key in ("prompt_tokens", "output_tokens"):
        value = rule.get(key)
        if value is not None and (type(value) is not int or value < 0):
            raise ConfigError(f"mock script {where} {key!r} must be a non-negative integer")
    return ScriptRule(
        pattern=rule["pattern"],
        reply=reply,
        label=rule.get("label"),
        prompt_tokens=rule.get("prompt_tokens"),
        output_tokens=rule.get("output_tokens"),
    )


class MockChatBackend:
    """Deterministic scripted chat backend.

    An optional oracle callable sees (label, request) first and may return a
    reply; when it returns None the rule table is consulted in order, then
    the default reply. A request nothing answers raises MalformedReplyError
    so silent test gaps cannot form.

    The backend keeps no record of the calls it serves, so its memory does
    not grow with a run's call count. Its lock serialises the oracle and the
    rules' reply counters.
    """

    def __init__(
        self,
        rules: Iterable[ScriptRule] = (),
        oracle: Callable[[str, ChatRequest], str | None] | None = None,
        default_reply: str | None = None,
    ) -> None:
        self.rules = list(rules)
        self.oracle = oracle
        self.default_reply = default_reply
        self._lock = threading.Lock()

    @classmethod
    def from_script(cls, script: dict) -> "MockChatBackend":
        """A backend answering from the "rules" and "default_reply" of a
        parsed mock script. Raises ConfigError naming the first bad entry."""
        rules = script.get("rules", [])
        if not isinstance(rules, list):
            raise ConfigError("mock script 'rules' must be a list")
        parsed = [_script_rule(rule, f"rules[{i}]") for i, rule in enumerate(rules)]
        default_reply = script.get("default_reply")
        if default_reply is not None and not isinstance(default_reply, str):
            raise ConfigError("mock script 'default_reply' must be a string")
        return cls(rules=parsed, default_reply=default_reply)

    def complete(self, request: ChatRequest, label: str) -> ChatResponse:
        with self._lock:
            reply = None
            rule = None
            if self.oracle is not None:
                reply = self.oracle(label, request)
            if reply is None:
                for candidate in self.rules:
                    if candidate.matches(label, request):
                        rule = candidate
                        reply = candidate.next_reply()
                        break
            if reply is None:
                reply = self.default_reply
            if reply is None:
                raise MalformedReplyError(
                    f"mock backend has no scripted reply for label {label!r}"
                )
        prompt_tokens = estimate_tokens(request.system_prompt, request.user_prompt)
        output_tokens = estimate_tokens(reply)
        if rule is not None and rule.prompt_tokens is not None:
            prompt_tokens = rule.prompt_tokens
        if rule is not None and rule.output_tokens is not None:
            output_tokens = rule.output_tokens
        return ChatResponse(text=reply, prompt_tokens=prompt_tokens, output_tokens=output_tokens)


def _retry_after(headers) -> float | None:
    """The numeric Retry-After of a reply in seconds, capped at
    MAX_RETRY_AFTER_S; None when it is absent or not a number of seconds
    (the HTTP-date form is ignored)."""
    try:
        seconds = float(headers.get("Retry-After"))
    except (TypeError, ValueError):
        return None
    if not math.isfinite(seconds) or seconds < 0:
        return None
    return min(seconds, MAX_RETRY_AFTER_S)


def _token_count(usage: dict, key: str, *texts: str) -> int:
    """The reply's usage[key], or estimate_tokens(*texts) when it is absent.
    Anything but a non-negative integer raises MalformedReplyError, so the
    meter never counts junk."""
    count = usage.get(key)
    if count is None:
        return estimate_tokens(*texts)
    if type(count) is not int or count < 0:
        raise MalformedReplyError(f"chat reply usage {key!r} is not a token count: {count!r:.80}")
    return count


class HttpBackend:
    """OpenAI-compatible backend for both roles: ``complete`` posts to
    /chat/completions and ``embed`` to /embeddings. One attempt per call;
    the gateway owns the retry loop."""

    def __init__(self, endpoint: str, api_key: str | None = None, session=None, timeout: float = 120.0):
        import requests

        self.endpoint = endpoint.rstrip("/")
        self.api_key = api_key
        self.timeout = timeout
        self.session = session or requests.Session()

    def _post(self, what: str, path: str, body: dict):
        """The 200 reply to ``body`` posted to ``path``. A failed request and
        the statuses worth retrying (5xx, request timeout, rate limiting)
        raise TransportError, carrying the reply's Retry-After; any other
        status raises MalformedReplyError."""
        import requests

        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        try:
            resp = self.session.post(
                f"{self.endpoint}/{path}", json=body, headers=headers, timeout=self.timeout
            )
        except requests.RequestException as exc:
            raise TransportError(f"{what} request failed: {exc}") from exc
        if resp.status_code >= 500 or resp.status_code in RETRYABLE_STATUSES:
            raise TransportError(
                f"{what} endpoint returned {resp.status_code}",
                retry_after=_retry_after(resp.headers),
            )
        if resp.status_code != 200:
            raise MalformedReplyError(f"{what} endpoint returned {resp.status_code}: {resp.text[:200]}")
        return resp

    def complete(self, request: ChatRequest, label: str) -> ChatResponse:
        body: dict = {
            "model": request.model,
            "temperature": 0,
            "messages": [
                {"role": "system", "content": request.system_prompt},
                {"role": "user", "content": request.user_prompt},
            ],
        }
        if request.thinking_disabled:
            body["thinking"] = {"type": "disabled"}
        resp = self._post("chat", "chat/completions", body)
        try:
            payload = resp.json()
            text = payload["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError, RecursionError) as exc:
            raise MalformedReplyError(f"unexpected chat response shape: {exc}") from exc
        usage = payload.get("usage") or {}
        if not isinstance(text, str):
            raise MalformedReplyError(f"chat reply content is not a string: {text!r:.80}")
        if not isinstance(usage, dict):
            raise MalformedReplyError(f"chat reply usage is not an object: {usage!r:.80}")
        return ChatResponse(
            text=text,
            prompt_tokens=_token_count(
                usage, "prompt_tokens", request.system_prompt, request.user_prompt
            ),
            output_tokens=_token_count(usage, "completion_tokens", text),
        )

    def embed(self, texts: list[str], model: str) -> list[list[float]]:
        resp = self._post("embedding", "embeddings", {"model": model, "input": texts})
        try:
            data = resp.json()["data"]
            return [item["embedding"] for item in data]
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise MalformedReplyError(f"unexpected embedding response shape: {exc}") from exc


class MockEmbeddingBackend:
    """Maps known texts to scripted vectors; unknown texts get a
    deterministic hash-seeded unit vector so tests never need a network."""

    def __init__(self, vectors: dict[str, Sequence[float]] | None = None, dim: int = 8):
        self.vectors = dict(vectors or {})
        self.dim = dim

    @classmethod
    def from_script(cls, script: dict) -> "MockEmbeddingBackend":
        """A backend answering from the "embedding_dim" and "embeddings" of
        a parsed mock script. Raises ConfigError when either is malformed."""
        dim, vectors = script.get("embedding_dim", 8), script.get("embeddings", {})
        if type(dim) is not int or dim < 1:
            raise ConfigError("mock script 'embedding_dim' must be a positive integer")
        if not isinstance(vectors, dict) or not all(
            isinstance(vec, list) and len(vec) == dim and all(map(NUMBER[0], vec))
            for vec in vectors.values()
        ):
            raise ConfigError(f"mock script 'embeddings' must map texts to lists of {dim} numbers")
        return cls(vectors=vectors, dim=dim)

    def _fallback(self, text: str) -> list[float]:
        import hashlib

        import numpy as np

        seed = int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")
        rng = np.random.default_rng(seed)
        vec = rng.standard_normal(self.dim)
        return list(vec)

    def embed(self, texts: list[str], model: str) -> list[list[float]]:
        return [list(self.vectors[t]) if t in self.vectors else self._fallback(t) for t in texts]


# Most workers one gateway or eval run may have. This package's choice, about
# 13 times the default of 20: it bounds the pool threads that a gateway's
# first pooled map starts, eval's query threads and the HTTP connection pool.
MAX_WORKERS = 256


def check_limits(workers: int, retries: int = 1, retry_backoff: float = 0.0) -> None:
    """The one rule for a run's limits, wherever they are set: raises
    ConfigError unless 1 <= workers <= MAX_WORKERS, retries >= 1 and
    retry_backoff is a finite number >= 0."""
    if not 1 <= workers <= MAX_WORKERS:
        raise ConfigError(f"workers must be >= 1 and <= {MAX_WORKERS}, not {workers!r}")
    if retries < 1:
        raise ConfigError("retries must be >= 1")
    if not (math.isfinite(retry_backoff) and retry_backoff >= 0):
        raise ConfigError(f"retry_backoff must be a finite number >= 0, not {retry_backoff!r}")


def _serve(jobs: queue.SimpleQueue) -> None:
    """A pool thread: runs jobs until it takes None. It holds no reference
    to the gateway. Pool threads are daemon threads because the interpreter
    joins the others at exit before it runs the gateway's finalizers, which
    are what send the None."""
    while (job := jobs.get()) is not None:
        job()
        del job  # an idle thread must not keep its last map, or the gateway, alive


class LlmGateway:
    """Front door for all chat and embedding traffic.

    ``workers`` caps the backend calls in flight across every caller of one
    gateway: each chat or embedding attempt holds one of ``workers`` permits.
    ``check_limits`` refuses a ``workers`` outside 1..MAX_WORKERS or a
    ``retries`` below 1 with a ConfigError.
    A ``run_parallel`` map runs on its caller's thread, helped by at most
    ``workers - 1`` jobs on one queue that every map shares, nested maps
    included. Its ``workers`` pool threads start together with the
    gateway's first pooled map, hold no reference to the gateway and exit
    once it is collected.
    """

    def __init__(
        self,
        chat_backend=None,
        embedding_backend=None,
        *,
        chat_model: str = "mock-chat",
        embedding_model: str = "mock-embed",
        retries: int = 3,
        retry_backoff: float = 1.0,
        cache_dir: str | Path | None = None,
        workers: int = 20,
    ) -> None:
        # Any retry_backoff is safe here, an infinite one included:
        # MAX_RETRY_AFTER_S caps every wait.
        check_limits(workers, retries)
        self.chat_backend = chat_backend
        self.embedding_backend = embedding_backend
        self.chat_model = chat_model
        self.embedding_model = embedding_model
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.workers = workers
        self._permits = threading.BoundedSemaphore(self.workers)
        self._jobs: queue.SimpleQueue | None = None  # the pool's, once started
        self._pool_lock = threading.Lock()

    def _call_backend(self, what: str, label: str, call: Callable[[], T]) -> T:
        """One backend call, holding a permit during each attempt. Transport
        errors retry after max(exponential backoff, Retry-After), capped at
        MAX_RETRY_AFTER_S, sleeping without a permit. No local keeps an
        error, whose traceback holds this frame: no cycle pins the gateway."""
        for attempt in range(self.retries):
            try:
                with self._permits:
                    return call()
            except TransportError as exc:
                if attempt + 1 == self.retries:
                    raise TransportError(
                        f"{what} failed after {self.retries} attempts: {exc}"
                    ) from exc
                # 2.0 ** attempt overflows past 1023, so the exponent
                # stops there; no retries count can raise OverflowError.
                backoff = self.retry_backoff * 2.0 ** min(attempt, 1023)
                delay = min(max(backoff, exc.retry_after or 0.0), MAX_RETRY_AFTER_S)
                # str(exc), not exc: a handler that keeps the record would
                # keep the error, its traceback and so this frame's gateway.
                logger.warning(
                    "transport error on %s (attempt %d/%d): %s",
                    label, attempt + 1, self.retries, str(exc),
                )
                if delay > 0:
                    time.sleep(delay)

    # -- chat ------------------------------------------------------------

    def chat(self, system_prompt: str, user_prompt: str, *, label: str) -> ChatResponse:
        if self.chat_backend is None:
            raise GatewayError("no chat backend configured")
        request = ChatRequest(
            system_prompt=system_prompt,
            user_prompt=user_prompt,
            model=self.chat_model,
            thinking_disabled=_thinking_disabled(self.chat_model),
        )
        response = self._call_backend(
            "chat", label, lambda: self.chat_backend.complete(request, label)
        )
        for meter in _SCOPES.get():
            meter.record(label, response.prompt_tokens, response.output_tokens)
        return response

    def ask(
        self,
        system_prompt: str,
        user_prompt: str,
        *,
        label: str,
        parse: Callable[[str], T],
        reask: Callable[[ReplyParseError], str],
    ) -> T:
        """One chat call whose reply text goes through parse.

        When parse raises ReplyParseError, the same prompt is asked once more
        with reask(error) appended. If that reply fails to parse too, its
        ReplyParseError propagates, with the first reply's error as its
        __cause__. Errors of the chat calls themselves propagate unchanged.
        """
        reply = self.chat(system_prompt, user_prompt, label=label).text
        try:
            return parse(reply)
        except ReplyParseError as exc:
            first = exc
        try:
            retry = self.chat(system_prompt, user_prompt + reask(first), label=label).text
            try:
                return parse(retry)
            except ReplyParseError as exc:
                raise exc from first
        finally:
            del first  # its traceback holds this frame: no cycle pins the gateway

    def select_indices(
        self, system_prompt: str, user_prompt: str, *, label: str, n_options: int
    ) -> SelectionResult:
        """Index-list chat with the one-re-ask-then-empty degradation policy."""
        try:
            indices, dropped = self.ask(
                system_prompt, user_prompt, label=label,
                parse=lambda text: parse_index_list(text, n_options),
                reask=lambda _: STRICT_REPLY_SUFFIX,
            )
        except ReplyParseError:
            logger.warning("index reply unparseable after re-ask (%s); selecting nothing", label)
            return SelectionResult(indices=(), dropped=0, parse_failed=True)
        return SelectionResult(indices=tuple(sorted(indices)), dropped=dropped, parse_failed=False)

    def chat_json(self, system_prompt: str, user_prompt: str, *, label: str) -> dict | None:
        """JSON-object chat with one re-ask; None when both replies are junk."""
        try:
            return self.ask(
                system_prompt, user_prompt, label=label,
                parse=extract_json_object, reask=lambda _: JSON_REPLY_SUFFIX,
            )
        except ReplyParseError as exc:
            logger.warning("JSON reply unparseable after re-ask (%s): %s", label, str(exc.__cause__))
            return None

    # -- embeddings ------------------------------------------------------

    def _cache_key(self, model: str, text: str) -> str:
        import hashlib

        return hashlib.sha256(f"{model}\x00{text}".encode("utf-8")).hexdigest()

    def _cache_load(self, key: str) -> np.ndarray | None:
        if self.cache_dir is None:
            return None
        import numpy as np

        path = self.cache_dir / f"{key}.npy"
        try:
            return np.load(path)
        except FileNotFoundError:  # a miss
            return None
        except (OSError, ValueError, EOFError) as exc:
            logger.warning("unreadable embedding cache entry %s (%s)", path, str(exc))
            return None

    def _cache_store(self, key: str, vec: np.ndarray) -> None:
        """Renders the entry's .npy bytes in memory for ``write_atomic``, so a
        reader never sees a partly written entry and a failed write raises
        DataError naming it, leaving no temporary file."""
        if self.cache_dir is not None:
            import numpy as np

            buffer = io.BytesIO()
            np.save(buffer, vec)
            write_atomic({self.cache_dir / f"{key}.npy": buffer.getvalue()})

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        """The unit-norm vector of each text under the gateway's embedding
        model. A call sends each distinct text at most once; only
        ``cache_dir`` keeps vectors across calls.

        Cache misses go to the backend EMBED_BATCH_SIZE texts per request,
        the batches in parallel on the gateway's pool. Each batch is cached
        as it returns, so a failed batch does not discard the others. The
        vectors returned, cached or new, must all have one dimension."""
        if self.embedding_backend is None:
            raise GatewayError("no embedding backend configured")
        model = self.embedding_model  # part of each cache key
        texts = list(texts)
        resolved: dict[str, np.ndarray] = {}
        misses: list[str] = []
        for text in dict.fromkeys(texts):  # each distinct text once, in order
            cached = self._cache_load(self._cache_key(model, text))
            if cached is not None:
                resolved[text] = cached
            else:
                misses.append(text)

        def embed_batch(batch: list[str]) -> list[np.ndarray]:
            raw = self._call_backend(
                "embedding", "embed", lambda: self.embedding_backend.embed(batch, model)
            )
            if len(raw) != len(batch):
                raise MalformedReplyError(
                    f"embedding backend returned {len(raw)} vectors for {len(batch)} texts"
                )
            vectors = [l2_normalize(values) for values in raw]
            for text, vec in zip(batch, vectors):
                self._cache_store(self._cache_key(model, text), vec)
            return vectors

        batches = [misses[i : i + EMBED_BATCH_SIZE] for i in range(0, len(misses), EMBED_BATCH_SIZE)]
        for batch, vectors in zip(batches, self.run_parallel(embed_batch, batches)):
            resolved.update(zip(batch, vectors))
        dims = {len(vec) for vec in resolved.values()}
        if len(dims) > 1:
            raise MalformedReplyError(f"inconsistent embedding dimensions {sorted(dims)}")
        return [resolved[t] for t in texts]

    # -- concurrency -----------------------------------------------------

    def _helpers(self) -> queue.SimpleQueue:
        """The pool's job queue; the first call starts its threads."""
        with self._pool_lock:
            if self._jobs is None:
                jobs: queue.SimpleQueue = queue.SimpleQueue()
                for i in range(self.workers):
                    threading.Thread(
                        target=_serve, args=(jobs,),
                        name=f"taxonav-gateway_{i}", daemon=True,
                    ).start()
                    weakref.finalize(self, jobs.put, None)  # the thread's stop, once self goes
                self._jobs = jobs
            return self._jobs

    def run_parallel(self, fn: Callable, items: Sequence) -> list:
        """Maps fn over items; results in input order.

        The calling thread takes items itself, from an index cursor it
        shares with at most min(workers, len(items)) - 1 helper jobs on the
        gateway's pool. Each helper runs in one copy of the caller's
        context, so the caller's metered() scopes count its calls, and
        takes the next index until none is left or an item has failed. When
        the caller's own share runs out it closes the map, so a helper that
        starts later returns at once, and waits only for the helpers still
        running an item. A map never waits for a pool thread that has
        nothing left to do, and a map of any length keeps O(workers) state.

        One item or one worker runs inline. A map started from inside
        another map's item, at any depth and on any thread, queues helpers
        like any other map, and cannot deadlock: its caller drains its items
        itself, and a thread only ever waits for helpers that are running
        one of its items, never for a queued job to start. Each of those
        items is deeper in the nesting than the thread waiting on it, so no
        cycle of waits can form. After a failure no further item starts;
        once the started ones finish, the exception of the earliest failed
        item is raised.
        """
        items = list(items)
        if self.workers <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        results: list = [None] * len(items)
        errors: dict[int, BaseException] = {}
        lock = threading.Lock()
        cursor = iter(range(len(items)))
        running, closed = 0, False  # helpers inside drain; no helper may start
        finished = threading.Lock()  # released once closed with no helper running
        finished.acquire()

        def drain() -> None:
            while True:
                with lock:
                    index = None if errors else next(cursor, None)
                if index is None:
                    return
                try:
                    results[index] = fn(items[index])
                except BaseException as exc:  # raised again in the calling thread
                    with lock:
                        errors[index] = exc
                    return

        def helper() -> None:
            nonlocal running
            with lock:
                if closed:
                    return
                running += 1
            try:
                drain()
            finally:
                with lock:
                    running -= 1
                    last = closed and not running
                if last:
                    finished.release()

        jobs = self._helpers()
        for _ in range(min(self.workers, len(items)) - 1):
            jobs.put(functools.partial(contextvars.copy_context().run, helper))
        try:
            drain()
        finally:
            with lock:
                closed = True
                wait = running > 0
            if wait:
                finished.acquire()
        if errors:
            try:
                raise errors[min(errors)]
            finally:  # the frames in its traceback reach errors: no cycle
                errors.clear()
        return results
