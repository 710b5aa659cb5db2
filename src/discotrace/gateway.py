"""HTTP chat-completion and embedding backends, plus a mock replay backend.

This is the only module that performs network I/O or asks a request again.
Live backends speak an OpenAI-style wire format with a configurable auth
header over the standard library's ``urllib.request``, imported on the first
live POST, one connection per POST.
They retry transient failures with exponential backoff, and re-ask a reply
that fails to parse. Inside :func:`in_flight`, a live request holds one of its
endpoint's slots only while it is on the wire, never while it backs off or is
asked again, and a block whose live requests all failed raises ``TransportError``
as it exits. :func:`ask` judges every chat reply read: tags, interpretations,
pairings and mimic answers. It returns the parsed reply, or raises the failure
with ``asks`` set. Mock backends replay recorded fixtures: JSONL lines of
``{"request_digest": ..., "response_text": ...}`` keyed by a SHA-256
digest of the request's canonical JSON, so replays are deterministic and
byte-stable. A request built from a per-answer prompt head hashes only its
own tail after the head, and the prefix that every head of one system,
model, temperature and ``max_tokens`` shares is hashed once per process.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import hashlib
import json
import math
import os
import threading
import time
from dataclasses import dataclass
from json.encoder import encode_basestring  # json.dumps(s, ensure_ascii=False), no encoder built
from typing import Optional
from urllib.parse import urlsplit

from .corpus import INPUT_ERRORS, input_error, read_fields, read_lines, typed
from .errors import (
    AuthError, EmbeddingDimensionMismatch, FixtureMiss, TransportError, UnparsableResponse,
)
from .prompts import ChatRequest, PromptHead

CONTENT_PATH = ("choices", 0, "message", "content")  # a chat reply's text
EMBEDDING_PATH = ("data",)  # a list of ``{"embedding": [...]}``, one per input text
# The fields only a live backend reads; a mock reads kind, name, model and fixture_path.
_LIVE_FIELDS = ("endpoint", "auth_header", "auth_template", "auth_env", "max_in_flight",
                "retry_limit")


@dataclass(frozen=True)
class BackendSpec:
    """Configuration for one chat-completion or embedding service."""

    kind: str = "mock"  # "live" | "mock"
    name: str = "backend"
    model: str = "mock-model"
    endpoint: str = ""
    auth_header: str = "Authorization"
    auth_template: str = "Bearer {token}"
    auth_env: Optional[str] = None
    fixture_path: Optional[str] = None
    # live: at most this many requests on the wire at once to the endpoint in a batch
    # (the least among the batch's backends there); one backing off holds no slot
    max_in_flight: int = 4
    retry_limit: int = 3

    def __post_init__(self):
        if self.kind not in ("live", "mock"):
            raise ValueError(f"kind must be 'live' or 'mock', got {self.kind!r}")
        if self.kind == "live" and not self.endpoint:
            raise ValueError("a live backend needs an endpoint")
        url = urlsplit(self.endpoint)
        if self.kind == "live" and (url.scheme not in ("http", "https") or not url.hostname):
            raise ValueError(f"a live endpoint must be an http:// or https:// URL with a "
                             f"host, not {self.endpoint!r}")
        try:
            url.port  # raises on a port that is not a number in 0-65535
        except ValueError:
            raise ValueError(f"an endpoint's port must be a number in 0-65535, not "
                             f"{self.endpoint!r}") from None
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if self.retry_limit < 0:
            raise ValueError("retry_limit must be >= 0")

    @classmethod
    def from_dict(cls, doc: dict) -> "BackendSpec":
        """A backend from its config entry, which sets only the fields its kind reads: a
        mock none of ``_LIVE_FIELDS``, a live backend no ``fixture_path``."""
        kind = doc.get("kind", cls.kind)
        unread = _LIVE_FIELDS if kind == "mock" else ("fixture_path",) if kind == "live" else ()
        for key in doc:
            if key in unread:
                raise ValueError(f"a {kind} backend does not read {key!r}")
        return read_fields(cls, doc)


def _canonical(request) -> str:
    """Canonical JSON of a :class:`ChatRequest` or a :class:`PromptHead`."""
    return json.dumps(
        {
            "system": request.system,
            "user": request.user,
            "model_name": request.model_name,
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        },
        sort_keys=True,
        ensure_ascii=False,
    )


@functools.lru_cache(maxsize=64)
def _prefix_state(system: str, values: str):
    """SHA-256 state of the canonical JSON of a request with ``system`` and ``values``, the
    JSON text of ``[model_name, temperature, max_tokens]``, up to the '"' that opens "user".
    It is keyed by that text, not by the values: ``1``, ``1.0`` and ``True`` are equal in
    Python but serialise differently. Callers copy it."""
    prefix = _canonical(PromptHead(system, "", *json.loads(values)))[:-2]
    return hashlib.sha256(prefix.encode("utf-8", "surrogatepass"))


def request_digest(request: ChatRequest) -> str:
    """Stable SHA-256 digest of a chat request's canonical JSON form. "user" is its
    last key and JSON escapes one character at a time, so a request built by a
    ``PromptHead`` hashes only the rest of ``user``, on a copy of the head's state, and
    the head's state starts from a copy of the prefix before "user", hashed once per
    process for each system, model, temperature and ``max_tokens``.
    Text is encoded with ``surrogatepass``: JSON input can carry a lone surrogate."""
    head = request.head
    if head is None:
        return hashlib.sha256(_canonical(request).encode("utf-8", "surrogatepass")).hexdigest()
    if head.digest_state is None:  # the head's canonical form, less its closing '"}'
        values = json.dumps([head.model_name, head.temperature, head.max_tokens])
        state = _prefix_state(head.system, values).copy()
        state.update(encode_basestring(head.user)[1:-1].encode("utf-8", "surrogatepass"))
        object.__setattr__(head, "digest_state", state)
    state = head.digest_state.copy()
    tail = encode_basestring(request.user[len(head.user):])
    state.update((tail[1:] + "}").encode("utf-8", "surrogatepass"))
    return state.hexdigest()


def text_digest(model: str, text: str) -> str:
    """Digest keying one embedding input in a mock fixture: SHA-256 of the canonical JSON
    ``{"input": text, "model": model}``, written key by key as ``request_digest`` writes."""
    canonical = ('{"input": ' + encode_basestring(text)
                 + ', "model": ' + encode_basestring(model) + "}")
    return hashlib.sha256(canonical.encode("utf-8", "surrogatepass")).hexdigest()


_fixture_cache: dict[str, tuple[float, dict[str, str]]] = {}
_fixture_lock = threading.Lock()  # held to read a fixture file or change the cache


def load_fixture(path: str) -> dict[str, str]:
    """Load (and cache by the path as given, until its mtime changes) a
    fixture file mapping digest -> response text. Threads that miss the
    cache together read the file once. Each read also drops the cached
    files that no longer exist, and reads the file by ``corpus.read_lines``
    as ``fixture <path>``: each line a JSON object with a text
    ``request_digest`` and ``response_text``."""
    key = os.fspath(path)
    mtime = os.path.getmtime(key)
    cached = _fixture_cache.get(key)
    if cached is None or cached[0] != mtime:
        with _fixture_lock:
            cached = _fixture_cache.get(key)
            if cached is None or cached[0] != mtime:
                for other in list(_fixture_cache):
                    if not os.path.exists(other):
                        del _fixture_cache[other]
                cached = _fixture_cache[key] = (mtime, _read_fixture(key))
    return cached[1]


def _read_fixture(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8") as handle:
        return dict(read_lines(handle, f"fixture {path}", lambda record: (
            typed(record, "request_digest", str), typed(record, "response_text", str))))


def append_fixture(path: str, digest: str, response_text: str) -> None:
    """Record one response in a fixture file (test/recording helper). A cached
    copy that was current before the append takes the new entry in place."""
    key = os.fspath(path)
    with _fixture_lock:
        with open(key, "a", encoding="utf-8") as handle:
            before = os.fstat(handle.fileno()).st_mtime
            handle.write(json.dumps(
                {"request_digest": digest, "response_text": response_text},
                ensure_ascii=False,
            ) + "\n")
        cached = _fixture_cache.pop(key, None)
        if cached is not None and cached[0] == before:
            cached[1][digest] = response_text
            _fixture_cache[key] = (os.path.getmtime(key), cached[1])


def _mock_entries(backend: BackendSpec) -> dict[str, str]:
    if not backend.fixture_path:
        raise ValueError("mock backend requires fixture_path")
    return load_fixture(backend.fixture_path)


def _auth_headers(backend: BackendSpec) -> dict[str, str]:
    if not backend.auth_env:
        return {}
    token = os.environ.get(backend.auth_env)
    if token is None:
        raise AuthError(f"environment variable {backend.auth_env!r} is not set")
    return {backend.auth_header: backend.auth_template.format(token=token)}


def _extract(payload, path):
    value = payload
    for key in path:
        value = value[key]
    return value


class _Slots:
    """At most ``n`` holders at once, and a released slot goes to the longest waiter. Under
    a plain semaphore the releasing thread can take its slot straight back for its next
    record, so a waiting record starves and holds back the batch's in-order output."""

    def __init__(self, n: int):
        self._free = n
        self._waiters: collections.deque = collections.deque()
        self._lock = threading.Lock()

    def __enter__(self):
        with self._lock:
            if self._free:
                self._free -= 1
                return
            turn = threading.Lock()
            turn.acquire()
            self._waiters.append(turn)
        turn.acquire()  # released by the holder that hands this waiter its slot

    def __exit__(self, *exc):
        with self._lock:
            if self._waiters:
                self._waiters.popleft().release()
            else:
                self._free += 1


_slots: dict[str, _Slots] = {}
_outcomes: Optional[list[bool]] = None  # per block: whether each live POST got a reply


@contextlib.contextmanager
def in_flight(backends):
    """Limit the live POSTs made inside the block, per endpoint, to the smallest
    ``max_in_flight`` among the live ``backends`` that name it; yield the number of
    slots over all endpoints, 0 when none is live. Other endpoints are not limited.
    If the block made live POSTs and each ended in ``TransportError``, a normal exit
    raises ``TransportError``: a total outage is a failure, not a degraded run. The
    slots and the outcomes are process-wide, and an inner block replaces them until
    it exits. A call outside any block is neither limited nor counted."""
    global _slots, _outcomes
    limits: dict[str, int] = {}
    for backend in backends:
        if backend.kind == "live":
            limits[backend.endpoint] = min(backend.max_in_flight,
                                           limits.get(backend.endpoint, backend.max_in_flight))
    outer = _slots, _outcomes
    _slots = {endpoint: _Slots(n) for endpoint, n in limits.items()}
    _outcomes = outcomes = []
    try:
        yield sum(limits.values())
    finally:
        _slots, _outcomes = outer
    if outcomes and not any(outcomes):
        raise TransportError(f"every backend call failed ({len(outcomes)} of {len(outcomes)})")


def _post_with_retries(backend: BackendSpec, body: dict):
    """POST with exponential backoff on transport failures, 5xx and non-JSON bodies.
    Each attempt holds an endpoint slot (:func:`in_flight`) only while it is on the
    wire. Inside a block, whether it got a reply counts toward the block's outage verdict."""
    from http.client import HTTPException  # only live backends pay for the HTTP stack
    from urllib.error import HTTPError
    from urllib.request import Request, urlopen

    request = Request(backend.endpoint, data=json.dumps(body, allow_nan=False).encode(),
                      headers={"Content-Type": "application/json", **_auth_headers(backend)})
    slot = _slots.get(backend.endpoint) or contextlib.nullcontext()
    outcomes = [] if _outcomes is None else _outcomes  # outside a block, a throwaway list
    last_error = ""  # the reason only: a caught exception's traceback holds this frame
    for attempt in range(backend.retry_limit + 1):
        if attempt:
            time.sleep(min(0.5 * 2 ** (attempt - 1), 8.0))
        try:
            with slot:
                try:
                    with urlopen(request, timeout=60) as response:
                        status, data = response.status, response.read()
                except HTTPError as exc:  # a status, not a failure; closing frees the socket
                    with exc:
                        status, data = exc.code, exc.read()
        except (OSError, HTTPException) as exc:  # refused, reset, timed out, cut short
            last_error = str(exc)
            continue
        if status in (401, 403):
            raise AuthError(f"backend returned {status}")
        if status >= 500:
            last_error = f"backend returned {status}"
            continue
        if not 200 <= status < 300:
            outcomes.append(False)
            raise TransportError(f"backend returned {status}: "
                                 f"{data.decode('utf-8', 'replace')}")
        try:
            payload = json.loads(data)
        except ValueError as exc:  # a 2xx body that is not JSON is retried like a 5xx
            last_error = f"backend returned a body that is not JSON: {exc}"
            continue
        outcomes.append(True)
        return payload
    outcomes.append(False)
    raise TransportError(f"exhausted {backend.retry_limit} retries: {last_error}")


def complete(backend: BackendSpec, request: ChatRequest) -> str:
    """Return the assistant text for a chat request."""
    if backend.kind == "mock":
        entries = _mock_entries(backend)
        digest = request_digest(request)
        if digest not in entries:
            raise FixtureMiss(digest, request=request)
        return entries[digest]

    body = {
        "model": request.model_name,
        "temperature": request.temperature,
        "messages": [
            {"role": "system", "content": request.system},
            {"role": "user", "content": request.user},
        ],
    }
    if request.max_tokens is not None:
        body["max_tokens"] = request.max_tokens
    payload = _post_with_retries(backend, body)
    try:
        text = _extract(payload, CONTENT_PATH)
    except (KeyError, IndexError, TypeError):
        text = None
    if not isinstance(text, str):
        raise TransportError(f"response missing content at {CONTENT_PATH}")
    return text


def ask(backend: BackendSpec, request: ChatRequest, parse):
    """Complete and parse one request: return the parsed reply, or raise the last
    ``UnparsableResponse`` or ``TransportError`` with ``asks`` set to the number of
    ``complete`` calls made. Every model reply the pipeline reads is judged here.

    Only a live backend asks again, and only when a reply fails to parse, up
    to ``retry_limit`` times: a mock replays the same reply, and ``complete``
    has spent the retries on a transport failure. A fixture miss or an auth
    error raises without ``asks``. A caller keeps no failure past its ``except``: the
    traceback would hold the caller's frames, and so the whole answer, in a cycle.
    """
    limit = backend.retry_limit + 1 if backend.kind == "live" else 1
    for asks in range(1, limit + 1):
        try:
            return parse(complete(backend, request))
        except (UnparsableResponse, TransportError) as exc:
            exc.asks = asks
            if isinstance(exc, TransportError) or asks == limit:
                raise


def _is_number(x) -> bool:
    """A finite float, or an int that a float can hold (a bool is neither)."""
    try:
        return type(x) in (int, float) and math.isfinite(x)
    except OverflowError:  # an int too large for a float
        return False


def embed(backend: BackendSpec, texts: list[str]) -> list[list[float]]:
    """Return one vector of finite numbers per input text, all of one length. This is the
    only check of an embedding reply: any other reply, NaN and infinities included, raises
    ``EmbeddingDimensionMismatch``, a ``TransportError``, as a chat reply without text does."""
    if backend.kind == "mock":
        entries = _mock_entries(backend)
        vectors = []
        for text in texts:
            digest = text_digest(backend.model, text)
            if digest not in entries:
                raise FixtureMiss(digest)
            try:
                vectors.append(json.loads(entries[digest]))
            except INPUT_ERRORS as exc:
                raise input_error(f"fixture {backend.fixture_path}: digest {digest}", exc) from exc
    else:
        payload = _post_with_retries(backend, {"model": backend.model, "input": texts})
        try:
            vectors = [item["embedding"] for item in _extract(payload, EMBEDDING_PATH)]
        except (KeyError, IndexError, TypeError):
            vectors = None
    if not isinstance(vectors, list) or not all(
            isinstance(v, list) and all(map(_is_number, v)) for v in vectors):
        raise EmbeddingDimensionMismatch("embedding reply is not a list of number vectors")
    if len(vectors) != len(texts):
        raise EmbeddingDimensionMismatch(
            f"embedding reply has {len(vectors)} vectors for {len(texts)} texts")
    dims = {len(v) for v in vectors}
    if len(dims) > 1:
        raise EmbeddingDimensionMismatch(f"mixed embedding dimensions {sorted(dims)}")
    return vectors
