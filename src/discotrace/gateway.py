"""HTTP chat-completion and embedding backends, plus a mock replay backend.

This is the only module that performs network I/O. Live backends speak an
OpenAI-style wire format with a configurable auth header and response
content path, and retry transient failures with exponential backoff. Mock
backends replay recorded fixtures: JSONL lines of
``{"request_digest": ..., "response_text": ...}`` keyed by a SHA-256
digest of the request's canonical JSON, so replays are deterministic and
byte-stable. The digest is unchanged from earlier versions, but a request
built from a per-answer prompt head hashes only its own tail after the head.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from typing import Optional

from .errors import AuthError, EmbeddingDimensionMismatch, FixtureMiss, TransportError
from .prompts import ChatRequest

DEFAULT_CONTENT_PATH = ("choices", 0, "message", "content")
DEFAULT_EMBEDDING_PATH = ("data",)


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
    max_in_flight: int = 4
    retry_limit: int = 3
    content_path: tuple = DEFAULT_CONTENT_PATH

    def __post_init__(self):
        if self.kind not in ("live", "mock"):
            raise ValueError(f"kind must be 'live' or 'mock', got {self.kind!r}")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if self.retry_limit < 0:
            raise ValueError("retry_limit must be >= 0")

    @classmethod
    def from_dict(cls, doc: dict) -> "BackendSpec":
        doc = dict(doc)
        if "content_path" in doc:
            doc["content_path"] = tuple(doc["content_path"])
        return cls(**doc)


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


def request_digest(request: ChatRequest) -> str:
    """Stable SHA-256 digest of a chat request's canonical JSON form. "user" is
    its last key and JSON escapes one character at a time, so a request that
    still matches its ``head`` hashes only the rest of ``user``, on a copy of
    the head's state."""
    head = request.head
    # Identity, not ==: 0.0 == -0.0 and 1 == 1.0 == True, yet each dumps differently.
    if (head is None or request.system is not head.system
            or request.model_name is not head.model_name
            or request.temperature is not head.temperature
            or request.max_tokens is not head.max_tokens
            or not request.user.startswith(head.user)):
        return hashlib.sha256(_canonical(request).encode("utf-8")).hexdigest()
    if head.digest_state is None:  # the head's canonical form, less its closing '"}'
        state = hashlib.sha256(_canonical(head)[:-2].encode("utf-8"))
        object.__setattr__(head, "digest_state", state)
    state = head.digest_state.copy()
    tail = json.dumps(request.user[len(head.user):], ensure_ascii=False)
    state.update((tail[1:] + "}").encode("utf-8"))
    return state.hexdigest()


def text_digest(model: str, text: str) -> str:
    """Digest keying one embedding input in a mock fixture."""
    canonical = json.dumps({"model": model, "input": text}, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


_fixture_cache: dict[str, tuple[float, dict[str, str]]] = {}


def load_fixture(path: str) -> dict[str, str]:
    """Load (and cache by the path as given, until its mtime changes) a
    fixture file mapping digest -> response text. Each read also drops the
    cached files that no longer exist."""
    key = os.fspath(path)
    mtime = os.path.getmtime(key)
    cached = _fixture_cache.get(key)
    if cached is not None and cached[0] == mtime:
        return cached[1]
    for other in list(_fixture_cache):  # a snapshot: other threads may insert
        if not os.path.exists(other):
            _fixture_cache.pop(other, None)
    entries = {}
    with open(key, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            entries[record["request_digest"]] = record["response_text"]
    _fixture_cache[key] = (mtime, entries)
    return entries


def append_fixture(path: str, digest: str, response_text: str) -> None:
    """Record one response in a fixture file (test/recording helper). A cached
    copy that was current before the append takes the new entry in place."""
    key = os.fspath(path)
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


def _post_with_retries(backend: BackendSpec, body: dict):
    """POST with exponential backoff on transport failures, 5xx and non-JSON bodies."""
    import requests  # only live backends pay for the HTTP stack

    last_error = None
    for attempt in range(backend.retry_limit + 1):
        if attempt:
            time.sleep(min(0.5 * 2 ** (attempt - 1), 8.0))
        try:
            response = requests.post(
                backend.endpoint,
                json=body,
                headers=_auth_headers(backend),
                timeout=60,
            )
        except requests.RequestException as exc:
            last_error = exc
            continue
        if response.status_code in (401, 403):
            raise AuthError(f"backend returned {response.status_code}")
        if response.status_code >= 500:
            last_error = TransportError(f"backend returned {response.status_code}")
            continue
        if response.status_code >= 400:
            raise TransportError(f"backend returned {response.status_code}: {response.text}")
        try:
            return response.json()
        except ValueError as exc:  # a 2xx body that is not JSON is retried like a 5xx
            last_error = TransportError(f"backend returned a body that is not JSON: {exc}")
    raise TransportError(f"exhausted {backend.retry_limit} retries: {last_error}")


def complete(backend: BackendSpec, request: ChatRequest) -> str:
    """Return the assistant text for a chat request."""
    if backend.kind == "mock":
        if not backend.fixture_path:
            raise ValueError("mock backend requires fixture_path")
        entries = load_fixture(backend.fixture_path)
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
        return _extract(payload, backend.content_path)
    except (KeyError, IndexError, TypeError) as exc:
        raise TransportError(f"response missing content at {backend.content_path}") from exc


def embed(backend: BackendSpec, texts: list[str]) -> list[list[float]]:
    """Return one fixed-dimension vector per input text."""
    if backend.kind == "mock":
        if not backend.fixture_path:
            raise ValueError("mock backend requires fixture_path")
        entries = load_fixture(backend.fixture_path)
        vectors = []
        for text in texts:
            digest = text_digest(backend.model, text)
            if digest not in entries:
                raise FixtureMiss(digest)
            vectors.append(json.loads(entries[digest]))
    else:
        payload = _post_with_retries(backend, {"model": backend.model, "input": texts})
        data = _extract(payload, DEFAULT_EMBEDDING_PATH)
        vectors = [item["embedding"] for item in data]

    dims = {len(v) for v in vectors}
    if len(dims) > 1:
        raise EmbeddingDimensionMismatch(f"mixed embedding dimensions {sorted(dims)}")
    return vectors
