import dataclasses
import hashlib
import json
import os
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discotrace import BackendSpec, ChatRequest, complete, embed, gateway, request_digest
from discotrace.errors import AuthError, EmbeddingDimensionMismatch, FixtureMiss, TransportError
from discotrace.gateway import append_fixture, load_fixture, text_digest
from discotrace.prompts import PromptHead


def make_request(user="hello"):
    return ChatRequest(system="sys", user=user, model_name="test-model")


def test_digest_stable_and_input_sensitive():
    assert request_digest(make_request()) == request_digest(make_request())
    assert request_digest(make_request()) != request_digest(make_request("other"))


def full_digest(request):
    canonical = json.dumps(
        {"system": request.system, "user": request.user, "model_name": request.model_name,
         "temperature": request.temperature, "max_tokens": request.max_tokens},
        sort_keys=True, ensure_ascii=False,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def test_digest_golden():
    # Fixtures recorded by earlier versions are keyed by this form; it must not move.
    request = ChatRequest(
        system='sys "q" \\\\ \n\t\x00\x1f\x7f é 𝄞',
        user='Question\nwhy "x"?\\\\ \r\u2028 \x0b 😀 end',
        model_name="m-1", temperature=-0.0, max_tokens=7,
    )
    golden = "5d82e3ece91866da3fe9795cca3ab3a38100486edd2e08562c02fa2d45323643"
    assert request_digest(request) == golden
    for split in (0, 9, len(request.user) - 1):
        head = PromptHead(request.system, request.user[:split], "m-1", -0.0, 7)
        assert request_digest(head.request(request.user[split:])) == golden


_CHARS = st.one_of(
    st.sampled_from('"\\\n\r\t\x7f'),
    st.characters(max_codepoint=0x1F),
    st.characters(min_codepoint=0x80, max_codepoint=0x2FFF),
    st.characters(min_codepoint=0x10000, max_codepoint=0x1FAFF),
    st.characters(),
)
_TEXT = st.text(_CHARS, min_size=1, max_size=30)


@settings(max_examples=300, deadline=None)
@given(
    system=_TEXT, user=_TEXT, other_tail=_TEXT, split=st.integers(0, 30),
    max_tokens=st.one_of(st.none(), st.integers(0, 10**6)),
    temperature=st.sampled_from([0.0, -0.0, 0.01, 1, 1.0]),
)
def test_head_digest_equals_full_digest(system, user, other_tail, split, max_tokens,
                                        temperature):
    split = min(split, len(user))
    head = PromptHead(system, user[:split], "model", temperature, max_tokens)
    for tail in (user[split:] or "x", other_tail):  # the head's state is reused
        request = head.request(tail)
        assert request_digest(request) == full_digest(request)
    assert head.digest_state is not None


def test_mismatched_head_falls_back_to_full_digest():
    head = PromptHead("sys", "Question\nQ?\n\n", "model", 1, None)
    request = head.request("Segment\nS")
    assert request_digest(request) == full_digest(request)
    stale = [
        dataclasses.replace(request, system="other"),
        dataclasses.replace(request, model_name="other"),
        dataclasses.replace(request, max_tokens=5),
        dataclasses.replace(request, user="Question\nR?\n\nSegment\nS"),
        dataclasses.replace(request, user="Question"),
    ] + [dataclasses.replace(request, temperature=t) for t in (1.0, True)]
    zero = PromptHead("sys", "Question\n", "model", 0.0).request("S")
    stale.append(dataclasses.replace(zero, temperature=-0.0))
    for changed in stale:
        assert changed.head is not None
        assert request_digest(changed) == full_digest(changed)
    assert len({request_digest(r) for r in stale}) == len(stale)


def test_append_fixture_keeps_the_cache_current(tmp_path, monkeypatch):
    fixture = tmp_path / "fixture.jsonl"
    fixture.write_text("")
    reads = []

    def counting_open(path, mode="r", *args, **kwargs):
        if "r" in mode:
            reads.append(path)
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(gateway, "open", counting_open, raising=False)
    for i in range(40):
        entries = load_fixture(str(fixture))
        assert all(entries[f"d{j}"] == f"r{j}" for j in range(i))
        append_fixture(fixture, f"d{i}", f"r{i}")
    entries = load_fixture(str(fixture))
    assert reads == [str(fixture)]
    assert entries == {f"d{i}": f"r{i}" for i in range(40)}

    # A file changed behind the cache's back is read again in full.
    with open(fixture, "a") as handle:
        handle.write(json.dumps({"request_digest": "x", "response_text": "y"}) + "\n")
    os.utime(fixture, (0, 0))
    append_fixture(fixture, "d40", "r40")
    assert load_fixture(str(fixture))["x"] == "y"
    assert len(reads) == 2


def test_fixture_cache_drops_deleted_files(tmp_path, monkeypatch):
    monkeypatch.setattr(gateway, "_fixture_cache", {})
    for i in range(20):
        fixture = tmp_path / f"fixture{i}.jsonl"
        append_fixture(fixture, "d", f"r{i}")
        assert load_fixture(str(fixture)) == {"d": f"r{i}"}
        fixture.unlink()
    live = tmp_path / "live.jsonl"
    append_fixture(live, "d", "live")
    assert load_fixture(str(live)) == {"d": "live"}
    assert list(gateway._fixture_cache) == [str(live)]


def test_mock_replay(tmp_path):
    fixture = tmp_path / "fixture.jsonl"
    request = make_request()
    append_fixture(fixture, request_digest(request), "NONE")
    backend = BackendSpec(kind="mock", fixture_path=str(fixture))
    assert complete(backend, request) == "NONE"
    # Byte-stable across calls.
    assert complete(backend, request) == "NONE"


def test_mock_fixture_miss_reports_digest(tmp_path):
    fixture = tmp_path / "fixture.jsonl"
    fixture.write_text("")
    backend = BackendSpec(kind="mock", fixture_path=str(fixture))
    request = make_request()
    with pytest.raises(FixtureMiss) as excinfo:
        complete(backend, request)
    assert excinfo.value.digest == request_digest(request)
    assert excinfo.value.request == request


def test_mock_embedding(tmp_path):
    fixture = tmp_path / "emb.jsonl"
    append_fixture(fixture, text_digest("emb-model", "a"), "[1.0, 0.0]")
    append_fixture(fixture, text_digest("emb-model", "b"), "[0.0, 1.0]")
    backend = BackendSpec(kind="mock", model="emb-model", fixture_path=str(fixture))
    assert embed(backend, ["a", "b"]) == [[1.0, 0.0], [0.0, 1.0]]


def test_mock_embedding_dimension_mismatch(tmp_path):
    fixture = tmp_path / "emb.jsonl"
    append_fixture(fixture, text_digest("emb-model", "a"), "[1.0, 0.0]")
    append_fixture(fixture, text_digest("emb-model", "b"), "[0.0, 1.0, 0.0]")
    backend = BackendSpec(kind="mock", model="emb-model", fixture_path=str(fixture))
    with pytest.raises(EmbeddingDimensionMismatch):
        embed(backend, ["a", "b"])


def test_backend_spec_validation():
    with pytest.raises(ValueError):
        BackendSpec(kind="weird")
    with pytest.raises(ValueError):
        BackendSpec(max_in_flight=0)
    with pytest.raises(ValueError):
        BackendSpec(retry_limit=-1)


class _StubHandler(BaseHTTPRequestHandler):
    responses = []  # list of (status, payload) consumed per request; bytes go out raw
    seen = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        _StubHandler.seen.append(json.loads(self.rfile.read(length)))
        status, payload = _StubHandler.responses.pop(0)
        body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _StubHandler.responses = []
    _StubHandler.seen = []
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


def _chat_payload(text):
    return {"choices": [{"message": {"content": text}}]}


def test_live_round_trip(stub_server):
    # Recorded-cassette style: stub returns the single-action array verbatim.
    recorded = '[{"action_id": "action_AQ_assert_answer"}]'
    _StubHandler.responses = [(200, _chat_payload(recorded))]
    backend = BackendSpec(kind="live", endpoint=stub_server, retry_limit=0)
    assert complete(backend, make_request()) == recorded
    sent = _StubHandler.seen[0]
    assert sent["model"] == "test-model"
    assert sent["temperature"] == 0.01
    assert [m["role"] for m in sent["messages"]] == ["system", "user"]


def test_live_retries_then_succeeds(stub_server, monkeypatch):
    monkeypatch.setattr("discotrace.gateway.time.sleep", lambda s: None)
    _StubHandler.responses = [(500, {}), (200, _chat_payload("ok"))]
    backend = BackendSpec(kind="live", endpoint=stub_server, retry_limit=2)
    assert complete(backend, make_request()) == "ok"
    assert len(_StubHandler.seen) == 2


def test_live_exhausted_retries(stub_server, monkeypatch):
    monkeypatch.setattr("discotrace.gateway.time.sleep", lambda s: None)
    _StubHandler.responses = [(500, {})] * 3
    backend = BackendSpec(kind="live", endpoint=stub_server, retry_limit=2)
    with pytest.raises(TransportError):
        complete(backend, make_request())


def test_live_non_json_reply_is_retried(stub_server, monkeypatch):
    monkeypatch.setattr("discotrace.gateway.time.sleep", lambda s: None)
    _StubHandler.responses = [(200, b"<html>bad gateway</html>"), (200, _chat_payload("ok"))]
    backend = BackendSpec(kind="live", endpoint=stub_server, retry_limit=2)
    assert complete(backend, make_request()) == "ok"
    assert len(_StubHandler.seen) == 2

    _StubHandler.responses = [(200, b"not json")] * 3
    with pytest.raises(TransportError, match="not JSON"):
        complete(backend, make_request())
    assert len(_StubHandler.seen) == 5


def test_live_auth_error(stub_server):
    _StubHandler.responses = [(401, {})]
    backend = BackendSpec(kind="live", endpoint=stub_server, retry_limit=2)
    with pytest.raises(AuthError):
        complete(backend, make_request())


def test_live_auth_header(stub_server, monkeypatch):
    monkeypatch.setenv("TEST_TOKEN", "sekret")
    _StubHandler.responses = [(200, _chat_payload("ok"))]
    backend = BackendSpec(kind="live", endpoint=stub_server, auth_env="TEST_TOKEN")

    # The header is applied client-side; verify through requests' view.
    import requests

    captured = {}
    original = requests.post

    def spy(url, **kwargs):
        captured.update(kwargs.get("headers") or {})
        return original(url, **kwargs)

    # The gateway imports requests on its first POST and looks up requests.post then.
    monkeypatch.setattr(requests, "post", spy)
    complete(backend, make_request())
    assert captured["Authorization"] == "Bearer sekret"


def test_live_missing_auth_env(stub_server):
    backend = BackendSpec(kind="live", endpoint=stub_server, auth_env="NO_SUCH_VAR_XYZ")
    with pytest.raises(AuthError):
        complete(backend, make_request())


def test_live_embedding(stub_server):
    _StubHandler.responses = [
        (200, {"data": [{"embedding": [0.1, 0.2]}, {"embedding": [0.3, 0.4]}]})
    ]
    backend = BackendSpec(kind="live", endpoint=stub_server, model="emb", retry_limit=0)
    assert embed(backend, ["x", "y"]) == [[0.1, 0.2], [0.3, 0.4]]
    assert _StubHandler.seen[0] == {"model": "emb", "input": ["x", "y"]}
