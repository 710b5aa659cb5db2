import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from discotrace import BackendSpec, ChatRequest, complete, embed, request_digest
from discotrace.errors import AuthError, EmbeddingDimensionMismatch, FixtureMiss, TransportError
from discotrace.gateway import append_fixture, text_digest


def make_request(user="hello"):
    return ChatRequest(system="sys", user=user, model_name="test-model")


def test_digest_stable_and_input_sensitive():
    assert request_digest(make_request()) == request_digest(make_request())
    assert request_digest(make_request()) != request_digest(make_request("other"))


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

    monkeypatch.setattr("discotrace.gateway.requests.post", spy)
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
