import contextlib
import dataclasses
import hashlib
import json
import os
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discotrace import BackendSpec, ChatRequest, complete, embed, gateway, request_digest
from discotrace.errors import AuthError, EmbeddingDimensionMismatch, FixtureMiss, TransportError
from discotrace.gateway import append_fixture, load_fixture, text_digest
from discotrace.prompts import PromptHead

from conftest import closed_port, http_stub


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
    return hashlib.sha256(canonical.encode("utf-8", "surrogatepass")).hexdigest()


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


def test_lone_surrogate_digests():
    # JSON input can carry one: json.loads('"\\ud800"') is a lone surrogate.
    lone = json.loads('"\\ud800"')
    for user, split in ((f"Q{lone}?\n", 2), (f"Q?\n{lone}", 3)):  # in the head, in the tail
        head = PromptHead(f"sys {lone}", user[:split], "model", 0.0, 7)
        request = head.request(user[split:])
        assert request_digest(request) == full_digest(request)
        assert request_digest(dataclasses.replace(request)) == full_digest(request)
    assert text_digest("m", lone) != text_digest("m", "\udc00")


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
        assert changed.head is None
        assert request_digest(changed) == full_digest(changed)
    assert len({request_digest(r) for r in stale}) == len(stale)


def test_only_a_prompt_head_sets_a_request_head():
    request = PromptHead("sys", "Question\n", "model").request("S")
    with pytest.raises(TypeError):
        ChatRequest("sys", "Question\nS", "model", head=request.head)
    with pytest.raises(ValueError):
        dataclasses.replace(request, head=request.head)


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


def test_workers_missing_the_cache_together_read_the_fixture_once(tmp_path, monkeypatch):
    fixture = tmp_path / "fixture.jsonl"
    fixture.write_text(json.dumps({"request_digest": "d", "response_text": "r"}) + "\n")
    monkeypatch.setattr(gateway, "_fixture_cache", {})
    reads = []

    def slow_counting_open(path, mode="r", *args, **kwargs):
        reads.append(path)
        time.sleep(0.05)  # hold the read open while the other threads arrive
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(gateway, "open", slow_counting_open, raising=False)
    barrier = threading.Barrier(8)
    results = []

    def load():
        barrier.wait()
        results.append(load_fixture(str(fixture)))

    threads = [threading.Thread(target=load) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert reads == [str(fixture)]
    assert len(results) == 8 and all(entries is results[0] for entries in results)
    assert results[0] == {"d": "r"}


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


def test_an_embedding_of_finite_numbers_passes_unchanged(tmp_path):
    fixture = tmp_path / "emb.jsonl"
    append_fixture(fixture, text_digest("emb-model", "a"), "[1, -1.7976931348623157e308, 0.5]")
    backend = BackendSpec(kind="mock", model="emb-model", fixture_path=str(fixture))
    [vector] = embed(backend, ["a"])
    assert vector == [1, -1.7976931348623157e308, 0.5] and type(vector[0]) is int


def test_backend_spec_validation():
    with pytest.raises(ValueError):
        BackendSpec(kind="weird")
    with pytest.raises(ValueError):
        BackendSpec(max_in_flight=0)
    with pytest.raises(ValueError):
        BackendSpec(retry_limit=-1)


def test_a_live_backend_needs_an_endpoint():
    with pytest.raises(ValueError, match="^a live backend needs an endpoint$"):
        BackendSpec(kind="live")
    assert BackendSpec(kind="mock").endpoint == ""


@pytest.mark.parametrize("endpoint", ["localhost:9/v1", "127.0.0.1:9", "ftp://host/v1",
                                      "http:///v1", "//host/v1"])
def test_a_live_endpoint_is_an_http_url_with_a_host(endpoint):
    with pytest.raises(ValueError, match="^a live endpoint must be an http:// or https:// "
                                         "URL with a host, not "):
        BackendSpec(kind="live", endpoint=endpoint)
    for good in ("http://127.0.0.1:9/v1", "https://api.example.com/v1/chat/completions"):
        assert BackendSpec(kind="live", endpoint=good).endpoint == good


class _StubHandler(BaseHTTPRequestHandler):
    # (status, payload[, headers]) consumed per request; bytes go out raw
    responses = []
    seen = []  # each request's JSON body
    headers_seen = []  # each request's headers, looked up without regard to case

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        _StubHandler.headers_seen.append(self.headers)
        _StubHandler.seen.append(json.loads(self.rfile.read(length)))
        status, payload, *headers = _StubHandler.responses.pop(0)
        body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        for name, value in (headers[0] if headers else {}).items():
            self.send_header(name, value)
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
    _StubHandler.headers_seen = []
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


def test_a_4xx_is_one_post_that_fails_with_its_body(stub_server, monkeypatch):
    sleeps = []
    monkeypatch.setattr("discotrace.gateway.time.sleep", sleeps.append)
    _StubHandler.responses = [(404, b"no such model: \xff")]
    backend = BackendSpec(kind="live", endpoint=stub_server, retry_limit=2)
    with pytest.raises(TransportError, match=r"^every backend call failed \(1 of 1\)$"):
        with gateway.in_flight([backend]):
            with pytest.raises(TransportError,
                               match="^backend returned 404: no such model: \ufffd$"):
                complete(backend, make_request())
    assert len(_StubHandler.seen) == 1
    assert sleeps == []


@pytest.mark.parametrize("status", [307, 308])
def test_a_redirected_post_is_not_followed(stub_server, status):
    _StubHandler.responses = [(status, b"moved", {"Location": f"{stub_server}/elsewhere"}),
                              (200, _chat_payload("ok"))]
    backend = BackendSpec(kind="live", endpoint=stub_server, retry_limit=2)
    with pytest.raises(TransportError, match=f"^backend returned {status}: moved$"):
        complete(backend, make_request())
    assert len(_StubHandler.seen) == 1


def test_a_refused_connection_is_retried_then_a_transport_error(monkeypatch):
    sleeps, attempts = [], []
    monkeypatch.setattr("discotrace.gateway.time.sleep", sleeps.append)
    connect = socket.socket.connect

    def counted(sock, address):
        attempts.append(address)
        return connect(sock, address)

    monkeypatch.setattr(socket.socket, "connect", counted)
    port = closed_port()
    backend = BackendSpec(kind="live", endpoint=f"http://127.0.0.1:{port}/v1", retry_limit=2)
    with pytest.raises(TransportError, match=r"^every backend call failed \(1 of 1\)$"):
        with gateway.in_flight([backend]):
            with pytest.raises(TransportError, match="^exhausted 2 retries: .*refused"):
                complete(backend, make_request())
    assert attempts == [("127.0.0.1", port)] * 3
    assert len(sleeps) == 2


def test_a_utf8_reply_parses_to_the_same_text(stub_server):
    text = "Ça coûte 5 € — 日本語 🙂"
    reply = json.dumps(_chat_payload(text), ensure_ascii=False).encode("utf-8")
    _StubHandler.responses = [(200, reply)]
    backend = BackendSpec(kind="live", endpoint=stub_server, retry_limit=0)
    assert complete(backend, make_request(text)) == text
    assert _StubHandler.seen[0]["messages"][1]["content"] == text


def test_in_flight_bounds_an_endpoint_under_contention(monkeypatch):
    # Four times as many threads as slots, a short switch interval, and a 503 on the
    # first try of every third request: no more than the limit is ever on the wire,
    # and every request gets its own reply.
    hold = time.sleep
    monkeypatch.setattr("discotrace.gateway.time.sleep", lambda s: None)
    seen, lock = set(), threading.Lock()

    def respond(body):
        user = body["messages"][1]["content"]
        with lock:
            first = user not in seen
            seen.add(user)
        hold(0.005)
        if first and int(user.split()[-1]) % 3 == 0:
            return 503, {}
        return 200, _chat_payload(user)

    asked = [make_request(f"request {i}") for i in range(30)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with http_stub(respond) as (endpoint, stats):
            backend = BackendSpec(kind="live", endpoint=endpoint, max_in_flight=3,
                                  retry_limit=1)
            with gateway.in_flight([backend, dataclasses.replace(backend, max_in_flight=5)]) \
                    as slots, ThreadPoolExecutor(12) as pool:
                replies = list(pool.map(lambda r: complete(backend, r), asked, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert slots == 3
    assert replies == [r.user for r in asked]
    assert stats.posts == 40
    assert stats.max_in_flight == 3


def test_a_released_slot_goes_to_the_longest_waiter():
    # The holder leaves and asks again at once; the thread that was waiting goes first.
    slots, order = gateway._Slots(1), []

    def wait_then_hold():
        with slots:
            order.append("waiter")

    slots.__enter__()
    waiter = threading.Thread(target=wait_then_hold)
    waiter.start()
    deadline = time.monotonic() + 10
    while not slots._waiters and time.monotonic() < deadline:
        time.sleep(0.001)
    slots.__exit__(None, None, None)
    with slots:
        order.append("holder")
    waiter.join(10)
    assert not waiter.is_alive()
    assert order == ["waiter", "holder"]


def _fail_unless_ok(body):
    """A reply to a request whose user text is "ok", a 503 to any other."""
    if body["messages"][1]["content"] == "ok":
        return 200, _chat_payload("ok")
    return 503, {}


@contextlib.contextmanager
def _live_backend():
    with http_stub(_fail_unless_ok) as (endpoint, stats):
        yield BackendSpec(kind="live", endpoint=endpoint, retry_limit=0), stats


def _ask(backend, user):
    """complete() one request, swallowing its TransportError as a batch's record would."""
    try:
        return complete(backend, make_request(user))
    except TransportError:
        return None


def test_a_block_whose_live_calls_all_failed_raises():
    # More workers than slots and a short switch interval: a lost outcome would
    # change the count.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with _live_backend() as (backend, stats):
            with pytest.raises(TransportError, match=r"^every backend call failed \(24 of 24\)$"):
                with gateway.in_flight([backend]), ThreadPoolExecutor(8) as pool:
                    replies = list(pool.map(_ask, [backend] * 24, ["fail"] * 24, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert replies == [None] * 24
    assert stats.posts == 24


def test_one_reply_among_failures_is_a_degraded_block_not_an_outage():
    with _live_backend() as (backend, stats):
        with gateway.in_flight([backend]):
            replies = [_ask(backend, user) for user in ("fail", "ok", "fail")]
        assert replies == [None, "ok", None]
        with pytest.raises(TransportError, match=r"\(2 of 2\)"):  # the same, less its reply
            with gateway.in_flight([backend]):
                _ask(backend, "fail")
                _ask(backend, "fail")
    assert stats.posts == 5


def test_a_block_without_live_calls_does_not_raise(tmp_path):
    fixture = tmp_path / "f.jsonl"
    append_fixture(fixture, request_digest(make_request()), "mocked")
    mock = BackendSpec(kind="mock", fixture_path=str(fixture))
    with _live_backend() as (backend, stats):
        with pytest.raises(TransportError, match=r"\(2 of 2\)"):
            with gateway.in_flight([backend]):
                _ask(backend, "fail")
                # An inner block judges only its own calls, and it made no live one;
                # once it exits, the outer block counts again.
                with gateway.in_flight([backend, mock]) as slots:
                    assert complete(mock, make_request()) == "mocked"
                _ask(backend, "fail")
    assert slots == 4
    assert stats.posts == 2


def test_an_error_inside_the_block_propagates_and_leaves_no_count_behind():
    with _live_backend() as (backend, _):
        with pytest.raises(KeyError, match="mine"):
            with gateway.in_flight([backend]):
                _ask(backend, "fail")
                raise KeyError("mine")
        # The next block judges only its own call: 1 of 1, not 2 of 2.
        with pytest.raises(TransportError, match=r"\(1 of 1\)"):
            with gateway.in_flight([backend]):
                _ask(backend, "fail")


def test_a_live_call_before_the_block_does_not_count():
    with _live_backend() as (backend, stats):
        assert _ask(backend, "ok") == "ok"
        assert _ask(backend, "fail") is None
        with pytest.raises(TransportError, match=r"\(1 of 1\)"):
            with gateway.in_flight([backend]):
                _ask(backend, "fail")
    assert stats.posts == 3


def test_live_auth_error(stub_server):
    _StubHandler.responses = [(401, {})]
    backend = BackendSpec(kind="live", endpoint=stub_server, retry_limit=2)
    with pytest.raises(AuthError):
        complete(backend, make_request())


def test_live_auth_header(stub_server, monkeypatch):
    monkeypatch.setenv("TEST_TOKEN", "sekret")
    _StubHandler.responses = [(200, _chat_payload("ok"))]
    backend = BackendSpec(kind="live", endpoint=stub_server, auth_env="TEST_TOKEN")
    complete(backend, make_request())
    heard = _StubHandler.headers_seen[0]
    assert heard["authorization"] == "Bearer sekret"
    assert heard["content-type"] == "application/json"


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


@pytest.mark.parametrize("message", [{"content": None}, {"content": 7}, {}])
def test_live_reply_without_text_is_a_transport_error(stub_server, message):
    _StubHandler.responses = [(200, {"choices": [{"message": message}]})]
    backend = BackendSpec(kind="live", endpoint=stub_server, retry_limit=0)
    with pytest.raises(TransportError, match="response missing content at"):
        complete(backend, make_request())


@pytest.mark.parametrize("payload", [
    {"data": [{"embedding": None}]}, {"data": 7}, {"data": [{"embedding": ["x"]}]},
    {"data": [{"embedding": [True]}]}, {"data": [7]}, [],
])
def test_live_embedding_reply_of_the_wrong_shape_is_a_transport_error(stub_server, payload):
    _StubHandler.responses = [(200, payload)]
    backend = BackendSpec(kind="live", endpoint=stub_server, model="emb", retry_limit=0)
    with pytest.raises(TransportError, match="embedding reply is not a list of number vectors"):
        embed(backend, ["x"])


@pytest.mark.parametrize("vectors", [[[0.1, 0.2]], [[0.1, 0.2]] * 3])
def test_a_live_embedding_reply_needs_one_vector_per_text(stub_server, vectors):
    _StubHandler.responses = [(200, {"data": [{"embedding": v} for v in vectors]})]
    backend = BackendSpec(kind="live", endpoint=stub_server, model="emb", retry_limit=0)
    with pytest.raises(EmbeddingDimensionMismatch,
                       match=f"embedding reply has {len(vectors)} vectors for 2 texts"):
        embed(backend, ["x", "y"])


def test_a_mock_embedding_that_is_not_json_names_the_fixture_and_the_digest(tmp_path):
    fixture = tmp_path / "embed.jsonl"
    digest = text_digest("emb", "x")
    append_fixture(fixture, digest, "not json")
    backend = BackendSpec(kind="mock", model="emb", fixture_path=str(fixture))
    with pytest.raises(ValueError) as exc:
        embed(backend, ["x"])
    assert str(exc.value).startswith(f"fixture {fixture}: digest {digest}: Expecting value")


def test_mock_embedding_that_is_not_a_vector_is_a_transport_error(tmp_path):
    fixture = tmp_path / "embed.jsonl"
    append_fixture(fixture, text_digest("emb", "x"), json.dumps({"v": 1}))
    backend = BackendSpec(kind="mock", model="emb", fixture_path=str(fixture))
    with pytest.raises(TransportError):
        embed(backend, ["x"])


@pytest.mark.parametrize("doc, named", [
    ({"fixture": "f.jsonl"}, "unknown key 'fixture'"),
    ({"max_in_flight": "4"}, "max_in_flight cannot be str"),
    ({"retry_limit": True}, "retry_limit cannot be bool"),
    ({"auth_env": 7}, "auth_env cannot be int"),
])
def test_backend_spec_from_dict_names_a_key_of_the_wrong_shape(doc, named):
    with pytest.raises((TypeError, ValueError), match=named):
        BackendSpec.from_dict({"kind": "live", **doc})
