"""Shared fixtures and builders for the test suite."""

import contextlib
import io
import json
import random
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace

import pytest
from hypothesis import strategies as st

from discotrace import cli, load_ontology
from discotrace.errors import FixtureMiss
from discotrace.gateway import append_fixture
from discotrace.rst import RELATIONS, NUCLEARITIES


def leaf(text):
    return {"edu": text}


def node(relation, nuclearity, left, right):
    return {"relation": relation, "nuclearity": nuclearity, "left": left, "right": right}


def chain_tree(n_edus, relation="Elaboration", nuclearity="NS"):
    """Left-skewed tree over n_edus leaves e0..e{n-1}."""
    tree = leaf("e0")
    for i in range(1, n_edus):
        tree = node(relation, nuclearity, tree, leaf(f"e{i}"))
    return tree


def random_tree(rng, max_edus=20):
    """Random binary tree document with random relation/nuclearity labels."""
    n = rng.randint(1, max_edus)
    relations = sorted(RELATIONS)
    nuclearities = sorted(NUCLEARITIES)

    def build(lo, hi):
        if hi - lo == 1:
            return leaf(f"edu {lo}")
        split = rng.randint(lo + 1, hi - 1)
        return node(
            rng.choice(relations),
            rng.choice(nuclearities),
            build(lo, split),
            build(split, hi),
        )

    return build(0, n)


@st.composite
def tree_docs(draw, max_edus=40):
    """Hypothesis strategy: random_tree's shapes and labels, drawn so they shrink."""
    n = draw(st.integers(1, max_edus))

    def build(lo, hi):
        if hi - lo == 1:
            return leaf(f"edu {lo}")
        split = draw(st.integers(lo + 1, hi - 1))
        relation = draw(st.sampled_from(sorted(RELATIONS)))
        nuclearity = draw(st.sampled_from(sorted(NUCLEARITIES)))
        return node(relation, nuclearity, build(lo, split), build(split, hi))

    return build(0, n)


def deep_tree_json(depth):
    """JSON text of a left-skewed tree ``depth`` nodes deep, written without
    ``json.dumps``, which recurses per level like the decoder."""
    opening = '{"relation": "Elaboration", "nuclearity": "NS", "left": '
    closing = ', "right": {"edu": "tail"}}'
    return opening * (depth - 1) + '{"edu": "head"}' + closing * (depth - 1)


@pytest.fixture(scope="session")
def ontology():
    return load_ontology()


def record_fixture_by_replay(fixture_path, run, responder, max_rounds=500):
    """Populate a mock fixture file by replaying ``run`` until it stops
    raising FixtureMiss; ``responder(request)`` supplies each missing
    response. Returns run()'s final result."""
    fixture_path = str(fixture_path)
    open(fixture_path, "a").close()
    for _ in range(max_rounds):
        try:
            return run()
        except FixtureMiss as miss:
            if miss.request is None:
                raise
            append_fixture(fixture_path, miss.digest, responder(miss.request))
    raise RuntimeError("fixture replay did not converge")


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def closed_port():
    """A loopback port that refuses connections: bound, then closed at once."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@contextlib.contextmanager
def http_stub(respond, delay_s=0.0):
    """Serve POSTs on a loopback port, one thread per request.

    ``respond(body)`` returns ``(status, payload)`` or ``(status, payload, headers)``: a
    payload of bytes is sent as it is, any other as JSON, and ``headers`` are added to
    the reply. Each reply is held back ``delay_s``. Yields ``(endpoint, stats)``:
    ``stats.posts`` counts the requests, ``stats.headers`` holds each request's headers
    (looked up without regard to case) in arrival order, and ``stats.max_in_flight`` is
    the most served at once.
    """
    stats = SimpleNamespace(posts=0, headers=[], in_flight=0, max_in_flight=0)
    lock = threading.Lock()

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            with lock:
                stats.posts += 1
                stats.headers.append(self.headers)
                stats.in_flight += 1
                stats.max_in_flight = max(stats.max_in_flight, stats.in_flight)
            if delay_s:  # a test may stand in for time.sleep to order a backoff
                time.sleep(delay_s)
            status, payload, *headers = respond(body)
            # Leave the count before replying: the client's next request
            # cannot arrive before this reply, so it never overlaps this one.
            with lock:
                stats.in_flight -= 1
            data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            for name, value in (headers[0] if headers else {}).items():
                self.send_header(name, value)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}", stats
    finally:
        server.shutdown()
        server.server_close()


def invoke_cli(args):
    """Run ``cli.main(args)`` in this process. The result holds ``exit_code``, ``stdout``,
    ``stderr``, ``output`` (both streams), and ``exception`` and ``exc_info``: the
    ``SystemExit`` of a non-zero exit, or an uncaught exception, which exits 1."""
    stdout, stderr = io.StringIO(), io.StringIO()
    exit_code, exc_info = 0, None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            cli.main(list(args))
        except SystemExit as exc:
            exit_code = exc.code or 0
            if exit_code:
                exc_info = sys.exc_info()
        except Exception:
            exit_code, exc_info = 1, sys.exc_info()
    return SimpleNamespace(exit_code=exit_code, stdout=stdout.getvalue(),
                           stderr=stderr.getvalue(),
                           output=stdout.getvalue() + stderr.getvalue(),
                           exception=exc_info and exc_info[1], exc_info=exc_info)
