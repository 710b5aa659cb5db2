"""Loopback chat-completion backend with a seeded fault schedule.

The server answers OpenAI-style chat requests from a table recorded at
set-up, keyed by :func:`workloads.wire_digest`, after a fixed delay. It
counts POSTs, new connections and 5xx responses, and maps each request
to its answer through the answer's marker sentence, so that per-answer
call depth and latency come from arrival and response times.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import tracing
from workloads import MARKER_RE, wire_digest

UNPARSABLE_CONTENT = "Let me think about which label fits best here."


class FaultSchedule:
    """Which attempt of which request fails, fixed by content and attempt.

    The first attempt of an exact ``share_503`` of the recorded requests
    gets one 503; the first attempt of another, disjoint ``share_bad``
    gets a reply whose content no parser accepts. The requests are ranked
    by a seeded hash of their digest, so the faulty set (and every count
    that follows from it) is the same under any interleaving.
    """

    def __init__(self, seed: int, digests, share_503: float, share_bad: float):
        ranked = sorted(digests, key=lambda d: hashlib.sha256(f"{seed}:{d}".encode()).digest())
        n_503 = round(share_503 * len(ranked))
        n_bad = round(share_bad * len(ranked))
        self._faults = {d: "503" for d in ranked[:n_503]}
        self._faults.update({d: "bad" for d in ranked[n_503:n_503 + n_bad]})

    def fault(self, digest: str, attempt: int):
        """"503", "bad" or None for the given attempt (0-based) of a request."""
        return self._faults.get(digest) if attempt == 0 else None

    def count(self, kind: str) -> int:
        return sum(1 for v in self._faults.values() if v == kind)


@dataclass
class Stats:
    posts: int = 0
    retried_posts: int = 0  # repeats of a request already seen
    connections: int = 0
    status_5xx: int = 0
    unknown_requests: int = 0
    max_in_flight: int = 0  # most requests being served at once
    # answer id -> list of (arrival, response) perf_counter pairs
    requests: dict = field(default_factory=dict)

    def per_answer(self) -> tuple[list[int], list[float]]:
        """Call depth and first-request-to-last-response latency (s) per answer."""
        depths, latencies = [], []
        for answer in sorted(self.requests):
            spans = self.requests[answer]
            depths.append(tracing.call_depth(spans))
            latencies.append(max(end for _, end in spans) - min(start for start, _ in spans))
        return depths, latencies


class FakeBackend:
    """Threaded loopback HTTP server; use as a context manager."""

    def __init__(self, table: dict, schedule: FaultSchedule, delay_s: float):
        self.table = table
        self.schedule = schedule
        self.delay_s = delay_s
        self._lock = threading.Lock()
        self._attempts: Counter = Counter()
        self._in_flight = 0
        self.stats = Stats()
        backend = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def setup(self):
                super().setup()
                with backend._lock:
                    backend.stats.connections += 1

            def log_message(self, *args):
                pass

            def do_POST(self):
                body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                status, payload, record = backend._serve(json.loads(body))
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                backend._finish(record)
                self.wfile.write(payload)

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    @property
    def endpoint(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}/v1/chat/completions"

    def reset(self) -> Stats:
        """Start a new pass: return the finished pass's stats and clear them."""
        with self._lock:
            stats, self.stats = self.stats, Stats()
            self._attempts.clear()
        return stats

    def _serve(self, doc: dict) -> tuple[int, bytes, tuple]:
        messages = {m["role"]: m["content"] for m in doc["messages"]}
        user = messages.get("user", "")
        digest = wire_digest(messages.get("system", ""), user, doc.get("model"),
                             doc.get("temperature"), doc.get("max_tokens"))
        marker = MARKER_RE.search(user)
        with self._lock:
            stats = self.stats
            attempt = self._attempts[digest]
            self._attempts[digest] += 1
            stats.posts += 1
            stats.retried_posts += attempt > 0
            self._in_flight += 1
            stats.max_in_flight = max(stats.max_in_flight, self._in_flight)
        arrival = time.perf_counter()
        time.sleep(self.delay_s)
        fault = self.schedule.fault(digest, attempt)
        text = self.table.get(digest)
        if fault == "503":
            status, payload = 503, b'{"error": "overloaded"}'
        elif text is None:
            status, payload = 404, b'{"error": "unknown request"}'
        else:
            content = UNPARSABLE_CONTENT if fault == "bad" else text
            status = 200
            payload = json.dumps({"choices": [{"message": {"role": "assistant",
                                                           "content": content}}]}).encode()
        record = (stats, marker.group(1) if marker else None, arrival, status, text is None)
        return status, payload, record

    def _finish(self, record: tuple) -> None:
        # Stamped before the body is written, so a client's next request
        # can never arrive before this response's recorded end.
        stats, answer, arrival, status, unknown = record
        end = time.perf_counter()
        with self._lock:
            self._in_flight -= 1
            stats.status_5xx += status >= 500
            stats.unknown_requests += unknown
            if answer is not None:
                stats.requests.setdefault(answer, []).append((arrival, end))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=30)
