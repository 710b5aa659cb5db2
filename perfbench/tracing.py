"""In-process spans around calls into each discotrace module.

A :class:`Tracer` wraps public functions at the name their caller looks
up (``discotrace.pipeline.build_act_prompt``, not the defining module's
copy) and records one span per call: id, name, start, end, parent span,
answer id, exception type and a few counts taken from the arguments or
the result. Spans stay in memory until the run ends. :func:`layer_metrics`
turns them into the per-layer figures of ``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from collections import defaultdict

from workloads import MARKER_RE


def _marker(text):
    match = MARKER_RE.search(text) if isinstance(text, str) else None
    return match.group(1) if match else None


def _leftmost_edu(doc):
    while isinstance(doc, dict) and "edu" not in doc:
        doc = doc.get("left")
    return doc.get("edu") if isinstance(doc, dict) else None


def _request_bytes(args, kwargs, result):
    return {"bytes": len(result.system.encode()) + len(result.user.encode())}


def _act_useful(args, kwargs, result):
    return {"useful": int(any(a.action_id != "NONE" for a in result))}


def _label_useful(args, kwargs, result):
    return {"useful": int(result is not None)}


# (module, attribute, span name, counts(args, kwargs, result), answer id(args, kwargs))
TARGETS = (
    ("discotrace.corpus", "read_corpus", "corpus.read",
     lambda a, k, r: {"records": len(r)}, None),
    ("discotrace.corpus", "write_corpus", "corpus.write",
     lambda a, k, r: {"records": len(a[1] if len(a) > 1 else k["records"])}, None),
    ("discotrace.cli", "parse_rst_tree", "rst.parse",
     lambda a, k, r: {"edus": r.edu_count}, lambda a, k: _marker(_leftmost_edu(a[0]))),
    ("discotrace.cli", "segment_answer", "segmentation.segment",
     lambda a, k, r: {"segments": len(r)}, lambda a, k: k.get("answer_id")),
    ("discotrace.cli", "tag_answer", "pipeline.tag",
     lambda a, k, r: {"fallbacks": len(r[1])}, lambda a, k: _marker(a[1])),
    ("discotrace.cli", "pair_interpretations", "pipeline.pair",
     lambda a, k, r: {"fallbacks": len(r.diagnostics) - len(k.get("diagnostics") or [])},
     lambda a, k: k.get("answer_id")),
    ("discotrace.interpretations", "generate_raw", "interpretations.generate", None, None),
    ("discotrace.interpretations", "deduplicate", "interpretations.dedup",
     lambda a, k, r: {"members": len(r.members), "candidates": len(a[0])}, None),
    ("discotrace.pipeline", "build_act_prompt", "prompts.build", _request_bytes, None),
    ("discotrace.pipeline", "build_interp_label_prompt", "prompts.build", _request_bytes, None),
    ("discotrace.interpretations", "build_interp_gen_prompt", "prompts.build",
     _request_bytes, None),
    ("discotrace.pipeline", "parse_act_response", "prompts.parse", _act_useful, None),
    ("discotrace.pipeline", "parse_interp_label", "prompts.parse", _label_useful, None),
    ("discotrace.interpretations", "parse_interp_list", "prompts.parse", None, None),
    ("discotrace.gateway", "complete", "gateway.complete", None, None),
    ("discotrace.gateway", "embed", "gateway.embed", None, None),
    ("discotrace.gateway", "load_fixture", "gateway.fixture_load", None, None),
    ("discotrace.gateway", "request_digest", "gateway.digest", None, None),
    ("discotrace.gateway", "text_digest", "gateway.digest", None, None),
    ("discotrace.cli", "cross_perplexity_matrix", "stats.cross_perplexity", None, None),
    ("discotrace.stats", "fit_bigram", "stats.fit", None, None),
    ("discotrace.stats", "perplexity", "stats.perplexity", None, None),
    ("discotrace.cli", "interpretation_metrics", "stats.interp_metrics", None, None),
)


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self):
        self.spans: list = []  # (id, name, start, end, parent, answer, error, counts)
        self.root = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, counts=None, answer_of=None):
        stack = self._stack()
        span_id = next(self._ids)
        if stack:
            parent, inherited = stack[-1]
        else:  # a new thread's first span hangs off the first span of the run
            parent, inherited = self.root, None
            if self.root is None:
                self.root = span_id
        answer = (answer_of(args, kwargs) if answer_of else None) or inherited
        stack.append((span_id, answer))
        error, extra = None, None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if counts is not None:
                extra = counts(args, kwargs, result)
            return result
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, answer, error, extra))

    def install(self, targets=TARGETS) -> list[str]:
        """Wrap every target; return the ``module.attr`` names that do not exist."""
        absent = []
        for module_name, attr, name, counts, answer_of in targets:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                absent.append(f"{module_name}.{attr}")
                continue

            def wrapper(*args, _fn=original, _name=name, _counts=counts, _answer=answer_of,
                        **kwargs):
                return self.call(_name, _fn, args, kwargs, _counts, _answer)

            setattr(module, attr, wrapper)
            self._installed.append((module, attr, original))
        return absent

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()


def call_depth(intervals) -> int:
    """Longest chain of (start, end) intervals in which each one starts
    at or after the previous one ended."""
    ordered = sorted(intervals)
    by_end = sorted(range(len(ordered)), key=lambda i: ordered[i][1])
    best = [0] * len(ordered)
    longest_ended = k = 0  # longest chain among intervals ended so far
    for i, (start, _) in enumerate(ordered):
        while k < len(by_end) and by_end[k] < i and ordered[by_end[k]][1] <= start:
            longest_ended = max(longest_ended, best[by_end[k]])
            k += 1
        best[i] = longest_ended + 1
    return max(best, default=0)


def layer_metrics(spans) -> dict:
    """Per-layer totals, self times and counts from one run's spans."""
    by_id = {s[0]: s for s in spans}
    child_time = defaultdict(float)
    for span in spans:
        if span[4] in by_id:
            child_time[span[4]] += span[3] - span[2]
    total, self_time, calls, info = (defaultdict(float), defaultdict(float),
                                     defaultdict(int), defaultdict(float))
    for span_id, name, start, end, parent, answer, error, extra in spans:
        total[name] += end - start
        self_time[name] += end - start - child_time[span_id]
        calls[name] += 1
        for key, value in (extra or {}).items():
            info[f"{name}.{key}"] += value

    pipeline_ids = {s[0] for s in spans if s[1] in ("pipeline.tag", "pipeline.pair")}
    pipeline_calls = sum(1 for s in spans if s[1] == "gateway.complete" and s[4] in pipeline_ids)
    useful = sum((s[7] or {}).get("useful", 0) for s in spans
                 if s[1] == "prompts.parse" and s[4] in pipeline_ids)
    candidates = info["interpretations.dedup.candidates"]

    return {
        "gateway.fixture_load_s": total["gateway.fixture_load"],
        "gateway.digest_s": total["gateway.digest"],
        "gateway.complete_s": self_time["gateway.complete"],
        "gateway.complete_calls": calls["gateway.complete"],
        "gateway.fixture_misses": sum(1 for s in spans if s[6] == "FixtureMiss"
                                      and s[1] in ("gateway.complete", "gateway.embed")),
        "gateway.embed_calls": calls["gateway.embed"],
        "prompts.build_s": total["prompts.build"],
        "prompts.parse_s": total["prompts.parse"],
        "prompts.request_kb": info["prompts.build.bytes"] / 1024,
        "rst.parse_s": total["rst.parse"],
        "rst.edus": info["rst.parse.edus"],
        "segmentation.segment_s": total["segmentation.segment"],
        "segmentation.segments": info["segmentation.segment.segments"],
        "pipeline.tag_s": self_time["pipeline.tag"],
        "pipeline.pair_s": self_time["pipeline.pair"],
        "pipeline.none_fallbacks": info["pipeline.tag.fallbacks"]
        + info["pipeline.pair.fallbacks"],
        "pipeline.useful_call_ratio": useful / pipeline_calls if pipeline_calls else 0.0,
        "interpretations.generate_s": total["interpretations.generate"],
        "interpretations.dedup_s": total["interpretations.dedup"],
        "interpretations.members_per_candidate":
            info["interpretations.dedup.members"] / candidates if candidates else 0.0,
        "stats.fit_s": total["stats.fit"],
        "stats.perplexity_s": total["stats.perplexity"],
        "stats.cross_perplexity_s": total["stats.cross_perplexity"],
        "stats.interp_metrics_s": total["stats.interp_metrics"],
        "corpus.read_s": total["corpus.read"],
        "corpus.write_s": total["corpus.write"],
        "corpus.records": info["corpus.read.records"] + info["corpus.write.records"],
    }
