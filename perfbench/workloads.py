"""Seeded workload generation: inputs, mock fixtures and reference outputs.

Everything a workload needs is derived from ``(workload, seed)``; the
program under test receives only the files written here. Model responses
come from :class:`Responder`, a deterministic stand-in whose answer is a
function of the seed and the request, so a recorded fixture never depends
on call order. Fixtures are recorded in one pass over the corpus: while
the reference traces are computed through the library,
``discotrace.gateway.complete`` is replaced by a recorder that answers
from the responder and keeps every (request, response) pair.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import itertools
import json
import random
import re
import statistics
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import reference

MARKER_RE = re.compile(r"Answer (a[0-9A-Za-z_-]+) starts here\.")

RELATIONS = (
    "Attribution", "Background", "Cause", "Comparison", "Condition", "Contrast",
    "Elaboration", "Enablement", "Evaluation", "Explanation", "Joint",
    "Manner-Means", "Same-Unit", "Summary", "Temporal", "Textual-Organization",
    "Topic-Change", "Topic-Comment",
)
NUCLEARITIES = ("NN", "NS", "SN")

WORDS = (
    "river", "market", "signal", "winter", "protein", "ledger", "harbor", "engine",
    "poem", "tariff", "glacier", "vaccine", "castle", "network", "orbit", "dialect",
    "furnace", "census", "pigment", "treaty", "neuron", "canal", "sonata", "enzyme",
    "border", "comet", "archive", "mortgage", "fossil", "rhythm", "lantern", "voltage",
    "steadily", "rarely", "mostly", "often", "changes", "follows", "explains", "limits",
    "shapes", "reflects", "supports", "predates", "causes", "the", "a", "their", "local",
    "early", "modern", "quiet", "costly", "shared", "public", "northern",
)

# Backend name -> model; the config names backends "act", "interp",
# "gen_a", "gen_b" (the two interpretation generators) and "embed".
MODELS = {"act": "bench-act-model", "interp": "bench-interp-model", "gen_a": "bench-gen-a",
          "gen_b": "bench-gen-b", "embed": "bench-embed-model"}
EMBED_DIMS = 8

# Shares of distinct requests that get each kind of model response.
ACT_UNPARSABLE = 0.03
ACT_NONE = 0.02
ACT_SPLIT = 0.2  # per-subsegment form, when the segment has >= 2 EDUs
INTERP_UNKNOWN = 0.02
INTERP_NONE = 0.03
INTERP_UNPARSABLE = 0.02
GEN_B_UNPARSABLE = 0.04
GEN_B_NONE = 0.04

TRACE_SIZES = {
    # questions, answers per question, (min, max) EDUs per answer
    "trace-replay": (50, 6, (3, 40)),
    "trace-live": (12, 5, (3, 40)),
    "trace-long": (2, 2, (400, 900)),
}
ANALYZE_CORPORA = 16
ANALYZE_TRACES = 1000
ANALYZE_QUESTIONS = 200


def wire_digest(system: str, user: str, model: str, temperature, max_tokens) -> str:
    """Key of one chat request as the fake backend sees it on the wire."""
    canonical = json.dumps([system, user, model, temperature, max_tokens], ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def _sentence(rng: random.Random) -> str:
    words = [rng.choice(WORDS) for _ in range(rng.randint(5, 10))]
    return " ".join(words).capitalize() + "."


def _leaf(text):
    return {"edu": text}


def _node(relation, nuclearity, left, right):
    return {"relation": relation, "nuclearity": nuclearity, "left": left, "right": right}


def random_tree(rng: random.Random, texts: list[str]) -> dict:
    """Random binary tree over ``texts`` with labels drawn from all 18 relations."""

    def build(lo, hi):
        if hi - lo == 1:
            return _leaf(texts[lo])
        split = rng.randint(lo + 1, hi - 1)
        return _node(rng.choice(RELATIONS), rng.choice(NUCLEARITIES),
                     build(lo, split), build(split, hi))

    return build(0, len(texts))


def chain_tree(rng: random.Random, texts: list[str], boundary_every: int = 0) -> dict:
    """Right-branching chain; every ``boundary_every``-th node is a Contrast
    boundary, the rest Elaboration (0 means no boundary at all)."""
    tree = _leaf(texts[-1])
    for i in range(len(texts) - 2, -1, -1):
        if boundary_every and i % boundary_every == 0:
            tree = _node("Contrast", "NN", _leaf(texts[i]), tree)
        else:
            tree = _node("Elaboration", rng.choice(("NS", "SN")), _leaf(texts[i]), tree)
    return tree


@dataclass
class Question:
    post_id: str
    title: str
    readings: list[str]  # one text per true interpretation
    paraphrases: list[str]


@dataclass
class Responder:
    """Deterministic model stand-in keyed by the seed and the request."""

    seed: int
    acts: list[str]  # non-NONE act ids
    question: Question = None  # set by the recorder for question-level calls
    space_ids: list = field(default_factory=list)  # set per answer

    def _rng(self, request) -> random.Random:
        return _rng(self.seed, wire_digest(request.system, request.user, request.model_name,
                                           request.temperature, request.max_tokens))

    def respond(self, backend_name: str, request) -> tuple[str, str]:
        """Return (kind, response text); kind is "ok", "none",
        "unparsable" or "unknown_id"."""
        if backend_name == "act":
            return self.act(request)
        if backend_name == "interp":
            return self.interp_label(request)
        return self.generator(backend_name, request)

    def act(self, request) -> tuple[str, str]:
        rng = self._rng(request)
        u = rng.random()
        if u < ACT_UNPARSABLE:
            return "unparsable", "This segment mostly answers the question."
        if u < ACT_UNPARSABLE + ACT_NONE:
            return "none", '[{"action_id": "NONE"}]'
        first, second = rng.choice(self.acts), rng.choice(self.acts)
        # Subsegments are listed one per line as "<index>: <text>".
        if "\n1: " in request.user and rng.random() < ACT_SPLIT:
            return "ok", json.dumps([{"subsegment_index": 0, "action_id": first},
                                     {"subsegment_index": 1, "action_id": second}])
        return "ok", json.dumps([{"action_id": first}])

    def interp_label(self, request) -> tuple[str, str]:
        rng = self._rng(request)
        u = rng.random()
        if u < INTERP_UNKNOWN:
            return "unknown_id", '[{"interpretation_id": "id_99"}]'
        if u < INTERP_UNKNOWN + INTERP_NONE or not self.space_ids:
            return "none", '[{"interpretation_id": "NONE"}]'
        if u < INTERP_UNKNOWN + INTERP_NONE + INTERP_UNPARSABLE:
            return "unparsable", "It addresses the first reading, I think."
        return "ok", json.dumps([{"interpretation_id": rng.choice(self.space_ids)}])

    def generator(self, backend_name: str, request) -> tuple[str, str]:
        question = self.question
        if backend_name == "gen_a":
            texts = question.readings
        else:
            rng = self._rng(request)
            u = rng.random()
            if u < GEN_B_UNPARSABLE:
                return "unparsable", "These readings overlap too much to list."
            if u < GEN_B_UNPARSABLE + GEN_B_NONE:
                return "none", "NONE"
            picked = rng.sample(range(len(question.readings)),
                                rng.randint(1, len(question.readings)))
            texts = [question.paraphrases[j] for j in picked]
        return "ok", "\n".join(f"{i}. {text}" for i, text in enumerate(texts, start=1))


def _embedding(seed: int, reading: int, text: str) -> list[float]:
    """Unit axis of the reading plus small text-specific noise: paraphrases
    of one reading have cosine > 0.95, distinct readings < 0.3."""
    rng = _rng(seed, "embed", text)
    vector = [rng.gauss(0.0, 0.04) for _ in range(EMBED_DIMS)]
    vector[reading] += 1.0
    return [round(v, 6) for v in vector]


def _spread(lo: int, hi: int, n: int) -> list[int]:
    """``n`` evenly spaced integers from ``lo`` to ``hi``: sizes are drawn as
    a fixed multiset so that total work does not depend on the seed."""
    return [lo + round(i * (hi - lo) / max(n - 1, 1)) for i in range(n)]


def _make_questions(rng: random.Random, wid: str, n: int) -> list[Question]:
    questions = []
    interpretations = [1 + i % 6 for i in range(n)]
    rng.shuffle(interpretations)
    for i, k in enumerate(interpretations):
        topic, other = rng.choice(WORDS[:32]), rng.choice(WORDS[:32])
        readings = [f"Reading {j + 1} of {wid}q{i}: is it about the {rng.choice(WORDS[:32])}?"
                    for j in range(k)]
        paraphrases = [f"Put differently, {r[0].lower()}{r[1:]}" for r in readings]
        questions.append(Question(
            post_id=f"{wid}q{i}",
            title=f"How does the {topic} shape the {other} in case {wid}-{i}?",
            readings=readings,
            paraphrases=paraphrases,
        ))
    return questions


def _answer_texts(rng: random.Random, answer_id: str, n_edus: int) -> list[str]:
    return [f"Answer {answer_id} starts here."] + [_sentence(rng) for _ in range(n_edus - 1)]


def _write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


@dataclass
class TraceInputs:
    """Files and reference outputs of one trace workload."""

    directory: Path
    questions_path: Path
    answers_path: Path
    spaces_path: Path
    config_path: Path  # mock config; live workloads write theirs later
    ref_spaces: list  # per question: space.to_dict() (+ "warnings")
    ref_traces: list  # per answer, input order: trace.to_dict()
    wire: dict  # wire_digest -> response text, every distinct chat request
    shares: dict  # measured input properties


@contextlib.contextmanager
def _recording(gateway, responder: Responder, fixtures: dict, wire: dict, kinds: dict):
    original = gateway.complete

    def record(backend, request):
        kind, text = responder.respond(backend.name, request)
        fixtures.setdefault(backend.name, {})[gateway.request_digest(request)] = text
        digest = wire_digest(request.system, request.user, request.model_name,
                             request.temperature, request.max_tokens)
        wire[digest] = text
        kinds[digest] = kind
        return text

    gateway.complete = record
    try:
        yield
    finally:
        gateway.complete = original


def _mock(name: str) -> dict:
    """Config entry of a mock backend; its fixture sits next to the config."""
    return {"kind": "mock", "name": name, "model": MODELS[name], "fixture_path": f"{name}.jsonl"}


def prepare_trace(workload: str, seed: int, directory: Path) -> TraceInputs:
    """Generate questions, answers, fixtures and reference outputs; a live
    workload gets no chat fixtures, its responses are served over HTTP."""
    from discotrace import (
        BackendSpec, BoundaryConfig, load_ontology, pair_interpretations, parse_rst_tree,
        segment_answer, tag_answer,
    )
    from discotrace import gateway
    from discotrace.interpretations import build_space

    n_questions, per_question, (lo, hi) = TRACE_SIZES[workload]
    rng = _rng(workload, seed)
    wid = f"s{seed}"
    directory.mkdir(parents=True, exist_ok=True)
    questions = _make_questions(rng, wid, n_questions)
    # Answer sizes are a fixed multiset and each size has a fixed tree shape,
    # so the work in a run does not depend on the seed; the seed deals the
    # sizes out to answers and picks every text and every model response.
    sizes = _spread(lo, hi, n_questions * per_question)
    if workload == "trace-long":
        # Boundary-free chains (one segment each, quadratic to segment
        # today) take the extreme sizes, chains split every few EDUs
        # (hundreds of segments) the middle ones; they alternate.
        sizes = [sizes[0], sizes[1], sizes[-1], sizes[-2]]
    else:
        rng.shuffle(sizes)

    answers = []
    for question in questions:
        for _ in range(per_question):
            answer_id = f"a{len(answers)}{wid}"
            size = sizes[len(answers)]
            texts = _answer_texts(rng, answer_id, size)
            shape = _rng(workload, "shape", size)
            if workload == "trace-long":
                every = 0 if len(answers) % 2 == 0 else shape.randint(2, 5)
                tree = chain_tree(shape, texts, every)
            else:
                tree = random_tree(shape, texts)
            answers.append({"answer_id": answer_id, "question_id": question.post_id,
                            "text": " ".join(texts), "rst_tree": tree})

    ontology = load_ontology()
    responder = Responder(seed=seed, acts=ontology.act_ids(include_none=False))
    embed_entries = {}
    for question in questions:
        for j, (reading, paraphrase) in enumerate(zip(question.readings, question.paraphrases)):
            for text in (reading, paraphrase):
                embed_entries[gateway.text_digest(MODELS["embed"], text)] = json.dumps(
                    _embedding(seed, j, text))
    _write_fixture(directory / "embed.jsonl", embed_entries)
    specs = {name: BackendSpec.from_dict({**_mock(name),
                                          "fixture_path": str(directory / f"{name}.jsonl")})
             for name in MODELS}

    fixtures: dict = {}
    wire: dict = {}
    kinds: dict = {}
    ref_spaces, spaces = [], {}
    ref_traces = []
    segment_counts = []
    with _recording(gateway, responder, fixtures, wire, kinds):
        for question in questions:
            responder.question = question
            space, warnings = build_space(
                question_id=question.post_id, question=question.title, community_context="",
                generator_backends=[specs["gen_a"], specs["gen_b"]], embedder=specs["embed"],
            )
            doc = space.to_dict()
            if warnings:
                doc["warnings"] = warnings
            ref_spaces.append(doc)
            spaces[question.post_id] = space
        titles = {q.post_id: q.title for q in questions}
        boundary = BoundaryConfig()
        for record in answers:
            space = spaces[record["question_id"]]
            responder.space_ids = [m.id for m in space.members]
            title = titles[record["question_id"]]
            tree = parse_rst_tree(record["rst_tree"])
            segments = segment_answer(tree, boundary, answer_id=record["answer_id"])
            segment_counts.append(len(segments))
            tagged, diagnostics = tag_answer(title, record["text"], segments, tree, ontology,
                                             specs["act"])
            trace = pair_interpretations(
                title, space, tagged, record["text"], ontology, specs["interp"],
                answer_id=record["answer_id"], question_id=record["question_id"],
                tree=tree, diagnostics=diagnostics,
            )
            ref_traces.append(trace.to_dict())

    _write_jsonl(directory / "questions.jsonl",
                 [{"post_id": q.post_id, "title": q.title, "community_context": ""}
                  for q in questions])
    _write_jsonl(directory / "answers.jsonl", answers)
    _write_jsonl(directory / "spaces.jsonl",
                 [{k: v for k, v in doc.items() if k != "warnings"} for doc in ref_spaces])
    if workload != "trace-live":
        for name in ("act", "interp", "gen_a", "gen_b"):
            _write_fixture(directory / f"{name}.jsonl", fixtures.get(name, {}))
    config = {
        "act_labeler": _mock("act"),
        "interp_labeler": _mock("interp"),
        "interp_generators": [_mock("gen_a"), _mock("gen_b")],
        "embedder": _mock("embed"),
    }
    (directory / "config.json").write_text(json.dumps(config, indent=2))

    shares = {
        "answers": len(answers),
        "questions": len(questions),
        "edus_min": min(sizes),
        "edus_median": statistics.median(sizes),
        "edus_max": max(sizes),
        "segments_median": statistics.median(segment_counts),
        "interpretations_mean": round(statistics.mean(len(s["members"]) for s in ref_spaces), 3),
        "degraded_share": round(sum(1 for t in ref_traces if t["diagnostics"]) / len(answers), 4),
        "chat_requests": len(wire),
        **{f"{kind}_share": round(n / len(kinds), 4)
           for kind, n in sorted(Counter(kinds.values()).items()) if kind != "ok"},
    }
    return TraceInputs(
        directory=directory,
        questions_path=directory / "questions.jsonl",
        answers_path=directory / "answers.jsonl",
        spaces_path=directory / "spaces.jsonl",
        config_path=directory / "config.json",
        ref_spaces=ref_spaces,
        ref_traces=ref_traces,
        wire=wire,
        shares=shares,
    )


def _write_fixture(path: Path, entries: dict) -> None:
    _write_jsonl(path, ({"request_digest": d, "response_text": t} for d, t in entries.items()))


def live_config(directory: Path, endpoint: str, max_in_flight: int) -> Path:
    """Point both labelers at a live endpoint; concurrency comes from the file."""
    backend = {"kind": "live", "endpoint": endpoint, "max_in_flight": max_in_flight,
               "retry_limit": 3}
    config = {
        "act_labeler": {**backend, "name": "act", "model": MODELS["act"]},
        "interp_labeler": {**backend, "name": "interp", "model": MODELS["interp"]},
        "max_in_flight": max_in_flight,
    }
    path = directory / "live_config.json"
    path.write_text(json.dumps(config, indent=2))
    return path


@dataclass
class AnalyzeInputs:
    directory: Path
    corpus_paths: list  # (name, path)
    all_path: Path
    spaces_path: Path
    ref_matrix: object  # numpy array, rows train, columns eval
    ref_metrics: dict
    shares: dict


def prepare_analyze(seed: int, directory: Path) -> AnalyzeInputs:
    """16 trace corpora, each from its own act-transition distribution."""
    from discotrace import load_ontology

    ontology = load_ontology()
    vocab = ontology.act_ids()
    eligible = {a.id for a in ontology.acts if a.interpretation_eligible}
    rng = _rng("analyze", seed)
    directory.mkdir(parents=True, exist_ok=True)

    spaces = []
    for q in range(ANALYZE_QUESTIONS):
        k = rng.randint(1, 6)
        spaces.append({"question_id": f"q{q}", "threshold": 0.85, "members": [
            {"id": f"id_{j + 1}", "text": f"Reading {j + 1} of q{q}", "sources": ["gen_a"]}
            for j in range(k)]})
    sizes = {s["question_id"]: len(s["members"]) for s in spaces}

    corpus_paths, corpora, all_traces, all_lines = [], [], [], []
    for c in range(ANALYZE_CORPORA):
        # Row weights over vocab + END per context (vocab + START); cubed
        # uniforms make each corpus's distribution peaked in its own way.
        # A step is drawn as ``rng.choices(outcomes, weights)`` draws it, from
        # cumulative weights computed once per context.
        contexts = vocab + ["<START>"]
        rows = {}
        for ctx in contexts:
            weights = [0.0 if tok == ctx else rng.random() ** 3 for tok in vocab]
            weights.append(0.0 if ctx == "<START>" else sum(weights) / 5)
            rows[ctx] = list(itertools.accumulate(weights))
        outcomes = vocab + ["<END>"]
        last = len(outcomes) - 1
        traces = []
        for t in range(ANALYZE_TRACES):
            question_id = f"q{rng.randrange(ANALYZE_QUESTIONS)}"
            steps, prev = [], "<START>"
            while len(steps) < 30:
                cum = rows[prev]
                act = outcomes[bisect.bisect(cum, rng.random() * cum[-1], 0, last)]
                if act == "<END>":
                    break
                step = {"act_id": act, "edu_indices": [len(steps)]}
                if act in eligible and rng.random() < 0.7:
                    step["interpretation_id"] = f"id_{rng.randint(1, sizes[question_id])}"
                steps.append(step)
                prev = act
            traces.append({"answer_id": f"c{c:02d}t{t}", "question_id": question_id,
                           "steps": steps, "diagnostics": []})
        name = f"c{c:02d}"
        path = directory / f"{name}.jsonl"
        lines = "".join(json.dumps(t, ensure_ascii=False) + "\n" for t in traces)
        path.write_text(lines, encoding="utf-8")
        all_lines.append(lines)
        corpus_paths.append((name, path))
        corpora.append([[s["act_id"] for s in t["steps"]] for t in traces])
        all_traces.extend(traces)

    (directory / "all.jsonl").write_text("".join(all_lines), encoding="utf-8")
    _write_jsonl(directory / "spaces.jsonl", spaces)
    lengths = [len(t["steps"]) for t in all_traces]
    return AnalyzeInputs(
        directory=directory,
        corpus_paths=corpus_paths,
        all_path=directory / "all.jsonl",
        spaces_path=directory / "spaces.jsonl",
        ref_matrix=reference.perplexity_matrix(
            [reference.count_matrix(seqs, vocab) for seqs in corpora], lam=1.0),
        ref_metrics=reference.recount_metrics(all_traces, sizes, eligible),
        shares={"corpora": ANALYZE_CORPORA, "traces": len(all_traces),
                "steps_median": statistics.median(lengths), "steps_max": max(lengths)},
    )
