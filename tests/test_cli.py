import json
import os
import signal
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import pytest

from discotrace import (
    BackendSpec,
    BoundaryConfig,
    load_ontology,
    parse_rst_tree,
    segment_answer,
    tag_answer,
)
from discotrace import cli
from discotrace import corpus as corpus_io
from discotrace import errors
from discotrace import gateway
from discotrace.config import PipelineConfig
from discotrace.corpus import read_corpus, write_corpus
from discotrace.errors import TransportError, UnparsableResponse
from discotrace.gateway import append_fixture, request_digest, text_digest
from discotrace.interpretations import Interpretation, InterpretationSpace
from discotrace.interpretations import build_space
from discotrace.pipeline import DiscoTrace, TraceStep
from discotrace.pipeline import pair_interpretations
from discotrace.prompts import build_interp_gen_prompt, build_mimic_prompt
from discotrace.stats import (
    Smoothing,
    cross_perplexity_matrix,
    fit_bigram,
    interpretation_metrics,
    project_families,
)

from conftest import (
    closed_port, deep_tree_json, http_stub, invoke_cli, record_fixture_by_replay, write_jsonl,
)


def invoke(*args):
    return invoke_cli(args)


def trace_record(answer_id, question_id, acts):
    return DiscoTrace(
        answer_id=answer_id, question_id=question_id,
        steps=[TraceStep(act_id=a, edu_indices=(i,)) for i, a in enumerate(acts)],
    ).to_dict()


def test_filter_command(tmp_path):
    raw = tmp_path / "raw.jsonl"
    write_jsonl(raw, [
        {"post_id": "p1", "title": "Why did the Roman Empire split in two?",
         "score": 10, "community": "AskHistorians", "profanity_prob": 0.0,
         "comments": [{"comment_id": f"c{i}", "text": "t", "score": 3}
                      for i in range(6)]},
        {"post_id": "p2", "title": "Why do I sneeze so loudly every day?",
         "score": 10, "community": "AskHistorians", "profanity_prob": 0.0},
    ])
    out = tmp_path / "kept.jsonl"
    tally_out = tmp_path / "tally.json"
    result = invoke("filter", "--in", str(raw), "--out", str(out),
                    "--tally-out", str(tally_out))
    assert result.exit_code == 0, result.output
    kept = [json.loads(l) for l in out.read_text().splitlines()]
    assert [r["post_id"] for r in kept] == ["p1"]
    tally = json.loads(tally_out.read_text())
    assert tally["first_person"] == 1


def test_filter_drops_a_post_outside_its_comment_count_bounds(tmp_path):
    raw = tmp_path / "raw.jsonl"
    write_jsonl(raw, [
        {"post_id": f"p{n}", "title": "Why did the Roman Empire split in two?", "score": 10,
         "community": "AskHistorians", "profanity_prob": 0.0,
         "comments": [{"comment_id": f"c{i}", "text": "t", "score": 3} for i in range(n)]}
        for n in (6, 13)  # AskHistorians keeps 5 to 12 comments
    ])
    out, tally_out = tmp_path / "kept.jsonl", tmp_path / "tally.json"
    result = invoke("filter", "--in", str(raw), "--out", str(out), "--tally-out", str(tally_out))
    assert result.exit_code == 0, result.output
    assert [r["post_id"] for r in read_corpus(out)] == ["p6"]
    assert json.loads(tally_out.read_text())["comment_count_bounds"] == 1


def test_sample_command_deterministic(tmp_path):
    src = tmp_path / "pool.jsonl"
    write_jsonl(src, [{"post_id": f"p{i}"} for i in range(20)])
    out_a = tmp_path / "a.jsonl"
    out_b = tmp_path / "b.jsonl"
    assert invoke("sample", "--in", str(src), "--out", str(out_a),
                  "--n", "5", "--seed", "3").exit_code == 0
    assert invoke("sample", "--in", str(src), "--out", str(out_b),
                  "--n", "5", "--seed", "3").exit_code == 0
    assert out_a.read_text() == out_b.read_text()


def test_sample_command_insufficient_pool_exit_1(tmp_path):
    src = tmp_path / "pool.jsonl"
    write_jsonl(src, [{"post_id": "p0"}])
    result = invoke("sample", "--in", str(src), "--out",
                    str(tmp_path / "o.jsonl"), "--n", "5")
    assert result.exit_code == 1


def test_segment_command(tmp_path):
    tree = {"relation": "Contrast", "nuclearity": "NN",
            "left": {"edu": "Cats nap."}, "right": {"edu": "Dogs run."}}
    src = tmp_path / "answers.jsonl"
    write_jsonl(src, [{"answer_id": "a1", "question_id": "q1", "rst_tree": tree}])
    out = tmp_path / "segments.jsonl"
    result = invoke("segment", "--in", str(src), "--out", str(out))
    assert result.exit_code == 0, result.output
    rec = json.loads(out.read_text().splitlines()[0])
    assert rec["answer_id"] == "a1"
    assert [s["edu_indices"] for s in rec["segments"]] == [[0], [1]]
    assert [s["text"] for s in rec["segments"]] == ["Cats nap.", "Dogs run."]


# Arguments each subcommand needs besides its input, named by file.
_REQUIRED_ARGS = {
    "filter": [],
    "sample": ["--n", "1"],
    "segment": [],
    "interp": ["--config", "config.json"],
    "trace": ["--questions", "questions.jsonl", "--config", "config.json"],
    "model": [],
    "compare": [],
    "metrics": ["--spaces", "spaces.jsonl"],
    "mimic-answer": ["--config", "config.json", "--subreddit", "s",
                     "--explanation", "e", "--guidelines-file", "rules.md"],
}


@pytest.mark.parametrize("command", list(_REQUIRED_ARGS))
def test_missing_input_file_exit_1(tmp_path, command):
    mock = {"kind": "mock", "fixture_path": "fixture.jsonl"}
    (tmp_path / "config.json").write_text(json.dumps({
        "act_labeler": mock, "interp_generators": [mock], "embedder": mock,
        "answer_generator": mock,
    }))
    for name in ("fixture.jsonl", "questions.jsonl", "spaces.jsonl", "rules.md"):
        (tmp_path / name).touch()
    missing = str(tmp_path / "nope.jsonl")
    source = ["--corpora", missing] if command == "compare" else ["--in", missing]
    extra = [str(tmp_path / arg) if arg.endswith((".json", ".jsonl", ".md")) else arg
             for arg in _REQUIRED_ARGS[command]]
    result = invoke(command, *source, "--out", str(tmp_path / "o.jsonl"), *extra)
    assert result.exit_code == 1, result.output
    assert result.stderr.startswith("error:")
    assert "nope.jsonl" in result.stderr


def test_segment_writes_a_lone_surrogate_it_read(tmp_path):
    src = tmp_path / "answers.jsonl"
    src.write_text('{"answer_id": "a1", "question_id": "q1", '
                   '"rst_tree": {"edu": "bad \\ud800 edu"}}\n', encoding="utf-8")
    out = tmp_path / "segments.jsonl"
    result = invoke("segment", "--in", str(src), "--out", str(out))
    assert result.exit_code == 0, result.output
    [record] = read_corpus(out)
    assert [s["text"] for s in record["segments"]] == ["bad \ud800 edu"]


def test_segment_output_into_a_directory_exit_1(tmp_path):
    src = tmp_path / "answers.jsonl"
    write_jsonl(src, [{"answer_id": "a1", "question_id": "q1", "rst_tree": {"edu": "e"}}])
    result = invoke("segment", "--in", str(src), "--out", str(tmp_path))
    assert result.exit_code == 1, result.output
    assert result.stderr.startswith("error:")
    assert "Traceback" not in result.output


@pytest.mark.parametrize("title", [None, 7, "  "])
def test_interp_rejects_a_question_that_is_not_text(tmp_path, title):
    questions = tmp_path / "questions.jsonl"
    write_jsonl(questions, [{"post_id": "q1", "title": title}])
    (tmp_path / "fixture.jsonl").touch()
    mock = {"kind": "mock", "fixture_path": "fixture.jsonl"}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"interp_generators": [mock], "embedder": mock}))
    result = invoke("interp", "--in", str(questions), "--out", str(tmp_path / "o.jsonl"),
                    "--config", str(config))
    assert result.exit_code == 1, result.output
    assert result.stderr == "error: question 'q1': question must be non-empty\n"
    assert "Traceback" not in result.output


def make_trace_inputs(tmp_path):
    questions = tmp_path / "questions.jsonl"
    write_jsonl(questions, [{"post_id": "q1", "title": "Why is the sky blue?"}])
    answers = tmp_path / "answers.jsonl"
    write_jsonl(answers, [{
        "answer_id": "a1", "question_id": "q1", "text": "It scatters light.",
        "rst_tree": {"edu": "It scatters light."},
    }])
    spaces_path = tmp_path / "spaces.jsonl"
    space = InterpretationSpace(
        question_id="q1",
        members=[Interpretation(id="id_1", text="Physically, why?"),
                 Interpretation(id="id_2", text="Why not violet?")],
    )
    write_jsonl(spaces_path, [space.to_dict()])
    fixture = tmp_path / "labeler.jsonl"
    fixture.touch()
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "act_labeler": {"kind": "mock", "name": "labeler", "model": "m",
                        "fixture_path": "labeler.jsonl"},
    }))
    return questions, answers, spaces_path, fixture, config_path, space


def seed_trace_fixture(fixture, space):
    """Record mock responses for the exact requests the trace command makes."""
    backend = BackendSpec(kind="mock", name="labeler", model="m",
                          fixture_path=str(fixture))
    ontology = load_ontology()
    tree = parse_rst_tree({"edu": "It scatters light."})
    segments = segment_answer(tree, BoundaryConfig(), answer_id="a1")

    def responder(req):
        if "action_id" in req.system:
            return '[{"action_id": "action_AQ_assert_answer"}]'
        return '[{"interpretation_id": "id_1"}]'

    def run():
        from discotrace import pair_interpretations

        tagged, diags = tag_answer("Why is the sky blue?", "It scatters light.",
                                   segments, tree, ontology, backend)
        return pair_interpretations(
            "Why is the sky blue?", space, tagged, "It scatters light.",
            ontology, backend, answer_id="a1", question_id="q1",
            tree=tree, diagnostics=diags,
        )

    record_fixture_by_replay(str(fixture), run, responder)


def test_trace_command_end_to_end(tmp_path):
    questions, answers, spaces_path, fixture, config_path, space = make_trace_inputs(tmp_path)
    seed_trace_fixture(fixture, space)
    out = tmp_path / "traces.jsonl"
    result = invoke("trace", "--in", str(answers), "--questions", str(questions),
                    "--spaces", str(spaces_path), "--out", str(out),
                    "--config", str(config_path))
    assert result.exit_code == 0, result.output
    rec = json.loads(out.read_text().splitlines()[0])
    assert rec["answer_id"] == "a1"
    assert rec["steps"] == [{
        "act_id": "action_AQ_assert_answer", "edu_indices": [0],
        "interpretation_id": "id_1",
    }]

    # A repeat run replays the same fixtures byte for byte.
    out2 = tmp_path / "traces2.jsonl"
    result = invoke("trace", "--in", str(answers), "--questions", str(questions),
                    "--spaces", str(spaces_path), "--out", str(out2),
                    "--config", str(config_path))
    assert result.exit_code == 0
    assert out.read_text() == out2.read_text()


def count_complete_calls(monkeypatch):
    """A list that collects every later ``gateway.complete`` call in this process."""
    calls = []
    real = gateway.complete
    monkeypatch.setattr(gateway, "complete", lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


def test_trace_output_into_a_directory_fails_before_any_call(tmp_path, monkeypatch):
    questions, answers, spaces_path, fixture, config_path, space = make_trace_inputs(tmp_path)
    seed_trace_fixture(fixture, space)
    complete_calls = count_complete_calls(monkeypatch)
    result = invoke("trace", "--in", str(answers), "--questions", str(questions),
                    "--spaces", str(spaces_path), "--out", str(tmp_path),
                    "--config", str(config_path))
    assert result.exit_code == 1, result.output
    assert result.stderr.startswith("error:")
    assert complete_calls == []


def test_trace_question_without_title_fails_before_any_call(tmp_path, monkeypatch):
    questions, answers, spaces_path, fixture, config_path, space = make_trace_inputs(tmp_path)
    seed_trace_fixture(fixture, space)
    write_jsonl(questions, [{"post_id": "q0", "title": "Why?"}, {"post_id": "q1"}])
    out = tmp_path / "traces.jsonl"
    out.write_text("kept\n")
    complete_calls = count_complete_calls(monkeypatch)
    result = invoke("trace", "--in", str(answers), "--questions", str(questions),
                    "--out", str(out), "--config", str(config_path))
    assert result.exit_code == 1, result.output
    assert result.stderr == f"error: {questions}: line 2: missing field 'title'\n"
    assert complete_calls == []
    assert out.read_text() == "kept\n"


def test_trace_answer_to_an_unknown_question_names_both_ids(tmp_path):
    questions, answers, spaces_path, fixture, config_path, space = make_trace_inputs(tmp_path)
    write_jsonl(answers, [{"answer_id": "a7", "question_id": "q9", "text": "t",
                           "rst_tree": {"edu": "t"}}])
    result = invoke("trace", "--in", str(answers), "--questions", str(questions),
                    "--out", str(tmp_path / "traces.jsonl"), "--config", str(config_path))
    assert result.exit_code == 1, result.output
    assert "'a7'" in result.stderr and "'q9'" in result.stderr
    assert "Traceback" not in result.output


def test_trace_keeps_only_the_question_titles(tmp_path, monkeypatch):
    questions, answers, spaces_path, fixture, config_path, space = make_trace_inputs(tmp_path)
    seed_trace_fixture(fixture, space)
    write_jsonl(questions, [{"post_id": "q1", "title": "Why is the sky blue?",
                             "comments": [{"comment_id": "c0", "text": "long " * 100}]}])
    read = []
    real = corpus_io.read_corpus
    monkeypatch.setattr(corpus_io, "read_corpus",
                        lambda path, view=None: read.append(real(path, view)) or read[-1])
    result = invoke("trace", "--in", str(answers), "--questions", str(questions),
                    "--spaces", str(spaces_path), "--out", str(tmp_path / "traces.jsonl"),
                    "--config", str(config_path))
    assert result.exit_code == 0, result.output
    assert [("q1", "Why is the sky blue?")] in read


@pytest.mark.parametrize("command", ["segment", "trace"])
def test_too_deep_tree_line_exit_1(tmp_path, command):
    questions, answers, spaces_path, _, config_path, _ = make_trace_inputs(tmp_path)
    deep = ('{"answer_id": "a2", "question_id": "q1", "text": "t", "rst_tree": '
            + deep_tree_json(1500) + '}\n')
    with open(answers, "a", encoding="utf-8") as handle:
        handle.write(deep)
    extra = ["--questions", str(questions), "--spaces", str(spaces_path),
             "--config", str(config_path)] if command == "trace" else []
    result = invoke(command, "--in", str(answers), "--out", str(tmp_path / "o.jsonl"), *extra)
    assert result.exit_code == 1, result.output
    assert result.stderr.startswith(f"error: {answers}: line 2: ")
    assert "Traceback" not in result.output


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


_EXIT_2 = {errors.BackendError, errors.UnparsableResponse, errors.InvalidActId,
           errors.IndexOutOfRange, errors.MixedForm, errors.UnknownInterpretationId,
           errors.TransportError, errors.EmbeddingDimensionMismatch, errors.AuthError,
           errors.FixtureMiss}
_ERROR_ARGS = {errors.ZeroProbabilityTransition: ("a", "b"), errors.MalformedLine: (1, "boom"),
               errors.SchemaVersionMismatch: (1, "boom")}


@pytest.mark.parametrize("where", ["in a record", "outside a record"])
@pytest.mark.parametrize("error", list(_subclasses(errors.DiscoTraceError)),
                         ids=lambda error: error.__name__)
def test_exactly_the_backend_errors_exit_2(tmp_path, monkeypatch, error, where):
    raised = error(*_ERROR_ARGS.get(error, ("boom",)))
    message = str(raised)  # a batch prefixes a backend error's message with its record

    def fail(*args, **kwargs):
        raise raised

    if where == "in a record":
        monkeypatch.setattr(cli, "parse_rst_tree", fail)
    else:
        monkeypatch.setattr(corpus_io, "read_corpus", fail)
    answers = tmp_path / "answers.jsonl"
    write_jsonl(answers, [{"answer_id": "a1", "rst_tree": {"edu": "hello"}}])
    result = invoke("segment", "--in", str(answers), "--out", str(tmp_path / "o.jsonl"))
    assert result.exit_code == (2 if error in _EXIT_2 else 1), result.output
    named = "answer 'a1': " if where == "in a record" else ""
    assert result.stderr == f"error: {named}{message}\n"


def test_trace_command_fixture_miss_exit_2(tmp_path):
    questions, answers, spaces_path, fixture, config_path, _ = make_trace_inputs(tmp_path)
    # Fixture left empty: every request misses.
    out = tmp_path / "traces.jsonl"
    result = invoke("trace", "--in", str(answers), "--questions", str(questions),
                    "--out", str(out), "--config", str(config_path))
    assert result.exit_code == 2
    assert result.stderr.startswith("error: answer 'a1': no fixture entry for request digest ")


# (command, input file, field, value): the second record of the file gets the value.
BAD_FIELDS = [
    ("filter", "raw", "title", 7),
    ("filter", "raw", "score", None),
    ("filter", "raw", "score", "x"),
    ("filter", "raw", "community", []),
    ("filter", "raw", "comments", 7),
    ("filter", "raw", "profanity_prob", "x"),
    ("trace", "answers", "question_id", []),
    ("trace", "answers", "question_id", {}),
    ("trace", "questions", "post_id", []),
    ("trace", "questions", "post_id", {}),
    ("metrics", "traces", "answer_id", []),
    ("metrics", "traces", "answer_id", {}),
    ("metrics", "traces", "question_id", []),
    ("metrics", "traces", "question_id", {}),
    ("metrics", "spaces", "question_id", []),
    ("metrics", "spaces", "question_id", {}),
    ("filter", "raw", "profanity_prob", True),
    ("filter", "raw", "score", "10"),
    ("filter", "raw", "score", 9.9),
    ("filter", "raw", "comments", [{"comment_id": "c0", "text": "t", "score": 3,
                                    "top_level": "false"}]),
    ("filter", "raw", "comments", [{"comment_id": "c0", "text": "t", "score": "3"}]),
    ("filter", "raw", "comments", [{"comment_id": "c0", "text": "t", "score": 2.5}]),
    ("filter", "raw", "comments", [{"comment_id": 7, "text": "t", "score": 3}]),
    ("filter", "raw", "comments", [{"comment_id": "c0", "text": 7, "score": 3}]),
    ("metrics", "spaces", "threshold", "hi"),
    ("metrics", "spaces", "members", [{"id": "id_1", "text": "t", "sources": "abc"}]),
]


@pytest.mark.parametrize("command, role, key, value", BAD_FIELDS)
def test_a_field_of_the_wrong_type_names_its_record(tmp_path, command, role, key, value):
    questions, answers, spaces, fixture, config_path, space = make_trace_inputs(tmp_path)
    seed_trace_fixture(fixture, space)
    raw, traces = tmp_path / "raw.jsonl", tmp_path / "traces.jsonl"
    write_jsonl(raw, [{"post_id": "p1", "title": "Why did the Roman Empire split in two?",
                       "score": 10, "community": "AskHistorians", "profanity_prob": 0.0,
                       "comments": [{"comment_id": "c0", "text": "t", "score": 3}]}])
    write_jsonl(traces, [trace_record("a1", "q1", ["action_AQ_assert_answer"])])
    path = {"raw": raw, "questions": questions, "answers": answers,
            "spaces": spaces, "traces": traces}[role]
    first = read_corpus(path)[0]
    write_jsonl(path, [first, {**first, "answer_id": "a2", key: value} if role == "answers"
                       else {**first, key: value}])
    args = {
        "filter": ["--in", raw, "--out", tmp_path / "kept.jsonl"],
        "trace": ["--in", answers, "--questions", questions, "--spaces", spaces,
                  "--out", tmp_path / "out.jsonl", "--config", config_path],
        "metrics": ["--in", traces, "--spaces", spaces, "--out", tmp_path / "metrics.json"],
    }[command]
    result = invoke(command, *map(str, args))
    assert isinstance(result.exception, SystemExit), result.exc_info
    assert result.exit_code == 1, result.output
    assert "Traceback" not in result.output
    named = "error: answer 'a2': " if role == "answers" else f"error: {path}: line 2: "
    assert result.stderr.startswith(named), result.stderr


# (a line appended to the fixture file, what the error says of it)
BAD_FIXTURE_LINES = [
    ("not json", "Expecting value"),
    ('{"response_text": "r"}', "missing field 'request_digest'"),
    ('["d", "r"]', "a record cannot be list"),
    ('{"request_digest": "d", "response_text": 7}', "response_text cannot be int"),
]


@pytest.mark.parametrize("line, reason", BAD_FIXTURE_LINES)
def test_a_bad_fixture_line_names_the_file_and_the_line(tmp_path, line, reason):
    questions, answers, spaces, fixture, config_path, space = make_trace_inputs(tmp_path)
    seed_trace_fixture(fixture, space)
    with open(fixture, "a", encoding="utf-8") as handle:
        handle.write("\n" + line + "\n")
    number = len(fixture.read_text().splitlines())
    result = invoke("trace", "--in", str(answers), "--questions", str(questions),
                    "--spaces", str(spaces), "--out", str(tmp_path / "out.jsonl"),
                    "--config", str(config_path))
    assert isinstance(result.exception, SystemExit), result.exc_info
    assert result.exit_code == 1, result.output
    assert f"fixture {fixture.resolve()}: line {number}: {reason}" in result.stderr


@pytest.mark.parametrize("number", [2, 300])  # line 300 lies past the 8 KiB read-ahead
def test_a_byte_that_is_not_utf8_names_its_line(tmp_path, number):
    src = tmp_path / "latin.jsonl"
    line = (json.dumps(trace_record("a1", "q1", ["action_AQ_assert_answer"])) + "\n").encode()
    src.write_bytes(line * (number - 1) + b'{"answer_id": "\xff"}\n' + line)
    result = invoke("model", "--in", str(src), "--out", str(tmp_path / "model.json"))
    assert result.exit_code == 1, result.output
    assert result.stderr.startswith(
        f"error: {src}: line {number}: 'utf-8' codec can't decode byte 0xff in position 15")


def test_a_byte_that_is_not_utf8_in_a_fixture_names_its_line(tmp_path):
    questions, answers, spaces, fixture, config_path, space = make_trace_inputs(tmp_path)
    seed_trace_fixture(fixture, space)
    with open(fixture, "ab") as handle:
        handle.write(b'{"request_digest": "d", "response_text": "\xff"}\n')
    number = len(fixture.read_bytes().splitlines())
    result = invoke("trace", "--in", str(answers), "--questions", str(questions),
                    "--spaces", str(spaces), "--out", str(tmp_path / "out.jsonl"),
                    "--config", str(config_path))
    assert result.exit_code == 1, result.output
    assert (f"fixture {fixture.resolve()}: line {number}: 'utf-8' codec can't decode byte 0xff"
            in result.stderr)


def _eligible_as(value):
    doc = load_ontology().to_dict()
    doc["acts"][0]["interpretation_eligible"] = value
    return json.dumps(doc)


# The ontology file's text, and what the error says of it.
BAD_ONTOLOGIES = [
    pytest.param('{"acts": [[1]]}', "an act cannot be list", id="act-list"),
    pytest.param(_eligible_as("false"), "interpretation_eligible cannot be str",
                 id="eligible-text"),
    pytest.param('{"acts": [{"id": 7}]}', "id cannot be int", id="id-int"),
    pytest.param('{"acts": []', "Expecting ',' delimiter", id="not-json"),
    pytest.param('{"acts": ' + "[" * 100_000 + "]" * 100_000 + "}",
                 "maximum recursion depth exceeded", id="too-deep"),
    pytest.param('{"acts": [{"id": "a", "family": "ZZ", "display_name": "A", '
                 '"interpretation_eligible": false}]}', "unknown family 'ZZ'",
                 id="unknown-family"),
]


@pytest.mark.parametrize("text, reason", BAD_ONTOLOGIES)
def test_a_bad_ontology_names_the_file(tmp_path, text, reason):
    traces = tmp_path / "traces.jsonl"
    write_jsonl(traces, [trace_record("a1", "q1", ["action_AQ_assert_answer"])])
    ontology = tmp_path / "ontology.json"
    ontology.write_text(text)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"ontology_path": "ontology.json"}))
    result = invoke("model", "--in", str(traces), "--out", str(tmp_path / "model.json"),
                    "--config", str(config))
    assert isinstance(result.exception, SystemExit), result.exc_info
    assert result.exit_code == 1, result.output
    assert result.stderr.startswith(f"error: ontology {ontology.resolve()}: {reason}")


# (command, changes to the second of three answers, what the error starts with)
BAD_RECORDS = [
    ("trace", {"rst_tree": 7}, "answer 'a2': tree document must be a JSON object"),
    ("trace", {"rst_tree": {}}, "answer 'a2': internal node requires"),
    ("trace", {"rst_tree": {"edu": 7}}, "answer 'a2': leaf 'edu' must be a non-empty string"),
    ("segment", {"rst_tree": 7}, "answer 'a2': tree document must be a JSON object"),
    ("segment", {"answer_id": None, "rst_tree": 7}, "answer #2: tree document must be"),
]


@pytest.mark.parametrize("command, changes, named", BAD_RECORDS)
def test_an_input_error_in_a_batch_names_its_record(tmp_path, command, changes, named):
    questions, answers, spaces, fixture, config_path, space = make_trace_inputs(tmp_path)
    seed_trace_fixture(fixture, space)
    first = read_corpus(answers)[0]
    write_jsonl(answers, [first, {**first, "answer_id": "a2", **changes},
                          {**first, "answer_id": "a3"}])
    out = tmp_path / "out.jsonl"
    extra = ["--questions", questions, "--spaces", spaces,
             "--config", config_path] if command == "trace" else []
    result = invoke(command, *map(str, ["--in", answers, "--out", out, *extra]))
    assert result.exit_code == 1, result.output
    assert result.stderr.startswith(f"error: {named}"), result.stderr
    assert [r["answer_id"] for r in read_corpus(out)] == ["a1"]


def test_filter_names_a_post_whose_community_has_no_bounds(tmp_path):
    raw = tmp_path / "raw.jsonl"
    post = {"post_id": "p1", "title": "Why did the Roman Empire split in two?",
            "score": 10, "community": "AskHistorians", "profanity_prob": 0.0,
            "comments": [{"comment_id": "c0", "text": "t", "score": 3}]}
    write_jsonl(raw, [post, {**post, "post_id": "p2", "community": "x"}])
    result = invoke("filter", "--in", str(raw), "--out", str(tmp_path / "kept.jsonl"))
    assert result.exit_code == 1, result.output
    assert result.stderr == ("error: post 'p2': no comment-count bounds configured "
                             "for community 'x'\n")


@pytest.mark.parametrize("failing, exit_code", [({"act", "interp"}, 2), ({"interp"}, 0)])
def test_trace_exits_2_only_when_every_live_call_failed(tmp_path, failing, exit_code):
    questions, answers, spaces, _, config_path, _ = make_trace_inputs(tmp_path)
    first = read_corpus(answers)[0]
    write_jsonl(answers, [{**first, "answer_id": f"a{i}"} for i in range(3)])
    replies = {"act": '[{"action_id": "action_AQ_assert_answer"}]',
               "interp": '[{"interpretation_id": "id_1"}]'}

    def respond(body):
        if body["model"] in failing:
            return 503, {}
        return 200, {"choices": [{"message": {"content": replies[body["model"]]}}]}

    out = tmp_path / "traces.jsonl"
    with http_stub(respond) as (endpoint, stats):
        live = {"kind": "live", "endpoint": endpoint, "retry_limit": 0}
        config_path.write_text(json.dumps({
            "act_labeler": {**live, "name": "act", "model": "act"},
            "interp_labeler": {**live, "name": "interp", "model": "interp"},
        }))
        result = invoke("trace", "--in", str(answers), "--questions", str(questions),
                        "--spaces", str(spaces), "--out", str(out), "--config", str(config_path))
    assert result.exit_code == exit_code, result.output
    assert [r["answer_id"] for r in read_corpus(out)] == ["a0", "a1", "a2"]
    assert stats.posts == (3 if exit_code == 2 else 6)  # a NONE step is never paired
    if exit_code == 2:
        assert result.stderr == "error: every backend call failed (3 of 3)\n"


def test_a_batch_whose_every_connection_is_refused_exits_2(tmp_path, monkeypatch):
    monkeypatch.setattr("discotrace.gateway.time.sleep", lambda s: None)
    questions, answers, spaces, _, config_path, _ = make_trace_inputs(tmp_path)
    first = read_corpus(answers)[0]
    write_jsonl(answers, [{**first, "answer_id": f"a{i}"} for i in range(3)])
    live = {"kind": "live", "endpoint": f"http://127.0.0.1:{closed_port()}/v1",
            "retry_limit": 1}
    config_path.write_text(json.dumps({"act_labeler": {**live, "name": "act"},
                                       "interp_labeler": {**live, "name": "interp"}}))
    out = tmp_path / "traces.jsonl"
    result = invoke("trace", "--in", str(answers), "--questions", str(questions),
                    "--spaces", str(spaces), "--out", str(out), "--config", str(config_path))
    assert result.exit_code == 2, result.output
    assert result.stderr == "error: every backend call failed (3 of 3)\n"
    assert [r["answer_id"] for r in read_corpus(out)] == ["a0", "a1", "a2"]


def test_a_batch_keeps_no_finished_record(tmp_path):
    class Record(dict):  # a dict that a weak reference can follow
        pass

    src = tmp_path / "answers.jsonl"
    write_jsonl(src, [{"answer_id": f"a{i}"} for i in range(4)])
    made = []

    def run_one(record):
        made.append(weakref.ref(result := Record(record)))
        return result

    out = tmp_path / "o.jsonl"
    for position, result in enumerate(cli._run_batch(src, out, run_one, "answer", "answer_id")):
        assert result["answer_id"] == f"a{position}"
        assert [ref() is not None for ref in made] == [i == position for i in range(len(made))]
    assert len(made) == 4
    assert [r["answer_id"] for r in read_corpus(out)] == ["a0", "a1", "a2", "a3"]


@pytest.mark.parametrize("signum, returncode", [(signal.SIGTERM, -signal.SIGTERM),
                                                 (signal.SIGINT, 130)])
def test_a_killed_trace_keeps_its_finished_records(tmp_path, signum, returncode):
    # 300 answers, one slow POST at a time: the whole run would take a minute.
    questions, answers, _, _, config_path, _ = make_trace_inputs(tmp_path)
    first = read_corpus(answers)[0]
    ids = [f"a{i}" for i in range(300)]
    write_jsonl(answers, [{**first, "answer_id": answer_id} for answer_id in ids])
    reply = {"choices": [{"message": {"content": '[{"action_id": "action_AQ_assert_answer"}]'}}]}
    out = tmp_path / "traces.jsonl"
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # A child started from a background shell ignores SIGINT; restore Python's handler.
    code = ("import signal\n"
            "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
            "from discotrace.cli import main\n"
            "main()")
    with http_stub(lambda body: (200, reply), delay_s=0.2) as (endpoint, stats):
        config_path.write_text(json.dumps({"act_labeler": {
            "kind": "live", "endpoint": endpoint, "retry_limit": 0, "max_in_flight": 1}}))
        child = subprocess.Popen(
            [sys.executable, "-c", code, "trace", "--in", str(answers), "--questions",
             str(questions), "--out", str(out), "--config", str(config_path)],
            env={**os.environ, "PYTHONPATH": path},
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and (
                    not out.exists() or out.read_text().count("\n") < 2):
                time.sleep(0.05)
            child.send_signal(signum)
            assert child.wait(timeout=30) == returncode
        finally:
            child.kill()
            child.wait()
    text = out.read_text()
    assert text.endswith("\n")
    kept = [json.loads(line)["answer_id"] for line in text.splitlines()]
    assert 2 <= len(kept) < len(ids)
    assert kept == ids[:len(kept)]


def test_filter_counts_a_null_title_as_empty(tmp_path):
    raw, out, tally_out = tmp_path / "raw.jsonl", tmp_path / "kept.jsonl", tmp_path / "t.json"
    write_jsonl(raw, [{"post_id": "p1", "title": None, "score": 10,
                       "community": "AskHistorians"}])
    result = invoke("filter", "--in", str(raw), "--out", str(out), "--tally-out", str(tally_out))
    assert result.exit_code == 0, result.output
    assert json.loads(tally_out.read_text())["empty_title"] == 1


def test_mock_only_trace_calls_its_backend_from_one_thread(tmp_path, monkeypatch):
    # A mock does no I/O, so more workers would only hand the GIL around.
    questions, answers, spaces, fixture, config_path, space = make_trace_inputs(tmp_path)
    seed_trace_fixture(fixture, space)
    first = read_corpus(answers)[0]
    write_jsonl(answers, [{**first, "answer_id": f"a{i}"} for i in range(6)])
    threads = []
    real = gateway.complete
    monkeypatch.setattr(gateway, "complete",
                        lambda *a, **k: threads.append(threading.get_ident()) or real(*a, **k))
    result = invoke("trace", "--in", str(answers), "--questions", str(questions),
                    "--spaces", str(spaces), "--out", str(tmp_path / "traces.jsonl"),
                    "--config", str(config_path))
    assert result.exit_code == 0, result.output
    assert len(threads) == 12  # one act and one interpretation call per answer
    assert len(set(threads)) == 1


@pytest.mark.parametrize("act_limit, interp_limit", [(1, 1), (4, 1)])
def test_trace_command_keeps_backend_max_in_flight(tmp_path, act_limit, interp_limit):
    questions = tmp_path / "questions.jsonl"
    write_jsonl(questions, [{"post_id": "q1", "title": "Why is the sky blue?"}])
    answers = tmp_path / "answers.jsonl"
    write_jsonl(answers, [
        {"answer_id": f"a{i}", "question_id": "q1", "text": f"Answer {i}.",
         "rst_tree": {"edu": f"Answer {i}."}}
        for i in range(6)
    ])
    reply = {"choices": [{"message": {"content": '[{"action_id": "action_AQ_assert_answer"}]'}}]}
    with http_stub(lambda body: (200, reply), delay_s=0.02) as (endpoint, stats):
        live = {"kind": "live", "endpoint": endpoint, "model": "m", "retry_limit": 0}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "act_labeler": {**live, "name": "act", "max_in_flight": act_limit},
            "interp_labeler": {**live, "name": "interp", "max_in_flight": interp_limit},
        }))
        result = invoke("trace", "--in", str(answers), "--questions", str(questions),
                        "--out", str(tmp_path / "traces.jsonl"), "--config", str(config_path))
    assert result.exit_code == 0, result.output
    assert stats.posts == 6
    assert stats.max_in_flight == 1


def test_each_endpoint_keeps_its_own_limit_and_no_batch_keeps_its_slots(tmp_path):
    questions, answers, spaces, _, config_path, _ = make_trace_inputs(tmp_path)
    first = read_corpus(answers)[0]
    write_jsonl(answers, [{**first, "answer_id": f"a{i}"} for i in range(6)])
    act = {"choices": [{"message": {"content": '[{"action_id": "action_AQ_assert_answer"}]'}}]}
    interp = {"choices": [{"message": {"content": '[{"interpretation_id": "id_1"}]'}}]}

    def run(act_limit, interp_limit):
        config_path.write_text(json.dumps({
            "act_labeler": {"kind": "live", "endpoint": act_endpoint, "name": "act",
                            "retry_limit": 0, "max_in_flight": act_limit},
            "interp_labeler": {"kind": "live", "endpoint": interp_endpoint, "name": "interp",
                               "retry_limit": 0, "max_in_flight": interp_limit},
        }))
        result = invoke("trace", "--in", str(answers), "--questions", str(questions),
                        "--spaces", str(spaces), "--out", str(tmp_path / "traces.jsonl"),
                        "--config", str(config_path))
        assert result.exit_code == 0, result.output
        assert (act_stats.posts, interp_stats.posts) == (6, 6)
        peaks = act_stats.max_in_flight, interp_stats.max_in_flight
        for stats in (act_stats, interp_stats):
            stats.posts = stats.max_in_flight = 0
        return peaks

    with http_stub(lambda body: (200, act), delay_s=0.1) as (act_endpoint, act_stats), \
            http_stub(lambda body: (200, interp), delay_s=0.1) as (interp_endpoint, interp_stats):
        assert run(2, 1) == (2, 1)
        assert run(3, 2) == (3, 2)  # the first batch's slots are gone


def test_model_command(tmp_path):
    src = tmp_path / "traces.jsonl"
    write_jsonl(src, [
        trace_record("a1", "q1", ["action_AQ_assert_answer",
                                  "action_AQ_provide_reasoning"]),
        trace_record("a2", "q1", ["action_AQ_assert_answer"]),
    ])
    out, config = tmp_path / "model.json", tmp_path / "c.json"
    config.write_text(json.dumps({"smoothing": {"mode": "add_lambda", "lambda": 0.5}}))
    result = invoke("model", "--in", str(src), "--out", str(out), "--config", str(config))
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    assert doc["training_sequences"] == 2
    assert doc["smoothing"] == {"mode": "add_lambda", "lambda": 0.5}
    counts = {(p, n): c for p, n, c in doc["counts"]}
    assert counts[("action_AQ_assert_answer", "action_AQ_provide_reasoning")] == 1


def test_model_reads_its_smoothing_from_the_config(tmp_path):
    src, out, config = tmp_path / "traces.jsonl", tmp_path / "model.json", tmp_path / "c.json"
    write_jsonl(src, [trace_record("a1", "q1", ["action_AQ_assert_answer"])])
    config.write_text(json.dumps({"smoothing": {"mode": "add_lambda", "lambda": 2}}))
    result = invoke("model", "--in", str(src), "--out", str(out), "--config", str(config))
    assert result.exit_code == 0, result.output
    assert '"lambda": 2.0' in out.read_text()  # an int lambda is read as a float


def test_model_command_family_level(tmp_path):
    src = tmp_path / "traces.jsonl"
    write_jsonl(src, [trace_record("a1", "q1", ["action_AQ_assert_answer",
                                                "action_SI_clarification"])])
    out = tmp_path / "model.json"
    result = invoke("model", "--in", str(src), "--out", str(out), "--family-level")
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    assert "AQ" in doc["vocabulary"]
    assert all(len(v) <= 5 or v == "NONE" for v in doc["vocabulary"])


def test_model_command_mle_and_unknown_smoothing(tmp_path):
    src = tmp_path / "traces.jsonl"
    write_jsonl(src, [trace_record("a1", "q1", ["action_AQ_assert_answer",
                                                "action_AQ_provide_reasoning"])])
    out, config = tmp_path / "model.json", tmp_path / "c.json"
    config.write_text(json.dumps({"smoothing": {"mode": "mle"}}))
    result = invoke("model", "--in", str(src), "--out", str(out), "--config", str(config))
    assert result.exit_code == 0, result.output
    assert json.loads(out.read_text())["smoothing"]["mode"] == "mle"
    config.write_text(json.dumps({"smoothing": {"mode": "laplace"}}))
    result = invoke("model", "--in", str(src), "--out", str(out), "--config", str(config))
    assert result.exit_code == 1, result.output
    assert result.stderr.startswith(
        f"error: config {config}: smoothing: unknown smoothing mode 'laplace'")


def test_an_empty_trace_file_is_named(tmp_path):
    one, empty = tmp_path / "one.jsonl", tmp_path / "empty.jsonl"
    write_jsonl(one, [trace_record("a1", "q1", ["action_AQ_assert_answer"])])
    empty.write_text("")
    result = invoke("compare", "--corpora", f"A={one}", "--corpora", f"B={empty}",
                    "--out", str(tmp_path / "m.csv"))
    assert result.exit_code == 1, result.output
    assert result.stderr == f"error: {empty}: need at least one trace\n"
    result = invoke("model", "--in", str(empty), "--out", str(tmp_path / "m.json"))
    assert result.exit_code == 1, result.output
    assert result.stderr == f"error: {empty}: need at least one trace\n"


@pytest.mark.parametrize("first, second, name", [
    ("a/x.jsonl", "b/x.jsonl", "x"),
    ("h=a/x.jsonl", "h=b/y.jsonl", "h"),
    ("a/x.jsonl", "x=b/y.jsonl", "x"),
])
def test_compare_rejects_a_corpus_name_given_twice(tmp_path, first, second, name):
    for path in ("a/x.jsonl", "b/x.jsonl", "b/y.jsonl"):
        (tmp_path / path).parent.mkdir(exist_ok=True)
        write_jsonl(tmp_path / path, [trace_record("a1", "q1", ["action_AQ_assert_answer"])])

    def corpus(item):
        label, equals, path = item.rpartition("=")
        return f"{label}{equals}{tmp_path / path}"

    out = tmp_path / "m.csv"
    result = invoke("compare", "--corpora", corpus(first), "--corpora", corpus(second),
                    "--out", str(out))
    assert result.exit_code == 1, result.output
    assert result.stderr == f"error: corpus name {name!r} is given twice\n"
    assert not out.exists()


@pytest.mark.parametrize("prefix, name", [("", "run=1"), ("R=", "R")])
def test_compare_reads_a_path_that_holds_an_equals_sign(tmp_path, monkeypatch, prefix, name):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "eq").mkdir()
    write_jsonl(tmp_path / "eq" / "run=1.jsonl",
                [trace_record("a1", "q1", ["action_AQ_assert_answer"])])
    result = invoke("compare", "--corpora", f"{prefix}eq/run=1.jsonl", "--out", "m.csv",
                    "--json-out", "m.json")
    assert result.exit_code == 0, result.output
    assert json.loads((tmp_path / "m.json").read_text())["row_labels"] == [name]


def test_compare_long_csv_has_one_row_per_cell(tmp_path):
    acts = ["action_AQ_assert_answer", "action_AQ_provide_reasoning", "action_SI_clarification"]
    corpora = []
    for k in range(3):
        path = tmp_path / f"c{k}.jsonl"
        write_jsonl(path, [trace_record(f"a{i}", "q1", [acts[(i + k) % 3], acts[(i + 2) % 3]])
                           for i in range(3 + k)])
        corpora += ["--corpora", f"C{k}={path}"]
    json_out, long_out = tmp_path / "m.json", tmp_path / "long.csv"
    result = invoke("compare", *corpora, "--out", str(tmp_path / "m.csv"),
                    "--json-out", str(json_out), "--long-csv-out", str(long_out))
    assert result.exit_code == 0, result.output
    doc = json.loads(json_out.read_text())
    header, *rows = [line.split(",") for line in long_out.read_text().splitlines()]
    assert header == ["train", "eval", "perplexity"]
    assert rows == [[train, test, f"{doc['values'][i][j]:.6f}"]
                    for i, train in enumerate(doc["row_labels"])
                    for j, test in enumerate(doc["col_labels"])]
    assert len(rows) == 9


def test_config_ontology_path_resolves_next_to_the_config_file(tmp_path, monkeypatch):
    src = tmp_path / "traces.jsonl"
    write_jsonl(src, [trace_record("a1", "q1", ["act_only"])])
    (tmp_path / "conf").mkdir()
    ontology = load_ontology().to_dict()
    ontology["acts"].append({**ontology["acts"][0], "id": "act_only"})
    (tmp_path / "conf" / "onto.json").write_text(json.dumps(ontology))
    config = tmp_path / "conf" / "config.json"
    config.write_text(json.dumps({"ontology_path": "onto.json"}))
    monkeypatch.chdir(tmp_path)  # a path resolved from here would not exist
    out = tmp_path / "model.json"
    result = invoke("model", "--in", str(src), "--out", str(out), "--config", str(config))
    assert result.exit_code == 0, result.output
    assert "act_only" in json.loads(out.read_text())["vocabulary"]

    config.write_text(json.dumps({"ontology_path": "missing.json"}))
    result = invoke("model", "--in", str(src), "--out", str(out), "--config", str(config))
    assert result.exit_code == 1, result.output
    assert str(tmp_path / "conf" / "missing.json") in result.stderr


@pytest.mark.parametrize("threshold", [0, -0.5, 1.01])
def test_config_dedup_threshold_outside_unit_interval_exit_1(tmp_path, threshold):
    src = tmp_path / "traces.jsonl"
    write_jsonl(src, [trace_record("a1", "q1", ["action_AQ_assert_answer"])])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dedup_threshold": threshold}))
    result = invoke("model", "--in", str(src), "--out", str(tmp_path / "m.json"),
                    "--config", str(config))
    assert result.exit_code == 1, result.output
    assert result.stderr == f"error: config {config}: dedup_threshold must be in (0, 1]\n"


def test_compare_command_identical_corpora(tmp_path):
    records = [
        trace_record("a1", "q1", ["action_AQ_assert_answer",
                                  "action_AQ_provide_reasoning"]),
        trace_record("a2", "q1", ["action_SI_clarification"]),
    ]
    left = tmp_path / "left.jsonl"
    right = tmp_path / "right.jsonl"
    write_jsonl(left, records)
    write_jsonl(right, records)
    out = tmp_path / "matrix.csv"
    json_out = tmp_path / "matrix.json"
    result = invoke("compare", "--corpora", f"L={left}", "--corpora", f"R={right}",
                    "--out", str(out), "--json-out", str(json_out))
    assert result.exit_code == 0, result.output
    doc = json.loads(json_out.read_text())
    assert doc["row_labels"] == ["L", "R"]
    values = doc["values"]
    # Identical corpora: every cell of the matrix agrees.
    assert abs(values[0][0] - values[0][1]) < 1e-12
    assert abs(values[0][0] - values[1][0]) < 1e-12
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3


def test_metrics_command(tmp_path):
    src = tmp_path / "traces.jsonl"
    trace = DiscoTrace(
        answer_id="a1", question_id="q1",
        steps=[
            TraceStep(act_id="action_AQ_assert_answer", edu_indices=(0,),
                      interpretation_id="id_1"),
            TraceStep(act_id="action_AQ_provide_reasoning", edu_indices=(1,)),
        ],
    )
    write_jsonl(src, [trace.to_dict()])
    spaces_path = tmp_path / "spaces.jsonl"
    space = InterpretationSpace(
        question_id="q1",
        members=[Interpretation(id="id_1", text="one"),
                 Interpretation(id="id_2", text="two")],
    )
    write_jsonl(spaces_path, [space.to_dict()])
    out = tmp_path / "metrics.json"
    result = invoke("metrics", "--in", str(src), "--spaces", str(spaces_path),
                    "--out", str(out))
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    assert doc["unmatched_rate"] == 0.5
    assert doc["coverage"]["a1"] == 0.5
    assert doc["dedication"]["a1:id_1"] == 0.5


def test_metrics_json_keeps_its_bytes(tmp_path):
    # Key order is part of the output: dedication lists an answer's interpretations
    # in the order its steps first address them (id_2 before id_1 in a1).
    aq, example = "action_AQ_assert_answer", "action_AQ_provide_example"
    si, cq = "action_SI_clarification", "action_CQ_reject_presupposition"

    def steps(*pairs):
        return [{"act_id": act, "edu_indices": [i], **({"interpretation_id": iid} if iid else {})}
                for i, (act, iid) in enumerate(pairs)]

    src = tmp_path / "traces.jsonl"
    write_jsonl(src, [
        {"answer_id": "a1", "question_id": "q3", "steps": steps(
            (aq, "id_2"), ("NONE", None), (example, "id_1"), (si, "id_2"), (cq, "id_3"),
            (aq, None))},
        {"answer_id": "a2", "question_id": "q1", "steps": steps((si, "id_1"), (aq, None))},
        {"answer_id": "a3", "question_id": "q0", "steps": steps((cq, None), ("NONE", None))},
        {"answer_id": "a4", "question_id": "q3", "steps": []},
    ])
    spaces_path = tmp_path / "spaces.jsonl"
    write_jsonl(spaces_path, [InterpretationSpace(
        question_id=f"q{n}",
        members=[Interpretation(id=f"id_{i + 1}", text=f"r{i}") for i in range(n)],
    ).to_dict() for n in (0, 1, 3)])
    out = tmp_path / "metrics.json"
    result = invoke("metrics", "--in", str(src), "--spaces", str(spaces_path),
                    "--out", str(out))
    assert result.exit_code == 0, result.output
    assert out.read_text() == """{
  "unmatched_rate": 0.3333333333333333,
  "coverage_mean": 0.3333333333333333,
  "dedication_mean": 0.4166666666666667,
  "coverage": {
    "a1": 0.6666666666666666,
    "a4": 0.0
  },
  "matched_per_answer": {
    "a1": 3,
    "a2": 1,
    "a3": 0,
    "a4": 0
  },
  "eligible_per_answer": {
    "a1": 4,
    "a2": 2,
    "a3": 0,
    "a4": 0
  },
  "dedication": {
    "a1:id_2": 0.5,
    "a1:id_1": 0.25,
    "a2:id_1": 0.5
  }
}"""


@pytest.mark.parametrize("doc", [
    {"unmatched_rate": 0.0, "coverage_mean": None, "dedication_mean": None, "coverage": {},
     "matched_per_answer": {}, "eligible_per_answer": {}, "dedication": {}},
    {"unmatched_rate": 1.0, "coverage_mean": 0.1, "dedication_mean": None,
     "coverage": {"é\"a": 0.5, "中": 1e-20, "\\\n": 3},
     "dedication": {"a\"1:id_1": 0.25, "ü:id_2": None}},
    {"coverage": {"only": 1}, "x": {}},
])
def test_the_metrics_writer_equals_json_indent_2(doc):
    assert cli._two_level_json(doc) == json.dumps(doc, indent=2)


def test_analyze_commands_equal_the_library_path(tmp_path):
    # Steps carry extra keys or lack edu_indices; the CLI must read them as
    # DiscoTrace.from_dict does.
    acts = ["action_AQ_assert_answer", "action_AQ_provide_reasoning",
            "action_SI_clarification"]
    docs = []
    for i in range(8):
        steps = []
        for j in range(1 + i % 4):
            step = {"act_id": acts[(i + j) % 3]}
            step.update({"edu_indices": [j]} if j % 2 else {"confidence": 0.5})
            if step["act_id"] == acts[0] and i % 3:
                step["interpretation_id"] = f"id_{1 + i % 2}"
            steps.append(step)
        docs.append({"answer_id": f"a{i}", "question_id": "q1", "steps": steps,
                     "note": "kept verbatim"})
    left, right = tmp_path / "left.jsonl", tmp_path / "right.jsonl"
    write_jsonl(left, docs[:5])
    write_jsonl(right, docs[3:])
    left_traces = [DiscoTrace.from_dict(d) for d in docs[:5]]
    right_traces = [DiscoTrace.from_dict(d) for d in docs[3:]]
    ontology = load_ontology()
    smoothing = Smoothing(mode="add_lambda", lam=0.5)
    out = tmp_path / "out"
    out.mkdir()
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"smoothing": {"mode": "add_lambda", "lambda": 0.5}}))

    for family_level in (False, True):
        flag = ["--family-level"] if family_level else []
        vocabulary = (sorted({a.family for a in ontology.acts if a.family}) + ["NONE"]
                      if family_level else ontology.act_ids())
        project = (lambda t: project_families(t, ontology)) if family_level else list
        result = invoke("compare", "--corpora", f"L={left}", "--corpora", f"R={right}",
                        "--out", str(out / "m.csv"), "--json-out", str(out / "m.json"),
                        "--config", str(config), *flag)
        assert result.exit_code == 0, result.output
        matrix = cross_perplexity_matrix(
            {"L": project(left_traces), "R": project(right_traces)}, smoothing,
            vocabulary=vocabulary)
        assert (out / "m.json").read_text() == matrix.to_json()

        result = invoke("model", "--in", str(left), "--out", str(out / "model.json"),
                        "--config", str(config), *flag)
        assert result.exit_code == 0, result.output
        model = fit_bigram(project(left_traces), smoothing, vocabulary=vocabulary)
        doc = json.loads((out / "model.json").read_text())
        assert doc["vocabulary"] == list(model.vocabulary)
        assert doc["counts"] == [[p, n, c] for (p, n), c in sorted(model.counts.items())]
        assert doc["training_sequences"] == model.training_sequences

    spaces_path = tmp_path / "spaces.jsonl"
    space = InterpretationSpace(question_id="q1", members=[
        Interpretation(id="id_1", text="one"), Interpretation(id="id_2", text="two"),
        Interpretation(id="id_3", text="three")])
    write_jsonl(spaces_path, [space.to_dict()])
    result = invoke("metrics", "--in", str(left), "--spaces", str(spaces_path),
                    "--out", str(out / "metrics.json"))
    assert result.exit_code == 0, result.output
    report = interpretation_metrics(left_traces, {"q1": space}, ontology)
    doc = json.loads((out / "metrics.json").read_text())
    assert doc["unmatched_rate"] == report.unmatched_rate
    assert doc["coverage"] == report.coverage
    assert doc["matched_per_answer"] == report.matched_per_answer
    assert doc["eligible_per_answer"] == report.eligible_per_answer
    assert doc["dedication"] == {f"{a}:{i}": v for (a, i), v in report.dedication.items()}


@pytest.mark.parametrize("command", ["compare", "model", "metrics"])
@pytest.mark.parametrize("bad_steps", [[{"edu_indices": [0]}], ["action_AQ_assert_answer"],
                                       [{"act_id": "foo", "edu_indices": [0]}]])
def test_unreadable_trace_record_exit_1(tmp_path, command, bad_steps):
    src = tmp_path / "traces.jsonl"
    write_jsonl(src, [trace_record("a1", "q1", ["action_AQ_assert_answer"]),
                      {"answer_id": "a2", "question_id": "q1", "steps": bad_steps}])
    spaces_path = tmp_path / "spaces.jsonl"
    write_jsonl(spaces_path, [InterpretationSpace(question_id="q1").to_dict()])
    source = ["--corpora", str(src)] if command == "compare" else ["--in", str(src)]
    extra = ["--spaces", str(spaces_path)] if command == "metrics" else []
    result = invoke(command, *source, "--out", str(tmp_path / "o.json"), *extra)
    assert result.exit_code == 1, result.output
    assert result.stderr.startswith(f"error: {src}: line 2: ")


def test_mimic_command(tmp_path):
    questions = tmp_path / "questions.jsonl"
    write_jsonl(questions, [{"post_id": "q1", "title": "Why is the sky blue?"}])
    guidelines = tmp_path / "rules.md"
    guidelines.write_text("Be thorough. Cite sources.")
    fixture = tmp_path / "gen.jsonl"
    fixture.touch()
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "answer_generator": {"kind": "mock", "name": "gen", "model": "m",
                             "fixture_path": "gen.jsonl"},
    }))
    out = tmp_path / "answers.jsonl"

    def run():
        result = invoke("mimic-answer", "--in", str(questions), "--out", str(out),
                        "--config", str(config_path), "--subreddit", "AskHistorians",
                        "--explanation", "history questions",
                        "--guidelines-file", str(guidelines))
        if result.exit_code == 2:
            from discotrace.errors import FixtureMiss
            from discotrace.gateway import request_digest
            from discotrace.prompts import build_mimic_prompt

            # Rebuild the request the command issued so the fixture can be
            # seeded through the normal replay path.
            request = build_mimic_prompt(
                question="Why is the sky blue?",
                subreddit_name="AskHistorians",
                subreddit_explanation="history questions",
                guidelines=guidelines.read_text(),
                model_name="m",
                max_tokens=1000,
            )
            raise FixtureMiss(request_digest(request), request=request)
        return result

    result = record_fixture_by_replay(
        str(fixture), run, lambda req: "Rayleigh scattering, mostly.")
    assert result.exit_code == 0, result.output
    rec = json.loads(out.read_text().splitlines()[0])
    assert rec["answer_text"] == "Rayleigh scattering, mostly."
    assert rec["question_id"] == "q1"


def test_help_lists_subcommands():
    result = invoke("--help")
    assert result.exit_code == 0
    for name in ("filter", "sample", "segment", "interp", "trace",
                 "model", "compare", "metrics", "mimic-answer"):
        assert name in result.output


def test_a_subcommand_help_exits_0():
    result = invoke("trace", "--help")
    assert result.exit_code == 0, result.output
    assert "--questions" in result.stdout


@pytest.mark.parametrize("args", [
    [],  # no subcommand
    ["segmentt", "--in", "{d}/a.jsonl", "--out", "{d}/o.jsonl"],  # unknown subcommand
    ["trace", "--in", "{d}/a.jsonl", "--out", "{d}/o.jsonl", "--config", "{d}/c.json"],
    ["segment", "--in", "{d}/a.jsonl", "--out", "{d}/o.jsonl", "--bogus", "x"],
    ["segment", "--in", "{d}/a.jsonl", "--ou", "{d}/o.jsonl"],  # an abbreviation
    ["sample", "-h"],  # only --help asks for help
    ["sample", "--in", "{d}/a.jsonl", "--out", "{d}/o.jsonl", "--n", "abc"],
    ["model", "--in", "{d}/a.jsonl", "--out", "{d}/o.jsonl", "--family-level=yes"],
    ["mimic-answer", "--in", "{d}/a.jsonl", "--out", "{d}/o.jsonl", "--config", "{d}/c.json",
     "--subreddit", "s", "--explanation", "e", "--guidelines-file", "{d}/rules.md",
     "--max-tokens", "many"],
    ["mimic-answer", "--in", "{d}/a.jsonl", "--out", "{d}/o.jsonl", "--config", "{d}/c.json",
     "--subreddit", "s", "--explanation", "e", "--guidelines-file", "{d}/missing.md"],
    # the smoothing is set only by the config
    ["model", "--in", "{d}/a.jsonl", "--out", "{d}/o.jsonl", "--smoothing", "mle"],
    ["compare", "--corpora", "{d}/a.jsonl", "--out", "{d}/o.jsonl", "--smoothing", "mle"],
])
def test_a_usage_error_is_an_input_error(tmp_path, args):
    # Exit 2 is a backend failure; a command line that cannot run is an input error.
    (tmp_path / "rules.md").write_text("Be thorough.")
    (tmp_path / "fx.jsonl").write_text("")
    (tmp_path / "c.json").write_text(json.dumps({"answer_generator": {
        "kind": "mock", "fixture_path": "fx.jsonl"}}))
    write_jsonl(tmp_path / "a.jsonl", [{"answer_id": "a1", "post_id": "q1", "title": "Why?"}])
    result = invoke(*(arg.format(d=tmp_path) for arg in args))
    assert result.exit_code == 1, result.output
    assert result.stderr.startswith("error: "), result.stderr
    assert result.stdout == ""
    assert not (tmp_path / "o.jsonl").exists()


def run_python(code, *args):
    """Run ``code`` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60, check=True)


@pytest.mark.parametrize("module", ["click", "numpy", "scipy", "requests", "urllib3",
                                    "concurrent.futures", "logging", "urllib.request",
                                    "http.client"])
def test_cli_import_does_not_load(module):
    # Every subcommand pays the CLI's import time: scipy alone cost about 1 s, numpy
    # was half of the rest and only model and compare compute with it, and
    # only live backends need the HTTP stack and a thread pool (which loads logging).
    result = run_python(f"import discotrace.cli, sys; print({module!r} in sys.modules)")
    assert result.stdout.strip() == "False"


def test_a_live_call_loads_no_third_party_http_client():
    reply = {"choices": [{"message": {"content": "ok"}}]}
    with http_stub(lambda body: (200, reply)) as (endpoint, stats):
        result = run_python(
            "import sys\n"
            "from discotrace import BackendSpec, ChatRequest, complete\n"
            "backend = BackendSpec(kind='live', endpoint=sys.argv[1], retry_limit=0)\n"
            "print(complete(backend, ChatRequest(system='s', user='u', model_name='m')))\n"
            "print([m for m in ('requests', 'urllib3') if m in sys.modules])", endpoint)
    assert result.stdout.splitlines() == ["ok", "[]"]
    assert stats.posts == 1


def command_args(tmp_path, command):
    """The arguments of ``command`` on small inputs, written to ``tmp_path``, where it
    succeeds, and the output path it writes."""
    questions, answers, spaces, fixture, config_path, space = make_trace_inputs(tmp_path)
    seed_trace_fixture(fixture, space)
    interp_fixture, interp_config = tmp_path / "interp.jsonl", tmp_path / "interp.json"
    request = build_interp_gen_prompt("Why is the sky blue?", "", "mg")
    append_fixture(interp_fixture, request_digest(request), "1. Physically, why?\n2. Why not red?")
    append_fixture(interp_fixture, text_digest("me", "Physically, why?"), "[1.0, 0.0]")
    append_fixture(interp_fixture, text_digest("me", "Why not red?"), "[0.9, 0.1]")
    mock = {"kind": "mock", "fixture_path": "interp.jsonl"}
    interp_config.write_text(json.dumps({
        "interp_generators": [{**mock, "name": "gen", "model": "mg"}],
        "embedder": {**mock, "name": "embed", "model": "me"},
    }))
    raw, traces, out = tmp_path / "raw.jsonl", tmp_path / "traces.jsonl", tmp_path / "out"
    write_jsonl(raw, [{"post_id": "p1", "title": "Why did the Roman Empire split in two?",
                       "score": 10, "community": "AskHistorians", "profanity_prob": 0.0,
                       "comments": [{"comment_id": f"c{i}", "text": "t", "score": 3}
                                    for i in range(6)]}])
    write_jsonl(traces, [trace_record("a1", "q1", ["action_AQ_assert_answer"])])
    mimic_config, guidelines = tmp_path / "mimic.json", tmp_path / "rules.md"
    mimic_config.write_text(json.dumps({"answer_generator": {
        **mock, "name": "gen", "model": "m", "fixture_path": "mimic.jsonl"}}))
    guidelines.write_text("Be thorough.")
    request = build_mimic_prompt(question="Why is the sky blue?", subreddit_name="s",
                                 subreddit_explanation="e", guidelines="Be thorough.",
                                 model_name="m", max_tokens=1000)
    append_fixture(tmp_path / "mimic.jsonl", request_digest(request), "Rayleigh scattering.")
    args = {
        "trace": ["--in", answers, "--questions", questions, "--spaces", spaces,
                  "--out", out, "--config", config_path],
        "segment": ["--in", answers, "--out", out],
        "filter": ["--in", raw, "--out", out],
        "sample": ["--in", questions, "--out", out, "--n", 1],
        "metrics": ["--in", traces, "--spaces", spaces, "--out", out],
        "interp": ["--in", questions, "--out", out, "--config", interp_config],
        "model": ["--in", traces, "--out", out],
        "compare": ["--corpora", f"a={traces}", "--corpora", f"b={traces}", "--out", out,
                    "--json-out", tmp_path / "matrix.json"],
        "mimic-answer": ["--in", questions, "--out", out, "--config", mimic_config,
                         "--subreddit", "s", "--explanation", "e",
                         "--guidelines-file", guidelines],
    }[command]
    return args, out


def modules_at_exit(tmp_path, command) -> set:
    """The names in ``sys.modules`` when ``command`` exits, run in a fresh interpreter on
    inputs where it succeeds. The check runs at exit, after main() returns; a failed
    command exits nonzero."""
    args, out = command_args(tmp_path, command)
    result = run_python("import atexit, json, sys\n"
                        "atexit.register(lambda: print(json.dumps(sorted(sys.modules))))\n"
                        "from discotrace.cli import main\n"
                        "main()", command, *args)
    assert out.exists()
    return set(json.loads(result.stdout.splitlines()[-1]))


def assert_never_loads_numpy(tmp_path, command):
    """Run ``command`` in a fresh interpreter on inputs where it succeeds; numpy stays out."""
    assert "numpy" not in modules_at_exit(tmp_path, command)


@pytest.mark.parametrize("command", ["trace", "segment", "filter", "sample", "metrics",
                                     "interp"])
def test_a_command_that_computes_no_statistics_never_loads_numpy(tmp_path, command):
    assert_never_loads_numpy(tmp_path, command)


@pytest.mark.parametrize("command", ["model", "compare", "mimic-answer"])
def test_no_other_command_loads_numpy_either(tmp_path, command):
    # With the test above, every subcommand: the statistics run on plain Python numbers.
    assert_never_loads_numpy(tmp_path, command)


def package_modules(names) -> set:
    return {name.removeprefix("discotrace.") for name in names if name.startswith("discotrace.")}


def test_importing_the_package_loads_no_submodule():
    result = run_python("import json, sys, discotrace\nprint(json.dumps(sorted(sys.modules)))")
    assert package_modules(json.loads(result.stdout)) == set()


def test_importing_stats_loads_no_backend_tree_or_pipeline_code():
    result = run_python("import json, sys, discotrace.stats\n"
                        "print(json.dumps(sorted(sys.modules)))")
    loaded = package_modules(json.loads(result.stdout))
    assert loaded.isdisjoint({"gateway", "prompts", "rst", "segmentation", "pipeline"}), loaded


# "data" is the folder of the default ontology, which importlib.resources imports.
STATISTICS_MODULES = {"cli", "config", "corpus", "data", "errors", "ontology", "stats"}


@pytest.mark.parametrize("command, expected", [
    ("compare", STATISTICS_MODULES),
    ("model", STATISTICS_MODULES),
    ("metrics", STATISTICS_MODULES | {"interpretations", "prompts"}),
])
def test_a_statistics_command_loads_only_the_modules_it_runs(tmp_path, command, expected):
    # A fresh process per command: each module left out is one less to compile and run.
    loaded = modules_at_exit(tmp_path, command)
    assert package_modules(loaded) == expected
    assert "hashlib" not in loaded


@pytest.mark.parametrize("command, never", [
    ("interp", {"rst", "segmentation", "pipeline", "stats"}),
    ("trace", {"stats"}),
])
def test_a_backend_command_loads_no_module_it_does_not_run(tmp_path, command, never):
    loaded = package_modules(modules_at_exit(tmp_path, command))
    assert loaded.isdisjoint(never), loaded


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_a_command_help_is_that_of_the_parser_of_every_command(command, capsys):
    # main builds only the parser of the command it runs; its help must not show it.
    with pytest.raises(SystemExit) as done:
        cli._parser([]).parse_args([command, "--help"])
    assert done.value.code == 0
    expected = capsys.readouterr().out
    result = invoke(command, "--help")
    assert result.exit_code == 0, result.output
    assert result.stdout == expected


def test_an_unknown_command_names_every_command():
    result = invoke("segmentt")
    assert result.exit_code == 1
    assert all(repr(name) in result.stderr for name in cli._COMMANDS), result.stderr


@pytest.mark.parametrize("command", ["filter", "model", "compare", "metrics", "mimic-answer"])
def test_every_file_a_command_opens_is_utf8(tmp_path, monkeypatch, command):
    # Under PYTHONWARNDEFAULTENCODING (-X warn_default_encoding), a file opened in the
    # locale's encoding raises EncodingWarning; one raised from discotrace fails the command.
    monkeypatch.setenv("PYTHONWARNDEFAULTENCODING", "1")
    traces, spaces = tmp_path / "traces.jsonl", tmp_path / "spaces.jsonl"
    write_jsonl(traces, [trace_record("a1", "q1", ["action_AQ_assert_answer"])])
    write_jsonl(spaces, [InterpretationSpace(question_id="q1").to_dict()])
    raw = tmp_path / "raw.jsonl"
    write_jsonl(raw, [{"post_id": "p1", "title": "Why did the Roman Empire split in two?",
                       "score": 10, "community": "AskHistorians", "profanity_prob": 0.0,
                       "comments": [{"comment_id": f"c{i}", "text": "t", "score": 3}
                                    for i in range(6)]}])
    (tmp_path / "ontology.json").write_text(
        json.dumps(load_ontology().to_dict(), ensure_ascii=False), encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "ontology_path": "ontology.json",
        "answer_generator": {"kind": "mock", "name": "gen", "model": "m",
                             "fixture_path": "gen.jsonl"},
    }), encoding="utf-8")
    guidelines = tmp_path / "guidelines.md"
    guidelines.write_text("Soyez précis.", encoding="utf-8")
    request = build_mimic_prompt(question="Why is the sky blue?", subreddit_name="s",
                                 subreddit_explanation="e", guidelines="Soyez précis.",
                                 model_name="m", max_tokens=1000)
    append_fixture(tmp_path / "gen.jsonl", request_digest(request), "Rayleigh scattering.")
    questions = tmp_path / "questions.jsonl"
    write_jsonl(questions, [{"post_id": "q1", "title": "Why is the sky blue?"}])
    out = tmp_path / "out"
    args = {
        "filter": ["--in", raw, "--out", out, "--tally-out", tmp_path / "tally.json"],
        "model": ["--in", traces, "--out", out, "--config", config],
        "compare": ["--corpora", f"café={traces}", "--out", out,
                    "--json-out", tmp_path / "matrix.json",
                    "--long-csv-out", tmp_path / "long.csv"],
        "metrics": ["--in", traces, "--spaces", spaces, "--out", out],
        "mimic-answer": ["--in", questions, "--out", out, "--config", config,
                         "--subreddit", "s", "--explanation", "e",
                         "--guidelines-file", guidelines],
    }[command]
    run_python("import warnings\n"
               "warnings.filterwarnings('error', category=EncodingWarning, module='discotrace')\n"
               "from discotrace.cli import main\n"
               "main()", command, *args)
    assert out.exists()


def test_model_writes_the_counts_of_a_fixed_corpus(tmp_path):
    src, out = tmp_path / "traces.jsonl", tmp_path / "model.json"
    assert_, example = "action_AQ_assert_answer", "action_AQ_provide_example"
    write_jsonl(src, [trace_record("a1", "q1", [assert_, assert_, example]),
                      trace_record("a2", "q1", [example]),
                      trace_record("a3", "q1", []),
                      trace_record("a4", "q1", ["NONE", "NONE"])])
    result = invoke("model", "--in", str(src), "--out", str(out))
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    assert doc["counts"] == [
        ["<START>", "<END>", 1],
        ["<START>", "NONE", 1],
        ["<START>", assert_, 1],
        ["<START>", example, 1],
        ["NONE", "<END>", 1],
        [assert_, example, 1],
        [example, "<END>", 2],
    ]
    assert doc["training_sequences"] == 4


@pytest.mark.parametrize("command, flags", [("compare", []), ("compare", ["--family-level"]),
                                            ("model", []), ("model", ["--family-level"]),
                                            ("metrics", [])])
def test_unknown_act_id_names_its_line(tmp_path, command, flags):
    src = tmp_path / "traces.jsonl"
    write_jsonl(src, [trace_record("a1", "q1", ["action_AQ_assert_answer"]),
                      trace_record("a2", "q1", ["action_AQ_assert_answer", "foo"])])
    spaces_path = tmp_path / "spaces.jsonl"
    write_jsonl(spaces_path, [InterpretationSpace(question_id="q1").to_dict()])
    source = ["--corpora", str(src)] if command == "compare" else ["--in", str(src)]
    extra = ["--spaces", str(spaces_path)] if command == "metrics" else []
    result = invoke(command, *source, "--out", str(tmp_path / "o.json"), *extra, *flags)
    assert result.exit_code == 1, result.output
    assert result.stderr.startswith(f"error: {src}: line 2: ")
    assert "unknown act id 'foo'" in result.stderr


def test_compare_names_the_corpus_whose_line_is_bad(tmp_path):
    good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    write_jsonl(good, [trace_record("a1", "q1", ["action_AQ_assert_answer"])])
    write_jsonl(bad, [trace_record("a1", "q1", ["action_AQ_assert_answer"]),
                      trace_record("a2", "q1", ["bogus"])])
    result = invoke("compare", "--corpora", f"x={good}", "--corpora", f"y={bad}",
                    "--out", str(tmp_path / "m.csv"))
    assert result.exit_code == 1, result.output
    assert result.stderr == f"error: {bad}: line 2: unknown act id 'bogus'\n"


def test_compare_names_both_corpora_of_a_zero_probability_transition(tmp_path):
    # A model that gives an evaluation transition probability 0 (MLE) names the evaluation
    # corpus under the training corpus, by their --corpora names.
    a, b, config = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "mle.json"
    write_jsonl(a, [trace_record("a1", "q1", ["action_AQ_assert_answer"])])
    write_jsonl(b, [trace_record("b1", "q1", ["action_SI_counter_question"])])
    config.write_text(json.dumps({"smoothing": {"mode": "mle"}}))
    result = invoke("compare", "--corpora", f"A={a}", "--corpora", f"B={b}",
                    "--out", str(tmp_path / "m.csv"), "--config", str(config))
    assert result.exit_code == 1, result.output
    assert result.stderr == ("error: B under A: zero-probability transition '<START>' -> "
                             "'action_SI_counter_question'\n")


def record_trace_fixture(fixture, answers, space):
    """Record mock responses for the requests ``trace`` makes for ``answers``."""
    backend = BackendSpec(kind="mock", name="labeler", model="m", fixture_path=str(fixture))
    ontology = load_ontology()

    def responder(req):
        if "action_id" in req.system:
            return '[{"action_id": "action_AQ_assert_answer"}]'
        return '[{"interpretation_id": "id_1"}]'

    for answer in answers:
        tree = parse_rst_tree(answer["rst_tree"])
        segments = segment_answer(tree, BoundaryConfig(), answer_id=answer["answer_id"])

        def run():
            tagged, diags = tag_answer("Why is the sky blue?", answer["text"], segments,
                                       tree, ontology, backend)
            return pair_interpretations(
                "Why is the sky blue?", space, tagged, answer["text"], ontology, backend,
                answer_id=answer["answer_id"], question_id="q1", tree=tree, diagnostics=diags)

        record_fixture_by_replay(str(fixture), run, responder)


def test_trace_failure_keeps_the_finished_traces(tmp_path):
    questions, answers, spaces_path, fixture, config_path, space = make_trace_inputs(tmp_path)
    texts = ["It scatters light.", "Air molecules are small.", "Violet is absorbed."]
    records = [{"answer_id": f"a{i}", "question_id": "q1", "text": text,
                "rst_tree": {"edu": text}} for i, text in enumerate(texts)]
    write_jsonl(answers, records)

    def run(out):
        return invoke("trace", "--in", str(answers), "--questions", str(questions),
                      "--spaces", str(spaces_path), "--out", str(out),
                      "--config", str(config_path))

    record_trace_fixture(fixture, records[:2], space)
    partial = tmp_path / "partial.jsonl"
    result = run(partial)
    assert result.exit_code == 2, result.output
    record_trace_fixture(fixture, records[2:], space)
    full = tmp_path / "full.jsonl"
    assert run(full).exit_code == 0
    lines = full.read_text().splitlines(keepends=True)
    assert len(lines) == 3
    assert partial.read_text() == "".join(lines[:2])


def mimic_inputs(tmp_path, titles, backend):
    questions = tmp_path / "questions.jsonl"
    write_jsonl(questions, [{"post_id": f"q{i}", "title": t} for i, t in enumerate(titles)])
    (tmp_path / "rules.md").write_text("Be thorough.")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"answer_generator": {"name": "gen", "model": "m",
                                                            **backend}}))

    def run(out):
        return invoke("mimic-answer", "--in", str(questions), "--out", str(out),
                      "--config", str(config_path), "--subreddit", "s",
                      "--explanation", "e", "--guidelines-file", str(tmp_path / "rules.md"))
    return run


def test_mimic_failure_keeps_the_finished_answers(tmp_path):
    titles = ["Why is the sky blue?", "Why is grass green?", "Why is snow white?"]
    fixture = tmp_path / "gen.jsonl"
    fixture.touch()
    run = mimic_inputs(tmp_path, titles, {"kind": "mock", "fixture_path": "gen.jsonl"})

    def record(title):
        request = build_mimic_prompt(question=title, subreddit_name="s",
                                     subreddit_explanation="e", guidelines="Be thorough.",
                                     model_name="m", max_tokens=1000)
        append_fixture(fixture, request_digest(request), f"Because of {title}")

    for title in titles[:2]:
        record(title)
    partial = tmp_path / "partial.jsonl"
    result = run(partial)
    assert result.exit_code == 2, result.output
    record(titles[2])
    full = tmp_path / "full.jsonl"
    assert run(full).exit_code == 0
    lines = full.read_text().splitlines(keepends=True)
    assert len(lines) == 3
    assert partial.read_text() == "".join(lines[:2])


def record_mimic_replies(fixture, replies):
    """Write ``fixture`` anew: the mimic reply to each title in ``replies``."""
    fixture.write_text("")
    for title, reply in replies.items():
        request = build_mimic_prompt(question=title, subreddit_name="s",
                                     subreddit_explanation="e", guidelines="Be thorough.",
                                     model_name="m", max_tokens=1000)
        append_fixture(fixture, request_digest(request), reply)


def test_a_batch_stats_each_fixture_once(tmp_path, monkeypatch):
    titles = ["Why is the sky blue?", "Why is grass green?", "Why is snow white?"]
    fixture = tmp_path / "gen.jsonl"
    record_mimic_replies(fixture, {title: f"Because of {title}" for title in titles})
    run = mimic_inputs(tmp_path, titles, {"kind": "mock", "fixture_path": "gen.jsonl"})
    stats, getmtime = [], os.path.getmtime

    def counting_getmtime(path):
        stats.append(os.fspath(path))
        return getmtime(path)

    monkeypatch.setattr(gateway.os.path, "getmtime", counting_getmtime)
    assert run(tmp_path / "out.jsonl").exit_code == 0
    assert stats.count(str(fixture.resolve())) == 1
    assert len((tmp_path / "out.jsonl").read_text().splitlines()) == 3


def test_the_next_batch_reads_a_fixture_rewritten_in_between(tmp_path):
    titles = ["Why is the sky blue?", "Why is grass green?"]
    fixture = tmp_path / "gen.jsonl"
    run = mimic_inputs(tmp_path, titles, {"kind": "mock", "fixture_path": "gen.jsonl"})
    for version in ("old", "new"):
        record_mimic_replies(fixture, {title: f"{version} {title}" for title in titles})
        # a later mtime, whatever the file system's clock resolution
        os.utime(fixture, ns=(0, (1 + (version == "new")) * 10**9))
        out = tmp_path / f"{version}.jsonl"
        assert run(out).exit_code == 0
        assert [json.loads(line)["answer_text"] for line in out.read_text().splitlines()] == [
            f"{version} {title}" for title in titles]


def test_an_empty_mimic_reply_exits_2_and_keeps_the_finished_answers(tmp_path):
    titles = ["Why is the sky blue?", "Why is grass green?"]
    fixture = tmp_path / "gen.jsonl"
    for title, reply in zip(titles, ["Because of scattering.", ""]):
        request = build_mimic_prompt(question=title, subreddit_name="s",
                                     subreddit_explanation="e", guidelines="Be thorough.",
                                     model_name="m", max_tokens=1000)
        append_fixture(fixture, request_digest(request), reply)
    run = mimic_inputs(tmp_path, titles, {"kind": "mock", "fixture_path": "gen.jsonl"})
    out = tmp_path / "answers.jsonl"
    result = run(out)
    assert result.exit_code == 2, result.output
    assert result.stderr == "error: question 'q1': the reply is empty\n"
    assert [json.loads(line)["question_id"] for line in out.read_text().splitlines()] == ["q0"]


def test_an_empty_live_mimic_reply_is_asked_again(tmp_path):
    replies = ["", "Because of scattering."]

    def respond(body):
        return 200, {"choices": [{"message": {"content": replies.pop(0)}}]}

    with http_stub(respond) as (endpoint, stats):
        run = mimic_inputs(tmp_path, ["Why is the sky blue?"],
                           {"kind": "live", "endpoint": endpoint})
        out = tmp_path / "answers.jsonl"
        result = run(out)
    assert result.exit_code == 0, result.output
    assert stats.posts == 2
    assert json.loads(out.read_text())["answer_text"] == "Because of scattering."


@pytest.mark.parametrize("status, content, error", [(200, " ", UnparsableResponse),
                                                    (503, "Because.", TransportError)])
def test_mimic_keeps_the_type_of_a_failed_ask(tmp_path, status, content, error):
    # A reply that never parses stays an UnparsableResponse, as generate_raw raises it.
    questions, rules = tmp_path / "questions.jsonl", tmp_path / "rules.md"
    write_jsonl(questions, [{"post_id": "q0", "title": "Why is the sky blue?"}])
    rules.write_text("Be thorough.")
    config = tmp_path / "config.json"
    reply = {"choices": [{"message": {"content": content}}]}
    with http_stub(lambda body: (status, reply)) as (endpoint, stats):
        config.write_text(json.dumps({"answer_generator": {
            "kind": "live", "endpoint": endpoint, "name": "gen", "model": "m",
            "retry_limit": 0}}))
        with pytest.raises(error) as raised:
            cli.mimic_cmd(str(questions), str(tmp_path / "out.jsonl"), str(config),
                          "s", "e", str(rules), 1000)
    assert type(raised.value) is error
    assert str(raised.value).startswith("question 'q0': ")
    assert stats.posts == 1


@pytest.mark.parametrize("max_tokens", ["0", "-3"])
def test_mimic_max_tokens_below_1_is_a_usage_error(tmp_path, monkeypatch, max_tokens):
    calls = []
    monkeypatch.setattr(gateway, "complete", lambda *args: calls.append(args))
    (tmp_path / "gen.jsonl").touch()
    mimic_inputs(tmp_path, ["Why?"], {"kind": "mock", "fixture_path": "gen.jsonl"})
    out = tmp_path / "answers.jsonl"
    result = invoke("mimic-answer", "--in", str(tmp_path / "questions.jsonl"), "--out", str(out),
                    "--config", str(tmp_path / "config.json"), "--subreddit", "s",
                    "--explanation", "e", "--guidelines-file", str(tmp_path / "rules.md"),
                    "--max-tokens", max_tokens)
    assert result.exit_code == 1, result.output
    assert result.stderr == f"error: --max-tokens must be at least 1, not {max_tokens}\n"
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("title", [None, 7, "  "])
def test_mimic_names_a_question_that_is_not_text(tmp_path, title):
    (tmp_path / "gen.jsonl").touch()
    run = mimic_inputs(tmp_path, [title], {"kind": "mock", "fixture_path": "gen.jsonl"})
    result = run(tmp_path / "answers.jsonl")
    assert result.exit_code == 1, result.output
    assert result.stderr == "error: question 'q0': question must be non-empty\n"


def test_mimic_runs_max_in_flight_records_at_once(tmp_path):
    titles = [f"Why does thing {i} happen?" for i in range(6)]

    def respond(body):
        user = body["messages"][1]["content"]
        answer = next(f"Answer to {t}" for t in titles if t in user)
        return 200, {"choices": [{"message": {"content": answer}}]}

    with http_stub(respond, delay_s=0.05) as (endpoint, stats):
        run = mimic_inputs(tmp_path, titles, {"kind": "live", "endpoint": endpoint,
                                              "retry_limit": 0, "max_in_flight": 2})
        out = tmp_path / "answers.jsonl"
        result = run(out)
    assert result.exit_code == 0, result.output
    assert stats.posts == 6
    assert stats.max_in_flight == 2
    docs = [json.loads(line) for line in out.read_text().splitlines()]
    assert [d["question_id"] for d in docs] == [f"q{i}" for i in range(6)]
    assert [d["answer_text"] for d in docs] == [f"Answer to {t}" for t in titles]


def test_a_request_that_backs_off_holds_no_slot(tmp_path, monkeypatch):
    # One slot: while the record whose first POST got a 503 backs off, another record's
    # POST takes the slot. The backoff waits for that POST, not for a length of time.
    titles = [f"Why does thing {i} happen?" for i in range(3)]
    arrivals, other_arrived = [], threading.Event()

    def respond(body):
        title = next(t for t in titles if t in body["messages"][1]["content"])
        arrivals.append(title)
        if len(arrivals) == 1:
            return 503, {}
        if title != arrivals[0]:
            other_arrived.set()
        return 200, {"choices": [{"message": {"content": f"Answer to {title}"}}]}

    monkeypatch.setattr("discotrace.gateway.time.sleep", lambda s: other_arrived.wait(5))
    with http_stub(respond) as (endpoint, stats):
        run = mimic_inputs(tmp_path, titles, {"kind": "live", "endpoint": endpoint,
                                              "retry_limit": 1, "max_in_flight": 1})
        out = tmp_path / "answers.jsonl"
        result = run(out)
    assert result.exit_code == 0, result.output
    assert stats.posts == len(titles) + 1
    assert stats.max_in_flight == 1
    assert arrivals.index(arrivals[0], 1) > 1  # another record's POST came before the retry
    docs = [json.loads(line) for line in out.read_text().splitlines()]
    assert [d["answer_text"] for d in docs] == [f"Answer to {t}" for t in titles]


def test_interp_command_equals_build_space_per_question(tmp_path):
    titles = [f"Why does thing {i} happen?" for i in range(9)]
    questions = tmp_path / "questions.jsonl"
    write_jsonl(questions, [{"post_id": f"q{i}", "title": t} for i, t in enumerate(titles)])
    fixture = tmp_path / "interp.jsonl"
    fixture.touch()
    mock = {"kind": "mock", "fixture_path": "interp.jsonl"}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "interp_generators": [{**mock, "name": "gen_a", "model": "ma"},
                              {**mock, "name": "gen_b", "model": "mb"}],
        "embedder": {**mock, "name": "embed", "model": "me"},
        "dedup_threshold": 0.9,
    }))
    for i, title in enumerate(titles):
        for k, model in enumerate(("ma", "mb")):
            texts = [f"Shared reading {i}", f"Reading {i} of {model}"]
            reply = f"1. {texts[0]}\n2. {texts[1]}"
            if (i, model) == (3, "mb"):
                reply = "no list"  # this generator's reply never parses: the space warns
            request = build_interp_gen_prompt(title, "", model)
            append_fixture(fixture, request_digest(request), reply)
            append_fixture(fixture, text_digest("me", texts[0]), json.dumps([1.0, 0.0, 0.0]))
            append_fixture(fixture, text_digest("me", texts[1]), json.dumps([0.1, k, 1 - k]))

    out = tmp_path / "spaces.jsonl"
    result = invoke("interp", "--in", str(questions), "--out", str(out),
                    "--config", str(config_path))
    assert result.exit_code == 0, result.output

    config = PipelineConfig.from_file(config_path)
    expected = []
    for i, title in enumerate(titles):
        space, warnings = build_space(f"q{i}", title, "", config.interp_generators,
                                      config.embedder, config.dedup_threshold)
        expected.append({**space.to_dict(), **({"warnings": warnings} if warnings else {})})
    assert any("warnings" in doc for doc in expected)
    write_corpus(tmp_path / "expected.jsonl", expected)
    assert out.read_text() == (tmp_path / "expected.jsonl").read_text()


# (each generator's reply; the embedding fixture's replies for the two readings, or None
# for a live embedder that returns one vector; what the error says after the question)
BAD_INTERP_REPLIES = [
    ("1. First?\n2. Second?", ["[1.0, 0.0]", "[1.0, 0.0, 0.0]"],
     "mixed embedding dimensions [2, 3]"),
    ("1. First?\n2. Second?", ['"x"', "[1.0, 0.0]"],
     "embedding reply is not a list of number vectors"),
    ("1. First?\n2. Second?", None, "embedding reply has 1 vectors for 4 texts"),
    ("garbage reply", [], "neither NONE nor a numbered list"),
    *[("1. First?\n2. Second?", [vector, "[1.0, 0.0]"],
       "embedding reply is not a list of number vectors")
      for vector in ("[NaN, 0.0]", "[Infinity, 0.0]", "[0.0, -Infinity]",
                     "[1" + "0" * 400 + ", 0.0]")],
]


@pytest.mark.parametrize("reply, embeddings, reason", BAD_INTERP_REPLIES,
                         ids=["mixed-dimensions", "not-a-vector", "live-vector-short",
                              "unparsable", "nan", "infinity", "minus-infinity",
                              "int-too-large-for-a-float"])
def test_interp_exits_2_and_names_the_question_on_a_bad_reply(tmp_path, reply, embeddings,
                                                              reason):
    questions = tmp_path / "questions.jsonl"
    write_jsonl(questions, [{"post_id": "q1", "title": "Why is the sky blue?"}])
    fixture = tmp_path / "interp.jsonl"
    fixture.touch()
    for model in ("ma", "mb"):
        request = build_interp_gen_prompt("Why is the sky blue?", "", model)
        append_fixture(fixture, request_digest(request), reply)
    for text, embedding in zip(["First?", "Second?"], embeddings or []):
        append_fixture(fixture, text_digest("me", text), embedding)
    mock = {"kind": "mock", "fixture_path": "interp.jsonl"}
    config, out = tmp_path / "config.json", tmp_path / "spaces.jsonl"
    with http_stub(lambda body: (200, {"data": [{"embedding": [1.0, 0.0]}]})) as (endpoint, _):
        live = {"kind": "live", "endpoint": endpoint, "retry_limit": 0}
        config.write_text(json.dumps({
            "interp_generators": [{**mock, "name": "gen_a", "model": "ma"},
                                  {**mock, "name": "gen_b", "model": "mb"}],
            "embedder": {**(live if embeddings is None else mock), "name": "embed", "model": "me"},
        }))
        result = invoke("interp", "--in", str(questions), "--out", str(out),
                        "--config", str(config))
    assert result.exit_code == 2, result.output
    assert result.stderr == f"error: question 'q1': {reason}\n"
    assert out.read_text() == ""


# (config document, or its text, and how its error goes on after naming the file;
# "{dir}" stands for the config's directory)
BAD_CONFIGS = [
    ({"act_labeler": {"kind": "mock", "fixture": "f.jsonl"}},
     "act_labeler: unknown key 'fixture'"),
    ({"act_labeler": {"kind": "live", "max_in_flight": "4"}},
     "act_labeler: max_in_flight cannot be str"),
    ({"interp_generators": [7]}, "interp_generators: a backend cannot be int"),
    ({"boundary": {"boundary_pairs": 7}}, "boundary: "),
    ([1, 2], "expected a JSON object"),
    ({"ontology_path": 7}, "ontology_path cannot be int"),
    ({"smoothing": 7}, "smoothing cannot be int"),
    ({"act_labeler": {"kind": "mock", "fixture_path": "missing.jsonl"}},
     "act_labeler: a mock's fixture_path must name a file"),
    ("{not json", "Expecting property name"),
    ({"act_labeler": {"kind": "live", "retry_limit": 0}},
     "act_labeler: a live backend needs an endpoint\n"),
    ({"smoothing": {"lambda": float("nan")}}, "smoothing: lambda must be positive and finite"),
    ({"smoothing": {"lambda": float("inf")}}, "smoothing: lambda must be positive and finite"),
    ({"act_labeler": {"kind": "live", "endpoint": "localhost:9/v1"}},
     "act_labeler: a live endpoint must be an http:// or https:// URL with a host, "
     "not 'localhost:9/v1'\n"),
    ({"boundary": {"boundary_pairs": [["Contrats", "NN"]]}},
     "boundary: boundary_pairs must be (relation, nuclearity) pairs of the RST vocabulary, "
     "not ('Contrats', 'NN')\n"),
    ({"boundary": {"boundary_pairs": ["NS"]}}, "boundary: boundary_pairs must be "
     "(relation, nuclearity) pairs of the RST vocabulary, not 'NS'\n"),
    ({"boundary": {"boundary_pairz": []}}, "boundary: unknown key 'boundary_pairz'\n"),
    ({"boundary": {"min_span_k": 2.7}}, "boundary: min_span_k cannot be float\n"),
    ({"boundary": {"min_span_k": "3"}}, "boundary: min_span_k cannot be str\n"),
    ({"smoothing": {"lamda": 0.5}}, "smoothing: unknown key 'lamda'\n"),
    ({"smoothing": {"lambda": True}}, "smoothing: lambda cannot be bool\n"),
    ({"dedup_threshold": True}, "dedup_threshold cannot be bool\n"),
    ({"act_labeler": {"kind": "live", "endpoint": "http://127.0.0.1:abc/v1"}},
     "act_labeler: an endpoint's port must be a number in 0-65535, "
     "not 'http://127.0.0.1:abc/v1'\n"),
    ({"act_labeler": {"kind": "live", "endpoint": "http://127.0.0.1:70000/v1"}},
     "act_labeler: an endpoint's port must be a number in 0-65535, "
     "not 'http://127.0.0.1:70000/v1'\n"),
    ({"ontology_path": "."}, "ontology_path: '{dir}' is not a file\n"),
    ({"smoothing": {"lambda": 10 ** 400}}, "smoothing: lambda is too large for a float\n"),
    ({"dedup_threshold": 10 ** 400}, "dedup_threshold is too large for a float\n"),
    pytest.param('{"boundary": ' + "[" * 100_000 + "]" * 100_000 + "}",
                 "maximum recursion depth exceeded", id="too-deep"),
    ({"act_labeler": {"kind": "mock", "endpoint": "http://127.0.0.1:9/v1"}},
     "act_labeler: a mock backend does not read 'endpoint'\n"),
    ({"act_labeler": {"fixture_path": "f.jsonl", "max_in_flight": 4}},
     "act_labeler: a mock backend does not read 'max_in_flight'\n"),
    ({"embedder": {"kind": "mock", "retry_limit": 0}},
     "embedder: a mock backend does not read 'retry_limit'\n"),
    ({"interp_generators": [{"kind": "mock", "auth_env": "TOKEN"}]},
     "interp_generators: a mock backend does not read 'auth_env'\n"),
    ({"act_labeler": {"kind": "live", "endpoint": "http://127.0.0.1:9/v1",
                      "fixture_path": "f.jsonl"}},
     "act_labeler: a live backend does not read 'fixture_path'\n"),
    ({"act_labeler": {"kind": "live", "endpoint": "http://127.0.0.1:9/v1",
                      "content_path": ["choices", 0, "text"]}},
     "act_labeler: unknown key 'content_path'\n"),
    ({"act_labeler": {"kind": "mock", "content_path": []}},
     "act_labeler: unknown key 'content_path'\n"),
    ({"smoothing": {"mode": "laplace"}}, "smoothing: unknown smoothing mode 'laplace'\n"),
    ({"smoothing": {"lambda": 0}}, "smoothing: lambda must be positive and finite, not 0.0\n"),
]


@pytest.mark.parametrize("doc, named", BAD_CONFIGS)
def test_a_config_of_the_wrong_shape_names_the_file_and_key(tmp_path, doc, named):
    src = tmp_path / "answers.jsonl"
    write_jsonl(src, [{"answer_id": "a1", "question_id": "q1", "rst_tree": {"edu": "e"}}])
    config = tmp_path / "config.json"
    config.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    result = invoke("segment", "--in", str(src), "--out", str(tmp_path / "o.jsonl"),
                    "--config", str(config))
    assert isinstance(result.exception, SystemExit), result.exc_info
    assert result.exit_code == 1, result.output
    named = named.replace("{dir}", str(tmp_path.resolve()))
    assert result.stderr.startswith(f"error: config {config}: {named}"), result.stderr


def test_a_missing_field_is_named(tmp_path):
    src = tmp_path / "answers.jsonl"
    write_jsonl(src, [{"answer_id": "a1", "question_id": "q1"}])
    result = invoke("segment", "--in", str(src), "--out", str(tmp_path / "o.jsonl"))
    assert result.exit_code == 1, result.output
    assert result.stderr == "error: answer 'a1': missing field 'rst_tree'\n"

    write_jsonl(src, [trace_record("a1", "q1", ["action_AQ_assert_answer"]),
                      {"answer_id": "a2", "steps": [{"edu_indices": [0]}]}])
    result = invoke("model", "--in", str(src), "--out", str(tmp_path / "m.json"))
    assert result.exit_code == 1, result.output
    assert result.stderr == f"error: {src}: line 2: missing field 'act_id'\n"


def test_interp_stops_on_a_generator_fixture_miss(tmp_path):
    questions = tmp_path / "questions.jsonl"
    write_jsonl(questions, [{"post_id": "q1", "title": "Why is the sky blue?"}])
    fixture = tmp_path / "interp.jsonl"
    request = build_interp_gen_prompt("Why is the sky blue?", "", "ma")
    append_fixture(fixture, request_digest(request), "1. Physically, why?")
    append_fixture(fixture, text_digest("me", "Physically, why?"), "[1.0, 0.0]")
    mock = {"kind": "mock", "fixture_path": "interp.jsonl"}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "interp_generators": [{**mock, "name": "gen_a", "model": "ma"},
                              {**mock, "name": "gen_b", "model": "mb"}],
        "embedder": {**mock, "name": "embed", "model": "me"},
    }))
    out = tmp_path / "spaces.jsonl"
    result = invoke("interp", "--in", str(questions), "--out", str(out), "--config", str(config))
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error: question 'q1': no fixture entry for request digest ")
    assert out.read_text() == ""
