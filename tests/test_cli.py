import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from discotrace import (
    BackendSpec,
    BoundaryConfig,
    load_ontology,
    parse_rst_tree,
    segment_answer,
    tag_answer,
)
from discotrace.cli import main
from discotrace.interpretations import Interpretation, InterpretationSpace
from discotrace.pipeline import DiscoTrace, TraceStep
from discotrace.stats import (
    Smoothing,
    cross_perplexity_matrix,
    fit_bigram,
    interpretation_metrics,
    project_families,
)

from conftest import deep_tree_json, http_stub, record_fixture_by_replay, write_jsonl


def invoke(*args):
    return CliRunner().invoke(main, list(args))


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
    assert result.stderr.startswith("error: line 2: ")
    assert "Traceback" not in result.output


def test_trace_command_fixture_miss_exit_2(tmp_path):
    questions, answers, spaces_path, fixture, config_path, _ = make_trace_inputs(tmp_path)
    # Fixture left empty: every request misses.
    out = tmp_path / "traces.jsonl"
    result = invoke("trace", "--in", str(answers), "--questions", str(questions),
                    "--out", str(out), "--config", str(config_path))
    assert result.exit_code == 2


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


def test_model_command(tmp_path):
    src = tmp_path / "traces.jsonl"
    write_jsonl(src, [
        trace_record("a1", "q1", ["action_AQ_assert_answer",
                                  "action_AQ_provide_reasoning"]),
        trace_record("a2", "q1", ["action_AQ_assert_answer"]),
    ])
    out = tmp_path / "model.json"
    result = invoke("model", "--in", str(src), "--out", str(out),
                    "--smoothing", "add_lambda:0.5")
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    assert doc["training_sequences"] == 2
    assert doc["smoothing"] == {"mode": "add_lambda", "lambda": 0.5}
    counts = {(p, n): c for p, n, c in doc["counts"]}
    assert counts[("action_AQ_assert_answer", "action_AQ_provide_reasoning")] == 1


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

    for family_level in (False, True):
        flag = ["--family-level"] if family_level else []
        vocabulary = (sorted({a.family for a in ontology.acts if a.family}) + ["NONE"]
                      if family_level else ontology.act_ids())
        project = (lambda t: project_families(t, ontology)) if family_level else list
        result = invoke("compare", "--corpora", f"L={left}", "--corpora", f"R={right}",
                        "--out", str(out / "m.csv"), "--json-out", str(out / "m.json"),
                        "--smoothing", "add_lambda:0.5", *flag)
        assert result.exit_code == 0, result.output
        matrix = cross_perplexity_matrix(
            {"L": project(left_traces), "R": project(right_traces)}, smoothing,
            vocabulary=vocabulary)
        assert (out / "m.json").read_text() == matrix.to_json()

        result = invoke("model", "--in", str(left), "--out", str(out / "model.json"),
                        "--smoothing", "add_lambda:0.5", *flag)
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
@pytest.mark.parametrize("bad_steps", [[{"edu_indices": [0]}], ["action_AQ_assert_answer"]])
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
    assert result.stderr.startswith("error: line 2")


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


@pytest.mark.parametrize("module", ["scipy", "requests", "urllib3"])
def test_cli_import_does_not_load(module):
    # Every subcommand pays the CLI's import time: scipy alone cost about 1 s,
    # and only live backends need the HTTP stack.
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run(
        [sys.executable, "-c", f"import discotrace.cli, sys; print({module!r} in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert result.stdout.strip() == "False"
