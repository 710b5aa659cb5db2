import gc
import json
import re
import weakref

import pytest

from discotrace import (
    BackendSpec,
    BoundaryConfig,
    pair_interpretations,
    parse_rst_tree,
    segment_answer,
    tag_answer,
)
from discotrace.corpus import read_corpus
from discotrace.errors import MalformedLine
from discotrace.gateway import append_fixture, request_digest
from discotrace.interpretations import Interpretation, InterpretationSpace
from discotrace.pipeline import DiscoTrace, TraceStep

from conftest import chain_tree, http_stub, leaf, node, record_fixture_by_replay


def mock_backend(tmp_path, name="tagger", retry_limit=1):
    fixture = tmp_path / f"{name}.jsonl"
    fixture.touch()
    return BackendSpec(kind="mock", name=name, model="mock-model",
                       fixture_path=str(fixture), retry_limit=retry_limit)


def single_act(act_id):
    return json.dumps([{"action_id": act_id}])


def run_tagging(tmp_path, doc, responder, question="Q?"):
    tree = parse_rst_tree(doc)
    answer = " ".join(e.text for e in tree.leaves())
    segments = segment_answer(tree, BoundaryConfig())
    backend = mock_backend(tmp_path)
    result = record_fixture_by_replay(
        backend.fixture_path,
        lambda: tag_answer(question, answer, segments, tree, load_ont(), backend),
        responder,
    )
    return result, tree, segments, backend, answer


_ONT = None


def load_ont():
    global _ONT
    if _ONT is None:
        from discotrace import load_ontology

        _ONT = load_ontology()
    return _ONT


def test_single_segment_single_act(tmp_path):
    (tagged, diagnostics), *_ = run_tagging(
        tmp_path, {"edu": "It is blue."},
        lambda req: single_act("action_AQ_assert_answer"),
    )
    assert diagnostics == []
    assert tagged == [TraceStep(edu_indices=(0,), act_id="action_AQ_assert_answer")]


def test_per_subsegment_split(tmp_path):
    doc = node("Elaboration", "NS", leaf("Not a real premise."), leaf("It is blue."))

    def responder(req):
        return json.dumps([
            {"subsegment_index": 0, "action_id": "action_CQ_reject_presupposition"},
            {"subsegment_index": 1, "action_id": "action_AQ_assert_answer"},
        ])

    (tagged, _), *_ = run_tagging(tmp_path, doc, responder)
    assert [t.act_id for t in tagged] == [
        "action_CQ_reject_presupposition", "action_AQ_assert_answer",
    ]
    assert [t.edu_indices for t in tagged] == [(0,), (1,)]


def test_adjacent_equal_labels_merge_within_segment(tmp_path):
    doc = node("Elaboration", "NS", leaf("a"), leaf("b"))

    def responder(req):
        return json.dumps([
            {"subsegment_index": 0, "action_id": "action_AQ_assert_answer"},
            {"subsegment_index": 1, "action_id": "action_AQ_assert_answer"},
        ])

    (tagged, _), *_ = run_tagging(tmp_path, doc, responder)
    assert tagged == [TraceStep(edu_indices=(0, 1), act_id="action_AQ_assert_answer")]


def test_continuation_merges_across_segments(tmp_path):
    # Contrast root yields two segments; mock repeats the same act.
    doc = node("Contrast", "NN", leaf("a"), leaf("b"))
    (tagged, _), *_ = run_tagging(
        tmp_path, doc, lambda req: single_act("action_AQ_provide_reasoning"),
    )
    assert len(tagged) == 1
    assert tagged[0].edu_indices == (0, 1)


def test_previous_segment_context_flows(tmp_path):
    doc = node("Contrast", "NN", leaf("first part"), leaf("second part"))
    seen = []

    def responder(req):
        seen.append(req.user)
        if "Current Segment\nfirst part" in req.user:
            return single_act("action_AQ_assert_answer")
        return single_act("action_AQ_provide_example")

    (tagged, _), *_ = run_tagging(tmp_path, doc, responder)
    assert [t.act_id for t in tagged] == [
        "action_AQ_assert_answer", "action_AQ_provide_example",
    ]
    second_call = [u for u in seen if "Current Segment\nsecond part" in u][0]
    assert 'Previous Segment action="action_AQ_assert_answer"' in second_call
    assert "first part" in second_call


def test_system_text_rendered_once_per_answer(tmp_path, monkeypatch):
    from discotrace import gateway, prompts

    doc = node("Contrast", "NN", node("Contrast", "NN", leaf("a"), leaf("b")), leaf("c"))
    _, tree, segments, backend, answer = run_tagging(
        tmp_path, doc, lambda req: single_act("action_AQ_assert_answer"))
    renders, requests = [], []
    render, complete = prompts.render_ontology, gateway.complete
    monkeypatch.setattr(prompts, "render_ontology", lambda o: renders.append(o) or render(o))
    monkeypatch.setattr(gateway, "complete", lambda b, r: requests.append(r) or complete(b, r))
    tag_answer("Q?", answer, segments, tree, load_ont(), backend)
    assert len(segments) == len(requests) == 3 and len(renders) == 1
    assert len({id(request.head) for request in requests}) == 1


def test_parse_failure_degrades_to_none(tmp_path):
    tree = parse_rst_tree({"edu": "hello there"})
    segments = segment_answer(tree)
    backend = mock_backend(tmp_path, retry_limit=1)

    def run():
        return tag_answer("Q?", "hello there", segments, tree, load_ont(), backend)

    (tagged, diagnostics) = record_fixture_by_replay(
        backend.fixture_path, run, lambda req: "utter garbage",
    )
    assert [t.act_id for t in tagged] == ["NONE"]
    assert len(diagnostics) == 1
    assert "parse failure" in diagnostics[0]


def test_parse_failure_leaves_no_reference_cycle(tmp_path):
    # A kept exception's traceback would reach tag_answer's frame, and so the tree.
    doc = {"edu": "hello there"}
    backend = mock_backend(tmp_path, retry_limit=1)

    def run(tree):
        return tag_answer("Q?", "hello there", segment_answer(tree), tree, load_ont(), backend)

    record_fixture_by_replay(
        backend.fixture_path, lambda: run(parse_rst_tree(doc)), lambda req: "utter garbage",
    )
    gc.disable()
    try:
        tree = parse_rst_tree(doc)
        alive = weakref.ref(tree)
        _, diagnostics = run(tree)
        del tree
        assert alive() is None
    finally:
        gc.enable()
    assert "parse failure" in diagnostics[0]


PAIR_TREE = parse_rst_tree(chain_tree(3))  # EDUs e0, e1, e2


def make_space(n=3):
    return InterpretationSpace(
        question_id="q1",
        members=[Interpretation(id=f"id_{i+1}", text=f"Reading {i+1}?") for i in range(n)],
    )


def test_pair_empty_space_zero_calls(tmp_path):
    backend = mock_backend(tmp_path, name="labeler")
    tagged = [TraceStep(edu_indices=(0,), act_id="action_AQ_assert_answer")]
    trace = pair_interpretations(
        "Q?", InterpretationSpace(question_id="q1"), tagged, "answer",
        load_ont(), backend, answer_id="a1", question_id="q1", tree=PAIR_TREE,
    )
    # An empty fixture would raise FixtureMiss on any call; none happened.
    assert [s.interpretation_id for s in trace.steps] == [None]
    assert len(trace.steps) == 1


def test_pair_ineligible_segments_skip_call(tmp_path):
    backend = mock_backend(tmp_path, name="labeler")
    tagged = [
        TraceStep(edu_indices=(0,), act_id="action_CQ_reject_presupposition"),
        TraceStep(edu_indices=(1,), act_id="NONE"),
    ]
    trace = pair_interpretations(
        "Q?", make_space(), tagged, "answer", load_ont(), backend,
        answer_id="a1", question_id="q1", tree=PAIR_TREE,
    )
    assert [s.interpretation_id for s in trace.steps] == [None, None]


def test_pair_eligible_segment_gets_id(tmp_path):
    backend = mock_backend(tmp_path, name="labeler")
    tagged = [TraceStep(edu_indices=(0,), act_id="action_AQ_assert_answer")]

    def run():
        return pair_interpretations(
            "Q?", make_space(), tagged, "answer", load_ont(), backend,
            answer_id="a1", question_id="q1", tree=PAIR_TREE,
        )

    trace = record_fixture_by_replay(
        backend.fixture_path, run, lambda req: '[{"interpretation_id":"id_2"}]',
    )
    assert trace.steps[0].interpretation_id == "id_2"
    assert trace.steps[0].act_id == "action_AQ_assert_answer"


def test_pair_unknown_id_degrades(tmp_path):
    backend = mock_backend(tmp_path, name="labeler")
    tagged = [TraceStep(edu_indices=(0,), act_id="action_AQ_assert_answer")]

    def run():
        return pair_interpretations(
            "Q?", make_space(3), tagged, "answer", load_ont(), backend,
            answer_id="a1", question_id="q1", tree=PAIR_TREE,
        )

    trace = record_fixture_by_replay(
        backend.fixture_path, run, lambda req: '[{"interpretation_id":"id_99"}]',
    )
    assert trace.steps[0].interpretation_id is None
    assert any("id_99" in d for d in trace.diagnostics)


def test_pair_counts_one_call_per_eligible_segment(tmp_path):
    backend = mock_backend(tmp_path, name="labeler")
    tagged = [
        TraceStep(edu_indices=(0,), act_id="action_AQ_assert_answer"),
        TraceStep(edu_indices=(1,), act_id="action_CQ_reject_presupposition"),
        TraceStep(edu_indices=(2,), act_id="action_SI_clarification"),
    ]
    calls = []

    def run():
        return pair_interpretations(
            "Q?", make_space(), tagged, "a b c", load_ont(), backend,
            answer_id="a1", question_id="q1", tree=PAIR_TREE,
        )

    def responder(req):
        calls.append(req)
        return '[{"interpretation_id":"id_1"}]'

    trace = record_fixture_by_replay(backend.fixture_path, run, responder)
    assert len(calls) == 2  # only the two eligible segments
    assert "\ne0\n" in calls[0].user and "\ne2\n" in calls[1].user  # each its own EDU text
    assert [s.interpretation_id for s in trace.steps] == ["id_1", None, "id_1"]


def test_trace_round_trip(tmp_path):
    backend = mock_backend(tmp_path, name="labeler")
    tagged = [TraceStep(edu_indices=(0, 1), act_id="action_AQ_assert_answer")]

    def run():
        return pair_interpretations(
            "Q?", make_space(), tagged, "answer text", load_ont(), backend,
            answer_id="a1", question_id="q1", tree=PAIR_TREE,
        )

    trace = record_fixture_by_replay(
        backend.fixture_path, run, lambda req: '[{"interpretation_id":"NONE"}]',
    )
    from discotrace import DiscoTrace

    doc = trace.to_dict()
    assert DiscoTrace.from_dict(doc).to_dict() == doc
    assert doc["steps"][0] == {"act_id": "action_AQ_assert_answer", "edu_indices": [0, 1]}


@pytest.mark.parametrize("step", [["x"], "x", 7, None])
def test_from_dict_rejects_a_step_that_is_no_object(tmp_path, step):
    doc = {"answer_id": "a", "steps": [step]}
    with pytest.raises(TypeError):
        DiscoTrace.from_dict(doc)
    path = tmp_path / "traces.jsonl"
    path.write_text(json.dumps(doc) + "\n")
    with pytest.raises(MalformedLine, match=f"^{re.escape(str(path))}: line 1: ") as exc:
        read_corpus(path, view=DiscoTrace.from_dict)
    assert isinstance(exc.value.__cause__, TypeError)


@pytest.mark.parametrize("value, kind", [(7, "int"), (["id_1"], "list"), (False, "bool")])
def test_from_dict_names_a_wrong_typed_interpretation_id(value, kind):
    step = {"act_id": "action_AQ_assert_answer", "interpretation_id": value}
    with pytest.raises(TypeError, match=f"^interpretation_id cannot be {kind}$"):
        DiscoTrace.from_dict({"answer_id": "a", "steps": [step]})


def test_replay_is_deterministic(tmp_path):
    doc = node("Contrast", "NN", leaf("alpha"), leaf("beta"))

    def responder(req):
        if "alpha" in req.user.split("Current Segment")[1]:
            return single_act("action_SI_clarification")
        return single_act("action_AQ_assert_answer")

    (first, _), tree, segments, backend, answer = run_tagging(tmp_path, doc, responder)
    second, _ = tag_answer("Q?", answer, segments, tree, load_ont(), backend)
    assert first == second


def test_outage_tagging_posts_retry_limit_plus_one_per_segment(tmp_path, monkeypatch):
    # The gateway owns transport retries; the pipeline does not retry them again.
    monkeypatch.setattr("discotrace.gateway.time.sleep", lambda s: None)
    tree = parse_rst_tree(node("Contrast", "NN", leaf("first part"), leaf("second part")))
    segments = segment_answer(tree, BoundaryConfig())
    assert len(segments) == 2
    with http_stub(lambda body: (503, {})) as (endpoint, stats):
        backend = BackendSpec(kind="live", endpoint=endpoint, retry_limit=3)
        tagged, diagnostics = tag_answer(
            "Q?", "first part second part", segments, tree, load_ont(), backend)
    assert stats.posts == 2 * 4
    assert [t.act_id for t in tagged] == ["NONE"]
    assert len(diagnostics) == 2
    for index, diagnostic in enumerate(diagnostics):
        assert re.fullmatch(
            rf"transport failure on segment \({index},\) after 1 ask: exhausted 3 "
            r"retries: backend returned 503; act set to NONE \(request digest [0-9a-f]{64}\)",
            diagnostic,
        ), diagnostic


def test_outage_pairing_posts_retry_limit_plus_one(tmp_path, monkeypatch):
    monkeypatch.setattr("discotrace.gateway.time.sleep", lambda s: None)
    tagged = [TraceStep(edu_indices=(0,), act_id="action_AQ_assert_answer")]
    with http_stub(lambda body: (503, {})) as (endpoint, stats):
        backend = BackendSpec(kind="live", endpoint=endpoint, retry_limit=3)
        trace = pair_interpretations(
            "Q?", make_space(), tagged, "answer", load_ont(), backend,
            answer_id="a1", question_id="q1", tree=PAIR_TREE,
        )
    assert stats.posts == 4
    assert trace.steps[0].interpretation_id is None
    [diagnostic] = trace.diagnostics
    assert re.fullmatch(
        r"transport failure on segment \(0,\) after 1 ask: exhausted 3 retries: backend "
        r"returned 503; interpretation set to NONE \(request digest [0-9a-f]{64}\)",
        diagnostic,
    ), diagnostic


def test_mock_asks_an_unparsable_reply_once(tmp_path, monkeypatch):
    # A mock replays the same reply for the same digest, so asking again is waste;
    # the diagnostic states the one ask made.
    from discotrace import gateway

    doc = node("Contrast", "NN", leaf("first part"), leaf("second part"))
    tree = parse_rst_tree(doc)
    segments = segment_answer(tree, BoundaryConfig())
    backend = mock_backend(tmp_path, retry_limit=3)

    def run():
        return tag_answer("Q?", "first part second part", segments, tree, load_ont(), backend)

    record_fixture_by_replay(backend.fixture_path, run, lambda req: "utter garbage")
    requests, complete = [], gateway.complete
    monkeypatch.setattr(gateway, "complete", lambda b, r: requests.append(r) or complete(b, r))
    tagged, diagnostics = run()
    assert len(requests) == len(segments) == 2
    assert [t.act_id for t in tagged] == ["NONE"]
    assert diagnostics == [
        f"parse failure on segment ({index},) after 1 ask: not valid JSON: Expecting "
        f"value: line 1 column 1 (char 0); act set to NONE "
        f"(request digest {request_digest(request)})"
        for index, request in enumerate(requests)
    ]


def _chat_reply(text):
    return 200, {"choices": [{"message": {"content": text}}]}


def test_live_unparsable_reply_is_asked_again():
    replies = iter(["utter garbage", single_act("action_AQ_assert_answer")])
    tree = parse_rst_tree({"edu": "hello there"})
    with http_stub(lambda body: _chat_reply(next(replies))) as (endpoint, stats):
        backend = BackendSpec(kind="live", endpoint=endpoint, retry_limit=3)
        tagged, diagnostics = tag_answer(
            "Q?", "hello there", segment_answer(tree), tree, load_ont(), backend)
    assert stats.posts == 2
    assert [t.act_id for t in tagged] == ["action_AQ_assert_answer"]
    assert diagnostics == []


def test_live_reply_that_never_parses_spends_the_attempt_budget():
    tree = parse_rst_tree({"edu": "hello there"})
    with http_stub(lambda body: _chat_reply("utter garbage")) as (endpoint, stats):
        backend = BackendSpec(kind="live", endpoint=endpoint, retry_limit=2)
        tagged, diagnostics = tag_answer(
            "Q?", "hello there", segment_answer(tree), tree, load_ont(), backend)
    assert stats.posts == 3
    assert [t.act_id for t in tagged] == ["NONE"]
    assert len(diagnostics) == 1
    assert diagnostics[0].startswith("parse failure on segment (0,) after 3 asks: not valid JSON")
    assert "; act set to NONE (request digest " in diagnostics[0]


def _count_complete_calls(monkeypatch):
    from discotrace import gateway

    calls, complete = [], gateway.complete
    monkeypatch.setattr(gateway, "complete", lambda b, r: calls.append(r) or complete(b, r))
    return calls


def _stated_asks(diagnostic):
    return int(re.search(r" after (\d+) asks?: ", diagnostic).group(1))


@pytest.mark.parametrize("stage", ["tag", "pair"])
@pytest.mark.parametrize("kind, status, reply, asks", [
    ("mock", None, "utter garbage", 1),
    ("live", 200, "utter garbage", 4),
    ("live", 503, None, 1),
])
def test_each_diagnostic_states_the_complete_calls_made(
        tmp_path, monkeypatch, stage, kind, status, reply, asks):
    monkeypatch.setattr("discotrace.gateway.time.sleep", lambda s: None)
    tree = parse_rst_tree({"edu": "hello there"})
    tagged = [TraceStep(edu_indices=(0,), act_id="action_AQ_assert_answer")]

    def run(backend):
        if stage == "tag":
            return tag_answer("Q?", "hello there", segment_answer(tree), tree, load_ont(),
                              backend)[1]
        return pair_interpretations("Q?", make_space(), tagged, "hello there", load_ont(),
                                    backend, tree=tree).diagnostics

    if kind == "mock":
        backend = mock_backend(tmp_path, retry_limit=3)
        record_fixture_by_replay(backend.fixture_path, lambda: run(backend), lambda r: reply)
        calls = _count_complete_calls(monkeypatch)
        [diagnostic] = run(backend)
    else:
        calls = _count_complete_calls(monkeypatch)
        with http_stub(lambda body: (status, {"choices": [{"message": {"content": reply}}]})
                       ) as (endpoint, stats):
            [diagnostic] = run(BackendSpec(kind="live", endpoint=endpoint, retry_limit=3))
        assert stats.posts == 4  # one POST per ask, or all four in the one ask of an outage
    assert len(calls) == asks
    assert _stated_asks(diagnostic) == asks
    assert diagnostic.startswith(f"{'parse' if reply else 'transport'} failure on segment (0,) ")
    what = "act" if stage == "tag" else "interpretation"
    assert f"; {what} set to NONE (request digest {request_digest(calls[0])})" in diagnostic


def test_live_unknown_interpretation_id_is_asked_again():
    replies = iter(['[{"interpretation_id": "id_99"}]', '[{"interpretation_id": "id_2"}]'])
    tagged = [TraceStep(edu_indices=(0,), act_id="action_AQ_assert_answer")]
    with http_stub(lambda body: _chat_reply(next(replies))) as (endpoint, stats):
        backend = BackendSpec(kind="live", endpoint=endpoint, retry_limit=3)
        trace = pair_interpretations("Q?", make_space(), tagged, "answer", load_ont(),
                                     backend, tree=PAIR_TREE)
    assert stats.posts == 2
    assert [s.interpretation_id for s in trace.steps] == ["id_2"]
    assert trace.diagnostics == []


@pytest.mark.parametrize("reply", [
    '[{"action_id": ["action_AQ_assert_answer"]}]',
    '[{"action_id": "action_AQ_assert_answer", "subsegment_index": false}]',
])
def test_act_reply_of_the_wrong_shape_is_asked_again_live_and_once_on_a_mock(
        tmp_path, reply):
    tree = parse_rst_tree({"edu": "hello there"})
    good = single_act("action_AQ_assert_answer")
    replies = iter([reply, good])
    with http_stub(lambda body: _chat_reply(next(replies))) as (endpoint, stats):
        backend = BackendSpec(kind="live", endpoint=endpoint, retry_limit=3)
        tagged, diagnostics = tag_answer(
            "Q?", "hello there", segment_answer(tree), tree, load_ont(), backend)
    assert stats.posts == 2
    assert [t.act_id for t in tagged] == ["action_AQ_assert_answer"]
    assert diagnostics == []

    (tagged, diagnostics), *_ = run_tagging(tmp_path, {"edu": "hello there"}, lambda r: reply)
    assert [t.act_id for t in tagged] == ["NONE"]
    assert len(diagnostics) == 1 and diagnostics[0].startswith("parse failure")


def test_interp_reply_of_the_wrong_shape_degrades_to_no_interpretation(tmp_path):
    backend = mock_backend(tmp_path)
    tagged = [TraceStep(edu_indices=(0,), act_id="action_AQ_assert_answer")]

    def run():
        return pair_interpretations("Q?", make_space(), tagged, "answer", load_ont(),
                                    backend, tree=PAIR_TREE)

    trace = record_fixture_by_replay(backend.fixture_path, run,
                                     lambda r: '[{"interpretation_id": ["id_1"]}]')
    assert [s.interpretation_id for s in trace.steps] == [None]
    assert len(trace.diagnostics) == 1
    assert "unknown interpretation id ['id_1']" in trace.diagnostics[0]
