import json

import pytest

from discotrace import (
    build_act_prompt,
    build_interp_gen_prompt,
    build_interp_label_prompt,
    build_mimic_prompt,
    parse_act_response,
    parse_interp_label,
    parse_interp_list,
)
from discotrace.errors import (
    EmptySegment,
    IndexOutOfRange,
    InvalidActId,
    MixedForm,
    UnknownInterpretationId,
    UnparsableResponse,
)
from discotrace.prompts import ActAssignment, ChatRequest


def act_request(ontology, **overrides):
    kwargs = dict(
        question="Why is the sky blue?",
        answer="Because of scattering. Also sunsets.",
        prev_segment=None,
        prev_label=None,
        segment="Because of scattering.",
        subsegments=["Because of scattering."],
        ontology=ontology,
        model_name="test-model",
    )
    kwargs.update(overrides)
    return build_act_prompt(**kwargs)


def test_chat_request_defaults():
    req = ChatRequest(system="s", user="u", model_name="m")
    assert req.temperature == 0.01
    assert req.max_tokens is None


def test_chat_request_rejects_empty():
    with pytest.raises(ValueError):
        ChatRequest(system="", user="u", model_name="m")


def test_act_prompt_first_segment_placeholder(ontology):
    req = act_request(ontology)
    assert 'Previous Segment action="(none)"' in req.user
    assert "(none)" in req.user


def test_act_prompt_numbered_subsegments(ontology):
    req = act_request(
        ontology,
        segment="a b c",
        subsegments=["a", "b", "c"],
    )
    assert "0: a" in req.user and "1: b" in req.user and "2: c" in req.user


def test_act_prompt_none_rule(ontology):
    req = act_request(ontology)
    assert 'If no action fits, use "NONE"' in req.system
    assert "Select EXACTLY ONE action_id per segment" in req.system


def test_act_prompt_embeds_ontology(ontology):
    req = act_request(ontology)
    for act in ontology.acts:
        assert act.id in req.system


def test_act_prompt_carries_context(ontology):
    req = act_request(
        ontology,
        prev_segment="Earlier text.",
        prev_label="action_AQ_assert_answer",
    )
    assert "Earlier text." in req.user
    assert 'action="action_AQ_assert_answer"' in req.user


def test_act_prompt_empty_segment(ontology):
    with pytest.raises(EmptySegment):
        act_request(ontology, segment="  ", subsegments=["  "])


def test_act_prompt_pure(ontology):
    assert act_request(ontology) == act_request(ontology)


def test_parse_act_whole_segment(ontology):
    raw = '[{"action_id": "action_AQ_assert_answer"}]'
    parsed = parse_act_response(raw, ontology, 1)
    assert parsed == [ActAssignment(action_id="action_AQ_assert_answer")]


def test_parse_act_per_subsegment(ontology):
    raw = ('[{"subsegment_index":0,"action_id":"action_CQ_reject_presupposition"},'
           '{"subsegment_index":1,"action_id":"action_AQ_assert_answer"}]')
    parsed = parse_act_response(raw, ontology, 2)
    assert [a.action_id for a in parsed] == [
        "action_CQ_reject_presupposition", "action_AQ_assert_answer",
    ]
    assert [a.subsegment_index for a in parsed] == [0, 1]


def test_parse_act_invalid_id(ontology):
    with pytest.raises(InvalidActId):
        parse_act_response('[{"action_id":"action_ZZ_bogus"}]', ontology, 1)


@pytest.mark.parametrize("act_id", [["action_AQ_assert_answer"], {"id": "NONE"}, 7, None])
def test_parse_act_id_that_is_not_text(ontology, act_id):
    with pytest.raises(InvalidActId):
        parse_act_response(json.dumps([{"action_id": act_id}]), ontology, 1)


def test_parse_act_none_allowed(ontology):
    parsed = parse_act_response('[{"action_id":"NONE"}]', ontology, 1)
    assert parsed[0].action_id == "NONE"


def test_parse_act_strips_fences(ontology):
    raw = '```json\n[{"action_id": "action_AQ_assert_answer"}]\n```'
    assert parse_act_response(raw, ontology, 1)[0].action_id == "action_AQ_assert_answer"


def test_parse_act_mixed_form(ontology):
    raw = ('[{"subsegment_index":0,"action_id":"NONE"},'
           '{"action_id":"action_AQ_assert_answer"}]')
    with pytest.raises(MixedForm):
        parse_act_response(raw, ontology, 2)


def test_parse_act_index_out_of_range(ontology):
    raw = '[{"subsegment_index":5,"action_id":"NONE"}]'
    with pytest.raises(IndexOutOfRange):
        parse_act_response(raw, ontology, 2)


@pytest.mark.parametrize("index", [True, False, 1.0, "0"])
def test_parse_act_index_that_is_not_an_integer(ontology, index):
    raw = json.dumps([{"subsegment_index": index, "action_id": "NONE"}])
    with pytest.raises(IndexOutOfRange):
        parse_act_response(raw, ontology, 2)


def test_parse_act_duplicate_index(ontology):
    raw = ('[{"subsegment_index":0,"action_id":"NONE"},'
           '{"subsegment_index":0,"action_id":"NONE"}]')
    with pytest.raises(IndexOutOfRange):
        parse_act_response(raw, ontology, 2)


def test_parse_act_not_json(ontology):
    with pytest.raises(UnparsableResponse):
        parse_act_response("I think it is an answer.", ontology, 1)


def test_parse_act_round_trip(ontology):
    assignments = [
        {"subsegment_index": 0, "action_id": "action_SI_clarification"},
        {"subsegment_index": 1, "action_id": "NONE"},
    ]
    parsed = parse_act_response(json.dumps(assignments), ontology, 2)
    serialized = [
        {"subsegment_index": a.subsegment_index, "action_id": a.action_id}
        for a in parsed
    ]
    assert serialized == assignments


def test_interp_gen_prompt_rules():
    req = build_interp_gen_prompt("What is X?", "Users ask about X.", "m")
    assert "as unambiguous distinct questions" in req.system
    assert ("If the user's information need is already clear from their question, "
            "output 'NONE'") in req.system
    assert "Users ask about X." in req.system
    assert "What is X?" in req.user


def test_interp_gen_prompt_empty_context():
    with_ctx = build_interp_gen_prompt("Q?", "ctx", "m")
    without = build_interp_gen_prompt("Q?", "", "m")
    assert "ctx" in with_ctx.system
    assert "ctx" not in without.system
    assert without.user == with_ctx.user


def test_parse_interp_list_none():
    assert parse_interp_list("NONE") == []
    assert parse_interp_list("   none\n") == []


def test_parse_interp_list_numbered():
    assert parse_interp_list("1. A?\n2. B?") == ["A?", "B?"]
    assert parse_interp_list("1) A?\n\n2) B?\n") == ["A?", "B?"]


def test_parse_interp_list_unparsable():
    with pytest.raises(UnparsableResponse):
        parse_interp_list("here are some thoughts")


def test_interp_label_prompt():
    req = build_interp_label_prompt(
        question="Q?",
        interpretations={"id_1": "Reading one?", "id_2": "Reading two?"},
        answer="A full answer.",
        segment="A segment.",
        act_label="Assert Answer",
        model_name="m",
    )
    assert "id_1: Reading one?" in req.user
    assert '(labeled as "Assert Answer")' in req.user
    assert "interpretation_id" in req.system


def test_requests_from_a_head_equal_requests_built_without_one(ontology):
    first = act_request(ontology)
    for prev_segment, prev_label in ((None, None), ("Because.", "action_AQ_assert_answer")):
        fields = dict(prev_segment=prev_segment, prev_label=prev_label,
                      segment="Also sunsets.", subsegments=["Also", "sunsets."])
        request = act_request(ontology, head=first.head, **fields)
        assert request == act_request(ontology, **fields)
        assert repr(request) == repr(act_request(ontology, **fields))
        assert request.head is first.head and request.system is first.system

    fields = dict(question="Q?", interpretations={"id_1": "One?", "id_2": "Two?"},
                  answer="A full answer.", act_label="Assert Answer", model_name="m")
    first = build_interp_label_prompt(segment="A full", **fields)
    request = build_interp_label_prompt(segment="answer.", head=first.head, **fields)
    assert request == build_interp_label_prompt(segment="answer.", **fields)
    assert request.head is first.head


def test_parse_interp_label_forms():
    assert parse_interp_label('[{"interpretation_id":"id_1"}]', {"id_1"}) == "id_1"
    assert parse_interp_label('{"interpretation_id":"id_1"}', {"id_1"}) == "id_1"
    assert parse_interp_label('[{"interpretation_id":"NONE"}]', {"id_1"}) is None


def test_parse_interp_label_unknown_id():
    with pytest.raises(UnknownInterpretationId):
        parse_interp_label('[{"interpretation_id":"id_99"}]', {"id_1", "id_2", "id_3"})


@pytest.mark.parametrize("iid", [["id_1"], {"id": "id_1"}, 1, None])
def test_parse_interp_label_id_that_is_not_text(iid):
    with pytest.raises(UnknownInterpretationId):
        parse_interp_label(json.dumps([{"interpretation_id": iid}]), {"id_1"})


def test_parse_interp_label_unparsable():
    with pytest.raises(UnparsableResponse):
        parse_interp_label("id_1", {"id_1"})


def test_mimic_prompt():
    req = build_mimic_prompt(
        question="Why did X happen?",
        subreddit_name="AskHistorians",
        subreddit_explanation="questions about history",
        guidelines="Answers are held to a higher standard.",
        model_name="m",
    )
    assert req.user.startswith("Answer the question as if you were a redditor in that subreddit:")
    assert "r/AskHistorians is a subreddit for questions about history" in req.system
    assert "held to a higher standard" in req.system


def test_mimic_prompt_empty_guidelines():
    with pytest.raises(ValueError):
        build_mimic_prompt("Q?", "sub", "stuff", "   ", "m")
