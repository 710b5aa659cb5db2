"""Prompt construction and structured-response parsing.

All builders are pure: identical inputs produce byte-identical requests,
which is what lets mock fixtures key responses by request digest.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Optional

from .errors import (
    EmptySegment,
    IndexOutOfRange,
    InvalidActId,
    MixedForm,
    UnknownInterpretationId,
    UnparsableResponse,
)
from .ontology import NONE_ACT_ID, Ontology

DEFAULT_TEMPERATURE = 0.01


@dataclass(frozen=True)
class ChatRequest:
    system: str
    user: str
    model_name: str
    temperature: float = DEFAULT_TEMPERATURE
    max_tokens: Optional[int] = None
    head: Optional["PromptHead"] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.system or not self.user:
            raise ValueError("system and user text must be non-empty")


@dataclass(frozen=True, eq=False)
class PromptHead:
    """What the requests of one prompt kind for one answer share: all but the
    end of ``user``. The gateway keeps its digest state here once built."""

    system: str
    user: str
    model_name: str
    temperature: float = DEFAULT_TEMPERATURE
    max_tokens: Optional[int] = None
    digest_state: object = field(default=None, init=False, repr=False)

    def request(self, user_tail: str) -> ChatRequest:
        """The request ending in ``user_tail``; the only way a ``ChatRequest`` gets a head."""
        request = ChatRequest(self.system, self.user + user_tail, self.model_name,
                              self.temperature, self.max_tokens)
        object.__setattr__(request, "head", self)
        return request


@dataclass(frozen=True)
class ActAssignment:
    action_id: str
    subsegment_index: Optional[int] = None


ACT_TAGGING_SYSTEM = """You are an expert discourse analyst trying to understand how people answer questions on Reddit. You will analyze answers by tagging each text segment from a Reddit answer with a discourse action.

Rules
1. Select EXACTLY ONE action_id per segment or subsegment.
2. If the current segment continues the previous action, reuse the previous action_id.
3. If a new rhetorical move begins, select the appropriate new action_id.
4. If no action fits, use "NONE".

Subsegment Labeling
Each segment you receive was produced by a discourse parser. You will also be shown the subsegments (sentences) that make up the segment. If all subsegments serve the same discourse function, return a single-element array with one action_id. If different subsegments serve different discourse functions, return an array with one entry per subsegment, each with its subsegment_index and action_id.

Common patterns worth splitting:
- Background/reasoning subsegments followed by an answer subsegment
- An answer subsegment followed by a redirect or recommendation
- A presupposition rejection followed by an alternative answer

Do NOT split when:
- A subsegment contains light framing for the next (e.g., "So basically," followed by an answer -> single Assert Answer)
- The difference is just emphasis vs. substance within the same move

Caveats and Task Nuances
1. Consider the expected answer type of the question when labeling actions. Responding to "Where can I find X" with a website recommendation is an "Answer the Question" action, not a "Direct to Resource" action. If the resource is the answer itself, label it as "Assert Answer". If the resource is suggested as additional reading, use Direct to Resource.
2. When a segment contains both an answer and supporting reasoning: if subsegments are provided and the answer and reasoning fall in different subsegments, split them. If they are in the same subsegment (tightly integrated), label it as "Provide Reasoning or Justification" if the justification is non-trivial, otherwise "Assert Answer".
3. When a segment explains WHY something is the case, determine what it is explaining:
- If it explains why an answer is correct -> "Provide Reasoning or Justification"
- If it explains why a premise of the question is wrong -> "Reject Presupposition"
Example: For "Why is the sky blue?", the segment "Because of Rayleigh scattering" is justification. For "What's the best liver detox cleanse?", the segment "The concept of 'detoxing' your liver is misleading---your liver already filters toxins continuously" is rejecting the presupposition.
4. Sharing a personal anecdote or experience is "Provide Example", NOT "Provide Background." Background sets up context, frameworks, or history before answering. Examples use concrete cases (including personal ones) to support or illustrate an answer.
- "I have a doctorate, and sometimes introduce myself as Dr." -> Provide Example
- "The use of honorifics has a long and contested history in academia." -> Provide Background
5. When a segment follows a recommendation and provides supporting information, ask: does it explain why the recommendation is good in terms of the original question, or does it answer a different question?
- If it explains why the recommendation addresses the original question -> "Provide Reasoning or Justification"
- If it introduces new information that answers a tangentially related but different question -> "Answer a Question or Interpretation outside of Interpretation Space"
6. When a segment invokes an external source (study, statistic, law, quote, expert consensus) to support a claim, use "Cite External Source"---NOT "Provide Example" or "Provide Reasoning." The key test: does the credibility derive from an independently verifiable external source, or from the answerer's own experience/logic?
- "A 2019 Lancet study found no significant effect." -> Cite External Source
- "I saw the same thing happen at my last job." -> Provide Example
- "That's because the compiler needs type info at compile time." -> Provide Reasoning

Action Ontology
{ontology}

Output Format
Always respond with ONLY a JSON array. No explanation, no reasoning, no commentary.

Single action for whole segment:
[{{"action_id": "action_AQ_assert_answer"}}]

Distinct actions per subsegment:
[{{"subsegment_index": 0, "action_id": "action_CQ_reject_presupposition"}}, {{"subsegment_index": 1, "action_id": "action_AQ_assert_answer"}}]

When no action fits:
[{{"action_id": "NONE"}}]"""

ACT_TAGGING_USER = """Question
{question}

Full Answer
{answer}

Previous Segment action="{prev_label}"
{segment_prev}

Current Segment
{segment}

Subsegments
{subsegments}

Respond with ONLY a JSON array."""

INTERP_GEN_SYSTEM = """Users in a question answering community typically try to express a need for information through a question. Sometimes, from the language of their question alone, it is not clear what their exact information need is. This leads to many distinct interpretations of their question, each representing different information needs. You will be given a question asked in a specific online community that may have many distinct interpretations. Your task is to output those interpretations as unambiguous distinct questions.
{subreddit_context}
Critical Rules
- Each interpretation must be a different plausible reading of the SAME question --- a different thing the user could have MEANT by their words.
- Do NOT generate sub-questions, follow-up questions, related questions, or questions that explore different aspects of the topic.
- Ask yourself: "Could the user have typed this exact question while meaning THIS?" If the answer is no, it is not a valid interpretation.
- Interpretations should differ in WHAT the user is asking, not provide additional angles on the same clear question.

If the user's information need is already clear from their question, output 'NONE'. Otherwise, output the numbered list of interpretations as unambiguous questions and nothing else."""

INTERP_GEN_USER = """Question
{question}"""

INTERP_LABEL_SYSTEM = """You are an expert discourse analyst. A Reddit answer segment has already been labeled with a discourse action. Your task is to determine which interpretation of the original question the segment best addresses.

Rules
1. You are given a question, its possible interpretations, and a segment from an answer that has been labeled with a discourse action.
2. Determine which question interpretation the segment most directly addresses, adopts, or targets. This may be explicit or implicit.
3. If the segment clearly and directly addresses one of the interpretations, return that interpretation's ID.
4. If the segment does not clearly target any specific interpretation, return "NONE".

Output Format
Respond with exactly ONE JSON object:
[{"interpretation_id": "id_1"}]

When no specific interpretation is targeted:
[{"interpretation_id": "NONE"}]"""

INTERP_LABEL_USER = """Question
{question}

Question Interpretations
{interpretations}

Full Answer
{answer}

Segment (labeled as "{action_label}")
{segment}

Respond with EXACTLY ONE JSON dictionary (NOT an array)."""

# All requests of one answer share the user text before the per-segment part.
ACT_TAGGING_USER_HEAD = ACT_TAGGING_USER[:ACT_TAGGING_USER.index('Previous Segment action="')]
ACT_TAGGING_USER_TAIL = ACT_TAGGING_USER[len(ACT_TAGGING_USER_HEAD):]
INTERP_LABEL_USER_HEAD = INTERP_LABEL_USER[:INTERP_LABEL_USER.index("Segment (labeled as")]
INTERP_LABEL_USER_TAIL = INTERP_LABEL_USER[len(INTERP_LABEL_USER_HEAD):]

MIMIC_SYSTEM = (
    "r/{subreddit} is a subreddit for {subreddit_explanation}. "
    "The community guidelines for r/{subreddit} are as follows: {community_guidelines}."
)

MIMIC_USER = "Answer the question as if you were a redditor in that subreddit: {question}"

NO_PREVIOUS_SEGMENT = "(none)"


def render_ontology(ontology: Ontology) -> str:
    """Render the act registry as the ontology block for the tagging prompt."""
    lines = []
    for act in ontology.acts:
        family = act.family or "-"
        star = " [interpretation-eligible]" if act.interpretation_eligible else ""
        lines.append(f"- {act.id} ({family}): {act.display_name}{star}. {act.description}")
    return "\n".join(lines)


def build_act_prompt(
    question: str,
    answer: str,
    prev_segment: Optional[str],
    prev_label: Optional[str],
    segment: str,
    subsegments: list[str],
    ontology: Ontology,
    model_name: str,
    head: Optional[PromptHead] = None,
) -> ChatRequest:
    """Build the discourse-act tagging request for one segment. ``head`` may be
    an earlier segment's ``request.head``, so the shared text is rendered once."""
    if not segment.strip() or not subsegments:
        raise EmptySegment("segment and subsegments must be non-empty")
    if head is None:
        head = PromptHead(ACT_TAGGING_SYSTEM.format(ontology=render_ontology(ontology)),
                          ACT_TAGGING_USER_HEAD.format(question=question, answer=answer),
                          model_name)
    numbered = "\n".join(f"{i}: {text}" for i, text in enumerate(subsegments))
    return head.request(ACT_TAGGING_USER_TAIL.format(
        prev_label=prev_label if prev_label is not None else NO_PREVIOUS_SEGMENT,
        segment_prev=prev_segment if prev_segment is not None else NO_PREVIOUS_SEGMENT,
        segment=segment,
        subsegments=numbered,
    ))


def build_interp_gen_prompt(
    question: str,
    community_context: str,
    model_name: str,
) -> ChatRequest:
    """Build the interpretation-generation request for one question."""
    if not isinstance(question, str) or not question.strip():
        raise ValueError("question must be non-empty")
    context_block = f"\n{community_context}\n" if community_context else ""
    return ChatRequest(
        system=INTERP_GEN_SYSTEM.format(subreddit_context=context_block),
        user=INTERP_GEN_USER.format(question=question),
        model_name=model_name,
    )


def build_interp_label_prompt(
    question: str,
    interpretations: dict[str, str],
    answer: str,
    segment: str,
    act_label: str,
    model_name: str,
    head: Optional[PromptHead] = None,
) -> ChatRequest:
    """Build the interpretation-labeling request for one tagged segment;
    ``head`` as in :func:`build_act_prompt`."""
    if head is None:
        rendered = "\n".join(f"{iid}: {text}" for iid, text in interpretations.items())
        head = PromptHead(INTERP_LABEL_SYSTEM, INTERP_LABEL_USER_HEAD.format(
            question=question, interpretations=rendered, answer=answer), model_name)
    return head.request(INTERP_LABEL_USER_TAIL.format(segment=segment, action_label=act_label))


def build_mimic_prompt(
    question: str,
    subreddit_name: str,
    subreddit_explanation: str,
    guidelines: str,
    model_name: str,
    max_tokens: Optional[int] = None,
) -> ChatRequest:
    """Build the community-mimicking answer-generation request."""
    for name, value in [
        ("question", question),
        ("subreddit_name", subreddit_name),
        ("subreddit_explanation", subreddit_explanation),
        ("guidelines", guidelines),
    ]:
        if not isinstance(value, str) or not value.strip():
            raise ValueError(f"{name} must be non-empty")
    return ChatRequest(
        system=MIMIC_SYSTEM.format(
            subreddit=subreddit_name,
            subreddit_explanation=subreddit_explanation,
            community_guidelines=guidelines,
        ),
        user=MIMIC_USER.format(question=question),
        model_name=model_name,
        max_tokens=max_tokens,
    )


_FENCE_RE = re.compile(r"^```[a-zA-Z]*\n?|\n?```$", re.MULTILINE)


def _strip_fences(raw: str) -> str:
    if "```" not in raw:  # no fence for the regex to remove
        return raw.strip()
    return _FENCE_RE.sub("", raw.strip()).strip()


def parse_act_response(raw: str, ontology: Ontology, n_subsegments: int) -> list[ActAssignment]:
    """Parse a tagging response into validated act assignments.

    Accepts either the whole-segment form (one unindexed entry) or the
    per-subsegment form (every entry indexed, unique, in range). Mixing
    the two forms is rejected.
    """
    if n_subsegments < 1:
        raise ValueError("n_subsegments must be >= 1")
    text = _strip_fences(raw)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UnparsableResponse(f"not valid JSON: {exc}") from exc
    if not isinstance(data, list) or not data:
        raise UnparsableResponse("expected a non-empty JSON array")

    assignments = []
    indexed = [isinstance(e, dict) and "subsegment_index" in e for e in data]
    if any(indexed) and not all(indexed):
        raise MixedForm("some entries carry subsegment_index, others do not")
    if not any(indexed) and len(data) > 1:
        raise MixedForm("multiple unindexed entries")

    seen_indices = set()
    for entry in data:
        if not isinstance(entry, dict) or "action_id" not in entry:
            raise UnparsableResponse(f"entry missing action_id: {entry!r}")
        act_id = entry["action_id"]
        if not isinstance(act_id, str) or act_id != NONE_ACT_ID and act_id not in ontology:
            raise InvalidActId(f"unknown act id {act_id!r}")
        index = entry.get("subsegment_index")
        if index is not None:
            if type(index) is not int or not 0 <= index < n_subsegments:  # bool is no index
                raise IndexOutOfRange(f"subsegment_index {index!r} out of range")
            if index in seen_indices:
                raise IndexOutOfRange(f"duplicate subsegment_index {index}")
            seen_indices.add(index)
        assignments.append(ActAssignment(action_id=act_id, subsegment_index=index))

    assignments.sort(key=lambda a: (a.subsegment_index is not None, a.subsegment_index or 0))
    return assignments


_NUMBERED_RE = re.compile(r"^\s*\d+\s*[.)]\s*(.+?)\s*$")


def parse_interp_list(raw: str) -> list[str]:
    """Parse an interpretation-generation response into a list of texts.

    "NONE" (any casing, surrounding whitespace ignored) means the model
    abstained; otherwise numbered lines are split with numbering stripped
    and blank items dropped.
    """
    text = _strip_fences(raw)
    if text.strip().lower() == "none":
        return []
    items = []
    for line in text.splitlines():
        match = _NUMBERED_RE.match(line)
        if match and match.group(1):
            items.append(match.group(1))
    if not items:
        raise UnparsableResponse("neither NONE nor a numbered list")
    return items


def parse_interp_label(raw: str, known_ids: set[str]) -> Optional[str]:
    """Parse an interpretation-labeling response to an id, or None on NONE."""
    text = _strip_fences(raw)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UnparsableResponse(f"not valid JSON: {exc}") from exc
    if isinstance(data, list):
        if len(data) != 1:
            raise UnparsableResponse("expected exactly one object")
        data = data[0]
    if not isinstance(data, dict) or "interpretation_id" not in data:
        raise UnparsableResponse("expected an object with interpretation_id")
    iid = data["interpretation_id"]
    if isinstance(iid, str) and iid.strip().upper() == "NONE":
        return None
    if not isinstance(iid, str) or iid not in known_ids:
        raise UnknownInterpretationId(f"unknown interpretation id {iid!r}")
    return iid
