"""Act tagging and interpretation pairing for one answer.

Segments are processed strictly left to right: each tagging call carries
the preceding segment and its predicted label. Per-subsegment responses
split an action segment at EDU granularity; a label equal to the previous
one extends that step, so no two adjacent steps share an act. Pairing asks
about each eligible step's EDU text, read from the tree. Per-segment failures
degrade to NONE with a diagnostic rather than aborting the answer (a mock
fixture miss is a configuration error and still raises).
Each request goes through :func:`gateway.ask`, which alone judges its reply, decides
how often it is asked and returns it or raises. Both stages catch a failure in
``_ask``: its kind, segment, message, the asks made and the request digest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import gateway
from .corpus import typed
from .errors import TransportError, UnparsableResponse
from .gateway import BackendSpec
from .interpretations import InterpretationSpace
from .ontology import NONE_ACT_ID, Ontology, is_eligible
from .prompts import (
    build_act_prompt,
    build_interp_label_prompt,
    parse_act_response,
    parse_interp_label,
)
from .rst import RstTree
from .segmentation import ActionSegment


@dataclass(slots=True)
class TraceStep:
    """One (act, interpretation) step; ``tag_answer`` leaves the interpretation unset."""

    act_id: str
    edu_indices: tuple
    interpretation_id: Optional[str] = None


@dataclass
class DiscoTrace:
    """Ordered (act, interpretation) tuples for one answer."""

    answer_id: str
    question_id: str = ""
    steps: list[TraceStep] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)

    def act_sequence(self) -> list[str]:
        return [step.act_id for step in self.steps]

    def to_dict(self) -> dict:
        steps = []
        for step in self.steps:
            record = {"act_id": step.act_id, "edu_indices": list(step.edu_indices)}
            if step.interpretation_id is not None:
                record["interpretation_id"] = step.interpretation_id
            steps.append(record)
        return {
            "answer_id": self.answer_id,
            "question_id": self.question_id,
            "steps": steps,
            "diagnostics": list(self.diagnostics),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "DiscoTrace":
        """A trace from its JSON object; a field of the wrong type raises ``TypeError``
        naming it, which ``read_lines`` reports with its line."""
        answer_id, question_id = typed(doc, "answer_id", str), typed(doc, "question_id", str, "")
        steps = []
        for step in doc.get("steps", ()):
            act_id = step["act_id"]  # first, so that a step that is no object is a TypeError
            edu_indices = tuple(step.get("edu_indices", ()))
            interpretation_id = typed(step, "interpretation_id", str, None)
            steps.append(TraceStep(act_id, edu_indices, interpretation_id))
        return cls(answer_id, question_id, steps, list(doc.get("diagnostics", ())))


def tag_answer(
    question: str,
    answer_text: str,
    segments: list[ActionSegment],
    tree: RstTree,
    ontology: Ontology,
    backend: BackendSpec,
) -> tuple[list[TraceStep], list[str]]:
    """Label each segment with a discourse act; returns (steps, diagnostics)."""
    edu_texts = [edu.text for edu in tree.leaves()]
    tagged: list[TraceStep] = []
    diagnostics: list[str] = []
    prev_text: Optional[str] = None
    prev_label: Optional[str] = None
    head = None  # what every request of this answer shares, from its first request

    for segment in segments:
        subsegments = [edu_texts[i] for i in segment.edu_indices]
        request = build_act_prompt(
            question=question,
            answer=answer_text,
            prev_segment=prev_text,
            prev_label=prev_label,
            segment=segment.text,
            subsegments=subsegments,
            ontology=ontology,
            model_name=backend.model,
            head=head,
        )
        head = request.head
        assignments = _ask(backend, request, segment.edu_indices, "act", diagnostics,
                           lambda raw: parse_act_response(raw, ontology, len(subsegments)))

        pieces = _assignments_to_pieces(segment, assignments)
        for indices, act_id in pieces:
            if tagged and tagged[-1].act_id == act_id:
                tagged[-1].edu_indices += indices
            else:
                tagged.append(TraceStep(act_id, indices))

        prev_text = segment.text
        prev_label = pieces[-1][1]

    return tagged, diagnostics


def _ask(backend, request, edu_indices, what: str, diagnostics: list, parse):
    """``gateway.ask``'s parsed reply, or None after noting its failure in ``diagnostics``
    with its kind, segment, message, the asks made and the request digest."""
    try:
        return gateway.ask(backend, request, parse)
    except (UnparsableResponse, TransportError) as exc:
        kind, asks = ("transport" if isinstance(exc, TransportError) else "parse"), exc.asks
        diagnostics.append(
            f"{kind} failure on segment {edu_indices} after {asks} ask{'s' * (asks != 1)}: "
            f"{exc}; {what} set to NONE (request digest {gateway.request_digest(request)})")


def _assignments_to_pieces(segment: ActionSegment, assignments) -> list[tuple[tuple, str]]:
    """Resolve a response into (edu_indices, act_id) pieces in order."""
    if not assignments:
        return [(tuple(segment.edu_indices), NONE_ACT_ID)]
    if assignments[0].subsegment_index is None:
        return [(tuple(segment.edu_indices), assignments[0].action_id)]
    # Per-subsegment form: EDUs not named by any entry inherit the nearest
    # preceding label (or the first entry's label at the left edge).
    by_index = {a.subsegment_index: a.action_id for a in assignments}
    pieces: list[tuple[list, str]] = []
    current = by_index.get(0, assignments[0].action_id)
    for offset, edu_index in enumerate(segment.edu_indices):
        label = by_index.get(offset, current)
        current = label
        if pieces and pieces[-1][1] == label:
            pieces[-1][0].append(edu_index)
        else:
            pieces.append(([edu_index], label))
    return [(tuple(indices), label) for indices, label in pieces]


def pair_interpretations(
    question: str,
    space: Optional[InterpretationSpace],
    tagged: list[TraceStep],
    answer_text: str,
    ontology: Ontology,
    backend: BackendSpec,
    answer_id: str = "",
    question_id: str = "",
    *,
    tree: RstTree,
    diagnostics: Optional[list[str]] = None,
) -> DiscoTrace:
    """Copy ``tagged`` into a trace, attaching interpretation ids to eligible steps.

    Ineligible acts and empty spaces skip the labeler call entirely. A
    reply that never parses, an unknown id among them, or a transport
    failure leaves the step without an interpretation, with a diagnostic.
    """
    trace = DiscoTrace(
        answer_id=answer_id,
        question_id=question_id,
        diagnostics=list(diagnostics or []),
    )
    edu_texts = [edu.text for edu in tree.leaves()]
    id_to_text = space.id_to_text() if space is not None else {}
    known_ids = set(id_to_text)
    head = None  # as in tag_answer

    for step in tagged:
        interpretation_id = None
        if known_ids and is_eligible(ontology, step.act_id):
            request = build_interp_label_prompt(
                question=question,
                interpretations=id_to_text,
                answer=answer_text,
                segment=" ".join(edu_texts[i] for i in step.edu_indices),
                act_label=ontology.get(step.act_id).display_name,
                model_name=backend.model,
                head=head,
            )
            head = request.head
            interpretation_id = _ask(backend, request, step.edu_indices, "interpretation",
                                     trace.diagnostics,
                                     lambda raw: parse_interp_label(raw, known_ids))
        trace.steps.append(TraceStep(step.act_id, step.edu_indices, interpretation_id))
    return trace
