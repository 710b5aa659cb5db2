"""Building the deduplicated interpretation space of a question.

Raw interpretations are pooled across one or more generator backends
(config order, then generation order) and greedily clustered: a candidate
joins the first existing member whose embedding cosine similarity meets
the threshold, merging source sets, else it opens a new member. Ids are
assigned in member-creation order ("id_1", "id_2", ...). The cosine comes
from the law of cosines, (|a|² + |b|² − |a−b|²) / (2|a||b|), over the
vectors' norms (``math.hypot``) and distance (``math.dist``), so no vector
is normalised and no matrix is built; a zero vector is similar to nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .config import DEFAULT_DEDUP_THRESHOLD
from .corpus import of_type, typed
from .errors import TransportError, UnparsableResponse
from .prompts import build_interp_gen_prompt, parse_interp_list

if TYPE_CHECKING:
    from .gateway import BackendSpec


@dataclass
class Interpretation:
    id: str
    text: str
    sources: set = field(default_factory=set)


@dataclass
class InterpretationSpace:
    question_id: str
    members: list[Interpretation] = field(default_factory=list)
    dedup_threshold: float = DEFAULT_DEDUP_THRESHOLD

    def __len__(self):
        return len(self.members)

    def id_to_text(self) -> dict[str, str]:
        return {m.id: m.text for m in self.members}

    def to_dict(self) -> dict:
        return {
            "question_id": self.question_id,
            "threshold": self.dedup_threshold,
            "members": [
                {"id": m.id, "text": m.text, "sources": sorted(m.sources)}
                for m in self.members
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "InterpretationSpace":
        return cls(
            question_id=typed(doc, "question_id", str),
            dedup_threshold=typed(doc, "threshold", float, DEFAULT_DEDUP_THRESHOLD),
            members=[
                Interpretation(id=typed(m, "id", str), text=typed(m, "text", str),
                               sources={of_type("a source", s, str)
                                        for s in typed(m, "sources", list, [])})
                for m in typed(doc, "members", list, [])
            ],
        )


def generate_raw(
    question: str,
    community_context: str,
    backends: list[BackendSpec],
) -> tuple[list[tuple[str, str]], list[str]]:
    """Pool raw interpretations across generator backends.

    Returns (pooled items, warnings). Each reply is judged by ``gateway.ask``; a
    backend whose reply never parses, or whose transport fails, is left out of the
    pool with a warning, and its failure is not kept. When every backend fails, the
    last failure propagates as ``gateway.ask`` raised it. A fixture miss or an auth
    error raises at once.
    """
    from . import gateway  # here, so that reading a space loads no backend code

    if not backends:
        raise ValueError("at least one generator backend required")
    pooled: list[tuple[str, str]] = []
    warnings: list[str] = []
    for backend in backends:
        request = build_interp_gen_prompt(question, community_context, backend.model)
        try:
            texts = gateway.ask(backend, request, parse_interp_list)
        except (UnparsableResponse, TransportError) as exc:
            warnings.append(f"generator {backend.name}: {exc}")
            if len(warnings) == len(backends):
                raise
        else:
            pooled.extend((backend.name, text) for text in texts)
    return pooled, warnings


def _cosine(a, a_norm: float, b, b_norm: float) -> float:
    """The law of cosines over |a|, |b| and |a−b|, divided through by |a||b|; 0.0 when
    either vector is zero."""
    if not (a_norm and b_norm):
        return 0.0
    d = math.dist(a, b)
    return (a_norm / b_norm + b_norm / a_norm - (d / a_norm) * (d / b_norm)) / 2


def deduplicate(
    raw: list[tuple[str, str]],
    embedder: BackendSpec,
    threshold: float = DEFAULT_DEDUP_THRESHOLD,
    question_id: str = "",
) -> InterpretationSpace:
    """Greedy first-representative clustering of pooled interpretations.

    Each candidate joins the first member whose representative, the embedding of the
    member's first text, has cosine similarity at least ``threshold`` with its own
    embedding; else it opens a new member. The cosine of ``a`` and ``b`` is the law of
    cosines, (|a|² + |b|² − |a−b|²) / (2|a||b|), divided through by |a||b| so that no
    square overflows or underflows: one ``math.hypot`` per vector and one ``math.dist``
    per comparison. It agrees with the dot product of the unit vectors to about 1e-15
    for vectors of like norm, and is exactly 1.0 for identical vectors. A zero vector is
    similar to nothing, so it never merges. The texts are embedded in one
    ``gateway.embed`` call on ``embedder``, which checks the reply: one number vector
    per text, all of one length.
    """
    if not 0 < threshold <= 1:
        raise ValueError("threshold must be in (0, 1]")
    space = InterpretationSpace(question_id=question_id, dedup_threshold=threshold)
    if not raw:
        return space

    from . import gateway

    # tuples: math.dist would copy a list on every call
    vectors = [tuple(v) for v in gateway.embed(embedder, [text for _, text in raw])]
    norms = [math.hypot(*v) for v in vectors]

    representatives: list[tuple[tuple, float]] = []
    for (source, text), vector, norm in zip(raw, vectors, norms):
        member = None
        for existing, (rep, rep_norm) in zip(space.members, representatives):
            if _cosine(vector, norm, rep, rep_norm) >= threshold:
                member = existing
                break
        if member is None:
            member = Interpretation(id=f"id_{len(space.members) + 1}", text=text)
            space.members.append(member)
            representatives.append((vector, norm))
        member.sources.add(source)
    return space


def build_space(
    question_id: str,
    question: str,
    community_context: str,
    generator_backends: list[BackendSpec],
    embedder: BackendSpec,
    threshold: float = DEFAULT_DEDUP_THRESHOLD,
) -> tuple[InterpretationSpace, list[str]]:
    """Generate, pool, and deduplicate the space for one question; ``embedder`` is the
    backend that ``deduplicate`` embeds the pooled readings on."""
    raw, warnings = generate_raw(question, community_context, generator_backends)
    space = deduplicate(raw, embedder, threshold, question_id=question_id)
    return space, warnings
