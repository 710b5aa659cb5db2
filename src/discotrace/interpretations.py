"""Building the deduplicated interpretation space of a question.

Raw interpretations are pooled across one or more generator backends
(config order, then generation order) and greedily clustered: a candidate
joins the first existing member whose embedding cosine similarity meets
the threshold, merging source sets, else it opens a new member. Ids are
assigned in member-creation order ("id_1", "id_2", ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Union

from . import gateway
from .corpus import of_type, typed
from .errors import EmbeddingDimensionMismatch, TransportError, UnparsableResponse
from .gateway import BackendSpec
from .prompts import build_interp_gen_prompt, parse_interp_list

if TYPE_CHECKING:  # numpy is imported by deduplicate, the one function that computes with it
    import numpy as np

DEFAULT_DEDUP_THRESHOLD = 0.85


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
    pool with a warning. When every backend fails, the last failure raises as
    ``UnparsableResponse`` or ``TransportError``. A fixture miss or an auth error
    raises at once.
    """
    if not backends:
        raise ValueError("at least one generator backend required")
    pooled: list[tuple[str, str]] = []
    warnings: list[str] = []
    for backend in backends:
        request = build_interp_gen_prompt(question, community_context, backend.model)
        texts, failure = gateway.ask(backend, request, parse_interp_list)
        if failure is None:
            pooled.extend((backend.name, text) for text in texts)
        else:
            warnings.append(f"generator {backend.name}: {failure[1]}")
    if len(warnings) == len(backends):
        kind, message, _ = failure
        raise (TransportError if kind == "transport" else UnparsableResponse)(message)
    return pooled, warnings


EmbedFn = Callable[[list[str]], list[list[float]]]


def deduplicate(
    raw: list[tuple[str, str]],
    embedder: Union[BackendSpec, EmbedFn],
    threshold: float = DEFAULT_DEDUP_THRESHOLD,
    question_id: str = "",
) -> InterpretationSpace:
    """Greedy first-representative clustering of pooled interpretations."""
    import numpy as np

    if not 0 < threshold <= 1:
        raise ValueError("threshold must be in (0, 1]")
    space = InterpretationSpace(question_id=question_id, dedup_threshold=threshold)
    if not raw:
        return space

    texts = [text for _, text in raw]
    if isinstance(embedder, BackendSpec):
        vectors = gateway.embed(embedder, texts)
    else:
        vectors = embedder(texts)
    matrix = np.asarray(vectors, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != len(texts):
        raise EmbeddingDimensionMismatch("embedder returned a ragged or misshaped array")
    norms = np.linalg.norm(matrix, axis=1)
    norms[norms == 0] = 1.0
    unit = matrix / norms[:, None]

    representatives: list[np.ndarray] = []
    for (source, text), vector in zip(raw, unit):
        member = None
        for existing, rep in zip(space.members, representatives):
            if float(vector @ rep) >= threshold:
                member = existing
                break
        if member is None:
            member = Interpretation(id=f"id_{len(space.members) + 1}", text=text)
            space.members.append(member)
            representatives.append(vector)
        member.sources.add(source)
    return space


def build_space(
    question_id: str,
    question: str,
    community_context: str,
    generator_backends: list[BackendSpec],
    embedder: Union[BackendSpec, EmbedFn],
    threshold: float = DEFAULT_DEDUP_THRESHOLD,
) -> tuple[InterpretationSpace, list[str]]:
    """Generate, pool, and deduplicate the space for one question."""
    raw, warnings = generate_raw(question, community_context, generator_backends)
    space = deduplicate(raw, embedder, threshold, question_id=question_id)
    return space, warnings
