"""Data-driven registry of discourse acts.

Acts are grouped into five families: answer the question (AQ), comment
on the question (CQ), seek information (SI), redirect the question (RQ),
and no-op (NO). Every ontology carries the family-less NONE sentinel for
"no action fits". The registry ships as an editable JSON file so that
acts and interpretation-eligibility flags can be completed or swapped
without code changes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional, Union

from .corpus import INPUT_ERRORS, input_error, of_type, typed
from .errors import (
    DuplicateActId,
    MissingNoneSentinel,
    UnknownActId,
    UnknownFamily,
)

FAMILIES = frozenset({"AQ", "CQ", "SI", "RQ", "NO"})

NONE_ACT_ID = "NONE"


@dataclass(frozen=True)
class DiscourseAct:
    id: str
    family: Optional[str]
    display_name: str
    interpretation_eligible: bool
    description: str = ""


@dataclass(frozen=True)
class Ontology:
    acts: tuple
    version: str
    _by_id: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_by_id", {a.id: a for a in self.acts})

    def get(self, act_id: str) -> DiscourseAct:
        try:
            return self._by_id[act_id]
        except KeyError:
            raise UnknownActId(f"unknown act id {act_id!r}") from None

    def __contains__(self, act_id: str) -> bool:
        return act_id in self._by_id

    def act_ids(self, include_none: bool = True) -> list[str]:
        return [a.id for a in self.acts if include_none or a.id != NONE_ACT_ID]

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "acts": [
                {
                    "id": a.id,
                    "family": a.family,
                    "display_name": a.display_name,
                    "interpretation_eligible": a.interpretation_eligible,
                    "description": a.description,
                }
                for a in self.acts
            ],
        }


def load_ontology(source: Union[str, Path, dict, None] = None) -> Ontology:
    """Load and validate an ontology from a JSON file, dict, or the default.

    With no argument, loads the ontology shipped with the package. Each act's
    ``id``, ``display_name`` and ``description`` are text, its ``family`` text or
    null, and ``interpretation_eligible`` a boolean. A file that is not such an
    ontology raises the ``corpus.input_error`` of ``ontology <path>``.
    """
    if source is None:
        return _ontology_of(json.loads(resources.files("discotrace.data").joinpath(
            "default_ontology.json").read_text(encoding="utf-8")))
    if isinstance(source, dict):
        return _ontology_of(source)
    try:
        return _ontology_of(json.loads(Path(source).read_text(encoding="utf-8")))
    except INPUT_ERRORS as exc:
        raise input_error(f"ontology {source}", exc) from exc


def _ontology_of(doc: dict) -> Ontology:
    doc = of_type("an ontology", doc, dict)
    acts = []
    seen = set()
    for entry in of_type("acts", doc["acts"], list):
        entry = of_type("an act", entry, dict)
        act = DiscourseAct(
            id=typed(entry, "id", str),
            family=typed(entry, "family", str, None),
            display_name=typed(entry, "display_name", str),
            interpretation_eligible=typed(entry, "interpretation_eligible", bool),
            description=typed(entry, "description", str, ""),
        )
        if act.id in seen:
            raise DuplicateActId(f"duplicate act id {act.id!r}")
        seen.add(act.id)
        if act.id == NONE_ACT_ID:
            if act.interpretation_eligible:
                raise UnknownFamily("NONE sentinel must be ineligible")
        elif act.family not in FAMILIES:
            raise UnknownFamily(f"unknown family {act.family!r} for act {act.id!r}")
        acts.append(act)

    if NONE_ACT_ID not in seen:
        raise MissingNoneSentinel("ontology must include the NONE sentinel act")

    return Ontology(acts=tuple(acts), version=str(doc.get("version", "")))


def is_eligible(ontology: Ontology, act_id: str) -> bool:
    """Whether an act may be paired with a question interpretation."""
    if act_id == NONE_ACT_ID:
        return False
    return ontology.get(act_id).interpretation_eligible
