"""Pipeline configuration file (JSON) and its validation."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .gateway import BackendSpec
from .interpretations import DEFAULT_DEDUP_THRESHOLD
from .segmentation import BoundaryConfig
from .stats import Smoothing


@dataclass
class PipelineConfig:
    act_labeler: Optional[BackendSpec] = None
    interp_generators: list = field(default_factory=list)
    interp_labeler: Optional[BackendSpec] = None
    embedder: Optional[BackendSpec] = None
    answer_generator: Optional[BackendSpec] = None
    ontology_path: Optional[str] = None
    boundary: BoundaryConfig = field(default_factory=BoundaryConfig)
    smoothing: Smoothing = field(default_factory=Smoothing)
    dedup_threshold: float = DEFAULT_DEDUP_THRESHOLD

    @classmethod
    def from_dict(cls, doc: dict, base_dir: Optional[Path] = None) -> "PipelineConfig":
        def spec_of(spec):
            spec = dict(spec)
            if spec.get("fixture_path") and base_dir is not None:
                spec["fixture_path"] = str((base_dir / spec["fixture_path"]).resolve())
            return BackendSpec.from_dict(spec)

        def backend(key):
            return None if doc.get(key) is None else spec_of(doc[key])

        ontology_path = doc.get("ontology_path")
        if ontology_path is not None:
            if base_dir is not None:
                ontology_path = str((base_dir / ontology_path).resolve())
            if not Path(ontology_path).exists():
                raise FileNotFoundError(f"ontology_path {ontology_path!r} does not exist")

        smoothing_doc = doc.get("smoothing", {})
        threshold = float(doc.get("dedup_threshold", DEFAULT_DEDUP_THRESHOLD))
        if not 0 < threshold <= 1:
            raise ValueError("dedup_threshold must be in (0, 1]")

        return cls(
            act_labeler=backend("act_labeler"),
            interp_generators=[spec_of(spec) for spec in doc.get("interp_generators", [])],
            interp_labeler=backend("interp_labeler"),
            embedder=backend("embedder"),
            answer_generator=backend("answer_generator"),
            ontology_path=ontology_path,
            boundary=BoundaryConfig.from_dict(doc.get("boundary", {})),
            smoothing=Smoothing(
                mode=smoothing_doc.get("mode", "add_lambda"),
                lam=float(smoothing_doc.get("lambda", 1.0)),
            ),
            dedup_threshold=threshold,
        )

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        path = Path(path)
        return cls.from_dict(json.loads(path.read_text()), base_dir=path.parent)
