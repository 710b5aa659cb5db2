"""Pipeline configuration file (JSON) and its validation."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Optional

from .corpus import of_type, read_fields
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
        """A config from its JSON object; a value of the wrong shape raises ``TypeError`` or
        ``ValueError`` naming its key. Unknown top-level keys are ignored."""
        def spec_of(spec):
            spec = dict(of_type("a backend", spec, dict))
            if isinstance(spec.get("fixture_path"), str) and base_dir is not None:
                spec["fixture_path"] = str((base_dir / spec["fixture_path"]).resolve())
            backend = BackendSpec.from_dict(spec)
            if backend.kind == "mock" and not Path(backend.fixture_path or "").is_file():
                raise ValueError(f"a mock's fixture_path must name a file, not "
                                 f"{backend.fixture_path!r}")
            return backend

        def entry(key, kind, build, default=None):
            """``build(doc[key])`` for a value :func:`of_type` ``kind``, ``default`` when it is
            absent or null."""
            value = doc.get(key)
            if value is None:
                return default
            value = of_type(key, value, kind)
            try:
                return build(value)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{key}: {exc}") from exc

        def ontology_at(path):
            if base_dir is not None:
                path = str((base_dir / path).resolve())
            if not Path(path).is_file():
                raise ValueError(f"{path!r} is not a file")
            return path

        threshold = entry("dedup_threshold", float, float, DEFAULT_DEDUP_THRESHOLD)
        if not 0 < threshold <= 1:
            raise ValueError("dedup_threshold must be in (0, 1]")
        return cls(
            act_labeler=entry("act_labeler", dict, spec_of),
            interp_generators=entry("interp_generators", list,
                                    lambda specs: [spec_of(spec) for spec in specs], []),
            interp_labeler=entry("interp_labeler", dict, spec_of),
            embedder=entry("embedder", dict, spec_of),
            answer_generator=entry("answer_generator", dict, spec_of),
            ontology_path=entry("ontology_path", str, ontology_at),
            boundary=entry("boundary", dict, partial(read_fields, BoundaryConfig),
                           BoundaryConfig()),
            smoothing=entry("smoothing", dict,
                            partial(read_fields, Smoothing, keys={"lam": "lambda"}),
                            Smoothing()),
            dedup_threshold=threshold,
        )

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        """Read a config file; an error in its content is a ``ValueError`` naming the file."""
        path = Path(path)
        try:
            doc = json.loads(path.read_text())
            if not isinstance(doc, dict):
                raise ValueError("expected a JSON object")
            return cls.from_dict(doc, base_dir=path.parent)
        except (OverflowError, TypeError, ValueError) as exc:
            raise ValueError(f"config {path}: {exc}") from exc
