"""Pipeline configuration file (JSON) and its validation.

Reading a config imports only what its keys need: ``gateway`` for a backend entry,
``segmentation`` for ``boundary`` and ``stats`` for ``smoothing``. So a command pays
for no module it does not run. ``boundary`` and ``smoothing`` stay None until a config
sets them, and the command that uses one falls back to the library default
(``BoundaryConfig()``, ``Smoothing()``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from .corpus import INPUT_ERRORS, input_error, of_type, read_fields

if TYPE_CHECKING:
    from .gateway import BackendSpec
    from .segmentation import BoundaryConfig
    from .stats import Smoothing

DEFAULT_DEDUP_THRESHOLD = 0.85


@dataclass
class PipelineConfig:
    act_labeler: Optional[BackendSpec] = None
    interp_generators: list = field(default_factory=list)
    interp_labeler: Optional[BackendSpec] = None
    embedder: Optional[BackendSpec] = None
    answer_generator: Optional[BackendSpec] = None
    ontology_path: Optional[str] = None
    boundary: Optional[BoundaryConfig] = None  # None: BoundaryConfig()
    smoothing: Optional[Smoothing] = None  # None: Smoothing()
    dedup_threshold: float = DEFAULT_DEDUP_THRESHOLD

    def __post_init__(self):
        if not 0 < self.dedup_threshold <= 1:
            raise ValueError("dedup_threshold must be in (0, 1]")

    @classmethod
    def from_dict(cls, doc: dict, base_dir: Optional[Path] = None) -> "PipelineConfig":
        """A config from its JSON object: each key that is present and not null is read by
        its row of ``readers``, a value :func:`of_type` the row's JSON type; an absent one
        keeps the field's default. A value of the wrong shape raises ``TypeError`` or
        ``ValueError`` naming its key. Unknown top-level keys are ignored."""
        def spec_of(spec):
            from .gateway import BackendSpec

            spec = dict(of_type("a backend", spec, dict))
            if isinstance(spec.get("fixture_path"), str) and base_dir is not None:
                spec["fixture_path"] = str((base_dir / spec["fixture_path"]).resolve())
            backend = BackendSpec.from_dict(spec)
            if backend.kind == "mock" and not Path(backend.fixture_path or "").is_file():
                raise ValueError(f"a mock's fixture_path must name a file, not "
                                 f"{backend.fixture_path!r}")
            return backend

        def ontology_at(path):
            if base_dir is not None:
                path = str((base_dir / path).resolve())
            if not Path(path).is_file():
                raise ValueError(f"{path!r} is not a file")
            return path

        def boundary_of(doc):
            from .segmentation import BoundaryConfig

            return read_fields(BoundaryConfig, doc)

        def smoothing_of(doc):
            from .stats import Smoothing

            return read_fields(Smoothing, doc, keys={"lam": "lambda"})

        readers = {
            "act_labeler": (dict, spec_of),
            "interp_generators": (list, lambda specs: [spec_of(spec) for spec in specs]),
            "interp_labeler": (dict, spec_of),
            "embedder": (dict, spec_of),
            "answer_generator": (dict, spec_of),
            "ontology_path": (str, ontology_at),
            "boundary": (dict, boundary_of),
            "smoothing": (dict, smoothing_of),
            "dedup_threshold": (float, float),
        }
        values = {}
        for key, (kind, read) in readers.items():
            if doc.get(key) is None:
                continue
            value = of_type(key, doc[key], kind)
            try:
                values[key] = read(value)
            except INPUT_ERRORS as exc:
                raise input_error(key, exc) from exc
        return cls(**values)

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        """Read a config file, or the defaults when ``path`` is None; an error in it is the
        ``corpus.input_error`` of ``config <path>``."""
        if path is None:
            return cls()
        path = Path(path)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(doc, dict):
                raise ValueError("expected a JSON object")
            return cls.from_dict(doc, base_dir=path.parent)
        except INPUT_ERRORS as exc:
            raise input_error(f"config {path}", exc) from exc
