"""Discourse-trace representations of long-form answers, with the
statistics needed to compare answering strategies across corpora.

The public names below are resolved on first access through the module's
``__getattr__`` (PEP 562): ``from discotrace import fit_bigram`` imports
``discotrace.stats`` then, and ``import discotrace`` alone imports no submodule.
So a command of ``python -m discotrace.cli`` loads only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name, by the submodule that defines it.
_EXPORTS = {name: module for module, names in {
    "rst": ("Edu", "RstNode", "RstTree", "get_leaves", "parse_rst_tree", "serialize_rst_tree"),
    "segmentation": ("ActionSegment", "BoundaryConfig", "DEFAULT_BOUNDARY_PAIRS", "get_spans",
                     "is_boundary", "segment_answer"),
    "ontology": ("DiscourseAct", "NONE_ACT_ID", "Ontology", "is_eligible", "load_ontology"),
    "prompts": ("ActAssignment", "ChatRequest", "build_act_prompt", "build_interp_gen_prompt",
                "build_interp_label_prompt", "build_mimic_prompt", "parse_act_response",
                "parse_interp_label", "parse_interp_list"),
    "gateway": ("BackendSpec", "complete", "embed", "request_digest"),
    "interpretations": ("Interpretation", "InterpretationSpace", "build_space", "deduplicate",
                        "generate_raw"),
    "pipeline": ("DiscoTrace", "TraceStep", "pair_interpretations", "tag_answer"),
    "stats": ("AgreementReport", "BigramModel", "PerplexityMatrix", "Smoothing",
              "act_proportion_test", "cohens_kappa", "cross_perplexity_matrix", "fit_bigram",
              "interpretation_metrics", "overanswering_bins", "perplexity"),
    "corpus": ("RawComment", "RawPost", "filter_comments", "filter_posts", "read_corpus",
               "sample_questions", "write_corpus"),
    "config": ("PipelineConfig",),
}.items() for name in names}

__all__ = [*_EXPORTS]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:  # a submodule not imported yet is found by the import system
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
