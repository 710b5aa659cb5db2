"""Discourse-trace representations of long-form answers, with the
statistics needed to compare answering strategies across corpora."""

from .rst import Edu, RstNode, RstTree, get_leaves, parse_rst_tree, serialize_rst_tree
from .segmentation import (
    ActionSegment,
    BoundaryConfig,
    DEFAULT_BOUNDARY_PAIRS,
    get_spans,
    is_boundary,
    segment_answer,
)
from .ontology import DiscourseAct, NONE_ACT_ID, Ontology, is_eligible, load_ontology
from .prompts import (
    ActAssignment,
    ChatRequest,
    build_act_prompt,
    build_interp_gen_prompt,
    build_interp_label_prompt,
    build_mimic_prompt,
    parse_act_response,
    parse_interp_label,
    parse_interp_list,
)
from .gateway import BackendSpec, complete, embed, request_digest
from .interpretations import (
    Interpretation,
    InterpretationSpace,
    build_space,
    deduplicate,
    generate_raw,
)
from .pipeline import DiscoTrace, TraceStep, pair_interpretations, tag_answer
from .stats import (
    AgreementReport,
    BigramModel,
    PerplexityMatrix,
    Smoothing,
    act_proportion_test,
    cohens_kappa,
    cross_perplexity_matrix,
    fit_bigram,
    interpretation_metrics,
    overanswering_bins,
    perplexity,
)
from .corpus import (
    RawComment,
    RawPost,
    filter_comments,
    filter_posts,
    read_corpus,
    sample_questions,
    write_corpus,
)
from .config import PipelineConfig

__version__ = "0.1.0"
