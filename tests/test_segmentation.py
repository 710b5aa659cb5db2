import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discotrace import (
    BoundaryConfig,
    DEFAULT_BOUNDARY_PAIRS,
    get_spans,
    is_boundary,
    parse_rst_tree,
    segment_answer,
)
from discotrace.config import PipelineConfig
from discotrace.rst import RELATIONS, NUCLEARITIES, get_leaves, serialize_rst_tree

from conftest import chain_tree, leaf, node, random_tree, tree_docs

# Expected boundary table, written out independently of the package default.
EXPECTED_BOUNDARY = {
    ("Contrast", "NN"),
    ("Comparison", "NN"),
    ("Topic-Change", "NN"), ("Topic-Change", "NS"), ("Topic-Change", "SN"),
    ("Evaluation", "NS"), ("Evaluation", "SN"), ("Evaluation", "NN"),
    ("Summary", "NN"), ("Summary", "NS"), ("Summary", "SN"),
    ("Background", "NS"), ("Background", "SN"),
}


def reference_get_spans(doc, boundary_pairs, k):
    """Naive reference of the segmentation procedure, written directly
    against the pseudocode; operates on raw tree documents."""

    def leaves(d):
        if "edu" in d:
            return [d["edu"]]
        return leaves(d["left"]) + leaves(d["right"])

    def spans(d):
        if "edu" in d:
            return [[d["edu"]]]
        left = spans(d["left"])
        right = spans(d["right"])
        if (d["relation"], d["nuclearity"]) in boundary_pairs:
            n_left = sum(len(s) for s in left)
            n_right = sum(len(s) for s in right)
            if d["relation"] != "Background" or (n_left >= k and n_right >= k):
                return left + right
            return [leaves(d)]
        if len(left) + len(right) > 2:
            return left + right
        return [leaves(d)]

    return spans(doc)


def spans_as_text(spans):
    return [[edu.text for edu in span] for span in spans]


def test_is_boundary_table():
    config = BoundaryConfig()
    for relation in sorted(RELATIONS):
        for nuclearity in sorted(NUCLEARITIES):
            expected = (relation, nuclearity) in EXPECTED_BOUNDARY
            assert is_boundary(relation, nuclearity, config) == expected


def test_single_leaf_span():
    tree = parse_rst_tree({"edu": "only"})
    assert spans_as_text(get_spans(tree.root, BoundaryConfig())) == [["only"]]


def test_contrast_root_splits_two_subtrees():
    # Hand trace: Contrast(NN) at root, two unsplit 2-EDU subtrees.
    doc = node("Contrast", "NN",
               node("Elaboration", "NS", leaf("e0"), leaf("e1")),
               node("Joint", "NN", leaf("e2"), leaf("e3")))
    tree = parse_rst_tree(doc)
    assert spans_as_text(get_spans(tree.root, BoundaryConfig())) == [
        ["e0", "e1"], ["e2", "e3"],
    ]


def test_background_size_check_collapses():
    # Hand trace: Background(NS), left 2 EDUs (< k=3), right 4 EDUs.
    doc = node("Background", "NS",
               node("Joint", "NN", leaf("e0"), leaf("e1")),
               node("Joint", "NN",
                    node("Joint", "NN", leaf("e2"), leaf("e3")),
                    node("Joint", "NN", leaf("e4"), leaf("e5"))))
    tree = parse_rst_tree(doc)
    assert spans_as_text(get_spans(tree.root, BoundaryConfig())) == [
        ["e0", "e1", "e2", "e3", "e4", "e5"],
    ]


def test_background_size_check_splits_when_both_large():
    doc = node("Background", "NS", chain_tree(3), chain_tree(3))
    tree = parse_rst_tree(doc)
    spans = get_spans(tree.root, BoundaryConfig())
    assert [len(s) for s in spans] == [3, 3]


def test_non_background_boundary_ignores_size():
    doc = node("Contrast", "NN", leaf("e0"), chain_tree(4))
    tree = parse_rst_tree(doc)
    spans = get_spans(tree.root, BoundaryConfig())
    assert [len(s) for s in spans] == [1, 4]


def test_deeper_splits_preserved_at_non_boundary():
    inner = node("Contrast", "NN", leaf("a"), leaf("b"))
    doc = node("Elaboration", "NS", inner, leaf("c"))
    tree = parse_rst_tree(doc)
    assert spans_as_text(get_spans(tree.root, BoundaryConfig())) == [
        ["a"], ["b"], ["c"],
    ]


def test_non_boundary_pair_collapses():
    doc = node("Elaboration", "NS", leaf("a"), leaf("b"))
    tree = parse_rst_tree(doc)
    assert spans_as_text(get_spans(tree.root, BoundaryConfig())) == [["a", "b"]]


def test_collapse_discards_internal_splits():
    # Background fails the size check even though its left child had split.
    inner = node("Contrast", "NN", leaf("a"), leaf("b"))
    doc = node("Background", "NS", inner, leaf("c"))
    tree = parse_rst_tree(doc)
    assert spans_as_text(get_spans(tree.root, BoundaryConfig())) == [["a", "b", "c"]]


def test_segment_answer_single_edu():
    tree = parse_rst_tree({"edu": "only"})
    segments = segment_answer(tree, answer_id="ans1")
    assert len(segments) == 1
    assert segments[0].edu_indices == (0,)
    assert segments[0].text == "only"
    assert segments[0].answer_id == "ans1"


def test_segment_answer_boundary_root():
    doc = node("Contrast", "NN",
               node("Elaboration", "NS", leaf("e0"), leaf("e1")),
               node("Joint", "NN", leaf("e2"), leaf("e3")))
    segments = segment_answer(parse_rst_tree(doc))
    assert [s.edu_indices for s in segments] == [(0, 1), (2, 3)]
    covered = [i for s in segments for i in s.edu_indices]
    assert covered == [0, 1, 2, 3]


def test_no_boundary_anywhere_single_segment():
    segments = segment_answer(parse_rst_tree(chain_tree(6)))
    assert len(segments) == 1
    assert segments[0].edu_indices == tuple(range(6))


def test_empty_boundary_pairs_single_segment():
    config = BoundaryConfig(boundary_pairs=frozenset())
    rng = random.Random(3)
    for _ in range(50):
        tree = parse_rst_tree(random_tree(rng))
        assert len(segment_answer(tree, config)) == 1


def test_partition_property_random_trees():
    rng = random.Random(42)
    for _ in range(300):
        tree = parse_rst_tree(random_tree(rng))
        segments = segment_answer(tree)
        covered = [i for s in segments for i in s.edu_indices]
        assert covered == list(range(tree.edu_count))


def test_matches_reference_on_random_trees():
    rng = random.Random(99)
    config = BoundaryConfig()
    for _ in range(300):
        doc = random_tree(rng)
        tree = parse_rst_tree(doc)
        expected = reference_get_spans(doc, EXPECTED_BOUNDARY, config.min_span_k)
        assert spans_as_text(get_spans(tree.root, config)) == expected


def test_determinism():
    doc = random_tree(random.Random(5))
    tree = parse_rst_tree(doc)
    first = segment_answer(tree)
    second = segment_answer(tree)
    assert first == second


def test_min_span_k_validation():
    with pytest.raises(ValueError):
        BoundaryConfig(min_span_k=0)


def test_config_from_dict():
    config = PipelineConfig.from_dict(
        {"boundary": {"boundary_pairs": [["Contrast", "NN"]], "min_span_k": 2}}
    ).boundary
    assert config.boundary_pairs == frozenset({("Contrast", "NN")})
    assert config.min_span_k == 2
    assert PipelineConfig.from_dict({"boundary": {}}).boundary.boundary_pairs == (
        DEFAULT_BOUNDARY_PAIRS)


def test_boundary_pairs_come_from_the_rst_vocabulary():
    with pytest.raises(ValueError, match=r"RST vocabulary, not \('Contrats', 'NN'\)"):
        BoundaryConfig(boundary_pairs=frozenset({("Contrast", "NN"), ("Contrats", "NN")}))


ALL_PAIRS = sorted((relation, nuclearity) for relation in RELATIONS for nuclearity in NUCLEARITIES)


@given(tree_docs(), st.frozensets(st.sampled_from(ALL_PAIRS)), st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_get_spans_matches_reference_property(doc, boundary_pairs, k):
    config = BoundaryConfig(boundary_pairs=boundary_pairs, min_span_k=k)
    tree = parse_rst_tree(doc)
    cases = [(tree.root, doc)]
    if not tree.root.is_leaf:  # subtrees whose leaves do not start at EDU 0
        cases += [(tree.root.left, doc["left"]), (tree.root.right, doc["right"])]
    for subtree, subdoc in cases:
        expected = reference_get_spans(subdoc, boundary_pairs, k)
        assert spans_as_text(get_spans(subtree, config)) == expected


def grouped_chain(n_edus, rng):
    """Left-skewed tree of Elaboration chains of 2-5 EDUs joined by Contrast(NN).

    Returns the document and the EDU index ranges of the chains, which are
    the expected segments under the default boundary pairs."""
    groups, start = [], 0
    while start < n_edus:
        end = min(start + rng.randint(2, 5), n_edus)
        groups.append(range(start, end))
        start = end
    doc = None
    for group in groups:
        chain = leaf(f"e{group[0]}")
        for i in group[1:]:
            chain = node("Elaboration", "NS", chain, leaf(f"e{i}"))
        doc = chain if doc is None else node("Contrast", "NN", doc, chain)
    return doc, [tuple(group) for group in groups]


def same_document(a, b):
    """Structural equality without recursion (``==`` on dicts recurses)."""
    pending = [(a, b)]
    while pending:
        x, y = pending.pop()
        if x.keys() != y.keys():
            return False
        if "edu" in x:
            if x["edu"] != y["edu"]:
                return False
            continue
        if (x["relation"], x["nuclearity"]) != (y["relation"], y["nuclearity"]):
            return False
        pending += [(x["left"], y["left"]), (x["right"], y["right"])]
    return True


@pytest.mark.parametrize("boundaries", [False, True])
def test_ten_thousand_edu_chain(boundaries):
    n = 10_000
    if boundaries:
        doc, expected = grouped_chain(n, random.Random(17))
        assert max(len(g) for g in expected) <= 5 and len(expected) > 1000
    else:
        doc, expected = chain_tree(n), [tuple(range(n))]
    tree = parse_rst_tree(doc)
    assert tree.edu_count == n
    segments = segment_answer(tree)
    assert [s.edu_indices for s in segments] == expected
    assert [s.text for s in segments] == [" ".join(f"e{i}" for i in g) for g in expected]
    assert same_document(serialize_rst_tree(tree), doc)
