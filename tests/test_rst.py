import json
import random

import pytest
from hypothesis import given, settings

from discotrace import get_leaves, parse_rst_tree, serialize_rst_tree
from discotrace.errors import (
    MalformedDocument,
    NonBinaryNode,
    UnknownNuclearity,
    UnknownRelation,
)
from discotrace.rst import RELATIONS, leaf_count, normalize_relation

from conftest import chain_tree, deep_tree_json, leaf, node, random_tree, tree_docs


def test_single_leaf_document():
    tree = parse_rst_tree({"edu": "Yes."})
    assert tree.edu_count == 1
    assert tree.root.edu.text == "Yes."


def test_smallest_internal_node():
    tree = parse_rst_tree(node("Elaboration", "NS", leaf("a"), leaf("b")))
    assert tree.edu_count == 2
    assert [e.text for e in tree.leaves()] == ["a", "b"]
    assert [e.index for e in tree.leaves()] == [0, 1]


def test_accepts_json_string():
    tree = parse_rst_tree(json.dumps({"edu": "hello"}))
    assert tree.edu_count == 1


def test_unknown_relation_rejected():
    with pytest.raises(UnknownRelation):
        parse_rst_tree(node("Foo", "NS", leaf("a"), leaf("b")))


def test_unknown_nuclearity_rejected():
    with pytest.raises(UnknownNuclearity):
        parse_rst_tree(node("Contrast", "XX", leaf("a"), leaf("b")))


def test_missing_child_rejected():
    doc = {"relation": "Contrast", "nuclearity": "NN", "left": leaf("a")}
    with pytest.raises(NonBinaryNode):
        parse_rst_tree(doc)


def test_malformed_json():
    with pytest.raises(MalformedDocument):
        parse_rst_tree("{not json")


def test_empty_edu_rejected():
    with pytest.raises(MalformedDocument):
        parse_rst_tree({"edu": "   "})


def test_relation_case_normalization():
    tree = parse_rst_tree(node("topic-change", "nn", leaf("a"), leaf("b")))
    assert tree.root.relation == "Topic-Change"
    assert tree.root.nuclearity == "NN"
    assert normalize_relation("SAME-UNIT") == "Same-Unit"


@pytest.mark.parametrize("label", [*sorted(RELATIONS), "contrast", "SAME-UNIT", "topic-CHANGE",
                                   "manner-Means", "Same-unit", "elaboration-"])
def test_a_relation_normalizes_as_title_case_by_hyphen(label):
    # A label already in RELATIONS is returned as it is; that must equal the general form.
    assert normalize_relation(label) == "-".join(part.capitalize() for part in label.split("-"))


def test_get_leaves_leaf_case():
    tree = parse_rst_tree({"edu": "only"})
    assert [e.text for e in get_leaves(tree.root)] == ["only"]


def test_get_leaves_order_preservation():
    tree = parse_rst_tree(node("Joint", "NN", leaf("first"), leaf("second")))
    assert [e.text for e in get_leaves(tree.root)] == ["first", "second"]


def test_get_leaves_left_skewed():
    # Oracle: manual in-order walk of the known shape.
    tree = parse_rst_tree(chain_tree(5))
    assert [e.text for e in get_leaves(tree.root)] == ["e0", "e1", "e2", "e3", "e4"]
    assert [e.index for e in get_leaves(tree.root)] == [0, 1, 2, 3, 4]


def test_leaf_text_reconstructs_answer():
    doc = node("Contrast", "NN",
               node("Elaboration", "NS", leaf("The sky is blue"), leaf("because of scattering.")),
               leaf("But sunsets are red."))
    tree = parse_rst_tree(doc)
    joined = " ".join(e.text for e in tree.leaves())
    assert joined == "The sky is blue because of scattering. But sunsets are red."


def test_round_trip_identity():
    rng = random.Random(7)
    for _ in range(50):
        doc = random_tree(rng)
        tree = parse_rst_tree(doc)
        assert serialize_rst_tree(tree) == doc
        again = parse_rst_tree(serialize_rst_tree(tree))
        assert again == tree


def test_deep_trees_compare_hash_and_repr():
    tree, same = parse_rst_tree(chain_tree(3000)), parse_rst_tree(chain_tree(3000))
    other = parse_rst_tree(node("Elaboration", "NS", chain_tree(2999), leaf("other")))
    assert tree == same and tree.root is not same.root
    assert hash(tree) == hash(same) and hash(tree.root) == hash(same.root)
    assert tree != other and tree.root != other.root
    assert len({tree, same, other}) == 2
    assert repr(tree.root) == "RstNode('Elaboration', 'NS', leaves=3000)"
    assert repr(tree) == f"RstTree(root={tree.root!r})"
    assert repr(tree.edus[0]) in repr(parse_rst_tree(leaf("e0")).root)


def test_leaf_count_additivity():
    rng = random.Random(11)
    for _ in range(25):
        tree = parse_rst_tree(random_tree(rng))

        def check(n):
            if n.is_leaf:
                return 1
            total = check(n.left) + check(n.right)
            assert leaf_count(n) == total
            return total

        assert check(tree.root) == tree.edu_count


def test_edu_indices_contiguous():
    rng = random.Random(13)
    for _ in range(25):
        tree = parse_rst_tree(random_tree(rng))
        assert [e.index for e in tree.leaves()] == list(range(tree.edu_count))


@given(tree_docs())
@settings(max_examples=200)
def test_leaf_views_agree(doc):
    tree = parse_rst_tree(doc)
    leaves = get_leaves(tree.root)
    assert tree.leaves() == leaves
    assert tree.edu_count == leaf_count(tree.root) == len(leaves)
    assert [e.index for e in leaves] == list(range(len(leaves)))


def test_first_invalid_node_in_document_order_names_the_error():
    bad_left = node("Foo", "NS", leaf("a"), leaf("b"))
    bad_right = node("Contrast", "XX", leaf("c"), "not a node")
    with pytest.raises(UnknownRelation):
        parse_rst_tree(node("Contrast", "NN", bad_left, bad_right))
    with pytest.raises(UnknownNuclearity):
        parse_rst_tree(node("Contrast", "NN", leaf("a"), bad_right))
    with pytest.raises(MalformedDocument, match="node must be an object, got str"):
        parse_rst_tree(node("Contrast", "NN", leaf("a"), node("Joint", "NN", leaf("c"), "x")))


def test_too_deep_json_text_is_malformed():
    # The JSON decoder recurses per level; a dict of any depth parses.
    with pytest.raises(MalformedDocument, match="invalid JSON"):
        parse_rst_tree(deep_tree_json(1500))
