"""Binary discourse tree data model and JSON (de)serialization.

Trees are produced by an external discourse parser and delivered as JSON:
an internal node is ``{"relation": str, "nuclearity": "NN"|"NS"|"SN",
"left": node, "right": node}`` and a leaf is ``{"edu": str}``. Trees are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from .errors import (
    MalformedDocument,
    NonBinaryNode,
    UnknownNuclearity,
    UnknownRelation,
)

#: The 18 coarse-grained rhetorical relations emitted by the parser.
RELATIONS = frozenset({
    "Elaboration", "Attribution", "Joint", "Same-Unit", "Explanation",
    "Enablement", "Background", "Evaluation", "Cause", "Contrast",
    "Temporal", "Comparison", "Topic-Change", "Manner-Means",
    "Textual-Organization", "Condition", "Summary", "Topic-Comment",
})

NUCLEARITIES = frozenset({"NN", "NS", "SN"})


@dataclass(frozen=True)
class Edu:
    """Elementary discourse unit: a clause-like atomic text span."""

    index: int
    text: str


@dataclass(frozen=True)
class RstNode:
    """Either a leaf holding one EDU or a binary internal node."""

    edu: Optional[Edu] = None
    relation: Optional[str] = None
    nuclearity: Optional[str] = None
    left: Optional["RstNode"] = None
    right: Optional["RstNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.edu is not None

    # ==, hash and repr do not recurse, so they work on trees of any depth.
    def _preorder_key(self) -> tuple:
        return tuple((n.edu, n.relation, n.nuclearity) for n in _preorder(self))

    def __eq__(self, other):
        if not isinstance(other, RstNode):
            return NotImplemented
        return self is other or self._preorder_key() == other._preorder_key()

    def __hash__(self):
        return hash(self._preorder_key())

    def __repr__(self) -> str:
        if self.is_leaf:
            return f"RstNode(edu={self.edu!r})"
        return f"RstNode({self.relation!r}, {self.nuclearity!r}, leaves={leaf_count(self)})"


@dataclass(frozen=True)
class RstTree:
    """A validated binary discourse tree for one answer.

    ``edus`` holds the leaves in order, numbered 0..n-1 while parsing, so
    reading them never walks the tree again.
    """

    root: RstNode
    edus: tuple[Edu, ...] = field(repr=False, compare=False)

    @property
    def edu_count(self) -> int:
        return len(self.edus)

    def leaves(self) -> list[Edu]:
        return list(self.edus)


def normalize_relation(label: str) -> str:
    """Case-normalize a relation label to Title-Case, hyphens preserved; a label of
    ``RELATIONS`` is already in that form."""
    if label in RELATIONS:
        return label
    return "-".join(part.capitalize() for part in label.split("-"))


def _preorder(node: RstNode) -> Iterator[RstNode]:
    """Yield a subtree's nodes parent first, left before right, without recursion."""
    pending = [node]
    while pending:
        node = pending.pop()
        yield node
        if not node.is_leaf:
            pending.append(node.right)
            pending.append(node.left)


def get_leaves(node: RstNode) -> list[Edu]:
    """Return the in-order EDU sequence of a subtree."""
    return [n.edu for n in _preorder(node) if n.is_leaf]


def leaf_count(node: RstNode) -> int:
    return sum(1 for n in _preorder(node) if n.is_leaf)


def parse_rst_tree(serialized: Union[str, dict]) -> RstTree:
    """Deserialize and validate a tree document.

    Accepts either a JSON string or an already-decoded dict. Leaf order
    preserves document order; EDU indices are assigned 0..n-1 left to
    right. EDU text is stored verbatim. Nodes are validated in document
    order, so the first invalid one names the error. A dict of any depth
    parses; JSON text nested too deep for the decoder is malformed.
    """
    if isinstance(serialized, str):
        try:
            doc = json.loads(serialized)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise MalformedDocument(f"invalid JSON: {exc}") from exc
    else:
        doc = serialized
    if not isinstance(doc, dict):
        raise MalformedDocument("tree document must be a JSON object")

    edus: list[Edu] = []
    order = []  # validated nodes, parent first: an Edu or a (relation, nuclearity) pair
    pending = [doc]
    while pending:
        doc = pending.pop()
        if not isinstance(doc, dict):
            raise MalformedDocument(f"node must be an object, got {type(doc).__name__}")
        if "edu" in doc:
            text = doc["edu"]
            if not isinstance(text, str) or not text.strip():
                raise MalformedDocument("leaf 'edu' must be a non-empty string")
            edus.append(Edu(index=len(edus), text=text))
            order.append(edus[-1])
            continue

        if "relation" not in doc or "nuclearity" not in doc:
            raise MalformedDocument("internal node requires 'relation' and 'nuclearity'")
        if "left" not in doc or "right" not in doc:
            raise NonBinaryNode("internal node requires exactly 'left' and 'right' children")

        relation = normalize_relation(str(doc["relation"]))
        if relation not in RELATIONS:
            raise UnknownRelation(f"unknown relation {doc['relation']!r}")
        nuclearity = str(doc["nuclearity"]).upper()
        if nuclearity not in NUCLEARITIES:
            raise UnknownNuclearity(f"unknown nuclearity {doc['nuclearity']!r}")
        order.append((relation, nuclearity))
        pending.append(doc["right"])
        pending.append(doc["left"])

    # Backwards through a parent-first list, every node's children are
    # already built: the left one on top of the stack, the right one under it.
    built = []
    for item in reversed(order):
        if isinstance(item, Edu):
            built.append(RstNode(edu=item))
        else:
            left = built.pop()
            built.append(RstNode(relation=item[0], nuclearity=item[1],
                                 left=left, right=built.pop()))
    return RstTree(root=built[0], edus=tuple(edus))


def serialize_rst_tree(tree: RstTree) -> dict:
    """Inverse of :func:`parse_rst_tree` (structure round-trips exactly)."""
    built = []  # built bottom-up as in parse_rst_tree
    for node in reversed(list(_preorder(tree.root))):
        if node.is_leaf:
            built.append({"edu": node.edu.text})
        else:
            left = built.pop()
            built.append({"relation": node.relation, "nuclearity": node.nuclearity,
                          "left": left, "right": built.pop()})
    return built[0]
