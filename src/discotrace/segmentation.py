"""Splitting of a discourse tree into coarse action segments.

A configured set of (relation, nuclearity) boundary pairs marks nodes
whose children likely realize different discourse acts. Splits are made
at boundary nodes and preserved from deeper in the tree; everything else
collapses to a single span. Background additionally requires both sides
to carry at least ``min_span_k`` EDUs before splitting.

The tree is walked once, children before parents, with an explicit stack.
A subtree covers one contiguous range of leaf positions, so each span is
kept as the position where it starts: a collapse drops the starts of all
but the subtree's first span. EDU lists are sliced out once, at the end.
That is linear in the number of EDUs and unbounded in depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

from .rst import NUCLEARITIES, RELATIONS, Edu, RstNode, RstTree

#: Every (relation, nuclearity) pair a tree can hold.
RST_PAIRS = frozenset(product(RELATIONS, NUCLEARITIES))

#: Default boundary (relation, nuclearity) pairs.
DEFAULT_BOUNDARY_PAIRS = frozenset({
    ("Contrast", "NN"),
    ("Comparison", "NN"),
    ("Topic-Change", "NN"), ("Topic-Change", "NS"), ("Topic-Change", "SN"),
    ("Evaluation", "NS"), ("Evaluation", "SN"), ("Evaluation", "NN"),
    ("Summary", "NN"), ("Summary", "NS"), ("Summary", "SN"),
    ("Background", "NS"), ("Background", "SN"),
})


@dataclass(frozen=True)
class BoundaryConfig:
    boundary_pairs: frozenset = DEFAULT_BOUNDARY_PAIRS
    min_span_k: int = 3

    def __post_init__(self):
        if self.min_span_k < 1:
            raise ValueError("min_span_k must be >= 1")
        stray = frozenset(self.boundary_pairs) - RST_PAIRS
        if stray:
            raise ValueError(f"boundary_pairs must be (relation, nuclearity) pairs of the "
                             f"RST vocabulary, not {min(map(repr, stray))}")


@dataclass(frozen=True)
class ActionSegment:
    """A contiguous EDU span suspected to carry one discourse act."""

    edu_indices: tuple
    text: str
    answer_id: Optional[str] = None

    def __post_init__(self):
        idx = self.edu_indices
        if any(b - a != 1 for a, b in zip(idx, idx[1:])):
            raise ValueError("edu_indices must be contiguous and increasing")


def is_boundary(relation: str, nuclearity: str, config: BoundaryConfig) -> bool:
    """True iff the (relation, nuclearity) pair marks a segment boundary."""
    return (relation, nuclearity) in config.boundary_pairs


def get_spans(node: RstNode, config: BoundaryConfig) -> list[list[Edu]]:
    """Split a subtree into EDU spans.

    At a boundary node the children's span lists concatenate, except that
    Background requires both sides to hold >= min_span_k EDUs, else the
    subtree collapses. At a non-boundary node, deeper splits are kept when
    the combined span count exceeds two; otherwise the subtree collapses
    to a single span (discarding any internal splits).
    """
    leaves: list[Edu] = []
    starts: list[int] = []  # leaf position where each span so far starts
    firsts: list[int] = []  # per finished subtree: index in starts of its first span
    pending = [(node, False)]
    while pending:
        current, children_done = pending.pop()
        if current.is_leaf:
            firsts.append(len(starts))
            starts.append(len(leaves))
            leaves.append(current.edu)
        elif not children_done:
            pending.append((current, True))
            pending.append((current.right, False))
            pending.append((current.left, False))
        else:
            # The right subtree finished last, so its spans and leaves end
            # both lists; the left subtree's first span is this node's first.
            right_first = firsts.pop()
            first = firsts[-1]
            lo, mid, hi = starts[first], starts[right_first], len(leaves)
            if is_boundary(current.relation, current.nuclearity, config):
                k = config.min_span_k
                keep = current.relation != "Background" or (mid - lo >= k and hi - mid >= k)
            else:
                keep = len(starts) - first > 2
            if not keep:
                del starts[first + 1:]
    starts.append(len(leaves))
    return [leaves[lo:hi] for lo, hi in zip(starts, starts[1:])]


def segment_answer(
    tree: RstTree,
    config: Optional[BoundaryConfig] = None,
    answer_id: Optional[str] = None,
) -> list[ActionSegment]:
    """Materialize the tree's spans as segments partitioning 0..n-1."""
    config = config or BoundaryConfig()
    segments = []
    for span in get_spans(tree.root, config):
        segments.append(ActionSegment(
            edu_indices=tuple(edu.index for edu in span),
            text=" ".join(edu.text for edu in span),
            answer_id=answer_id,
        ))
    return segments
