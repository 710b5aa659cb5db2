"""Independent reference computations that CLI outputs are checked against.

The perplexity reference uses the count-matrix form of a bigram model:
each corpus is one ``(|V|+1) x (|V|+1)`` matrix of transition counts whose
extra row is the START context and extra column the END token. With
add-lambda smoothing, ``P = (C + lam) / (rowsum(C) + lam * (|V|+1))`` and
the perplexity of model ``i`` on corpus ``j`` is
``exp(-<C_j, log P_i> / sum(C_j))``.
"""

from __future__ import annotations

from collections import Counter

import numpy as np


def count_matrix(sequences: list[list[str]], vocab: list[str]) -> np.ndarray:
    """Transition counts of START-wrapped sequences, adjacent repeats collapsed.

    Rows are ``vocab + [START]`` contexts, columns ``vocab + [END]``.
    """
    index = {tok: i for i, tok in enumerate(vocab)}
    n = len(vocab)
    counts = np.zeros((n + 1, n + 1))
    for seq in sequences:
        prev = n  # START row
        last = None
        for tok in seq:
            if tok == last:
                continue
            counts[prev, index[tok]] += 1
            prev, last = index[tok], tok
        counts[prev, n] += 1  # END column
    return counts


def perplexity_matrix(counts: list[np.ndarray], lam: float) -> np.ndarray:
    """Cross-perplexity of every add-lambda model on every corpus."""
    stacked = np.stack(counts)
    width = stacked.shape[2]
    probs = (stacked + lam) / (stacked.sum(axis=2, keepdims=True) + lam * width)
    log_probs = np.log(probs).reshape(len(counts), -1)
    totals = stacked.reshape(len(counts), -1)
    return np.exp(-(log_probs @ totals.T) / totals.sum(axis=1)[None, :])


def recount_metrics(traces: list[dict], space_sizes: dict, eligible: set) -> dict:
    """The `metrics` subcommand's output, counted directly from trace records."""
    coverage, matched_per, eligible_per, dedication = {}, {}, {}, {}
    total_eligible = total_unmatched = 0
    for trace in traces:
        aid = trace["answer_id"]
        steps = [s for s in trace["steps"] if s["act_id"] in eligible]
        matched = [s["interpretation_id"] for s in steps if s.get("interpretation_id")]
        matched_per[aid] = len(matched)
        eligible_per[aid] = len(steps)
        total_eligible += len(steps)
        total_unmatched += len(steps) - len(matched)
        size = space_sizes[trace["question_id"]]
        if size >= 2:
            coverage[aid] = len(set(matched)) / size
        for iid, count in Counter(matched).items():
            dedication[f"{aid}:{iid}"] = count / len(steps)
    return {
        "unmatched_rate": total_unmatched / total_eligible if total_eligible else 0.0,
        "coverage_mean": sum(coverage.values()) / len(coverage) if coverage else None,
        "dedication_mean": sum(dedication.values()) / len(dedication) if dedication else None,
        "coverage": coverage,
        "matched_per_answer": matched_per,
        "eligible_per_answer": eligible_per,
        "dedication": dedication,
    }


def close(a, b, rel: float) -> bool:
    """Relative float comparison that also accepts equal non-floats."""
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)
    return a == b
