"""Bigram strategy models, perplexity, agreement, and content metrics.

Act sequences are wrapped in START/END tokens, and adjacent duplicate act
tokens are collapsed before counting or scoring: a trace never carries
two adjacent segments with the same act after refinement, so the model
normalizes every input to that invariant.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import groupby
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import (
    EmptyCorpus,
    LengthMismatch,
    QuestionMismatch,
    UnknownSpaceReference,
    ZeroProbabilityTransition,
)
from .interpretations import InterpretationSpace
from .ontology import NONE_ACT_ID, Ontology, is_eligible
from .pipeline import DiscoTrace

if TYPE_CHECKING:  # numpy is imported by the functions that compute with it
    import numpy as np

START = "<START>"
END = "<END>"


@dataclass(frozen=True)
class Smoothing:
    mode: str = "add_lambda"  # "mle" | "add_lambda"
    lam: float = 1.0

    def __post_init__(self):
        if self.mode not in ("mle", "add_lambda"):
            raise ValueError(f"unknown smoothing mode {self.mode!r}")
        if not 0 < self.lam < math.inf:
            raise ValueError(f"lambda must be positive and finite, not {self.lam!r}")


def _as_sequences(traces) -> list[list[str]]:
    return [t.act_sequence() if isinstance(t, DiscoTrace) else list(t) for t in traces]


def collapse_adjacent(tokens: Sequence[str]) -> list[str]:
    """Drop each token equal to its immediate predecessor."""
    return [token for token, _ in groupby(tokens)]


def iter_transitions(sequences: list[list[str]]):
    """Yield (prev, next) pairs of START-wrapped, collapsed sequences."""
    for seq in sequences:
        tokens = [START] + collapse_adjacent(seq) + [END]
        yield from zip(tokens, tokens[1:])


def transition_matrix(sequences: list[list[str]], vocabulary: Sequence[str]) -> np.ndarray:
    """(|V|+1)x(|V|+1) counts of START-wrapped, collapsed transitions, START's row and
    END's column last. A token outside ``vocabulary`` raises KeyError."""
    import numpy as np

    n = len(vocabulary)
    index = {tok: i for i, tok in enumerate(vocabulary)} | {START: n, END: n + 1}
    codes = np.fromiter((index[tok] for seq in sequences for tok in (START, *seq, END)), np.int64)
    codes = codes[np.diff(codes, prepend=-1) != 0]  # collapse adjacent repeats
    prev, nxt = codes[:-1], codes[1:]
    cells = prev * (n + 1) + np.minimum(nxt, n)
    # An END code is never a context: its pair joins one sequence to the next.
    return np.bincount(cells[prev != n + 1], minlength=(n + 1) ** 2).reshape(n + 1, n + 1)


@dataclass
class BigramModel:
    vocabulary: tuple  # act tokens (incl. NONE); START/END are implicit
    transitions: np.ndarray  # transition_matrix() of the training corpus
    smoothing: Smoothing
    training_sequences: int

    def __post_init__(self):
        import numpy as np

        n = len(self.vocabulary)
        self._index = {tok: i for i, tok in enumerate(self.vocabulary)} | {START: n, END: n}
        # probs gets one more row, never trained, for contexts outside the vocabulary.
        counts = np.vstack([self.transitions, np.zeros(len(self.transitions))])
        totals = counts.sum(axis=1, keepdims=True)
        lam = self.smoothing.lam if self.smoothing.mode == "add_lambda" else 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            # An MLE row never seen in training is 0/0: it allows no next-token.
            self.probs = np.nan_to_num((counts + lam) / (totals + lam * counts.shape[1]))
            self.log_probs = np.log(self.probs[:-1])

    @property
    def counts(self) -> dict:
        """(prev, next) -> count of each transition seen in training."""
        import numpy as np

        contexts, nexts = self.vocabulary + (START,), self.vocabulary + (END,)
        return {(contexts[r], nexts[c]): int(self.transitions[r, c])
                for r, c in zip(*np.nonzero(self.transitions))}

    @property
    def row_totals(self) -> dict:
        """prev -> number of training transitions out of it."""
        totals = self.transitions.sum(axis=1)
        return {tok: int(t) for tok, t in zip(self.vocabulary + (START,), totals) if t}

    def probability(self, prev: str, nxt: str) -> float:
        """Transition probability p(next | prev).

        Legal contexts are vocabulary tokens and START; legal next-tokens
        are vocabulary tokens and END. Any other context is an unseen row.
        """
        if nxt == START or prev == END:
            raise ValueError("START is never a next-token and END never a context")
        col = self._index.get(nxt)
        if col is None and self.smoothing.mode != "mle":
            raise ValueError(f"token {nxt!r} outside model vocabulary")
        p = 0.0 if col is None else float(self.probs[self._index.get(prev, -1), col])
        if p == 0.0:
            raise ZeroProbabilityTransition(prev, nxt)
        return p


def fit_bigram(
    traces,
    smoothing: Smoothing = Smoothing(),
    vocabulary: Optional[Sequence[str]] = None,
) -> BigramModel:
    """Tally transition counts over START-wrapped act sequences.

    ``vocabulary`` should be the full ontology token set so cross-corpus
    evaluation shares support; when omitted it defaults to the observed
    tokens.
    """
    sequences = _as_sequences(traces)
    if not sequences:
        raise EmptyCorpus("need at least one trace")
    observed = set().union(*sequences)
    vocab = tuple(sorted(observed) if vocabulary is None else vocabulary)
    missing = observed - set(vocab)
    if missing:
        raise ValueError(f"training tokens outside vocabulary: {sorted(missing)}")
    return BigramModel(vocab, transition_matrix(sequences, vocab), smoothing, len(sequences))


def _raise_first_failure(model: BigramModel, sequences: list[list[str]]):
    """Score transitions in order; the error names the first the model cannot score."""
    for prev, nxt in iter_transitions(sequences):
        model.probability(prev, nxt)
    raise AssertionError("count matrix and transition walk disagree")


def _perplexities(models: list[BigramModel], counts: list[np.ndarray], sequences) -> np.ndarray:
    """exp(-<E_j, log P_i> / sum(E_j)) over the cells E_j counts, for every model
    i and count matrix j; the corpus ``sequences[j]`` is walked only on error."""
    import numpy as np

    log_probs = np.stack([m.log_probs.ravel() for m in models])
    totals = np.stack([c.ravel() for c in counts]).astype(float)
    impossible = np.isneginf(log_probs)
    unscorable = impossible.astype(float) @ (totals > 0).T
    if unscorable.any():
        i, j = np.argwhere(unscorable)[0]  # the first (model, corpus) in row-major order
        _raise_first_failure(models[i], sequences[j])
    nll = -(np.where(impossible, 0.0, log_probs) @ totals.T)
    return np.exp(nll / totals.sum(axis=1))


def perplexity(model: BigramModel, eval_traces) -> float:
    """exp of the mean negative natural-log probability per transition,
    pooled over all transitions (including the END transition) across the
    evaluation corpus."""
    sequences = _as_sequences(eval_traces)
    if not sequences:
        raise EmptyCorpus("evaluation corpus is empty")
    if not set().union(*sequences) <= set(model.vocabulary):
        _raise_first_failure(model, sequences)
    counts = transition_matrix(sequences, model.vocabulary)
    return float(_perplexities([model], [counts], [sequences])[0, 0])


@dataclass
class PerplexityMatrix:
    row_labels: list[str]  # training corpora
    col_labels: list[str]  # evaluation corpora
    values: np.ndarray

    def to_json(self) -> str:
        return json.dumps({
            "row_labels": self.row_labels,
            "col_labels": self.col_labels,
            "values": self.values.tolist(),
        }, indent=2)

    def write_csv(self, handle) -> None:
        writer = csv.writer(handle)
        writer.writerow(["train"] + self.col_labels)
        for label, row in zip(self.row_labels, self.values):
            writer.writerow([label] + [f"{v:.6f}" for v in row])

    def write_long_csv(self, handle) -> None:
        """Heatmap-ready long format: train,eval,perplexity."""
        writer = csv.writer(handle)
        writer.writerow(["train", "eval", "perplexity"])
        for i, train in enumerate(self.row_labels):
            for j, eval_name in enumerate(self.col_labels):
                writer.writerow([train, eval_name, f"{self.values[i, j]:.6f}"])


def cross_perplexity_matrix(
    corpora: dict[str, list],
    smoothing: Smoothing = Smoothing(),
    vocabulary: Optional[Sequence[str]] = None,
) -> PerplexityMatrix:
    """Fit one model per corpus and evaluate it on every corpus."""
    if not corpora:
        raise EmptyCorpus("need at least one corpus")
    names = list(corpora)
    sequences = [_as_sequences(corpora[name]) for name in names]
    if vocabulary is None:
        vocabulary = sorted(set().union(*(seq for corpus in sequences for seq in corpus)))
    models = [fit_bigram(corpus, smoothing, vocabulary) for corpus in sequences]
    values = _perplexities(models, [m.transitions for m in models], sequences)
    return PerplexityMatrix(row_labels=names, col_labels=list(names), values=values)


def project_families(traces, ontology: Ontology) -> list[list[str]]:
    """Map act sequences to family-level token sequences (NONE kept)."""
    return [[tok if tok == NONE_ACT_ID else (ontology.get(tok).family or NONE_ACT_ID)
             for tok in seq] for seq in _as_sequences(traces)]


# --- Interpretation content metrics ---

@dataclass
class InterpretationMetrics:
    coverage: dict  # answer_id -> fraction of S_I addressed (|S_I| >= 2 only)
    unmatched_rate: float  # corpus-level
    matched_per_answer: dict  # answer_id -> count
    eligible_per_answer: dict  # answer_id -> count
    dedication: dict  # (answer_id, interpretation_id) -> fraction


def interpretation_metrics(
    traces: list[DiscoTrace],
    spaces: dict[str, InterpretationSpace],
    ontology: Ontology,
    families: Optional[set] = None,
) -> InterpretationMetrics:
    """Addressing metrics over traces. By default every
    interpretation-eligible act counts; pass ``families`` (e.g. {"AQ"}) to
    restrict the computation to acts from those families.

    The counted acts are worked out once from ``ontology``; each trace's steps are
    then walked once. An act id outside ``ontology`` raises ``UnknownActId``, a
    question id outside ``spaces`` ``UnknownSpaceReference``. ``dedication`` holds
    an answer's interpretations in the order its steps first address them."""
    counted = frozenset(a.id for a in ontology.acts if is_eligible(ontology, a.id) and (
        families is None or a.family in families))
    known = frozenset(ontology.act_ids()) | {NONE_ACT_ID}

    coverage, matched_per_answer, eligible_per_answer, dedication = {}, {}, {}, {}
    total_eligible = total_unmatched = 0

    for trace in traces:
        if trace.question_id not in spaces:
            raise UnknownSpaceReference(
                f"trace {trace.answer_id!r} references unknown question {trace.question_id!r}"
            )
        eligible = 0
        per_interp = {}  # interpretation id -> eligible steps addressing it
        for step in trace.steps:
            if step.act_id in counted:
                eligible += 1
                if step.interpretation_id is not None:
                    per_interp[step.interpretation_id] = per_interp.get(
                        step.interpretation_id, 0) + 1
            elif step.act_id not in known:
                ontology.get(step.act_id)  # raises UnknownActId
        matched = sum(per_interp.values())
        matched_per_answer[trace.answer_id] = matched
        eligible_per_answer[trace.answer_id] = eligible
        total_eligible += eligible
        total_unmatched += eligible - matched

        size = len(spaces[trace.question_id])
        if size >= 2:
            coverage[trace.answer_id] = len(per_interp) / size
        for iid, count in per_interp.items():
            dedication[(trace.answer_id, iid)] = count / eligible

    unmatched_rate = total_unmatched / total_eligible if total_eligible else 0.0
    return InterpretationMetrics(coverage, unmatched_rate, matched_per_answer,
                                 eligible_per_answer, dedication)


@dataclass
class OveranswerBin:
    lo: float
    hi: float
    n_interpretations: int
    human_mean: float
    model_mean: float


def _addressed_sets(traces: list[DiscoTrace]) -> dict[str, list[set]]:
    by_question = defaultdict(list)
    for trace in traces:
        by_question[trace.question_id].append(
            {step.interpretation_id for step in trace.steps} - {None})
    return by_question


def overanswering_bins(
    human_traces: list[DiscoTrace],
    model_traces: list[DiscoTrace],
    spaces: dict[str, InterpretationSpace],
    n_bins: int = 10,
) -> list[OveranswerBin]:
    """Bin interpretations by human addressing frequency; report the mean
    model addressing probability per bin."""
    import numpy as np

    human = _addressed_sets(human_traces)
    model = _addressed_sets(model_traces)
    if set(human) != set(model):
        raise QuestionMismatch("human and model corpora answer different question sets")

    points = []  # (human_freq, model_freq) per interpretation
    for question_id, human_answers in human.items():
        if question_id not in spaces:
            raise UnknownSpaceReference(f"unknown question {question_id!r}")
        model_answers = model[question_id]
        for member in spaces[question_id].members:
            h = sum(member.id in s for s in human_answers) / len(human_answers)
            m = sum(member.id in s for s in model_answers) / len(model_answers)
            points.append((h, m))

    edges = np.linspace(0.0, 1.0, n_bins + 1)
    bins = []
    for b in range(n_bins):
        lo, hi = float(edges[b]), float(edges[b + 1])
        members = [
            (h, m) for h, m in points
            if (lo <= h < hi) or (b == n_bins - 1 and h == hi)
        ]
        bins.append(OveranswerBin(
            lo=lo,
            hi=hi,
            n_interpretations=len(members),
            human_mean=float(np.mean([h for h, _ in members])) if members else float("nan"),
            model_mean=float(np.mean([m for _, m in members])) if members else float("nan"),
        ))
    return bins


# --- Agreement ---

@dataclass
class AgreementReport:
    kappa: float
    n_items: int
    label_space: str = "act"
    degenerate: bool = False


def cohens_kappa(labels_a: Sequence, labels_b: Sequence, label_space: str = "act") -> AgreementReport:
    """Chance-corrected agreement between two equal-length labelings.

    The first argument is treated as the reference labeling: chance
    agreement is the probability that two draws from its marginal label
    distribution coincide. kappa = (p_o - p_e) / (1 - p_e). When the
    reference labeling is constant the correction is undefined; kappa is
    reported as 1 for perfect agreement and 0 otherwise, with the
    degenerate flag set.
    """
    if len(labels_a) != len(labels_b):
        raise LengthMismatch(f"{len(labels_a)} vs {len(labels_b)} items")
    n = len(labels_a)
    if n == 0:
        raise LengthMismatch("need at least one item")
    p_observed = sum(a == b for a, b in zip(labels_a, labels_b)) / n
    marginal = Counter(labels_a)
    p_expected = sum((count / n) ** 2 for count in marginal.values())
    if math.isclose(p_expected, 1.0):
        kappa = 1.0 if math.isclose(p_observed, 1.0) else 0.0
        return AgreementReport(kappa=kappa, n_items=n, label_space=label_space, degenerate=True)
    kappa = (p_observed - p_expected) / (1.0 - p_expected)
    return AgreementReport(kappa=kappa, n_items=n, label_space=label_space)


# --- Act proportion comparison ---

@dataclass
class ActComparison:
    act_id: str
    prop_a: float
    prop_b: float
    chi2: float
    p_value: float
    significant_after_bonferroni: bool


def chi_squared_2x2(table) -> tuple[float, float]:
    """Pearson chi-squared test of independence, no continuity correction.

    Returns (statistic, p). When a row or column margin is zero the test
    is undefined; returns (0.0, 1.0).
    """
    import numpy as np

    (a, b), (c, d) = np.asarray(table, dtype=float)
    margins = (a + b, c + d, a + c, b + d)
    if 0 in margins:
        return 0.0, 1.0
    stat = (a + b + c + d) * (a * d - b * c) ** 2 / math.prod(margins)
    # Survival function of chi-squared with one degree of freedom.
    return float(stat), math.erfc(math.sqrt(stat / 2))


def act_proportion_test(
    traces_a: list[DiscoTrace],
    traces_b: list[DiscoTrace],
    ontology: Ontology,
    alpha: float = 0.05,
) -> list[ActComparison]:
    """Per act: proportion of answers containing it in each corpus, a 2x2
    chi-squared test, and Bonferroni-corrected significance."""
    if not traces_a or not traces_b:
        raise EmptyCorpus("both corpora must be non-empty")
    acts = ontology.act_ids(include_none=False)
    n_a, n_b = len(traces_a), len(traces_b)
    answers_with_a = Counter(act for t in traces_a for act in set(t.act_sequence()))
    answers_with_b = Counter(act for t in traces_b for act in set(t.act_sequence()))
    results = []
    for act_id in acts:
        with_a, with_b = answers_with_a[act_id], answers_with_b[act_id]
        stat, p = chi_squared_2x2([[with_a, n_a - with_a], [with_b, n_b - with_b]])
        results.append(ActComparison(
            act_id=act_id,
            prop_a=with_a / n_a,
            prop_b=with_b / n_b,
            chi2=stat,
            p_value=p,
            significant_after_bonferroni=p < alpha / len(acts),
        ))
    return results
