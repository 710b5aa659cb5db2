"""Bigram strategy models, perplexity, agreement, and content metrics.

Act sequences are wrapped in START/END tokens, and adjacent duplicate act
tokens are collapsed before counting or scoring: a trace never carries
two adjacent segments with the same act after refinement, so the model
normalizes every input to that invariant.

Everything is computed on plain Python numbers. Transition counts are a sparse
``Counter`` of (row, column) cells, and a perplexity is one ``math.fsum`` of
count x log-probability over the cells a corpus counts.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain, groupby, islice, repeat
from operator import mul
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import (
    EmptyCorpus,
    LengthMismatch,
    QuestionMismatch,
    UnknownSpaceReference,
    ZeroProbabilityTransition,
)
from .ontology import NONE_ACT_ID, Ontology, is_eligible

if TYPE_CHECKING:  # for annotations only: a trace is told by its attributes
    from .interpretations import InterpretationSpace
    from .pipeline import DiscoTrace

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
    """Each trace's act ids: a list as it is, a ``DiscoTrace``'s act sequence (anything with
    ``act_sequence``), else a list."""
    return [t if type(t) is list else t.act_sequence() if hasattr(t, "act_sequence") else list(t)
            for t in traces]


def collapse_adjacent(tokens: Sequence[str]) -> list[str]:
    """Drop each token equal to its immediate predecessor."""
    return [token for token, _ in groupby(tokens)]


def iter_transitions(sequences: list[list[str]]):
    """Yield (prev, next) pairs of START-wrapped, collapsed sequences."""
    for seq in sequences:
        tokens = [START] + collapse_adjacent(seq) + [END]
        yield from zip(tokens, tokens[1:])


_OPEN, _CLOSE = (object(),), (object(),)  # what wraps each sequence while it is counted


def transition_matrix(sequences: list[list[str]], vocabulary: Sequence[str]) -> Counter:
    """Counts of START-wrapped, collapsed transitions, as a sparse ``Counter`` of
    (row, column) cells: row and column i stand for ``vocabulary[i]``, row |V| for START
    and column |V| for END. A token outside ``vocabulary`` raises KeyError.

    The corpus is coded as one flat list, each sequence between START (|V|) and END
    (|V| + 1), and its adjacent pairs counted. Collapsing a run of one token drops
    exactly its pairs of that token with itself, and a pair out of END joins one
    sequence to the next, so both are left out."""
    n = len(vocabulary)
    code = {tok: i for i, tok in enumerate(vocabulary)} | {_OPEN[0]: n, _CLOSE[0]: n + 1}
    flat = list(map(code.__getitem__, chain.from_iterable(chain.from_iterable(
        zip(repeat(_OPEN), sequences, repeat(_CLOSE))))))
    pairs = Counter(zip(flat, islice(flat, 1, None)))
    return Counter({(row, min(col, n)): count for (row, col), count in pairs.items()
                    if row != col and row <= n})


@dataclass
class BigramModel:
    """A training corpus's transition counts and their row totals; each probability is
    worked out from them when it is asked for, so fitting stores nothing else."""

    vocabulary: tuple  # act tokens (incl. NONE); START/END are implicit
    transitions: Counter  # transition_matrix() of the training corpus
    smoothing: Smoothing
    training_sequences: int

    def __post_init__(self):
        n = len(self.vocabulary)
        self._index = {tok: i for i, tok in enumerate(self.vocabulary)} | {START: n, END: n}
        # Row n + 1, never trained, stands for every context outside the vocabulary.
        self._totals = [0] * (n + 2)
        for (row, _), count in self.transitions.items():
            self._totals[row] += count

    @property
    def counts(self) -> dict:
        """(prev, next) -> count of each transition seen in training."""
        contexts, nexts = self.vocabulary + (START,), self.vocabulary + (END,)
        return {(contexts[r], nexts[c]): count
                for (r, c), count in sorted(self.transitions.items())}

    @property
    def row_totals(self) -> dict:
        """prev -> number of training transitions out of it."""
        return {tok: t for tok, t in zip(self.vocabulary + (START,), self._totals) if t}

    def _cell_probability(self, row: int, col: int) -> float:
        """p(column | row) of one cell; an MLE row never seen in training allows none."""
        lam = self.smoothing.lam if self.smoothing.mode == "add_lambda" else 0.0
        denominator = self._totals[row] + lam * (len(self.vocabulary) + 1)
        return (self.transitions[row, col] + lam) / denominator if denominator else 0.0

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
        row = self._index.get(prev, len(self.vocabulary) + 1)
        p = 0.0 if col is None else self._cell_probability(row, col)
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
    vocab = tuple(sorted(set().union(*sequences)) if vocabulary is None else vocabulary)
    try:
        counts = transition_matrix(sequences, vocab)
    except KeyError:
        missing = set().union(*sequences).difference(vocab)
        raise ValueError(f"training tokens outside vocabulary: {sorted(missing)}") from None
    return BigramModel(vocab, counts, smoothing, len(sequences))


def _raise_first_failure(model: BigramModel, sequences: list[list[str]], where=None):
    """Score transitions in order; the error names the first the model cannot score, after
    ``where`` when it is given."""
    try:
        for prev, nxt in iter_transitions(sequences):
            model.probability(prev, nxt)
    except ZeroProbabilityTransition as exc:
        if where:
            exc.args = (f"{where}: {exc}",)
        raise
    raise AssertionError("count matrix and transition walk disagree")


def _perplexities(models: list[BigramModel], counts: list[Counter], sequences,
                  names=None) -> list[list]:
    """exp(-sum(E_j * log P_i) / sum(E_j)) for every model i and count Counter E_j, the sum
    taken by ``math.fsum`` over E_j's cells in E_j's own order. Pairs are scored in
    row-major order; the first whose model gives one of its cells probability 0 walks
    the corpus ``sequences[j]`` to name the transition, as ``<names[j]> under <names[i]>``
    when ``names`` is given. All models share one vocabulary."""
    width = len(models[0].vocabulary) + 1
    cells = [(r, c) for r in range(width) for c in range(width)]
    # Each corpus's cells as indexes into ``cells``, with their counts and total.
    corpora = [([r * width + c for r, c in e], list(e.values()), e.total()) for e in counts]
    rows = []
    for i, model in enumerate(models):
        log_p = [math.log(p) if p else -math.inf
                 for p in (model._cell_probability(r, c) for r, c in cells)]
        row = []
        for j, ((keys, values, total), seqs) in enumerate(zip(corpora, sequences)):
            log_likelihood = math.fsum(map(mul, values, map(log_p.__getitem__, keys)))
            if log_likelihood == -math.inf:
                _raise_first_failure(model, seqs, names and f"{names[j]} under {names[i]}")
            row.append(math.exp(-log_likelihood / total))
        rows.append(row)
    return rows


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
    return _perplexities([model], [counts], [sequences])[0][0]


@dataclass
class PerplexityMatrix:
    row_labels: list[str]  # training corpora
    col_labels: list[str]  # evaluation corpora
    values: list[list[float]]  # one row per training corpus

    def to_json(self) -> str:
        return json.dumps({
            "row_labels": self.row_labels,
            "col_labels": self.col_labels,
            "values": self.values,
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
        for train, row in zip(self.row_labels, self.values):
            for eval_name, value in zip(self.col_labels, row):
                writer.writerow([train, eval_name, f"{value:.6f}"])


def cross_perplexity_matrix(
    corpora: dict[str, list],
    smoothing: Smoothing = Smoothing(),
    vocabulary: Optional[Sequence[str]] = None,
) -> PerplexityMatrix:
    """Fit one model per corpus and evaluate it on every corpus. A transition that a model
    gives probability 0 raises ``ZeroProbabilityTransition`` naming the evaluation corpus
    under the training corpus: ``<eval> under <train>: zero-probability transition ...``."""
    if not corpora:
        raise EmptyCorpus("need at least one corpus")
    names = list(corpora)
    sequences = [_as_sequences(corpora[name]) for name in names]
    if vocabulary is None:
        vocabulary = sorted(set().union(*(seq for corpus in sequences for seq in corpus)))
    models = [fit_bigram(corpus, smoothing, vocabulary) for corpus in sequences]
    values = _perplexities(models, [m.transitions for m in models], sequences, names)
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


def _as_step_views(traces) -> list[tuple]:
    """Each trace as ``(answer_id, question_id, [(act_id, interpretation_id), ...])``;
    a trace already in that shape is kept as it is, and a ``DiscoTrace`` is anything with
    ``steps``."""
    return [(t.answer_id, t.question_id, [(s.act_id, s.interpretation_id) for s in t.steps])
            if hasattr(t, "steps") else t for t in traces]


def interpretation_metrics(
    traces: list,
    spaces: dict[str, InterpretationSpace],
    ontology: Ontology,
    families: Optional[set] = None,
) -> InterpretationMetrics:
    """Addressing metrics over traces, each a ``DiscoTrace`` or its
    ``(answer_id, question_id, [(act_id, interpretation_id), ...])``. By default every
    interpretation-eligible act counts; pass ``families`` (e.g. {"AQ"}) to
    restrict the computation to acts from those families.

    The counted acts are worked out once from ``ontology``; each trace's steps are
    then walked once. An act id outside ``ontology`` raises ``UnknownActId``, a
    question id outside ``spaces`` ``UnknownSpaceReference``. ``dedication`` holds
    an answer's interpretations in the order its steps first address them."""
    counted = frozenset(a.id for a in ontology.acts if is_eligible(ontology, a.id) and (
        families is None or a.family in families))
    known = frozenset(ontology.act_ids()) | {NONE_ACT_ID}
    sizes = {question_id: len(space) for question_id, space in spaces.items()}

    coverage, matched_per_answer, eligible_per_answer, dedication = {}, {}, {}, {}
    total_eligible = total_unmatched = 0

    for answer_id, question_id, steps in _as_step_views(traces):
        size = sizes.get(question_id)
        if size is None:
            raise UnknownSpaceReference(
                f"trace {answer_id!r} references unknown question {question_id!r}"
            )
        eligible = 0
        per_interp = {}  # interpretation id -> eligible steps addressing it
        for act_id, iid in steps:
            if act_id in counted:
                eligible += 1
                if iid is not None:
                    per_interp[iid] = per_interp.get(iid, 0) + 1
            elif act_id not in known:
                ontology.get(act_id)  # raises UnknownActId
        matched = sum(per_interp.values())
        matched_per_answer[answer_id] = matched
        eligible_per_answer[answer_id] = eligible
        total_eligible += eligible
        total_unmatched += eligible - matched

        if size >= 2:
            coverage[answer_id] = len(per_interp) / size
        for iid, count in per_interp.items():
            dedication[(answer_id, iid)] = count / eligible

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


def _mean(values: list[float]) -> float:
    return math.fsum(values) / len(values) if values else math.nan


def overanswering_bins(
    human_traces: list[DiscoTrace],
    model_traces: list[DiscoTrace],
    spaces: dict[str, InterpretationSpace],
    n_bins: int = 10,
) -> list[OveranswerBin]:
    """Bin interpretations by human addressing frequency; report the mean
    model addressing probability per bin."""
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

    # np.linspace(0, 1, n_bins + 1) bit for bit: a frequency equal to an edge decides its bin.
    edges = [b * (1.0 / n_bins) for b in range(n_bins)] + [1.0]
    bins = []
    for b in range(n_bins):
        lo, hi = edges[b], edges[b + 1]
        members = [
            (h, m) for h, m in points
            if (lo <= h < hi) or (b == n_bins - 1 and h == hi)
        ]
        bins.append(OveranswerBin(
            lo=lo,
            hi=hi,
            n_interpretations=len(members),
            human_mean=_mean([h for h, _ in members]),
            model_mean=_mean([m for _, m in members]),
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
    (a, b), (c, d) = (map(float, row) for row in table)
    margins = (a + b, c + d, a + c, b + d)
    if 0 in margins:
        return 0.0, 1.0
    stat = (a + b + c + d) * (a * d - b * c) ** 2 / math.prod(margins)
    # Survival function of chi-squared with one degree of freedom.
    return stat, math.erfc(math.sqrt(stat / 2))


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
