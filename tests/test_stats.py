import math
from collections import Counter
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discotrace import (
    BigramModel,
    Smoothing,
    act_proportion_test,
    cohens_kappa,
    cross_perplexity_matrix,
    fit_bigram,
    interpretation_metrics,
    load_ontology,
    overanswering_bins,
    perplexity,
)
from discotrace.errors import (
    EmptyCorpus,
    LengthMismatch,
    QuestionMismatch,
    UnknownActId,
    UnknownSpaceReference,
    ZeroProbabilityTransition,
)
from discotrace.interpretations import Interpretation, InterpretationSpace
from discotrace.pipeline import DiscoTrace, TraceStep
from discotrace.stats import (
    END,
    START,
    chi_squared_2x2,
    collapse_adjacent,
    iter_transitions,
    project_families,
)

MLE = Smoothing(mode="mle")


def test_collapse_adjacent():
    assert collapse_adjacent(["A", "A", "B", "B", "B", "A"]) == ["A", "B", "A"]
    assert collapse_adjacent([]) == []
    assert collapse_adjacent(["A"]) == ["A"]


def test_transitions_wrap_start_end():
    assert list(iter_transitions([["A", "B"]])) == [
        (START, "A"), ("A", "B"), ("B", END),
    ]


def test_fit_counts_after_collapse():
    model = fit_bigram([["A", "B"], ["A", "A"]], smoothing=MLE)
    # The second sequence collapses to [A], so row A totals 2: A->B once, A->END once.
    assert model.probability("A", "B") == pytest.approx(0.5)
    assert model.probability("A", END) == pytest.approx(0.5)
    assert model.probability(START, "A") == pytest.approx(1.0)
    assert model.probability("B", END) == pytest.approx(1.0)


def test_mle_zero_transition_raises():
    model = fit_bigram([["A", "B"]], smoothing=MLE)
    with pytest.raises(ZeroProbabilityTransition):
        model.probability("B", "A")


def test_mle_out_of_vocab_raises():
    model = fit_bigram([["A", "B"]], smoothing=MLE)
    with pytest.raises(ZeroProbabilityTransition):
        perplexity(model, [["A", "C"]])


@pytest.mark.parametrize("mode", ["add_lambda", "mle"])
@pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
def test_smoothing_lambda_is_positive_and_finite(mode, lam):
    with pytest.raises(ValueError, match="lambda must be positive and finite"):
        Smoothing(mode=mode, lam=lam)


def test_add_lambda_hand_computed():
    model = fit_bigram([["A", "B"]], smoothing=Smoothing(mode="add_lambda", lam=1.0))
    # Vocab {A, B}; legal next set size is 3 (A, B, END).
    # Row A total 1, count(A->B)=1: p = (1+1)/(1+3) = 0.5
    assert model.probability("A", "B") == pytest.approx(2 / 4)
    # Unseen A->A: (0+1)/(1+3) = 0.25
    assert model.probability("A", "A") == pytest.approx(1 / 4)
    # Row B total 1 (B->END); unseen B->A: (0+1)/(1+3).
    assert model.probability("B", "A") == pytest.approx(1 / 4)


def test_perplexity_hand_computed():
    model = fit_bigram([["A", "B"], ["A", "A"]], smoothing=MLE)
    # Transitions for [A, B]: START->A (1.0), A->B (0.5), B->END (1.0).
    # Perplexity = exp(-(ln 1 + ln 0.5 + ln 1)/3) = 2^(1/3).
    assert perplexity(model, [["A", "B"]]) == pytest.approx(2 ** (1 / 3), abs=1e-12)


def test_self_perplexity_single_token_is_one():
    model = fit_bigram([["A"]], smoothing=MLE)
    assert perplexity(model, [["A"]]) == pytest.approx(1.0, abs=1e-15)


def test_perplexity_pools_all_transitions():
    model = fit_bigram([["A", "B"], ["B"]], smoothing=MLE)
    # START->A 0.5, A->B 1.0, B->END 1.0, START->B 0.5, B->END 1.0; 5 transitions.
    expected = math.exp(-(2 * math.log(0.5)) / 5)
    assert perplexity(model, [["A", "B"], ["B"]]) == pytest.approx(expected, abs=1e-12)


def test_empty_corpus_raises():
    with pytest.raises(EmptyCorpus):
        fit_bigram([], smoothing=MLE)
    model = fit_bigram([["A"]], smoothing=MLE)
    with pytest.raises(EmptyCorpus):
        perplexity(model, [])


def test_fit_accepts_traces():
    trace = DiscoTrace(
        answer_id="a1", question_id="q1",
        steps=[TraceStep(act_id="X", edu_indices=(0,)),
               TraceStep(act_id="Y", edu_indices=(1,))],
    )
    model = fit_bigram([trace], smoothing=MLE)
    assert model.probability("X", "Y") == pytest.approx(1.0)


def test_explicit_vocabulary_add_lambda():
    model = fit_bigram(
        [["A"]], smoothing=Smoothing(mode="add_lambda", lam=0.5),
        vocabulary=["A", "B"],
    )
    # Row B unseen: p(B->A) = 0.5 / (0 + 0.5*3) = 1/3.
    assert model.probability("B", "A") == pytest.approx(1 / 3)


@given(st.lists(st.lists(st.sampled_from(["A", "B", "C"]), min_size=1, max_size=6),
                min_size=1, max_size=8))
@settings(max_examples=60)
def test_add_lambda_perplexity_finite_and_at_least_one(seqs):
    model = fit_bigram(seqs, smoothing=Smoothing(mode="add_lambda", lam=1.0))
    p = perplexity(model, seqs)
    assert math.isfinite(p)
    assert p >= 1.0 - 1e-12


@given(st.lists(st.lists(st.sampled_from(["A", "B", "C"]), min_size=1, max_size=6),
                min_size=2, max_size=8),
       st.randoms(use_true_random=False))
@settings(max_examples=40)
def test_perplexity_invariant_under_corpus_permutation(seqs, rng):
    model = fit_bigram(seqs, smoothing=Smoothing(mode="add_lambda", lam=1.0))
    shuffled = list(seqs)
    rng.shuffle(shuffled)
    assert perplexity(model, shuffled) == pytest.approx(perplexity(model, seqs),
                                                        rel=1e-12)


def test_cross_perplexity_matrix_shape_and_labels():
    corpora = {
        "x": [["A", "B"], ["A"]],
        "y": [["B", "A"], ["B"]],
    }
    mat = cross_perplexity_matrix(corpora, smoothing=Smoothing())
    assert mat.row_labels == ["x", "y"]
    assert mat.col_labels == ["x", "y"]
    assert [len(row) for row in mat.values] == [2, 2]
    direct = perplexity(fit_bigram(corpora["x"], smoothing=Smoothing()), corpora["y"])
    assert mat.values[0][1] == pytest.approx(direct, abs=1e-12)


def test_cross_perplexity_identical_corpora_rows_equal():
    corpora = {"x": [["A", "B"]], "y": [["A", "B"]]}
    mat = cross_perplexity_matrix(corpora, smoothing=Smoothing())
    assert abs(mat.values[0][0] - mat.values[0][1]) < 1e-12
    assert abs(mat.values[1][0] - mat.values[1][1]) < 1e-12


def test_matrix_serialization(tmp_path):
    import json

    corpora = {"x": [["A", "B"]], "y": [["B"]]}
    mat = cross_perplexity_matrix(corpora, smoothing=Smoothing())
    doc = json.loads(mat.to_json())
    assert doc["row_labels"] == ["x", "y"]
    assert doc["values"][0][0] == pytest.approx(mat.values[0][0])
    wide = tmp_path / "m.csv"
    with wide.open("w", newline="") as handle:
        mat.write_csv(handle)
    lines = wide.read_text().strip().splitlines()
    assert len(lines) == 3  # header + one row per training corpus
    long = tmp_path / "m_long.csv"
    with long.open("w", newline="") as handle:
        mat.write_long_csv(handle)
    assert len(long.read_text().strip().splitlines()) == 5  # header + 4 cells


def walk_transitions(seq):
    tokens = [START] + [tok for tok, _ in groupby(seq)] + [END]
    return list(zip(tokens, tokens[1:]))


def walk_perplexity(train, evaluate, smoothing, vocab):
    """Reference: score the evaluation corpus one transition at a time."""
    counts, totals = Counter(), Counter()
    for seq in train:
        for prev, nxt in walk_transitions(seq):
            counts[prev, nxt] += 1
            totals[prev] += 1
    nll, n = 0.0, 0
    for seq in evaluate:
        for prev, nxt in walk_transitions(seq):
            if smoothing.mode == "mle":
                if counts[prev, nxt] == 0:
                    raise ZeroProbabilityTransition(prev, nxt)
                p = counts[prev, nxt] / totals[prev]
            else:
                lam = smoothing.lam
                p = (counts[prev, nxt] + lam) / (totals[prev] + lam * (len(vocab) + 1))
            nll -= math.log(p)
            n += 1
    return math.exp(nll / n)


corpus_strategy = st.lists(
    st.lists(st.sampled_from(["A", "B", "C", "D"]), min_size=1, max_size=8),
    min_size=1, max_size=6)


@given(st.lists(corpus_strategy, min_size=1, max_size=4),
       st.floats(min_value=0.01, max_value=5.0),
       st.sampled_from([None, ["A", "B", "C", "D"], ["D", "C", "B", "A", "E", "F"]]))
@settings(max_examples=80, deadline=None)
def test_cross_perplexity_matches_transition_walk(corpora, lam, vocabulary):
    named = {f"c{i}": corpus for i, corpus in enumerate(corpora)}
    vocab = vocabulary or sorted({tok for c in corpora for seq in c for tok in seq})
    smoothing = Smoothing(mode="add_lambda", lam=lam)
    mat = cross_perplexity_matrix(named, smoothing, vocabulary=vocabulary)
    for i, train in enumerate(corpora):
        for j, evaluate in enumerate(corpora):
            expected = walk_perplexity(train, evaluate, smoothing, vocab)
            assert mat.values[i][j] == pytest.approx(expected, rel=1e-12)


@given(st.lists(corpus_strategy, min_size=1, max_size=4),
       st.sampled_from([None, ["A", "B", "C", "D", "E"]]))
@settings(max_examples=80, deadline=None)
def test_mle_cross_perplexity_names_first_zero_transition(corpora, vocabulary):
    named = {f"c{i}": corpus for i, corpus in enumerate(corpora)}
    try:
        expected = [[walk_perplexity(train, evaluate, MLE, vocabulary) for evaluate in corpora]
                    for train in corpora]
    except ZeroProbabilityTransition as walk_error:
        with pytest.raises(ZeroProbabilityTransition) as raised:
            cross_perplexity_matrix(named, MLE, vocabulary=vocabulary)
        assert (raised.value.prev, raised.value.next) == (walk_error.prev, walk_error.next)
    else:
        mat = cross_perplexity_matrix(named, MLE, vocabulary=vocabulary)
        np.testing.assert_allclose(mat.values, expected, rtol=1e-12)


def test_perplexity_unknown_eval_tokens():
    mle = fit_bigram([["A", "B"]], smoothing=MLE)
    for corpus, first in (([["A", "B", "A", "C"]], ("B", "A")), ([["A", "C", "B"]], ("A", "C"))):
        with pytest.raises(ZeroProbabilityTransition) as raised:
            perplexity(mle, corpus)
        assert (raised.value.prev, raised.value.next) == first
    smoothed = fit_bigram([["A", "B"]], smoothing=Smoothing())
    with pytest.raises(ValueError, match="'C' outside model vocabulary"):
        perplexity(smoothed, [["B", "A", "C"]])
    # A context outside the vocabulary is an unseen row.
    assert smoothed.probability("C", "A") == pytest.approx(1 / 3)
    with pytest.raises(ZeroProbabilityTransition):
        mle.probability("C", "A")


def test_training_tokens_outside_vocabulary():
    with pytest.raises(ValueError, match=r"\['C'\]"):
        fit_bigram([["A", "C"]], vocabulary=["A", "B"])


def test_model_counts_view():
    model = fit_bigram([["A", "B"], ["A", "A"]], smoothing=MLE, vocabulary=["A", "B", "C"])
    assert model.counts == {(START, "A"): 2, ("A", "B"): 1, ("A", END): 1, ("B", END): 1}
    assert model.row_totals == {START: 2, "A": 2, "B": 1}


def test_project_families():
    ontology = load_ontology()
    trace = DiscoTrace(
        answer_id="a", question_id="q",
        steps=[TraceStep(act_id="action_AQ_assert_answer", edu_indices=(0,)),
               TraceStep(act_id="action_SI_clarification", edu_indices=(1,)),
               TraceStep(act_id="NONE", edu_indices=(2,))],
    )
    assert project_families([trace], ontology) == [["AQ", "SI", "NONE"]]


# ---------------------------------------------------------------------------
# Interpretation metrics


def space(qid, n):
    return InterpretationSpace(
        question_id=qid,
        members=[Interpretation(id=f"id_{i+1}", text=f"i{i+1}") for i in range(n)],
    )


def trace(answer_id, qid, pairs):
    return DiscoTrace(
        answer_id=answer_id, question_id=qid,
        steps=[TraceStep(act_id=act, edu_indices=(i,), interpretation_id=interp)
               for i, (act, interp) in enumerate(pairs)],
    )


ELIGIBLE = "action_AQ_assert_answer"
INELIGIBLE = "action_CQ_reject_presupposition"


def test_coverage_and_dedication_hand_computed():
    ontology = load_ontology()
    spaces = {"q1": space("q1", 4)}
    t = trace("a1", "q1", [
        (ELIGIBLE, "id_1"),
        (ELIGIBLE, "id_1"),
        (ELIGIBLE, None),
        (ELIGIBLE, "id_2"),
    ])
    m = interpretation_metrics([t], spaces, ontology)
    # 2 of 4 interpretations addressed.
    assert m.coverage["a1"] == pytest.approx(0.5)
    # Dedication per addressed interpretation: id_1 2/4, id_2 1/4.
    assert m.dedication[("a1", "id_1")] == pytest.approx(0.5)
    assert m.dedication[("a1", "id_2")] == pytest.approx(0.25)
    # 1 of 4 eligible segments unmatched.
    assert m.unmatched_rate == pytest.approx(0.25)


def test_coverage_skips_small_spaces():
    ontology = load_ontology()
    spaces = {"q1": space("q1", 1), "q2": space("q2", 2)}
    traces = [
        trace("a1", "q1", [(ELIGIBLE, "id_1")]),
        trace("a2", "q2", [(ELIGIBLE, "id_1")]),
    ]
    m = interpretation_metrics(traces, spaces, ontology)
    # q1's space is below the size threshold; only a2 gets a coverage value.
    assert set(m.coverage) == {"a2"}
    assert m.coverage["a2"] == pytest.approx(0.5)


def test_ineligible_segments_excluded():
    ontology = load_ontology()
    spaces = {"q1": space("q1", 2)}
    t = trace("a1", "q1", [
        (ELIGIBLE, "id_1"),
        (INELIGIBLE, None),
        ("NONE", None),
    ])
    m = interpretation_metrics([t], spaces, ontology)
    assert m.eligible_per_answer["a1"] == 1
    assert m.dedication[("a1", "id_1")] == pytest.approx(1.0)
    assert m.unmatched_rate == pytest.approx(0.0)


def test_unmatched_rate_pools_across_answers():
    ontology = load_ontology()
    spaces = {"q1": space("q1", 2), "q2": space("q2", 2)}
    traces = [
        trace("a1", "q1", [(ELIGIBLE, "id_1"), (ELIGIBLE, None), (ELIGIBLE, None)]),
        trace("a2", "q2", [(ELIGIBLE, "id_2")]),
    ]
    m = interpretation_metrics(traces, spaces, ontology)
    assert m.unmatched_rate == pytest.approx(2 / 4)


def test_family_filter_restricts_eligible_steps():
    ontology = load_ontology()
    spaces = {"q1": space("q1", 2)}
    t = trace("a1", "q1", [
        (ELIGIBLE, "id_1"),                   # AQ family
        ("action_SI_clarification", "id_2"),  # SI family
    ])
    m = interpretation_metrics([t], spaces, ontology, families={"AQ"})
    assert m.eligible_per_answer["a1"] == 1
    assert m.coverage["a1"] == pytest.approx(0.5)
    assert ("a1", "id_2") not in m.dedication


def test_unknown_space_reference():
    ontology = load_ontology()
    with pytest.raises(UnknownSpaceReference):
        interpretation_metrics(
            [trace("a1", "missing", [(ELIGIBLE, "id_1")])], {}, ontology)


@pytest.mark.parametrize("families", [None, {"AQ"}, {"SI"}])
@pytest.mark.parametrize("unknown", ["foo", "action_aq_assert_answer"])
def test_an_act_outside_the_ontology_raises(families, unknown):
    ontology = load_ontology()
    t = trace("a1", "q1", [(ELIGIBLE, "id_1"), ("NONE", None), (unknown, None)])
    with pytest.raises(UnknownActId, match=f"unknown act id {unknown!r}"):
        interpretation_metrics([t], {"q1": space("q1", 2)}, ontology, families=families)


def metrics_by_hand(traces, spaces, ontology, families=None):
    """interpretation_metrics as the paper defines it, one quantity at a time."""
    def counts(act_id):
        act = ontology.get(act_id)
        return (act_id != "NONE" and act.interpretation_eligible
                and (families is None or act.family in families))

    coverage, matched, eligible, dedication = {}, {}, {}, {}
    for t in traces:
        steps = [s for s in t.steps if counts(s.act_id)]
        ids = [s.interpretation_id for s in steps if s.interpretation_id is not None]
        matched[t.answer_id] = len(ids)
        eligible[t.answer_id] = len(steps)
        if len(spaces[t.question_id]) >= 2:
            coverage[t.answer_id] = len(set(ids)) / len(spaces[t.question_id])
        for iid in dict.fromkeys(ids):  # in the order the steps first address them
            dedication[(t.answer_id, iid)] = ids.count(iid) / len(steps)
    n_eligible = sum(eligible.values())
    unmatched = (n_eligible - sum(matched.values())) / n_eligible if n_eligible else 0.0
    return coverage, unmatched, matched, eligible, dedication


# Eligible acts of two families, an ineligible act and the NONE sentinel.
METRIC_ACTS = [ELIGIBLE, "action_AQ_provide_example", "action_SI_clarification",
               INELIGIBLE, "NONE"]


@given(sizes=st.lists(st.integers(0, 3), min_size=1, max_size=3),
       answers=st.lists(st.tuples(
           st.integers(0, 2),
           st.lists(st.tuples(st.sampled_from(METRIC_ACTS),
                              st.sampled_from([None, "id_1", "id_2", "id_3"])),
                    max_size=8)), max_size=8),
       families=st.sampled_from([None, {"AQ"}, {"SI"}, {"AQ", "SI"}, set()]))
@settings(max_examples=200, deadline=None)
def test_interpretation_metrics_equal_the_hand_count(sizes, answers, families):
    ontology = load_ontology()
    spaces = {f"q{q}": space(f"q{q}", n) for q, n in enumerate(sizes)}
    traces = [trace(f"a{i}", f"q{q % len(sizes)}", pairs)
              for i, (q, pairs) in enumerate(answers)]
    m = interpretation_metrics(traces, spaces, ontology, families=families)
    coverage, unmatched, matched, eligible, dedication = metrics_by_hand(
        traces, spaces, ontology, families)
    # Compared as item lists, so that the order of each dict counts: it is the output's.
    assert list(m.coverage.items()) == list(coverage.items())
    assert m.unmatched_rate == unmatched
    assert list(m.matched_per_answer.items()) == list(matched.items())
    assert list(m.eligible_per_answer.items()) == list(eligible.items())
    assert list(m.dedication.items()) == list(dedication.items())


# ---------------------------------------------------------------------------
# Overanswering bins


def test_overanswering_bins_brute_force():
    spaces = {"q1": space("q1", 2), "q2": space("q2", 2)}
    human = [
        trace("h1", "q1", [(ELIGIBLE, "id_1")]),
        trace("h2", "q1", [(ELIGIBLE, "id_1")]),
        trace("h3", "q2", [(ELIGIBLE, "id_1"), (ELIGIBLE, "id_2")]),
        trace("h4", "q2", [(ELIGIBLE, "id_2")]),
    ]
    model = [
        trace("m1", "q1", [(ELIGIBLE, "id_1")]),
        trace("m2", "q1", [(ELIGIBLE, None)]),
        trace("m3", "q2", [(ELIGIBLE, "id_2")]),
        trace("m4", "q2", [(ELIGIBLE, "id_2")]),
    ]
    # Human addressing: q1 id_1 1.0, q1 id_2 0.0, q2 id_1 0.5, q2 id_2 1.0.
    # Model addressing: q1 id_1 0.5, q1 id_2 0.0, q2 id_1 0.0, q2 id_2 1.0.
    bins = overanswering_bins(human, model, spaces, n_bins=2)
    assert len(bins) == 2
    lo = bins[0]
    assert lo.n_interpretations == 1  # q1 id_2 at 0.0
    assert lo.human_mean == pytest.approx(0.0)
    assert lo.model_mean == pytest.approx(0.0)
    hi = bins[1]
    assert hi.n_interpretations == 3  # 1.0, 0.5, 1.0
    assert hi.human_mean == pytest.approx((1.0 + 0.5 + 1.0) / 3)
    assert hi.model_mean == pytest.approx((0.5 + 0.0 + 1.0) / 3)


def test_overanswering_question_mismatch():
    spaces = {"q1": space("q1", 2), "q2": space("q2", 2)}
    with pytest.raises(QuestionMismatch):
        overanswering_bins(
            [trace("h1", "q1", [(ELIGIBLE, "id_1")])],
            [trace("m1", "q2", [(ELIGIBLE, "id_1")])],
            spaces, n_bins=2)


def test_overanswering_last_bin_includes_one():
    spaces = {"q1": space("q1", 1)}
    human = [trace("h1", "q1", [(ELIGIBLE, "id_1")])]
    model = [trace("m1", "q1", [(ELIGIBLE, None)])]
    bins = overanswering_bins(human, model, spaces, n_bins=4)
    # Human frequency 1.0 belongs to the final bin.
    assert bins[-1].n_interpretations == 1
    assert all(b.n_interpretations == 0 for b in bins[:-1])
    assert math.isnan(bins[0].human_mean)


def test_overanswering_bins_match_numpy_linspace_and_mean():
    # Human frequencies k/60 for k = 1..60 fall on many bin edges; an edge decides its bin.
    n_ids = 60
    spaces = {"q1": space("q1", n_ids)}
    human = [trace(f"h{i}", "q1", [(ELIGIBLE, f"id_{j}") for j in range(1, i + 2)])
             for i in range(n_ids)]
    model = [trace(f"m{i}", "q1", [(ELIGIBLE, f"id_{j}") for j in range(1, n_ids + 1)
                                   if (i * j) % 7 < 3])
             for i in range(45)]
    points = [(sum(j <= i + 1 for i in range(n_ids)) / n_ids,
               sum((i * j) % 7 < 3 for i in range(45)) / 45) for j in range(1, n_ids + 1)]
    for n_bins in range(1, 51):
        bins = overanswering_bins(human, model, spaces, n_bins=n_bins)
        edges = np.linspace(0.0, 1.0, n_bins + 1)
        assert [b.lo for b in bins] + [bins[-1].hi] == edges.tolist()
        for b, lo, hi in zip(bins, edges[:-1], edges[1:]):
            members = [(h, m) for h, m in points if lo <= h < hi or (hi == 1.0 and h == 1.0)]
            assert b.n_interpretations == len(members)
            if members:
                assert abs(b.human_mean - np.mean([h for h, _ in members])) <= 1e-12
                assert abs(b.model_mean - np.mean([m for _, m in members])) <= 1e-12
            else:
                assert math.isnan(b.human_mean) and math.isnan(b.model_mean)


# ---------------------------------------------------------------------------
# Agreement and proportion tests


def test_kappa_perfect_agreement():
    r = cohens_kappa(["A", "B", "A"], ["A", "B", "A"])
    assert r.kappa == pytest.approx(1.0, abs=1e-12)
    assert not r.degenerate


def test_kappa_hand_computed_third():
    # Reference marginals (3/4, 1/4): pe = 9/16 + 1/16 = 5/8; po = 3/4.
    a = ["x", "x", "x", "y"]
    b = ["x", "x", "y", "y"]
    r = cohens_kappa(a, b)
    assert r.kappa == pytest.approx(1 / 3, abs=1e-12)


def test_kappa_asymmetric_reference():
    # Swapping the arguments changes the chance model.
    a = ["x", "x", "x", "y"]
    b = ["x", "x", "y", "y"]
    assert cohens_kappa(b, a).kappa == pytest.approx(0.5, abs=1e-12)


def test_kappa_chance_level_zero():
    a = ["X", "X", "Y", "Y"]
    b = ["X", "Y", "Y", "X"]
    # po = 0.5 = pe -> kappa 0.
    assert cohens_kappa(a, b).kappa == pytest.approx(0.0, abs=1e-12)


def test_kappa_degenerate_marginals():
    r = cohens_kappa(["A", "A"], ["A", "A"])
    assert r.degenerate
    assert r.kappa == pytest.approx(1.0)
    r = cohens_kappa(["A", "A"], ["A", "B"])
    assert r.degenerate
    assert r.kappa == pytest.approx(0.0)


def test_kappa_length_mismatch():
    with pytest.raises(LengthMismatch):
        cohens_kappa(["A"], ["A", "B"])


@given(st.lists(st.tuples(st.sampled_from(["A", "B", "C"]),
                          st.sampled_from(["A", "B", "C"])),
                min_size=2, max_size=30))
@settings(max_examples=60)
def test_kappa_invariant_under_relabeling(pairs):
    xs = [a for a, _ in pairs]
    ys = [b for _, b in pairs]
    mapping = {"A": "P", "B": "Q", "C": "R"}
    base = cohens_kappa(xs, ys)
    swapped = cohens_kappa([mapping[x] for x in xs], [mapping[y] for y in ys])
    assert swapped.kappa == pytest.approx(base.kappa, abs=1e-12)
    assert swapped.degenerate == base.degenerate


def test_chi_squared_known_table():
    chi2, p = chi_squared_2x2([[30, 20], [10, 40]])
    assert chi2 == pytest.approx(16.6667, abs=0.05)
    assert p < 1e-4
    assert p == pytest.approx(4.455709060405612e-05, rel=1e-12)


def test_chi_squared_zero_margin():
    chi2, p = chi_squared_2x2([[0, 10], [0, 10]])
    assert chi2 == 0.0
    assert p == 1.0


def test_act_proportion_test_bonferroni():
    ontology = load_ontology()
    acts = ontology.act_ids(include_none=False)
    # 30 of 50 answers in corpus A contain the act; 10 of 50 in corpus B.
    left = [trace(f"a{i}", "q1", [(ELIGIBLE if i < 30 else INELIGIBLE, None)])
            for i in range(50)]
    right = [trace(f"b{i}", "q1", [(ELIGIBLE if i < 10 else INELIGIBLE, None)])
             for i in range(50)]
    results = act_proportion_test(left, right, ontology)
    assert set(r.act_id for r in results) == set(acts)
    by_id = {r.act_id: r for r in results}
    target = by_id[ELIGIBLE]
    assert target.prop_a == pytest.approx(0.6)
    assert target.prop_b == pytest.approx(0.2)
    assert target.chi2 == pytest.approx(16.6667, abs=0.05)
    assert target.p_value < 1e-4
    # Bonferroni threshold 0.05 / n_acts still passed by this p.
    assert target.significant_after_bonferroni
    absent = by_id["action_NO_presentational"]
    assert absent.p_value == 1.0
    assert not absent.significant_after_bonferroni
