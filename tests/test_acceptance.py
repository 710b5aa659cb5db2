"""Acceptance gate: one test per release criterion.

Each test is self-contained and checks its criterion at the stated
tolerance; `pytest -v` reports one pass/fail line per criterion.
"""

import json
import math
import random
import socket
import time

import pytest

from discotrace import (
    BackendSpec,
    BoundaryConfig,
    Smoothing,
    cohens_kappa,
    cross_perplexity_matrix,
    fit_bigram,
    interpretation_metrics,
    is_boundary,
    load_ontology,
    overanswering_bins,
    parse_rst_tree,
    perplexity,
    segment_answer,
    tag_answer,
)
from discotrace.cli import main as cli_main
from discotrace.interpretations import Interpretation, InterpretationSpace
from discotrace.ontology import is_eligible
from discotrace.pipeline import DiscoTrace, TraceStep, pair_interpretations
from discotrace.rst import NUCLEARITIES, RELATIONS
from discotrace.segmentation import get_spans
from discotrace.stats import END, START, chi_squared_2x2, collapse_adjacent

from conftest import leaf, node, random_tree, record_fixture_by_replay, write_jsonl


# ---------------------------------------------------------------------------
# Criterion 1: segmentation matches an independent naive reference on 1,000
# random trees (up to 20 EDUs, all relation/nuclearity labels), under 5 s.

REFERENCE_BOUNDARY = {
    ("Contrast", "NN"),
    ("Comparison", "NN"),
    ("Topic-Change", "NN"), ("Topic-Change", "NS"), ("Topic-Change", "SN"),
    ("Evaluation", "NN"), ("Evaluation", "NS"), ("Evaluation", "SN"),
    ("Summary", "NN"), ("Summary", "NS"), ("Summary", "SN"),
    ("Background", "NS"), ("Background", "SN"),
}


def naive_leaves(doc):
    if "edu" in doc:
        return [doc["edu"]]
    return naive_leaves(doc["left"]) + naive_leaves(doc["right"])


def naive_spans(doc, k=3):
    """Straight-line restatement of the segmentation rules on raw dicts."""
    if "edu" in doc:
        return [[doc["edu"]]]
    left = naive_spans(doc["left"], k)
    right = naive_spans(doc["right"], k)
    key = (doc["relation"], doc["nuclearity"])
    if key in REFERENCE_BOUNDARY:
        if doc["relation"] == "Background":
            n_left = sum(len(s) for s in left)
            n_right = sum(len(s) for s in right)
            if n_left >= k and n_right >= k:
                return left + right
            return [naive_leaves(doc)]
        return left + right
    if len(left) + len(right) > 2:
        return left + right
    return [naive_leaves(doc)]


def test_criterion_01_segmentation_matches_reference():
    rng = random.Random(20240817)
    config = BoundaryConfig()
    start = time.perf_counter()
    for _ in range(1000):
        doc = random_tree(rng, max_edus=20)
        tree = parse_rst_tree(doc)
        got = [[edu.text for edu in span] for span in get_spans(tree.root, config)]
        assert got == naive_spans(doc)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"1,000 trees took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# Criterion 2: boundary decisions agree with the reference table on all
# 18 relations x 3 nuclearities.

def test_criterion_02_boundary_table_54_cases():
    config = BoundaryConfig()
    checked = 0
    for relation in sorted(RELATIONS):
        for nuclearity in sorted(NUCLEARITIES):
            expected = (relation, nuclearity) in REFERENCE_BOUNDARY
            assert is_boundary(relation, nuclearity, config) is expected, (
                relation, nuclearity)
            checked += 1
    assert checked == 54


# ---------------------------------------------------------------------------
# Criterion 3: bigram perplexity hand fixtures.

def test_criterion_03_perplexity_fixtures():
    model = fit_bigram([["A", "B"], ["A", "A"]], smoothing=Smoothing(mode="mle"))
    value = perplexity(model, [["A", "B"]])
    assert abs(value - 2 ** (1 / 3)) < 1e-9

    single = fit_bigram([["A", "B", "C"]], smoothing=Smoothing(mode="mle"))
    assert perplexity(single, [["A", "B", "C"]]) == 1.0


# ---------------------------------------------------------------------------
# Criterion 4: MLE self-perplexity is minimal against random stochastic
# bigram models, 100 corpora x 50 perturbations.

def random_corpus(rng):
    vocab = [f"t{i}" for i in range(rng.randint(1, 5))]
    return vocab, [
        [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
        for _ in range(rng.randint(1, 10))
    ]


def random_model_perplexity(rng, vocab, corpus):
    """Perplexity of the corpus under random row-stochastic transition tables."""
    states = [START] + vocab
    targets = vocab + [END]
    table = {}
    for state in states:
        weights = [rng.random() + 1e-9 for _ in targets]
        total = sum(weights)
        table[state] = {t: w / total for t, w in zip(targets, weights)}
    log_sum, n = 0.0, 0
    for seq in corpus:
        tokens = [START] + collapse_adjacent(seq) + [END]
        for prev, nxt in zip(tokens, tokens[1:]):
            log_sum += math.log(table[prev][nxt])
            n += 1
    return math.exp(-log_sum / n)


def test_criterion_04_mle_optimality():
    rng = random.Random(7)
    for _ in range(100):
        vocab, corpus = random_corpus(rng)
        model = fit_bigram(corpus, smoothing=Smoothing(mode="mle"), vocabulary=vocab)
        self_ppl = perplexity(model, corpus)
        for _ in range(50):
            assert self_ppl <= random_model_perplexity(rng, vocab, corpus) + 1e-12


# ---------------------------------------------------------------------------
# Criterion 5: cross-perplexity structure on synthetic corpora.

def test_criterion_05_cross_perplexity_structure():
    smoothing = Smoothing(mode="add_lambda", lam=1.0)
    disjoint = {
        "p": [["A", "B", "A", "B"], ["B", "A"], ["A", "B"]],
        "q": [["C", "D", "C", "D"], ["D", "C"], ["C", "D"]],
    }
    mat = cross_perplexity_matrix(disjoint, smoothing)
    assert mat.values[0][1] > mat.values[0][0]
    assert mat.values[1][0] > mat.values[1][1]

    identical = {
        "p": [["A", "B"], ["B", "A", "B"]],
        "q": [["A", "B"], ["B", "A", "B"]],
    }
    mat = cross_perplexity_matrix(identical, smoothing)
    spread = max(map(max, mat.values)) - min(map(min, mat.values))
    assert spread < 1e-12


# ---------------------------------------------------------------------------
# Criterion 6: agreement-statistic fixtures.

def test_criterion_06_kappa_fixtures():
    assert abs(cohens_kappa(["x", "y", "x", "z"], ["x", "y", "x", "z"]).kappa - 1.0) < 1e-12
    assert abs(cohens_kappa(["x", "x", "y", "y"], ["x", "y", "x", "y"]).kappa - 0.0) < 1e-12
    assert abs(cohens_kappa(["x", "x", "x", "y"], ["x", "x", "y", "y"]).kappa - 1 / 3) < 1e-12


# ---------------------------------------------------------------------------
# Criterion 7: chi-squared fixture and the multiple-comparison gate.

def test_criterion_07_chi_squared_fixture():
    chi2, p = chi_squared_2x2([[30, 20], [10, 40]])
    assert abs(chi2 - 16.67) < 0.05
    assert p < 1e-4

    # The gate is a direct comparison against alpha / n.
    from discotrace import act_proportion_test

    ontology = load_ontology()
    n_acts = len(ontology.act_ids(include_none=False))
    act = "action_AQ_assert_answer"
    other = "action_NO_presentational"

    def answers(prefix, n_with, n_total):
        return [
            DiscoTrace(answer_id=f"{prefix}{i}", question_id="q",
                       steps=[TraceStep(act_id=act if i < n_with else other,
                                        edu_indices=(0,))])
            for i in range(n_total)
        ]

    results = act_proportion_test(answers("a", 30, 50), answers("b", 10, 50),
                                  ontology, alpha=0.05)
    by_id = {r.act_id: r for r in results}
    target = by_id[act]
    assert target.significant_after_bonferroni is (target.p_value < 0.05 / n_acts)
    assert target.significant_after_bonferroni


# ---------------------------------------------------------------------------
# Criterion 8: interpretation-metric fixtures and overanswering brute force.

ELIGIBLE = "action_AQ_assert_answer"


def metric_trace(answer_id, qid, interp_ids):
    return DiscoTrace(
        answer_id=answer_id, question_id=qid,
        steps=[TraceStep(act_id=ELIGIBLE, edu_indices=(i,), interpretation_id=iid)
               for i, iid in enumerate(interp_ids)],
    )


def metric_space(qid, n):
    return InterpretationSpace(
        question_id=qid,
        members=[Interpretation(id=f"id_{j+1}", text=f"i{j+1}") for j in range(n)],
    )


def test_criterion_08_metric_fixtures():
    ontology = load_ontology()

    # Coverage: one interpretation of four addressed.
    m = interpretation_metrics(
        [metric_trace("a0", "q0", ["id_1"])], {"q0": metric_space("q0", 4)}, ontology)
    assert m.coverage["a0"] == 0.25

    # Dedication and unmatched rate on the four-segment example.
    m = interpretation_metrics(
        [metric_trace("a1", "q1", ["id_1", "id_1", "id_2", None])],
        {"q1": metric_space("q1", 4)}, ontology)
    assert set(m.dedication.values()) == {0.5, 0.25}
    assert m.unmatched_rate == 0.25

    # Overanswering bins against an in-test brute-force tally over a
    # three-question corpus.
    rng = random.Random(11)
    spaces = {f"q{j}": metric_space(f"q{j}", 3) for j in range(3)}
    all_ids = ["id_1", "id_2", "id_3", None]

    def random_side(prefix):
        return [
            metric_trace(f"{prefix}{j}_{i}", f"q{j}",
                         [rng.choice(all_ids) for _ in range(rng.randint(1, 4))])
            for j in range(3) for i in range(4)
        ]

    human = random_side("h")
    model = random_side("m")
    n_bins = 4
    bins = overanswering_bins(human, model, spaces, n_bins=n_bins)

    points = []
    for j in range(3):
        h_traces = [t for t in human if t.question_id == f"q{j}"]
        m_traces = [t for t in model if t.question_id == f"q{j}"]
        for member in spaces[f"q{j}"].members:
            h = sum(
                member.id in {s.interpretation_id for s in t.steps}
                for t in h_traces) / len(h_traces)
            mm = sum(
                member.id in {s.interpretation_id for s in t.steps}
                for t in m_traces) / len(m_traces)
            points.append((h, mm))
    for b in range(n_bins):
        lo, hi = b / n_bins, (b + 1) / n_bins
        selected = [(h, mm) for h, mm in points
                    if lo <= h < hi or (b == n_bins - 1 and h == hi)]
        assert bins[b].n_interpretations == len(selected)
        if selected:
            assert bins[b].human_mean == sum(h for h, _ in selected) / len(selected)
            assert bins[b].model_mean == sum(mm for _, mm in selected) / len(selected)
        else:
            assert math.isnan(bins[b].human_mean)


# ---------------------------------------------------------------------------
# Criterion 9: end-to-end trace replay over a 10-answer fixture corpus;
# byte-identical outputs, zero network, all trace invariants.

def varied_doc(i):
    """A small family of tree shapes so the corpus is not degenerate."""
    shapes = [
        leaf(f"single edu answer {i}."),
        node("Elaboration", "NS", leaf(f"claim {i}."), leaf(f"detail {i}.")),
        node("Contrast", "NN", leaf(f"one hand {i}."), leaf(f"other hand {i}.")),
        node("Evaluation", "NS",
             node("Joint", "NN", leaf(f"point a {i}."), leaf(f"point b {i}.")),
             leaf(f"verdict {i}.")),
        node("Background", "NS",
             node("Elaboration", "NS",
                  node("Joint", "NN", leaf(f"fact 1 {i}."), leaf(f"fact 2 {i}.")),
                  leaf(f"fact 3 {i}.")),
             node("Elaboration", "NS",
                  node("Joint", "NN", leaf(f"ctx 1 {i}."), leaf(f"ctx 2 {i}.")),
                  leaf(f"ctx 3 {i}."))),
    ]
    return shapes[i % len(shapes)]


ACT_CYCLE = [
    "action_AQ_assert_answer",
    "action_AQ_provide_reasoning",
    "action_AQ_provide_background",
    "action_CQ_reject_presupposition",
    "action_SI_clarification",
]


def build_e2e_inputs(base):
    questions = [{"post_id": f"q{i}", "title": f"Why does thing {i} happen?"}
                 for i in range(5)]
    answers = []
    for i in range(10):
        doc = varied_doc(i)
        tree = parse_rst_tree(doc)
        answers.append({
            "answer_id": f"a{i}",
            "question_id": f"q{i % 5}",
            "text": " ".join(e.text for e in tree.leaves()),
            "rst_tree": doc,
        })
    spaces = [
        InterpretationSpace(
            question_id=f"q{i}",
            members=[Interpretation(id="id_1", text=f"Reading one of {i}?"),
                     Interpretation(id="id_2", text=f"Reading two of {i}?")],
        )
        for i in range(5)
    ]
    write_jsonl(base / "questions.jsonl", questions)
    write_jsonl(base / "answers.jsonl", answers)
    write_jsonl(base / "spaces.jsonl", [s.to_dict() for s in spaces])
    (base / "labeler.jsonl").touch()
    (base / "config.json").write_text(json.dumps({
        "act_labeler": {"kind": "mock", "name": "labeler", "model": "m",
                        "fixture_path": "labeler.jsonl"},
    }))
    return questions, answers, spaces


def seed_e2e_fixture(base, questions, answers, spaces):
    backend = BackendSpec(kind="mock", name="labeler", model="m",
                          fixture_path=str(base / "labeler.jsonl"))
    ontology = load_ontology()
    titles = {q["post_id"]: q["title"] for q in questions}
    by_qid = {s.question_id: s for s in spaces}
    counter = {"n": 0}

    def responder(req):
        if "action_id" in req.system:
            counter["n"] += 1
            act = ACT_CYCLE[counter["n"] % len(ACT_CYCLE)]
            return json.dumps([{"action_id": act}])
        return '[{"interpretation_id": "id_1"}]'

    def run():
        for record in answers:
            tree = parse_rst_tree(record["rst_tree"])
            segments = segment_answer(tree, BoundaryConfig(),
                                      answer_id=record["answer_id"])
            question = titles[record["question_id"]]
            tagged, diags = tag_answer(question, record["text"], segments,
                                       tree, ontology, backend)
            pair_interpretations(
                question, by_qid[record["question_id"]], tagged, record["text"],
                ontology, backend, answer_id=record["answer_id"],
                question_id=record["question_id"], tree=tree, diagnostics=diags)

    record_fixture_by_replay(str(base / "labeler.jsonl"), run, responder)


def run_trace_cli(base, out_name):
    from click.testing import CliRunner

    result = CliRunner().invoke(cli_main, [
        "trace",
        "--in", str(base / "answers.jsonl"),
        "--questions", str(base / "questions.jsonl"),
        "--spaces", str(base / "spaces.jsonl"),
        "--out", str(base / out_name),
        "--config", str(base / "config.json"),
    ])
    assert result.exit_code == 0, result.output
    return (base / out_name).read_bytes()


def test_criterion_09_end_to_end_replay(tmp_path, monkeypatch):
    questions, answers, spaces = build_e2e_inputs(tmp_path)
    seed_e2e_fixture(tmp_path, questions, answers, spaces)

    def no_network(*args, **kwargs):
        raise AssertionError("network call attempted during mock replay")

    # Below every HTTP client: any connection attempt fails the test.
    monkeypatch.setattr(socket.socket, "connect", no_network)
    monkeypatch.setattr(socket, "create_connection", no_network)

    start = time.perf_counter()
    first = run_trace_cli(tmp_path, "traces1.jsonl")
    second = run_trace_cli(tmp_path, "traces2.jsonl")
    elapsed = time.perf_counter() - start
    assert first == second
    assert elapsed < 10.0, f"two runs took {elapsed:.2f}s"

    ontology = load_ontology()
    records = [json.loads(line) for line in first.decode().splitlines()]
    assert len(records) == 10
    trees = {a["answer_id"]: parse_rst_tree(a["rst_tree"]) for a in answers}
    for record in records:
        trace = DiscoTrace.from_dict(record)
        n_edus = trees[trace.answer_id].edu_count
        flat = [i for step in trace.steps for i in step.edu_indices]
        # Partition: every EDU exactly once, in order.
        assert flat == list(range(n_edus))
        for step in trace.steps:
            assert step.act_id in ontology
            if step.interpretation_id is not None:
                assert is_eligible(ontology, step.act_id)
        # Adjacent steps never repeat an act.
        acts = [step.act_id for step in trace.steps]
        assert all(a != b for a, b in zip(acts, acts[1:]))


# ---------------------------------------------------------------------------
# Criterion 10: corpus filter fidelity on a 30-post synthetic dump.

def make_post(post_id, title, score=10, profanity=0.0):
    return {"post_id": post_id, "title": title, "score": score,
            "community": "AskHistorians", "profanity_prob": profanity,
            "created_at": "2024-01-01"}


# (post, expected first failing rule or None). Every rejection rule that can
# fire first under the default word lists appears at least twice; titles with
# relationship or deictic wording are rejected by the earlier first-person
# rule, which is tallied accordingly.
FILTER_DUMP = [
    (make_post("p01", "Why did the Roman Empire split into two halves?"), None),
    (make_post("p02", ""), "empty_title"),
    (make_post("p03", "   "), "empty_title"),
    (make_post("p04", "Why did the Roman Empire fall apart?", score=4), "low_score"),
    (make_post("p05", "How did castles work?", score=0), "low_score"),
    (make_post("p06", "Why is that?"), "short_title"),
    (make_post("p07", "How come?"), "short_title"),
    (make_post("p08", "The Roman Empire was divided in 285 AD."), "not_interrogative"),
    (make_post("p09", "Medieval castles were built from stone."), "not_interrogative"),
    (make_post("p10", "Which subreddit covers the Roman Empire best?"), "reddit_term"),
    (make_post("p11", "What does karma mean for ancient historians?"), "reddit_term"),
    (make_post("p12", "Why did Rome fall? Why did Byzantium survive?"), "multiple_questions"),
    (make_post("p13", "Rome fell. Why did Byzantium survive?"), "multiple_questions"),
    (make_post("p14", "Why did the Roman Empire keep slaves?", profanity=0.95), "profanity"),
    (make_post("p15", "How were medieval sieges conducted exactly?", profanity=0.81), "profanity"),
    (make_post("p16", "Why do I sneeze when looking at the sun?"), "first_person"),
    (make_post("p17", "How should we think about ancient economies?"), "first_person"),
    (make_post("p18", "Why does my husband like Roman coins?"), "first_person"),
    (make_post("p19", "Why does this sword in my attic look Roman?"), "first_person"),
    (make_post("p20", "Is this normal for a medieval manuscript?"), "validation_seeking"),
    (make_post("p21", "Does anyone else wonder how aqueducts were maintained?"), "validation_seeking"),
    (make_post("p22", "How did Roman aqueducts actually deliver water?"), None),
    (make_post("p23", "What caused the Bronze Age collapse?"), None),
    (make_post("p24", "When did humans first cross into the Americas?"), None),
    (make_post("p25", "Where did the Silk Road actually begin?"), None),
    (make_post("p26", "Who wrote the first known legal code?"), None),
    (make_post("p27", "How accurate are Hollywood depictions of gladiators?"), None),
    (make_post("p28", "Why are so many languages related to Sanskrit?"), None),
    (make_post("p29", "Did medieval peasants really bathe rarely?", score=5), None),
    (make_post("p30", "Were Viking raids motivated by trade or plunder?"), None),
]


def test_criterion_10_filter_fidelity():
    from discotrace import RawPost, filter_posts

    assert len(FILTER_DUMP) == 30
    posts = [RawPost.from_dict(doc) for doc, _ in FILTER_DUMP]
    kept, tally = filter_posts(posts)
    expected_kept = [doc["post_id"] for doc, rule in FILTER_DUMP if rule is None]
    assert [p.post_id for p in kept] == expected_kept

    expected_tally = {}
    for _, rule in FILTER_DUMP:
        if rule is not None:
            expected_tally[rule] = expected_tally.get(rule, 0) + 1
    for rule, count in expected_tally.items():
        assert tally[rule] == count, rule
    rejected = sum(v for k, v in tally.items() if k != "missing_profanity_score")
    assert rejected == 30 - len(expected_kept)


# ---------------------------------------------------------------------------
# Criterion 11: prompt fidelity.

def test_criterion_11_prompt_fidelity():
    from discotrace.prompts import (
        DEFAULT_TEMPERATURE,
        build_act_prompt,
        build_interp_gen_prompt,
        build_mimic_prompt,
    )

    ontology = load_ontology()
    act_req = build_act_prompt(
        question="Why is the sky blue?", answer="It scatters light.",
        prev_segment=None, prev_label=None, segment="It scatters light.",
        subsegments=["It scatters light."], ontology=ontology,
        model_name="m")
    assert "Select EXACTLY ONE action_id per segment" in act_req.system
    assert 'If no action fits, use "NONE"' in act_req.system
    assert act_req.temperature == 0.01

    gen_req = build_interp_gen_prompt(
        question="Why is the sky blue?", community_context="", model_name="m")
    assert "as unambiguous distinct questions" in gen_req.system
    assert ("If the user's information need is already clear from their "
            "question, output 'NONE'") in gen_req.system
    assert gen_req.temperature == 0.01

    mimic_req = build_mimic_prompt(
        question="Why is the sky blue?", subreddit_name="askscience",
        subreddit_explanation="science questions", guidelines="Cite sources.",
        model_name="m")
    mimic_text = mimic_req.system + "\n" + mimic_req.user
    assert "Answer the question as if you were a redditor" in mimic_text
    assert mimic_req.temperature == 0.01

    assert DEFAULT_TEMPERATURE == 0.01
