"""Self-tests of the benchmark's own parts.

Run from the repository root: python3 -m pytest perfbench -q
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import fake_backend  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _tree_bytes(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.fixture
def small_sizes(monkeypatch):
    monkeypatch.setitem(workloads.TRACE_SIZES, "trace-replay", (4, 3, (3, 15)))
    monkeypatch.setitem(workloads.TRACE_SIZES, "trace-long", (2, 2, (20, 40)))
    monkeypatch.setattr(workloads, "ANALYZE_CORPORA", 3)
    monkeypatch.setattr(workloads, "ANALYZE_TRACES", 40)
    monkeypatch.setattr(workloads, "ANALYZE_QUESTIONS", 6)


@pytest.mark.parametrize("workload", ["trace-replay", "trace-long", "analyze"])
def test_generator_bytes_depend_only_on_seed(tmp_path, small_sizes, workload):
    def generate(seed, name):
        directory = tmp_path / name
        if workload == "analyze":
            workloads.prepare_analyze(seed, directory)
        else:
            workloads.prepare_trace(workload, seed, directory)
        return _tree_bytes(directory)

    first = generate(7, "a")
    assert first == generate(7, "b")
    other = generate(8, "c")
    assert first.keys() == other.keys()
    assert first != other


def test_trace_reference_has_every_response_kind(tmp_path, small_sizes, monkeypatch):
    monkeypatch.setitem(workloads.TRACE_SIZES, "trace-replay", (12, 6, (3, 40)))
    inputs = workloads.prepare_trace("trace-replay", 3, tmp_path)
    assert len(inputs.ref_traces) == 72
    for kind in ("none_share", "unparsable_share"):
        assert 0 < inputs.shares[kind] < 0.1
    assert 0 < inputs.shares["degraded_share"] < 1


# Reference digests of seed 1 at the sizes of ``small_sizes``, computed by
# the library path when the benchmark was written.
SMALL_PINNED = {
    "trace-replay": "a58f28ef0a3ba7aa94ac61628f7365ffdf43b15c3fb4248cef3d1831c7711232",
    "trace-long": "353dea29ee14a0c72fcfe438fc3d5e8bbe0ea4f3ee2cad71d75f83b61b5f14b3",
}


@pytest.mark.parametrize("workload", sorted(SMALL_PINNED))
def test_library_reference_keeps_its_pinned_digest(tmp_path, small_sizes, workload):
    inputs = workloads.prepare_trace(workload, 1, tmp_path)
    assert run.reference_digest(inputs) == SMALL_PINNED[workload]


def test_pinned_file_matches_and_a_moved_reference_is_caught(tmp_path):
    inputs = workloads.prepare_trace("trace-live", 1, tmp_path)
    assert run.pin_status("trace-live", 1, inputs) == "match"
    inputs.ref_traces[0]["steps"][0]["act_id"] = "NONE"
    assert run.pin_status("trace-live", 1, inputs) == "mismatch"
    assert run.pin_status("trace-live", -1, inputs) == "unpinned"


def test_printed_metrics_are_those_of_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    counted_elsewhere = {"gateway.posts", "gateway.retried_posts", "gateway.connections_opened",
                         "trace.overhead_s", "cli.import_s"}
    assert set(tracing.layer_metrics([])) | counted_elsewhere == \
        {m["name"] for m in spec["per_layer"]}


def _digests(n, salt="x"):
    return [hashlib.sha256(f"{salt}{i}".encode()).hexdigest() for i in range(n)]


def test_fault_schedule_is_deterministic_and_exact():
    digests = _digests(500)
    first = fake_backend.FaultSchedule(1, digests, 0.02, 0.03)
    shuffled = list(digests)
    random.Random(0).shuffle(shuffled)
    again = fake_backend.FaultSchedule(1, shuffled, 0.02, 0.03)
    assert [first.fault(d, 0) for d in digests] == [again.fault(d, 0) for d in digests]
    assert first.count("503") == 10 and first.count("bad") == 15
    assert all(first.fault(d, attempt) is None for d in digests for attempt in (1, 2, 3))
    other = fake_backend.FaultSchedule(2, digests, 0.02, 0.03)
    assert [first.fault(d, 0) for d in digests] != [other.fault(d, 0) for d in digests]


def test_fake_backend_retries_and_depth():
    requests = pytest.importorskip("requests")
    system, user = "sys", "Answer a1x starts here. Label it."
    digest = workloads.wire_digest(system, user, "m", 0.5, None)
    table = {digest: '[{"action_id": "NONE"}]'}

    class FirstAttempt503:
        def fault(self, d, attempt):
            return "503" if attempt == 0 else None

    body = {"model": "m", "temperature": 0.5,
            "messages": [{"role": "system", "content": system},
                         {"role": "user", "content": user}]}
    with fake_backend.FakeBackend(table, FirstAttempt503(), delay_s=0.001) as backend:
        session = requests.Session()
        session.trust_env = False
        statuses = [session.post(backend.endpoint, json=body, timeout=10).status_code
                    for _ in range(3)]
        reply = session.post(backend.endpoint, json=body, timeout=10).json()
        session.close()
        stats = backend.reset()
    assert statuses == [503, 200, 200]
    assert reply["choices"][0]["message"]["content"] == table[digest]
    assert (stats.posts, stats.retried_posts, stats.status_5xx) == (4, 3, 1)
    depths, latencies = stats.per_answer()
    assert depths == [4] and latencies[0] > 0


def test_count_matrix_reference_agrees_with_stats_perplexity():
    from discotrace import Smoothing, fit_bigram, load_ontology, perplexity

    vocab = load_ontology().act_ids()
    rng = random.Random(5)
    corpora = [[[rng.choice(vocab[:6]) for _ in range(rng.randint(1, 8))]
                for _ in range(rng.randint(3, 12))] for _ in range(4)]
    for lam in (1.0, 0.25):
        expected = [[perplexity(fit_bigram(train, Smoothing(lam=lam), vocab), test)
                     for test in corpora] for train in corpora]
        got = reference.perplexity_matrix(
            [reference.count_matrix(c, vocab) for c in corpora], lam)
        for row_e, row_g in zip(expected, got):
            for e, g in zip(row_e, row_g):
                assert reference.close(float(g), e, 1e-9)


def test_metrics_recount_agrees_with_library(small_sizes, tmp_path):
    from discotrace import InterpretationSpace, load_ontology
    from discotrace.pipeline import DiscoTrace
    from discotrace.stats import interpretation_metrics

    inputs = workloads.prepare_analyze(4, tmp_path)
    ontology = load_ontology()
    traces = [json.loads(line) for line in inputs.all_path.read_text().splitlines()]
    spaces = {doc["question_id"]: InterpretationSpace.from_dict(doc)
              for doc in map(json.loads, inputs.spaces_path.read_text().splitlines())}
    report = interpretation_metrics([DiscoTrace.from_dict(t) for t in traces], spaces, ontology)
    expected = inputs.ref_metrics
    assert report.matched_per_answer == expected["matched_per_answer"]
    assert report.eligible_per_answer == expected["eligible_per_answer"]
    assert report.coverage == pytest.approx(expected["coverage"], rel=1e-12)
    assert {f"{a}:{i}": v for (a, i), v in report.dedication.items()} == \
        pytest.approx(expected["dedication"], rel=1e-12)
    assert report.unmatched_rate == pytest.approx(expected["unmatched_rate"], rel=1e-12)


@pytest.mark.parametrize("intervals, depth", [
    ([], 0),
    ([(0, 1)], 1),
    ([(0, 1), (1, 2), (2, 3)], 3),          # touching ends still chain
    ([(0, 3), (1, 2), (2.5, 4)], 2),        # (1,2) -> (2.5,4)
    ([(0, 1), (0, 1), (0, 1)], 1),          # fully parallel
    ([(0, 5), (1, 2), (3, 4), (6, 7)], 3),  # long call overlapping a short chain
    ([(2, 3), (0, 1), (4, 5), (1, 2)], 4),  # order of arrival does not matter
    ([(1, 1), (1, 1), (1, 2)], 3),          # zero-length spans
])
def test_call_depth_on_hand_made_spans(intervals, depth):
    assert tracing.call_depth(intervals) == depth


def test_layer_metrics_self_time_and_counts_from_spans():
    # (id, name, start, end, parent, answer, error, counts)
    spans = [
        (1, "cli.main", 0.0, 10.0, None, None, None, None),
        (2, "pipeline.tag", 1.0, 5.0, 1, "a1", None, {"fallbacks": 1}),
        (3, "gateway.complete", 1.0, 2.0, 2, "a1", None, None),
        (4, "gateway.fixture_load", 1.2, 1.5, 3, "a1", None, None),
        (5, "prompts.parse", 2.0, 2.5, 2, "a1", None, {"useful": 1}),
        (6, "gateway.complete", 3.0, 4.0, 2, "a1", "FixtureMiss", None),
        (7, "pipeline.pair", 5.0, 6.0, 1, "a2", None, {"fallbacks": 2}),
        (8, "gateway.complete", 5.0, 5.5, 7, "a2", None, None),
    ]
    metrics = tracing.layer_metrics(spans)
    assert metrics["gateway.complete_s"] == pytest.approx(0.7 + 1.0 + 0.5)
    assert metrics["pipeline.tag_s"] == pytest.approx(4.0 - 1.0 - 0.5 - 1.0)
    assert metrics["gateway.fixture_misses"] == 1
    assert metrics["pipeline.none_fallbacks"] == 3
    assert metrics["pipeline.useful_call_ratio"] == pytest.approx(1 / 3)


def test_tracer_reports_absent_targets_and_restores():
    import discotrace.gateway as gateway

    original = gateway.request_digest
    tracer = tracing.Tracer()
    absent = tracer.install([
        ("discotrace.gateway", "request_digest", "gateway.digest", None, None),
        ("discotrace.gateway", "no_such_function", "gateway.gone", None, None),
        ("discotrace.no_such_module", "f", "gone", None, None),
    ])
    try:
        assert absent == ["discotrace.gateway.no_such_function", "discotrace.no_such_module.f"]
        assert gateway.request_digest is not original
    finally:
        tracer.uninstall()
    assert gateway.request_digest is original


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(list(range(15))) is None
    assert run.tail_percentile(list(range(20))) == (50, 9)
    p, value = run.tail_percentile(list(range(1, 201)))
    assert (p, value) == (95, 190)
    assert run.tail_percentile(list(range(5))) is None


def test_checks_count_failed_records_instead_of_aborting(tmp_path):
    expected = [{"answer_id": "a1", "steps": []}, {"answer_id": "a2", "steps": []}]
    path = tmp_path / "traces.jsonl"
    check = run._checked(2, lambda: run.check_records(path, expected, run._trace_view))
    assert check(0) == (2, 2)  # no output at all
    path.write_text(json.dumps(expected[0]) + "\n")
    assert check(0) == (2, 1)  # one record missing
    assert check(1) == (2, 2)  # a nonzero exit fails every record
    path.write_text("{not json\n")
    assert check(0) == (2, 2)  # unreadable output
