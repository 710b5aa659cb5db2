"""discotrace benchmark: seeded workloads run through the CLI, outputs checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload trace-replay --seed 1 --seconds 25 --trace 0

With ``--trace 0`` every pass runs the workload's ``discotrace`` commands
as subprocesses (``python -m discotrace.cli`` with this checkout's ``src``
first on ``PYTHONPATH``), times them including process start-up, and
prints the end-to-end metrics of ``BENCHMARK.json``. With ``--trace 1``
every pass runs the commands twice, untraced and then through
``traced_cli.py``, and prints the per-layer metrics computed from the
spans. Passes repeat until ``--seconds`` have elapsed; figures are
medians over passes. Every output is checked against a reference made at
set-up, and the library-path references of the trace workloads must keep
their pinned digests (``pinned_references.json``). The line before the last holds the workload-specific figures and
the environment; the last line is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import fake_backend
import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("trace-replay", "trace-long", "trace-live", "analyze")
# Set-up is timed once before the passes and again after every pass, so
# that the samples span the run; after a pass, cheap set-ups repeat until
# SETUP_GAP_S is spent.
SETUP_GAP_S = 1.0
SETUP_MAX_REPEATS = 8
RUN_LIMIT_S = 165  # a run must end within 180 s; no command may outlive this
LIVE_DELAY_S = 0.005
LIVE_503_SHARE = 0.01
LIVE_BAD_SHARE = 0.02
REL_TOL = 1e-9
RATE_NAMES = {"trace": "trace_answers_per_s", "interp": "interp_questions_per_s"}
PINNED_PATH = HERE / "pinned_references.json"
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"] + _SPEC["per_layer"]}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


@dataclass
class Step:
    """One CLI command of a pass, with its input size and output check."""

    name: str
    args: list
    records: int
    check: Callable[[int], tuple]  # exit code -> (attempted, failed)


def _read_jsonl(path: Path) -> list:
    if not path.exists():
        return []
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _without_schema(doc: dict) -> dict:
    return {k: v for k, v in doc.items() if k != "schema_version"}


def check_records(path: Path, expected: list, view) -> int:
    """Records of the output that differ, in order, from the reference under ``view``."""
    out = _read_jsonl(path)
    return sum(1 for i, ref in enumerate(expected) if i >= len(out) or view(out[i]) != view(ref))


def _trace_view(doc: dict):
    return doc["answer_id"], doc.get("question_id"), doc["steps"]


def reference_digest(inputs) -> str:
    """SHA-256 of the reference spaces and traces under the views the checks
    compare; ``PINNED`` holds it as this benchmark's first commit computed it."""
    canonical = json.dumps([[_without_schema(doc) for doc in inputs.ref_spaces],
                            [_trace_view(doc) for doc in inputs.ref_traces]],
                           sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def check_matrix(path: Path, names: list, expected) -> int:
    """Matrix cells that differ from the reference."""
    doc = json.loads(path.read_text())
    if doc.get("row_labels") != names or doc.get("col_labels") != names:
        return len(names) ** 2
    return sum(1 for i in range(len(names)) for j in range(len(names))
               if not reference.close(doc["values"][i][j], float(expected[i][j]), REL_TOL))


def check_metrics(path: Path, expected: dict) -> int:
    """Failed records: one per answer (its counts, coverage and dedications)
    plus one for the corpus-level aggregates."""
    answers = expected["eligible_per_answer"]
    doc = json.loads(path.read_text())

    def by_answer(dedication):
        grouped = {}
        for key, value in dedication.items():
            aid, _, iid = key.rpartition(":")
            grouped.setdefault(aid, {})[iid] = value
        return grouped

    def same(a, b):
        if isinstance(a, dict) and isinstance(b, dict):
            return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
        return reference.close(a, b, REL_TOL)

    got_ded, want_ded = by_answer(doc.get("dedication", {})), by_answer(expected["dedication"])
    failed = 0
    for aid in answers:
        failed += not all(same(doc.get(key, {}).get(aid), expected[key].get(aid))
                          for key in ("matched_per_answer", "eligible_per_answer", "coverage"))\
            or not same(got_ded.get(aid, {}), want_ded.get(aid, {}))
    failed += not all(same(doc.get(key), expected[key])
                      for key in ("unmatched_rate", "coverage_mean", "dedication_mean"))
    failed += len(doc.get("matched_per_answer", {})) != len(answers)
    return min(failed, len(answers) + 1)


def _checked(attempted: int, check) -> Callable[[int], tuple]:
    """A nonzero exit, or output too malformed to compare, fails every record."""
    def run_check(code):
        if code != 0:
            return attempted, attempted
        try:
            return attempted, check()
        except (OSError, ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            log(f"unreadable output: {exc!r}")
            return attempted, attempted
    return run_check


def build_steps(workload: str, inputs, out: Path, config: Path) -> list:
    if workload == "analyze":
        names = [name for name, _ in inputs.corpus_paths]
        corpora = [arg for name, path in inputs.corpus_paths
                   for arg in ("--corpora", f"{name}={path}")]
        traces = inputs.shares["traces"]
        return [
            Step("compare", ["compare", *corpora, "--out", str(out / "matrix.csv"),
                             "--json-out", str(out / "matrix.json")], traces,
                 _checked(len(names) ** 2, lambda: check_matrix(out / "matrix.json", names,
                                                                inputs.ref_matrix))),
            Step("metrics", ["metrics", "--in", str(inputs.all_path), "--spaces",
                             str(inputs.spaces_path), "--out", str(out / "metrics.json")],
                 traces, _checked(traces + 1, lambda: check_metrics(out / "metrics.json",
                                                                    inputs.ref_metrics))),
        ]
    steps = []
    if workload == "trace-replay":
        steps.append(Step(
            "interp", ["interp", "--in", str(inputs.questions_path), "--out",
                       str(out / "spaces.jsonl"), "--config", str(config)],
            len(inputs.ref_spaces),
            _checked(len(inputs.ref_spaces),
                     lambda: check_records(out / "spaces.jsonl", inputs.ref_spaces,
                                           _without_schema))))
    steps.append(Step(
        "trace", ["trace", "--in", str(inputs.answers_path), "--questions",
                  str(inputs.questions_path), "--spaces", str(inputs.spaces_path),
                  "--out", str(out / "traces.jsonl"), "--config", str(config)],
        len(inputs.ref_traces),
        _checked(len(inputs.ref_traces),
                 lambda: check_records(out / "traces.jsonl", inputs.ref_traces, _trace_view))))
    return steps


def pin_status(workload: str, seed: int, inputs) -> str:
    """"match", "mismatch" or "unpinned": whether the library-path reference
    of this (workload, seed) still has its pinned digest. The reference comes
    from the code under test, so a change to segmentation, prompts, parsing
    or deduplication would move the reference and the output together; the
    pin catches that, and a mismatch fails every record of the run."""
    pinned = json.loads(PINNED_PATH.read_text())[workload].get(str(seed))
    if pinned is None:
        log(f"no pinned reference digest for {workload} seed {seed}")
        return "unpinned"
    if reference_digest(inputs) != pinned:
        log(f"reference outputs of {workload} seed {seed} differ from the pinned ones")
        return "mismatch"
    return "match"


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    return env


def run_cli(args: list, deadline: float, spans_path: Path = None) -> tuple:
    """Run one command, killed at ``deadline``; return (exit code, wall seconds)."""
    if spans_path is None:
        cmd = [sys.executable, "-m", "discotrace.cli", *args]
    else:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), str(SRC), "--",
               *args]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=cli_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired:
        log(f"timeout: {args[0]} killed at the run's time limit")
        return -1, time.perf_counter() - start
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        log(f"{args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.returncode, wall


def tail_percentile(values: list):
    """(percentile, value) of the highest standard percentile with at least
    ten samples beyond it, by nearest rank; None with too few samples."""
    ordered = sorted(values)
    for p in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(p / 100 * len(ordered))
        if rank >= 1 and len(ordered) - rank >= 10:
            return p, ordered[rank - 1]
    return None


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def median(values):
    return statistics.median(values) if values else 0.0


def metric(name: str, value) -> dict:
    """A result entry, with the metric's unit as ``BENCHMARK.json`` declares it."""
    return {"value": value, "unit": UNITS[name]}


class Harness:
    def __init__(self, workload: str, seed: int, seconds: int, work: Path):
        self.workload, self.seed, self.seconds, self.work = workload, seed, seconds, work
        self.attempted = self.failed = 0
        self.backend = None
        self.degraded = []
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self._setups = 0
        self.reference_pin = None

    def prepare(self) -> float:
        """Set up the inputs the passes use; return the set-up time."""
        times = self.time_setups(0.0, keep=True)
        self.config = None if self.workload == "analyze" else self.inputs.config_path
        if self.workload != "analyze":
            self.reference_pin = pin_status(self.workload, self.seed, self.inputs)
        if self.workload == "trace-live":
            self._start_backend()
        return times[0]

    def time_setups(self, min_seconds: float, keep: bool = False) -> list:
        """Set up afresh at least once and until ``min_seconds`` are spent;
        return the times. The inputs of the last one are kept only with ``keep``."""
        times = []
        while not times or (sum(times) < min_seconds and len(times) < SETUP_MAX_REPEATS):
            directory = self.work / f"setup{self._setups}"
            self._setups += 1
            start = time.perf_counter()
            if self.workload == "analyze":
                inputs = workloads.prepare_analyze(self.seed, directory)
            else:
                inputs = workloads.prepare_trace(self.workload, self.seed, directory)
            times.append(time.perf_counter() - start)
            if keep:
                self.inputs = inputs
            else:
                shutil.rmtree(directory, ignore_errors=True)
        return times

    def _start_backend(self) -> None:
        """Serve the recorded responses from the loopback fake for the whole run."""
        schedule = fake_backend.FaultSchedule(self.seed, self.inputs.wire, LIVE_503_SHARE,
                                              LIVE_BAD_SHARE)
        self.backend = fake_backend.FakeBackend(self.inputs.wire, schedule,
                                                LIVE_DELAY_S).__enter__()
        self.config = workloads.live_config(self.inputs.directory, self.backend.endpoint,
                                            nproc())
        requests = len(self.inputs.wire)
        self.inputs.shares["fault_503_share"] = round(schedule.count("503") / requests, 4)
        self.inputs.shares["fault_bad_share"] = round(schedule.count("bad") / requests, 4)

    def close(self) -> None:
        if self.backend is not None:
            self.backend.__exit__(None, None, None)

    def run_steps(self, tag: str, traced: bool) -> dict:
        """Run every step once; return wall seconds and span files per step."""
        out = self.work / tag
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        walls, spans = {}, {}
        for step in build_steps(self.workload, self.inputs, out, self.config):
            spans_path = out / f"{step.name}.spans.json" if traced else None
            code, walls[step.name] = run_cli(step.args, self.deadline, spans_path)
            attempted, failed = step.check(code)
            if self.reference_pin == "mismatch":
                failed = attempted
            self.attempted += attempted
            self.failed += failed
            if spans_path is not None:
                spans[step.name] = json.loads(spans_path.read_text()) \
                    if spans_path.exists() else None
            if step.name == "trace" and failed == 0:
                docs = _read_jsonl(out / "traces.jsonl")
                self.degraded.append(sum(1 for d in docs if d.get("diagnostics"))
                                     / max(len(docs), 1))
        return {"walls": walls, "spans": spans}

    def passes(self, body) -> list:
        """Repeat ``body`` for about ``self.seconds``: a pass starts only while
        at least half a mean pass fits before the deadline."""
        results = []
        start = time.perf_counter()
        stop = min(start + self.seconds, self.deadline)
        while not results or (time.perf_counter() - start) / len(results) / 2 \
                < stop - time.perf_counter():
            results.append(body(len(results)))
        return results

    def live_stats(self):
        return self.backend.reset() if self.backend is not None else None


def end_to_end(h: Harness) -> tuple:
    setup_times = [h.prepare()]
    steps = build_steps(h.workload, h.inputs, h.work, h.config)
    records = sum(s.records for s in steps)

    def one_pass(i):
        h.live_stats()
        result = h.run_steps(f"pass{i}", traced=False)
        result["live"] = h.live_stats()
        setup_times.extend(h.time_setups(SETUP_GAP_S))
        return result

    passes = h.passes(one_pass)
    rates = [records / sum(p["walls"].values()) for p in passes]
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": metric("setup_s", median(setup_times)),
        "records_per_s": metric("records_per_s", median(rates)),
        "peak_rss_mb": metric("peak_rss_mb", peak_kb / 1024),
    }
    detail = {"setup_runs_s": setup_times, "passes": len(passes), "pass_records_per_s": rates}
    for step in steps:
        walls = [p["walls"][step.name] for p in passes]
        detail[f"{step.name}_s"] = median(walls)
        if step.name in RATE_NAMES:
            detail[RATE_NAMES[step.name]] = median([step.records / w for w in walls])
    if h.degraded:
        detail["degraded_fraction"] = h.degraded[-1]
        detail["degraded_fraction_repeats"] = len(set(h.degraded)) == 1
    if h.backend is not None:
        detail.update(live_detail([p["live"] for p in passes], len(h.inputs.ref_traces)))
    return metrics, detail


def live_detail(stats: list, answers: int) -> dict:
    depths, latencies = [], []
    for s in stats:
        d, lat = s.per_answer()
        depths.append(statistics.mean(d))
        latencies.extend(lat)
    posts = [s.posts / answers for s in stats]
    detail = {
        "backend_posts_per_answer": posts[0],
        "call_depth_per_answer": depths[0],
        "counts_repeat_across_passes": len(set(posts)) == 1 and len(set(depths)) == 1,
        "connections_per_answer": stats[0].connections / answers,
        "status_5xx": stats[0].status_5xx,
        "unknown_requests": stats[0].unknown_requests,
        "max_in_flight": max(s.max_in_flight for s in stats),
        "answer_latency_ms_p50": statistics.median(latencies) * 1000,
    }
    tail = tail_percentile(latencies)
    if tail is not None:
        detail["answer_latency_ms_tail"] = {"value": tail[1] * 1000, "percentile": tail[0],
                                            "samples": len(latencies)}
    return detail


def per_layer(h: Harness) -> tuple:
    h.prepare()

    def one_pass(i):
        untraced = h.run_steps(f"plain{i}", traced=False)
        h.live_stats()
        traced = h.run_steps(f"traced{i}", traced=True)
        live = h.live_stats()
        return untraced, traced, live

    passes = h.passes(one_pass)
    per_pass, imports, absent = [], [], set()
    for untraced, traced, live in passes:
        spans = []
        for doc in traced["spans"].values():
            if doc is None:
                continue
            # Span ids restart in every process; shift them to stay unique.
            base = max((s[0] for s in spans), default=0)
            spans.extend([s[0] + base, *s[1:4], None if s[4] is None else s[4] + base, *s[5:]]
                         for s in doc["spans"])
            imports.append(doc["import_s"])
            absent.update(doc["absent"])
        layer = tracing.layer_metrics(spans)
        layer["gateway.posts"] = live.posts if live else 0
        layer["gateway.retried_posts"] = live.retried_posts if live else 0
        layer["gateway.connections_opened"] = live.connections if live else 0
        layer["trace.overhead_s"] = (sum(traced["walls"].values())
                                     - sum(untraced["walls"].values()))
        per_pass.append(layer)
    metrics = {}
    for name in per_pass[0]:
        metrics[name] = metric(name, median([p[name] for p in per_pass]))
    metrics["cli.import_s"] = metric("cli.import_s", median(imports))
    return metrics, {"passes": len(passes), "absent": sorted(absent)}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "discotrace" / "cli.py").is_file():
        log(f"error: {SRC / 'discotrace'} not found; run from a discotrace checkout")
        return 2
    sys.path.insert(0, str(SRC))
    import discotrace  # noqa: F401  (imported once, outside the timed set-up)

    work = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    harness = Harness(args.workload, args.seed, args.seconds, work)
    try:
        metrics, detail = (per_layer if args.trace else end_to_end)(harness)
    finally:
        harness.close()
        shutil.rmtree(work, ignore_errors=True)

    detail.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "git_sha": git_sha(), "python": sys.version.split()[0], "nproc": nproc(),
        "inputs": harness.inputs.shares,
        "reference_pin": harness.reference_pin,
        "failed_fraction": harness.failed / max(harness.attempted, 1),
    })
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": harness.failed == 0,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
