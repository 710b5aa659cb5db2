"""Every name the benchmark's tracer wraps still exists in the package, the
benchmark's traced entry point still runs a command, and the configs the
benchmark writes still load.

A renamed or removed function would leave its per-layer figure at 0 in every
benchmark run, and a config rule that rejects a benchmark config would fail
every run of its workload; these tests fail instead.
"""

import json
import subprocess
import sys
from pathlib import Path

from discotrace.config import PipelineConfig

from conftest import write_jsonl

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = PERFBENCH.parent / "src"


def test_every_traced_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    try:
        assert tracer.install() == []
    finally:
        tracer.uninstall()


def test_the_traced_entry_point_runs_a_command(tmp_path):
    # traced_cli.py calls the CLI as ``main.main(args=..., prog_name=..., standalone_mode=...)``.
    answers, spans = tmp_path / "answers.jsonl", tmp_path / "spans.json"
    write_jsonl(answers, [{"answer_id": "a1", "question_id": "q1", "rst_tree": {
        "relation": "Contrast", "nuclearity": "NN",
        "left": {"edu": "Cats nap."}, "right": {"edu": "Dogs run."}}}])
    result = subprocess.run(
        [sys.executable, str(PERFBENCH / "traced_cli.py"), str(spans), str(SRC), "--",
         "segment", "--in", str(answers), "--out", str(tmp_path / "segments.jsonl")],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    doc = json.loads(spans.read_text())
    assert doc["exit_code"] == 0
    assert doc["absent"] == []
    assert any(span[1] == "rst.parse" for span in doc["spans"])


def test_the_benchmark_configs_load(tmp_path, monkeypatch):
    # The roles of the mock config that workloads.prepare_trace writes.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    mocks = {name: workloads._mock(name) for name in workloads.MODELS}
    for mock in mocks.values():
        (tmp_path / mock["fixture_path"]).touch()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "act_labeler": mocks["act"], "interp_labeler": mocks["interp"],
        "interp_generators": [mocks["gen_a"], mocks["gen_b"]], "embedder": mocks["embed"]}))
    live = workloads.live_config(tmp_path, "http://127.0.0.1:9/v1", 4)
    assert PipelineConfig.from_file(config).embedder.name == "embed"
    assert PipelineConfig.from_file(live).interp_labeler.max_in_flight == 4
