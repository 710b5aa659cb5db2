"""Every name the benchmark's tracer wraps still exists in the package, and the
benchmark's traced entry point still runs a command.

A renamed or removed function would leave its per-layer figure at 0 in every
benchmark run, with no error; these tests fail instead.
"""

import json
import subprocess
import sys
from pathlib import Path

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
