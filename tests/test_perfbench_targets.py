"""Every name the benchmark's tracer wraps still exists in the package.

A renamed or removed function would leave its per-layer figure at 0 in every
benchmark run, with no error; this test fails instead.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    try:
        assert tracer.install() == []
    finally:
        tracer.uninstall()
