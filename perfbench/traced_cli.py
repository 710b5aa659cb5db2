"""Run one discotrace CLI command in this process with every layer traced.

Usage: python3 perfbench/traced_cli.py SPANS_OUT SRC_DIR -- ARGS...

Imports ``discotrace.cli`` from SRC_DIR (timing the import), wraps the
functions in ``tracing.TARGETS``, runs the command and writes the spans,
the import time and the absent targets to SPANS_OUT as JSON. Exits with
the command's exit code.
"""

import json
import sys
import time
import traceback

import tracing


def main(argv) -> int:
    spans_out, src, separator, *cli_args = argv
    if separator != "--":
        raise SystemExit(__doc__)
    sys.path.insert(0, src)
    start = time.perf_counter()
    from discotrace.cli import main as cli_main
    import_s = time.perf_counter() - start

    tracer = tracing.Tracer()
    absent = tracer.install()
    code = 0
    try:
        tracer.call("cli.main", cli_main.main, (), {
            "args": cli_args, "prog_name": "discotrace", "standalone_mode": False})
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        code = 1
    finally:
        tracer.uninstall()
    with open(spans_out, "w") as handle:
        json.dump({"import_s": import_s, "absent": absent, "exit_code": code,
                   "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
