"""Write the pinned digests of the library-path reference outputs.

Usage (from the repository root):

    python3 perfbench/pin_references.py [FIRST_SEED LAST_SEED]

For every trace workload and every seed from FIRST_SEED to LAST_SEED
(default 0 to 99) this sets up the workload, computes
``run.reference_digest`` of its reference spaces and traces, and writes
them all to ``pinned_references.json``. ``run.py`` fails every record of
a run whose reference no longer has its pinned digest. Rewrite the file
only for a change whose new reference outputs are intended, and say so.
"""

import json
import shutil
import sys

import run
import workloads


def main(argv) -> int:
    first, last = (int(a) for a in argv) if argv else (0, 99)
    sys.path.insert(0, str(run.SRC))
    pinned = {}
    work = run.ROOT / ".perfbench_work" / "pin"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for workload in ("trace-replay", "trace-long", "trace-live"):
            pinned[workload] = {}
            for seed in range(first, last + 1):
                inputs = workloads.prepare_trace(workload, seed, work / f"{workload}-{seed}")
                pinned[workload][str(seed)] = run.reference_digest(inputs)
                shutil.rmtree(inputs.directory)
            run.log(f"{workload}: seeds {first}-{last} pinned")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.PINNED_PATH.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
