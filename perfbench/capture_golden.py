"""Record the stdout of every command the model workload can issue.

    python3 perfbench/capture_golden.py

Run it on the commit whose modeled output is the reference; the model
workload's gate then requires byte-equal output from later commits.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.pin_environment()
    run.locate_program()
    import gate
    import workloads

    lib = workloads.import_fresh()
    golden = {}
    for settings in workloads.model_tuples():
        for argv in workloads.model_commands(settings):
            key = " ".join(argv)
            if key in golden:
                continue
            rc, text = workloads.run_cli(lib, argv)
            if rc != 0:
                sys.exit(f"error: {key!r} exited {rc}: {text}")
            golden[key] = text
    gate.GOLDEN_PATH.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n",
                                encoding="ascii")
    print(f"{len(golden)} records written to {gate.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
