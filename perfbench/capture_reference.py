"""Write reference.json: the result fields of every benchmark command.

Usage (from the repository root): python3 perfbench/capture_reference.py

The reference is the output the benchmark's correctness gate compares
against.  Capture it only at a commit whose outputs are known to be right;
every verdict, witness and value is meant to stay the same from then on.
"""

import json
import sys
import time

import run


def main() -> int:
    deadline = time.monotonic() + 3600
    reference = {}
    for commands in run.WORKLOADS.values():
        for command in commands:
            report = run.run_child(run.command_argv(command, 0), False, deadline)
            if "failure" in report or report["exit"] != 0:
                print(f"error: {command} failed: {report}", file=sys.stderr)
                return 1
            doc = json.loads(report["stdout"])
            fields = run.RESULT_FIELDS[command.split()[0]]
            reference[command] = {key: doc[key] for key in fields}
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reference)} commands to {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
