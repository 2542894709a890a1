"""One set-up of a workload in a fresh process, timed by perfbench/run.py for
``setup_s``:

    python3 perfbench/setup_probe.py WORKLOAD SEED

Imports the package, builds the workload's inputs and runs the warm-up solve,
exactly as run.py does before its first timed operation, then prints the raw
seconds of each phase as JSON.
"""

import json
import sys

import workloads


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    print(json.dumps(workloads.prepare(name, seed).setup))
    return 0


if __name__ == "__main__":
    sys.exit(main())
