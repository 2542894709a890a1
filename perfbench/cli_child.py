"""Traced stand-in for ``python -m structured_iep.cli``, used by traced runs
of perfbench/run.py:

    python3 perfbench/cli_child.py LAYER_FILE [structured-iep arguments...]

Times the import of structured_iep.cli and its main() inside this process,
records the package's layers with layers.Tracer, writes all of it to
LAYER_FILE as JSON and exits with main()'s exit code.  structured_iep must be
importable (run.py puts the checkout's src/ on PYTHONPATH).
"""

import json
import sys
import time

t0 = time.perf_counter()
import structured_iep.cli as cli  # noqa: E402

t1 = time.perf_counter()
from layers import Tracer  # noqa: E402


def main() -> int:
    layer_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.active():
        t2 = time.perf_counter()
        code = cli.main(argv)
        t3 = time.perf_counter()
    record = tracer.record()
    record.update({"cli.import_s": t1 - t0, "cli.main.s": t3 - t2})
    with open(layer_file, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
