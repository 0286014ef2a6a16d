"""Run one matk CLI call under the tracer and save the trace.

Usage: python perfbench/cli_child.py SNAPSHOT_PATH ARG...

The ARGs go to ``matk.cli.main`` unchanged, so stdout is what ``python -m
matk.cli ARG...`` prints.  The snapshot holds the tracer's stats, counters
and spans, plus the time ``import matk.cli`` took.
"""

import json
import sys
import time

_start = time.perf_counter()
import matk.cli  # noqa: E402  (timed: the import is a measured layer)

IMPORT_S = time.perf_counter() - _start

from tracer import Tracer  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install(extra=[("cli", "main")])
    code = 1
    tracer.start_job(0)
    try:
        code = matk.cli.main(argv)
    finally:
        tracer.end_job()
        tracer.uninstall()
        sys.stdout.flush()
        snap = tracer.snapshot()
        snap["counters"]["cli.import_s"] = IMPORT_S
        with open(out_path, "w") as fh:
            json.dump(snap, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
