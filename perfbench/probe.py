"""Set-up probe: start the program as a user would and report readiness.

``python3 perfbench/probe.py batch|serve_open DB CONFIG`` imports the
program, builds the object the workload drives — the executor (``CONFIG``
is its keyword arguments, as JSON) with its database opened, or a started
``SearchService`` — and prints ``ready``. The parent times spawn to
``ready``; that is one ``setup_s`` sample.
"""

from __future__ import annotations

import json
import sys


def main(workload: str, db: str, config: str) -> int:
    if workload == "batch":
        from repro.engine import BatchExecutor, make_engine
        from repro.io.store import get_default_store

        executor = BatchExecutor(make_engine("reference"), **json.loads(config))
        get_default_store().open(db)
        print("ready", flush=True)
        executor.close()
    elif workload == "serve_open":
        from repro.serve import SearchService

        service = SearchService(db, engine="reference").start()
        print("ready", flush=True)
        service.close()
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))
