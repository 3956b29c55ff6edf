"""One benchmark process: import `cphi.cli`, signal readiness, run the op(s).

Usage: python3 child.py '<json spec>', started by run.py with PYTHONPATH set
to the checkout's src/.  The spec holds:

  mode      "probe" (import only), "cli" (one `cphi` command line, exactly as
            the `cphi` console script runs it) or "session" (library queries)
  ready_fd  pipe the process writes one byte to once `cphi.cli` is imported
  src       the src/ directory `cphi` must be imported from
  argv      cli mode: the command line after `cphi`
  ops       session mode: [[op id, query kind, args], ...]
  trace     null, or {"path": JSON-lines file, "proc": process id}

Session mode prints one JSON line per query: {"op", "digest", "s"}.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter


def main() -> int:
    spec = json.loads(sys.argv[1])
    t0 = perf_counter()
    import cphi.cli

    import_s = perf_counter() - t0
    src = os.path.realpath(spec["src"]) + os.sep
    if not os.path.realpath(cphi.__file__).startswith(src):
        print(f"error: cphi imported from {cphi.__file__}, not {src}", file=sys.stderr)
        return 3
    os.write(spec["ready_fd"], b"r")
    os.close(spec["ready_fd"])
    if spec["mode"] == "probe":
        return 0

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer(spec["trace"]["proc"])
        tracer.install()

    if spec["mode"] == "cli":
        rc = cphi.cli.main(spec["argv"])
    else:
        from content import digest
        from session import QUERIES

        rc = 0
        for op_id, kind, args in spec["ops"]:
            if tracer:
                tracer.op = op_id
            start = perf_counter()
            content = QUERIES[kind](*args)
            elapsed = perf_counter() - start
            print(json.dumps({"op": op_id, "digest": digest(content), "s": elapsed}))
    sys.stdout.flush()
    if tracer:
        tracer.write(spec["trace"]["path"], import_s)
    return rc


if __name__ == "__main__":
    sys.exit(main())
