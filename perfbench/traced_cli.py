"""One traced ``armkit`` CLI invocation.

    python3 perfbench/traced_cli.py SPANS.json -- <armkit arguments>

Times ``import armkit``, installs the span recorder, runs the CLI exactly as
the ``armkit`` console script does, then writes the span aggregate to
SPANS.json, with the clock readings taken first and last in this process
(the parent turns them into interpreter start-up and exit time). The exit
code is the CLI's.
"""

from __future__ import annotations

import time

STARTED = time.monotonic()  # harness.clock, read before anything else

import json  # noqa: E402
import sys  # noqa: E402

from harness import clock  # noqa: E402
from spans import IMPORT_SPAN, Recorder  # noqa: E402


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, argv = sys.argv[1], sys.argv[3:]
    rec = Recorder()
    t0 = clock()
    import armkit.cli
    rec.add(IMPORT_SPAN, clock() - t0)
    rec.install()
    try:
        code = armkit.cli.run(argv)
    finally:
        rec.uninstall()
        snap = rec.snapshot()
        snap["started"] = STARTED
        with open(spans_path, "w", encoding="utf-8") as fh:
            snap["ended"] = clock()
            json.dump(snap, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
