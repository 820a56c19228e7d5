"""Run one command; write its wall time, exit status and peak RSS as JSON.

    python3 -S perfbench/spawn.py REPORT.json COMMAND [ARG ...]

:func:`harness.run_child` starts every measured process through this small
interpreter. On Linux a process's ``ru_maxrss`` keeps the peak resident set
of the process it was forked from (the kernel records the old memory map's
high-water mark at ``exec``), so a child forked straight from the benchmark
would report the benchmark's own memory. Forked from here, its floor is
this interpreter's few MiB. The times are ``time.monotonic`` readings
(``harness.clock``) taken around fork and reaped exit.
"""

import json
import os
import sys
import time


def main() -> int:
    report, argv = sys.argv[1], sys.argv[2:]
    started = time.monotonic()
    pid = os.fork()
    if pid == 0:
        try:
            os.execv(argv[0], argv)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    ended = time.monotonic()
    with open(report, "w", encoding="utf-8") as fh:
        json.dump({"started": started, "ended": ended,
                   "returncode": os.waitstatus_to_exitcode(status),
                   "maxrss_kib": usage.ru_maxrss}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
