"""Start one command and report its exit code, wall time and peak RSS.

    python3 -S perfbench/spawn.py REPORT PROGRAM ARGS...

On Linux a new process's peak RSS starts from the peak RSS of the process
that spawned it. run.py holds the generated tables in memory, so it starts
every job through this small process, and the peak RSS reported is the
job's own. PROGRAM must be a path. REPORT receives the JSON object
{"code", "seconds", "rss_mb"}.
"""

import json
import os
import sys
import time


def main() -> int:
    report, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - start
    with open(report, "w", encoding="utf-8") as fh:
        json.dump({"code": os.waitstatus_to_exitcode(status), "seconds": seconds,
                   "rss_mb": usage.ru_maxrss / 1024.0}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
