"""Op launcher: runs each requested command and reports its wall time and rusage.

Usage: python perfbench/spawner.py TIMEOUT_S

Reads one JSON request per line on stdin, ``{"argv": [...], "stdout": path,
"stderr": path}``, runs the command to completion and answers with one JSON
line ``{"wall_s", "cpu_s", "rss_mb", "rc", "timed_out"}``.  It exits at the end
of its input.

Linux carries a process's peak RSS across fork and exec, so a child forked
from the benchmark harness would report at least the harness's own peak.  This
launcher stays small, so the peak RSS read through ``os.wait4`` is the op's.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run(argv: list[str], stdout: str, stderr: str, timeout: float) -> dict:
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,  # KiB on Linux
        "rc": proc.returncode,
        "timed_out": proc.returncode == -9,
    }


def main(timeout: str) -> int:
    for line in sys.stdin:
        request = json.loads(line)
        result = run(request["argv"], request["stdout"], request["stderr"], float(timeout))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
