"""Run one command and report its wall and CPU seconds, exit code and peak RSS.

    python3 -S bench/spawn.py <command> [args...]

The kernel's peak RSS for a process includes the memory of the process it
was exec'd from, so a command started directly by the benchmark would
report at least the benchmark's own peak. This script is small and starts
the command itself, so the figure is the command's own. The command's
standard output is discarded and its standard error is passed through. The
report is one JSON line on this script's standard output.
"""
import json
import os
import sys
import time

start = time.perf_counter()
pid = os.fork()
if pid == 0:
    try:
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        os.execvp(sys.argv[1], sys.argv[1:])
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
print(json.dumps({"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
                  "code": os.waitstatus_to_exitcode(status), "rss": usage.ru_maxrss / 1024.0}))
