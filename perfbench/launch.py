"""Starts the benchmark's timed processes from a small process.

A child's peak resident set, as the kernel reports it at exit, includes the
memory of the process that started it, up to its exec.  run.py grows large
while it computes references, so it has this small process start every
timed process instead.  One JSON request per stdin line,
`{"argv": [...], "cwd": ..., "env": {...}, "log": ...}`, one JSON reply per
stdout line, `{"wall_s", "cpu_s", "rss_mb", "exit_code"}`.  Exits at EOF.
"""

import json
import os
import subprocess
import sys
import time

for line in sys.stdin:
    req = json.loads(line)
    with open(req["log"], "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"], stdout=fh, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    reply = {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "exit_code": proc.returncode,
    }
    sys.stdout.write(json.dumps(reply) + "\n")
    sys.stdout.flush()
