"""Spawn helper of the benchmark harness.

    python3 bench/launch.py

Reads one JSON request a line on stdin, with the keys ``cmd``, ``stdout``,
``stderr``, ``timeout``, ``env`` and ``cwd``. Runs the command to
completion (killing it after ``timeout`` seconds) and writes one JSON line
with its spawn-to-exit ``wall_s``, ``exit_code``, user plus system
``cpu_s`` and ``maxrss_kb``, all from ``os.wait4``. Exits at the end of
stdin.

On Linux a child's ``ru_maxrss`` starts at its parent's peak RSS. The
harness grows when it generates panels and checks outputs, so it starts
this helper before that and spawns every measured process from here.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["cmd"], env=req["env"], cwd=req["cwd"],
                                stdout=out, stderr=err)
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "exit_code": proc.returncode,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
    }


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
