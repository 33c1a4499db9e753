"""Child-process launcher for run.py.

    python3 bench/launcher.py CPU

Runs one command at a time, pinned with its children to one CPU, and reads
requests and writes replies as JSON lines on stdin/stdout:

    {"argv": [...], "out": PATH, "err": PATH, "timeout": SECONDS}
    {"rc": INT, "wall": SECONDS, "ref_units": FLOAT, "maxrss_kib": INT, "refs": [SECONDS, ...]}

Two measurement problems make this a process of its own:

- A child started with vfork (posix_spawn, subprocess) reports in ru_maxrss
  the peak RSS of the process that started it if that is larger. This process
  stays small, so a child's max RSS is its own.
- The speed of a CPU on a shared host drifts by tens of percent within
  seconds. Every REF_SLICE_S the command is stopped, a fixed chunk of
  interpreter work (reference) is timed on the same CPU, and the command is
  continued. Its wall time excludes the pauses, and is also given in units
  of the reference time around each slice, which run.py turns into seconds
  at a fixed reference speed. On a 2-core box whose raw pass times spread by
  a quarter across runs, the scaled ones spread by 1-3%.
"""

from __future__ import annotations

import json
import math
import os
import select
import signal
import sys
import time

REF_SLICE_S = 0.25


def reference() -> float:
    """Time a fixed chunk of the work qcube does: tuples and dict counting,
    then binomials, decimal strings and JSON."""
    start = time.perf_counter()
    counts: dict[tuple[int, int], int] = {}
    for i in range(8000):
        key = (i & 255, i % 7)
        counts[key] = counts.get(key, 0) + (i ^ 3)
    for n in range(40, 70):
        for k in range(0, n, 3):
            json.dumps({"n": n, "k": k, "v": str(math.comb(n, k))}, sort_keys=True)
    return time.perf_counter() - start


def run(argv: list[str], out: str, err: str, timeout: float) -> dict:
    """Run one command; return its exit code, wall time, max RSS, the
    reference times taken around each slice, and its wall time in units of
    the reference: each slice divided by the mean of the references taken
    just before and just after it."""
    refs = [reference()]
    wall = ref_units = 0.0
    with open(out, "wb") as fo, open(err, "wb") as fe:
        start = time.perf_counter()
        deadline = start + timeout
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
            (os.POSIX_SPAWN_CLOSE, 0), (os.POSIX_SPAWN_DUP2, fo.fileno(), 1), (os.POSIX_SPAWN_DUP2, fe.fileno(), 2)])
        pidfd = os.pidfd_open(pid)
        try:
            while True:
                left = deadline - time.perf_counter()
                done = select.select([pidfd], [], [], min(REF_SLICE_S, max(left, 0.0)))[0]
                if not done and left <= 0:
                    os.kill(pid, signal.SIGKILL)
                if done or left <= 0:
                    _, status, usage = os.wait4(pid, 0)
                else:
                    os.kill(pid, signal.SIGSTOP)
                    _, status, usage = os.wait4(pid, os.WUNTRACED)
                end = time.perf_counter()
                refs.append(reference())
                wall += end - start
                ref_units += (end - start) * 2 / (refs[-2] + refs[-1])
                if not os.WIFSTOPPED(status):
                    break
                os.kill(pid, signal.SIGCONT)
                start = time.perf_counter()
        finally:
            os.close(pidfd)
    return {"rc": os.waitstatus_to_exitcode(status), "wall": wall, "ref_units": ref_units,
            "maxrss_kib": usage.ru_maxrss, "refs": refs}


def main() -> None:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    for line in sys.stdin:
        print(json.dumps(run(**json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
