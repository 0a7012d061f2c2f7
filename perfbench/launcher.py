"""Spawns and reaps the benchmark's timed processes, one at a time.

Linux carries the spawning process's RSS high-water mark into the max RSS
that ``wait4`` reports for a child, so children spawned straight from the
benchmark (which holds the package and checks outputs) would report the
benchmark's memory.  This process stays small and spawns them instead.

Protocol: one JSON request per line on stdin, ``{"argv", "cwd", "stderr",
"timeout"}``; one JSON reply per line on stdout, ``{"wall", "cpu",
"maxrss_kb", "exit_code"}``.  The child is killed when ``timeout`` seconds
pass.  End of input ends the launcher.
"""

import json
import os
import signal
import subprocess
import sys
import time


def run(request: dict) -> dict:
    with open(request["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"],
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        signal.signal(signal.SIGALRM, lambda signum, frame: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, max(request["timeout"], 0.001))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss, "exit_code": proc.returncode}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
