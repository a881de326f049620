"""Run one command; print its exit code, times and peak RSS as JSON.

    python3 -S perfbench/launch.py COMMAND...

On Linux a child starts with its parent's resident-set high-water mark, so
`wait4` on a child of a large process reports at least that process's
peak. This launcher is a fresh, small interpreter: the command it forks
inherits only the launcher's own few MiB. The command's stdout is
discarded; a command that outlives TIMEOUT_S seconds is killed.
"""

import json
import os
import signal
import sys
import time

TIMEOUT_S = 60


def main() -> int:
    cmd = sys.argv[1:]
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)
            os.execvp(cmd[0], cmd)
        finally:
            os._exit(127)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, TIMEOUT_S)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    print(json.dumps({"exit_code": os.waitstatus_to_exitcode(status),
                      "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                      "maxrss_kib": usage.ru_maxrss}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
