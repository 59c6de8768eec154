"""Child processes whose wall time the benchmark measures.

subprocess's own timeout makes the wait poll with sleeps of up to 50 ms, so
times taken around it fall into 50 ms steps.  run_to_end() waits with a
blocking wait4 instead and kills the child from a timer thread.
"""

from __future__ import annotations

import os
import signal
import subprocess
import threading


def run_to_end(cmd: list[str], timeout: float, env: dict | None = None,
               stdout=subprocess.DEVNULL, stderr=None):
    """Run `cmd` to its end, killing it after `timeout` seconds (then raise
    subprocess.TimeoutExpired).  Returns its exit code and its resource
    usage: wait4 reaps it, so `ru_maxrss` is that of this child alone, not of
    every process the benchmark has waited for."""
    proc = subprocess.Popen(cmd, env=env, stdout=stdout, stderr=stderr)
    timer = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait again
    if proc.returncode == -signal.SIGKILL:
        raise subprocess.TimeoutExpired(cmd, timeout)
    return proc.returncode, usage
