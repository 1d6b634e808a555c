"""Child processes: wall time, exit code and peak resident set of one child."""

from __future__ import annotations

import os
import subprocess
import threading
from time import perf_counter


def child_env(root) -> dict:
    """The caller's environment with the checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, *, cwd, env, stdout_path, stderr_path, timeout: float):
    """Runs argv to completion; returns (exit code, wall seconds, peak RSS in MB).

    The child is reaped with wait4 so its own peak resident set is read, not
    the maximum over every child this process has waited for.  A child still
    running after `timeout` seconds is killed and reported with code -9.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # interrupted: stop the child and reap it before passing the exception on
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in kilobytes on Linux
    return proc.returncode, wall, usage.ru_maxrss / 1024.0
