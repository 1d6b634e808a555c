"""The closed loop both workload runners share.  Standard library only."""

from __future__ import annotations

import os
from time import perf_counter


def run_passes(seconds: float, trace: bool, run_pass) -> list[dict]:
    """Runs passes of the fixed job list until `seconds` are used; returns one
    record {"index", "traced", "wall"} per pass.

    ``run_pass(index, traced, stop_at)`` runs the job list once and returns
    the wall time of the jobs alone, so the checks it makes afterwards are
    not counted.  With a ``stop_at`` time it starts no job after that time.
    The run's first plain pass and every traced pass run whole, so every job
    has a plain time and the traced counts repeat; a later plain pass stops at
    the deadline.  With trace on, passes alternate plain and traced, and the
    loop goes on until it has one of each.

    Each pass runs pinned to one of the CPUs this process may use, taking
    them in turn (child processes inherit the pin).  The host loads the CPUs
    of a shared box independently and changes their speed every few seconds,
    so every job is timed on every CPU, and the reference kernel
    (refclock.py) runs on the CPU of the jobs around it.
    """
    cpus = sorted(os.sched_getaffinity(0))
    passes = []
    deadline = perf_counter() + seconds
    try:
        while (perf_counter() < deadline or not passes
               or (trace and len({p["traced"] for p in passes}) < 2)):
            index = len(passes)
            traced = bool(trace) and index % 2 == 1
            whole = traced or index == 0
            # plain passes take the CPUs in turn, and so do traced ones
            cpu = cpus[(index // (2 if trace else 1)) % len(cpus)]
            os.sched_setaffinity(0, {cpu})
            wall = run_pass(index, traced, None if whole else deadline)
            passes.append({"index": index, "traced": traced, "wall": wall})
    finally:
        os.sched_setaffinity(0, cpus)
    return passes
