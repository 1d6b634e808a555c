"""wishartscape benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload exact-mc|cli-runs|small-draws \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from src/.  With
--trace 0 the run prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  The lines
before it carry the environment record, every output check and, for the
in-process workloads, the reference clock with the metrics before its
scaling (refclock.py).  See
perfbench/README.md for the metrics and the workloads.

This process imports only the standard library: it generates the inputs,
times the set-up probes and runs the CLI children itself, and starts
perfbench/inproc.py for the in-process workloads.  Scratch files live in
.perfbench_work/ under the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import sys
from pathlib import Path

import cliruns
import gen
import layers
import refclock
from proc import child_env, run_child

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 4
# the worker's import, warm-up, last pass and checks, on top of the measuring time
WORKER_MARGIN_S = 120.0
_SETUP_CODE = "import sys, wishartscape\nfor p in sys.argv[1:]: wishartscape.load_model(p)"


def _end_to_end(result: dict, jobs: list[dict], setup: list[float],
                scale: float = 1.0) -> dict:
    """The end-to-end metrics from the untraced passes of one run.

    A record is [pass, job id, traced, seconds, failed]; a job's "draws" maps
    field to the samples it draws.  Every job timing uses each job's median
    time over the run's untraced passes (layers.median_job_times),
    multiplied by `scale` (refclock.scale for in-process workloads).
    """
    med = {job_id: t * scale for job_id, t in
           layers.median_job_times(result["records"], traced=False).items()}
    draws_of = {job["id"]: job["draws"] for job in jobs}
    times = list(med.values())
    out = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(times), "s"),
        "job_p50_s": (statistics.median(times), "s"),
        # inclusive: interpolated between job times, never beyond the slowest
        "job_p90_s": (statistics.quantiles(times, n=10, method="inclusive")[8], "s"),
    }
    for field in gen.FIELDS:
        drew = [job_id for job_id in med if draws_of[job_id].get(field)]
        busy = sum(med[job_id] for job_id in drew)
        draws = sum(draws_of[job_id][field] for job_id in drew)
        out[f"draws_per_s.{field}"] = (draws / busy if busy else 0.0, "1/s")
    attempted = len(result["records"])
    failed = sum(r[4] for r in result["records"])
    out["ok_ratio"] = (1.0 - failed / attempted, "ratio")
    out["peak_rss_mb"] = (result["peak_rss_mb"], "MB")
    return out


def _setup_times(inputs: dict, work: Path) -> list[float]:
    """Wall times of fresh interpreters importing the package and loading the models."""
    times = []
    argv = [sys.executable, "-c", _SETUP_CODE, *inputs["model_paths"].values()]
    for i in range(SETUP_PROBES):
        code, wall, _rss = run_child(argv, cwd=ROOT, env=child_env(ROOT),
                                     stdout_path=work / f"setup{i}.out",
                                     stderr_path=work / f"setup{i}.err", timeout=60.0)
        if code != 0:
            err = (work / f"setup{i}.err").read_text()[-2000:]
            raise SystemExit(f"set-up probe failed with exit code {code}:\n{err}")
        times.append(wall)
    return times


def _in_process(work: Path, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(Path(__file__).resolve().parent / "inproc.py"),
            str(work / "inputs.json"), str(work / "result.json"),
            "--seconds", str(seconds), "--trace", str(trace)]
    code, _wall, rss = run_child(argv, cwd=ROOT, env=child_env(ROOT),
                                 stdout_path=work / "worker.out",
                                 stderr_path=work / "worker.err",
                                 timeout=seconds + WORKER_MARGIN_S)
    if code != 0:
        err = (work / "worker.err").read_text()[-4000:]
        raise SystemExit(f"in-process worker failed with exit code {code}:\n{err}")
    result = json.loads((work / "result.json").read_text())
    result["peak_rss_mb"] = rss
    return result


def _environment(work: Path) -> dict:
    code, _wall, _rss = run_child(
        [sys.executable, str(Path(__file__).resolve().parent / "envinfo.py"), str(ROOT),
         str(work)], cwd=ROOT, env=child_env(ROOT), stdout_path=work / "env.json",
        stderr_path=work / "env.err", timeout=60.0)
    if code != 0:
        raise SystemExit(f"environment probe failed: {(work / 'env.err').read_text()[-2000:]}")
    return json.loads((work / "env.json").read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still stops its children and removes its scratch files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "wishartscape" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'wishartscape'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = gen.generate(args.workload, args.seed, work)
        env = _environment(work)
        setup = [] if args.trace else _setup_times(inputs, work)
        if args.workload == "cli-runs":
            result = cliruns.run(inputs, ROOT, work, args.seconds, bool(args.trace))
        else:
            result = _in_process(work, args.seconds, args.trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's scratch directory is still there

    attempted = len(result["records"])
    failed = sum(r[4] for r in result["records"])
    print(json.dumps({"environment": env}))
    for check in result["checks"]:
        print(json.dumps({"check": check}))
    if args.trace:
        metrics = {name: (result["layer"][name], unit) for name, unit in layers.metric_units()}
        summary = {"absent": result["absent"], "traced_wall_s": result["traced_wall"],
                   "self_s_total": layers.self_time_total(result["layer"])}
        print(json.dumps({"trace": summary}))
    elif "ref" in result:
        # in-process job times in reference seconds (refclock.py)
        metrics = _end_to_end(result, inputs["jobs"], setup, refclock.scale(result["ref"]))
        raw = _end_to_end(result, inputs["jobs"], setup)
        print(json.dumps({"reference": {
            "nominal_kernel_s": refclock.NOMINAL_S,
            "kernel_median_s": statistics.median(result["ref"]),
            "kernel_samples": len(result["ref"]),
            "unscaled": {name: value for name, (value, _unit) in raw.items()}}}))
    else:
        metrics = _end_to_end(result, inputs["jobs"], setup)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
