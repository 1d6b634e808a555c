"""cli-runs workload: every job is a fresh `python -m wishartscape.cli` process.

Runs in the benchmark's own standard-library process, so each child's peak
resident set is its own.  Passes of the fixed job list run until the
measuring time is used (passes.run_passes).  With trace on, passes alternate
plain and traced; a traced job runs the CLI through cli_traced.py.  Outputs
are checked after each pass, untimed.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path
from time import perf_counter

import layers
import refs
from passes import run_passes
from proc import child_env, run_child

JOB_TIMEOUT_S = 120.0
RERUN_CLASS = "sample.rank1-rh"


def _argv(job: dict, inputs: dict, out: Path, seed: int) -> list[str]:
    paths = [inputs["model_paths"][name] for name in job["models"]]
    args = [job["command"], "--model", *paths]
    if job["command"] in ("sample", "simulate", "minima"):
        args += ["--out", str(out)]
    if "samples" in job:
        args += ["--seed", str(seed), "--samples", str(job["samples"])]
    return args


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _check(job: dict, inputs: dict, out: Path, stdout: str) -> list[str]:
    """Problems found in one finished job's outputs; empty when all checks pass."""
    cmd = job["command"]
    docs = [inputs["models"][name] for name in job["models"]]
    doc = docs[0]
    problems = []
    if cmd == "analyze":
        lines = [l for l in stdout.splitlines() if l.startswith("loss variance: ")]
        if len(lines) != 1:
            return ["no loss variance line"]
        got = float(lines[0].split(": ")[1])
        want = refs.loss_variance(doc)
        if not refs.close(got, want, 1e-5):
            problems.append(f"loss variance {got} vs {want}")
        sectors = sum(1 for l in stdout.splitlines() if l.startswith("sector "))
        if sectors != len(doc["components"]):
            problems.append(f"{sectors} sector lines for {len(doc['components'])} sectors")
    elif cmd == "trainability":
        lines = stdout.splitlines()
        sized = sum(1 for l in lines if ": size " in l)
        if sized != len(docs) or not any(l.startswith("trainable: ") for l in lines):
            problems.append("trainability report incomplete")
    elif cmd == "minima":
        header, rows = _read_csv(out / "minima.csv")
        zs = [float(r[0]) for r in rows]
        ds = [float(r[1]) for r in rows]
        mass = sum((zs[i + 1] - zs[i]) * (ds[i + 1] + ds[i]) / 2.0 for i in range(len(zs) - 1))
        if header != ["z", "density"] or abs(mass - 1.0) > 1e-3:
            problems.append(f"minima.csv header {header}, trapezoid mass {mass}")
    elif cmd == "sample":
        n, n_comp = job["samples"], len(doc["components"])
        header, rows = _read_csv(out / "losses.csv")
        want = ["sample_id"] + [f"loss_{a}" for a in range(n_comp)] + ["total"]
        if header != want or len(rows) != n:
            return [f"losses.csv header {header} with {len(rows)} rows"]
        mean, var = refs.surrogate_loss_moments(doc)
        m = refs.moments(refs.power_sums([float(r[-1]) for r in rows], mean), mean)
        z = refs.z_mean(m, mean, var)
        if abs(z) > refs.Z_LIMIT:
            problems.append(f"losses.csv total mean z={z:.2f}")
        rank1 = all(isinstance(c["input_spectrum"], dict) for c in doc["components"])
        if rank1:
            p = doc["total_params"]
            header, rows = _read_csv(out / "gradients.csv")
            if header != ["sample_id"] + [f"grad_{j}" for j in range(p)] or len(rows) != n:
                problems.append(f"gradients.csv header {header} with {len(rows)} rows")
            with open(out / "hessians.csv") as fh:
                header = fh.readline().rstrip("\n").split(",")
                count = sum(1 for _ in fh)
            if header != ["sample_id", "row", "col", "value"] or count != n * p * p:
                problems.append(f"hessians.csv header {header} with {count} rows")
        elif (out / "gradients.csv").exists():
            problems.append("gradients.csv written for a mixed-input model")
    elif cmd == "simulate":
        n = job["samples"]
        for a, comp in enumerate(doc["components"]):
            header, rows = _read_csv(out / f"simulate_component_{a}.csv")
            want = ["sample_id", "loss"] + [f"grad_{j}" for j in range(comp["sector_params"])]
            if header != want or len(rows) != n:
                problems.append(f"component {a} csv header {header} with {len(rows)} rows")
                continue
            mean = refs.haar_loss_mean(comp)
            m = refs.moments(refs.power_sums([float(r[1]) for r in rows], mean), mean)
            z = refs.z_mean(m, mean, refs.haar_loss_variance(comp))
            if abs(z) > refs.Z_LIMIT:
                problems.append(f"component {a} loss mean z={z:.2f}")
        _header, rows = _read_csv(out / "gof.csv")
        if len(rows) != len(doc["components"]):
            problems.append(f"gof.csv has {len(rows)} rows")
    return problems


def _written(out: Path) -> tuple[int, int]:
    """Bytes and data rows (header excluded) of the CSV files a job wrote."""
    size = rows = 0
    for path in sorted(out.glob("*.csv")):
        size += path.stat().st_size
        with open(path, "rb") as fh:
            rows += max(sum(1 for _ in fh) - 1, 0)
    return size, rows


def run(inputs: dict, root: Path, work: Path, seconds: float, trace: bool) -> dict:
    env = child_env(root)
    traced_cli = str(Path(__file__).resolve().parent / "cli_traced.py")
    jobs = inputs["jobs"]
    records, traces, written, checks = [], [], [], []
    missing = set()
    peak = 0.0
    rerun_source = None

    def one_pass(index: int, traced: bool, stop_at: float | None) -> float:
        nonlocal peak, rerun_source
        spans, size, rows = [], 0, 0
        finished = []
        pass_start = perf_counter()
        for job in jobs:
            if stop_at is not None and perf_counter() >= stop_at:
                break
            out = work / f"p{index}-j{job['id']}"
            out.mkdir(parents=True)
            seed = job["seed"] + index
            cli_args = _argv(job, inputs, out, seed)
            if traced:
                argv = [sys.executable, traced_cli, str(out / "spans.json"), "--", *cli_args]
            else:
                argv = [sys.executable, "-m", "wishartscape.cli", *cli_args]
            code, wall, rss = run_child(argv, cwd=root, env=env, stdout_path=out / "stdout",
                                        stderr_path=out / "stderr", timeout=JOB_TIMEOUT_S)
            finished.append((job, out, seed, code, wall))
            peak = max(peak, rss)
        pass_wall = perf_counter() - pass_start
        for job, out, seed, code, wall in finished:
            problems = [] if code == 0 else [f"exit code {code}"]
            if code == 0:
                try:
                    problems = _check(job, inputs, out, (out / "stdout").read_text())
                except (OSError, ValueError, IndexError) as exc:
                    problems = [f"output unreadable: {type(exc).__name__}: {exc}"]
            if traced:
                if (out / "spans.json").exists():
                    doc = json.loads((out / "spans.json").read_text())
                    spans.append(doc["spans"])
                    missing.update(doc["missing"])
                job_bytes, job_rows = _written(out)
                size += job_bytes
                rows += job_rows
            records.append([index, job["id"], traced, wall, bool(problems)])
            if problems:
                checks.append({"name": f"job {job['cls']} pass {index}", "ok": False,
                               "detail": "; ".join(problems)})
            if job["cls"] == RERUN_CLASS and rerun_source is None and not traced:
                rerun_source = (out, job, seed, records[-1])
            else:
                shutil.rmtree(out)
        if traced:
            traces.append(spans)
            written.append((size, rows))
        return pass_wall

    passes = run_passes(seconds, trace, one_pass)

    # byte-identical rerun of one sample job, untimed
    if rerun_source is not None:
        first, job, seed, rec = rerun_source
        again = work / "rerun"
        again.mkdir()
        code, _wall, rss = run_child(
            [sys.executable, "-m", "wishartscape.cli", *_argv(job, inputs, again, seed)],
            cwd=root, env=env, stdout_path=work / "rerun.stdout",
            stderr_path=work / "rerun.stderr", timeout=JOB_TIMEOUT_S)
        peak = max(peak, rss)
        names = sorted(p.name for p in first.glob("*.csv"))
        same = code == 0 and names == sorted(p.name for p in again.glob("*.csv")) and all(
            (first / n).read_bytes() == (again / n).read_bytes() for n in names)
        checks.append({"name": f"byte-identical rerun {job['cls']}", "ok": same,
                       "detail": f"files {names}"})
        if not same:
            rec[4] = True

    result = {"records": records, "passes": passes, "checks": checks,
              "peak_rss_mb": peak, "layer": None}
    if trace:
        pick, wall, overhead = layers.pick_traced(passes, records)
        size, rows = written[pick]
        result["layer"] = layers.layer_metrics(traces[pick], bytes_written=size,
                                               rows_written=rows, overhead_ratio=overhead)
        result["absent"] = layers.absent_metrics(
            [s for s in layers.SPECS if s.function in missing])
        result["traced_wall"] = wall
    return result
