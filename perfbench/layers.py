"""The package layers the traced run measures, and the per-layer metrics.

Layers are the package modules.  SPECS lists the public functions wrapped in
each; ``layer_metrics`` turns recorded spans into the per-layer metrics named
in BENCHMARK.json.  ``self_s`` metrics are self times (span minus its child
spans); the rates ``us_per_*`` and ``gflop_per_s`` use a span's inclusive
time, so work moved between a function and its callees leaves them as they
are.  Standard library only.
"""

from __future__ import annotations

import statistics

from tracer import Spec, ancestors, self_times

FIELDS = ("R", "C", "H")
_SYMBOL = {1: "R", 2: "C", 4: "H"}


def _haar_group_attrs(beta, dim, rng=None, size=None, **_):
    n = 1 if size is None else int(size)
    return {"field": _SYMBOL[beta], "dim": int(dim), "matrices": n, "columns": n * int(dim)}


def _haar_columns_attrs(beta, dim, n_cols, rng=None, size=None, **_):
    n = 1 if size is None else int(size)
    return {"columns": n * int(n_cols)}


def _mc_landscape_attrs(comp, n_samples, rng=None, **_):
    rank = sum(1 for w in comp.input_spectrum if w != 0)
    return {"field": _SYMBOL[comp.beta], "draws": int(n_samples), "rank": rank}


_CLOSED_FORMS = ("loss_variance", "welch_satterthwaite", "gp_conditions",
                 "overparameterization_ratios", "low_purity_bound")

SPECS = (
    Spec("algebra", "spectral_stats", "algebra.spectral_stats"),
    Spec("model_io", "load_model", "model_io.load_model"),
    Spec("quaternion", "qmul", "quaternion.qmul"),
    Spec("quaternion", "qmatmul", "quaternion.qmatmul"),
    Spec("randmat", "haar_group", "randmat.haar_group", _haar_group_attrs),
    Spec("randmat", "haar_columns", "randmat.haar_columns", _haar_columns_attrs),
    Spec("randmat", "wishart_direct", "randmat.wishart_direct"),
    Spec("randmat", "wishart_bartlett", "randmat.wishart_bartlett"),
    Spec("randmat", "mp_log_moment", "randmat.mp_log_moment"),
    Spec("simulator", "mc_landscape", "simulator.mc_landscape", _mc_landscape_attrs),
    Spec("simulator", "build_ansatz", "simulator.build_ansatz"),
    Spec("simulator", "loss_eval", "simulator.loss_eval"),
    Spec("simulator", "grad_eval", "simulator.grad_eval"),
    Spec("simulator", "hessian_eval", "simulator.hessian_eval"),
    Spec("wishart_process", "sample_loss_batch", "wishart_process.sample_loss_batch"),
    Spec("wishart_process", "sample_gradient_given_loss",
         "wishart_process.sample_gradient_given_loss"),
    Spec("wishart_process", "sample_hessian_at_critical",
         "wishart_process.sample_hessian_at_critical"),
    Spec("wishart_process", "regularized_hessian_sample",
         "wishart_process.regularized_hessian_sample"),
    Spec("wishart_process", "loss_cdf_rank1", "wishart_process.loss_cdf_rank1"),
    Spec("landscape", "build_minima_density", "landscape.build_minima_density"),
    Spec("landscape", "kac_rice_log_density", "landscape.kac_rice_log_density"),
    Spec("landscape", "trainability_verdict", "landscape.trainability_verdict"),
) + tuple(Spec("landscape", fn, "landscape.closed_forms") for fn in _CLOSED_FORMS)

# Spans cli_traced.py records itself rather than through a wrapper.
CLI_IMPORT = "cli.import"
CLI_MAIN = "cli.main"

_SIMULATOR_INSTANCE = ("simulator.build_ansatz", "simulator.loss_eval",
                       "simulator.grad_eval", "simulator.hessian_eval")
_WISHART_PROCESS = ("wishart_process.sample_loss_batch",
                    "wishart_process.sample_gradient_given_loss",
                    "wishart_process.sample_hessian_at_critical",
                    "wishart_process.regularized_hessian_sample",
                    "wishart_process.loss_cdf_rank1")
_LANDSCAPE = ("landscape.build_minima_density", "landscape.kac_rice_log_density",
              "landscape.trainability_verdict", "landscape.closed_forms")
# Names whose metrics are plain call counts and self times.
_PLAIN = ("algebra.spectral_stats", "model_io.load_model", "quaternion.qmul",
          "quaternion.qmatmul", "randmat.mp_log_moment") + _SIMULATOR_INSTANCE \
    + _WISHART_PROCESS + _LANDSCAPE
_PER_CALL = ("randmat.wishart_direct", "randmat.wishart_bartlett")


def qr_flops(field: str, dim: int) -> float:
    """Computed reference count for one Haar draw: Householder QR of an N x N
    real matrix (4/3 N^3), an N x N complex one (4x the real flops), or the
    2N x 2N complex embedding of an N x N quaternion one."""
    n = float(dim)
    return {"R": 4.0 / 3.0 * n**3, "C": 16.0 / 3.0 * n**3, "H": 16.0 / 3.0 * (2 * n) ** 3}[field]


def _plain(name: str) -> list[tuple[str, str]]:
    return [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]


def metric_units() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for name in _PLAIN[:4]:
        out += _plain(name)
    for f in FIELDS:
        out += [(f"randmat.haar_group.{f}.matrices", "count"),
                (f"randmat.haar_group.{f}.self_s", "s"),
                (f"randmat.haar_group.{f}.us_per_matrix", "us"),
                (f"randmat.haar_group.{f}.gflop_per_s", "GFLOP/s")]
    out += [("randmat.haar_columns.calls", "count"), ("randmat.haar_columns.columns", "count"),
            ("randmat.haar_columns.self_s", "s")]
    for name in _PER_CALL:
        out += _plain(name) + [(f"{name}.us_per_call", "us")]
    out += _plain("randmat.mp_log_moment")
    for f in FIELDS:
        out += [(f"simulator.mc_landscape.{f}.draws", "count"),
                (f"simulator.mc_landscape.{f}.self_s", "s"),
                (f"simulator.mc_landscape.{f}.us_per_draw", "us")]
    for name in _SIMULATOR_INSTANCE:
        out += _plain(name)
    out.append(("simulator.useful_column_ratio", "ratio"))
    for name in _WISHART_PROCESS + _LANDSCAPE:
        out += _plain(name)
    out += [("cli.import_s", "s"), ("cli.main.self_s", "s"),
            ("cli.bytes_written", "bytes"), ("cli.rows_written", "count"),
            ("trace.overhead_ratio", "ratio")]
    return out


def absent_metrics(missing: list[Spec]) -> list[str]:
    """Metrics whose every source function is missing from the program.

    A group such as landscape.closed_forms stays present while any of its
    functions exists; the column ratio needs mc_landscape.
    """
    present = {s.name for s in SPECS if s not in missing}
    gone = {s.name for s in missing} - present
    if "simulator.mc_landscape" in gone:
        gone.add("simulator.useful_column_ratio")
    return [m for m, _unit in metric_units() if ".".join(m.split(".")[:2]) in gone]


def layer_metrics(traces, *, bytes_written=0, rows_written=0, overhead_ratio=0.0) -> dict:
    """Per-layer metrics from span lists, one list per traced process.

    Every metric in metric_units() is present.  A ratio whose base is zero on
    this workload (no such work done) reads 0.
    """
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    incl_s: dict[str, float] = {}
    work: dict[str, float] = {}
    flops: dict[str, float] = {}
    imports = []
    useful = drawn = 0
    for spans in traces:
        selfs = self_times(spans)
        for idx, (name, start, end, _parent, _job, attrs) in enumerate(spans):
            if name == CLI_IMPORT:
                imports.append(end - start)
                continue
            key = name
            if name in ("randmat.haar_group", "simulator.mc_landscape"):
                key = f"{name}.{attrs['field']}"
            calls[key] = calls.get(key, 0) + 1
            self_s[key] = self_s.get(key, 0.0) + selfs[idx]
            incl_s[key] = incl_s.get(key, 0.0) + (end - start)
            if name == "randmat.haar_group":
                work[key] = work.get(key, 0) + attrs["matrices"]
                flops[key] = flops.get(key, 0.0) + attrs["matrices"] * qr_flops(
                    attrs["field"], attrs["dim"])
            elif name == "randmat.haar_columns":
                work[key] = work.get(key, 0) + attrs["columns"]
            elif name == "simulator.mc_landscape":
                work[key] = work.get(key, 0) + attrs["draws"]
                useful += attrs["rank"] * attrs["draws"]
            if name in ("randmat.haar_group", "randmat.haar_columns") and any(
                    a == "simulator.mc_landscape" for a in ancestors(spans, idx)):
                drawn += attrs["columns"]

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for name in _PLAIN:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for f in FIELDS:
        key = f"randmat.haar_group.{f}"
        out[f"{key}.matrices"] = int(work.get(key, 0))
        out[f"{key}.self_s"] = self_s.get(key, 0.0)
        out[f"{key}.us_per_matrix"] = 1e6 * ratio(incl_s.get(key, 0.0), work.get(key, 0))
        out[f"{key}.gflop_per_s"] = 1e-9 * ratio(flops.get(key, 0.0), incl_s.get(key, 0.0))
        key = f"simulator.mc_landscape.{f}"
        out[f"{key}.draws"] = int(work.get(key, 0))
        out[f"{key}.self_s"] = self_s.get(key, 0.0)
        out[f"{key}.us_per_draw"] = 1e6 * ratio(incl_s.get(key, 0.0), work.get(key, 0))
    key = "randmat.haar_columns"
    out[f"{key}.calls"] = calls.get(key, 0)
    out[f"{key}.columns"] = int(work.get(key, 0))
    out[f"{key}.self_s"] = self_s.get(key, 0.0)
    for key in _PER_CALL:
        out[f"{key}.calls"] = calls.get(key, 0)
        out[f"{key}.self_s"] = self_s.get(key, 0.0)
        out[f"{key}.us_per_call"] = 1e6 * ratio(incl_s.get(key, 0.0), calls.get(key, 0))
    out["simulator.useful_column_ratio"] = ratio(useful, drawn)
    out["cli.import_s"] = statistics.median(imports) if imports else 0.0
    out["cli.main.self_s"] = self_s.get(CLI_MAIN, 0.0)
    out["cli.bytes_written"] = int(bytes_written)
    out["cli.rows_written"] = int(rows_written)
    out["trace.overhead_ratio"] = float(overhead_ratio)
    return out


def self_time_total(metrics: dict) -> float:
    """Sum of the disjoint self-time metrics; never exceeds the traced wall time."""
    return sum(v for k, v in metrics.items() if k.endswith(".self_s"))


def median_job_times(records, traced: bool) -> dict:
    """Each job's median time over the run's passes of one kind (traced or not).

    A record is [pass, job id, traced, seconds, ...].
    """
    times: dict = {}
    for _pass, job_id, is_traced, seconds, *_rest in records:
        if is_traced == traced:
            times.setdefault(job_id, []).append(seconds)
    return {job_id: statistics.median(ts) for job_id, ts in times.items()}


def pick_traced(passes, records) -> tuple[int, float, float]:
    """The traced pass to report: (its index among traced passes, its wall
    time, the tracing overhead).

    The pass with the median wall time is reported whole, so its self times
    sum to no more than its wall time.  The overhead is the traced over the
    untraced sum of median job times, minus 1.
    """
    traced = [p["wall"] for p in passes if p["traced"]]
    order = sorted(range(len(traced)), key=traced.__getitem__)
    pick = order[(len(order) - 1) // 2]
    overhead = (sum(median_job_times(records, True).values())
                / sum(median_job_times(records, False).values()) - 1.0)
    return pick, traced[pick], overhead
