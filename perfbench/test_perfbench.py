"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench -q -p no:cacheprovider
"""

from __future__ import annotations

import json
import os
import sys
import time
import types
from pathlib import Path

import pytest

import gen
import layers
import refclock
import run
from passes import run_passes
from tracer import Spec, Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent


def _span(name, start, end, parent=-1, attrs=None):
    return (name, start, end, parent, 0, attrs)


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        _span("p", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("b", 2.0, 4.0, parent=0),    # overlaps a: union [1, 4] covers 3
        _span("c", 8.0, 12.0, parent=0),   # clipped to [8, 10] covers 2
        _span("g", 1.5, 2.5, parent=1),    # grandchild: counts against a only
    ]
    assert self_times(spans) == pytest.approx([5.0, 1.0, 2.0, 4.0, 1.0])


@pytest.fixture
def fake_package(monkeypatch):
    """fakepkg.mod_a defines f, g and h; mod_b and the package bind f by import."""
    pkg = types.ModuleType("fakepkg")
    mod_a = types.ModuleType("fakepkg.mod_a")
    mod_b = types.ModuleType("fakepkg.mod_b")

    def h(x):
        return x + 1

    def g(x):
        return mod_a.h(x) * 2

    def f(x):
        return mod_a.g(x) + 1

    def other_f(x):
        return -x

    mod_a.f, mod_a.g, mod_a.h = f, g, h
    mod_b.f = f
    mod_b.renamed = f
    mod_b.g = other_f  # same name, different function: left alone
    pkg.f = f
    for mod in (pkg, mod_a, mod_b):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return pkg, mod_a, mod_b


def test_install_wraps_every_binding_by_identity_and_restore_puts_originals_back(fake_package):
    pkg, mod_a, mod_b = fake_package
    originals = (mod_a.f, mod_a.g, mod_b.g)
    tracer = Tracer()
    specs = [Spec("mod_a", "f", "a.f"), Spec("mod_a", "g", "a.g"),
             Spec("mod_a", "gone", "a.gone"), Spec("no_such_module", "f", "x.f")]
    missing = tracer.install("fakepkg", specs)
    assert [s.name for s in missing] == ["a.gone", "x.f"]
    assert pkg.f is mod_b.f is mod_b.renamed is mod_a.f
    assert mod_a.f is not originals[0]
    assert mod_b.g is originals[2]
    assert mod_b.f(1) == 5
    spans = tracer.take()
    assert [(s[0], s[3]) for s in spans] == [("a.f", -1), ("a.g", 0)]
    tracer.restore()
    assert (mod_a.f, mod_a.g, mod_b.g) == originals
    assert pkg.f is mod_b.f is mod_b.renamed is originals[0]
    assert mod_b.f(1) == 5 and tracer.take() == []


def test_span_is_closed_when_the_wrapped_function_raises(fake_package):
    _pkg, mod_a, _mod_b = fake_package

    def boom(x):
        raise ValueError(x)

    mod_a.f = boom
    tracer = Tracer()
    tracer.install("fakepkg", [Spec("mod_a", "f", "a.f")])
    with pytest.raises(ValueError):
        mod_a.f(1)
    tracer.restore()
    (span,) = tracer.take()
    assert span[0] == "a.f" and span[2] >= span[1]


def test_absent_metrics_follow_missing_functions():
    by_function = {s.function: s for s in layers.SPECS}
    absent = layers.absent_metrics([by_function["haar_group"], by_function["loss_variance"]])
    assert "randmat.haar_group.H.us_per_matrix" in absent
    assert not any(m.startswith("landscape.closed_forms") for m in absent)
    absent = layers.absent_metrics([by_function["mc_landscape"]])
    assert "simulator.useful_column_ratio" in absent
    assert "simulator.mc_landscape.R.draws" in absent


def test_layer_metrics_counts_work_and_wasted_columns():
    mc = {"field": "C", "draws": 10, "rank": 2}
    haar = {"field": "C", "dim": 4, "matrices": 10, "columns": 40}
    spans = [
        _span("simulator.mc_landscape", 0.0, 1.0, attrs=mc),
        _span("randmat.haar_group", 0.1, 0.6, parent=0, attrs=haar),
        _span("quaternion.qmul", 0.2, 0.3, parent=1),
        _span("randmat.haar_group", 2.0, 2.5, attrs=haar),   # outside any MC job
        _span("cli.import", 3.0, 4.0),
    ]
    m = layers.layer_metrics([spans], rows_written=7)
    assert set(m) == {name for name, _unit in layers.metric_units()}
    assert m["randmat.haar_group.C.matrices"] == 20
    assert m["randmat.haar_group.C.self_s"] == pytest.approx(0.4 + 0.5)
    assert m["randmat.haar_group.C.us_per_matrix"] == pytest.approx(1e6 * 1.0 / 20)
    # inclusive time, like us_per_matrix: the qmul child span does not inflate it
    assert m["randmat.haar_group.C.gflop_per_s"] == pytest.approx(
        1e-9 * 20 * layers.qr_flops("C", 4) / 1.0)
    assert m["simulator.mc_landscape.C.self_s"] == pytest.approx(0.5)
    assert m["simulator.useful_column_ratio"] == pytest.approx(20 / 40)
    assert m["quaternion.qmul.calls"] == 1
    assert m["cli.import_s"] == pytest.approx(1.0)
    assert m["cli.rows_written"] == 7
    assert layers.self_time_total(m) <= 4.0


def test_one_seed_generates_identical_inputs(tmp_path):
    for workload in gen.WORKLOADS:
        a = gen.generate(workload, 7, tmp_path / f"{workload}-a")
        b = gen.generate(workload, 7, tmp_path / f"{workload}-b")
        c = gen.generate(workload, 8, tmp_path / f"{workload}-c")
        assert a["jobs"] == b["jobs"] and a["models"] == b["models"]
        assert a["components"] == b["components"]
        for name in a["models"]:
            rel = Path("models") / f"{name}.json"
            assert (tmp_path / f"{workload}-a" / rel).read_bytes() == \
                (tmp_path / f"{workload}-b" / rel).read_bytes()
        assert a["models"] != c["models"]
        assert sorted(j["cls"] for j in a["jobs"]) == sorted(j["cls"] for j in c["jobs"])


def test_job_lists_meet_their_size_and_mix_rules(tmp_path):
    mc = gen.generate("exact-mc", 1, tmp_path / "mc")["jobs"]
    small = gen.generate("small-draws", 1, tmp_path / "sd")["jobs"]
    # at least ten job times lie beyond p90
    assert len(mc) >= 100 and len(small) >= 100
    # p90 (inclusive), 0.1 * (n - 1) jobs below the slowest, lies at least two
    # jobs inside the second-slowest class, the H dim-8 Hessian jobs, behind
    # the H dim-32 ones
    h32 = sum(j["cls"].startswith("mc.H32.") for j in mc)
    h8_hessian = sum(j["cls"] == "mc.H8.hessian" for j in mc)
    beyond = 0.1 * (len(mc) - 1)
    assert h32 + 2 <= beyond and h32 + h8_hessian >= beyond + 2


def test_benchmark_json_names_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    jobs = [{"id": i, "draws": {"R": 1, "C": 1, "H": 1}} for i in range(3)]
    result = {"records": [[0, i, False, float(i + 1), False] for i in range(3)],
              "passes": [{"traced": False, "wall": 6.0}], "peak_rss_mb": 1.0}
    e2e = run._end_to_end(result, jobs, [1.0])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(name, unit) for name, (_value, unit) in e2e.items()]


def test_end_to_end_times_take_each_jobs_median_untraced_time_scaled():
    jobs = [{"id": 0, "draws": {"R": 10}}, {"id": 1, "draws": {"H": 2}}]
    records = [[0, 0, False, 2.0, False], [0, 1, False, 5.0, False],
               [1, 0, True, 0.5, False], [1, 1, True, 0.5, False],   # traced: ignored
               [2, 0, False, 1.0, False], [2, 1, False, 7.0, True],
               [3, 0, False, 9.0, False]]                            # a partial pass
    result = {"records": records, "passes": [], "peak_rss_mb": 1.0}
    m = {name: value for name, (value, _unit) in run._end_to_end(result, jobs, [3.0, 1.0, 2.0]).items()}
    assert m["setup_s"] == 2.0
    assert m["wall_s"] == 2.0 + 6.0
    assert m["job_p50_s"] == 4.0
    assert m["draws_per_s.R"] == 10 / 2.0 and m["draws_per_s.H"] == 2 / 6.0
    assert m["draws_per_s.C"] == 0.0
    assert m["ok_ratio"] == pytest.approx(6 / 7)
    scaled = dict(run._end_to_end(result, jobs, [3.0, 1.0, 2.0], scale=0.5))
    assert scaled["wall_s"][0] == 4.0 and scaled["setup_s"][0] == 2.0
    assert scaled["draws_per_s.R"][0] == 10.0 and scaled["ok_ratio"][0] == m["ok_ratio"]


def test_reference_clock_scales_to_the_nominal_kernel_time():
    clock = refclock.RefClock()
    clock.tick()
    clock.tick()   # within EVERY_S of the first: no sample
    assert len(clock.samples) == 1 and clock.samples[0] > 0
    assert refclock.scale([2 * refclock.NOMINAL_S, 4 * refclock.NOMINAL_S,
                           9 * refclock.NOMINAL_S]) == pytest.approx(0.25)


def test_pass_loop_alternates_and_has_one_traced_pass_even_without_time():
    seen = []
    passes = run_passes(0.0, True, lambda index, traced, stop_at: seen.append(
        (index, traced, stop_at)) or 0.5)
    assert seen == [(0, False, None), (1, True, None)]
    assert passes == [{"index": 0, "traced": False, "wall": 0.5},
                      {"index": 1, "traced": True, "wall": 0.5}]
    assert len(run_passes(0.0, False, lambda index, traced, stop_at: 0.1)) == 1


def test_only_later_plain_passes_stop_at_the_deadline():
    seen = []

    def one_pass(index, traced, stop_at):
        seen.append((traced, stop_at is None))
        time.sleep(0.02)
        return 0.02

    run_passes(0.05, True, one_pass)
    assert seen[:2] == [(False, True), (True, True)]
    assert all(whole == traced for traced, whole in seen[2:])


def test_passes_take_the_cpus_in_turn_and_restore_the_affinity():
    cpus = sorted(os.sched_getaffinity(0))
    pinned = []

    def one_pass(index, traced, stop_at):
        pinned.append(sorted(os.sched_getaffinity(0)))
        time.sleep(0.005)
        return 0.005

    run_passes(0.05, False, one_pass)
    assert len(pinned) > len(cpus)
    assert pinned == [[cpus[i % len(cpus)]] for i in range(len(pinned))]
    assert sorted(os.sched_getaffinity(0)) == cpus


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import wishartscape
    finally:
        sys.path.remove(str(ROOT / "src"))
    return wishartscape


def test_mc_outputs_asked_for_must_be_returned_with_their_shapes(tmp_path):
    import numpy as np
    import inproc

    inputs = gen.generate("exact-mc", 1, tmp_path)
    runner = inproc.ExactMc(inputs, _import_package())
    job = next(j for j in inputs["jobs"] if j["collect"] == ["loss", "grad"])
    n, p = job["n"], inputs["components"][job["case"]]["sector_params"]
    losses = np.full(n, inproc.refs.haar_loss_mean(inputs["components"][job["case"]]))
    for gradients, hessians in ((None, None), (np.zeros((n, p + 1)), None),
                                (np.zeros((n, p)), np.zeros((n, p)))):
        checks = inproc.Checks()
        out = types.SimpleNamespace(losses=losses, gradients=gradients, hessians=hessians)
        runner.keep(job, "k", out, checks)
        assert checks.failed == {"k"}
    checks = inproc.Checks()
    runner.keep(job, "k", types.SimpleNamespace(losses=losses, gradients=np.zeros((n, p)),
                                                hessians=None), checks)
    assert not checks.failed


def test_real_package_is_wrapped_wherever_it_binds_a_function():
    wishartscape = _import_package()
    from wishartscape import randmat, simulator

    original = randmat.haar_group
    tracer = Tracer()
    missing = tracer.install("wishartscape", layers.SPECS)
    try:
        assert missing == []
        assert simulator.haar_group is randmat.haar_group is wishartscape.haar_group
        assert simulator.haar_group is not original
        simulator.haar_group(2, 3, wishartscape.RngState(0), size=2)
    finally:
        tracer.restore()
    assert simulator.haar_group is original and wishartscape.haar_group is original
    (span,) = tracer.take()
    assert span[0] == "randmat.haar_group" and span[5]["matrices"] == 2
