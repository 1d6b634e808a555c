"""Command line interface: exit codes, file outputs, determinism."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wishartscape import (
    RngState,
    load_model,
    loss_variance,
    sample_gradient_given_loss,
    sample_hessian_at_critical,
    sample_loss_batch,
)
from wishartscape.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
DEMO_MODELS = Path(__file__).resolve().parents[1] / "demos" / "models"

FLOAT_RE = re.compile(r"^-?\d\.\d{16}e[+-]\d{2,3}$")


def write_model(path, *, dim=8, field="C", obs=None, inp=None, params=3,
                total=None, norm=None, index=1):
    if obs is None:
        obs = list(np.linspace(0.0, 1.0, dim))
    if inp is None:
        inp = {"pure": True}
    doc = {
        "total_params": total if total is not None else max(params, 1),
        "components": [{
            "field": field,
            "dim": dim,
            "index": index,
            "observable_spectrum": obs,
            "input_spectrum": inp,
            "sector_params": params,
        }],
    }
    if norm is not None:
        doc["normalization"] = norm
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def rank1_model(tmp_path):
    return write_model(tmp_path / "rank1.json")


@pytest.fixture
def mixed_model(tmp_path):
    inp = [0.5, 0.3, 0.2] + [0.0] * 5
    return write_model(tmp_path / "mixed.json", inp=inp, params=2)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestParsing:
    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_unknown_flag(self, capsys):
        assert main(["analyze", "--model", "x.json", "--bogus"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "analyze" in capsys.readouterr().out

    def test_missing_model_file(self, tmp_path, capsys):
        assert main(["analyze", "--model", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_model_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["analyze", "--model", str(bad)]) == 1
        assert "invalid JSON" in capsys.readouterr().err

    # (top-level overrides, second-component overrides, expected stderr parts)
    MALFORMED = {
        "index-string": ({}, {"index": "x"}, ["component 1", "index", "'x'"]),
        "normalization-string": ({"normalization": "abc"}, {}, ["normalization", "'abc'"]),
        "field-list": ({}, {"field": ["C"]}, ["component 1", "field 'field'"]),
        "observable-nan": ({}, {"observable_spectrum": [0.0, 1.0, float("nan"), 3.0]},
                           ["component 1", "observable_spectrum entry 2 is nan"]),
        "observable-constant": ({}, {"observable_spectrum": [2.0] * 4},
                                ["component 1", "field 'observable_spectrum'", "constant"]),
        "input-pure-string": ({}, {"input_spectrum": {"pure": "yes"}},
                              ["component 1", "field 'input_spectrum'", "'pure': true",
                               "'yes'"]),
        "observable-nested": ({}, {"observable_spectrum": [[0, 1], [2, 3]]},
                              ["component 1", "field 'observable_spectrum'", "flat list"]),
        "input-nested": ({}, {"input_spectrum": [[1, 0], [0, 0]]},
                         ["component 1", "field 'input_spectrum'", "flat list"]),
        "observable-short-for-huge-dim": (
            {}, {"field": "C", "dim": 10**15, "observable_spectrum": [0, 1]},
            ["component 1", "field 'observable_spectrum'", f"2 values but dim is {10**15}"]),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_model_is_located(self, case, tmp_path, capsys):
        top, override, expected = self.MALFORMED[case]
        sector = {"field": "R", "dim": 4, "index": 1, "observable_spectrum": [0, 1, 2, 3],
                  "input_spectrum": {"pure": True}, "sector_params": 1}
        doc = {"total_params": 2, "components": [sector, {**sector, **override}], **top}
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", "--model", str(path)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith(f"error: {path}: ")
        for part in expected:
            assert part in err

    # second-component overrides beyond the float range, expected stderr parts
    FLOAT_RANGE = {
        "observable-overflow": ({"observable_spectrum": [1e308, 1e308, 1e308, -1e308]},
                                ["field 'observable_spectrum'", "too wide", "overflow"]),
        "observable-underflow": ({"observable_spectrum": [0, 1e-300, 2e-300, 3e-300]},
                                 ["field 'observable_spectrum'", "too narrow", "underflow"]),
        "index-cube-overflow": ({"index": 1e200},
                                ["index must be a number whose cube is finite, got 1e+200"]),
    }

    @pytest.mark.parametrize("command", ["analyze", "minima"])
    @pytest.mark.parametrize("case", sorted(FLOAT_RANGE))
    def test_float_range_model_is_located(self, case, command, tmp_path, capsys):
        override, expected = self.FLOAT_RANGE[case]
        sector = {"field": "R", "dim": 4, "index": 1, "observable_spectrum": [0, 1, 2, 3],
                  "input_spectrum": {"pure": True}, "sector_params": 1}
        doc = {"total_params": 2, "components": [sector, {**sector, **override}]}
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(doc))
        argv = [command, "--model", str(path)]
        if command == "minima":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: component 1: ")
        for part in expected:
            assert part in err

    # (top-level overrides, second-component overrides, command, expected
    # stderr part): fields each inside the float range whose products leave it
    PURE_TRACE = {"input_spectrum": {"pure": True, "trace": 1e200}}
    INDEX_TIMES_SPECTRUM = {"index": 1e100, "observable_spectrum": [0, 1e100, 2e100, 3e100]}
    TRACE_REFUSAL = ("component 1: input_spectrum must have a trace whose cube is finite, "
                     "got 1e+200")
    # a sector whose minima-law variance, its tiny mean squared, underflows;
    # a model of two such sectors is refused
    TINY_TRACE = {"field": "R", "dim": 4, "index": 1, "observable_spectrum": [0, 1, 2, 3],
                  "input_spectrum": {"pure": True, "trace": 1e-200}, "sector_params": 1}
    UNDERFLOW = {"components": [TINY_TRACE, TINY_TRACE]}
    UNDERFLOW_REFUSAL = ("sectors 0, 1: the summed variance 2 mean^2 / (beta r) of the "
                         "minima-law factors underflows the float range")
    PRODUCT_OVERFLOW = {
        "pure-trace-analyze": ({}, PURE_TRACE, "analyze", TRACE_REFUSAL),
        "pure-trace-minima": ({}, PURE_TRACE, "minima", TRACE_REFUSAL),
        "index-analyze": ({}, INDEX_TIMES_SPECTRUM, "analyze",
                          "sector 1: the loss variance overflows the float range"),
        "index-minima": ({}, INDEX_TIMES_SPECTRUM, "minima",
                         "sector 1: the variance 2 mean^2 / (beta r) of its minima-law "
                         "factor overflows the float range"),
        "normalization-analyze": ({"normalization": 1e150}, {}, "analyze",
                                  "sector 0: the third-cumulant scale normalization^3 "
                                  "index^3 obar^3 tr(rho^3) / r^2 overflows the float range"),
        "underflow-analyze": (UNDERFLOW, {}, "analyze", UNDERFLOW_REFUSAL),
        "underflow-minima": (UNDERFLOW, {}, "minima", UNDERFLOW_REFUSAL),
    }

    @pytest.mark.parametrize("case", sorted(PRODUCT_OVERFLOW))
    def test_product_overflow_is_located(self, case, tmp_path, capsys):
        top, override, command, expected = self.PRODUCT_OVERFLOW[case]
        sector = {"field": "R", "dim": 4, "index": 1, "observable_spectrum": [0, 1, 2, 3],
                  "input_spectrum": {"pure": True}, "sector_params": 1}
        doc = {"total_params": 2, "components": [sector, {**sector, **override}], **top}
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(doc))
        argv = [command, "--model", str(path)]
        if command == "minima":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert expected in err

    def test_one_underflowing_sector_is_kept(self, tmp_path):
        # the other sector's variance keeps the summed one in the float range
        sector = {**self.TINY_TRACE, "input_spectrum": {"pure": True}}
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"total_params": 2,
                                    "components": [sector, self.TINY_TRACE]}))
        assert main(["analyze", "--model", str(path)]) == 0

    def test_minima_reads_no_normalization(self, tmp_path):
        # the minima law is unnormalized, so a normalization whose cube
        # overflows leaves it to run
        sector = {"field": "R", "dim": 4, "index": 1, "observable_spectrum": [0, 1, 2, 3],
                  "input_spectrum": {"pure": True}, "sector_params": 1}
        path = tmp_path / "norm.json"
        path.write_text(json.dumps({"total_params": 2, "normalization": 1e150,
                                    "components": [sector, sector]}))
        assert main(["minima", "--model", str(path), "--out", str(tmp_path / "out")]) == 0

    def _mixed_models(self, tmp_path, dims, normalization):
        # maximally mixed C inputs, so each sector's low-purity ceiling applies
        paths = []
        for d in dims:
            sector = {"field": "C", "dim": d, "index": 1, "observable_spectrum": list(range(d)),
                      "input_spectrum": [1.0 / d] * d, "sector_params": 1}
            path = tmp_path / f"mixed-{d}.json"
            path.write_text(json.dumps({"total_params": 1, "normalization": normalization,
                                        "components": [sector]}))
            paths.append(str(path))
        return paths

    def test_trainability_normalized_variance_overflow_names_the_model(self, tmp_path, capsys):
        paths = self._mixed_models(tmp_path, (8, 16, 32), 1e200)
        assert main(["trainability", "--model", *paths]) == 1
        assert capsys.readouterr().err == ("error: model 0: normalization^2 times the loss "
                                           "variance overflows the float range\n")

    def test_trainability_loss_variance_overflow_names_the_model(self, tmp_path, capsys):
        # pure C models; only the dim-16 one has index 1e100 times a spectrum
        # of scale 1e100, so its loss variance leaves the float range
        paths = []
        for d in (8, 16, 32):
            scale = 1e100 if d == 16 else 1.0
            sector = {"field": "C", "dim": d, "index": scale,
                      "observable_spectrum": [scale * k for k in range(d)],
                      "input_spectrum": {"pure": True}, "sector_params": 1}
            path = tmp_path / f"pure-{d}.json"
            path.write_text(json.dumps({"total_params": 1, "components": [sector]}))
            paths.append(str(path))
        assert main(["trainability", "--model", *paths]) == 1
        assert capsys.readouterr().err == ("error: model 1: sector 0: the loss variance "
                                           "overflows the float range\n")

    def test_low_purity_ceiling_overflow_names_the_sector(self, tmp_path, capsys):
        (path,) = self._mixed_models(tmp_path, (8,), 1e200)
        assert main(["analyze", "--model", path]) == 1
        assert capsys.readouterr().err == (
            "error: sector 0: normalization^2 times the low-purity variance ceiling "
            "overflows the float range\n")


# an --out that cannot be a directory: a file, and a path below a file
@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
@pytest.mark.parametrize("argv", [["sample", "--samples", "2"],
                                  ["simulate", "--samples", "2"],
                                  ["minima", "--grid", "256"]], ids=lambda argv: argv[0])
def test_unwritable_out_is_located(argv, below, rank1_model, tmp_path, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out = blocker / "sub" if below else blocker
    assert main([*argv, "--model", str(rank1_model), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and str(out) in err


class TestAnalyze:
    def test_report_contents(self, rank1_model, capsys):
        assert main(["analyze", "--model", str(rank1_model)]) == 0
        out = capsys.readouterr().out
        assert "total parameters: 3" in out
        assert "sector 0: field C, dim 8" in out
        assert "rank-one: yes" in out
        assert "(underparameterized)" in out
        assert "critical-point log-density" in out
        model = load_model(rank1_model)
        assert f"loss variance: {loss_variance(model):.6g}" in out
        assert "minima gamma fit: shape" in out

    def test_point_mass_reported(self, tmp_path, capsys):
        m = write_model(tmp_path / "over.json", params=100)
        assert main(["analyze", "--model", str(m)]) == 0
        out = capsys.readouterr().out
        assert "(overparameterized)" in out
        assert "point mass at zero" in out
        assert "critical-point log-density" not in out

    def test_low_purity_line(self, tmp_path, capsys):
        m = write_model(tmp_path / "mm.json", inp=[1.0 / 8.0] * 8)
        assert main(["analyze", "--model", str(m)]) == 0
        assert "low-purity variance ceiling" in capsys.readouterr().out

    def test_no_parameters_regime(self, tmp_path, capsys):
        m = write_model(tmp_path / "np.json", params=0, total=1)
        assert main(["analyze", "--model", str(m)]) == 0
        assert "(no parameters)" in capsys.readouterr().out


class TestSample:
    def test_rank1_writes_three_files(self, rank1_model, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["sample", "--model", str(rank1_model), "--out", str(out),
                     "--samples", "20", "--seed", "3"]) == 0
        losses = read_rows(out / "losses.csv")
        assert losses[0] == ["sample_id", "loss_0", "total"]
        assert len(losses) == 21
        for row in losses[1:]:
            assert FLOAT_RE.match(row[1])
            assert float(row[2]) == pytest.approx(float(row[1]))
        grads = read_rows(out / "gradients.csv")
        assert grads[0] == ["sample_id", "grad_0", "grad_1", "grad_2"]
        assert len(grads) == 21
        hess = read_rows(out / "hessians.csv")
        assert hess[0] == ["sample_id", "row", "col", "value"]
        assert len(hess) == 1 + 20 * 3 * 3
        assert "wrote losses.csv, gradients.csv, hessians.csv" in capsys.readouterr().out

    def test_hessian_rows_symmetric(self, rank1_model, tmp_path):
        out = tmp_path / "out"
        main(["sample", "--model", str(rank1_model), "--out", str(out),
              "--samples", "5"])
        vals = {}
        for sid, r, c, v in read_rows(out / "hessians.csv")[1:]:
            vals[(sid, r, c)] = v
        for (sid, r, c), v in vals.items():
            assert vals[(sid, c, r)] == v

    def test_mixed_input_losses_only(self, mixed_model, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["sample", "--model", str(mixed_model), "--out", str(out),
                     "--samples", "10"]) == 0
        captured = capsys.readouterr()
        assert "rank-one" in captured.err
        assert (out / "losses.csv").exists()
        assert not (out / "gradients.csv").exists()
        assert not (out / "hessians.csv").exists()

    def test_deterministic_across_directories(self, rank1_model, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["sample", "--model", str(rank1_model), "--out",
                         str(out), "--samples", "15", "--seed", "9"]) == 0
        for name in ("losses.csv", "gradients.csv", "hessians.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_seed_changes_output(self, rank1_model, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["sample", "--model", str(rank1_model), "--out", str(out_a),
              "--samples", "15", "--seed", "1"])
        main(["sample", "--model", str(rank1_model), "--out", str(out_b),
              "--samples", "15", "--seed", "2"])
        assert (out_a / "losses.csv").read_bytes() != (out_b / "losses.csv").read_bytes()

    def test_streamed_rows_match_draw_order(self, tmp_path):
        # reference: draw every sample first, then format the rows with the
        # nested loop; the command writes each sample's rows as it draws them
        m = write_model(tmp_path / "m.json", dim=6, params=4, total=5)
        out = tmp_path / "out"
        assert main(["sample", "--model", str(m), "--out", str(out),
                     "--samples", "7", "--seed", "11"]) == 0
        model = load_model(m)
        rng = RngState(11)
        losses = sample_loss_batch(model, 7, rng)
        grad_lines = ["sample_id,grad_0,grad_1,grad_2,grad_3,grad_4"]
        hess_lines = ["sample_id,row,col,value"]
        for i in range(7):
            grad = sample_gradient_given_loss(model, losses[i], rng)
            hess = sample_hessian_at_critical(model, losses[i], rng)
            grad_lines.append(",".join([str(i)] + [f"{v:.16e}" for v in grad.entries]))
            for r in range(5):
                for c in range(5):
                    hess_lines.append(f"{i},{r},{c},{hess.matrix[r, c]:.16e}")
        assert (out / "gradients.csv").read_text() == "\n".join(grad_lines) + "\n"
        assert (out / "hessians.csv").read_text() == "\n".join(hess_lines) + "\n"

    @pytest.mark.parametrize("command", ["sample", "simulate"])
    def test_negative_seed_is_located(self, command, rank1_model, tmp_path, capsys):
        assert main([command, "--model", str(rank1_model), "--out", str(tmp_path / "out"),
                     "--samples", "5", "--seed", "-5"]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: seed must be a nonnegative integer, got -5")

    def test_nonpositive_samples(self, rank1_model, tmp_path, capsys):
        assert main(["sample", "--model", str(rank1_model), "--out",
                     str(tmp_path), "--samples", "0"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unallocatable_count_is_refused(self, rank1_model, tmp_path, capsys):
        # the first array, 10^17 floats, is beyond any address space, so the
        # allocation fails at once; it used to escape as a traceback
        assert main(["sample", "--model", str(rank1_model), "--out",
                     str(tmp_path), "--samples", str(10**17)]) == 2
        assert "error: out of memory" in capsys.readouterr().err


class TestSimulate:
    def test_rank1_gof(self, rank1_model, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--model", str(rank1_model), "--out", str(out),
                     "--samples", "40", "--seed", "4"]) == 0
        comp_rows = read_rows(out / "simulate_component_0.csv")
        assert comp_rows[0] == ["sample_id", "loss", "grad_0", "grad_1", "grad_2"]
        assert len(comp_rows) == 41
        gof = read_rows(out / "gof.csv")
        assert gof[0] == ["component", "loss_reference", "loss_ks_stat",
                          "loss_ks_pvalue", "grad_ks_stat", "grad_ks_pvalue"]
        assert gof[1][1] == "gamma-closed-form"
        assert FLOAT_RE.match(gof[1][2])
        assert FLOAT_RE.match(gof[1][4])   # rank-one: gradient gof present

    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_gradient_gof_compares_one_entry_per_sample(self, rank1_model, tmp_path, seed):
        # entries of one sample share its state, so the gradient KS compares
        # the first entry of each of the n samples: an equal-size two-sample
        # statistic is a multiple of 1/n.  Pooling all p = 3 entries would
        # give a multiple of 1/(3n) instead
        n = 40
        out = tmp_path / "out"
        assert main(["simulate", "--model", str(rank1_model), "--out", str(out),
                     "--samples", str(n), "--seed", str(seed)]) == 0
        stat = float(read_rows(out / "gof.csv")[1][4]) * n
        assert stat == pytest.approx(round(stat), abs=1e-9)

    def test_mixed_two_sample_reference(self, mixed_model, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--model", str(mixed_model), "--out", str(out),
                     "--samples", "30"]) == 0
        gof = read_rows(out / "gof.csv")
        assert gof[1][1] == "wishart-two-sample"
        assert gof[1][4] == "" and gof[1][5] == ""

    def test_zero_parameter_sector_writes_losses_only(self, tmp_path):
        doc = json.loads(write_model(tmp_path / "one.json", params=2).read_text())
        idle = dict(doc["components"][0], field="R", dim=5, sector_params=0,
                    observable_spectrum=[0.0, 0.5, 1.0, 2.0, 3.0])
        doc["components"].append(idle)
        path = tmp_path / "two.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["simulate", "--model", str(path), "--out", str(out),
                     "--samples", "20"]) == 0
        assert read_rows(out / "simulate_component_0.csv")[0] == \
            ["sample_id", "loss", "grad_0", "grad_1"]
        idle_rows = read_rows(out / "simulate_component_1.csv")
        assert idle_rows[0] == ["sample_id", "loss"] and len(idle_rows) == 21
        assert read_rows(out / "gof.csv")[2][4:] == ["", ""]

    def test_budget_counts_one_haar_matrix_per_sample(self, tmp_path, capsys):
        # C, N = 64, rank-one input, p = 60: 10 * (20 * 2 * 64^2 + 2^2 * 64 *
        # 1^2 + 60 * (20 * 2 * 64 + 2^2 * 64 * (1 + 2))) = 3.6e6 operations.
        # The former count of p + 2 Haar matrices, 10 * 64^3 * 62 = 1.6e8,
        # refused this run
        assert main(["simulate", "--model", str(DEMO_MODELS / "rank1_complex.json"),
                     "--out", str(tmp_path), "--samples", "10", "--budget", "1e8"]) == 0

    def test_budget_prices_loss_only_sector_by_its_columns(self, tmp_path):
        # C, N = 64, rank-one input, no parameters, so losses only: 100 *
        # (20 * 2 * 64^2 + 2^2 * 64 * 1^2) = 1.64e7 operations, the Gaussian
        # at 20 per real normal and the QR of the one reached column.  The
        # full-frame count, 100 * 2^2 * 64^2 * (2 * 64) = 2.1e8, refused it
        m = write_model(tmp_path / "idle.json", dim=64, params=0)
        assert main(["simulate", "--model", str(m), "--out", str(tmp_path / "o"),
                     "--samples", "100", "--budget", "1e8"]) == 0

    def test_budget_refused(self, rank1_model, tmp_path, capsys):
        assert main(["simulate", "--model", str(rank1_model), "--out",
                     str(tmp_path), "--samples", "1000",
                     "--budget", "100"]) == 2
        assert "exceeds budget" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["nan", "0", "-1", "-inf"])
    def test_budget_must_be_positive(self, budget, rank1_model, tmp_path, capsys):
        # a NaN budget used to refuse nothing, so a huge run went ahead
        assert main(["simulate", "--model", str(rank1_model), "--out",
                     str(tmp_path / "o"), "--samples", "100000000",
                     f"--budget={budget}"]) == 1
        assert "--budget must be positive" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_infinite_budget_allowed(self, rank1_model, tmp_path):
        assert main(["simulate", "--model", str(rank1_model), "--out",
                     str(tmp_path), "--samples", "5", "--budget", "inf"]) == 0

    def test_dimension_cap(self, tmp_path, capsys):
        # no dimension cap of its own: the budget refuses a large sector at
        # the default sample count (1000 * (20 * 2 * 500^2 + 2^2 * 500 +
        # 20 * 2 * 500 + 2^2 * 500 * (1 + 2)) = 1.003e10 operations, over the
        # 1e10 default) and lets two samples run
        m = write_model(tmp_path / "big.json", dim=500, params=1)
        assert main(["simulate", "--model", str(m), "--out",
                     str(tmp_path / "o")]) == 2
        assert "exceeds budget" in capsys.readouterr().err
        assert main(["simulate", "--model", str(m), "--out",
                     str(tmp_path / "o"), "--samples", "2"]) == 0

    def test_deterministic(self, rank1_model, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["simulate", "--model", str(rank1_model), "--out",
                         str(out), "--samples", "25", "--seed", "6"]) == 0
        for name in ("simulate_component_0.csv", "gof.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestMinima:
    def test_density_table(self, tmp_path, capsys):
        m = write_model(tmp_path / "m.json", dim=16, params=8)
        out = tmp_path / "out"
        assert main(["minima", "--model", str(m), "--out", str(out),
                     "--grid", "512"]) == 0
        stdout = capsys.readouterr().out
        assert "grid mass: 1" in stdout
        assert "matched gamma: shape" in stdout
        rows = read_rows(out / "minima.csv")
        assert rows[0] == ["z", "density"]
        z = np.array([float(r[0]) for r in rows[1:]])
        d = np.array([float(r[1]) for r in rows[1:]])
        assert np.trapezoid(d, z) == pytest.approx(1.0, abs=2e-3)

    def test_point_mass_table_empty(self, tmp_path, capsys):
        m = write_model(tmp_path / "m.json", params=100)
        out = tmp_path / "out"
        assert main(["minima", "--model", str(m), "--out", str(out)]) == 0
        assert "point mass at zero" in capsys.readouterr().out
        assert read_rows(out / "minima.csv") == [["z", "density"]]

    def test_grid_too_small(self, tmp_path, capsys):
        m = write_model(tmp_path / "m.json", dim=16, params=8)
        assert main(["minima", "--model", str(m), "--out", str(tmp_path / "o"),
                     "--grid", "4"]) == 1
        assert "error:" in capsys.readouterr().err


class TestTrainability:
    def _family(self, tmp_path):
        paths = []
        for n in (4, 16, 64):
            p = write_model(tmp_path / f"m{n}.json", dim=n, params=4 * n,
                            total=4 * n)
            paths.append(str(p))
        return paths

    def test_vanishing_family(self, tmp_path, capsys):
        paths = self._family(tmp_path)
        assert main(["trainability", "--model", *paths]) == 0
        out = capsys.readouterr().out
        assert "size 4" in out and "size 64" in out
        assert "variance verdict: vanishing" in out
        assert "trainable: no" in out

    def test_too_few_sizes(self, tmp_path, capsys):
        p = write_model(tmp_path / "m.json")
        assert main(["trainability", "--model", str(p), str(p)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_repeated_size_is_counted_once(self, tmp_path, capsys):
        p = str(write_model(tmp_path / "m.json"))
        assert main(["trainability", "--model", p, p, p]) == 1
        assert "got 1 distinct among 3 models" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "-1"])
@pytest.mark.parametrize("command", ["analyze", "trainability"])
def test_threshold_flag_refused(command, value, tmp_path, capsys):
    # a NaN exponent used to flip the trainability verdict to "trainable: yes"
    paths = [str(write_model(tmp_path / f"m{n}.json", dim=n)) for n in (8, 16, 32)]
    models = paths[:1] if command == "analyze" else paths
    assert main([command, "--model", *models,
                 f"--threshold-variance-exponent={value}"]) == 1
    assert "--threshold-variance-exponent must be" in capsys.readouterr().err


def test_cumulant_flag_refuses_nan(rank1_model, capsys):
    assert main(["analyze", "--model", str(rank1_model), "--threshold-cumulant", "nan"]) == 1
    assert "--threshold-cumulant must be" in capsys.readouterr().err


class TestColdStart:
    """No command loads scipy.stats, which takes over a second to import:
    simulate's KS p-values come from `wishartscape.kstest`."""

    @staticmethod
    def _scipy_modules(code: str) -> list[str]:
        probe = code + ("\nimport sys\nprint(*sorted(m for m in sys.modules "
                        "if m.split('.')[0] == 'scipy'))")
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, timeout=300,
                              env={**os.environ, "PYTHONPATH": path})
        assert done.returncode == 0, done.stderr
        return done.stdout.splitlines()[-1].split()

    def _command_modules(self, argv: list[str]) -> list[str]:
        return self._scipy_modules(
            f"from wishartscape.cli import main\nassert main({argv!r}) == 0")

    def test_import_loads_no_scipy(self):
        assert self._scipy_modules("import wishartscape") == []

    @pytest.mark.parametrize("command", ["analyze", "minima", "trainability", "sample",
                                         "simulate"])
    def test_command_loads_no_scipy_stats(self, command, tmp_path):
        model = str(write_model(tmp_path / "m.json"))
        argv = {
            "analyze": ["analyze", "--model", model],
            "minima": ["minima", "--model", model, "--grid", "256",
                       "--out", str(tmp_path)],
            "trainability": ["trainability", "--model"] + [
                str(write_model(tmp_path / f"m{n}.json", dim=n)) for n in (4, 8, 16)],
            "sample": ["sample", "--model", model, "--samples", "5",
                       "--out", str(tmp_path)],
            "simulate": ["simulate", "--model", model, "--samples", "5",
                         "--out", str(tmp_path)],
        }[command]
        loaded = self._command_modules(argv)
        assert [m for m in loaded if m.startswith("scipy.stats")] == []

    def test_probe_sees_explicit_scipy_stats_import(self):
        # control: the probe would see scipy.stats if anything loaded it
        assert "scipy.stats" in self._scipy_modules("import wishartscape, scipy.stats")


# Model documents for the fuzz test: a valid two-sector document with one
# value replaced by a value of another type or out of range, one key dropped
# or one unknown key added.  Dimensions and Pauli words stay small so a
# document that parses is analyzed in milliseconds.
_junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-10**20, max_value=10**20),
    st.sampled_from([0, 1, 2, 3, 4, -1, 10**15]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.lists(st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                       st.integers(-3, 3), st.text(max_size=2)), max_size=5),
    st.lists(st.lists(st.integers(-2, 2), max_size=3), max_size=3),
    st.dictionaries(st.sampled_from(["pure", "trace", "pauli", "x"]),
                    st.one_of(st.booleans(), st.floats(allow_nan=True),
                              st.text(max_size=3)), max_size=3),
    st.fixed_dictionaries({"pauli": st.lists(
        st.tuples(st.floats(-2, 2), st.text(alphabet="IXYZQ", max_size=3)), max_size=3)}),
)


_numbers = st.one_of(st.integers(-3, 200), st.floats(-5.0, 500.0), st.sampled_from([0.0, 1e-300, 1e300]))


@st.composite
def _model_documents(draw):
    dims = [4, draw(st.sampled_from([2, 3, 8]))]
    sectors = [{
        "field": draw(st.sampled_from(["R", "C", "H"])),
        "dim": dim,
        "index": draw(st.sampled_from([1, 2, 2.5])),
        "observable_spectrum": list(np.linspace(0.0, 1.0, dim)),
        "input_spectrum": draw(st.sampled_from([{"pure": True}, [1.0 / dim] * dim])),
        "sector_params": draw(st.integers(0, 40)),
    } for dim in dims]
    total = sum(c["sector_params"] for c in sectors) + draw(st.integers(0, 3))
    doc = {"total_params": max(total, 1), "normalization": 1.0,
           "components": sectors}
    for _ in range(draw(st.integers(0, 3))):
        target = draw(st.sampled_from([doc, sectors[0], sectors[1]]))
        key = draw(st.sampled_from(sorted(target)))
        action = draw(st.sampled_from(["number", "number", "junk", "drop", "add"]))
        if action == "number":
            target[key] = draw(_numbers)
        elif action == "junk":
            target[key] = draw(_junk)
        elif action == "drop":
            del target[key]
        else:
            target[draw(st.text(min_size=1, max_size=4))] = draw(_junk)
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from([[], [doc], 3, "x", None]))
    return doc


class TestFuzz:
    @given(doc=_model_documents())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_analyze_exits_cleanly_on_mutated_documents(self, doc, tmp_path, capsys):
        path = tmp_path / "fuzz.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", "--model", str(path)]) in (0, 1, 2)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["minima", "--grid", "256"],
                                      ["sample", "--samples", "2"],
                                      ["simulate", "--samples", "2"]],
                             ids=lambda argv: argv[0])
    @given(doc=_model_documents())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_command_exits_cleanly_on_mutated_documents(self, argv, doc, tmp_path,
                                                         capsys):
        path = tmp_path / "fuzz.json"
        path.write_text(json.dumps(doc))
        assert main([*argv, "--model", str(path), "--out", str(tmp_path / "out")]) \
            in (0, 1, 2)
        assert "Traceback" not in capsys.readouterr().err
