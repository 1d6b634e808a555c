"""Command line front end.

Subcommands:
    analyze       closed-form landscape report for one model
    sample        draw losses (and conditional gradients/Hessians) to CSV
    simulate      exact circuit Monte Carlo with goodness-of-fit columns
    minima        tabulate the minima-value density
    trainability  scaling verdict across a family of model sizes

Exit codes: 0 success, 1 invalid input, 2 work budget refused.
All CSV floats carry 17 significant digits so replays are byte-identical.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .algebra import SectorModel, SimpleComponent, spectral_stats
from .errors import (
    BudgetExceededError,
    UndefinedRegimeError,
    ValidationError,
    WishartscapeError,
)
from .kstest import ks_1samp, ks_2samp
from .landscape import (
    _sector_scale,
    build_minima_density,
    gp_conditions,
    kac_rice_log_density,
    loss_variance,
    low_purity_applicable,
    low_purity_bound,
    overparameterization_ratios,
    trainability_verdict,
    welch_satterthwaite,
)
from .model_io import load_model
from .randmat import RngState
from .simulator import mc_landscape
from .wishart_process import (
    loss_cdf_rank1,
    sample_gradient_given_loss,
    sample_hessian_at_critical,
    sample_loss_batch,
)

__all__ = ["main"]

MAX_SIMULATE_DIM = 256
DEFAULT_BUDGET = 1e10

_REGIME = {-1: "underparameterized", 0: "critical", 1: "overparameterized"}


def _regime(gamma: float) -> str:
    """Regime label of a sector's parameter ratio."""
    return _REGIME[int(np.sign(gamma - 1.0))] if gamma > 0 else "no parameters"


def _fmt(x: float) -> str:
    return f"{float(x):.16e}"


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the budget refusal owns
    # that code here, so user errors are remapped to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_common(sub: argparse.ArgumentParser, *, samples: int | None = None):
    sub.add_argument("--seed", type=int, default=0, help="seed for every random stream")
    sub.add_argument("--out", default=".", help="directory for CSV outputs")
    if samples is not None:
        sub.add_argument("--samples", type=int, default=samples,
                         help="number of Monte Carlo draws")


def _build_parser() -> _Parser:
    parser = _Parser(prog="wishartscape",
                     description="Loss landscape statistics for sector models.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="closed-form report for one model")
    p.add_argument("--model", required=True)
    p.add_argument("--threshold-variance-exponent", type=float, default=1.0)
    p.add_argument("--threshold-cumulant", type=float, default=1e-3)
    p.set_defaults(func=_cmd_analyze)

    p = subs.add_parser("sample", help="draw losses and conditional derivatives")
    p.add_argument("--model", required=True)
    _add_common(p, samples=1000)
    p.set_defaults(func=_cmd_sample)

    p = subs.add_parser("simulate", help="exact circuit Monte Carlo")
    p.add_argument("--model", required=True)
    _add_common(p, samples=1000)
    p.add_argument("--budget", type=float, default=DEFAULT_BUDGET,
                   help="refuse runs costing more than this many operations")
    p.set_defaults(func=_cmd_simulate)

    p = subs.add_parser("minima", help="tabulate the minima-value density")
    p.add_argument("--model", required=True)
    p.add_argument("--grid", type=int, default=4096, help="density grid resolution")
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_minima)

    p = subs.add_parser("trainability", help="scaling verdict across sizes")
    p.add_argument("--model", required=True, nargs="+",
                   help="one model file per system size (3+ distinct sizes)")
    p.add_argument("--threshold-variance-exponent", type=float, default=1.0,
                   help="largest tolerated polylog decay exponent")
    p.set_defaults(func=_cmd_trainability)
    return parser


def _write_table(path: Path, header: list[str], row: str, rows) -> None:
    """Writes the header line, then one %-format of the template `row` per
    tuple in `rows`; "%.16e" gives the same text as `_fmt`."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row % values for values in rows)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _g(x: float) -> str:
    return f"{float(x):.6g}"


def _cmd_analyze(args) -> int:
    model = load_model(args.model)
    ratios = overparameterization_ratios(model)
    print(f"model: {args.model}")
    print(f"total parameters: {model.total_params}")
    print(f"normalization: {_g(model.normalization)}")
    for a, comp in enumerate(model.components):
        st = spectral_stats(comp)
        gamma = ratios[a]
        print(f"sector {a}: field {comp.field.symbol}, dim {comp.dim}, "
              f"index {_g(comp.index)}, params {comp.sector_params}")
        print(f"  observable (zero-shifted): mean {_g(st.mean_eig)}, "
              f"spread {_g(st.std_eig)}, floor {_g(st.floor)}")
        print(f"  effective dof: {_g(st.dof_real)} (rounded {st.dof})")
        print(f"  input: trace {_g(comp.input_trace)}, purity {_g(comp.input_purity)}, "
              f"rank-one: {'yes' if comp.is_rank_one_input() else 'no'}")
        print(f"  parameter ratio: {_g(gamma)} ({_regime(gamma)})")
        if 0.0 < gamma < 1.0:
            print(f"  critical-point log-density per parameter at the sector "
                  f"mean: {_g(kac_rice_log_density(comp, _sector_scale(comp)))}")
        if low_purity_applicable(comp):
            print(f"  low-purity variance ceiling: "
                  f"{_g(low_purity_bound(comp, model.normalization))}")
    print(f"loss variance: {_g(loss_variance(model))}")
    gp = gp_conditions(model,
                       variance_exponent=args.threshold_variance_exponent,
                       cumulant_threshold=args.threshold_cumulant)
    print(f"gaussian-process check: variance {_g(gp.variance_term)} vs floor "
          f"{_g(gp.variance_floor)} -> {'ok' if gp.variance_ok else 'fail'}; "
          f"cumulant {_g(gp.cumulant_term)} vs threshold "
          f"{_g(gp.cumulant_threshold)} -> {'ok' if gp.cumulant_ok else 'fail'}; "
          f"plausible: {'yes' if gp.plausible else 'no'}")
    try:
        k_eff, theta_eff = welch_satterthwaite(model)
        print(f"minima gamma fit: shape {_g(k_eff)}, scale {_g(theta_eff)}")
    except UndefinedRegimeError:
        print("minima gamma fit: point mass at zero (no underparameterized sector)")
    return 0


def _cmd_sample(args) -> int:
    model = load_model(args.model)
    if args.samples < 1:
        raise ValidationError(f"--samples must be positive, got {args.samples}")
    out = _out_dir(args)
    rng = RngState(args.seed)
    n_comp = len(model.components)
    losses = sample_loss_batch(model, args.samples, rng)
    header = ["sample_id"] + [f"loss_{a}" for a in range(n_comp)] + ["total"]
    _write_table(out / "losses.csv", header, "%d" + ",%.16e" * (n_comp + 1) + "\n",
                 ((i, *values.tolist(), values.sum()) for i, values in enumerate(losses)))
    written = ["losses.csv"]

    rank1 = all(c.is_rank_one_input() for c in model.components)
    if rank1:
        p = model.total_params
        # one %-format per sample and file, the same text as _fmt per value;
        # the Hessian template takes (sample_id, value) pairs in row-major order
        grad_row = "%d" + ",%.16e" * p + "\n"
        hess_rows = "".join(f"%d,{r},{c},%.16e\n" for r in range(p) for c in range(p))
        pairs = [0] * (2 * p * p)
        # each sample's rows are written as they are drawn, never held
        with open(out / "gradients.csv", "w", newline="") as gfh, \
                open(out / "hessians.csv", "w", newline="") as hfh:
            gfh.write(",".join(["sample_id"] + [f"grad_{j}" for j in range(p)]) + "\n")
            hfh.write("sample_id,row,col,value\n")
            for i in range(args.samples):
                grad = sample_gradient_given_loss(model, losses[i], rng)
                hess = sample_hessian_at_critical(model, losses[i], rng)
                gfh.write(grad_row % (i, *grad.entries.tolist()))
                pairs[0::2] = [i] * (p * p)
                pairs[1::2] = hess.matrix.ravel().tolist()
                hfh.write(hess_rows % tuple(pairs))
        written += ["gradients.csv", "hessians.csv"]
    else:
        print("warning: conditional derivative laws need rank-one inputs in "
              "every sector; wrote losses only", file=sys.stderr)
    print(f"wrote {', '.join(written)} to {out}")
    return 0


def _single_sector_view(comp: SimpleComponent) -> SectorModel:
    return SectorModel(
        components=(comp,),
        total_params=max(comp.sector_params, 1),
        normalization=1.0,
    )


def _cmd_simulate(args) -> int:
    model = load_model(args.model)
    if args.samples < 1:
        raise ValidationError(f"--samples must be positive, got {args.samples}")
    # a NaN budget would refuse nothing: every comparison with it is false
    if math.isnan(args.budget) or args.budget <= 0:
        raise ValidationError(f"--budget must be positive, got {args.budget}")
    cost = 0.0
    for comp in model.components:
        if comp.dim > MAX_SIMULATE_DIM:
            raise BudgetExceededError(
                f"sector dimension {comp.dim} exceeds the simulator cap "
                f"{MAX_SIMULATE_DIM}"
            )
        cost += float(args.samples) * float(comp.dim) ** 3 * (comp.sector_params + 2)
    if cost > args.budget:
        raise BudgetExceededError(
            f"estimated cost {cost:.3e} operations exceeds budget {args.budget:.3e}; "
            "lower --samples or raise --budget"
        )
    out = _out_dir(args)
    rng = RngState(args.seed)
    gof_rows = []
    for a, comp in enumerate(model.components):
        comp_rng, ref_rng, cond_rng = rng.split(3)
        mc = mc_landscape(comp, args.samples, comp_rng,
                          collect=("loss", "grad"))
        p = comp.sector_params
        header = ["sample_id", "loss"] + [f"grad_{j}" for j in range(p)]
        table = np.column_stack([mc.losses, mc.gradients]) if p else mc.losses[:, None]
        _write_table(out / f"simulate_component_{a}.csv", header,
                     "%d" + ",%.16e" * (p + 1) + "\n",
                     ((i, *values) for i, values in enumerate(table.tolist())))

        if comp.is_rank_one_input():
            loss_ref = "gamma-closed-form"
            ks = ks_1samp(mc.losses, lambda z: loss_cdf_rank1(comp, z))
        else:
            loss_ref = "wishart-two-sample"
            view = _single_sector_view(comp)
            ref = sample_loss_batch(view, args.samples, ref_rng)[:, 0]
            ks = ks_2samp(mc.losses, ref)
        grad_stat = grad_p = ""
        if p and comp.is_rank_one_input():
            view = _single_sector_view(comp)
            synth = np.empty((args.samples, p))
            for i in range(args.samples):
                draw = sample_gradient_given_loss(view, [mc.losses[i]], cond_rng)
                synth[i] = draw.entries
            # entries of one sample share its state, so they are not
            # independent; they are exchangeable, so test the first of each
            grad_stat, grad_p = map(_fmt, ks_2samp(mc.gradients[:, 0], synth[:, 0]))
        gof_rows.append((a, loss_ref, *map(_fmt, ks), grad_stat, grad_p))
    _write_table(out / "gof.csv",
                 ["component", "loss_reference", "loss_ks_stat", "loss_ks_pvalue",
                  "grad_ks_stat", "grad_ks_pvalue"], "%s,%s,%s,%s,%s,%s\n", gof_rows)
    print(f"wrote {len(model.components)} component file(s) and gof.csv to {out}")
    return 0


def _cmd_minima(args) -> int:
    model = load_model(args.model)
    out = _out_dir(args)
    density = build_minima_density(model, n_grid=args.grid)
    ratios = overparameterization_ratios(model)
    for a, gamma in enumerate(ratios):
        print(f"sector {a}: parameter ratio {_g(gamma)} ({_regime(gamma)})")
    if density.point_mass:
        print("minima law: point mass at zero")
        _write_table(out / "minima.csv", ["z", "density"], "", [])
        return 0
    _write_table(out / "minima.csv", ["z", "density"], "%.16e,%.16e\n",
                 zip(density.z_grid.tolist(), density.density.tolist()))
    print(f"grid mass: {_g(density.mass)}")
    k_eff, theta_eff = welch_satterthwaite(model)
    print(f"matched gamma: shape {_g(k_eff)}, scale {_g(theta_eff)}")
    print(f"wrote minima.csv to {out}")
    return 0


def _cmd_trainability(args) -> int:
    models = [load_model(path) for path in args.model]
    report = trainability_verdict(
        models, polylog_exponent=args.threshold_variance_exponent)
    for path, size, var in zip(args.model, report.sizes, report.variances):
        print(f"{path}: size {int(size)}, normalized variance {_g(var)}")
    print(f"fitted slope of log-variance vs log-log-size: {_g(report.slope)} "
          f"(stderr {_g(report.slope_stderr)})")
    print(f"variance verdict: {report.variance_verdict} "
          f"(boundary {_g(-report.polylog_exponent)})")
    print(f"minima condition (params reach max beta*dof at every size): "
          f"{'ok' if report.minima_ok else 'fail'}")
    print(f"trainable: {'yes' if report.trainable else 'no'}")
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (None, 0):
            return 0
        return code if isinstance(code, int) else 1
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (WishartscapeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
