"""Desk-scale statistical acceptance checks.

One test per contracted behavior, end to end, with its tolerance stated
inline and frozen.  Where a closed form is an asymptotic law, the assertion
states its exact finite-size relation to the circuit (derived in a comment
next to it) at the same tolerance; the bound is never loosened.
"""

import csv
import json

import numpy as np
import pytest
from scipy import stats as sp_stats
from scipy.integrate import quad

from helpers import (
    component,
    fd_gradient,
    fd_hessian,
    ks_2samp_critical,
    ks_critical,
    marchenko_pastur_pdf,
    marchenko_pastur_support,
    project_into_component,
    rng,
    single_model,
)
from wishartscape import (
    FIELD_C,
    FIELD_H,
    FIELD_R,
    SectorModel,
    build_ansatz,
    build_minima_density,
    dim_automorphism,
    grad_eval,
    hessian_eval,
    loss_cdf_rank1,
    loss_pdf_rank1,
    loss_variance,
    mc_landscape,
    mp_log_moment,
    rank1_gamma_params,
    sample_hessian_at_critical,
    spectral_stats,
    trainability_verdict,
    welch_satterthwaite,
    wishart_bartlett,
    wishart_direct,
)
from wishartscape.cli import main

SPLIT_200 = [0.0] * 100 + [1.0] * 100


# --------------------------------------------------------------------------
# closed-form loss variance vs the exact circuit simulator

@pytest.mark.parametrize("beta", [1, 2, 4])
def test_circuit_loss_variance_matches_closed_form(beta):
    # dim 8, pure input, generic seeded spectrum, 1e5 exact circuit draws:
    # the circuit variance must land within 5% relative of kappa times the
    # closed form.  loss_variance is the r/N -> 0 law
    # I^2 Tr(O_s^2) Tr(rho^2) / dim_aut; the exact Haar variance is
    # I^2 Tr(O_c^2) Tr(rho_c^2) / d0 with centred traces
    # Tr(O_c^2) = Tr(O_s^2) (1 - r/N), Tr(rho_c^2) = Tr(rho^2) (1 - tr(rho)^2
    # / (N Tr(rho^2))) and d0 the Weingarten second-moment dimension, so the
    # two differ by exactly kappa below (about 0.23, 0.29, 0.33 here)
    obs = np.sort(np.random.default_rng(811).uniform(0.0, 1.0, 8))
    comp = component(beta=beta, dim=8, obs=obs)
    mc = mc_landscape(comp, 100_000, rng(1000 + beta))
    formula = loss_variance(single_model(comp))
    n = comp.dim
    r = spectral_stats(comp).dof_real
    rho = comp.input_spectrum
    d0 = {1: (n - 1) * (n + 2) / 2.0, 2: n * n - 1.0, 4: 2.0 * n * n - n - 1.0}
    kappa = ((1.0 - r / n)
             * (1.0 - np.sum(rho)**2 / (n * np.sum(rho**2)))
             * dim_automorphism(comp.field, n) / d0[beta])
    assert float(mc.losses.var()) == pytest.approx(kappa * formula, rel=0.05)


# --------------------------------------------------------------------------
# loss law at full effective rank (flat observable)

def test_flat_observable_loss_matches_gamma_law():
    # dim 64 complex sector, flat observable (effective dof = dim), rank-one
    # input, 1e4 circuit draws.  With O = I the circuit loss tr(rho U I U^dag)
    # = tr(rho) is a constant: at r = N the finite-size factor kappa of the
    # loss variance carries 1 - r/N = 0, so the law the circuit meets
    # is the point mass at the gamma mean k * theta (its variance
    # kappa * k * theta^2 = 0).  A KS test of that point mass against the
    # continuous gamma law would read at least 1/2 at any size, so the
    # assertion is on the mean and the vanishing spread instead
    comp = component(beta=2, dim=64, obs=np.ones(64))
    mc = mc_landscape(comp, 10_000, rng(64))
    raw = mc.losses + mc.loss_floor
    k, theta = rank1_gamma_params(comp, shift=False)
    np.testing.assert_allclose(raw, k * theta, rtol=0.0, atol=1e-12)


# --------------------------------------------------------------------------
# loss law at effective rank one (exponential)

def test_rank_one_observable_loss_is_exponential():
    # dim 64 complex sector, rank-one observable and input: the loss law is
    # exponential with mean 1/64; KS at the 1% critical value over 1e4 draws
    comp = component(beta=2, dim=64, obs=[0.0] * 63 + [1.0])
    k, scale = rank1_gamma_params(comp)
    assert k == pytest.approx(1.0)
    assert scale == pytest.approx(1.0 / 64.0)
    mc = mc_landscape(comp, 10_000, rng(65))
    stat = sp_stats.kstest(mc.losses, lambda z: loss_cdf_rank1(comp, z)).statistic
    assert stat < ks_critical(10_000, alpha=0.01)


# --------------------------------------------------------------------------
# conditional gradient variance, linear in the loss value

def test_conditional_gradient_variance_slope():
    # dim 64 complex, half-flat observable, pure input: quantile-bin the
    # circuit losses, fit the conditional gradient-entry variance through
    # the origin, and compare against the closed-form slope within 10%
    comp = component(beta=2, dim=64, obs=[0.0] * 32 + [1.0] * 32, params=2)
    n = 50_000
    mc = mc_landscape(comp, n, rng(4), collect=("loss", "grad"))
    st = spectral_stats(comp)
    amp = 2.0 * st.std_eig / comp.dim     # unit index, unit input trace
    # for a pure input psi and unit generators of period 2 pi, averaging the
    # generator's frame over the group gives Var[d_i loss | psi] =
    # 4 max(2, beta) (psi^dag O^2 psi - loss^2) / (beta^2 N^2), whose
    # linear-in-loss form is amp^2 max(2, beta) z / (beta^2 obar)
    theory_slope = amp**2 * max(2, comp.beta) / comp.beta**2 / st.mean_eig
    edges = np.quantile(mc.losses, np.linspace(0.0, 1.0, 13))
    which = np.clip(np.searchsorted(edges, mc.losses, side="right") - 1, 0, 11)
    zbar = np.empty(12)
    var = np.empty(12)
    for b in range(12):
        sel = which == b
        zbar[b] = mc.losses[sel].mean()
        var[b] = mc.gradients[sel].ravel().var()
    fitted = float(np.sum(zbar * var) / np.sum(zbar * zbar))
    assert fitted == pytest.approx(theory_slope, rel=0.10)


# --------------------------------------------------------------------------
# sign structure of conditional Hessians at critical points

def test_psd_hessian_draws_have_nonnegative_gaussians():
    # over 1e4 conditional Hessian draws, every positive-semidefinite draw
    # must carry a nonnegative Gaussian vector; zero violations allowed
    model = single_model(component(beta=2, dim=8, params=4), total_params=4)
    r = rng(5)
    found_psd = 0
    violations = 0
    for _ in range(10_000):
        draw = sample_hessian_at_critical(model, [0.5], r)
        if np.linalg.eigvalsh(draw.matrix)[0] >= 0.0:
            found_psd += 1
            if np.min(draw.gaussians[0]) < 0.0:
                violations += 1
    assert found_psd >= 50          # the check must not be vacuous
    assert violations == 0


# --------------------------------------------------------------------------
# Wishart sampling routes agree

@pytest.mark.parametrize("beta", [1, 2, 4])
def test_wishart_factorization_routes_agree(beta):
    # direct Gram route vs triangular-factor route, dim 6, dof 9, 1e4 draws
    # per route: diagonal and off-diagonal entry marginals pass two-sample
    # KS at the 1% level in at least 18 of 20 repetitions
    n = 10_000
    crit = ks_2samp_critical(n, n, alpha=0.01)
    r1, r2 = rng(600 + beta), rng(700 + beta)
    passes = 0
    for _ in range(20):
        diag = np.empty((2, n))
        off = np.empty((2, n))
        for route, source in enumerate((
            lambda: wishart_direct(beta, 6, 9, r1).matrix,
            lambda: wishart_bartlett(beta, 6, 9, r2).matrix,
        )):
            for i in range(n):
                w = source()
                if beta == 4:
                    diag[route, i] = w[0, 0, 0]
                    off[route, i] = w[1, 0, 1]
                else:
                    diag[route, i] = np.real(w[0, 0])
                    off[route, i] = np.real(w[1, 0])
        ok = (sp_stats.ks_2samp(diag[0], diag[1]).statistic < crit
              and sp_stats.ks_2samp(off[0], off[1]).statistic < crit)
        passes += int(ok)
    assert passes >= 18


# --------------------------------------------------------------------------
# bulk spectrum of normalized Wishart matrices

def test_wishart_spectrum_matches_bulk_density():
    # dim 200 at aspect ratio 0.5: L1 distance between the pooled empirical
    # spectrum of W/dof (20 draws, 25 equal bins on the support) and the
    # closed-form bulk density is at most 0.05
    dim, dof = 200, 400
    r = rng(7)
    eigs = np.concatenate([
        np.linalg.eigvalsh(wishart_direct(2, dim, dof, r).matrix / dof)
        for _ in range(20)
    ])
    gamma = dim / dof
    lo, hi = marchenko_pastur_support(gamma)
    edges = np.linspace(lo, hi, 26)
    hist, _ = np.histogram(eigs, bins=edges, density=True)
    centers = (edges[:-1] + edges[1:]) / 2.0
    l1 = float(np.sum(np.abs(hist - marchenko_pastur_pdf(gamma, centers)))
               * (edges[1] - edges[0]))
    assert l1 <= 0.05


def test_log_moment_at_unit_aspect_ratio():
    assert mp_log_moment(1.0) == pytest.approx(-1.0, abs=1e-6)


# --------------------------------------------------------------------------
# gamma-convolution moment fit

def test_two_sector_minima_density_collapses_to_moment_fit():
    # two sectors with 200 degrees of freedom each: the grid convolution of
    # the two gamma factors must match the moment-fitted single gamma to a
    # sup-distance of 1e-2
    c = component(beta=2, dim=200, obs=SPLIT_200, params=100)
    model = SectorModel(components=(c, c), total_params=200)
    density = build_minima_density(model)
    k_eff, theta_eff = welch_satterthwaite(model)
    expect = sp_stats.gamma.pdf(density.z_grid, a=k_eff, scale=theta_eff)
    assert float(np.max(np.abs(density.density - expect))) <= 1e-2


def test_moment_fit_hand_example():
    # two sectors, each with mean loss 1/2 and 16 degrees of freedom: the
    # matched gamma is exactly (16, 1/16)
    c = component(beta=2, dim=16, obs=[0.0] * 8 + [1.0] * 8, params=8)
    model = SectorModel(components=(c, c), total_params=16)
    k_eff, theta_eff = welch_satterthwaite(model)
    assert k_eff == 16.0
    assert theta_eff == 1.0 / 16.0


# --------------------------------------------------------------------------
# exact identities

def test_dispersion_identity():
    # sqrt(dim / dof - 1) equals spread over mean on the shifted spectrum
    for obs in ([0.0, 1.0, 2.0, 3.0],
                np.linspace(0.0, 1.0, 9) ** 2,
                [0.0, 0.0, 5.0],
                np.sort(np.random.default_rng(9).uniform(1.0, 3.0, 17))):
        obs = np.asarray(obs, dtype=float)
        st = spectral_stats(obs)
        lhs = np.sqrt(obs.size / st.dof_real - 1.0)
        assert lhs == pytest.approx(st.std_eig / st.mean_eig, abs=1e-10)


def test_automorphism_dimension_closed_forms():
    expect = {
        (FIELD_R, 1): 0, (FIELD_R, 4): 6, (FIELD_R, 8): 28,
        (FIELD_C, 4): 16, (FIELD_C, 64): 4096,
        (FIELD_H, 1): 3, (FIELD_H, 4): 36,
    }
    for (field, dim), value in expect.items():
        assert dim_automorphism(field, dim) == value


def test_projection_idempotent():
    basis = [m / np.sqrt(2.0) for m in (
        np.eye(2, dtype=complex),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    )]
    g = np.random.default_rng(19)
    raw = g.normal(size=(2, 2)) + 1j * g.normal(size=(2, 2))
    m = raw + np.conj(raw.T)
    coeffs1, proj1 = project_into_component(m, basis)
    coeffs2, proj2 = project_into_component(proj1, basis)
    np.testing.assert_allclose(proj1, proj2, atol=1e-10)
    np.testing.assert_allclose(coeffs1, coeffs2, atol=1e-10)
    np.testing.assert_allclose(proj1, m, atol=1e-10)   # basis is complete


def test_loss_density_normalized():
    comp = component(beta=4, dim=6, index=2.0)
    mass, _ = quad(lambda z: float(loss_pdf_rank1(comp, z)), 0.0, 60.0,
                   limit=200)
    assert abs(mass - 1.0) <= 1e-10


# --------------------------------------------------------------------------
# analytic derivatives vs finite differences

@pytest.mark.parametrize("beta", [1, 2, 4])
def test_derivatives_match_finite_differences(beta):
    # 100 random circuit instances at dim 8: analytic gradient within 1e-6
    # of central differences, analytic Hessian within 1e-4
    comp = component(beta=beta, dim=8, params=3)
    worst_grad = 0.0
    worst_hess = 0.0
    for seed in range(100):
        inst = build_ansatz(comp, rng(10_000 + seed))
        worst_grad = max(worst_grad, float(np.max(np.abs(
            grad_eval(inst) - fd_gradient(inst)))))
        worst_hess = max(worst_hess, float(np.max(np.abs(
            hessian_eval(inst) - fd_hessian(inst)))))
    assert worst_grad <= 1e-6
    assert worst_hess <= 1e-4


# --------------------------------------------------------------------------
# minima-density phase transition

def test_minima_density_phase_transition():
    under = component(beta=2, dim=200, obs=SPLIT_200, params=180)  # ratio 0.9
    over = component(beta=2, dim=200, obs=SPLIT_200, params=220)   # ratio 1.1
    d_under = build_minima_density(single_model(under))
    assert not d_under.point_mass
    assert d_under.mass == pytest.approx(1.0, abs=1e-3)
    d_over = build_minima_density(single_model(over))
    assert d_over.point_mass
    assert d_over.z_grid.size == 0
    assert np.all(d_over.at([0.2, 1.0]) == 0.0)
    both = SectorModel(components=(under, over), total_params=400)
    d_both = build_minima_density(both)
    np.testing.assert_array_equal(d_both.density, d_under.density)


# --------------------------------------------------------------------------
# trainability verdicts

def test_trainability_scaling_verdicts():
    exponential = []
    for n in [2**k for k in range(2, 7)]:
        comp = component(beta=2, dim=n, params=4 * n)
        exponential.append(single_model(comp, total_params=4 * n))
    rep = trainability_verdict(exponential)
    assert rep.variance_verdict == "vanishing"
    assert not rep.trainable

    polynomial = []
    for n in [k * k for k in range(2, 7)]:
        obs = np.linspace(0.0, 1.0, n) * np.sqrt(n)
        comp = component(beta=2, dim=n, obs=obs, params=4 * n)
        polynomial.append(single_model(comp, total_params=4 * n))
    rep = trainability_verdict(polynomial)
    assert rep.variance_verdict == "non-vanishing"
    assert rep.minima_ok
    assert rep.trainable


# --------------------------------------------------------------------------
# CLI determinism

def _write_model(path, *, dim=8, params=3, total=None):
    doc = {
        "total_params": total if total is not None else max(params, 1),
        "components": [{
            "field": "C",
            "dim": dim,
            "index": 1,
            "observable_spectrum": list(np.linspace(0.0, 1.0, dim)),
            "input_spectrum": {"pure": True},
            "sector_params": params,
        }],
    }
    path.write_text(json.dumps(doc))
    return str(path)


def _stdout_of(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


def test_cli_byte_identical_reruns(tmp_path, capsys):
    model = _write_model(tmp_path / "m.json")
    family = [_write_model(tmp_path / f"f{n}.json", dim=n, params=4 * n,
                           total=4 * n) for n in (4, 16, 64)]

    out = _stdout_of(capsys, ["analyze", "--model", model])
    assert out == _stdout_of(capsys, ["analyze", "--model", model])

    out = _stdout_of(capsys, ["trainability", "--model", *family])
    assert out == _stdout_of(capsys, ["trainability", "--model", *family])

    runs = {}
    for tag in ("a", "b"):
        d = tmp_path / f"sample_{tag}"
        _stdout_of(capsys, ["sample", "--model", model, "--out", str(d),
                            "--samples", "25", "--seed", "11"])
        runs[tag] = d
    for name in ("losses.csv", "gradients.csv", "hessians.csv"):
        assert (runs["a"] / name).read_bytes() == (runs["b"] / name).read_bytes()

    for tag in ("a", "b"):
        d = tmp_path / f"simulate_{tag}"
        _stdout_of(capsys, ["simulate", "--model", model, "--out", str(d),
                            "--samples", "25", "--seed", "11"])
        runs[tag] = d
    for name in ("simulate_component_0.csv", "gof.csv"):
        assert (runs["a"] / name).read_bytes() == (runs["b"] / name).read_bytes()

    texts = {}
    for tag in ("a", "b"):
        d = tmp_path / f"minima_{tag}"
        # the report echoes the chosen output directory; normalize it so the
        # comparison sees only the data-bearing lines
        texts[tag] = _stdout_of(capsys, ["minima", "--model", model,
                                         "--out", str(d), "--grid", "512"]
                                ).replace(str(d), "<out>")
        runs[tag] = d
    assert texts["a"] == texts["b"]
    assert ((runs["a"] / "minima.csv").read_bytes()
            == (runs["b"] / "minima.csv").read_bytes())
