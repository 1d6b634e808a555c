"""Closed-form landscape statistics: variance, minima law, critical-point
density, trainability verdicts."""

import math

import numpy as np
import pytest
from scipy import stats as sp_stats

from helpers import component, ks_critical, rng, single_model
from wishartscape import (
    NotApplicableError,
    SectorModel,
    TrendUnfitError,
    UndefinedRegimeError,
    ValidationError,
    build_minima_density,
    gp_conditions,
    kac_rice_log_density,
    loss_variance,
    low_purity_applicable,
    low_purity_bound,
    overparameterization_ratios,
    regularized_hessian_sample,
    spectral_stats,
    trainability_verdict,
    welch_satterthwaite,
)
from wishartscape.landscape import (_CONV_BLOCK, _causal_convolve, _gamma_factor_on_grid,
                                    _ols_slope)

# frozen in tests/oracles/mp_log_moment_oracle.py
MP_LOG_HALF = -0.30685281944005469
# frozen in tests/oracles/quenched_det_oracle.py
QUENCHED_EXPONENT = -0.19092130378164224


def quenched_fixture(dim=80, params=40):
    # split spectrum: effective dof exactly dim/2, so gamma = params/(beta*dof)
    half = dim // 2
    return component(beta=2, dim=dim, obs=[0.0] * half + [1.0] * half,
                     params=params)


class TestLossVariance:
    def test_hand_value(self):
        # C sector, dim 4, obs [0,1,2,3], pure input:
        # Tr(O^2) = 14, automorphism dimension 16
        comp = component(beta=2, dim=4, obs=[0, 1, 2, 3])
        assert loss_variance(single_model(comp)) == pytest.approx(14.0 / 16.0)

    def test_index_squares(self):
        a = component(beta=2, dim=4, obs=[0, 1, 2, 3], index=1.0)
        b = component(beta=2, dim=4, obs=[0, 1, 2, 3], index=3.0)
        assert loss_variance(single_model(b)) == pytest.approx(
            9.0 * loss_variance(single_model(a)))

    def test_sectors_add_exactly(self):
        c1 = component(beta=1, dim=6)
        c2 = component(beta=4, dim=5)
        both = SectorModel(components=(c1, c2), total_params=1)
        v1 = loss_variance(single_model(c1))
        v2 = loss_variance(single_model(c2))
        assert loss_variance(both) == pytest.approx(v1 + v2, rel=1e-14)

    def test_mixed_input_shrinks_variance_by_purity(self):
        # purity enters through sum(rho^2) at fixed trace
        pure = component(beta=2, dim=8)
        mixed = component(beta=2, dim=8, rho=np.full(8, 1.0 / 8.0))
        ratio = loss_variance(single_model(mixed)) / loss_variance(single_model(pure))
        assert ratio == pytest.approx(1.0 / 8.0, rel=1e-12)

    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_against_wishart_sampler(self, beta):
        # the closed form equals the diagonal sampler's variance up to the
        # 1/dim automorphism correction and dof rounding; within 3.5% at
        # dim 64
        comp = component(beta=beta, dim=64)
        model = single_model(comp)
        st = spectral_stats(comp)
        m = st.dof
        pref = comp.index * st.mean_eig / m
        sampler_var = pref**2 * 2.0 * m / beta   # pure input
        assert loss_variance(model) == pytest.approx(sampler_var, rel=0.035)


class TestOverparameterizationRatios:
    def test_values(self):
        comp = component(beta=2, dim=4, obs=[0, 1, 2, 3], params=4)
        st = spectral_stats(comp)
        got = overparameterization_ratios(single_model(comp))
        np.testing.assert_allclose(got, [4.0 / (2.0 * st.dof_real)])

    def test_zero_params(self):
        comp = component(beta=2, dim=4, params=0)
        assert overparameterization_ratios(single_model(comp))[0] == 0.0

    def test_per_sector(self):
        c1 = quenched_fixture(params=40)    # gamma 0.5
        c2 = quenched_fixture(params=100)   # gamma 1.25
        model = SectorModel(components=(c1, c2), total_params=140)
        got = overparameterization_ratios(model)
        np.testing.assert_allclose(got, [0.5, 1.25])


class TestMinimaDensity:
    def test_single_sector_is_gamma(self):
        comp = component(beta=2, dim=16, params=8)
        model = single_model(comp)
        st = spectral_stats(comp)
        br = comp.beta * st.dof_real
        scale_z = comp.index * st.mean_eig * comp.input_trace * 2.0 / br
        density = build_minima_density(model)
        expect = sp_stats.gamma.pdf(density.z_grid, a=br / 2.0, scale=scale_z)
        np.testing.assert_allclose(density.density, expect, atol=1e-10)
        assert density.mass == pytest.approx(1.0, abs=1e-3)

    def test_point_mass_when_overparameterized(self):
        comp = quenched_fixture(params=100)
        density = build_minima_density(single_model(comp))
        assert density.point_mass
        assert density.at([0.1, 0.5]).tolist() == [0.0, 0.0]

    def test_overparameterized_sector_drops_out(self):
        under = quenched_fixture(params=40)
        over = quenched_fixture(params=100)
        both = SectorModel(components=(under, over), total_params=140)
        alone = single_model(under)
        d_both = build_minima_density(both)
        d_alone = build_minima_density(alone)
        np.testing.assert_allclose(d_both.density, d_alone.density, atol=1e-12)

    def test_two_identical_sectors_match_moment_fit(self):
        # equal scales make the Welch-Satterthwaite gamma exact, so the grid
        # convolution must land on it
        c = quenched_fixture(dim=200, params=100)   # beta r = 200, gamma 0.5
        model = SectorModel(components=(c, c), total_params=200)
        density = build_minima_density(model)
        k_eff, theta_eff = welch_satterthwaite(model)
        expect = sp_stats.gamma.pdf(density.z_grid, a=k_eff, scale=theta_eff)
        sup = np.max(np.abs(density.density - expect))
        assert sup < 1e-2 * np.max(expect)

    def test_heavy_singular_sector_keeps_mass(self):
        # beta r = 1 has an integrable divergence at 0; the origin-node fix
        # must retain unit mass
        comp = component(beta=1, dim=8, obs=[0, 0, 0, 0, 0, 0, 0, 1.0], params=0)
        density = build_minima_density(single_model(comp))
        assert density.mass == pytest.approx(1.0, abs=1e-3)

    # beta r = 1 sectors (one nonzero observable eigenvalue, pure input) and a
    # smooth underparameterized one, so every convolution meets a factor
    # whose density diverges at 0
    SINGULAR = component(beta=1, dim=8, obs=[0, 0, 0, 0, 0, 0, 0, 1.0])
    SINGULAR_2 = component(beta=1, dim=6, index=2.0, obs=[0, 0, 0, 0, 0, 1.0])
    SMOOTH = component(beta=2, dim=6, obs=[0, 0.5, 1, 2, 2, 3], params=4)
    SINGULAR_MODELS = {"singular-smooth": (SINGULAR, SMOOTH),
                       "smooth-singular": (SMOOTH, SINGULAR),
                       "two-singular": (SINGULAR, SINGULAR_2),
                       "three": (SINGULAR, SMOOTH, SINGULAR_2)}

    def singular_model(self, name):
        comps = self.SINGULAR_MODELS[name]
        model = SectorModel(components=comps, total_params=4)
        ratios = overparameterization_ratios(model)
        assert np.all(ratios < 1.0)
        assert min(c.beta * spectral_stats(c).dof_real for c in comps) < 2.0
        return model

    @pytest.mark.parametrize("n_grid", [1024, 4096])
    @pytest.mark.parametrize("name", sorted(SINGULAR_MODELS))
    def test_singular_factor_in_a_convolution_keeps_mass(self, name, n_grid):
        density = build_minima_density(self.singular_model(name), n_grid=n_grid)
        assert abs(density.mass - 1.0) <= 1e-4

    def test_singular_factor_order_does_not_matter(self):
        a = build_minima_density(self.singular_model("singular-smooth"))
        b = build_minima_density(self.singular_model("smooth-singular"))
        assert a.density.tobytes() == b.density.tobytes()

    @pytest.mark.parametrize("name", sorted(SINGULAR_MODELS))
    def test_singular_grid_cdf_matches_gamma_sums(self, name):
        # seed and size fixed before the test was first run
        model = self.singular_model(name)
        gen, n = np.random.default_rng(23), 20000
        draws = np.zeros(n)
        for c in model.components:
            st = spectral_stats(c)
            br = c.beta * st.dof_real
            draws += gen.gamma(br / 2.0, 2.0 * c.index * st.mean_eig * c.input_trace / br, n)
        density = build_minima_density(model)
        grid, d = density.z_grid, density.density
        cdf = np.concatenate([[0.0], np.cumsum((d[1:] + d[:-1]) * np.diff(grid) / 2.0)])
        at = np.interp(np.sort(draws), grid, cdf)
        ks = max(np.max(np.arange(1, n + 1) / n - at), np.max(at - np.arange(n) / n))
        assert ks < ks_critical(n)

    def test_at_interpolates_grid(self):
        comp = component(beta=2, dim=16, params=8)
        density = build_minima_density(single_model(comp))
        z = density.z_grid[100]
        assert density.at(z) == pytest.approx(density.density[100])

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            build_minima_density(single_model(component(dim=4, params=1)), n_grid=4)

    @pytest.mark.parametrize("bad", ["x", float("nan"), 32.5, True, None])
    def test_grid_must_be_a_count(self, bad):
        with pytest.raises(ValidationError, match="^n_grid must be a positive integer"):
            build_minima_density(single_model(component(dim=4, params=1)), n_grid=bad)


# Rounding bound for the kernel against np.convolve, derived, not fitted.
# Entry k of the causal convolution is c_k = sum_{j <= k} a_j v_{k-j}.  An
# inner product of m terms x_i y_i, evaluated in any order with separate or
# fused multiply-adds and without underflow, is off by at most
# gamma_m sum |x_i y_i|, gamma_m = m u / (1 - m u), u = 2**-53 (Higham,
# Accuracy and Stability of Numerical Algorithms, 2nd ed., eq. 3.5).  Here
# the terms are nonnegative, so that sum is c_k itself.  np.convolve sums
# k + 1 terms; the kernel sums (k // B + 1) B, the extra ones exact zeros of
# the padding.  With m the larger count both results lie within gamma_m c_k
# of c_k, so |kernel - oracle| <= 2 gamma_m c_k <= 2 gamma_m / (1 - gamma_m)
# oracle.
U = 2.0**-53


def gamma_m(m):
    return m * U / (1.0 - m * U)


def entry_bound(n):
    g = gamma_m((np.arange(n) // _CONV_BLOCK + 1) * _CONV_BLOCK)
    return 2.0 * g / (1.0 - g)


def assert_within_rounding(got, oracle, bound):
    assert np.all(got >= 0.0)
    np.testing.assert_array_equal(got == 0.0, oracle == 0.0)
    pos = oracle > 0.0
    assert np.all(np.abs(got[pos] - oracle[pos]) <= bound[pos] * oracle[pos])


def gamma_factors(n):
    """Grid factors of a beta r = 1 sector (origin-cell fix) and a smooth one,
    on n points reaching about twice the larger mean."""
    singular = component(beta=1, dim=8, obs=[0, 0, 0, 0, 0, 0, 0, 1.0])
    smooth = component(beta=2, dim=16, params=8)
    step = 2.0 * max(spectral_stats(c).mean_eig for c in (singular, smooth)) / max(n, 2)
    grid = np.arange(n) * step
    return [_gamma_factor_on_grid(c, grid, step) for c in (singular, smooth)]


class TestCausalConvolve:
    B = _CONV_BLOCK
    SIZES = [1, 2, B - 1, B, B + 1, 3 * B + 7]

    @pytest.mark.parametrize("n", SIZES)
    def test_random_nonnegative_vectors(self, n):
        gen = np.random.default_rng(n)
        a, v = gen.random(n), gen.random(n)
        # runs of exact zeros, so the zero pattern of the output is tested too
        a[n // 3:n // 2] = 0.0
        v[:n // 4] = 0.0
        assert_within_rounding(_causal_convolve(a, v), np.convolve(a, v)[:n], entry_bound(n))

    @pytest.mark.parametrize("n", SIZES)
    def test_gamma_factors(self, n):
        singular, smooth = gamma_factors(n)
        assert singular[0] > 0.0   # the origin cell is the finite fix
        for a, v in ((singular, smooth), (smooth, singular), (smooth, smooth)):
            assert_within_rounding(_causal_convolve(a, v), np.convolve(a, v)[:n],
                                   entry_bound(n))

    def test_three_sectors_match_successive_convolutions(self):
        comps = (component(beta=1, dim=8, obs=[0, 0, 0, 0, 0, 1.0, 1.0, 2.0], params=0),
                 component(beta=2, dim=6, obs=[0, 0.5, 1, 2, 2, 3], params=4),
                 component(beta=4, dim=4, obs=[0, 1, 1, 4], index=2.0, params=2))
        model = SectorModel(components=comps, total_params=6)
        assert np.all(overparameterization_ratios(model) < 1.0)
        density = build_minima_density(model)
        grid = density.z_grid
        n, step = grid.size, grid[1]
        factors = [_gamma_factor_on_grid(c, grid, step) for c in comps]
        oracle = factors[0]
        for factor in factors[1:]:
            oracle = np.convolve(oracle, factor)[:n] * step
        # per stage each route is within (1 + gamma_m)(1 + u) of the exact
        # convolution of its own input, and a relative deviation of the input
        # passes through a nonnegative convolution unchanged
        g = gamma_m(n + self.B)
        stage = (1.0 + g) * (1.0 + U) / ((1.0 - g) * (1.0 - U))
        bound = np.full(n, stage ** (len(comps) - 1) - 1.0)
        assert_within_rounding(density.density, oracle, bound)
        assert abs(density.mass - np.trapezoid(oracle, grid)) <= 1e-12


class TestWelchSatterthwaite:
    def test_single_sector_exact(self):
        comp = component(beta=2, dim=16, params=8)
        st = spectral_stats(comp)
        br = comp.beta * st.dof_real
        k, theta = welch_satterthwaite(single_model(comp))
        assert k == pytest.approx(br / 2.0, rel=1e-12)
        mean = comp.index * st.mean_eig * comp.input_trace
        assert k * theta == pytest.approx(mean, rel=1e-12)

    def test_two_identical_doubles_shape(self):
        c = quenched_fixture(params=40)
        one = welch_satterthwaite(single_model(c))
        two = welch_satterthwaite(SectorModel(components=(c, c), total_params=80))
        assert two[0] == pytest.approx(2.0 * one[0], rel=1e-12)
        assert two[1] == pytest.approx(one[1], rel=1e-12)

    def test_undefined_when_all_overparameterized(self):
        comp = quenched_fixture(params=100)
        with pytest.raises(UndefinedRegimeError):
            welch_satterthwaite(single_model(comp))


class TestKacRice:
    def test_peak_at_sector_mean(self):
        comp = quenched_fixture()
        st = spectral_stats(comp)
        scale = comp.index * st.mean_eig * comp.input_trace
        at_mean = kac_rice_log_density(comp, scale)
        assert at_mean > kac_rice_log_density(comp, 0.5 * scale)
        assert at_mean > kac_rice_log_density(comp, 2.0 * scale)

    def test_frozen_value_at_peak(self):
        # gamma = 0.5 fixture at x = 1: the rate term vanishes and the other
        # three terms are ln(pi * 2 / (2 sqrt 2)) + (1 - euler_gamma - 1) and
        # the frozen MP log-moment
        comp = quenched_fixture()
        st = spectral_stats(comp)
        scale = comp.index * st.mean_eig * comp.input_trace
        expect = math.log(math.pi / math.sqrt(2.0)) - np.euler_gamma + MP_LOG_HALF
        assert kac_rice_log_density(comp, scale) == pytest.approx(expect, abs=1e-12)
        assert expect == pytest.approx(-0.08591218877216011, abs=1e-12)

    def test_overparameterized_is_minus_inf(self):
        comp = quenched_fixture(params=100)
        assert kac_rice_log_density(comp, 0.3) == -np.inf

    def test_validation(self):
        comp = quenched_fixture()
        with pytest.raises(ValidationError):
            kac_rice_log_density(comp, 0.0)
        with pytest.raises(ValidationError):
            kac_rice_log_density(component(dim=4, params=0), 0.5)

    @pytest.mark.parametrize("z", [True, "0.5", -0.5, np.nan, np.inf])
    def test_z_must_be_a_positive_number(self, z):
        with pytest.raises(ValidationError, match="z must be"):
            kac_rice_log_density(quenched_fixture(), z)

    def test_quenched_determinant_monte_carlo(self):
        # Monte Carlo mean of p^-1 ln det of the regularized Hessian block
        # against the frozen asymptotic exponent; the finite-size bias is
        # 4.5% (tests/oracles/quenched_det_oracle.py), inside the 10% band
        comp = quenched_fixture()     # dim 80, dof 40, p 40, gamma 0.5
        r = rng(17)
        p = comp.sector_params
        reps = 6000
        vals = np.empty(reps)
        for i in range(reps):
            h = regularized_hessian_sample(comp, r)
            sign, logdet = np.linalg.slogdet(h)
            assert sign > 0
            vals[i] = logdet / p
        mc = vals.mean()
        assert mc == pytest.approx(QUENCHED_EXPONENT, rel=0.10)


class TestGPConditions:
    def test_variance_term_and_floor(self):
        comp = component(beta=2, dim=8)
        model = single_model(comp, normalization=2.0)
        rep = gp_conditions(model, variance_exponent=1.0)
        assert rep.variance_term == pytest.approx(4.0 * loss_variance(model))
        assert rep.variance_floor == pytest.approx(1.0 / 8.0)

    def test_cumulant_hand_value(self):
        # pure input: third-moment scale mean^3 / dof^2
        comp = component(beta=2, dim=4, obs=[0, 1, 2, 3])
        st = spectral_stats(comp)
        rep = gp_conditions(single_model(comp))
        expect = st.mean_eig**3 / st.dof_real**2
        assert rep.cumulant_term == pytest.approx(expect, rel=1e-12)

    def test_plausible_requires_both(self):
        comp = component(beta=2, dim=8)
        model = single_model(comp)
        strict = gp_conditions(model, cumulant_threshold=1e-12)
        assert not strict.cumulant_ok
        assert not strict.plausible
        loose = gp_conditions(model, variance_exponent=4.0,
                              cumulant_threshold=10.0)
        assert loose.variance_ok and loose.cumulant_ok and loose.plausible

    def test_threshold_validation(self):
        with pytest.raises(ValidationError):
            gp_conditions(single_model(component(dim=4)), cumulant_threshold=0.0)

    @pytest.mark.parametrize("kwargs", [{"variance_exponent": math.nan},
                                        {"variance_exponent": -0.5},
                                        {"cumulant_threshold": math.nan}])
    def test_nan_and_negative_thresholds_refused(self, kwargs):
        # every comparison with NaN is false, so a NaN threshold used to
        # pass the check and report "fail"
        with pytest.raises(ValidationError, match=next(iter(kwargs))):
            gp_conditions(single_model(component(dim=4)), **kwargs)

    def test_cumulant_scale_overflow_names_the_sector(self):
        # the index cube alone is finite; times obar^3 = 27 it is not
        model = single_model(component(dim=4, index=5e102, obs=[0, 2, 4, 6]))
        with pytest.raises(ValidationError, match="^sector 0: the third-cumulant scale "
                           r".* overflows the float range$"):
            gp_conditions(model)

    def test_normalized_variance_overflow_refused(self):
        model = single_model(component(dim=4), normalization=1e200)
        with pytest.raises(ValidationError, match="^model: normalization\\^2 times the loss "
                           "variance overflows the float range$"):
            gp_conditions(model)

    def test_normalization_with_finite_cube_accepted(self):
        rep = gp_conditions(single_model(component(dim=4), normalization=5e102))
        assert math.isfinite(rep.cumulant_term)

    def test_infinite_thresholds_allowed(self):
        rep = gp_conditions(single_model(component(dim=4)), variance_exponent=math.inf,
                            cumulant_threshold=math.inf)
        assert rep.variance_floor == 0.0 and rep.cumulant_ok


class TestProductOverflow:
    # fields each inside the float range: index 1e100 times a spectrum of
    # mean 1.5e100 gives a mean loss of 1.5e200, whose square overflows
    def _model(self):
        return single_model(component(dim=4, index=1e100, obs=[0, 1e100, 2e100, 3e100],
                                      params=1))

    def test_loss_variance_names_the_sector(self):
        with pytest.raises(ValidationError,
                           match="^sector 0: the loss variance overflows the float range$"):
            loss_variance(self._model())

    @pytest.mark.parametrize("call", [build_minima_density, welch_satterthwaite])
    def test_minima_law_variance_names_the_sector(self, call):
        with pytest.raises(ValidationError, match="^sector 0: the variance 2 mean"):
            call(self._model())


def family(sizes, scale_obs=False, params_of=None):
    models = []
    for n in sizes:
        obs = np.linspace(0.0, 1.0, n)
        if scale_obs:
            obs = obs * np.sqrt(n)
        p = params_of(n) if params_of else 4 * n
        comp = component(beta=2, dim=n, obs=obs, params=p)
        models.append(single_model(comp, total_params=p))
    return models


class TestTrainability:
    def test_exponential_sizes_vanish(self):
        models = family([2**k for k in range(2, 7)])
        rep = trainability_verdict(models)
        assert rep.variance_verdict == "vanishing"
        assert not rep.trainable

    def test_extensive_observable_stays_trainable(self):
        # sqrt(N)-scaled spectrum keeps the normalized variance flat
        models = family([k * k for k in range(2, 7)], scale_obs=True)
        rep = trainability_verdict(models)
        assert rep.variance_verdict == "non-vanishing"
        assert rep.minima_ok
        assert rep.trainable

    def test_boundary_is_inconclusive(self):
        # normalization tuned so the normalized variance is 1/ln N up to a
        # deliberate 5% wobble: the fit then straddles the boundary slope
        # with a standard error much larger than the offset
        models = []
        for j, n in enumerate([2**k for k in range(2, 7)]):
            comp = component(beta=2, dim=n, params=4 * n)
            v = loss_variance(single_model(comp))
            wobble = 1.05 if j % 2 == 0 else 1.0 / 1.05
            norm = math.sqrt(wobble / (v * math.log(n)))
            models.append(single_model(comp, total_params=4 * n,
                                       normalization=norm))
        rep = trainability_verdict(models)
        assert rep.variance_verdict == "inconclusive"
        assert not rep.trainable

    def test_normalized_variance_overflow_names_the_model(self):
        # only the second model's normalization squares out of the float range
        models = [single_model(component(beta=2, dim=n), normalization=norm)
                  for n, norm in ((4, 1.0), (8, 1e200), (16, 1.0))]
        with pytest.raises(ValidationError, match="^model 1: normalization\\^2 times the "
                           "loss variance overflows the float range$"):
            trainability_verdict(models)

    def test_loss_variance_overflow_names_the_model(self):
        # only the second model's index times its spectrum squares out of
        # the float range; the refusal names the model, then the sector
        models = [single_model(component(beta=2, dim=4)),
                  single_model(component(beta=2, dim=8, index=1e100,
                                         obs=1e100 * np.arange(8.0))),
                  single_model(component(beta=2, dim=16))]
        with pytest.raises(ValidationError, match="^model 1: sector 0: the loss variance "
                           "overflows the float range$"):
            trainability_verdict(models)

    def test_minima_condition_blocks_trainable(self):
        # flat normalized variance but too few parameters at every size
        models = family([k * k for k in range(2, 7)], scale_obs=True,
                        params_of=lambda n: max(1, n // 8))
        rep = trainability_verdict(models)
        assert rep.variance_verdict == "non-vanishing"
        assert not rep.minima_ok
        assert not rep.trainable

    @pytest.mark.parametrize("exponent", [math.nan, -1.0])
    def test_exponent_must_be_nonnegative(self, exponent):
        # a NaN exponent used to give "non-vanishing" for any slope
        with pytest.raises(ValidationError, match="polylog_exponent"):
            trainability_verdict(family([4, 16, 64]), polylog_exponent=exponent)

    def test_needs_three_distinct_sizes(self):
        models = family([8, 8, 8])
        with pytest.raises(TrendUnfitError):
            trainability_verdict(models)

    def test_report_fields(self):
        models = family([4, 16, 64])
        rep = trainability_verdict(models, polylog_exponent=2.0)
        assert rep.polylog_exponent == 2.0
        assert rep.sizes.tolist() == [4.0, 16.0, 64.0]
        assert rep.slope_stderr >= 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", [3, 5, 40])
    def test_slope_matches_linregress(self, seed, n):
        g = np.random.default_rng(seed)
        x = np.log(np.log(np.sort(g.uniform(2.0, 1e4, n))))
        y = -1.7 * x + g.normal(0.0, 0.3, n)
        slope, stderr = _ols_slope(x, y)
        fit = sp_stats.linregress(x, y)
        assert slope == pytest.approx(fit.slope, rel=1e-12)
        assert stderr == pytest.approx(fit.stderr, rel=1e-10)

    def test_verdict_slope_matches_linregress(self):
        models = family([2**k for k in range(2, 7)], scale_obs=True)
        rep = trainability_verdict(models)
        fit = sp_stats.linregress(np.log(np.log(rep.sizes)), np.log(rep.variances))
        assert rep.slope == pytest.approx(fit.slope, rel=1e-12)
        assert rep.slope_stderr == pytest.approx(fit.stderr, rel=1e-9, abs=1e-15)

    def test_exact_line_has_zero_stderr(self):
        x = np.array([0.1, 0.4, 0.9, 1.3])
        slope, stderr = _ols_slope(x, 2.0 - 0.5 * x)
        assert slope == pytest.approx(-0.5, rel=1e-14)
        assert stderr == pytest.approx(0.0, abs=1e-7)


class TestLowPurity:
    def test_applicability(self):
        mixed = component(beta=2, dim=16, rho=np.full(16, 1.0 / 16.0))
        pure = component(beta=2, dim=16)
        assert low_purity_applicable(mixed)
        # a trace whose square underflows leaves the purity 1/16
        assert low_purity_applicable(component(beta=2, dim=16, rho=np.full(16, 1e-200)))
        assert not low_purity_applicable(pure)

    def test_bound_value(self):
        # chunk count at dim 16 is ceil(16 / floor(16^0.999)) = 2, so the
        # bound is 4x the closed-form variance
        comp = component(beta=2, dim=16, rho=np.full(16, 1.0 / 16.0))
        v = loss_variance(single_model(comp))
        assert low_purity_bound(comp) == pytest.approx(4.0 * v, rel=1e-12)

    def test_bound_dominates_true_variance(self):
        comp = component(beta=2, dim=32, rho=np.full(32, 1.0 / 32.0))
        assert low_purity_bound(comp) >= loss_variance(single_model(comp))

    def test_not_applicable_raises(self):
        with pytest.raises(NotApplicableError):
            low_purity_bound(component(beta=2, dim=16))

    def test_ceiling_overflow_refused_at_comp(self):
        # 1e200 squared leaves the float range; the ceiling is refused, not inf
        comp = component(beta=2, dim=16, rho=np.full(16, 1.0 / 16.0))
        with pytest.raises(ValidationError, match="^comp: normalization\\^2 times the "
                           "low-purity variance ceiling overflows the float range$"):
            low_purity_bound(comp, 1e200)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -2.0, 0.0, "1", True])
    def test_normalization_checked_as_in_sector_model(self, bad):
        comp = component(beta=2, dim=16, rho=np.full(16, 1.0 / 16.0))
        with pytest.raises(ValidationError, match="^normalization must be a positive float"):
            low_purity_bound(comp, bad)
        with pytest.raises(ValidationError, match="^normalization must be a positive float"):
            single_model(comp, normalization=bad)
