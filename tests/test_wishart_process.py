"""Loss, conditional gradient and conditional Hessian samplers."""

import numpy as np
import pytest
from scipy import stats as sp_stats
from scipy.integrate import quad

from helpers import (
    component,
    ks_2samp_critical,
    ks_critical,
    marchenko_pastur_pdf,
    marchenko_pastur_support,
    rng,
    single_model,
)
from wishartscape import (
    UnsupportedConfigurationError,
    ValidationError,
    loss_cdf_rank1,
    loss_pdf_rank1,
    rank1_gamma_params,
    regularized_hessian_sample,
    sample_gradient_given_loss,
    sample_hessian_at_critical,
    sample_loss_batch,
    spectral_stats,
)
from wishartscape.randmat import wishart_direct


def generic_model(beta=2, dim=16, index=1.0, params=6):
    comp = component(beta=beta, dim=dim, index=index,
                     obs=np.linspace(0.0, 1.0, dim), params=params)
    return single_model(comp)


class TestSampleLoss:
    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_mean(self, beta):
        model = generic_model(beta=beta, dim=12, index=2.0)
        comp = model.components[0]
        st = spectral_stats(comp)
        n = 20000
        draws = sample_loss_batch(model, n, rng(beta))
        expect = comp.index * st.mean_eig * comp.input_trace
        se = draws[:, 0].std() / np.sqrt(n)
        assert abs(draws[:, 0].mean() - expect) < 5 * se

    def test_same_seed_reproduces(self):
        model = generic_model()
        a = sample_loss_batch(model, 50, rng(5))
        b = sample_loss_batch(model, 50, rng(5))
        np.testing.assert_array_equal(a, b)

    def test_index_scales_losses_exactly(self):
        # same seed, doubled index: identical chi-square draws, doubled loss
        base = component(dim=8, index=1.0)
        doubled = component(dim=8, index=2.0)
        a = sample_loss_batch(single_model(base), 40, rng(6))
        b = sample_loss_batch(single_model(doubled), 40, rng(6))
        np.testing.assert_allclose(2.0 * a, b, rtol=1e-12)

    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_variance_against_sampler_law(self, beta):
        # the sampler's own variance: (I mean / m)^2 * sum(rho^2) * 2 m / beta
        model = generic_model(beta=beta, dim=12)
        comp = model.components[0]
        st = spectral_stats(comp)
        m = st.dof
        pref = comp.index * st.mean_eig / m
        expect = pref**2 * float(np.sum(comp.input_spectrum**2)) * 2.0 * m / beta
        n = 40000
        draws = sample_loss_batch(model, n, rng(10 + beta))[:, 0]
        assert draws.var() == pytest.approx(expect, rel=0.06)

    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_diagonal_shortcut_matches_full_wishart(self, beta):
        # dual route: the sampler draws only chi-square diagonals; the full
        # Wishart conjugation route must give the same law
        dim, n = 6, 3000
        comp = component(beta=beta, dim=dim, obs=np.linspace(0, 1, dim),
                         rho=[0.4, 0.3, 0.2, 0.1, 0.0, 0.0])
        model = single_model(comp)
        st = spectral_stats(comp)
        pref = comp.index * st.mean_eig / st.dof
        fast = sample_loss_batch(model, n, rng(20 + beta))[:, 0]
        slow_rng = rng(120 + beta)
        slow = np.empty(n)
        for i in range(n):
            w = wishart_direct(beta, dim, st.dof, slow_rng)
            slow[i] = pref * float(comp.input_spectrum @ w.real_diagonal())
        s = sp_stats.ks_2samp(fast, slow).statistic
        assert s < ks_2samp_critical(n, n)

    def test_batch_validation(self):
        with pytest.raises(ValidationError):
            sample_loss_batch(generic_model(), 0, rng(0))


class TestRankOneLaw:
    def test_requires_rank_one(self):
        comp = component(dim=4, rho=[0.5, 0.5, 0.0, 0.0])
        with pytest.raises(UnsupportedConfigurationError):
            rank1_gamma_params(comp)

    def test_exponential_special_case(self):
        # single nonzero eigenvalue: dof 1, complex field, so shape exactly 1
        comp = component(beta=2, dim=8, obs=[0, 0, 0, 0, 0, 0, 0, 1.0])
        k, scale = rank1_gamma_params(comp)
        assert k == pytest.approx(1.0)
        assert scale == pytest.approx(2.0 * (1.0 / 8.0) / 2.0)
        assert loss_pdf_rank1(comp, 0.0) == pytest.approx(1.0 / scale)

    def test_pdf_normalized(self):
        comp = component(beta=2, dim=16)
        k, scale = rank1_gamma_params(comp)
        mass, _ = quad(lambda z: loss_pdf_rank1(comp, z), 0, 60 * k * scale)
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_mean_is_index_mean_trace(self):
        comp = component(beta=4, dim=10, index=3.0)
        st = spectral_stats(comp)
        k, scale = rank1_gamma_params(comp)
        assert k * scale == pytest.approx(comp.index * st.mean_eig * comp.input_trace)

    def test_mode_location(self):
        # gamma mode (k - 1) * scale, equivalently mean * (beta r - 2)/(beta r)
        comp = component(beta=2, dim=16)
        st = spectral_stats(comp)
        k, scale = rank1_gamma_params(comp)
        grid = np.linspace(1e-6, 2.0 * k * scale, 200001)
        peak = grid[np.argmax(loss_pdf_rank1(comp, grid))]
        mean = comp.index * st.mean_eig * comp.input_trace
        expect = mean * (comp.beta * st.dof_real - 2.0) / (comp.beta * st.dof_real)
        assert peak == pytest.approx(expect, rel=1e-3)

    def test_shift_toggle_flat_spectrum(self):
        # a flat spectrum only has a law with the shift disabled: dof = dim
        comp = component(beta=2, dim=8, obs=np.ones(8))
        k, scale = rank1_gamma_params(comp, shift=False)
        assert k == pytest.approx(8.0)
        assert k * scale == pytest.approx(1.0)

    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_sampler_matches_pdf_at_integer_dof(self, beta):
        # spectrum of 8 ones and 8 zeros has dof exactly 8, so the sampled
        # law and the closed form coincide (no rounding gap)
        dim, n = 16, 4000
        comp = component(beta=beta, dim=dim,
                         obs=[0.0] * 8 + [1.0] * 8)
        model = single_model(comp)
        draws = sample_loss_batch(model, n, rng(30 + beta))[:, 0]
        stat = sp_stats.kstest(draws, lambda z: loss_cdf_rank1(comp, z)).statistic
        assert stat < ks_critical(n)

    def test_cdf_matches_pdf_derivative(self):
        comp = component(beta=2, dim=12)
        z = np.linspace(0.05, 1.0, 9)
        h = 1e-6
        num = (loss_cdf_rank1(comp, z + h) - loss_cdf_rank1(comp, z - h)) / (2 * h)
        np.testing.assert_allclose(num, loss_pdf_rank1(comp, z), rtol=1e-5)


class TestConditionalGradient:
    def make(self, beta=2, dim=16, params=8):
        return single_model(component(beta=beta, dim=dim, params=params))

    def test_zero_loss_gives_zero_gradient(self):
        model = self.make()
        draw = sample_gradient_given_loss(model, [0.0], rng(0))
        np.testing.assert_array_equal(draw.entries, 0.0)

    def test_requires_rank_one(self):
        comp = component(dim=4, rho=[0.5, 0.5, 0, 0], params=2)
        with pytest.raises(UnsupportedConfigurationError):
            sample_gradient_given_loss(single_model(comp), [0.3], rng(0))

    def test_z_validation(self):
        model = self.make()
        with pytest.raises(ValidationError):
            sample_gradient_given_loss(model, [0.1, 0.2], rng(0))
        with pytest.raises(ValidationError):
            sample_gradient_given_loss(model, [-0.1], rng(0))

    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_entry_variance(self, beta):
        # Var = (2 I sigma tr(rho) / N)^2 * (z / (beta^2 I mean)) * max(2, beta),
        # the linear-in-z form of the circuit's conditional variance for unit
        # generators of period 2 pi
        model = self.make(beta=beta)
        comp = model.components[0]
        st = spectral_stats(comp)
        z = 0.37
        amp = 2.0 * comp.index * st.std_eig * comp.input_trace / comp.dim
        expect = amp**2 * (z / (beta**2 * comp.index * st.mean_eig)) * max(2, beta)
        reps = 12000
        r = rng(40 + beta)
        vals = np.concatenate([
            sample_gradient_given_loss(model, [z], r).entries for _ in range(reps)
        ])
        assert vals.var() == pytest.approx(expect, rel=0.05)

    def test_sign_symmetric(self):
        model = self.make()
        r = rng(50)
        vals = np.concatenate([
            sample_gradient_given_loss(model, [0.5], r).entries
            for _ in range(4000)
        ])
        s = sp_stats.ks_2samp(vals, -vals).statistic
        assert s < ks_2samp_critical(vals.size, vals.size)

    def test_scale_equivariance_in_z(self):
        # same stream, quadrupled loss: exactly doubled entries
        model = self.make()
        a = sample_gradient_given_loss(model, [0.2], rng(60)).entries
        b = sample_gradient_given_loss(model, [0.8], rng(60)).entries
        np.testing.assert_allclose(2.0 * a, b, rtol=1e-12)

    def test_sectors_add(self):
        from wishartscape import SectorModel
        c1 = component(beta=2, dim=8, params=3)
        c2 = component(beta=1, dim=6, params=3)
        model = SectorModel(components=(c1, c2), total_params=6)
        draw = sample_gradient_given_loss(model, [0.3, 0.4], rng(70))
        assert draw.entries.shape == (6,)
        assert len(draw.gaussians) == 2
        # reconstruct from the stored factors
        from wishartscape.wishart_process import _gradient_scales
        scales = _gradient_scales(model, np.array([0.3, 0.4]))
        rebuilt = sum(
            scales[a] * draw.gaussians[a] * draw.chis[a] for a in range(2)
        )
        np.testing.assert_allclose(rebuilt, draw.entries, rtol=1e-12)


class TestConditionalHessian:
    def make(self, beta=2, dim=16, params=6):
        return single_model(component(beta=beta, dim=dim, params=params))

    def test_zero_loss_gives_zero_matrix(self):
        model = self.make()
        draw = sample_hessian_at_critical(model, [0.0], rng(0))
        np.testing.assert_array_equal(draw.matrix, 0.0)

    def test_symmetric(self):
        model = self.make()
        h = sample_hessian_at_critical(model, [0.4], rng(1)).matrix
        np.testing.assert_array_equal(h, h.T)

    def test_spare_parameters_zero_rows(self):
        comp = component(beta=2, dim=8, params=4)
        model = single_model(comp, total_params=7)
        h = sample_hessian_at_critical(model, [0.4], rng(2)).matrix
        assert h.shape == (7, 7)
        np.testing.assert_array_equal(h[4:, :], 0.0)
        np.testing.assert_array_equal(h[:, 4:], 0.0)
        assert np.any(h[:4, :4] != 0.0)

    def test_psd_implies_nonnegative_gaussians(self):
        # the diagonal is G_i chi_i W_ii, so a PSD draw forces every G_i >= 0
        model = self.make(params=4)
        r = rng(3)
        found_psd = 0
        for _ in range(2000):
            draw = sample_hessian_at_critical(model, [0.5], r)
            eigs = np.linalg.eigvalsh(draw.matrix)
            if eigs[0] >= 0.0:
                found_psd += 1
                assert np.all(draw.gaussians[0] >= 0.0)
        assert found_psd >= 20

    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_diagonal_second_moment(self, beta):
        # E[H_ii^2] = pref^2 * max(2,beta) * m (m + 2), the Wishart chi^2
        # diagonal fourth-moment identity
        model = self.make(beta=beta, dim=12, params=5)
        comp = model.components[0]
        st = spectral_stats(comp)
        z = 0.5
        m = max(1, int(np.rint(beta * st.dof_real)))
        amp = 2.0 * comp.index * st.std_eig * comp.input_trace / comp.dim**2
        pref = amp * np.sqrt(z / (beta * comp.index * st.mean_eig))
        expect = pref**2 * max(2, beta) * m * (m + 2.0)
        r = rng(80 + beta)
        reps = 12000
        acc = np.empty((reps, 5))
        for i in range(reps):
            acc[i] = np.diag(sample_hessian_at_critical(model, [z], r).matrix)
        assert np.mean(acc**2) == pytest.approx(expect, rel=0.06)

    def test_block_slices_cover_sectors(self):
        from wishartscape import SectorModel
        c1 = component(beta=2, dim=8, params=3)
        c2 = component(beta=4, dim=4, params=2)
        model = SectorModel(components=(c1, c2), total_params=5)
        draw = sample_hessian_at_critical(model, [0.2, 0.3], rng(4))
        assert draw.block_slices == (slice(0, 3), slice(3, 5))
        assert draw.wisharts[0].shape == (3, 3)
        assert draw.wisharts[1].shape == (2, 2)


class TestRegularizedHessian:
    def test_needs_parameters(self):
        with pytest.raises(UnsupportedConfigurationError):
            regularized_hessian_sample(component(dim=4, params=0), rng(0))

    def test_positive_definite(self):
        comp = component(beta=2, dim=16, obs=[0.0] * 8 + [1.0] * 8, params=6)
        h = regularized_hessian_sample(comp, rng(1))
        assert np.linalg.eigvalsh(h)[0] > 0.0

    def test_wishart_part_matches_mp_law(self):
        # spectrum of W / (beta r) at block size 200, aspect 0.5, pooled over
        # 20 draws, 25 bins: same protocol as the randmat MP check
        dim = 400
        comp = component(beta=2, dim=dim, obs=[0.0] * 200 + [1.0] * 200,
                         params=200)
        model = single_model(comp)
        st = spectral_stats(comp)
        m = int(np.rint(comp.beta * st.dof_real))
        assert m == 400
        r = rng(2)
        eigs = []
        for _ in range(20):
            draw = sample_hessian_at_critical(model, [0.5], r)
            eigs.append(np.linalg.eigvalsh(draw.wisharts[0] / m))
        eigs = np.concatenate(eigs)
        gamma = 200 / m
        lo, hi = marchenko_pastur_support(gamma)
        edges = np.linspace(lo, hi, 26)
        hist, _ = np.histogram(eigs, bins=edges, density=True)
        centers = (edges[:-1] + edges[1:]) / 2
        l1 = np.sum(np.abs(hist - marchenko_pastur_pdf(gamma, centers)))
        l1 *= edges[1] - edges[0]
        assert l1 < 0.05
