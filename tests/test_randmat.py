"""Random matrix layer: Gaussian ensembles, Wishart routes, Haar measures,
Marchenko-Pastur.

Statistical assertions use alpha = 0.01 KS thresholds or >= 5 sigma moment
windows; every stream is seeded, so failures are deterministic.
"""

import numpy as np
import pytest
from scipy import stats as sp_stats

from helpers import (
    component,
    exact_conjugation_variance,
    ks_2samp_critical,
    ks_critical,
    mp_log_moment_quadrature,
    qdagger,
    qmatmul,
    quaternion_gram_schmidt,
    single_model,
    wishart_reference,
)
from wishartscape import ValidationError, mc_landscape, sample_loss_batch
from wishartscape import field
from wishartscape.randmat import (
    _bartlett_mask,
    _gamma_cdf,
    _gamma_pdf,
    _qr_frames,
    BETAS,
    RngState,
    gauss_matrix,
    haar_columns,
    haar_group,
    marchenko_pastur_atom,
    marchenko_pastur_pdf,
    marchenko_pastur_support,
    mp_log_moment,
    wishart_bartlett,
    wishart_direct,
)


def as_complex(beta, m):
    if beta == 4:
        return field.embed_complex(4, m)
    return np.asarray(m)


class TestRngState:
    def test_same_seed_same_stream(self):
        a = RngState(42).generator.standard_normal(16)
        b = RngState(42).generator.standard_normal(16)
        np.testing.assert_array_equal(a, b)

    def test_split_streams_differ(self):
        parent = RngState(7)
        kids = parent.split(3)
        draws = [k.generator.standard_normal(8) for k in kids]
        draws.append(parent.generator.standard_normal(8))
        for i in range(len(draws)):
            for j in range(i + 1, len(draws)):
                assert not np.allclose(draws[i], draws[j])

    def test_split_is_reproducible(self):
        a = RngState(9).split(2)[1].generator.standard_normal(4)
        b = RngState(9).split(2)[1].generator.standard_normal(4)
        np.testing.assert_array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValidationError):
            RngState(0).split(0)


class TestPositiveCounts:
    """Every count goes through one check: a whole number >= 1, neither a
    bool nor a string, else a ValidationError that names the argument."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), True, 2.5, "3", 0])
    def test_bad_count_is_refused_by_name(self, bad):
        comp = component(beta=2, dim=4)
        calls = [
            ("n", lambda: RngState(0).split(bad)),
            ("dim", lambda: haar_group(2, bad, RngState(0))),
            ("size", lambda: haar_group(2, 3, RngState(0), size=bad)),
            ("n_cols", lambda: haar_columns(2, 4, bad, RngState(0))),
            ("dof", lambda: wishart_bartlett(2, 3, bad, RngState(0))),
            ("n_samples", lambda: mc_landscape(comp, bad, RngState(0))),
            ("n_samples", lambda: sample_loss_batch(single_model(comp), bad, RngState(0))),
        ]
        for name, call in calls:
            with pytest.raises(ValidationError, match=f"^{name} must be a positive integer"):
                call()


class TestGauss:
    @pytest.mark.parametrize("beta", BETAS)
    def test_component_moments(self, beta):
        # each real component is N(0, 1), so E|entry|^2 = beta
        m = gauss_matrix(beta, 200, 200, RngState(beta))
        if beta == 1:
            comps = m.ravel()
        elif beta == 2:
            comps = np.concatenate([m.real.ravel(), m.imag.ravel()])
        else:
            comps = m.reshape(-1)
        n = comps.size
        assert abs(comps.mean()) < 5.0 / np.sqrt(n)
        assert abs(comps.var() - 1.0) < 5.0 * np.sqrt(2.0 / n)

    def test_shapes(self):
        r = RngState(0)
        assert gauss_matrix(1, 3, 5, r).shape == (3, 5)
        assert gauss_matrix(2, 3, 5, r).dtype == complex
        assert gauss_matrix(4, 3, 5, r).shape == (3, 5, 4)

    def test_bad_beta(self):
        with pytest.raises(ValidationError):
            gauss_matrix(3, 2, 2, RngState(0))


class TestWishartRoutes:
    @pytest.mark.parametrize("beta", BETAS)
    def test_mean_is_dof_identity(self, beta):
        dim, dof, reps = 6, 10, 400
        rng = RngState(100 + beta)
        acc = np.zeros((2 * dim, 2 * dim) if beta == 4 else (dim, dim), dtype=complex)
        for _ in range(reps):
            acc += as_complex(beta, wishart_direct(beta, dim, dof, rng).matrix)
        mean = acc / reps
        target = dof * np.eye(mean.shape[0])
        # entry s.e. is about dof * sqrt(2 / (beta * reps))
        tol = 5.0 * dof * np.sqrt(2.0 / (beta * reps))
        assert np.max(np.abs(mean - target)) < tol

    @pytest.mark.parametrize("beta", BETAS)
    def test_diagonal_is_chi_square(self, beta):
        # beta * W_ii accumulates beta * dof squared components
        dim, dof, n = 4, 7, 3000
        rng = RngState(200 + beta)
        draws = np.array([
            wishart_direct(beta, dim, dof, rng).real_diagonal()[0] for _ in range(n)
        ])
        stat = sp_stats.kstest(beta * draws, sp_stats.chi2(beta * dof).cdf).statistic
        assert stat < ks_critical(n)

    @pytest.mark.parametrize("beta", BETAS)
    def test_bartlett_matches_direct(self, beta):
        # two-route check: triangular factorization vs raw X X^dagger, compared
        # on the diagonal, an off-diagonal component, and the trace
        dim, dof, n = 5, 8, 3000
        r1, r2 = RngState(300 + beta).split(2)
        d = [wishart_direct(beta, dim, dof, r1).matrix for _ in range(n)]
        b = [wishart_bartlett(beta, dim, dof, r2).matrix for _ in range(n)]
        crit = ks_2samp_critical(n, n)

        def comp0(m):
            if beta == 1:
                return m[1, 0]
            if beta == 2:
                return m[1, 0].real
            return m[1, 0, 0]

        def diag0(m):
            if beta == 4:
                return m[0, 0, 0]
            return np.real(m[0, 0])

        def tr(m):
            if beta == 4:
                return m[..., 0].trace()
            return np.real(m.trace())

        for f in (comp0, diag0, tr):
            s = sp_stats.ks_2samp([f(m) for m in d], [f(m) for m in b]).statistic
            assert s < crit, f.__name__

    @pytest.mark.parametrize("beta", BETAS)
    def test_rank_deficient_when_dof_small(self, beta):
        w = wishart_direct(beta, 8, 3, RngState(400 + beta)).matrix
        r = np.linalg.matrix_rank(as_complex(beta, w), tol=1e-8)
        assert r == (6 if beta == 4 else 3)  # embedding doubles the rank

    @pytest.mark.parametrize("beta", BETAS)
    def test_trace_concentrates(self, beta):
        dim = dof = 100
        rng = RngState(500 + beta)
        vals = [
            wishart_direct(beta, dim, dof, rng).real_diagonal().sum() / (dim * dof)
            for _ in range(10)
        ]
        assert abs(np.mean(vals) - 1.0) < 0.05

    def test_bartlett_agrees_in_mean_small_dof(self):
        # dim > dof exercises the rectangular tail rows of the factor
        dim, dof, reps = 6, 2, 2000
        rng = RngState(600)
        acc = np.zeros((dim, dim))
        for _ in range(reps):
            acc += wishart_bartlett(1, dim, dof, rng).matrix
        np.testing.assert_allclose(np.diag(acc / reps), dof, atol=5 * dof * np.sqrt(2.0 / reps))


class TestHaar:
    @pytest.mark.parametrize("beta", BETAS)
    def test_unitary(self, beta):
        u = haar_group(beta, 7, RngState(10 + beta))
        uc = as_complex(beta, u)
        np.testing.assert_allclose(uc @ uc.conj().T, np.eye(uc.shape[0]), atol=1e-10)

    def test_special_orthogonal(self):
        dets = [np.linalg.det(haar_group(1, 5, RngState(i))) for i in range(40)]
        np.testing.assert_allclose(dets, 1.0, atol=1e-10)

    @pytest.mark.parametrize("beta", BETAS)
    def test_batch_shape_and_unitarity(self, beta):
        u = haar_group(beta, 4, RngState(20 + beta), size=3)
        assert u.shape[0] == 3
        uc = as_complex(beta, u[1])
        np.testing.assert_allclose(uc @ uc.conj().T, np.eye(uc.shape[0]), atol=1e-10)

    @pytest.mark.parametrize("beta", BETAS)
    def test_entry_mean_vanishes(self, beta):
        us = haar_group(beta, 5, RngState(30 + beta), size=4000)
        mean = np.abs(us.mean(axis=0)).max()
        assert mean < 5.0 / np.sqrt(4000 * 5 * beta / 2)

    @pytest.mark.parametrize("beta", BETAS)
    def test_column_norm_uniformity(self, beta):
        # E|U_ij|^2 = 1/N for every entry
        n, dim = 4000, 5
        us = haar_group(beta, dim, RngState(40 + beta), size=n)
        if beta == 1:
            sq = us**2
        elif beta == 2:
            sq = np.abs(us) ** 2
        else:
            sq = np.sum(us**2, axis=-1)
        mean_sq = sq.mean(axis=0)
        assert np.max(np.abs(mean_sq - 1.0 / dim)) < 5.0 / np.sqrt(n) / dim * 3

    @pytest.mark.parametrize("beta", BETAS)
    def test_conjugation_variance_matches_exact_law(self, beta):
        # sharp distributional test of Haar correctness; the closed form is
        # validated independently in tests/oracles/haar_variance_oracle.py
        dim, n = 6, 20000
        obs = np.array([0.0, 0.2, 0.5, 0.9, 1.4, 2.0])
        rho = np.array([0.4, 0.3, 0.15, 0.1, 0.05, 0.0])
        us = haar_group(beta, dim, RngState(50 + beta), size=n)
        if beta == 1:
            amp = us**2
        elif beta == 2:
            amp = np.abs(us) ** 2
        else:
            amp = np.sum(us**2, axis=-1)
        losses = np.einsum("i,bij,j->b", rho, amp, obs)
        expect = exact_conjugation_variance(beta, obs, rho)
        assert losses.var() == pytest.approx(expect, rel=0.05)

    @pytest.mark.parametrize("beta", BETAS)
    def test_left_invariance(self, beta):
        # fixed rotation of a Haar draw is again Haar: compare an entry law
        n, dim = 3000, 4
        r1, r2, r3 = RngState(60 + beta).split(3)
        us = haar_group(beta, dim, r1, size=n)
        vs = haar_group(beta, dim, r2, size=n)
        fixed = haar_group(beta, dim, r3)
        if beta == 4:
            rotated = np.stack([qmatmul(fixed, v) for v in vs])
            a = us[:, 0, 0, 0]
            b = rotated[:, 0, 0, 0]
        else:
            rotated = fixed @ vs
            a = np.real(us[:, 0, 0])
            b = np.real(rotated[:, 0, 0])
        s = sp_stats.ks_2samp(a, b).statistic
        assert s < ks_2samp_critical(n, n)

    @pytest.mark.parametrize("beta", BETAS)
    def test_haar_columns_orthonormal(self, beta):
        cols = haar_columns(beta, 8, 3, RngState(70 + beta))
        if beta == 4:
            gram = field.embed_complex(4, qmatmul(qdagger(cols), cols))
            np.testing.assert_allclose(gram, np.eye(6), atol=1e-10)
        else:
            gram = cols.conj().T @ cols
            np.testing.assert_allclose(gram, np.eye(3), atol=1e-10)

    @pytest.mark.parametrize("beta", BETAS)
    def test_one_column_is_gauged_qr_of_its_gaussian(self, beta):
        # one column is the Gaussian column normalized, which is exactly the
        # positive-diagonal QR of that column (Mezzadri 2007)
        dim, n = 7, 50
        cols = haar_columns(beta, dim, 1, RngState(90 + beta), size=n)
        assert cols.shape == (n, dim, 1) + ((4,) if beta == 4 else ())
        np.testing.assert_allclose(np.sum(field.abs2(beta, cols), axis=(1, 2)), 1.0,
                                   rtol=1e-15)
        parts = RngState(90 + beta).generator.standard_normal((n, dim, 1, beta))
        g = field.from_components(beta, parts)
        qr = field.unembed_complex(beta, _qr_frames(field.embed_complex(beta, g)))
        np.testing.assert_allclose(cols, qr, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("beta", BETAS)
    def test_haar_columns_match_group_slice(self, beta):
        # |first entry|^2 of a frame column vs the same functional of a full
        # group draw
        n, dim = 3000, 5
        r1, r2 = RngState(80 + beta).split(2)
        cols = haar_columns(beta, dim, 2, r1, size=n)
        full = haar_group(beta, dim, r2, size=n)
        if beta == 4:
            a = np.sum(cols[:, 0, 0] ** 2, axis=-1)
            b = np.sum(full[:, 0, 0] ** 2, axis=-1)
        elif beta == 2:
            a = np.abs(cols[:, 0, 0]) ** 2
            b = np.abs(full[:, 0, 0]) ** 2
        else:
            a = cols[:, 0, 0] ** 2
            b = full[:, 0, 0] ** 2
        s = sp_stats.ks_2samp(a, b).statistic
        assert s < ks_2samp_critical(n, n)


class TestGramKernel:
    """The Gram kernel (field.gram) and Wishart routes against the oracles in
    helpers: Hamilton products for the quaternion Gram, and the index-copy
    Bartlett factor drawn from the same stream."""

    @pytest.mark.parametrize("shape", [(6, 9), (9, 6), (1, 1), (5, 4, 7)])
    def test_quaternion_gram_matches_hamilton_and_embedding(self, shape):
        x = RngState(sum(shape)).generator.standard_normal(shape + (4,))
        got = field.gram(4, x)
        want = qmatmul(x, qdagger(x))
        tol = 1e-13 * np.max(np.abs(want))
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=tol)
        e = field.embed_complex(4, x)
        np.testing.assert_allclose(field.embed_complex(4, got),
                                   e @ np.conj(np.swapaxes(e, -2, -1)), rtol=0, atol=tol)
        # quaternion-Hermitian: W = W^dagger, so a real diagonal
        np.testing.assert_allclose(got, qdagger(got), rtol=0, atol=tol)
        diag = np.diagonal(got, axis1=-3, axis2=-2)
        np.testing.assert_allclose(diag[..., 1:, :], 0.0, rtol=0, atol=tol)

    SIZES = [(4, 7), (7, 4), (1, 1), (5, 5)]

    @pytest.mark.parametrize("route,draw", [("direct", wishart_direct),
                                            ("bartlett", wishart_bartlett)])
    @pytest.mark.parametrize("dim,dof", SIZES)
    @pytest.mark.parametrize("beta", BETAS)
    def test_routes_match_index_copy_oracle(self, beta, dim, dof, route, draw):
        for seed in range(5):
            mine, oracle = RngState(seed), RngState(seed)
            got = draw(beta, dim, dof, mine).matrix
            want = wishart_reference(beta, dim, dof, oracle, route)
            if beta == 4:
                np.testing.assert_allclose(got, want, rtol=0,
                                           atol=1e-13 * np.max(np.abs(want)))
            else:
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
            # both routes leave the stream at the same place
            assert mine.generator.random() == oracle.generator.random()

    @pytest.mark.parametrize("beta", BETAS)
    def test_bartlett_mask_is_read_only(self, beta):
        mask = _bartlett_mask(beta, 5, 3)
        assert mask is _bartlett_mask(beta, 5, 3)
        with pytest.raises(ValueError):
            mask[1, 0] = 7.0
        with pytest.raises(ValueError):
            mask *= 2.0
        np.testing.assert_array_equal(np.real(mask[..., 0] if beta == 4 else mask),
                                      np.tri(5, 3, k=-1) / np.sqrt(beta))


class TestSymplecticKernel:
    """Sp(N) frames from the complex-embedding QR against quaternion
    Gram-Schmidt on the same Gaussian (haar_* draw it as the first
    standard_normal((size, dim, k, 4)) of the stream)."""

    CASES = [(1, 1, 4), (2, 2, 4), (8, 8, 4), (64, 64, 2), (9, 3, 4)]

    @staticmethod
    def draw(dim, k, size, seed):
        if k == dim:
            return haar_group(4, dim, RngState(seed), size=size)
        return haar_columns(4, dim, k, RngState(seed), size=size)

    @pytest.mark.parametrize("dim,k,size", CASES)
    def test_matches_gram_schmidt_oracle(self, dim, k, size):
        g = RngState(700 + dim).generator.standard_normal((size, dim, k, 4))
        frames = self.draw(dim, k, size, 700 + dim)
        assert frames.shape == (size, dim, k, 4)
        np.testing.assert_allclose(frames, quaternion_gram_schmidt(g), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dim,k,size", CASES)
    def test_embedded_frame_is_structured_isometry(self, dim, k, size):
        g = RngState(710 + dim).generator.standard_normal((size, dim, k, 4))
        q = _qr_frames(field.embed_complex(4, g))
        gram = np.conj(np.swapaxes(q, -2, -1)) @ q
        assert np.max(np.abs(gram - np.eye(2 * k))) < 1e-13
        assert np.max(np.abs(field.embed_complex(4, field.unembed_complex(4, q)) - q)) < 1e-13


class TestTailEnvelopes:
    def test_chi_square_concentration(self):
        # chi^2_D / D stays within a 7 sigma window; D = 400
        d, reps = 400, 200
        draws = RngState(90).generator.chisquare(d, size=reps) / d
        assert np.max(np.abs(draws - 1.0)) < 0.5

    def test_dof_perturbation_is_negligible(self):
        # dropping one Gaussian column of X changes tr(rho X X^T)/dof by
        # O(1/dof): justifies integer rounding of fractional dof
        dim, dof = 5, 10000
        rho = np.array([0.4, 0.3, 0.2, 0.1, 0.0])
        g = RngState(91).generator
        worst = 0.0
        for _ in range(100):
            x = g.standard_normal((dim, dof))
            w_full = np.einsum("ij,ij->i", x, x)
            w_drop = w_full - x[:, -1] ** 2
            full = rho @ w_full / dof
            drop = rho @ w_drop / dof
            worst = max(worst, abs(full - drop) / full)
        assert worst < 0.01

    def test_operator_norm_edge(self):
        # largest eigenvalue of W/dof stays near the MP edge (1+sqrt(g))^2
        dim, dof = 50, 200
        rng = RngState(92)
        edge = (1.0 + np.sqrt(dim / dof)) ** 2
        for _ in range(20):
            w = wishart_direct(2, dim, dof, rng).matrix / dof
            top = np.linalg.eigvalsh(w)[-1]
            assert top < edge * 1.25


class TestMarchenkoPastur:
    def test_support(self):
        lo, hi = marchenko_pastur_support(0.25)
        assert lo == pytest.approx(0.25)
        assert hi == pytest.approx(2.25)

    def test_atom(self):
        assert marchenko_pastur_atom(0.5) == 0.0
        assert marchenko_pastur_atom(1.0) == 0.0
        assert marchenko_pastur_atom(2.0) == pytest.approx(0.5)

    def test_pdf_mass(self):
        from scipy.integrate import quad
        for gamma in (0.3, 1.0, 2.0):
            lo, hi = marchenko_pastur_support(gamma)
            mass, _ = quad(lambda x: marchenko_pastur_pdf(gamma, x), lo, hi,
                           limit=200)
            assert mass == pytest.approx(1.0 - marchenko_pastur_atom(gamma), abs=1e-7)

    def test_pdf_outside_support_is_zero(self):
        lo, hi = marchenko_pastur_support(0.5)
        vals = marchenko_pastur_pdf(0.5, np.array([lo - 0.01, hi + 0.01, 0.0]))
        np.testing.assert_array_equal(vals, 0.0)

    def test_pdf_value(self):
        # hand evaluation at gamma = 0.5, lam = 1:
        # sqrt((hi - 1)(1 - lo)) / (2 pi * 0.5), hi,lo = (1 +- sqrt(.5))^2
        lo, hi = marchenko_pastur_support(0.5)
        expect = np.sqrt((hi - 1.0) * (1.0 - lo)) / np.pi
        assert marchenko_pastur_pdf(0.5, 1.0) == pytest.approx(expect, rel=1e-12)

    def test_log_moment_frozen_oracle(self):
        # frozen from tests/oracles/mp_log_moment_oracle.py (30-digit
        # quadrature agreeing with the residue closed form)
        frozen = {
            0.1: -0.051755359079563289,
            0.25: -0.13695378264465722,
            0.5: -0.30685281944005469,
            0.9: -0.74415721188955048,
            1.0: -1.0,
        }
        for gamma, expect in frozen.items():
            assert mp_log_moment(gamma) == pytest.approx(expect, abs=1e-10)

    def test_log_moment_diverges_past_square(self):
        assert mp_log_moment(1.5) == -np.inf

    @pytest.mark.parametrize("gamma", [1e-6, 1e-3, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999, 1.0])
    def test_log_moment_closed_form_matches_quadrature(self, gamma):
        assert mp_log_moment(gamma) == pytest.approx(mp_log_moment_quadrature(gamma),
                                                     rel=0, abs=1e-12)

    def test_empirical_spectrum_matches_pdf(self):
        # L1 distance between the pooled empirical Wishart spectrum and the
        # MP density; a single draw fluctuates at the 0.07-0.13 level no
        # matter the binning, so the law is estimated from 20 draws
        dim, dof = 200, 400
        rng = RngState(93)
        eigs = np.concatenate([
            np.linalg.eigvalsh(wishart_direct(2, dim, dof, rng).matrix / dof)
            for _ in range(20)
        ])
        gamma = dim / dof
        lo, hi = marchenko_pastur_support(gamma)
        edges = np.linspace(lo, hi, 26)
        hist, _ = np.histogram(eigs, bins=edges, density=True)
        centers = (edges[:-1] + edges[1:]) / 2
        pdf = marchenko_pastur_pdf(gamma, centers)
        l1 = np.sum(np.abs(hist - pdf)) * (edges[1] - edges[0])
        assert l1 < 0.05


class TestGammaLaw:
    # the numpy pdf and the gammainc cdf against scipy.stats.gamma
    SHAPES = [0.5, 1.0, 1.5, 17.3, 200.0]
    SCALES = [0.01, 1.0, 7.5]

    @staticmethod
    def _points(a, scale):
        q = np.linspace(1e-6, 1.0 - 1e-6, 101)
        return sp_stats.gamma.ppf(q, a, scale=scale)

    @pytest.mark.parametrize("a", SHAPES)
    @pytest.mark.parametrize("scale", SCALES)
    def test_pdf_matches_scipy(self, a, scale):
        x = self._points(a, scale)
        np.testing.assert_allclose(_gamma_pdf(x, a, scale),
                                   sp_stats.gamma.pdf(x, a, scale=scale), rtol=1e-12)

    @pytest.mark.parametrize("a", SHAPES)
    @pytest.mark.parametrize("scale", SCALES)
    def test_cdf_matches_scipy(self, a, scale):
        x = self._points(a, scale)
        np.testing.assert_allclose(_gamma_cdf(x, a, scale),
                                   sp_stats.gamma.cdf(x, a, scale=scale), rtol=1e-12)

    @pytest.mark.parametrize("a", SHAPES)
    @pytest.mark.parametrize("scale", SCALES)
    def test_origin_and_negative_axis(self, a, scale):
        x = np.array([0.0, -1e-300, -scale, -1e6])
        pdf = _gamma_pdf(x, a, scale)
        assert pdf[0] == sp_stats.gamma.pdf(0.0, a, scale=scale)
        assert pdf[0] == (np.inf if a < 1.0 else 1.0 / scale if a == 1.0 else 0.0)
        np.testing.assert_array_equal(pdf[1:], 0.0)
        np.testing.assert_array_equal(_gamma_cdf(x, a, scale), 0.0)

    def test_scalar_in_scalar_out(self):
        assert np.ndim(_gamma_pdf(0.5, 1.5, 1.0)) == 0
        assert np.ndim(_gamma_cdf(0.5, 1.5, 1.0)) == 0
        assert _gamma_pdf(0.5, 1.5, 1.0) == pytest.approx(
            sp_stats.gamma.pdf(0.5, 1.5), rel=1e-12)

    def test_nan_propagates(self):
        assert np.isnan(_gamma_pdf(np.nan, 1.5, 1.0))
        assert np.isnan(_gamma_cdf(np.nan, 1.5, 1.0))
