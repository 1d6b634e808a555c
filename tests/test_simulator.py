"""Exact circuit simulator: analytic derivatives vs finite differences, and
the batched sampling reduction vs the instance-by-instance route."""

import itertools
import tracemalloc

import numpy as np
import pytest
from scipy import stats as sp_stats

from helpers import (
    component,
    exact_conjugation_variance,
    ks_2samp_critical,
    qdagger,
    qmatmul,
    rng,
)
from wishartscape import (
    UnsupportedConfigurationError,
    ValidationError,
    build_ansatz,
    fd_gradient,
    fd_hessian,
    grad_eval,
    hessian_eval,
    loss_eval,
    mc_landscape,
    spectral_stats,
    spectrum_from_pauli,
)
from wishartscape import field
from wishartscape import simulator
from wishartscape.randmat import haar_columns, haar_group
from wishartscape.simulator import (
    BATCH_BYTES,
    GRAD_FD_STEP,
    HESS_FD_STEP,
    AnsatzInstance,
    _auto_batch,
    _exp_unit,
    canonical_generator,
)

BETAS = [1, 2, 4]


def _unitarity_defect(beta, u):
    if beta == 4:
        return float(np.max(np.abs(qmatmul(qdagger(u), u) - field.eye(4, u.shape[0]))))
    return float(np.max(np.abs(np.conj(u.T) @ u - np.eye(u.shape[0]))))


def _neg(a):
    return -a


def _conjugated_unit_instance(beta, comp, seed):
    # generators G J G^dagger, G the first k columns of a Haar frame and J
    # the generator block, with identity conjugators: the construction
    # test_batched_derivatives_match_instance_formulas hands the formulas
    r = rng(seed)
    blocks = [field.generator_block(beta, i) for i in range(comp.sector_params)]
    frames = haar_columns(beta, comp.dim, blocks[0].shape[0], r, size=len(blocks))
    gens = tuple(field.matmul(beta, field.matmul(beta, g, j), field.adjoint(beta, g))
                 for g, j in zip(frames, blocks))
    ident = field.eye(beta, comp.dim)
    return AnsatzInstance(component=comp, generators=gens, conjugators=(ident,) * len(gens),
                          state_frame=haar_group(beta, comp.dim, r),
                          observable_frame=haar_group(beta, comp.dim, r))


class TestAnsatz:
    @pytest.mark.parametrize("beta", BETAS)
    def test_frames_are_unitary(self, beta):
        comp = component(beta=beta, dim=6, params=3)
        inst = build_ansatz(comp, rng(3))
        assert inst.n_params == 3
        for u in (inst.state_frame, inst.observable_frame, *inst.conjugators):
            assert _unitarity_defect(beta, u) < 1e-10

    @pytest.mark.parametrize("beta", BETAS)
    def test_generators_anti_hermitian(self, beta):
        comp = component(beta=beta, dim=5, params=3)
        inst = build_ansatz(comp, rng(4))
        for i in range(3):
            a = canonical_generator(comp, i)
            g = inst.conjugated_generator(i)
            if beta == 4:
                np.testing.assert_allclose(qdagger(a), _neg(a), atol=1e-14)
                np.testing.assert_allclose(qdagger(g), _neg(g), atol=1e-12)
                assert np.sum(g * g) == pytest.approx(np.sum(a * a), rel=1e-10)
            else:
                np.testing.assert_allclose(np.conj(a.T), _neg(a), atol=1e-14)
                np.testing.assert_allclose(np.conj(g.T), _neg(g), atol=1e-12)
                assert np.linalg.norm(g) == pytest.approx(np.linalg.norm(a), rel=1e-10)

    def test_quaternion_generators_cycle(self):
        comp = component(beta=4, dim=3, params=5)
        gens = [canonical_generator(comp, i) for i in range(5)]
        # imaginary slots cycle i, j, k, i, j
        assert gens[0][0, 0, 1] == 1.0
        assert gens[1][0, 0, 2] == 1.0
        assert gens[2][0, 0, 3] == 1.0
        assert gens[3][0, 0, 1] == 1.0

    def test_complex_exponential_is_numpy_exp(self):
        comp = component(beta=2, dim=3, params=1)
        g = np.random.default_rng(5)
        thetas = np.concatenate([g.uniform(-10.0, 10.0, 2000), g.normal(size=200) * 1e-8,
                                 [0.0, -0.0, np.pi / 2, -np.pi, 2 * np.pi]])
        a = canonical_generator(comp, 0)
        got = np.array([_exp_unit(2, a, float(t))[0, 0] for t in thetas])
        want = np.exp(1j * thetas)
        np.testing.assert_array_equal(got.view(np.float64), want.view(np.float64))
        assert not np.any(np.signbit(got.view(np.float64)) ^ np.signbit(want.view(np.float64)))

    @pytest.mark.parametrize("beta", BETAS)
    def test_closed_form_exponential_matches_series(self, beta):
        # exp(theta A) summed term by term, for canonical and conjugated
        # unit generators
        comp = component(beta=beta, dim=5, params=2)
        inst = _conjugated_unit_instance(beta, comp, 7)
        ident = field.eye(beta, 5)
        for a in (canonical_generator(comp, 1), *inst.generators):
            for theta in (0.3, -2.4):
                term, total = ident, ident
                for n in range(1, 40):
                    term = field.matmul(beta, term, a) * (theta / n)
                    total = total + term
                np.testing.assert_allclose(_exp_unit(beta, a, theta), total, atol=1e-13)

    def test_instance_needs_one_conjugator_per_generator(self):
        comp = component(beta=2, dim=4, params=2)
        inst = build_ansatz(comp, rng(0))
        with pytest.raises(ValidationError, match="one conjugator per generator, got 2 "
                           "generators and 1 conjugators"):
            AnsatzInstance(component=comp, generators=inst.generators,
                           conjugators=inst.conjugators[:1], state_frame=inst.state_frame,
                           observable_frame=inst.observable_frame)

    @pytest.mark.parametrize("beta", BETAS)
    @pytest.mark.parametrize("bad", ["scaled", "hermitian", "shape", "text"])
    def test_instance_refuses_non_unit_generator(self, beta, bad):
        comp = component(beta=beta, dim=4, params=2)
        inst = build_ansatz(comp, rng(0))
        a = inst.generators[1]
        wrong = {"scaled": 2.0 * a, "hermitian": field.matmul(beta, a, a),
                 "shape": a[:3, :3], "text": np.full(a.shape, "x")}[bad]
        with pytest.raises(ValidationError, match=r"generators\[1\] must be a unit generator"):
            AnsatzInstance(component=comp, generators=(a, wrong),
                           conjugators=inst.conjugators, state_frame=inst.state_frame,
                           observable_frame=inst.observable_frame)

    def test_real_dim_one_rejected(self):
        comp = component(beta=1, dim=1, obs=[1.0], rho=[1.0], params=1)
        with pytest.raises(UnsupportedConfigurationError):
            build_ansatz(comp, rng(0))

    def test_real_dim_one_without_params_ok(self):
        comp = component(beta=1, dim=1, obs=[1.0], rho=[1.0], params=0)
        inst = build_ansatz(comp, rng(0))
        assert inst.n_params == 0
        assert loss_eval(inst, []) == pytest.approx(1.0)
        assert grad_eval(inst).shape == (0,)
        assert hessian_eval(inst).shape == (0, 0)


class TestLossEval:
    @pytest.mark.parametrize("beta", BETAS)
    def test_flat_observable_is_constant(self, beta):
        comp = component(beta=beta, dim=6, obs=np.full(6, 0.7), index=2.0,
                         rho=[0.5, 0.25, 0.25, 0, 0, 0], params=4)
        inst = build_ansatz(comp, rng(11))
        g = np.random.default_rng(1)
        for theta in (np.zeros(4), g.normal(size=4), g.normal(size=4)):
            assert loss_eval(inst, theta) == pytest.approx(2.0 * 0.7, rel=1e-12)

    def test_maximally_mixed_input_is_constant(self):
        comp = component(beta=2, dim=8, rho=np.full(8, 1.0 / 8.0), params=3)
        inst = build_ansatz(comp, rng(12))
        expect = float(np.mean(comp.observable_spectrum))
        g = np.random.default_rng(2)
        for theta in (np.zeros(3), g.normal(size=3)):
            assert loss_eval(inst, theta) == pytest.approx(expect, rel=1e-12)

    def test_theta_length_validated(self):
        inst = build_ansatz(component(beta=2, dim=4, params=2), rng(0))
        with pytest.raises(ValidationError):
            loss_eval(inst, [0.1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_theta_must_be_finite(self, bad):
        inst = build_ansatz(component(beta=2, dim=4, params=2), rng(0))
        with pytest.raises(ValidationError, match="theta"):
            loss_eval(inst, [0.1, bad])

    def test_loss_bounded_by_spectrum(self):
        comp = component(beta=2, dim=6, index=1.5, params=2)
        lo = 1.5 * float(comp.observable_spectrum[0])
        hi = 1.5 * float(comp.observable_spectrum[-1])
        g = np.random.default_rng(3)
        for seed in range(20):
            inst = build_ansatz(comp, rng(seed))
            val = loss_eval(inst, g.normal(size=2))
            assert lo - 1e-12 <= val <= hi + 1e-12

    @pytest.mark.parametrize("beta", BETAS)
    def test_parameter_shift_preserves_law(self, beta):
        # the Haar-framed circuit at any fixed theta has the same loss law
        # as at theta = 0
        comp = component(beta=beta, dim=8, params=3)
        n = 1200
        at_zero = np.empty(n)
        at_theta = np.empty(n)
        theta = np.array([0.9, -0.4, 2.2])
        r1, r2 = rng(21), rng(22)
        for i in range(n):
            at_zero[i] = loss_eval(build_ansatz(comp, r1), np.zeros(3))
            at_theta[i] = loss_eval(build_ansatz(comp, r2), theta)
        stat = sp_stats.ks_2samp(at_zero, at_theta).statistic
        assert stat < ks_2samp_critical(n, n, alpha=0.01)


class TestDerivatives:
    @pytest.mark.parametrize("beta", BETAS)
    def test_gradient_matches_finite_differences(self, beta):
        comp = component(beta=beta, dim=6, index=1.5,
                         rho=[0.6, 0.4, 0, 0, 0, 0], params=4)
        for seed in range(3):
            inst = build_ansatz(comp, rng(100 + seed))
            np.testing.assert_allclose(
                grad_eval(inst), fd_gradient(inst, GRAD_FD_STEP), atol=1e-8
            )

    @pytest.mark.parametrize("beta", BETAS)
    def test_hessian_matches_finite_differences(self, beta):
        comp = component(beta=beta, dim=5, rho=[0.7, 0.3, 0, 0, 0], params=3)
        for seed in range(3):
            inst = build_ansatz(comp, rng(200 + seed))
            np.testing.assert_allclose(
                hessian_eval(inst), fd_hessian(inst, HESS_FD_STEP), atol=1e-5
            )

    @pytest.mark.parametrize("beta", BETAS)
    def test_finite_differences_read_instance_generators(self, beta):
        # loss_eval exponentiates the generators the instance holds, so the
        # finite differences of a G J G^dagger instance match the formulas
        comp = component(beta=beta, dim=5, rho=[0.5, 0.3, 0.2, 0, 0], index=1.5, params=2)
        for seed in range(3):
            inst = _conjugated_unit_instance(beta, comp, 300 + seed)
            np.testing.assert_allclose(
                grad_eval(inst), fd_gradient(inst, GRAD_FD_STEP), atol=1e-8
            )
            np.testing.assert_allclose(
                hessian_eval(inst), fd_hessian(inst, HESS_FD_STEP), atol=1e-5
            )

    @pytest.mark.parametrize("fd", [fd_gradient, fd_hessian])
    @pytest.mark.parametrize("step", [0.0, -1e-3, np.nan, np.inf, True, "0.1"])
    def test_step_must_be_positive_and_finite(self, fd, step):
        inst = build_ansatz(component(beta=2, dim=4, params=2), rng(0))
        with pytest.raises(ValidationError, match="step"):
            fd(inst, step)

    def test_hessian_symmetric(self):
        inst = build_ansatz(component(beta=2, dim=6, params=4), rng(31))
        h = hessian_eval(inst)
        np.testing.assert_array_equal(h, h.T)

    def test_flat_observable_kills_derivatives(self):
        comp = component(beta=2, dim=5, obs=np.full(5, 0.3), params=3)
        inst = build_ansatz(comp, rng(32))
        np.testing.assert_allclose(grad_eval(inst), 0.0, atol=1e-14)
        np.testing.assert_allclose(hessian_eval(inst), 0.0, atol=1e-14)

    def test_gradient_mean_zero(self):
        comp = component(beta=2, dim=8, params=2)
        mc = mc_landscape(comp, 4000, rng(33), collect=("grad",))
        se = mc.gradients.std(axis=0) / np.sqrt(4000)
        assert np.all(np.abs(mc.gradients.mean(axis=0)) < 5.0 * se)


class TestMcLandscape:
    def test_losses_floor_relative_and_mean(self):
        comp = component(beta=2, dim=8, index=2.0, rho=[0.8, 0.2] + [0] * 6)
        st = spectral_stats(comp)
        n = 20000
        mc = mc_landscape(comp, n, rng(41))
        assert mc.loss_floor == pytest.approx(2.0 * 0.0)
        assert np.all(mc.losses >= -1e-12)
        var = exact_conjugation_variance(2, comp.observable_spectrum,
                                         comp.input_spectrum, index=2.0)
        mean_expect = 2.0 * st.mean_eig * comp.input_trace
        assert mc.losses.mean() == pytest.approx(
            mean_expect, abs=5.0 * np.sqrt(var / n))
        assert mc.losses.var() == pytest.approx(var, rel=0.08)

    def test_flat_observable_losses_vanish(self):
        comp = component(beta=2, dim=6, obs=np.full(6, 1.3))
        mc = mc_landscape(comp, 50, rng(42))
        assert mc.loss_floor == pytest.approx(1.3)
        np.testing.assert_allclose(mc.losses, 0.0, atol=1e-12)

    @pytest.mark.parametrize("beta", BETAS)
    def test_batched_route_matches_instance_route(self, beta):
        # mc_landscape reduces the frame algebra in law to one conjugation
        # and one k-column frame per parameter; the instance route builds
        # every circuit explicitly and differentiates it
        comp = component(beta=beta, dim=6, rho=[0.6, 0.4, 0, 0, 0, 0], params=2)
        n = 1000
        fast = mc_landscape(comp, n, rng(51), collect=("loss", "grad", "hessian"))
        slow_rng = rng(52)
        slow_loss = np.empty(n)
        slow_grad = np.empty((n, 2))
        slow_hess = np.empty((n, 2, 2))
        for s in range(n):
            inst = build_ansatz(comp, slow_rng)
            slow_loss[s] = loss_eval(inst, np.zeros(2)) - fast.loss_floor
            slow_grad[s] = grad_eval(inst)
            slow_hess[s] = hessian_eval(inst)
        crit = ks_2samp_critical(n, n, alpha=0.01)
        pairs = {
            "loss": (fast.losses, slow_loss),
            "grad_0": (fast.gradients[:, 0], slow_grad[:, 0]),
            "H_00": (fast.hessians[:, 0, 0], slow_hess[:, 0, 0]),
            "H_01": (fast.hessians[:, 0, 1], slow_hess[:, 0, 1]),
        }
        for name, (a, b) in pairs.items():
            assert sp_stats.ks_2samp(a, b).statistic < crit, name

    @pytest.mark.parametrize("beta", BETAS)
    @pytest.mark.parametrize("rho", ["pure", "rank3", "full"])
    def test_batched_derivatives_match_instance_formulas(self, beta, rho):
        # the same frames through both formulas: redraw the Haar matrices u
        # from the stream and the parameter frames G, sample by sample, from
        # its one child stream, then hand grad_eval and hessian_eval the
        # circuit with O~ = diag(o), rho~ = u diag(rho) u^dagger and
        # conjugated generators G J G^dagger
        spectra = {"pure": None, "rank3": [0.5, 0.3, 0.2, 0, 0, 0],
                   "full": np.arange(1.0, 7.0) / 21.0}
        comp = component(beta=beta, dim=6, rho=spectra[rho], index=1.5, params=3)
        n = 5
        mc = mc_landscape(comp, n, rng(61), collect=("grad", "hessian"))
        r = rng(61)
        u = haar_group(beta, 6, r, size=n)
        blocks = [field.generator_block(beta, i) for i in range(3)]
        frames = haar_columns(beta, 6, blocks[0].shape[0], r.split(1)[0], size=3 * n)
        ident = field.eye(beta, 6)
        for s in range(n):
            gens = tuple(field.matmul(beta, field.matmul(beta, g, j), field.adjoint(beta, g))
                         for g, j in zip(frames[3 * s:3 * s + 3], blocks))
            inst = AnsatzInstance(component=comp, generators=gens, conjugators=(ident,) * 3,
                                  state_frame=ident, observable_frame=u[s])
            np.testing.assert_allclose(mc.gradients[s], grad_eval(inst), rtol=0, atol=1e-15)
            np.testing.assert_allclose(mc.hessians[s], hessian_eval(inst), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("rho", ["pure", "rank3", "full"])
    def test_real_column_signs_leave_frame_reads_unchanged(self, rho):
        # mc_landscape's frames u are Haar on O(N), not folded onto SO(N): it
        # reads u only through |u_ij|^2 and the r x k products u^T G and
        # (O u)^T G, and negating column mu of u negates row mu of both,
        # which every product in the gradient and Hessian entries pairs
        spectra = {"pure": None, "rank3": [0.5, 0.3, 0.2, 0, 0, 0],
                   "full": np.arange(1.0, 7.0) / 21.0}
        comp = component(beta=1, dim=6, rho=spectra[rho], params=3)
        obs, weights = comp.observable_spectrum, comp.input_spectrum
        cols = int(np.count_nonzero(weights))
        u = haar_columns(1, 6, 6, rng(63), size=20)
        frames = haar_columns(1, 6, 2, rng(66), size=20 * 3).reshape(20, 3, 6, 2)
        blocks = np.stack([field.generator_block(1, i) for i in range(3)])

        def derivatives(v):
            grads, hessians = simulator._frame_derivatives(
                1, v[:, :, :cols], frames, obs, weights[:cols], blocks, True)
            return grads.tobytes(), hessians.tobytes()

        losses = simulator._fast_losses(1, u, obs, weights).tobytes()
        reads = derivatives(u)
        signs = rng(64).generator.choice([-1.0, 1.0], size=(20, 1, 6))
        flips = [signs] + [np.where(np.arange(6) == col, -1.0, 1.0) for col in range(6)]
        for flip in flips:
            flipped = u * flip
            assert simulator._fast_losses(1, flipped, obs, weights).tobytes() == losses
            assert derivatives(flipped) == reads

    def test_real_frame_scale_is_the_triangular_determinant(self):
        # s = r11 r22 of the 2 x 2 QR factor, also for nearly parallel
        # columns, where |g1|^2 |g2|^2 - (g1.g2)^2 cancels: there both sides
        # carry a relative error near eps / 1e-9
        g = rng(67).generator.standard_normal((40, 6, 2))
        g[0, :, 1] = g[0, :, 0] + 1e-9 * g[0, :, 1]
        r = np.linalg.qr(g)[1]
        det = np.abs(r[:, 0, 0] * r[:, 1, 1])
        s = simulator._frame_scale(1, g)
        np.testing.assert_allclose(s[1:], det[1:], rtol=1e-14)
        np.testing.assert_allclose(s[0], det[0], rtol=1e-6)

    @pytest.mark.parametrize("beta,seed", [(1, 2601), (2, 2602), (4, 2604)])
    def test_derivative_second_moments_match_exact_values(self, beta, seed):
        # an oracle independent of the instance route: at theta = 0 the
        # second moments of a gradient entry and of a Hessian diagonal entry
        # are fixed multiples of the exact loss variance Var,
        #   E[g_i^2]  = Var * {4/(N-1), 2/(N+1), 4/(2N+1)},
        #   E[H_ii^2] = Var * {4(N+14)/((N-1)(N+2)), 2/(N+1), 4/(2N+1)}
        # for beta = 1, 2, 4.  Seeds, sizes and the |z| <= 4 bound were fixed
        # before the first run.
        n, dim = 60000, 6
        comp = component(beta=beta, dim=dim, rho=[0.5, 0.3, 0.2, 0, 0, 0], index=1.5, params=2)
        var = exact_conjugation_variance(beta, comp.observable_spectrum,
                                         comp.input_spectrum, index=1.5)
        grad_ratio = {1: 4 / (dim - 1), 2: 2 / (dim + 1), 4: 4 / (2 * dim + 1)}[beta]
        hess_ratio = {1: 4 * (dim + 14) / ((dim - 1) * (dim + 2)), 2: 2 / (dim + 1),
                      4: 4 / (2 * dim + 1)}[beta]
        mc = mc_landscape(comp, n, rng(seed), collect=("grad", "hessian"))
        entries = {"g_0": (mc.gradients[:, 0], grad_ratio),
                   "g_1": (mc.gradients[:, 1], grad_ratio),
                   "H_00": (mc.hessians[:, 0, 0], hess_ratio),
                   "H_11": (mc.hessians[:, 1, 1], hess_ratio)}
        for name, (x, ratio) in entries.items():
            sq = x ** 2
            z = (sq.mean() - ratio * var) / (sq.std() / np.sqrt(n))
            assert abs(z) <= 4.0, (name, sq.mean() / (ratio * var), z)

    @pytest.mark.parametrize("beta", BETAS)
    def test_hessian_leaves_losses_and_gradients_unchanged(self, beta):
        comp = component(beta=beta, dim=6, rho=[0.6, 0.4, 0, 0, 0, 0], params=3)
        a = mc_landscape(comp, 300, rng(58), collect=("loss", "grad"))
        b = mc_landscape(comp, 300, rng(58), collect=("loss", "grad", "hessian"))
        np.testing.assert_array_equal(a.losses, b.losses)
        np.testing.assert_array_equal(a.gradients, b.gradients)

    @pytest.mark.parametrize("beta", BETAS)
    @pytest.mark.parametrize("dim", [6, 32])
    @pytest.mark.parametrize("rho", ["pure", "rank3", "full"])
    def test_loss_only_call_sees_the_gradient_call_draws(self, beta, dim, rho):
        # every call orthonormalizes only the leading rank(rho) columns of
        # each Gaussian, the ones the input reaches, so a loss-only call and
        # a call collecting gradients or Hessians factor the same columns and
        # give the same losses bit for bit, at every rank
        spectra = {"pure": None, "rank3": [0.5, 0.3, 0.2] + [0.0] * (dim - 3),
                   "full": np.arange(1.0, dim + 1.0) / (dim * (dim + 1) / 2)}
        comp = component(beta=beta, dim=dim, rho=spectra[rho], index=1.5, params=2)
        n = 200
        only = mc_landscape(comp, n, rng(65))
        both = mc_landscape(comp, n, rng(65), collect=("loss", "grad"))
        assert only.losses.tobytes() == both.losses.tobytes()
        # those columns are the leading ones of the Haar matrices the stream
        # gives: the QR of all dim columns agrees with theirs up to rounding,
        # at most 9.2e-16 of the largest raw loss in these cases, so 1e-14
        # bounds it with room
        full_draw = rng(65)
        u = haar_columns(beta, dim, dim, full_draw, size=n)
        ref = comp.index * simulator._fast_losses(
            beta, u, comp.observable_spectrum, comp.input_spectrum) - only.loss_floor
        raw = np.max(np.abs(ref + only.loss_floor))
        np.testing.assert_allclose(only.losses, ref, rtol=0, atol=1e-14 * raw)
        # the whole dim x dim Gaussian of every draw is still read from rng,
        # whichever quantities are collected
        for collect in (("loss",), ("loss", "grad"), ("hessian",)):
            r = rng(65)
            mc_landscape(comp, n, r, collect=collect)
            assert r.generator.bit_generator.state == full_draw.generator.bit_generator.state

    def test_returns_only_collected_quantities(self):
        comp = component(beta=2, dim=5, params=2)
        mc = mc_landscape(comp, 4, rng(59), collect=("hessian",))
        assert mc.losses is None and mc.gradients is None
        assert mc.hessians.shape == (4, 2, 2)

    @pytest.mark.parametrize("beta,dim,params,collect", [
        (1, 64, 3, ("loss", "grad")),
        (2, 64, 3, ("loss", "grad")),
        (4, 64, 3, ("loss", "grad")),
        (1, 16, 8, ("loss", "grad", "hessian")),
        (2, 16, 8, ("loss", "grad", "hessian")),
        (4, 16, 8, ("loss", "grad", "hessian")),
        (1, 64, 3, ("loss",)),
        (2, 64, 3, ("loss",)),
        (4, 64, 3, ("loss",)),
        (1, 4, 40, ("loss", "grad")),
        (2, 4, 40, ("loss", "grad")),
        (4, 4, 40, ("loss", "grad")),
        (1, 4, 40, ("loss", "grad", "hessian")),
        (2, 4, 40, ("loss", "grad", "hessian")),
        (4, 4, 40, ("loss", "grad", "hessian")),
    ])
    def test_batches_peak_below_cap(self, beta, dim, params, collect):
        # two full batches and one draw, so that a batch's arrays would show
        # if they outlived it into the next batch's draws.  At dim 4 the
        # input is full-rank and p >> N, so that frames, the r x k reads and
        # any product held over all p^2 pairs of parameters outweigh the
        # N x N Gaussian
        rho = [0.4, 0.3, 0.2, 0.1] if dim == 4 else [0.5, 0.3, 0.2] + [0.0] * (dim - 3)
        comp = component(beta=beta, dim=dim, rho=rho, params=params)
        frames = "grad" in collect or "hessian" in collect
        batch = _auto_batch(beta, dim, params if frames else 0, "hessian" in collect)
        tracemalloc.start()
        try:
            mc_landscape(comp, 2 * batch + 1, rng(60), collect=collect)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= BATCH_BYTES

    @pytest.mark.parametrize("beta", BETAS)
    def test_hessian_route_shapes(self, beta):
        comp = component(beta=beta, dim=5, params=3)
        mc = mc_landscape(comp, 7, rng(53), collect=("loss", "grad", "hessian"))
        assert mc.losses.shape == (7,)
        assert mc.gradients.shape == (7, 3)
        assert mc.hessians.shape == (7, 3, 3)
        for h in mc.hessians:
            np.testing.assert_array_equal(h, h.T)

    def test_reproducible(self):
        comp = component(beta=2, dim=6, params=2)
        a = mc_landscape(comp, 500, rng(54), collect=("loss", "grad"))
        b = mc_landscape(comp, 500, rng(54), collect=("loss", "grad"))
        np.testing.assert_array_equal(a.losses, b.losses)
        np.testing.assert_array_equal(a.gradients, b.gradients)

    def test_small_batch_covers_all_samples(self, monkeypatch):
        monkeypatch.setattr(simulator, "BATCH_DRAWS", 3)
        comp = component(beta=2, dim=4)
        mc = mc_landscape(comp, 10, rng(55))
        assert mc.losses.shape == (10,)
        assert np.all(np.isfinite(mc.losses))

    @pytest.mark.parametrize("beta", BETAS)
    @pytest.mark.parametrize("rho", ["pure", "rank3"])
    def test_draws_independent_of_batching(self, beta, rho, monkeypatch):
        # every collect set gives the same bits whether the 53 draws come in
        # one batch or in batches of 20, 7 or 1
        spectra = {"pure": None, "rank3": [0.5, 0.3, 0.2, 0, 0, 0]}
        comp = component(beta=beta, dim=6, rho=spectra[rho], params=3)
        collects = [c for n in (1, 2, 3) for c in itertools.combinations(
            ("loss", "grad", "hessian"), n)]
        for collect in collects:
            runs = []
            for cap in (53, 20, 7, 1):
                monkeypatch.setattr(simulator, "BATCH_DRAWS", cap)
                mc = mc_landscape(comp, 53, rng(62), collect=collect)
                runs.append([getattr(mc, a) for a in ("losses", "gradients", "hessians")])
            for run in runs[1:]:
                for a, b in zip(runs[0], run):
                    assert (a is None and b is None) or a.tobytes() == b.tobytes(), collect

    def test_validation(self):
        comp = component(beta=2, dim=4, params=0)
        with pytest.raises(ValidationError):
            mc_landscape(comp, 10, rng(0), collect=("gradient",))
        with pytest.raises(ValidationError):
            mc_landscape(comp, 10, rng(0), collect=())
        with pytest.raises(ValidationError):
            mc_landscape(comp, 0, rng(0))
        with pytest.raises(ValidationError):
            mc_landscape(comp, 2.5, rng(0))
        with pytest.raises(ValidationError):
            mc_landscape(comp, 10, rng(0), collect=("grad",))   # params = 0

    def test_bare_string_collect_refused(self):
        comp = component(beta=2, dim=4, params=1)
        with pytest.raises(ValidationError, match=r"collect .* \('loss',\)"):
            mc_landscape(comp, 10, rng(0), collect="loss")


class TestSpectrumFromPauli:
    def test_single_z(self):
        np.testing.assert_allclose(spectrum_from_pauli([(1.0, "Z")]), [-1.0, 1.0])

    def test_x_plus_z(self):
        got = spectrum_from_pauli([(1.0, "X"), (1.0, "Z")])
        s = np.sqrt(2.0)
        np.testing.assert_allclose(got, [-s, s], atol=1e-12)

    def test_two_qubit_degenerate(self):
        got = spectrum_from_pauli([(1.0, "ZZ"), (0.5, "XI")])
        s = np.sqrt(1.25)
        np.testing.assert_allclose(got, [-s, -s, s, s], atol=1e-12)

    def test_identity_shift(self):
        got = spectrum_from_pauli([(2.0, "II")])
        np.testing.assert_allclose(got, [2.0, 2.0, 2.0, 2.0])

    def test_traceless_unless_identity(self):
        got = spectrum_from_pauli([(0.3, "III"), (1.2, "XYZ")])
        assert got.size == 8
        assert float(np.sum(got)) == pytest.approx(0.3 * 8.0, abs=1e-10)

    @pytest.mark.parametrize("terms", [
        [],
        [(1.0, "I" * 13)],
        [(1.0, "XX"), (1.0, "X")],
        [(1.0, "XQ")],
        [(1.0, "")],
        [1.0],
        [(1.0, 7)],
    ])
    def test_rejects_malformed(self, terms):
        with pytest.raises(ValidationError):
            spectrum_from_pauli(terms)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_coefficient(self, bad):
        with pytest.raises(ValidationError, match="term 1: coefficient"):
            spectrum_from_pauli([(1.0, "ZI"), (bad, "XZ")])

    def test_rejects_overflowing_sum(self):
        with pytest.raises(ValidationError, match="non-finite"):
            spectrum_from_pauli([(1e308, "ZI"), (1e308, "ZZ")])
