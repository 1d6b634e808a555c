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
    EmpiricalDistribution,
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
    _exp_generator,
    canonical_generator,
)

BETAS = [1, 2, 4]


def _unitarity_defect(beta, u):
    if beta == 4:
        return float(np.max(np.abs(qmatmul(qdagger(u), u) - field.eye(4, u.shape[0]))))
    return float(np.max(np.abs(np.conj(u.T) @ u - np.eye(u.shape[0]))))


def _neg(a):
    return -a


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
        got = np.array([_exp_generator(comp, 0, float(t))[0, 0] for t in thetas])
        want = np.exp(1j * thetas)
        np.testing.assert_array_equal(got.view(np.float64), want.view(np.float64))
        assert not np.any(np.signbit(got.view(np.float64)) ^ np.signbit(want.view(np.float64)))

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

    def test_loss_bounded_by_spectrum(self):
        comp = component(beta=2, dim=6, index=1.5, params=2)
        lo = 1.5 * float(comp.observable_spectrum[0])
        hi = 1.5 * float(comp.observable_spectrum[-1])
        g = np.random.default_rng(3)
        for seed in range(20):
            inst = build_ansatz(comp, rng(seed))
            val = loss_eval(inst, g.normal(size=2))
            assert lo - 1e-12 <= val <= hi + 1e-12

    def test_parameter_shift_preserves_law(self):
        # the Haar-framed circuit at any fixed theta has the same loss law
        # as at theta = 0
        comp = component(beta=2, dim=8, params=3)
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

    @pytest.mark.parametrize("beta", BETAS)
    def test_hessian_leaves_losses_and_gradients_unchanged(self, beta):
        comp = component(beta=beta, dim=6, rho=[0.6, 0.4, 0, 0, 0, 0], params=3)
        a = mc_landscape(comp, 300, rng(58), collect=("loss", "grad"))
        b = mc_landscape(comp, 300, rng(58), collect=("loss", "grad", "hessian"))
        np.testing.assert_array_equal(a.losses, b.losses)
        np.testing.assert_array_equal(a.gradients, b.gradients)

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
    ])
    def test_batches_peak_below_cap(self, beta, dim, params, collect):
        # two full batches and one draw, so that a batch's arrays would show
        # if they outlived it into the next batch's draws
        comp = component(beta=beta, dim=dim, rho=[0.5, 0.3, 0.2] + [0.0] * (dim - 3),
                         params=params)
        batch = _auto_batch(beta, dim, params if "hessian" in collect else 0)
        tracemalloc.start()
        try:
            mc_landscape(comp, 2 * batch + 1, rng(60), collect=collect)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= BATCH_BYTES

    def test_hessian_route_shapes(self):
        comp = component(beta=2, dim=5, params=3)
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

    def test_loss_distribution_requires_losses(self):
        comp = component(beta=2, dim=4, params=1)
        mc = mc_landscape(comp, 10, rng(56), collect=("grad",))
        assert mc.losses is None
        with pytest.raises(ValidationError):
            mc.loss_distribution()

    def test_loss_distribution_summary(self):
        comp = component(beta=2, dim=4)
        mc = mc_landscape(comp, 64, rng(57))
        d = mc.loss_distribution()
        assert d.count == 64
        assert d.minimum <= d.mean <= d.maximum
        assert np.all(np.diff(d.samples) >= 0)


class TestEmpiricalDistribution:
    def test_from_samples(self):
        d = EmpiricalDistribution.from_samples([3.0, 1.0, 2.0])
        np.testing.assert_array_equal(d.samples, [1.0, 2.0, 3.0])
        assert d.count == 3
        assert d.mean == pytest.approx(2.0)
        assert d.variance == pytest.approx(2.0 / 3.0)
        assert (d.minimum, d.maximum) == (1.0, 3.0)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            EmpiricalDistribution.from_samples([])


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
