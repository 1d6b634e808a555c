"""Sector data model and spectral bookkeeping."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (
    BasisValidationError,
    DegenerateElementError,
    component,
    index_constant,
    project_into_component,
    single_model,
    spin_factor_reduce,
)
from wishartscape import (
    FIELD_C,
    FIELD_H,
    FIELD_R,
    DegenerateObservableError,
    FieldTag,
    RngState,
    SectorModel,
    SimpleComponent,
    ValidationError,
    beta_of,
    dim_automorphism,
    field_from_symbol,
    haar_columns,
    haar_group,
    purity,
    spectral_stats,
    wishart_bartlett,
    wishart_direct,
)


class TestFieldTag:
    def test_symbols(self):
        assert FIELD_R.symbol == "R"
        assert FIELD_C.symbol == "C"
        assert FIELD_H.symbol == "H"

    def test_round_trip(self):
        for sym in "RCH":
            assert field_from_symbol(sym).symbol == sym

    def test_bad_symbol(self):
        with pytest.raises(ValidationError):
            field_from_symbol("Q")

    def test_bad_beta(self):
        with pytest.raises(ValidationError):
            FieldTag(3)

    def test_beta_of(self):
        assert beta_of(FIELD_H) == 4
        assert beta_of(2) == 2
        with pytest.raises(ValidationError):
            beta_of(5)


# every entry point that takes a field, reduced to the beta (or the draw) it
# made of it; each goes through algebra.beta_of
_BETA_TAKERS = {
    "FieldTag": lambda b: FieldTag(b).beta,
    "beta_of": beta_of,
    "SimpleComponent": lambda b: SimpleComponent(
        field=b, dim=2, index=1.0, observable_spectrum=[0.0, 1.0],
        input_spectrum=[1.0, 0.0]).beta,
    "wishart_direct": lambda b: wishart_direct(b, 2, 3, RngState(0)).beta,
    "wishart_bartlett": lambda b: wishart_bartlett(b, 2, 3, RngState(0)).beta,
    "haar_group": lambda b: haar_group(b, 3, RngState(0)),
    "haar_columns": lambda b: haar_columns(b, 3, 2, RngState(0)),
    "dim_automorphism": lambda b: dim_automorphism(b, 3),
}


class TestBetaRule:
    @pytest.mark.parametrize("bad", [True, np.True_, 3, "2", 2.5, None])
    @pytest.mark.parametrize("taker", sorted(_BETA_TAKERS))
    def test_refused_naming_beta(self, taker, bad):
        with pytest.raises(ValidationError, match="beta"):
            _BETA_TAKERS[taker](bad)

    @pytest.mark.parametrize("taker", sorted(_BETA_TAKERS))
    def test_whole_float_is_the_int(self, taker):
        got, want = _BETA_TAKERS[taker](2.0), _BETA_TAKERS[taker](2)
        assert type(got) is type(want)
        np.testing.assert_array_equal(got, want)

    def test_field_tag_of_a_float_is_the_tag(self):
        assert FieldTag(2.0) == FIELD_C
        assert FieldTag(FIELD_H) == FIELD_H


class TestSimpleComponent:
    def test_sorting_conventions(self):
        c = component(obs=[3.0, 1.0, 2.0, 0.0], rho=[0.1, 0.6, 0.3, 0.0], dim=4)
        np.testing.assert_array_equal(c.observable_spectrum, [0, 1, 2, 3])
        np.testing.assert_array_equal(c.input_spectrum, [0.6, 0.3, 0.1, 0.0])

    def test_spectra_are_immutable(self):
        c = component(dim=4)
        with pytest.raises((ValueError, RuntimeError)):
            c.observable_spectrum[0] = 5.0

    def test_properties(self):
        c = component(beta=4, dim=3, obs=[0, 1, 2], rho=[0.5, 0.25, 0.25])
        assert c.beta == 4
        assert c.input_trace == pytest.approx(1.0)
        assert c.input_purity == pytest.approx(0.375)
        assert not c.is_rank_one_input()
        assert component(dim=3, obs=[0, 1, 2]).is_rank_one_input()

    @pytest.mark.parametrize("kwargs", [
        dict(obs=[1.0, 2.0], dim=3),                      # size mismatch
        dict(rho=[-0.1, 1.1, 0.0], dim=3),                # negative weight
        dict(rho=[0.0, 0.0, 0.0], dim=3),                 # zero trace
        dict(index=0.5, dim=3),                           # index below 1
        dict(params=-1, dim=3),                           # negative params
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValidationError):
            component(**kwargs)

    def test_non_integer_dim(self):
        with pytest.raises(ValidationError):
            component(dim=2.5, obs=[0, 1], rho=[1, 0])


class TestSectorModel:
    def test_param_budget_enforced(self):
        c = component(dim=4, params=10)
        with pytest.raises(ValidationError):
            SectorModel(components=(c,), total_params=9)

    def test_total_can_exceed_sector_sum(self):
        c = component(dim=4, params=10)
        m = SectorModel(components=(c,), total_params=15)
        assert m.total_params == 15

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            SectorModel(components=(), total_params=1)

    def test_bad_normalization(self):
        c = component(dim=4)
        with pytest.raises(ValidationError):
            SectorModel(components=(c,), total_params=1, normalization=0.0)


@pytest.mark.parametrize("index", [1e103, 1e200, 1.7e308])
def test_index_whose_cube_overflows_refused(index):
    with pytest.raises(ValidationError, match="^index must be a number whose cube is finite"):
        component(dim=4, index=index)


def test_index_with_finite_cube_accepted():
    assert component(dim=4, index=5e102).index == 5e102


@pytest.mark.parametrize("rho", [[1e103, 0, 0, 0], [1e200, 0, 0, 0], [6e102, 6e102, 0, 0],
                                 [1e308, 1e308, 0, 0]])
def test_input_trace_whose_cube_overflows_refused(rho):
    with pytest.raises(ValidationError,
                       match="^input_spectrum must have a trace whose cube is finite"):
        component(dim=4, rho=rho)


def test_input_trace_with_finite_cube_accepted():
    assert component(dim=4, rho=[5e102, 0, 0, 0]).input_trace == 5e102


class TestSpectralStats:
    def test_hand_example(self):
        # [1,2,3,4] shifts to [0,1,2,3]: trace 6, square-trace 14
        st_ = spectral_stats([1.0, 2.0, 3.0, 4.0])
        assert st_.floor == 1.0
        assert st_.trace == pytest.approx(6.0)
        assert st_.trace_sq == pytest.approx(14.0)
        assert st_.mean_eig == pytest.approx(1.5)
        assert st_.std_eig == pytest.approx(np.sqrt(1.25))
        assert st_.dof_real == pytest.approx(36.0 / 14.0)
        assert st_.dof == 3

    def test_flat_spectrum_without_shift(self):
        st_ = spectral_stats(np.ones(8), shift=False)
        assert st_.dof_real == pytest.approx(8.0)
        assert st_.std_eig == 0.0

    def test_flat_spectrum_with_shift_degenerates(self):
        with pytest.raises(DegenerateObservableError):
            spectral_stats(np.full(8, 3.7))

    def test_single_nonzero_gives_dof_one(self):
        st_ = spectral_stats([0.0, 0.0, 0.0, 2.0])
        assert st_.dof_real == pytest.approx(1.0)

    def test_accepts_component(self):
        c = component(dim=4, obs=[1, 2, 3, 4])
        assert spectral_stats(c).trace == pytest.approx(6.0)

    def test_component_summary_kept_and_equal_to_array_route(self):
        c = component(dim=6, obs=[0.3, 0.9, 0.1, 0.5, 0.5, 2.0])
        first = spectral_stats(c)
        assert spectral_stats(c) is first
        assert first == spectral_stats(c.observable_spectrum)

    def test_component_unshifted_summary_not_cached(self):
        c = component(dim=4, obs=[1, 2, 3, 4])
        assert spectral_stats(c, shift=False) == spectral_stats([1, 2, 3, 4], shift=False)
        assert spectral_stats(c).floor == 1.0

    def test_constant_component_raises_every_call(self):
        c = component(dim=4, obs=[2.5] * 4)
        for _ in range(3):
            with pytest.raises(DegenerateObservableError):
                spectral_stats(c)

    @pytest.mark.parametrize("spectrum", [
        [1e308, 1e308, 1e308, -1e308],   # the shift itself overflows
        [0.0, 1e200, 2e200, 3e200],      # the squares overflow
        [0.0, 7e153, 7e153, 7e153],      # trace_sq is finite, trace^2 is not
    ])
    def test_overflowing_spectrum_refused_by_cause(self, spectrum):
        with pytest.raises(DegenerateObservableError, match="too wide.*overflow"):
            spectral_stats(spectrum)

    @pytest.mark.parametrize("spectrum", [
        [0.0, 1e-300, 2e-300, 3e-300],   # the squares underflow to zero
        [0.0, 1e-160, 1e-160, 1e-160],   # trace_sq is subnormal
    ])
    def test_underflowing_spectrum_refused_by_cause(self, spectrum):
        with pytest.raises(DegenerateObservableError, match="too narrow.*underflow"):
            spectral_stats(spectrum)

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_spectrum_near_float_range_edges_accepted(self, scale):
        st_ = spectral_stats([0.0, scale, 2.0 * scale, 3.0 * scale])
        assert st_.dof_real == pytest.approx(36.0 / 14.0)

    def test_shift_disabled_keeps_anchor(self):
        st_ = spectral_stats([1.0, 2.0], shift=False)
        assert st_.floor == 0.0
        assert st_.trace == pytest.approx(3.0)

    def test_permutation_invariance(self):
        # equal up to summation-order roundoff
        a = spectral_stats([0.3, 0.9, 0.1, 0.5])
        b = spectral_stats([0.5, 0.1, 0.9, 0.3])
        assert a.trace == pytest.approx(b.trace, rel=1e-15)
        assert a.trace_sq == pytest.approx(b.trace_sq, rel=1e-15)
        assert a.dof_real == pytest.approx(b.dof_real, rel=1e-14)
        assert a.dof == b.dof
        assert a.floor == b.floor

    @given(
        arrays(np.float64, st.integers(min_value=2, max_value=16),
               elements=st.floats(min_value=0.0, max_value=100.0))
    )
    @settings(max_examples=100)
    def test_dispersion_identity(self, spectrum):
        # sqrt(N / dof - 1) equals the coefficient of variation of the
        # shifted spectrum: an exact algebraic identity
        assume(np.ptp(spectrum) > 1e-6)
        st_ = spectral_stats(spectrum)
        n = spectrum.size
        lhs = np.sqrt(n / st_.dof_real - 1.0)
        rhs = st_.std_eig / st_.mean_eig
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)

    @given(
        arrays(np.float64, st.integers(min_value=2, max_value=16),
               elements=st.floats(min_value=0.0, max_value=100.0))
    )
    @settings(max_examples=100)
    def test_dof_bounds(self, spectrum):
        # 1 <= dof_real <= N for any nonnegative anchored spectrum
        assume(np.ptp(spectrum) > 1e-6)
        st_ = spectral_stats(spectrum)
        assert 1.0 - 1e-9 <= st_.dof_real <= spectrum.size + 1e-9


class TestDimAutomorphism:
    @pytest.mark.parametrize("field,dim,expect", [
        (FIELD_R, 4, 6),      # so(4)
        (FIELD_R, 8, 28),
        (FIELD_C, 4, 16),     # u(4)
        (FIELD_C, 64, 4096),
        (FIELD_H, 4, 36),     # sp(4)
        (FIELD_H, 1, 3),
        (FIELD_R, 1, 0),      # a real scalar sector has no rotations
    ])
    def test_closed_forms(self, field, dim, expect):
        assert dim_automorphism(field, dim) == expect

    def test_accepts_beta(self):
        assert dim_automorphism(2, 5) == 25

    @pytest.mark.parametrize("dim", [0, 2.9, True, "3", None, np.nan])
    def test_dim_must_be_a_positive_integer(self, dim):
        with pytest.raises(ValidationError, match="dim"):
            dim_automorphism(4, dim)

    @given(st.sampled_from([1, 2, 4]), st.integers(min_value=1, max_value=60))
    def test_matches_generator_count(self, beta, n):
        # (beta-1) n diagonal-phase generators plus beta n(n-1)/2 off-diagonal
        expect = (beta - 1) * n + beta * n * (n - 1) // 2
        assert dim_automorphism(beta, n) == expect


class TestPurityAndIndex:
    def test_purity_extremes(self):
        assert purity([1, 0, 0, 0]) == pytest.approx(1.0)
        assert purity(np.full(5, 0.2)) == pytest.approx(0.2)

    def test_purity_scale_invariance(self):
        assert purity([2, 1, 1]) == pytest.approx(purity([0.5, 0.25, 0.25]))

    @pytest.mark.parametrize("scale", [5e-324, 1e-300, 1e-200, 1.0, 1e200, 1e300])
    @pytest.mark.parametrize("spectrum,expect", [([1, 0, 0], 1.0), ([1, 3], 0.625),
                                                 ([1, 1, 1, 1], 0.25)],
                             ids=["rank-one", "rank-two", "mixed"])
    def test_purity_over_the_float_range(self, scale, spectrum, expect):
        # a float squared underflows below about 1e-162 and overflows above
        # about 1e154, weights and trace alike
        assert purity(scale * np.array(spectrum, dtype=float)) == pytest.approx(expect)

    def test_purity_validation(self):
        with pytest.raises(ValidationError):
            purity([-0.5, 1.5])
        with pytest.raises(ValidationError):
            purity([0.0, 0.0])

    def test_index_examples(self):
        assert index_constant(2.0, 1.0) == pytest.approx(2.0)
        assert index_constant(3.0, 1.5) == pytest.approx(2.0)
        assert index_constant(1.0, 1.0) == pytest.approx(1.0)

    def test_index_degenerate(self):
        with pytest.raises(DegenerateElementError):
            index_constant(1.0, 0.0)


class TestProjection:
    def real_basis(self):
        e00 = np.array([[1.0, 0.0], [0.0, 0.0]])
        e11 = np.array([[0.0, 0.0], [0.0, 1.0]])
        esym = np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2.0)
        return [e00, e11, esym]

    def test_real_coefficients(self):
        m = np.array([[2.0, 3.0], [3.0, -1.0]])
        coeffs, proj = project_into_component(m, self.real_basis())
        np.testing.assert_allclose(coeffs, [2.0, -1.0, 3.0 * np.sqrt(2.0)])
        np.testing.assert_allclose(proj, m, atol=1e-12)

    def test_idempotent(self):
        m = np.array([[1.0, 0.5], [0.5, 0.25]])
        _, proj1 = project_into_component(m, self.real_basis())
        _, proj2 = project_into_component(proj1, self.real_basis())
        np.testing.assert_allclose(proj1, proj2, atol=1e-13)

    def test_complex_pauli_basis(self):
        paulis = [
            np.eye(2, dtype=complex) / np.sqrt(2),
            np.array([[0, 1], [1, 0]], dtype=complex) / np.sqrt(2),
            np.array([[0, -1j], [1j, 0]]) / np.sqrt(2),
            np.array([[1, 0], [0, -1]], dtype=complex) / np.sqrt(2),
        ]
        m = np.array([[0.5, 1 - 2j], [1 + 2j, -0.5]])
        coeffs, proj = project_into_component(m, paulis)
        np.testing.assert_allclose(proj, m, atol=1e-12)
        np.testing.assert_allclose(
            coeffs, [0.0, np.sqrt(2), 2 * np.sqrt(2), np.sqrt(2) / 2], atol=1e-12
        )

    def test_quaternion_basis(self):
        b1 = np.zeros((2, 2, 4))
        b1[0, 0, 0] = 1.0
        b2 = np.zeros((2, 2, 4))
        b2[0, 1, 2] = 1.0
        m = 2.5 * b1 - 1.5 * b2
        coeffs, proj = project_into_component(m, [b1, b2])
        np.testing.assert_allclose(coeffs, [2.5, -1.5])
        np.testing.assert_allclose(proj, m, atol=1e-13)

    def test_incomplete_basis_truncates(self):
        m = np.array([[2.0, 3.0], [3.0, -1.0]])
        basis = self.real_basis()[:2]
        _, proj = project_into_component(m, basis)
        np.testing.assert_allclose(proj, np.diag([2.0, -1.0]), atol=1e-13)

    def test_skewed_basis_rejected(self):
        bad = [np.eye(2), np.array([[1.0, 0.0], [0.0, 0.5]])]
        with pytest.raises(BasisValidationError):
            project_into_component(np.eye(2), bad)

    def test_unnormalized_basis_rejected(self):
        with pytest.raises(BasisValidationError):
            project_into_component(np.eye(2), [2.0 * np.eye(2)])

    def test_empty_basis_rejected(self):
        with pytest.raises(BasisValidationError):
            project_into_component(np.eye(2), [])


class TestSpinFactorReduce:
    def test_shapes_and_sorting(self):
        rho, obs = spin_factor_reduce([0.7, 0.3], [1.0, 2.0])
        assert rho.shape == obs.shape == (4,)
        assert np.all(np.diff(rho) >= 0)
        assert np.all(np.diff(obs) >= 0)

    def test_values(self):
        rho, obs = spin_factor_reduce([1.0, 0.0], [1.0, 2.0])
        np.testing.assert_allclose(rho, [0.0, 0.0, 0.0, 1.0])
        np.testing.assert_allclose(obs, [1.0, 2.0, 2.0, 4.0])

    def test_traces_square(self):
        rho = np.array([0.5, 0.3, 0.2])
        obs = np.array([0.0, 1.0, 3.0])
        r2, o2 = spin_factor_reduce(rho, obs)
        assert np.sum(r2) == pytest.approx(np.sum(rho) ** 2)
        assert np.sum(o2) == pytest.approx(np.sum(obs) ** 2)

    def test_purity_squares(self):
        rho = np.array([0.6, 0.4, 0.0])
        r2, _ = spin_factor_reduce(rho, np.ones(3))
        assert purity(r2) == pytest.approx(purity(rho) ** 2)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            spin_factor_reduce([1.0], [1.0, 2.0])


class TestHelpersContract:
    def test_single_model_wraps(self):
        c = component(dim=4, params=3)
        m = single_model(c)
        assert m.total_params == 3
        assert m.components == (c,)
