"""The field layer against independent routes: Hamilton products (helpers)
and the complex embedding for quaternions, plain numpy for R and C."""

import numpy as np
import pytest
from scipy.linalg import expm

from helpers import component, qabs2, qdagger, qmatmul, rng
from wishartscape import build_ansatz, field, loss_eval
from wishartscape.simulator import canonical_generator

BETAS = [1, 2, 4]

# (left shape, right shape, product shape) of the matrix axes with leading
# batch axes: single, batched, broadcast, all non-square
SHAPES = [
    ((3, 5), (5, 2), (3, 2)),
    ((7, 3, 4), (7, 4, 2), (7, 3, 2)),
    ((2, 1, 3, 4), (5, 4, 2), (2, 5, 3, 2)),
    ((1, 1), (1, 6), (1, 6)),
]


def draw(beta, shape, seed):
    g = np.random.default_rng(seed)
    if beta == 1:
        return g.standard_normal(shape)
    if beta == 2:
        return g.standard_normal(shape) + 1j * g.standard_normal(shape)
    return g.standard_normal(shape + (4,))


def embed(a):
    return field.embed_complex(4, a)


class TestMatmul:
    @pytest.mark.parametrize("left,right,out", SHAPES)
    def test_quaternion_matches_hamilton_and_embedding(self, left, right, out):
        a, b = draw(4, left, 1), draw(4, right, 2)
        got = field.matmul(4, a, b)
        assert got.shape == out + (4,)
        want = qmatmul(a, b)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))
        np.testing.assert_allclose(embed(got), embed(a) @ embed(b), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("beta", [1, 2])
    @pytest.mark.parametrize("left,right,out", SHAPES)
    def test_real_and_complex_are_numpy_matmul(self, beta, left, right, out):
        a, b = draw(beta, left, 3), draw(beta, right, 4)
        got = field.matmul(beta, a, b)
        assert got.shape == out
        assert got.tobytes() == np.matmul(a, b).tobytes()

    def test_batch_of_real_four_by_four(self):
        # a trailing axis of 4 is a matrix axis here, never a quaternion one
        a, b = draw(1, (3, 4, 4), 5), draw(1, (3, 4, 4), 6)
        got = field.matmul(1, a, b)
        assert got.shape == (3, 4, 4)
        np.testing.assert_allclose(got, np.einsum("bij,bjk->bik", a, b), atol=1e-13)
        adj = field.adjoint(1, a)
        assert adj.shape == (3, 4, 4)
        np.testing.assert_array_equal(adj, np.transpose(a, (0, 2, 1)))


class TestAdjointGramAbs2:
    @pytest.mark.parametrize("shape", [(4, 3), (5, 2, 6), (1, 1)])
    def test_quaternion_adjoint(self, shape):
        a = draw(4, shape, 7)
        got = field.adjoint(4, a)
        np.testing.assert_array_equal(got, qdagger(a))
        np.testing.assert_array_equal(embed(got), np.conj(np.swapaxes(embed(a), -2, -1)))

    @pytest.mark.parametrize("beta", BETAS)
    @pytest.mark.parametrize("shape", [(6, 9), (9, 6), (1, 1), (5, 4, 7)])
    def test_gram_is_matmul_with_adjoint(self, beta, shape):
        x = draw(beta, shape, 8)
        want = field.matmul(beta, x, field.adjoint(beta, x))
        np.testing.assert_allclose(field.gram(beta, x), want, rtol=0,
                                   atol=1e-13 * np.max(np.abs(want)))

    @pytest.mark.parametrize("shape", [(3, 5), (2, 4, 4), (1, 1)])
    def test_abs2(self, shape):
        q = draw(4, shape, 9)
        np.testing.assert_allclose(field.abs2(4, q), qabs2(q), rtol=1e-15)
        np.testing.assert_allclose(np.sum(field.abs2(4, q), axis=(-2, -1)),
                                   np.linalg.norm(embed(q), axis=(-2, -1)) ** 2 / 2.0,
                                   rtol=1e-13)
        z = draw(2, shape, 10)
        np.testing.assert_allclose(field.abs2(2, z), z.real ** 2 + z.imag ** 2, rtol=1e-15)
        r = draw(1, shape, 11)
        np.testing.assert_array_equal(field.abs2(1, r), r * r)


class TestTraceScaleEye:
    @pytest.mark.parametrize("beta", BETAS)
    def test_re_trace_prod(self, beta):
        a, b = draw(beta, (5, 5), 12), draw(beta, (5, 5), 13)
        got = field.re_trace_prod(beta, a, b)
        if beta == 4:
            assert got == pytest.approx(np.trace(qmatmul(a, b)[..., 0]), rel=1e-12)
            assert got == pytest.approx(np.trace(embed(a) @ embed(b)).real / 2.0, rel=1e-12)
        else:
            assert got == pytest.approx(np.trace(a @ b).real, rel=1e-12)

    @pytest.mark.parametrize("beta", BETAS)
    def test_re_trace_prod_reduces_matrix_axes_only(self, beta):
        a, b = draw(beta, (3, 2, 4, 4), 19), draw(beta, (2, 4, 4), 20)
        got = field.re_trace_prod(beta, a, b)
        assert got.shape == (3, 2)
        for idx in np.ndindex(3, 2):
            assert got[idx] == pytest.approx(field.re_trace_prod(beta, a[idx], b[idx[1]]),
                                             rel=1e-14)

    @pytest.mark.parametrize("beta,size", [(1, 2), (2, 1), (4, 1)])
    @pytest.mark.parametrize("which", [0, 1, 2, 3])
    def test_generator_block_squares_to_minus_identity(self, beta, size, which):
        j = field.generator_block(beta, which)
        assert j.shape[:2] == (size, size)
        np.testing.assert_array_equal(field.matmul(beta, j, j), -field.eye(beta, size))
        np.testing.assert_array_equal(field.adjoint(beta, j), -j)

    def test_quaternion_generator_blocks_cycle_units(self):
        units = [field.generator_block(4, which)[0, 0] for which in range(4)]
        np.testing.assert_array_equal(units, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
                                              [0, 1, 0, 0]])
        # i j = k
        ij = field.matmul(4, field.generator_block(4, 0), field.generator_block(4, 1))
        np.testing.assert_array_equal(ij, field.generator_block(4, 2))

    @pytest.mark.parametrize("beta", BETAS)
    def test_scale_columns_is_product_with_diagonal(self, beta):
        u = draw(beta, (2, 4, 3), 14)
        d = np.array([0.5, -2.0, 3.0])
        diag = field.eye(beta, 3) * (d[:, None, None] if beta == 4 else d[:, None])
        np.testing.assert_allclose(field.scale_columns(beta, u, d),
                                   field.matmul(beta, u, diag), rtol=1e-14)

    @pytest.mark.parametrize("beta", BETAS)
    def test_scale_columns_batched_diagonal(self, beta):
        u = draw(beta, (2, 4, 3), 16)
        d = np.array([[0.5, -2.0, 3.0], [1.5, 0.25, -1.0]])
        got = field.scale_columns(beta, u, d)
        for b in range(2):
            np.testing.assert_array_equal(got[b], field.scale_columns(beta, u[b], d[b]))

    @pytest.mark.parametrize("beta", BETAS)
    def test_real_entries_act_entry_by_entry(self, beta):
        a = draw(beta, (2, 3, 4), 17)
        r = np.random.default_rng(18).uniform(0.5, 2.0, (2, 3, 4))
        prod = a * field.real_entries(beta, r)
        quot = a / field.real_entries(beta, r)
        for idx in np.ndindex(r.shape):
            np.testing.assert_array_equal(prod[idx], r[idx] * a[idx])
            np.testing.assert_array_equal(quot[idx], a[idx] / r[idx])

    @pytest.mark.parametrize("beta,dtype", [(1, float), (2, complex), (4, float)])
    def test_eye(self, beta, dtype):
        e = field.eye(beta, 3)
        assert e.dtype == dtype
        np.testing.assert_array_equal(field.embed_complex(beta, e), np.eye(6 if beta == 4 else 3))

    @pytest.mark.parametrize("beta", [1, 2])
    def test_real_and_complex_are_their_own_image(self, beta):
        a = draw(beta, (3, 2), 15)
        assert field.embed_complex(beta, a) is a
        assert field.unembed_complex(beta, a) is a


class TestCircuitTwoRoutes:
    """loss_eval at theta != 0 for an Sp(N) circuit against the same circuit
    assembled in the complex embedding, where the trace counts every
    quaternionic eigenvalue twice."""

    @pytest.mark.parametrize("rho", [None, [0.5, 0.3, 0.2, 0.0, 0.0]])
    def test_quaternion_loss_matches_embedded_circuit(self, rho):
        comp = component(beta=4, dim=5, params=4, rho=rho, index=2.0)
        theta = np.array([0.7, -1.3, 2.1, 0.4])
        for seed in range(3):
            inst = build_ansatz(comp, rng(40 + seed))

            def conj_diag(frame, spectrum):
                e = embed(frame)
                return (e * np.repeat(spectrum, 2)) @ e.conj().T

            rho_t = conj_diag(inst.observable_frame, comp.input_spectrum)
            obs_t = conj_diag(inst.state_frame, comp.observable_spectrum)
            v = np.eye(10, dtype=complex)
            for i, t in enumerate(theta):
                g = embed(inst.conjugators[i])
                v = v @ g @ expm(t * embed(canonical_generator(comp, i))) @ g.conj().T
            want = comp.index * np.trace(rho_t @ v.conj().T @ obs_t @ v).real / 2.0
            assert loss_eval(inst, theta) == pytest.approx(want, rel=1e-12, abs=1e-12)
