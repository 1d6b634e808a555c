"""Quaternion arithmetic: field's beta = 4 layer on 1 x 1 matrices, the
Hamilton-product oracle in helpers, the package's qmul and qmatmul names,
and the complex 2 x 2 embedding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import qabs2, qconj, qdagger, qmatmul, qmul
from wishartscape import field, quaternion

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
quat = st.tuples(finite, finite, finite, finite).map(lambda t: q(*t))


def q(w, x=0.0, y=0.0, z=0.0):
    """The quaternion w + x i + y j + z k as a 1 x 1 matrix."""
    return np.array([w, x, y, z], dtype=float).reshape(1, 1, 4)


def mul(*factors):
    out = factors[0]
    for f in factors[1:]:
        out = field.matmul(4, out, f)
    return out


def norm(a):
    return float(np.sqrt(field.abs2(4, a)[0, 0]))


class TestUnitAlgebra:
    def test_squares(self):
        i, j, k = q(0, 1), q(0, 0, 1), q(0, 0, 0, 1)
        minus_one = q(-1)
        np.testing.assert_array_equal(mul(i, i), minus_one)
        np.testing.assert_array_equal(mul(j, j), minus_one)
        np.testing.assert_array_equal(mul(k, k), minus_one)

    def test_products(self):
        i, j, k = q(0, 1), q(0, 0, 1), q(0, 0, 0, 1)
        np.testing.assert_array_equal(mul(i, j), k)
        np.testing.assert_array_equal(mul(j, k), i)
        np.testing.assert_array_equal(mul(k, i), j)
        np.testing.assert_array_equal(mul(j, i), -k)
        np.testing.assert_array_equal(mul(i, j, k), q(-1))

    @given(quat, quat)
    def test_norm_multiplicative(self, a, b):
        assert norm(mul(a, b)) == pytest.approx(norm(a) * norm(b), rel=1e-9, abs=1e-9)

    @given(quat, quat, quat)
    @settings(max_examples=40)
    def test_associative(self, a, b, c):
        np.testing.assert_allclose(mul(mul(a, b), c), mul(a, mul(b, c)),
                                   rtol=1e-9, atol=1e-7)

    @given(quat)
    def test_conjugate_gives_squared_norm(self, a):
        prod = mul(a, field.adjoint(4, a))[0, 0]
        assert prod[1:] == pytest.approx([0, 0, 0], abs=1e-7)
        assert prod[0] == pytest.approx(norm(a) ** 2, rel=1e-9, abs=1e-9)


def random_quat_matrix(rng, rows, cols):
    return rng.standard_normal((rows, cols, 4))


class TestArrayOps:
    def test_qmul_matches_field_matmul(self):
        rng = np.random.default_rng(1)
        a4, b4 = rng.standard_normal((2, 4))
        via_oracle = qmul(a4, b4)
        via_field = field.matmul(4, a4.reshape(1, 1, 4), b4.reshape(1, 1, 4))[0, 0]
        np.testing.assert_allclose(via_oracle, via_field, rtol=1e-12)

    def test_qmul_broadcasts(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 1, 4))
        b = rng.standard_normal((1, 5, 4))
        out = qmul(a, b)
        assert out.shape == (3, 5, 4)
        np.testing.assert_allclose(out[2, 4], qmul(a[2, 0], b[0, 4]))

    def test_qconj_and_abs2(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 4))
        np.testing.assert_allclose(qmul(a, qconj(a))[:, 0], qabs2(a), rtol=1e-12)
        np.testing.assert_allclose(qmul(a, qconj(a))[:, 1:], 0, atol=1e-12)
        np.testing.assert_allclose(field.abs2(4, a), qabs2(a), rtol=1e-15)


class TestPackageProducts:
    """wishartscape.quaternion keeps the names qmul and qmatmul on top of
    field.matmul(4, .); both must agree with the Hamilton oracle."""

    def test_qmul_broadcasts_like_the_oracle(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((3, 1, 4))
        b = rng.standard_normal((1, 5, 4))
        out = quaternion.qmul(a, b)
        assert out.shape == (3, 5, 4)
        np.testing.assert_allclose(out, qmul(a, b), rtol=1e-12, atol=1e-15)

    def test_qmatmul_matches_the_oracle(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((2, 1, 3, 4, 4))
        b = rng.standard_normal((5, 4, 2, 4))
        out = quaternion.qmatmul(a, b)
        assert out.shape == (2, 5, 3, 2, 4)
        np.testing.assert_allclose(out, qmatmul(a, b), rtol=1e-12, atol=1e-14)


class TestEmbeddingOracle:
    """embed_complex is the oracle: products, adjoints and spectra must
    commute with the embedding."""

    def test_embedding_of_identity(self):
        np.testing.assert_allclose(field.embed_complex(4, field.eye(4, 3)), np.eye(6), atol=0)

    def test_qmatmul_vs_embedding(self):
        rng = np.random.default_rng(4)
        a = random_quat_matrix(rng, 3, 5)
        b = random_quat_matrix(rng, 5, 2)
        rhs = field.embed_complex(4, a) @ field.embed_complex(4, b)
        np.testing.assert_allclose(field.embed_complex(4, qmatmul(a, b)), rhs, atol=1e-12)
        np.testing.assert_allclose(field.embed_complex(4, field.matmul(4, a, b)), rhs,
                                   atol=1e-12)

    def test_qmatmul_batched(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((7, 3, 4, 4))
        b = rng.standard_normal((7, 4, 2, 4))
        out = qmatmul(a, b)
        assert out.shape == (7, 3, 2, 4)
        np.testing.assert_allclose(
            field.embed_complex(4, out[6]),
            field.embed_complex(4, a[6]) @ field.embed_complex(4, b[6]),
            atol=1e-12,
        )

    def test_qdagger_vs_embedding(self):
        rng = np.random.default_rng(6)
        a = random_quat_matrix(rng, 4, 3)
        want = field.embed_complex(4, a).conj().T
        np.testing.assert_allclose(field.embed_complex(4, qdagger(a)), want, atol=0)
        np.testing.assert_allclose(field.embed_complex(4, field.adjoint(4, a)), want, atol=0)

    def test_trace_and_frobenius(self):
        rng = np.random.default_rng(7)
        a = random_quat_matrix(rng, 5, 5)
        emb = field.embed_complex(4, a)
        re_trace = field.re_trace_prod(4, a, field.eye(4, 5))
        frobenius2 = field.re_trace_prod(4, a, field.adjoint(4, a))
        assert re_trace == pytest.approx(np.trace(emb).real / 2.0, rel=1e-12)
        assert frobenius2 == pytest.approx(np.linalg.norm(emb) ** 2 / 2.0, rel=1e-12)

    def test_hermitian_spectrum_doubles(self):
        # eigenvalues of a quaternion-Hermitian matrix appear twice in the
        # embedding (Kramers pairing)
        rng = np.random.default_rng(8)
        a = random_quat_matrix(rng, 4, 4)
        h = qmatmul(a, qdagger(a))
        eigs = np.linalg.eigvalsh(field.embed_complex(4, h))
        np.testing.assert_allclose(eigs[0::2], eigs[1::2], rtol=1e-9)

    def test_unembed_inverts_embed(self):
        a = np.random.default_rng(9).standard_normal((3, 5, 2, 4))
        np.testing.assert_array_equal(
            field.unembed_complex(4, field.embed_complex(4, a)), a)

    def test_real_entries_embed_as_kron(self):
        m = np.arange(6.0).reshape(2, 3)
        a = np.zeros((2, 3, 4))
        a[..., 0] = m
        np.testing.assert_allclose(field.embed_complex(4, a), np.kron(m, np.eye(2)), atol=0)
