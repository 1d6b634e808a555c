"""Quaternion arithmetic against the complex 2x2 embedding oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wishartscape.quaternion import (
    Quaternion,
    UNIT_I,
    UNIT_J,
    UNIT_K,
    embed_complex,
    q_eye,
    q_frobenius2,
    q_from_real,
    q_real_trace,
    qabs2,
    qconj,
    qdagger,
    qmatmul,
    qmul,
    unembed_complex,
)

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
quat = st.tuples(finite, finite, finite, finite).map(lambda t: Quaternion(*t))


def q(w, x=0.0, y=0.0, z=0.0):
    return Quaternion(w, x, y, z)


class TestUnitAlgebra:
    def test_squares(self):
        i, j, k = q(0, 1), q(0, 0, 1), q(0, 0, 0, 1)
        minus_one = q(-1)
        assert i * i == minus_one
        assert j * j == minus_one
        assert k * k == minus_one

    def test_products(self):
        i, j, k = q(0, 1), q(0, 0, 1), q(0, 0, 0, 1)
        assert i * j == k
        assert j * k == i
        assert k * i == j
        assert j * i == -k
        assert i * j * k == q(-1)

    def test_unit_constants_match_class(self):
        assert Quaternion.from_array(UNIT_I) == q(0, 1)
        assert Quaternion.from_array(UNIT_J) == q(0, 0, 1)
        assert Quaternion.from_array(UNIT_K) == q(0, 0, 0, 1)

    @given(quat, quat)
    def test_norm_multiplicative(self, a, b):
        assert abs(a * b) == pytest.approx(abs(a) * abs(b), rel=1e-9, abs=1e-9)

    @given(quat, quat, quat)
    @settings(max_examples=40)
    def test_associative(self, a, b, c):
        lhs = ((a * b) * c).as_array()
        rhs = (a * (b * c)).as_array()
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-7)

    @given(quat)
    def test_conjugate_gives_squared_norm(self, a):
        prod = a * a.conjugate()
        assert prod.as_array()[1:] == pytest.approx([0, 0, 0], abs=1e-7)
        assert prod.as_array()[0] == pytest.approx(abs(a) ** 2, rel=1e-9, abs=1e-9)


def random_quat_matrix(rng, rows, cols):
    return rng.standard_normal((rows, cols, 4))


class TestArrayOps:
    def test_qmul_matches_class(self):
        rng = np.random.default_rng(1)
        a4, b4 = rng.standard_normal((2, 4))
        via_array = qmul(a4, b4)
        via_class = (Quaternion.from_array(a4) * Quaternion.from_array(b4)).as_array()
        np.testing.assert_allclose(via_array, via_class, rtol=1e-12)

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


class TestEmbeddingOracle:
    """embed_complex is the oracle: products, adjoints and spectra must
    commute with the embedding."""

    def test_embedding_of_identity(self):
        np.testing.assert_allclose(embed_complex(q_eye(3)), np.eye(6), atol=0)

    def test_qmatmul_vs_embedding(self):
        rng = np.random.default_rng(4)
        a = random_quat_matrix(rng, 3, 5)
        b = random_quat_matrix(rng, 5, 2)
        lhs = embed_complex(qmatmul(a, b))
        rhs = embed_complex(a) @ embed_complex(b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_qmatmul_batched(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((7, 3, 4, 4))
        b = rng.standard_normal((7, 4, 2, 4))
        out = qmatmul(a, b)
        assert out.shape == (7, 3, 2, 4)
        np.testing.assert_allclose(
            embed_complex(out[6]), embed_complex(a[6]) @ embed_complex(b[6]), atol=1e-12
        )

    def test_qdagger_vs_embedding(self):
        rng = np.random.default_rng(6)
        a = random_quat_matrix(rng, 4, 3)
        np.testing.assert_allclose(
            embed_complex(qdagger(a)), embed_complex(a).conj().T, atol=0
        )

    def test_trace_and_frobenius(self):
        rng = np.random.default_rng(7)
        a = random_quat_matrix(rng, 5, 5)
        emb = embed_complex(a)
        assert q_real_trace(a) == pytest.approx(np.trace(emb).real / 2.0, rel=1e-12)
        assert q_frobenius2(a) == pytest.approx(
            np.linalg.norm(emb) ** 2 / 2.0, rel=1e-12
        )

    def test_hermitian_spectrum_doubles(self):
        # eigenvalues of a quaternion-Hermitian matrix appear twice in the
        # embedding (Kramers pairing)
        rng = np.random.default_rng(8)
        a = random_quat_matrix(rng, 4, 4)
        h = qmatmul(a, qdagger(a))
        eigs = np.linalg.eigvalsh(embed_complex(h))
        np.testing.assert_allclose(eigs[0::2], eigs[1::2], rtol=1e-9)

    def test_unembed_inverts_embed(self):
        a = np.random.default_rng(9).standard_normal((3, 5, 2, 4))
        np.testing.assert_array_equal(unembed_complex(embed_complex(a)), a)

    def test_q_from_real(self):
        m = np.arange(6.0).reshape(2, 3)
        emb = embed_complex(q_from_real(m))
        np.testing.assert_allclose(emb, np.kron(m, np.eye(2)), atol=0)
