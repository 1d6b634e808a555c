"""Matrices over R, C and H, addressed by beta in {1, 2, 4}.

This is the one module that does arithmetic on the stored layout of each
field; every function takes beta explicitly.  Real and complex matrices
are plain float64 and complex128 ndarrays.  A quaternion matrix with entries
a + b i + c j + d k is a float64 array shaped (..., n, m, 4) holding
(a, b, c, d) in its trailing axis.  Quaternion arithmetic reads that array
through a zero-copy complex view as the pair x = u + v j with u = a + b i and
v = c + d i, so every product is a handful of complex matmuls.  The
simulator's generators take their quaternion unit from generator_block, and
randmat builds and reads its draws through from_components, real_entries,
real_part and set_real_diagonal, so no other module reads the layout.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "matmul",
    "adjoint",
    "gram",
    "eye",
    "generator_block",
    "abs2",
    "re_trace_prod",
    "real_entries",
    "real_part",
    "set_real_diagonal",
    "from_components",
    "scale_columns",
    "embed_complex",
    "unembed_complex",
]

_CONJ = np.array([1.0, -1.0, -1.0, -1.0])


def _pair(x: np.ndarray) -> np.ndarray:
    """Complex view (..., n, m, 2) of a quaternion matrix: [..., 0] = u, [..., 1] = v."""
    return np.ascontiguousarray(x, dtype=float).view(np.complex128)


def matmul(beta: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product a b, broadcasting over leading axes.

    For quaternions (u1 + v1 j)(u2 + v2 j) = (u1 u2 - v1 conj(v2))
    + (u1 v2 + v1 conj(u2)) j, since j z = conj(z) j for complex z: four
    complex matmuls.
    """
    if beta != 4:
        return np.matmul(a, b)
    pa, pb = _pair(a), _pair(b)
    u1, v1, u2, v2 = pa[..., 0], pa[..., 1], pb[..., 0], pb[..., 1]
    u = np.matmul(u1, u2) - np.matmul(v1, np.conj(v2))
    v = np.matmul(u1, v2) + np.matmul(v1, np.conj(u2))
    return np.stack([u, v], axis=-1).view(np.float64)


def adjoint(beta: int, a: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the trailing matrix axes."""
    if beta != 4:
        return np.conj(np.swapaxes(a, -2, -1))
    return np.swapaxes(a, -3, -2) * _CONJ


def gram(beta: int, x: np.ndarray) -> np.ndarray:
    """Gram matrix x x^dagger.

    R and C take one matmul.  For quaternions, with x = u + v j,

        x x^dagger = (u u^dagger + v v^dagger) + (v u^T - u v^T) j,

    two complex matmuls written into the complex view of the output: the
    first over the interleaved columns u_1 v_1 u_2 v_2 ..., the second as
    v u^T minus its transpose.
    """
    if beta != 4:
        return np.matmul(x, np.conj(np.swapaxes(x, -2, -1)))
    c = _pair(x)
    *lead, n, m, _ = c.shape
    pairs = c.reshape(*lead, n, 2 * m)
    out = np.empty((*lead, n, n, 4))
    oc = out.view(np.complex128)
    oc[..., 0] = np.matmul(pairs, np.conj(np.swapaxes(pairs, -2, -1)))
    vu = np.matmul(c[..., 1], np.swapaxes(c[..., 0], -2, -1))
    oc[..., 1] = vu - np.swapaxes(vu, -2, -1)
    return out


def eye(beta: int, n: int) -> np.ndarray:
    """n x n identity over the field."""
    if beta == 1:
        return np.eye(n)
    if beta == 2:
        return np.eye(n, dtype=complex)
    out = np.zeros((n, n, 4))
    out[np.arange(n), np.arange(n), 0] = 1.0
    return out


def generator_block(beta: int, which: int = 0) -> np.ndarray:
    """Smallest anti-Hermitian matrix J over the field with J^2 = -I.

    The 2 x 2 rotation [[0, 1], [-1, 0]] over R, i over C, and over H the
    unit i, j or k picked by which % 3.
    """
    if beta == 1:
        return np.array([[0.0, 1.0], [-1.0, 0.0]])
    if beta == 2:
        return np.array([[1j]])
    out = np.zeros((1, 1, 4))
    out[0, 0, 1 + which % 3] = 1.0
    return out


def abs2(beta: int, a: np.ndarray) -> np.ndarray:
    """Entrywise squared modulus, a real array of the matrix shape."""
    if beta != 4:
        return np.abs(a) ** 2
    return np.sum(a * a, axis=-1)


def re_trace_prod(beta: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re tr(a b) for square matrices, reduced over the matrix axes only, so
    a batch gives one value per matrix and one matrix gives a scalar."""
    if beta != 4:
        return np.real(np.sum(a * np.swapaxes(b, -2, -1), axis=(-2, -1)))
    # Re(q1 q2) = a1 a2 - b1 b2 - c1 c2 - d1 d2
    return np.sum(a * np.swapaxes(b, -3, -2) * _CONJ, axis=(-3, -2, -1))


def real_entries(beta: int, r: np.ndarray) -> np.ndarray:
    """A real array shaped like a matrix (or a batch of them), viewed so that
    it multiplies or divides a matrix over the field entry by entry."""
    return r[..., None] if beta == 4 else r


def real_part(beta: int, a: np.ndarray) -> np.ndarray:
    """Real part of every entry, a real array of the matrix shape."""
    return a[..., 0] if beta == 4 else np.real(a)


def set_real_diagonal(beta: int, a: np.ndarray, d: np.ndarray) -> None:
    """a[i, i] = d[i] in place for real d of length min(n, m): a complex entry
    is overwritten whole (imaginary part +0), a quaternion entry in its real
    component only."""
    np.fill_diagonal(a[..., 0] if beta == 4 else a, d)


def from_components(beta: int, parts: np.ndarray) -> np.ndarray:
    """Matrices over the field from the beta real components of each entry,
    held on the trailing axis of parts."""
    if beta == 4:
        return parts
    return (parts.view(complex) if beta == 2 else parts)[..., 0]


def scale_columns(beta: int, u: np.ndarray, d: np.ndarray) -> np.ndarray:
    """u diag(d) for a real diagonal d, batched over leading axes."""
    return u * real_entries(beta, d[..., None, :])


def embed_complex(beta: int, a: np.ndarray) -> np.ndarray:
    """Complex image of a matrix; R and C matrices are their own image.

    A quaternion n x m matrix maps to 2n x 2m, q = u + v j to
    [[u, v], [-conj(v), conj(u)]].  The map is an algebra homomorphism, so it
    carries products, adjoints and QR factorizations over to C.
    """
    if beta != 4:
        return a
    p = _pair(a)
    u, v = p[..., 0], p[..., 1]
    *lead, n, m = u.shape
    out = np.empty((*lead, 2 * n, 2 * m), dtype=complex)
    out[..., 0::2, 0::2] = u
    out[..., 0::2, 1::2] = v
    out[..., 1::2, 0::2] = -np.conj(v)
    out[..., 1::2, 1::2] = np.conj(u)
    return out


def unembed_complex(beta: int, c: np.ndarray) -> np.ndarray:
    """Inverse of embed_complex on its image; reads the even rows only."""
    if beta != 4:
        return c
    pairs = np.stack([c[..., 0::2, 0::2], c[..., 0::2, 1::2]], axis=-1)
    return pairs.view(np.float64)
