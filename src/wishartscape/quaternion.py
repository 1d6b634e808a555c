"""Quaternion scalars and matrices as float64 arrays with a trailing axis of 4.

Component order is (w, x, y, z) for q = w + x i + y j + z k.  Matrices are
shaped (..., rows, cols, 4) so that a batch axis can be prepended everywhere;
products expand into real matmuls component by component, which keeps all the
heavy lifting inside BLAS.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Quaternion",
    "qmul",
    "qconj",
    "qabs2",
    "qmatmul",
    "qdagger",
    "q_eye",
    "q_zeros",
    "q_from_real",
    "q_real_trace",
    "q_frobenius2",
    "embed_complex",
    "unembed_complex",
    "UNIT_I",
    "UNIT_J",
    "UNIT_K",
]

UNIT_I = np.array([0.0, 1.0, 0.0, 0.0])
UNIT_J = np.array([0.0, 0.0, 1.0, 0.0])
UNIT_K = np.array([0.0, 0.0, 0.0, 1.0])


class Quaternion:
    """Scalar quaternion, mainly for readable tests and small constructions."""

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w: float, x: float = 0.0, y: float = 0.0, z: float = 0.0):
        self.w = float(w)
        self.x = float(x)
        self.y = float(y)
        self.z = float(z)

    @classmethod
    def from_array(cls, arr) -> "Quaternion":
        w, x, y, z = np.asarray(arr, dtype=float)
        return cls(w, x, y, z)

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion.from_array(qmul(self.as_array(), other.as_array()))

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion.from_array(self.as_array() + other.as_array())

    def __neg__(self) -> "Quaternion":
        return Quaternion.from_array(-self.as_array())

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def __abs__(self) -> float:
        return float(np.sqrt(qabs2(self.as_array())))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Quaternion):
            return NotImplemented
        return bool(np.array_equal(self.as_array(), other.as_array()))

    def __repr__(self) -> str:
        return f"Quaternion({self.w}, {self.x}, {self.y}, {self.z})"


def qmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product, broadcasting over leading axes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def qconj(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out[..., 1:] *= -1.0
    return out


def qabs2(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    return np.sum(a * a, axis=-1)


def qmatmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of quaternion matrices shaped (..., n, k, 4) x (..., k, m, 4)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aw, ax, ay, az = (a[..., c] for c in range(4))
    bw, bx, by, bz = (b[..., c] for c in range(4))
    mm = np.matmul
    return np.stack(
        [
            mm(aw, bw) - mm(ax, bx) - mm(ay, by) - mm(az, bz),
            mm(aw, bx) + mm(ax, bw) + mm(ay, bz) - mm(az, by),
            mm(aw, by) - mm(ax, bz) + mm(ay, bw) + mm(az, bx),
            mm(aw, bz) + mm(ax, by) - mm(ay, bx) + mm(az, bw),
        ],
        axis=-1,
    )


def qdagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the trailing matrix axes."""
    a = np.asarray(a, dtype=float)
    return qconj(np.swapaxes(a, -3, -2))


def q_eye(n: int) -> np.ndarray:
    out = np.zeros((n, n, 4))
    out[np.arange(n), np.arange(n), 0] = 1.0
    return out


def q_zeros(*shape: int) -> np.ndarray:
    return np.zeros(tuple(shape) + (4,))


def q_from_real(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    out = np.zeros(m.shape + (4,))
    out[..., 0] = m
    return out


def q_real_trace(a: np.ndarray) -> np.ndarray:
    """Real part of the trace; the natural trace form on Hermitian matrices."""
    a = np.asarray(a, dtype=float)
    return np.trace(a[..., 0], axis1=-2, axis2=-1)


def q_frobenius2(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    return np.sum(a * a, axis=(-3, -2, -1))


def embed_complex(a: np.ndarray) -> np.ndarray:
    """Complex 2n x 2m image of a quaternion matrix.

    q = w + xi + yj + zk maps to [[w+xi, y+zi], [-y+zi, w-xi]]; the map is an
    algebra homomorphism, so it serves as an independent oracle for products,
    adjoints and spectra.
    """
    a = np.asarray(a, dtype=float)
    *lead, n, m, _ = a.shape
    out = np.zeros(tuple(lead) + (2 * n, 2 * m), dtype=complex)
    w, x, y, z = (a[..., c] for c in range(4))
    out[..., 0::2, 0::2] = w + 1j * x
    out[..., 0::2, 1::2] = y + 1j * z
    out[..., 1::2, 0::2] = -y + 1j * z
    out[..., 1::2, 1::2] = w - 1j * x
    return out


def unembed_complex(c: np.ndarray) -> np.ndarray:
    """Inverse of embed_complex on its image; reads the even rows only."""
    c = np.asarray(c)
    left = c[..., 0::2, 0::2]
    right = c[..., 0::2, 1::2]
    return np.stack([left.real, left.imag, right.real, right.imag], axis=-1)
