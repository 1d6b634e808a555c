"""Quaternion products under their historical names.

``qmul`` (entrywise Hamilton product) and ``qmatmul`` (matrix product) are
the names the traced benchmark run wraps (perfbench/layers.py).  No library
code calls them: both are ``field.matmul(4, ...)``, the one quaternion
product the package has.  Quaternions are (..., 4) float arrays holding
(w, x, y, z); matrices are (..., n, m, 4).
"""

from __future__ import annotations

import numpy as np

from . import field

__all__ = ["qmul", "qmatmul"]


def qmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise Hamilton product, broadcasting over leading axes."""
    a = np.asarray(a, dtype=float)[..., None, None, :]
    b = np.asarray(b, dtype=float)[..., None, None, :]
    return field.matmul(4, a, b)[..., 0, 0, :]


def qmatmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of quaternion matrices, broadcasting over leading axes."""
    return field.matmul(4, a, b)
