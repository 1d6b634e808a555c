"""Random matrix sampling: Gaussian ensembles, Wishart matrices, Haar groups.

The three division algebras are addressed by beta in {1, 2, 4} (real, complex,
quaternion).  Matrices are stored as the field module stores them: plain real
and complex ndarrays, and quaternion matrices in the (..., n, m, 4) layout.

Scaling convention: gauss_matrix entries have each real component distributed
N(0, 1), so E|entry|^2 = beta.  The Wishart samplers divide by beta so that
beta * W_ii is chi^2 with beta * dof degrees of freedom and E[W] = dof * I.

Haar draws for every field come from one kernel: the QR factorization of a
Gaussian matrix with the gauge fixed so that R has a positive real diagonal,
which makes Q exactly Haar (F. Mezzadri, "How to generate random matrices
from the classical compact groups", Notices AMS 54, 2007).  Sp(N) draws
factor the 2N x 2N complex image (field.embed_complex) of a quaternion
Gaussian.  The gauged QR is unique and keeps that image, so the frame read
back from the even rows is the quaternion Gram-Schmidt frame of the same
Gaussian, up to rounding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .algebra import positive_int
from .errors import ValidationError
from . import field

__all__ = [
    "RngState",
    "BETAS",
    "gauss_matrix",
    "WishartSample",
    "wishart_direct",
    "wishart_bartlett",
    "haar_group",
    "haar_columns",
    "marchenko_pastur_support",
    "marchenko_pastur_pdf",
    "marchenko_pastur_atom",
    "mp_log_moment",
]

BETAS = (1, 2, 4)


def _check_beta(beta: int) -> int:
    if beta not in BETAS:
        raise ValidationError(f"beta must be one of {BETAS}, got {beta!r}")
    return int(beta)


class RngState:
    """Deterministic random stream with reproducible splitting.

    Wraps numpy's SeedSequence/PCG64 machinery: the same seed always yields
    the same stream, and split() derives independent child streams whose
    draws do not interact with the parent's.
    """

    def __init__(self, seed):
        if isinstance(seed, RngState):
            self._seq = seed._seq
        elif isinstance(seed, np.random.SeedSequence):
            self._seq = seed
        else:
            self._seq = np.random.SeedSequence(int(seed))
        self._generator = np.random.Generator(np.random.PCG64(self._seq))

    @property
    def generator(self) -> np.random.Generator:
        return self._generator

    def split(self, n: int) -> list["RngState"]:
        n = positive_int("n", n)
        return [RngState(child) for child in self._seq.spawn(n)]

    def __repr__(self) -> str:
        return f"RngState(entropy={self._seq.entropy!r})"


def gauss_matrix(beta: int, rows: int, cols: int, rng: RngState) -> np.ndarray:
    """Standard Gaussian matrix over the field addressed by beta.

    Every real component of every entry is independent N(0, 1).
    """
    _check_beta(beta)
    return _gauss(beta, (positive_int("rows", rows), positive_int("cols", cols)), rng)


def _gauss(beta: int, shape: tuple, rng: RngState) -> np.ndarray:
    """Standard Gaussian matrices over the field, shape (..., rows, cols)."""
    return field.from_components(beta, rng.generator.standard_normal(shape + (beta,)))


@dataclass(frozen=True)
class WishartSample:
    """One Wishart draw.  Invariant: beta * matrix_ii ~ chi^2(beta * dof)."""

    beta: int
    dim: int
    dof: int
    matrix: np.ndarray = dc_field(repr=False)

    def real_diagonal(self) -> np.ndarray:
        return np.diagonal(field.real_part(self.beta, self.matrix)).copy()


def wishart_direct(beta: int, dim: int, dof: int, rng: RngState) -> WishartSample:
    """Wishart sample as X X^dagger / beta with X standard Gaussian dim x dof."""
    _check_beta(beta)
    dim, dof = positive_int("dim", dim), positive_int("dof", dof)
    x = _gauss(beta, (dim, dof), rng)
    return WishartSample(beta=beta, dim=dim, dof=dof, matrix=field.gram(beta, x) / beta)


@functools.lru_cache(maxsize=64)
def _bartlett_mask(beta: int, dim: int, dof: int) -> np.ndarray:
    """Read-only 1/sqrt(beta) on the Gaussian entries of the Bartlett factor.

    Those are the entries strictly below the diagonal, which takes in every
    entry of the rows past dof; the diagonal and above are 0.  Shaped and
    typed to multiply a _gauss draw of the same field.
    """
    mask = field.real_entries(beta, np.tri(dim, dof, k=-1) * (1.0 / math.sqrt(beta)))
    mask.flags.writeable = False
    return mask


def _bartlett_factor(beta: int, dim: int, dof: int, rng: RngState) -> np.ndarray:
    """Lower factor L with W = L L^dagger equal in law to wishart_direct.

    The first min(dim, dof) rows are lower triangular with chi-distributed
    diagonal; when dim > dof the remaining rows are fully Gaussian.  Each
    off-diagonal real component is N(0, 1/beta) and the diagonal is
    chi(beta * (dof - i)) / sqrt(beta) for row i (0-indexed).  The full
    dim x dof Gaussian is drawn first, then the chi-square diagonal.
    """
    idx = np.arange(min(dim, dof))
    L = _gauss(beta, (dim, dof), rng)
    L *= _bartlett_mask(beta, dim, dof)
    diag = np.sqrt(rng.generator.chisquare(beta * (dof - idx))) * (1.0 / math.sqrt(beta))
    field.set_real_diagonal(beta, L, diag)
    return L


def wishart_bartlett(beta: int, dim: int, dof: int, rng: RngState) -> WishartSample:
    """Wishart sample via the triangular (Bartlett) factorization."""
    _check_beta(beta)
    dim, dof = positive_int("dim", dim), positive_int("dof", dof)
    L = _bartlett_factor(beta, dim, dof, rng)
    return WishartSample(beta=beta, dim=dim, dof=dof, matrix=field.gram(beta, L))


def _qr_frames(g: np.ndarray) -> np.ndarray:
    """Q factor of a batch of real or complex matrices, gauged so diag(R) > 0.

    The positive-diagonal QR is unique, so Q is a function of g alone and a
    Gaussian g gives a Haar frame (Mezzadri 2007).
    """
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :].conj()


def _stiefel_batch(beta: int, dim: int, k: int, size: int, rng: RngState) -> np.ndarray:
    """First k columns of size Haar matrices over the field addressed by beta.
    One column is its Gaussian normalized, which is exactly its gauged QR."""
    g = _gauss(beta, (size, dim, k), rng)
    if k == 1:
        norm = np.linalg.norm(g.reshape(size, -1), axis=1)
        return g / norm.reshape((size,) + (1,) * (g.ndim - 1))
    return field.unembed_complex(beta, _qr_frames(field.embed_complex(beta, g)))


def haar_group(beta: int, dim: int, rng: RngState, size: int | None = None) -> np.ndarray:
    """Haar-random compact group element: SO(N), U(N) or Sp(N).

    With size=None returns a single matrix; otherwise a leading batch axis.
    Every field takes the positive-diagonal QR of a Gaussian matrix.  beta = 1
    draws are folded onto SO(N) by flipping the last column when the
    determinant is -1.  beta = 4 factors the 2N x 2N complex image of a
    quaternion Gaussian and returns the native quaternion layout.
    """
    _check_beta(beta)
    dim = positive_int("dim", dim)
    n = 1 if size is None else positive_int("size", size)
    batch = _stiefel_batch(beta, dim, dim, n, rng)
    if beta == 1:
        neg = np.linalg.det(batch) < 0
        batch[neg, :, -1] *= -1.0
    return batch[0] if size is None else batch


def haar_columns(beta: int, dim: int, n_cols: int, rng: RngState,
                 size: int | None = None) -> np.ndarray:
    """First n_cols columns of a Haar matrix (uniform Stiefel frame).

    Equal in law to slicing haar_group output but only orthonormalizes the
    requested columns, which is what the Monte Carlo paths batch over.
    """
    _check_beta(beta)
    dim = positive_int("dim", dim)
    n_cols = positive_int("n_cols", n_cols)
    if n_cols > dim:
        raise ValidationError(f"n_cols {n_cols} exceeds dim {dim}")
    n = 1 if size is None else positive_int("size", size)
    out = _stiefel_batch(beta, dim, n_cols, n, rng)
    return out[0] if size is None else out


# ---------------------------------------------------------------------------
# Marchenko-Pastur law for W / dof with aspect ratio gamma = dim / dof.

def _check_gamma(gamma: float) -> float:
    gamma = float(gamma)
    if not np.isfinite(gamma) or gamma <= 0.0:
        raise ValidationError(f"gamma must be a positive float, got {gamma!r}")
    return gamma


def marchenko_pastur_support(gamma: float) -> tuple[float, float]:
    gamma = _check_gamma(gamma)
    lo = (1.0 - np.sqrt(gamma)) ** 2
    hi = (1.0 + np.sqrt(gamma)) ** 2
    return lo, hi


def marchenko_pastur_atom(gamma: float) -> float:
    """Mass of the point at zero (nonzero only past the square aspect)."""
    gamma = _check_gamma(gamma)
    return max(0.0, 1.0 - 1.0 / gamma)


def marchenko_pastur_pdf(gamma: float, lam) -> np.ndarray:
    """Density of the continuous part at lam; zero off the bulk support."""
    gamma = _check_gamma(gamma)
    lam = np.asarray(lam, dtype=float)
    lo, hi = marchenko_pastur_support(gamma)
    inside = (lam > lo) & (lam < hi)
    out = np.zeros_like(lam)
    lam_in = lam[inside]
    out[inside] = np.sqrt((hi - lam_in) * (lam_in - lo)) / (2.0 * np.pi * gamma * lam_in)
    return out


def mp_log_moment(gamma: float) -> float:
    """Integral of ln(lambda) against the Marchenko-Pastur law.

    Closed form (residue calculus): -1 + (1 - 1/gamma) ln(1 - gamma) for
    gamma < 1, and exactly -1 at gamma = 1.  For gamma > 1 the atom at zero
    makes the integral diverge to -inf.
    """
    gamma = _check_gamma(gamma)
    if gamma > 1.0:
        return -np.inf
    if gamma == 1.0:
        return -1.0
    return -1.0 + (1.0 - 1.0 / gamma) * math.log1p(-gamma)


# ---------------------------------------------------------------------------
# Gamma law with shape a and scale, the loss law of a rank-one input sector.

def _gamma_pdf(x, a: float, scale: float):
    """Gamma density; at x = 0 it is inf, 1/scale or 0 for a <, =, > 1."""
    y = np.asarray(x, dtype=float) / scale
    out = np.where(np.isnan(y), np.nan, 0.0)
    pos = y > 0.0
    yp = y[pos]
    out[pos] = np.exp((a - 1.0) * np.log(yp) - yp - math.lgamma(a)) / scale
    out[y == 0.0] = np.inf if a < 1.0 else (1.0 / scale if a == 1.0 else 0.0)
    return out[()]


def _gamma_cdf(x, a: float, scale: float):
    """Gamma distribution function: the regularized lower incomplete gamma."""
    from scipy.special import gammainc

    return gammainc(a, np.maximum(np.asarray(x, dtype=float) / scale, 0.0))
