"""Wishart-process surrogate for the loss landscape of a sector model.

The loss above its floor is modeled per sector as (I obar / r) tr(rho W) with
W a Wishart matrix whose degrees of freedom come from the shifted observable
spectrum.  Conditioned on the loss, gradient entries are Gaussian-times-chi
products and the Hessian at critical points is a Hadamard-structured Wishart
block per sector.

Analytic prefactors use the exact (unrounded) degrees of freedom; only the
Wishart draws themselves use the rounded integer, and the loss prefactor uses
the same rounded integer so the sampled mean is exact against its own draw.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .algebra import (SectorModel, SimpleComponent, _sector_law, nonnegative_vector,
                      positive_int, sector_model, simple_component, spectral_stats)
from .errors import UnsupportedConfigurationError
from .randmat import RngState, _gamma_cdf, _gamma_pdf, _generator, _wishart

__all__ = [
    "ConditionalGradientDraw",
    "ConditionalHessianDraw",
    "sample_loss_batch",
    "loss_pdf_rank1",
    "loss_cdf_rank1",
    "rank1_gamma_params",
    "sample_gradient_given_loss",
    "sample_hessian_at_critical",
    "regularized_hessian_sample",
]


@dataclass(frozen=True)
class ConditionalGradientDraw:
    entries: np.ndarray
    gaussians: tuple[np.ndarray, ...] = dc_field(repr=False)
    chis: tuple[np.ndarray, ...] = dc_field(repr=False)


@dataclass(frozen=True)
class ConditionalHessianDraw:
    matrix: np.ndarray
    gaussians: tuple[np.ndarray, ...] = dc_field(repr=False)
    chis: tuple[np.ndarray, ...] = dc_field(repr=False)
    wisharts: tuple[np.ndarray, ...] = dc_field(repr=False)
    block_slices: tuple[slice, ...] = ()


def sample_loss_batch(model: SectorModel, n_samples: int, rng: RngState) -> np.ndarray:
    """(n_samples, n_components) array of per-sector loss draws.

    Sector by sector, the loss is (I obar / dof) rho . diag(W).  Diagonal
    entries of a Wishart matrix built from independent Gaussian rows are
    themselves independent chi^2(beta * dof) / beta variables, so only the
    diagonal is drawn.  A two-route distribution check against full Wishart
    draws lives in the test suite.
    """
    model = sector_model("model", model)
    n_samples = positive_int("n_samples", n_samples)
    g = _generator(rng)
    out = np.empty((n_samples, len(model.components)))
    for a, comp in enumerate(model.components):
        st = spectral_stats(comp)
        diag = g.chisquare(comp.beta * st.dof, size=(n_samples, comp.dim)) / comp.beta
        out[:, a] = comp.index * st.mean_eig / st.dof * (diag @ comp.input_spectrum)
    return out


def rank1_gamma_params(comp: SimpleComponent, *, shift: bool = True) -> tuple[float, float]:
    """Gamma (shape, scale) of the loss law for a rank-one input sector."""
    if not simple_component("comp", comp).is_rank_one_input():
        raise UnsupportedConfigurationError(
            "closed-form loss density requires a rank-one input restriction; "
            "use the exact simulator for mixed inputs"
        )
    mean, beta_dof = _sector_law(comp, shift=shift)
    return beta_dof / 2.0, mean * 2.0 / beta_dof


def loss_pdf_rank1(comp: SimpleComponent, z) -> np.ndarray:
    """Normalized loss density for a rank-one input sector.

    Gamma with shape beta * r / 2 and mean I * obar * tr(rho); the mode sits
    at I * obar * (beta r - 2) / (beta r) * tr(rho) once beta r > 2.
    """
    k, scale = rank1_gamma_params(comp)
    return _gamma_pdf(z, k, scale)


def loss_cdf_rank1(comp: SimpleComponent, z) -> np.ndarray:
    k, scale = rank1_gamma_params(comp)
    return _gamma_cdf(z, k, scale)


def _amplitude(comp: SimpleComponent, st) -> float:
    """2 I sigma tr(rho): the gradient law divides it by N, the Hessian by N^2."""
    return 2.0 * comp.index * st.std_eig * comp.input_trace


def _gradient_scales(model: SectorModel, z: np.ndarray) -> np.ndarray:
    """Per-sector scale s with Var[entry] = s^2 max(2, beta) given the loss z.

    s = amp * sqrt(z / (beta^2 I obar)) with amp = 2 I sigma tr(rho) / N, so
    Var[d_i loss | z] = amp^2 max(2, beta) z / (beta^2 I obar).  For a pure
    input this is the linear-in-z form of the exact conditional variance
    4 max(2, beta) (psi^dag O^2 psi - loss^2) / (beta^2 N^2) of a circuit
    whose generators are unit one-parameter subgroups of period 2 pi (the
    simulator's canonical_generator).
    """
    scales = np.empty(len(model.components))
    for a, comp in enumerate(model.components):
        st = spectral_stats(comp)
        amp = _amplitude(comp, st) / comp.dim
        scales[a] = amp * math.sqrt(z[a] / (comp.beta**2 * comp.index * st.mean_eig))
    return scales


def sample_gradient_given_loss(model: SectorModel, z_values,
                               rng: RngState) -> ConditionalGradientDraw:
    """Gradient entries conditioned on the per-sector losses.

    Entry i collects one Gaussian-times-chi product per sector, the chi having
    max(2, beta) degrees of freedom; sectors add independently.  Per sector
    the entry variance is (2 I sigma tr(rho) / N)^2 max(2, beta) z /
    (beta^2 I obar), linear in the loss z, for unit generators of period
    2 pi (see _gradient_scales).  Requires a rank-one input in each sector
    (the regime of the closed-form law).
    """
    model = sector_model("model", model)
    z = nonnegative_vector("z_values", z_values, len(model.components))
    for comp in model.components:
        if not comp.is_rank_one_input():
            raise UnsupportedConfigurationError(
                "conditional gradient law requires rank-one inputs; "
                "use the exact simulator for mixed inputs"
            )
    g = _generator(rng)
    p = model.total_params
    scales = _gradient_scales(model, z)
    entries = np.zeros(p)
    gaussians = []
    chis = []
    for a, comp in enumerate(model.components):
        b = max(2, comp.beta)
        gauss = g.standard_normal(p)
        chi = np.sqrt(g.chisquare(b, size=p))
        entries += scales[a] * gauss * chi
        gaussians.append(gauss)
        chis.append(chi)
    return ConditionalGradientDraw(
        entries=entries,
        gaussians=tuple(gaussians),
        chis=tuple(chis),
    )


@functools.lru_cache(maxsize=64)
def _lower_mask(n: int) -> np.ndarray:
    """Read-only n x n boolean mask of the diagonal and below."""
    mask = np.tri(n, dtype=bool)
    mask.flags.writeable = False
    return mask


def _hessian_factors(comp: SimpleComponent, pa: int, rng: RngState):
    """The sector's Hessian-law factors, drawn in this order: the square
    roots of pa chi-squares of max(2, beta) degrees of freedom, then the
    real pa x pa Wishart of max(1, round(beta r)) degrees of freedom."""
    chi = np.sqrt(_generator(rng).chisquare(max(2, comp.beta), size=pa))
    return chi, _wishart(1, pa, max(1, round(_sector_law(comp)[1])), rng)


def sample_hessian_at_critical(model: SectorModel, z_values,
                               rng: RngState) -> ConditionalHessianDraw:
    """Hessian draw at a critical point, conditioned on per-sector losses.

    Each sector occupies a consecutive block of its sector_params parameters;
    the block entries (for i >= j, mirrored) are
    prefactor * G_i * chi_j * W_ij with one shared real Wishart W per sector
    of dimension sector_params and beta * r degrees of freedom.  Parameters
    beyond the per-sector blocks act trivially and contribute zero rows.
    """
    model = sector_model("model", model)
    z = nonnegative_vector("z_values", z_values, len(model.components))
    p = model.total_params
    g = _generator(rng)
    matrix = np.zeros((p, p))
    gaussians = []
    chis = []
    wisharts = []
    slices = []
    offset = 0
    for a, comp in enumerate(model.components):
        pa = comp.sector_params
        block = slice(offset, offset + pa)
        slices.append(block)
        offset += pa
        if pa == 0:
            gaussians.append(np.zeros(0))
            chis.append(np.zeros(0))
            wisharts.append(np.zeros((0, 0)))
            continue
        st = spectral_stats(comp)
        amp = _amplitude(comp, st) / comp.dim**2
        pref = amp * math.sqrt(z[a] / (comp.beta * comp.index * st.mean_eig))
        gauss = g.standard_normal(pa)
        chi, w = _hessian_factors(comp, pa, rng)
        lower = pref * (gauss[:, None] * chi) * w
        # the lower triangle mirrored; + 0.0 turns the -0.0 entries of z = 0 into +0.0
        np.add(np.where(_lower_mask(pa), lower, lower.T), 0.0, out=matrix[block, block])
        gaussians.append(gauss)
        chis.append(chi)
        wisharts.append(w)
    return ConditionalHessianDraw(
        matrix=matrix,
        gaussians=tuple(gaussians),
        chis=tuple(chis),
        wisharts=tuple(wisharts),
        block_slices=tuple(slices),
    )


def regularized_hessian_sample(comp: SimpleComponent, rng: RngState) -> np.ndarray:
    """Positive-definite surrogate Hessian block for one sector.

    Conditioning the Gaussian magnitudes onto the chi factors turns the block
    into dim^-1 * sqrt(Sigma) W sqrt(Sigma) with Sigma diagonal chi^2 of
    max(2, beta) degrees of freedom and W a real Wishart of dimension
    sector_params.
    """
    pa = simple_component("comp", comp).sector_params
    if pa < 1:
        raise UnsupportedConfigurationError(
            "regularized Hessian needs at least one parameter acting on the sector"
        )
    root, w = _hessian_factors(comp, pa, rng)
    return (root[:, None] * w * root[None, :]) / comp.dim
