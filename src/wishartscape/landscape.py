"""Closed-form landscape analytics: variance, minima density, trainability.

Everything here evaluates formulas on the zero-shifted observable spectra via
spectral_stats; nothing samples except through explicitly named Monte Carlo
cross-checks in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import SectorModel, SimpleComponent, dim_automorphism, purity, spectral_stats
from .errors import (
    NotApplicableError,
    TrendUnfitError,
    UndefinedRegimeError,
    ValidationError,
)
from .randmat import _gamma_cdf, _gamma_pdf, mp_log_moment

__all__ = [
    "loss_variance",
    "overparameterization_ratios",
    "MinimaDensity",
    "build_minima_density",
    "welch_satterthwaite",
    "kac_rice_log_density",
    "GPReport",
    "gp_conditions",
    "gp_covariance_diagonal",
    "TrainabilityReport",
    "trainability_verdict",
    "low_purity_bound",
    "low_purity_applicable",
]


def _component_variance(comp: SimpleComponent) -> float:
    st = spectral_stats(comp)
    rho2 = float(np.sum(comp.input_spectrum**2))
    return comp.index**2 * st.trace_sq * rho2 / dim_automorphism(comp.field, comp.dim)


def loss_variance(model: SectorModel) -> float:
    """Variance of the unnormalized loss over the random landscape.

    Per sector: (ambient observable trace-square) * (ambient input
    trace-square) / automorphism dimension, with ambient traces carrying one
    index factor each.  Sectors add.

    This is the Wishart-process law, the r/N -> 0 limit of the circuit
    variance.  At finite size the exact Haar variance I^2 Tr(O_c^2)
    Tr(rho_c^2) / d0 (centred traces) equals this law times
    kappa = (1 - r/N) (1 - tr(rho)^2 / (N Tr(rho^2))) dim_aut / d0, with r
    the effective degrees of freedom and d0 = (N-1)(N+2)/2, N^2 - 1,
    2N^2 - N - 1 for beta = 1, 2, 4.  For a pure input kappa tends to
    1 - r/N as N grows, not to 1.
    """
    return float(sum(_component_variance(c) for c in model.components))


def overparameterization_ratios(model: SectorModel) -> np.ndarray:
    """Per-sector ratio of parameter count to beta * degrees of freedom."""
    out = np.empty(len(model.components))
    for a, comp in enumerate(model.components):
        st = spectral_stats(comp)
        out[a] = comp.sector_params / (comp.beta * st.dof_real)
    return out


def _sector_scale(comp: SimpleComponent) -> float:
    """Mean loss of the sector: index * obar * defining input trace."""
    st = spectral_stats(comp)
    return comp.index * st.mean_eig * comp.input_trace


@dataclass(frozen=True)
class MinimaDensity:
    """Continuous minima-value density plus a flag for the degenerate case.

    When no sector is underparameterized the law collapses to a point mass at
    zero: point_mass is True and the grid arrays are empty.
    """

    z_grid: np.ndarray
    density: np.ndarray
    point_mass: bool
    mass: float

    def at(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if self.point_mass:
            return np.zeros_like(z)
        return np.interp(z, self.z_grid, self.density, left=0.0, right=0.0)


def _gamma_factor_on_grid(comp: SimpleComponent, grid: np.ndarray, step: float) -> np.ndarray:
    st = spectral_stats(comp)
    br = comp.beta * st.dof_real
    scale_z = _sector_scale(comp) * 2.0 / br
    vals = _gamma_pdf(grid, br / 2.0, scale_z)
    # Integrable edge singularity when beta * r < 2: replace the origin node
    # by the average density of the first half-cell so trapezoid mass is kept.
    if br < 2.0:
        vals[0] = _gamma_cdf(step / 2.0, br / 2.0, scale_z) / (step / 2.0)
    return vals


def _underparameterized_moments(
    model: SectorModel,
) -> tuple[list[SimpleComponent], np.ndarray, np.ndarray]:
    """Underparameterized sectors with the means and variances of their
    gamma factors in the minima law."""
    ratios = overparameterization_ratios(model)
    under = [c for c, g in zip(model.components, ratios) if g < 1.0]
    means = np.array([_sector_scale(c) for c in under])
    variances = np.array(
        [_sector_scale(c) ** 2 * 2.0 / (c.beta * spectral_stats(c).dof_real) for c in under]
    )
    return under, means, variances


def build_minima_density(model: SectorModel, n_grid: int = 4096) -> MinimaDensity:
    """Convolution of per-sector gamma factors over underparameterized sectors.

    Grid step is the summed sector scale divided by n_grid; the grid extends
    to the summed mean plus twelve standard deviations.  Total trapezoid mass
    must land within one part in a thousand of unity or an ArithmeticError is
    raised: mass loss would silently skew every downstream quantile.
    """
    if n_grid < 16:
        raise ValidationError(f"n_grid too small: {n_grid!r}")
    under, scales, variances = _underparameterized_moments(model)
    if not under:
        return MinimaDensity(
            z_grid=np.zeros(0), density=np.zeros(0), point_mass=True, mass=0.0
        )
    step = float(np.sum(scales)) / n_grid
    extent = float(np.sum(scales)) + 12.0 * math.sqrt(float(np.sum(variances)))
    n_points = int(math.ceil(extent / step)) + 1
    grid = np.arange(n_points) * step
    density = _gamma_factor_on_grid(under[0], grid, step)
    for comp in under[1:]:
        factor = _gamma_factor_on_grid(comp, grid, step)
        density = np.convolve(density, factor)[:n_points] * step
    mass = float(np.trapezoid(density, grid))
    if not 0.999 <= mass <= 1.001:
        raise ArithmeticError(
            f"minima density mass {mass:.6f} outside [0.999, 1.001]; "
            "grid resolution insufficient for this model"
        )
    return MinimaDensity(z_grid=grid, density=density, point_mass=False, mass=mass)


def welch_satterthwaite(model: SectorModel) -> tuple[float, float]:
    """Effective (shape, scale) of a single gamma matched to the minima law.

    Moment matching over the underparameterized sectors; raises
    UndefinedRegimeError when every sector is overparameterized.
    """
    under, means, variances = _underparameterized_moments(model)
    if not under:
        raise UndefinedRegimeError(
            "all sectors are overparameterized; the minima law is a point mass "
            "and has no effective gamma shape"
        )
    mean = float(np.sum(means))
    var = float(np.sum(variances))
    k_eff = mean * mean / var
    theta_eff = var / mean
    return k_eff, theta_eff


def kac_rice_log_density(comp: SimpleComponent, z: float) -> float:
    """Per-parameter log of the expected density of local minima at value z.

    Regularized closed form: constant ln(pi * max(2,beta) / (2 sqrt(beta))),
    a rate term (1 - x + ln x) / (2 gamma) in the scaled loss x, the log-mean
    of the chi^2 magnitude spectrum, and the log-moment of the
    Marchenko-Pastur bulk.  Returns -inf when the sector is overparameterized
    (gamma >= 1): minima then concentrate at zero loss and the continuous
    density vanishes.
    """
    z = float(z)
    if z <= 0.0 or not np.isfinite(z):
        raise ValidationError(f"z must be a positive float, got {z!r}")
    if comp.sector_params < 1:
        raise ValidationError("kac_rice_log_density needs at least one sector parameter")
    st = spectral_stats(comp)
    gamma = comp.sector_params / (comp.beta * st.dof_real)
    if gamma >= 1.0:
        return -np.inf
    b = float(max(2, comp.beta))
    x = z / (_sector_scale(comp))
    value = (
        math.log(math.pi * b / (2.0 * math.sqrt(comp.beta)))
        + (1.0 - x + math.log(x)) / (2.0 * gamma)
        + b / 2.0
        - 1.0
        - np.euler_gamma
        + mp_log_moment(gamma)
    )
    return float(value)


@dataclass(frozen=True)
class GPReport:
    variance_term: float
    variance_floor: float
    variance_ok: bool
    cumulant_term: float
    cumulant_threshold: float
    cumulant_ok: bool
    plausible: bool


def gp_conditions(model: SectorModel, *, variance_exponent: float = 1.0,
                  cumulant_threshold: float = 1e-3) -> GPReport:
    """Checks whether a Gaussian-process description of the loss is plausible.

    The normalized variance must not decay faster than max_dim to the minus
    variance_exponent, and the normalized third-cumulant scale
    max_a N^3 I^3 obar^3 tr(rho^3) / r^2 must stay below cumulant_threshold.
    """
    if variance_exponent < 0 or cumulant_threshold <= 0:
        raise ValidationError("thresholds must be nonnegative / positive")
    norm = model.normalization
    variance_term = norm**2 * loss_variance(model)
    n_max = max(c.dim for c in model.components)
    variance_floor = float(n_max) ** (-float(variance_exponent))
    cumulant_term = 0.0
    for comp in model.components:
        st = spectral_stats(comp)
        rho3 = float(np.sum(comp.input_spectrum**3))
        term = (
            norm**3
            * comp.index**3
            * st.mean_eig**3
            * rho3
            / st.dof_real**2
        )
        cumulant_term = max(cumulant_term, term)
    variance_ok = variance_term >= variance_floor
    cumulant_ok = cumulant_term <= cumulant_threshold
    return GPReport(
        variance_term=variance_term,
        variance_floor=variance_floor,
        variance_ok=variance_ok,
        cumulant_term=cumulant_term,
        cumulant_threshold=float(cumulant_threshold),
        cumulant_ok=cumulant_ok,
        plausible=variance_ok and cumulant_ok,
    )


def gp_covariance_diagonal(model: SectorModel, other_inputs) -> float:
    """Covariance of normalized losses for two co-diagonal input states.

    other_inputs supplies one spectrum per component for the second state;
    spectra are paired weight-by-weight after the descending sort that
    SimpleComponent applies to its own input.
    """
    if len(other_inputs) != len(model.components):
        raise ValidationError(
            f"need one spectrum per component ({len(model.components)}), "
            f"got {len(other_inputs)}"
        )
    total = 0.0
    for comp, other in zip(model.components, other_inputs):
        other = np.sort(np.asarray(other, dtype=float).ravel())[::-1]
        if other.size != comp.dim or np.any(other < 0) or not np.all(np.isfinite(other)):
            raise ValidationError(
                "second input spectrum must be nonnegative with the sector dimension"
            )
        st = spectral_stats(comp)
        overlap = float(np.dot(comp.input_spectrum, other))
        total += comp.index**2 * st.trace_sq * overlap / dim_automorphism(comp.field, comp.dim)
    return model.normalization**2 * total


@dataclass(frozen=True)
class TrainabilityReport:
    sizes: np.ndarray
    variances: np.ndarray
    slope: float
    slope_stderr: float
    polylog_exponent: float
    variance_verdict: str
    minima_ok: bool
    trainable: bool


def _ols_slope(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of y on x and its standard error, from centred sums."""
    dx = x - np.mean(x)
    dy = y - np.mean(y)
    sxx = float(dx @ dx)
    sxy = float(dx @ dy)
    slope = sxy / sxx
    resid = max(float(dy @ dy) - slope * sxy, 0.0)
    return slope, math.sqrt(resid / (x.size - 2) / sxx)


def trainability_verdict(models, *, polylog_exponent: float = 1.0) -> TrainabilityReport:
    """Fits normalized log-variance against log-log size across model sizes.

    Vanishing means the fitted slope drops below minus the allowed polylog
    exponent (variance decaying faster than any tolerated polylog rate);
    within two standard errors of the boundary the verdict is inconclusive.
    The minima condition additionally requires total_params to reach
    max_a beta_a * r_a at every size.
    """
    models = list(models)
    sizes = np.array([max(c.dim for c in m.components) for m in models], dtype=float)
    distinct = len(set(sizes.tolist()))
    if distinct < 3:
        raise TrendUnfitError(
            f"need at least 3 distinct model sizes to fit a trend, got {distinct} "
            f"distinct among {len(models)} models"
        )
    if np.any(sizes < 2):
        raise ValidationError("model sizes must be at least 2 for a log-log fit")
    variances = np.array([m.normalization**2 * loss_variance(m) for m in models])
    if np.any(variances <= 0):
        raise ValidationError("variances must be positive to fit a log trend")
    x = np.log(np.log(sizes))
    y = np.log(variances)
    slope, stderr = _ols_slope(x, y)
    boundary = -float(polylog_exponent)
    if abs(slope - boundary) <= 2.0 * stderr:
        verdict = "inconclusive"
    elif slope < boundary:
        verdict = "vanishing"
    else:
        verdict = "non-vanishing"
    minima_ok = True
    for m in models:
        needed = max(c.beta * spectral_stats(c).dof_real for c in m.components)
        if m.total_params < needed:
            minima_ok = False
    return TrainabilityReport(
        sizes=sizes,
        variances=variances,
        slope=slope,
        slope_stderr=stderr,
        polylog_exponent=float(polylog_exponent),
        variance_verdict=verdict,
        minima_ok=minima_ok,
        trainable=(verdict == "non-vanishing") and minima_ok,
    )


def _chunk_count(dim: int) -> int:
    return math.ceil(dim / math.floor(dim**0.999))


def low_purity_applicable(comp: SimpleComponent) -> bool:
    return purity(comp.input_spectrum) <= float(comp.dim) ** (-0.999)


def low_purity_bound(comp: SimpleComponent, normalization: float = 1.0) -> float:
    """Variance ceiling for a sector whose input is nearly maximally mixed.

    Applies only when the input purity is at most dim^-0.999; outside that
    regime raises NotApplicableError.  The bound is the closed-form variance
    inflated by the square of the chunk count ceil(N / floor(N^0.999)).
    """
    if not low_purity_applicable(comp):
        raise NotApplicableError(
            f"input purity {purity(comp.input_spectrum):.3e} exceeds "
            f"dim^-0.999 = {float(comp.dim) ** (-0.999):.3e}"
        )
    m = _chunk_count(comp.dim)
    return normalization**2 * m**2 * _component_variance(comp)
