"""Closed-form landscape analytics: variance, minima density, trainability.

Everything here evaluates formulas on the zero-shifted observable spectra via
spectral_stats; nothing samples except through explicitly named Monte Carlo
cross-checks in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (SectorModel, SimpleComponent, _sector_law, dim_automorphism,
                      nonnegative, positive, positive_float, positive_int, purity,
                      real_array, sector_model, sector_models, simple_component,
                      spectral_stats, weights)
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


def _covariance(comp: SimpleComponent, overlap: float) -> float:
    """Loss covariance of the sector between its input and a co-diagonal one
    whose weights pair with it to `overlap`; at Tr(rho^2) the variance."""
    st = spectral_stats(comp)
    return comp.index**2 * st.trace_sq * overlap / dim_automorphism(comp.field, comp.dim)


def _component_variance(comp: SimpleComponent) -> float:
    return _covariance(comp, float(np.sum(comp.input_spectrum**2)))


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
    return float(sum(_component_variance(c) for c in sector_model("model", model).components))


def overparameterization_ratios(model: SectorModel) -> np.ndarray:
    """Per-sector ratio of parameter count to beta * degrees of freedom."""
    return np.array([c.sector_params / _sector_law(c)[1]
                     for c in sector_model("model", model).components])


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
        z = real_array("z", z)
        if self.point_mass:
            return np.zeros_like(z)
        return np.interp(z, self.z_grid, self.density, left=0.0, right=0.0)


def _gamma_factor_on_grid(comp: SimpleComponent, grid: np.ndarray, step: float) -> np.ndarray:
    mean, br = _sector_law(comp)
    scale_z = mean * 2.0 / br
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
    laws = [_sector_law(c) for c in under]
    means = np.array([mean for mean, _ in laws])
    variances = np.array([mean**2 * 2.0 / beta_dof for mean, beta_dof in laws])
    return under, means, variances


def build_minima_density(model: SectorModel, n_grid: int = 4096) -> MinimaDensity:
    """Convolution of per-sector gamma factors over underparameterized sectors.

    Grid step is the summed sector scale divided by n_grid; the grid extends
    to the summed mean plus twelve standard deviations.  Total trapezoid mass
    must land within one part in a thousand of unity or an ArithmeticError is
    raised: mass loss would silently skew every downstream quantile.
    """
    n_grid = positive_int("n_grid", n_grid)
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
    z = positive_float("z", z)
    if simple_component("comp", comp).sector_params < 1:
        raise ValidationError("kac_rice_log_density needs at least one sector parameter")
    mean, beta_dof = _sector_law(comp)
    gamma = comp.sector_params / beta_dof
    if gamma >= 1.0:
        return -np.inf
    b = float(max(2, comp.beta))
    x = z / mean
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
    variance_exponent = nonnegative("variance_exponent", variance_exponent)
    cumulant_threshold = positive("cumulant_threshold", cumulant_threshold)
    norm = sector_model("model", model).normalization
    variance_term = norm**2 * loss_variance(model)
    n_max = max(c.dim for c in model.components)
    variance_floor = float(n_max) ** -variance_exponent
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
        cumulant_threshold=cumulant_threshold,
        cumulant_ok=cumulant_ok,
        plausible=variance_ok and cumulant_ok,
    )


def gp_covariance_diagonal(model: SectorModel, other_inputs) -> float:
    """Covariance of normalized losses for two co-diagonal input states.

    other_inputs supplies one spectrum per component for the second state;
    spectra are paired weight-by-weight after the descending sort that
    SimpleComponent applies to its own input.
    """
    n = len(sector_model("model", model).components)
    others = list(other_inputs) if np.iterable(other_inputs) else ()
    if len(others) != n:
        raise ValidationError(
            f"other_inputs must hold one spectrum per component ({n}), got {other_inputs!r}")
    total = 0.0
    for a, (comp, other) in enumerate(zip(model.components, others)):
        other = np.sort(weights(f"other_inputs[{a}]", other, comp.dim))[::-1]
        total += _covariance(comp, float(np.dot(comp.input_spectrum, other)))
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
    polylog_exponent = nonnegative("polylog_exponent", polylog_exponent)
    models = sector_models("models", [models] if isinstance(models, SectorModel) else models)
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
    boundary = -polylog_exponent
    if abs(slope - boundary) <= 2.0 * stderr:
        verdict = "inconclusive"
    elif slope < boundary:
        verdict = "vanishing"
    else:
        verdict = "non-vanishing"
    minima_ok = all(m.total_params >= max(_sector_law(c)[1] for c in m.components)
                    for m in models)
    return TrainabilityReport(
        sizes=sizes,
        variances=variances,
        slope=slope,
        slope_stderr=stderr,
        polylog_exponent=polylog_exponent,
        variance_verdict=verdict,
        minima_ok=minima_ok,
        trainable=(verdict == "non-vanishing") and minima_ok,
    )


def _chunk_count(dim: int) -> int:
    return math.ceil(dim / math.floor(dim**0.999))


def low_purity_applicable(comp: SimpleComponent) -> bool:
    return purity(simple_component("comp", comp).input_spectrum) <= float(comp.dim) ** (-0.999)


def low_purity_bound(comp: SimpleComponent, normalization: float = 1.0) -> float:
    """Variance ceiling for a sector whose input is nearly maximally mixed.

    Applies only when the input purity is at most dim^-0.999; outside that
    regime raises NotApplicableError.  The bound is the closed-form variance
    inflated by the square of the chunk count ceil(N / floor(N^0.999)).
    normalization must be finite and positive, as in SectorModel.
    """
    normalization = positive_float("normalization", normalization)
    if not low_purity_applicable(comp):
        raise NotApplicableError(
            f"input purity {purity(comp.input_spectrum):.3e} exceeds "
            f"dim^-0.999 = {float(comp.dim) ** (-0.999):.3e}"
        )
    m = _chunk_count(comp.dim)
    return normalization**2 * m**2 * _component_variance(comp)
