"""Closed-form landscape analytics: variance, minima density, trainability.

Everything here evaluates formulas on the zero-shifted observable spectra via
spectral_stats; nothing samples except through explicitly named Monte Carlo
cross-checks in the test suite.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .algebra import (SectorModel, SimpleComponent, _sector_law, dim_automorphism,
                      nonnegative, positive, positive_float, positive_int, purity,
                      real_array, sector_model, sector_models, simple_component,
                      spectral_stats)
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
    "TrainabilityReport",
    "trainability_verdict",
    "low_purity_bound",
    "low_purity_applicable",
]


def _in_range(where: str, quantity: str, compute) -> float:
    """compute(), a product of model fields, refused with a ValidationError
    naming where it was computed (a sector, a model or an argument) and the
    quantity once it leaves the float range: a float power then raises
    OverflowError, a product gives inf."""
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValidationError(f"{where}: {quantity} overflows the float range")
    return value


def _component_variance(comp: SimpleComponent) -> float:
    st = spectral_stats(comp)
    return (comp.index**2 * st.trace_sq * float(np.sum(comp.input_spectrum**2))
            / dim_automorphism(comp.field, comp.dim))


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
    comps = sector_model("model", model).components
    return float(sum(_in_range(f"sector {a}", "the loss variance",
                               lambda: _component_variance(c)) for a, c in enumerate(comps)))


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


def _gamma_factor_on_grid(comp: SimpleComponent, grid: np.ndarray, step: float,
                          convolved: bool = False) -> np.ndarray:
    mean, br = _sector_law(comp)
    scale_z = mean * 2.0 / br
    if br < 2.0 and convolved:
        # The density's singularity at 0 defeats point sampling inside a
        # convolution, so the factor enters through its exact cell masses
        # over the step: F((j + 1/2) h) - F((j - 1/2) h) at node j, F(h/2)
        # at node 0.
        return np.diff(_gamma_cdf(grid + step / 2.0, br / 2.0, scale_z), prepend=0.0) / step
    vals = _gamma_pdf(grid, br / 2.0, scale_z)
    # Integrable edge singularity when beta * r < 2: replace the origin node
    # by the average density of the first half-cell so trapezoid mass is kept.
    if br < 2.0:
        vals[0] = _gamma_cdf(step / 2.0, br / 2.0, scale_z) / (step / 2.0)
    return vals


# Side of the Toeplitz blocks in _causal_convolve.  On 2 cores with OpenBLAS
# 0.3.31, 256 beat 128, 192, 384, 512 and 1024 at grids 4096 and 16384.
_CONV_BLOCK = 256


def _causal_convolve(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The first n = a.size entries of the convolution of a with v (both of
    length n): c[k] = sum_{j <= k} a[j] v[k - j].

    With B = _CONV_BLOCK, a is cut into blocks a_J of length B and output
    block I is sum_{J <= I} T_{I-J} a_J, where T_d[p, q] = v[dB + p - q] (zero
    below index 0) is a B x B Toeplitz block.  For each offset d one matrix
    product applies T_d to every block pair at once, so the n^2 / 2
    multiply-adds of the kept half run as dgemm and the upper half is never
    formed.  Each output entry is a sum of at most k + B products (padding
    adds exact zeros), so for nonnegative inputs it keeps direct summation's
    relative error bound, and an entry is zero exactly when every product is.
    """
    n, b = a.size, _CONV_BLOCK
    nb = -(-n // b)
    # row J holds block J of a reversed, so a row of a window below is T_d's
    # row read forwards
    blocks = np.zeros((nb, b))
    blocks.ravel()[:n] = a
    rev = np.ascontiguousarray(blocks[:, ::-1])
    padded = np.zeros((nb + 1) * b)
    padded[b:b + n] = v
    # windows[s, t] = v[s + t - b], so T_d[p, b - 1 - t] = windows[dB + 1 + p, t]
    windows = np.lib.stride_tricks.sliding_window_view(padded, b)
    out = np.zeros((nb, b))
    for d in range(nb):
        t_d = np.ascontiguousarray(windows[d * b + 1:(d + 1) * b + 1])
        out[d:] += rev[:nb - d] @ t_d.T
    return out.ravel()[:n]


def _underparameterized_moments(
    model: SectorModel,
) -> tuple[list[SimpleComponent], np.ndarray, np.ndarray]:
    """Underparameterized sectors with the means and variances of their
    gamma factors in the minima law.  Their summed variance sets the minima
    grid's extent and the gamma fit's shape, so it is refused once it falls
    below the smallest normal float (a tiny input trace squared)."""
    ratios = overparameterization_ratios(model)
    under, means, variances, where = [], [], [], []
    for a, (comp, gamma) in enumerate(zip(model.components, ratios)):
        if gamma < 1.0:
            mean, beta_dof = _sector_law(comp)
            under.append(comp)
            means.append(mean)
            variances.append(_in_range(
                f"sector {a}", "the variance 2 mean^2 / (beta r) of its minima-law factor",
                lambda: mean**2 * 2.0 / beta_dof))
            where.append(str(a))
    if under and sum(variances) < sys.float_info.min:
        raise ValidationError(
            f"sector{'s' if len(where) > 1 else ''} {', '.join(where)}: the summed variance "
            "2 mean^2 / (beta r) of the minima-law factors underflows the float range")
    return under, np.array(means), np.array(variances)


def build_minima_density(model: SectorModel, n_grid: int = 4096) -> MinimaDensity:
    """Convolution of per-sector gamma factors over underparameterized sectors.

    Grid step is the summed sector scale divided by n_grid; the grid extends
    to the summed mean plus twelve standard deviations, so it has about
    n = n_grid (1 + 12 sd / mean) points.  Each sector after the first is
    convolved in by _causal_convolve, which forms only the n kept entries, in
    about n^2 / 2 multiply-adds run as matrix products: 0.02 s at n_grid 4096
    and 0.25 s at 16384 on a two-sector model of about 26k and 100k points
    (one core).  Every entry is a sum of nonnegative products, so it carries
    direct summation's relative error; it differs from a dot-product
    convolution only in the last digits (a few 1e-15 relative) and is the
    same on every run and BLAS thread count.  A factor with beta * r < 2
    enters a convolution through its exact cell masses, after every factor
    with beta * r >= 2 (_gamma_factor_on_grid).  Total trapezoid mass must
    land within one part in a thousand of unity or an ArithmeticError is
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
    # factors with beta * r >= 2 first, in model order, so a convolution
    # starts from a point-sampled density whenever one exists
    factors = sorted(under, key=lambda c: _sector_law(c)[1] < 2.0)
    convolved = len(factors) > 1
    density = _gamma_factor_on_grid(factors[0], grid, step, convolved)
    for comp in factors[1:]:
        factor = _gamma_factor_on_grid(comp, grid, step, convolved)
        density = _causal_convolve(density, factor) * step
    if convolved and _sector_law(factors[0])[1] < 2.0:
        # every factor entered by its cell masses, so node 0 holds the mass
        # of the half cell [0, h/2], a density of that mass over h/2
        density[0] *= 2.0
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


def _normalized_variance(where: str, model: SectorModel) -> float:
    """normalization^2 times the loss variance, refused by _in_range as
    computed at `where`; a sector's refusal from loss_variance is prefixed
    by `where` too."""
    try:
        variance = loss_variance(model)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None
    return _in_range(where, "normalization^2 times the loss variance",
                     lambda: model.normalization**2 * variance)


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
    variance_term = _normalized_variance("model", model)
    n_max = max(c.dim for c in model.components)
    variance_floor = float(n_max) ** -variance_exponent
    cumulant_term = 0.0
    for a, comp in enumerate(model.components):
        st = spectral_stats(comp)
        rho3 = float(np.sum(comp.input_spectrum**3))
        term = _in_range(
            f"sector {a}",
            "the third-cumulant scale normalization^3 index^3 obar^3 tr(rho^3) / r^2",
            lambda: norm**3 * comp.index**3 * st.mean_eig**3 * rho3 / st.dof_real**2)
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
    variances = np.array([_normalized_variance(f"model {i}", m) for i, m in enumerate(models)])
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
    normalization must be finite and positive, as in SectorModel; a ceiling
    beyond the float range is refused at comp.
    """
    normalization = positive_float("normalization", normalization)
    if not low_purity_applicable(comp):
        raise NotApplicableError(
            f"input purity {purity(comp.input_spectrum):.3e} exceeds "
            f"dim^-0.999 = {float(comp.dim) ** (-0.999):.3e}"
        )
    return _low_purity_ceiling("comp", comp, normalization)


def _low_purity_ceiling(where: str, comp: SimpleComponent, normalization: float) -> float:
    """low_purity_bound's value for checked arguments, refused by _in_range
    as computed at `where`."""
    m = _chunk_count(comp.dim)
    return _in_range(where, "normalization^2 times the low-purity variance ceiling",
                     lambda: normalization**2 * m**2 * _component_variance(comp))
