"""Exact references the benchmark checks the program's outputs against.

Computed here from the generated inputs, independently of the package, in
plain Python.  Sectors are model-file component dicts (see gen.py).
"""

from __future__ import annotations

import math

BETA = {"R": 1, "C": 2, "H": 4}
Z_LIMIT = 5.0


def input_weights(comp: dict) -> list[float]:
    """The input spectrum as a list, with the pure form expanded."""
    spec = comp["input_spectrum"]
    if isinstance(spec, dict):
        return [float(spec.get("trace", 1.0))] + [0.0] * (comp["dim"] - 1)
    return [float(x) for x in spec]


def _shifted(comp: dict) -> list[float]:
    obs = comp["observable_spectrum"]
    floor = min(obs)
    return [x - floor for x in obs]


def _centred_sq(values) -> float:
    mean = sum(values) / len(values)
    return sum((x - mean) ** 2 for x in values)


def haar_loss_mean(comp: dict) -> float:
    """E[loss] above the floor under Haar conjugation: I (mean(o) - min(o)) tr(rho)."""
    shifted = _shifted(comp)
    return comp["index"] * sum(shifted) / len(shifted) * sum(input_weights(comp))


def haar_loss_variance(comp: dict) -> float:
    """Exact finite-N variance I^2 Tr(O_c^2) Tr(rho_c^2) / d0(beta, N).

    d0 is (N-1)(N+2)/2, N^2-1 and 2N^2-N-1 for beta 1, 2, 4, from the
    Weingarten second moments of the orthogonal, unitary and compact
    symplectic groups (Collins and Sniady, CMP 2006); eigenvalue sums count
    each quaternionic eigenvalue once.
    """
    n = comp["dim"]
    d0 = {1: (n - 1) * (n + 2) / 2.0, 2: n * n - 1.0, 4: 2.0 * n * n - n - 1.0}
    return (comp["index"] ** 2 * _centred_sq(comp["observable_spectrum"])
            * _centred_sq(input_weights(comp)) / d0[BETA[comp["field"]]])


def _stats(comp: dict) -> tuple[float, float, float]:
    """Mean eigenvalue, trace of square and exact dof of the shifted spectrum."""
    shifted = _shifted(comp)
    trace = sum(shifted)
    trace_sq = sum(x * x for x in shifted)
    return trace / len(shifted), trace_sq, trace * trace / trace_sq


def surrogate_loss_moments(model: dict) -> tuple[float, float]:
    """Mean and variance of the total surrogate loss drawn by `sample`.

    Per sector the loss is (I obar / d) rho . diag with d the rounded dof and
    beta * diag_i independent chi^2(beta d): mean I obar tr(rho), variance
    2 I^2 obar^2 sum(rho^2) / (beta d).
    """
    mean = var = 0.0
    for comp in model["components"]:
        obar, _trace_sq, dof = _stats(comp)
        d = round(dof)
        rho = input_weights(comp)
        mean += comp["index"] * obar * sum(rho)
        var += 2.0 * comp["index"] ** 2 * obar**2 * sum(r * r for r in rho) / (
            BETA[comp["field"]] * d)
    return mean, var


def dim_automorphism(field: str, dim: int) -> int:
    beta = BETA[field]
    return (beta - 1) * dim + beta * dim * (dim - 1) // 2


def loss_variance(model: dict) -> float:
    """The closed form loss_variance documents: sum of I^2 Tr(O_shift^2) Tr(rho^2) / dim_aut."""
    total = 0.0
    for comp in model["components"]:
        _obar, trace_sq, _dof = _stats(comp)
        rho = input_weights(comp)
        total += comp["index"] ** 2 * trace_sq * sum(r * r for r in rho) / dim_automorphism(
            comp["field"], comp["dim"])
    return total


def dof_real(comp: dict) -> float:
    """Trace squared over trace of square of the zero-shifted observable spectrum."""
    return _stats(comp)[2]


def parameter_ratio(comp: dict) -> float:
    return comp["sector_params"] / (BETA[comp["field"]] * dof_real(comp))


def welch_satterthwaite(model: dict) -> tuple[float, float]:
    """Gamma (shape, scale) moment-matched over the underparameterized sectors."""
    mean = var = 0.0
    for comp in model["components"]:
        if parameter_ratio(comp) < 1.0:
            obar, _trace_sq, dof = _stats(comp)
            scale = comp["index"] * obar * sum(input_weights(comp))
            mean += scale
            var += scale * scale * 2.0 / (BETA[comp["field"]] * dof)
    return mean * mean / var, var / mean


def mp_log_moment(gamma: float) -> float:
    """Closed form of the Marchenko-Pastur log moment for 0 < gamma <= 1:
    -1 + (1 - 1/gamma) ln(1 - gamma)."""
    if gamma == 1.0:
        return -1.0
    return -1.0 + (1.0 - 1.0 / gamma) * math.log1p(-gamma)


def kac_rice_log_density(comp: dict, z: float) -> float:
    """The documented per-parameter log density of minima at z, with the
    Marchenko-Pastur log moment in closed form."""
    beta = BETA[comp["field"]]
    obar, _trace_sq, dof = _stats(comp)
    gamma = comp["sector_params"] / (beta * dof)
    if gamma >= 1.0:
        return -math.inf
    b = float(max(2, beta))
    x = z / (comp["index"] * obar * sum(input_weights(comp)))
    return (math.log(math.pi * b / (2.0 * math.sqrt(beta)))
            + (1.0 - x + math.log(x)) / (2.0 * gamma)
            + b / 2.0 - 1.0 - 0.5772156649015329 + mp_log_moment(gamma))


def power_sums(values, ref: float = 0.0) -> list[float]:
    """Count and sums of the first four powers of x - ref.

    Sums of batches add up to the sums of their union, so a pooled check keeps
    five numbers instead of its samples; a ref near the mean keeps the
    central moments accurate.
    """
    d = [x - ref for x in values]
    return [len(d), math.fsum(d), math.fsum(x * x for x in d),
            math.fsum(x**3 for x in d), math.fsum(x**4 for x in d)]


def moments(sums, ref: float = 0.0) -> tuple[int, float, float, float]:
    """Count, mean and second and fourth central moments from power_sums(values, ref)."""
    n, s1, s2, s3, s4 = sums
    a = s1 / n
    m2 = s2 / n - a * a
    m4 = s4 / n - 4.0 * a * s3 / n + 6.0 * a * a * s2 / n - 3.0 * a**4
    return int(n), ref + a, m2, m4


def z_mean(m, mean: float, variance: float) -> float:
    """z-score of the sample mean against an exact mean and per-draw variance."""
    n, sample_mean, _m2, _m4 = m
    return (sample_mean - mean) / math.sqrt(variance / n)


def z_variance(m, variance: float) -> float:
    """z-score of the sample variance, its standard error taken from the
    sample fourth central moment."""
    n, _mean, m2, m4 = m
    se = math.sqrt(max(m4 - m2 * m2, 0.0) / n)
    return (m2 - variance) / se if se > 0 else math.inf


def z_zero_mean(m) -> float:
    """z-score of the sample mean against zero, with the sample standard error."""
    n, mean, m2, _m4 = m
    se = math.sqrt(m2 / (n - 1))
    return mean / se if se > 0 else math.inf


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)
