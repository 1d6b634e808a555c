"""Shared fixtures-as-functions and independent reference formulas.

The reference formulas here are deliberately written from scratch (no reuse
of package internals) so that tests exercise two separate routes to the same
number; see tests/oracles/ for the standalone derivation scripts.
"""

import numpy as np

from wishartscape import (
    FIELD_C,
    FIELD_H,
    FIELD_R,
    AnsatzInstance,
    RngState,
    SectorModel,
    SimpleComponent,
    ValidationError,
    loss_eval,
)
from wishartscape.algebra import finite_float, finite_vector

FIELDS = {1: FIELD_R, 2: FIELD_C, 4: FIELD_H}

# one-sample Kolmogorov-Smirnov critical points: c(alpha) / sqrt(n)
KS_COEFF = {0.10: 1.224, 0.05: 1.358, 0.01: 1.628}


def ks_critical(n: int, alpha: float = 0.01) -> float:
    return KS_COEFF[alpha] / np.sqrt(n)


def ks_2samp_critical(n: int, m: int, alpha: float = 0.01) -> float:
    return KS_COEFF[alpha] * np.sqrt((n + m) / (n * m))


def exact_conjugation_variance(beta: int, obs, rho, index: float = 1.0) -> float:
    """Variance of index * Tr(rho U O U+) under Haar conjugation.

    Exact at every size; validated against independent group samplers in
    tests/oracles/haar_variance_oracle.py.  Eigenvalue sums throughout
    (quaternionic eigenvalues counted once).
    """
    obs = np.asarray(obs, dtype=float)
    rho = np.asarray(rho, dtype=float)
    n = obs.size
    oc = obs - obs.mean()
    rc = rho - rho.mean()
    d0 = {1: (n - 1) * (n + 2) / 2.0, 2: float(n * n - 1), 4: float(2 * n * n - n - 1)}
    return float(index**2 * np.sum(oc**2) * np.sum(rc**2) / d0[beta])


def component(beta=2, dim=8, index=1.0, obs=None, rho=None, params=0) -> SimpleComponent:
    if obs is None:
        obs = np.linspace(0.0, 1.0, dim)
    if rho is None:
        rho = np.zeros(dim)
        rho[0] = 1.0
    return SimpleComponent(
        field=FIELDS[beta],
        dim=dim,
        index=index,
        observable_spectrum=np.asarray(obs, dtype=float),
        input_spectrum=np.asarray(rho, dtype=float),
        sector_params=params,
    )


def single_model(comp: SimpleComponent, total_params=None, normalization=1.0) -> SectorModel:
    if total_params is None:
        total_params = max(comp.sector_params, 1)
    return SectorModel(
        components=(comp,), total_params=total_params, normalization=normalization
    )


def rng(seed: int = 0) -> RngState:
    return RngState(seed)


# ---------------------------------------------------------------------------
# Sector algebra from a basis or a trace ratio: the reference steps for
# deriving a sector model from a circuit (ROADMAP item 8).  The library reads
# sectors from their spectra and calls none of these; they read their
# arguments through the library's argument rules.

class DegenerateElementError(ValidationError):
    """An algebra element needed for a ratio or normalization is zero."""


class BasisValidationError(ValidationError):
    """A supplied basis is not orthonormal under the trace pairing."""


def index_constant(ambient_trace: float, defining_trace: float) -> float:
    """Ratio scaling the defining trace to the ambient one for a test element."""
    ambient_trace = finite_float("ambient_trace", ambient_trace)
    defining_trace = finite_float("defining_trace", defining_trace)
    if defining_trace == 0.0:
        raise DegenerateElementError(
            "defining trace of the test element vanishes; index is undefined"
        )
    return ambient_trace / defining_trace


def _pairing(a: np.ndarray, b: np.ndarray) -> float:
    """Real trace pairing Re tr(a^dagger b) = Re sum conj(a) b over the stored
    entries, which holds for the real, complex and quaternion layouts alike."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValidationError(f"shape mismatch in pairing: {a.shape} vs {b.shape}")
    return float(np.real(np.vdot(a, b)))


def project_into_component(matrix: np.ndarray, basis) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients and reconstruction of matrix in an orthonormal basis.

    The basis must be orthonormal under the real trace pairing to within
    1e-10; anything worse raises BasisValidationError rather than silently
    returning coefficients in a skewed frame.
    """
    basis = [np.asarray(b) for b in basis]
    if not basis:
        raise BasisValidationError("basis is empty")
    k = len(basis)
    gram = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            gram[i, j] = gram[j, i] = _pairing(basis[i], basis[j])
    if np.max(np.abs(gram - np.eye(k))) > 1e-10:
        raise BasisValidationError(
            f"basis fails orthonormality by {np.max(np.abs(gram - np.eye(k))):.3e}"
        )
    matrix = np.asarray(matrix)
    coeffs = np.array([_pairing(b, matrix) for b in basis])
    projected = np.zeros_like(np.asarray(basis[0], dtype=np.result_type(*basis, matrix)))
    for c, b in zip(coeffs, basis):
        projected = projected + c * b
    return coeffs, projected


def spin_factor_reduce(input_spectrum, observable_spectrum) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic-form sector reduced to a real sector of squared dimension.

    The reduced input and observable spectra are all pairwise products of the
    original eigenvalue lists (a tensor square), each returned sorted.
    """
    rho = finite_vector("input_spectrum", input_spectrum)
    obs = finite_vector("observable_spectrum", observable_spectrum, rho.size)
    rho_red = np.sort(np.outer(rho, rho).ravel())
    obs_red = np.sort(np.outer(obs, obs).ravel())
    return rho_red, obs_red


# ---------------------------------------------------------------------------
# Hamilton products, component by component: the oracle for field's beta = 4
# arithmetic, which works on the complex pair instead.  Quaternions are
# (..., 4) float arrays, matrices (..., n, m, 4), components (w, x, y, z).

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
    """Matrix product of quaternion matrices, 16 real matmuls."""
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
    return qconj(np.swapaxes(np.asarray(a, dtype=float), -3, -2))


def quaternion_gram_schmidt(g: np.ndarray) -> np.ndarray:
    """Orthonormal quaternion frames of a Gaussian batch shaped (size, n, k, 4).

    Modified Gram-Schmidt with two passes per column and coefficients acting
    from the right (v -= u (u^dagger v)), written with Hamilton products
    only.  It is the independent route to the Sp(N) frames that randmat
    computes through the complex embedding.
    """
    cols = np.array(g, dtype=float, copy=True)
    k = cols.shape[2]
    for j in range(k):
        v = cols[:, :, j, :]
        for _pass in range(2):
            for i in range(j):
                u = cols[:, :, i, :]
                coeff = np.sum(qmul(qconj(u), v), axis=1)
                v = v - qmul(u, coeff[:, None, :])
        norm = np.sqrt(np.sum(qabs2(v), axis=1))
        cols[:, :, j, :] = v / norm[:, None, None]
    return cols


def fd_gradient(inst: AnsatzInstance, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of loss_eval around theta = 0, the oracle
    for the analytic gradient."""
    p = inst.n_params
    out = np.empty(p)
    theta = np.zeros(p)
    for i in range(p):
        theta[i] = step
        up = loss_eval(inst, theta)
        theta[i] = -step
        down = loss_eval(inst, theta)
        theta[i] = 0.0
        out[i] = (up - down) / (2.0 * step)
    return out


def fd_hessian(inst: AnsatzInstance, step: float = 1e-3) -> np.ndarray:
    """Nested central differences of loss_eval around theta = 0, the oracle
    for the analytic Hessian."""
    p = inst.n_params
    out = np.empty((p, p))
    theta = np.zeros(p)
    for a in range(p):
        for b in range(a, p):
            vals = []
            for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                theta[a] += sa * step
                theta[b] += sb * step
                vals.append(loss_eval(inst, theta))
                theta[a] = 0.0
                theta[b] = 0.0
            out[a, b] = out[b, a] = (vals[0] - vals[1] - vals[2] + vals[3]) / (
                4.0 * step * step
            )
    return out


# Marchenko-Pastur law of W / dof with aspect ratio gamma = dim / dof: the
# reference the Wishart samplers' pooled spectra and randmat.mp_log_moment
# are checked against.

def marchenko_pastur_support(gamma: float) -> tuple[float, float]:
    lo = (1.0 - np.sqrt(gamma)) ** 2
    hi = (1.0 + np.sqrt(gamma)) ** 2
    return lo, hi


def marchenko_pastur_atom(gamma: float) -> float:
    """Mass of the point at zero (nonzero only past the square aspect)."""
    return max(0.0, 1.0 - 1.0 / gamma)


def marchenko_pastur_pdf(gamma: float, lam) -> np.ndarray:
    """Density of the continuous part at lam; zero off the bulk support."""
    lam = np.asarray(lam, dtype=float)
    lo, hi = marchenko_pastur_support(gamma)
    inside = (lam > lo) & (lam < hi)
    out = np.zeros_like(lam)
    lam_in = lam[inside]
    out[inside] = np.sqrt((hi - lam_in) * (lam_in - lo)) / (2.0 * np.pi * gamma * lam_in)
    return out


def mp_log_moment_quadrature(gamma: float) -> float:
    """Log-moment of the Marchenko-Pastur bulk by adaptive quadrature.

    Integrates ln(lam) against the density after the substitution
    lam = lo + (hi - lo) sin^2(u), which removes the edge square-root
    singularities; randmat.mp_log_moment uses the closed form instead.
    """
    from scipy.integrate import quad

    lo, hi = marchenko_pastur_support(gamma)
    width = hi - lo

    def integrand(u: float) -> float:
        s2 = np.sin(u) ** 2
        lam = lo + width * s2
        # sqrt((hi-lam)(lam-lo)) = width sin(u) cos(u); dlam = 2 width sin cos du
        weight = 2.0 * width**2 * s2 * np.cos(u) ** 2 / (2.0 * np.pi * gamma * lam)
        return np.log(lam) * weight

    value, abserr = quad(integrand, 0.0, np.pi / 2.0, limit=200,
                         epsabs=1e-12, epsrel=1e-12)
    assert abserr < 1e-12, abserr
    return float(value)


def wishart_reference(beta: int, dim: int, dof: int, rng: RngState,
                      route: str) -> np.ndarray:
    """Wishart draw by the index-copy route, the oracle for randmat's kernels.

    Consumes the stream exactly as randmat does: the dim x dof Gaussian
    (real components in the (..., 2) or (..., 4) trailing layout), then for
    the Bartlett route the chi-square diagonal.  The Bartlett factor is built
    with zeros, tril_indices and index copies, and the Gram matrix with
    Hamilton products (qmatmul with qdagger) for beta = 4.
    """
    g = rng.generator
    if beta == 1:
        x = g.standard_normal((dim, dof))
    elif beta == 2:
        parts = g.standard_normal((dim, dof, 2))
        x = parts[..., 0] + 1j * parts[..., 1]
    else:
        x = g.standard_normal((dim, dof, 4))
    if route == "bartlett":
        m = min(dim, dof)
        scale = 1.0 / np.sqrt(beta)
        gauss = x * scale
        x = np.zeros(gauss.shape, gauss.dtype)
        rows, cols = np.tril_indices(m, k=-1, m=dof)
        x[rows, cols] = gauss[rows, cols]
        if dim > dof:
            x[dof:] = gauss[dof:]
        diag = np.sqrt(g.chisquare(beta * (dof - np.arange(m)))) * scale
        if beta == 4:
            x[np.arange(m), np.arange(m), 0] = diag
        else:
            x[np.arange(m), np.arange(m)] = diag
    if beta == 4:
        w = qmatmul(x, qdagger(x))
    else:
        w = np.matmul(x, np.conj(np.swapaxes(x, -2, -1)))
    return w if route == "bartlett" else w / beta
