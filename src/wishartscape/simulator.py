"""Exact Monte Carlo simulator for randomized variational circuits.

One sector at a time: the circuit is U = g0^dagger (prod_i g_i e^{theta_i A_i}
g_i^dagger) h with g0, h and every g_i independently Haar over the sector's
compact group, A_i a fixed canonical anti-Hermitian generator, and the loss
index * Re tr(rho U^dagger O U) with rho and O diagonal in their stored
eigenbases.  Derivatives are evaluated analytically at theta = 0 through
commutator traces; finite-difference versions exist for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .algebra import SimpleComponent
from .errors import UnsupportedConfigurationError, ValidationError
from .randmat import RngState, gauss_matrix, haar_columns, haar_group
from . import field

__all__ = [
    "EmpiricalDistribution",
    "AnsatzInstance",
    "build_ansatz",
    "canonical_generator",
    "loss_eval",
    "grad_eval",
    "hessian_eval",
    "fd_gradient",
    "fd_hessian",
    "McLandscape",
    "mc_landscape",
    "spectrum_from_pauli",
]

GRAD_FD_STEP = 1e-5
HESS_FD_STEP = 1e-3


def _conjugate(beta: int, g: np.ndarray, a: np.ndarray) -> np.ndarray:
    """g a g^dagger."""
    return field.matmul(beta, field.matmul(beta, g, a), field.adjoint(beta, g))


def _conjugate_diag(beta: int, u: np.ndarray, d: np.ndarray) -> np.ndarray:
    """u diag(d) u^dagger."""
    return field.matmul(beta, field.scale_columns(beta, u, d), field.adjoint(beta, u))


def canonical_generator(comp: SimpleComponent, which: int) -> np.ndarray:
    """Fixed anti-Hermitian unit generator number `which` for the sector.

    Real sectors rotate in the first coordinate plane (needs dim >= 2);
    complex sectors phase the first coordinate; quaternion sectors cycle the
    three imaginary phases of the first coordinate.
    """
    beta, dim = comp.beta, comp.dim
    if beta == 1:
        if dim < 2:
            raise UnsupportedConfigurationError(
                "a real sector of dimension 1 has no continuous rotations"
            )
        a = np.zeros((dim, dim))
        a[0, 1] = 1.0
        a[1, 0] = -1.0
        return a
    if beta == 2:
        a = np.zeros((dim, dim), dtype=complex)
        a[0, 0] = 1j
        return a
    a = np.zeros((dim, dim, 4))
    a[0, 0, 1 + (which % 3)] = 1.0
    return a


def _exp_generator(comp: SimpleComponent, which: int, theta: float) -> np.ndarray:
    """Closed-form exponential of theta times the canonical generator."""
    beta = comp.beta
    m = field.eye(beta, comp.dim)
    if beta == 1:
        c, s = np.cos(theta), np.sin(theta)
        m[0, 0] = c
        m[0, 1] = s
        m[1, 0] = -s
        m[1, 1] = c
    elif beta == 2:
        m[0, 0] = np.exp(1j * theta)
    else:
        m[0, 0, 0] = np.cos(theta)
        m[0, 0, 1 + (which % 3)] = np.sin(theta)
    return m


@dataclass(frozen=True)
class AnsatzInstance:
    """One randomized circuit: canonical generators and their Haar frames."""

    component: SimpleComponent
    generators: tuple[np.ndarray, ...] = dc_field(repr=False)
    conjugators: tuple[np.ndarray, ...] = dc_field(repr=False)
    state_frame: np.ndarray = dc_field(repr=False)
    observable_frame: np.ndarray = dc_field(repr=False)

    @property
    def n_params(self) -> int:
        return len(self.generators)

    def conjugated_generator(self, i: int) -> np.ndarray:
        return _conjugate(self.component.beta, self.conjugators[i], self.generators[i])


def build_ansatz(comp: SimpleComponent, rng: RngState) -> AnsatzInstance:
    """Draws the Haar frames for one circuit with sector_params parameters."""
    p = comp.sector_params
    beta, dim = comp.beta, comp.dim
    if p > 0 and beta == 1 and dim < 2:
        raise UnsupportedConfigurationError(
            "a real sector of dimension 1 has no continuous rotations"
        )
    state_frame = haar_group(beta, dim, rng)
    observable_frame = haar_group(beta, dim, rng)
    generators = tuple(canonical_generator(comp, i) for i in range(p))
    conjugators = tuple(haar_group(beta, dim, rng) for _ in range(p))
    return AnsatzInstance(
        component=comp,
        generators=generators,
        conjugators=conjugators,
        state_frame=state_frame,
        observable_frame=observable_frame,
    )


def _frames(inst: AnsatzInstance) -> tuple[np.ndarray, np.ndarray]:
    """rho and O conjugated into the frames the derivative formulas use."""
    comp = inst.component
    rho_t = _conjugate_diag(comp.beta, inst.observable_frame, comp.input_spectrum)
    obs_t = _conjugate_diag(comp.beta, inst.state_frame, comp.observable_spectrum)
    return rho_t, obs_t


def loss_eval(inst: AnsatzInstance, theta) -> float:
    """Raw (unshifted) loss of the circuit at parameter vector theta."""
    comp = inst.component
    theta = np.asarray(theta, dtype=float).ravel()
    if theta.size != inst.n_params:
        raise ValidationError(
            f"theta must have length {inst.n_params}, got {theta.size}"
        )
    beta = comp.beta
    rho_t, obs_t = _frames(inst)
    v = field.eye(beta, comp.dim)
    for i, t in enumerate(theta):
        layer = _conjugate(beta, inst.conjugators[i], _exp_generator(comp, i, float(t)))
        v = field.matmul(beta, v, layer)
    m = field.matmul(beta, field.matmul(beta, field.adjoint(beta, v), obs_t), v)
    return comp.index * field.re_trace_prod(beta, rho_t, m)


def grad_eval(inst: AnsatzInstance) -> np.ndarray:
    """Analytic gradient at theta = 0: entries index * Re tr([rho~, O~] A~_i)."""
    comp = inst.component
    beta = comp.beta
    rho_t, obs_t = _frames(inst)
    k = field.matmul(beta, rho_t, obs_t) - field.matmul(beta, obs_t, rho_t)
    out = np.empty(inst.n_params)
    for i in range(inst.n_params):
        out[i] = comp.index * field.re_trace_prod(beta, k, inst.conjugated_generator(i))
    return out


def hessian_eval(inst: AnsatzInstance) -> np.ndarray:
    """Analytic Hessian at theta = 0.

    For a <= b (a the earlier factor in the circuit product) the entry is
    index * Re tr(rho~ (A~_b A~_a O~ + O~ A~_a A~_b - A~_a O~ A~_b
    - A~_b O~ A~_a)), the nested-commutator form.
    """
    comp = inst.component
    beta = comp.beta
    p = inst.n_params
    rho_t, obs_t = _frames(inst)
    conj_gens = [inst.conjugated_generator(i) for i in range(p)]

    def mm(x, y):
        return field.matmul(beta, x, y)

    left = [mm(g, obs_t) for g in conj_gens]   # A~_a O~
    right = [mm(obs_t, g) for g in conj_gens]  # O~ A~_a
    out = np.empty((p, p))
    for a in range(p):
        for b in range(a, p):
            term = (
                mm(conj_gens[b], left[a])
                + mm(right[a], conj_gens[b])
                - mm(left[a], conj_gens[b])
                - mm(conj_gens[b], right[a])
            )
            val = comp.index * field.re_trace_prod(beta, rho_t, term)
            out[a, b] = out[b, a] = val
    return out


def fd_gradient(inst: AnsatzInstance, step: float = GRAD_FD_STEP) -> np.ndarray:
    """Central finite differences of loss_eval around theta = 0."""
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


def fd_hessian(inst: AnsatzInstance, step: float = HESS_FD_STEP) -> np.ndarray:
    """Nested central differences of loss_eval around theta = 0."""
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


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Sorted sample set with its basic moments."""

    samples: np.ndarray
    count: int
    mean: float
    variance: float
    minimum: float
    maximum: float

    @classmethod
    def from_samples(cls, arr) -> "EmpiricalDistribution":
        arr = np.sort(np.asarray(arr, dtype=float).ravel())
        if arr.size == 0:
            raise ValidationError("cannot summarize an empty sample set")
        return cls(
            samples=arr,
            count=int(arr.size),
            mean=float(np.mean(arr)),
            variance=float(np.var(arr)),
            minimum=float(arr[0]),
            maximum=float(arr[-1]),
        )


@dataclass(frozen=True)
class McLandscape:
    """Monte Carlo draw set; losses are reported relative to the floor."""

    loss_floor: float
    losses: np.ndarray | None
    gradients: np.ndarray | None
    hessians: np.ndarray | None

    def loss_distribution(self) -> EmpiricalDistribution:
        if self.losses is None:
            raise ValidationError("losses were not collected")
        return EmpiricalDistribution.from_samples(self.losses)


_COLLECT = ("loss", "grad", "hessian")


def _auto_batch(beta: int, dim: int, requested: int) -> int:
    # Bytes per entry of the largest array a batch holds, the Gaussian the QR
    # factors: for beta = 4 its 2N x 2N complex image, 4 complex128 per entry.
    # The QR's copies make a batch peak at about four times the cap.
    entry_bytes = {1: 8, 2: 16, 4: 64}[beta]
    cap = max(1, int(6.0e7 / (dim * dim * entry_bytes)))
    return max(1, min(requested, cap))


def _sphere_vectors(beta: int, dim: int, size: int, rng: RngState) -> np.ndarray:
    """Uniform unit vectors; equal in law to a Haar matrix's first column."""
    v = gauss_matrix(beta, size, dim, rng)
    norm = np.linalg.norm(v.reshape(size, -1), axis=1)
    return v / norm.reshape((size,) + (1,) * (v.ndim - 1))


def _fast_losses(beta: int, u: np.ndarray, obs: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """index-free losses sum_mu rho_mu (U^dagger O U)_mumu from one Haar batch."""
    return np.einsum("bij,i,j->b", field.abs2(beta, u), obs, rho)


def _fast_grad_entries(beta: int, rho_t: np.ndarray, obs: np.ndarray,
                       vs: list[np.ndarray]) -> np.ndarray:
    """Gradient entries at theta = 0 given the conjugated state.

    K = [rho~, diag(o)] has entries rho~_ab (o_b - o_a); each parameter
    contributes through its own uniform frame vector(s).
    """
    diff = obs[None, :] - obs[:, None]
    k = rho_t * field.real_entries(beta, diff)
    cols = []
    for which, v in enumerate(vs):
        if beta == 1:
            v1, v2 = v[:, :, 0], v[:, :, 1]
            kv1 = np.einsum("bnm,bm->bn", k, v1)
            kv2 = np.einsum("bnm,bm->bn", k, v2)
            cols.append(
                np.einsum("bn,bn->b", v2, kv1) - np.einsum("bn,bn->b", v1, kv2)
            )
        elif beta == 2:
            kv = np.einsum("bnm,bm->bn", k, v)
            s = np.einsum("bn,bn->b", np.conj(v), kv)
            cols.append(-np.imag(s))
        else:
            col = v[:, :, None, :]
            s = field.matmul(4, field.adjoint(4, col), field.matmul(4, k, col))
            # Re(q_c s) = -s_component for the unit imaginary q_c
            cols.append(-s[:, 0, 0, 1 + (which % 3)])
    return np.stack(cols, axis=1)


def mc_landscape(comp: SimpleComponent, n_samples: int, rng: RngState, *,
                 collect=("loss",), batch_size: int = 4096) -> McLandscape:
    """Monte Carlo distributions of loss, gradient and Hessian entries.

    Losses come back relative to the floor index * min(o) * tr(rho).  The
    loss/gradient path batches Haar draws after reducing the frame algebra
    to a single conjugation (exact in law; the reduction is itself tested
    against the instance-by-instance route).  Collecting "hessian" switches
    to the instance loop, which is exact but much slower.
    """
    collect = tuple(collect)
    for c in collect:
        if c not in _COLLECT:
            raise ValidationError(f"unknown collect key {c!r}; choose from {_COLLECT}")
    if not collect:
        raise ValidationError("collect must name at least one quantity")
    if int(n_samples) != n_samples or n_samples < 1:
        raise ValidationError(f"n_samples must be a positive integer, got {n_samples!r}")
    n_samples = int(n_samples)
    beta, dim = comp.beta, comp.dim
    obs = np.asarray(comp.observable_spectrum)
    rho = np.asarray(comp.input_spectrum)
    floor = comp.index * float(obs[0]) * comp.input_trace  # spectrum sorted ascending
    p = comp.sector_params
    want_grad = "grad" in collect
    want_hess = "hessian" in collect
    if (want_grad or want_hess) and p < 1:
        raise ValidationError("gradient or Hessian collection needs sector_params >= 1")

    if want_hess:
        losses = np.empty(n_samples)
        grads = np.empty((n_samples, p))
        hessians = np.empty((n_samples, p, p))
        zeros = np.zeros(p)
        for s in range(n_samples):
            inst = build_ansatz(comp, rng)
            losses[s] = loss_eval(inst, zeros) - floor
            grads[s] = grad_eval(inst)
            hessians[s] = hessian_eval(inst)
        return McLandscape(
            loss_floor=floor,
            losses=losses,
            gradients=grads,
            hessians=hessians,
        )

    batch = _auto_batch(beta, dim, batch_size)
    losses = np.empty(n_samples) if "loss" in collect else None
    grads = np.empty((n_samples, p)) if want_grad else None
    done = 0
    while done < n_samples:
        b = min(batch, n_samples - done)
        u = haar_group(beta, dim, rng, size=b)
        if losses is not None:
            raw = comp.index * _fast_losses(beta, u, obs, rho)
            losses[done:done + b] = raw - floor
        if want_grad:
            rho_t = _conjugate_diag(beta, u, rho)
            vs = []
            for i in range(p):
                if beta == 1:
                    vs.append(haar_columns(1, dim, 2, rng, size=b))
                else:
                    vs.append(_sphere_vectors(beta, dim, b, rng))
            grads[done:done + b] = comp.index * _fast_grad_entries(beta, rho_t, obs, vs)
        done += b
    return McLandscape(loss_floor=floor, losses=losses, gradients=grads, hessians=None)


_PAULIS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def spectrum_from_pauli(terms) -> np.ndarray:
    """Eigenvalues (ascending) of a sum of weighted Pauli strings.

    terms is an iterable of (coefficient, string) pairs over the alphabet
    IXYZ; all strings share one length n <= 12, and the dense 2^n matrix is
    diagonalized directly.
    """
    try:
        terms = list(terms)
    except TypeError:
        raise ValidationError(f"Pauli terms must be a list, got {terms!r}") from None
    if not terms:
        raise ValidationError("no Pauli terms given")
    n_qubits = None
    total = None
    for t_index, term in enumerate(terms):
        try:
            coeff, word = term
            coeff = float(coeff)
        except (TypeError, ValueError):
            raise ValidationError(
                f"term {t_index} must be a (number, string) pair, got {term!r}"
            ) from None
        if not isinstance(word, str) or not word:
            raise ValidationError(f"term {t_index}: Pauli word must be a nonempty string")
        if n_qubits is None:
            n_qubits = len(word)
            if n_qubits > 12:
                raise ValidationError(
                    f"Pauli words limited to 12 qubits, got {n_qubits}"
                )
        elif len(word) != n_qubits:
            raise ValidationError(
                f"term {t_index}: word length {len(word)} differs from {n_qubits}"
            )
        mat = np.ones((1, 1), dtype=complex)
        for pos, ch in enumerate(word):
            if ch not in _PAULIS:
                raise ValidationError(
                    f"term {t_index}: invalid Pauli letter {ch!r} at position {pos}"
                )
            mat = np.kron(mat, _PAULIS[ch])
        total = coeff * mat if total is None else total + coeff * mat
    return np.linalg.eigvalsh(total)
