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

from .algebra import SimpleComponent, positive_int
from .errors import UnsupportedConfigurationError, ValidationError
from .randmat import RngState, haar_columns, haar_group
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


def _generator_block(comp: SimpleComponent, which: int) -> np.ndarray:
    """The sector's generator block J (field.generator_block), checked to fit."""
    j = field.generator_block(comp.beta, which)
    if j.shape[0] > comp.dim:
        raise UnsupportedConfigurationError(
            f"a sector of dimension {comp.dim} has no continuous rotations: "
            f"its generator block is {j.shape[0]} x {j.shape[0]}"
        )
    return j


def canonical_generator(comp: SimpleComponent, which: int) -> np.ndarray:
    """Fixed anti-Hermitian unit generator number `which` for the sector.

    The generator block J in the top-left corner and zeros elsewhere: real
    sectors rotate in the first coordinate plane (needs dim >= 2); complex
    sectors phase the first coordinate; quaternion sectors cycle the three
    imaginary phases of the first coordinate.
    """
    j = _generator_block(comp, which)
    k = j.shape[0]
    a = np.zeros((comp.dim, comp.dim) + j.shape[2:], dtype=j.dtype)
    a[:k, :k] = j
    return a


def _exp_generator(comp: SimpleComponent, which: int, theta: float) -> np.ndarray:
    """Closed-form exponential of theta times the canonical generator: the
    identity with its k x k corner set to cos(theta) I + sin(theta) J."""
    beta = comp.beta
    j = _generator_block(comp, which)
    k = j.shape[0]
    m = field.eye(beta, comp.dim)
    m[:k, :k] = np.cos(theta) * field.eye(beta, k) + np.sin(theta) * j
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
    generators = tuple(canonical_generator(comp, i) for i in range(p))
    state_frame = haar_group(beta, dim, rng)
    observable_frame = haar_group(beta, dim, rng)
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
    return float(comp.index * field.re_trace_prod(beta, rho_t, m))


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


def _commutator(beta: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return field.matmul(beta, x, y) - field.matmul(beta, y, x)


def _hessian_entries(beta: int, rho_t: np.ndarray, obs_t: np.ndarray,
                     gens: np.ndarray) -> np.ndarray:
    """index-free Hessian at theta = 0 from the conjugated generators A~_a,
    stacked on the leading axis of gens.

    For a <= b (a the earlier factor in the circuit product) the entry is
    Re tr(rho~ [A~_b, [A~_a, O~]]) = Re tr([rho~, A~_b] [A~_a, O~]), the
    nested-commutator form.  Batched over the axes after the stacking axis,
    which come out first.
    """
    left = _commutator(beta, rho_t, gens)
    right = _commutator(beta, gens, obs_t)
    p = len(gens)
    rows = [[None] * p for _ in range(p)]
    for a in range(p):
        for b in range(a, p):
            rows[a][b] = rows[b][a] = field.re_trace_prod(beta, left[b], right[a])
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


def hessian_eval(inst: AnsatzInstance) -> np.ndarray:
    """Analytic Hessian at theta = 0 (see _hessian_entries)."""
    comp = inst.component
    if inst.n_params == 0:
        return np.empty((0, 0))
    rho_t, obs_t = _frames(inst)
    gens = np.stack([inst.conjugated_generator(i) for i in range(inst.n_params)])
    return comp.index * _hessian_entries(comp.beta, rho_t, obs_t, gens)


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
BATCH_BYTES = 6.0e7
BATCH_DRAWS = 4096


def _auto_batch(beta: int, dim: int, hess_params: int) -> int:
    """Draws per batch: at most BATCH_DRAWS, and few enough that a batch
    peaks below BATCH_BYTES.

    Measured with tracemalloc, one draw peaks at about 4.5 N x N matrices of
    the QR's complex image (8, 16 or 64 bytes per entry: for beta = 4 the
    image is 2N x 2N), and collecting the Hessian adds about 4 N x N field
    matrices per parameter (8, 16 or 32 bytes per entry) for the generators
    and their commutators.  Both counts are rounded up to 5.
    """
    image, entry = {1: (8, 8), 2: (16, 16), 4: (64, 32)}[beta]
    draw_bytes = 5 * dim * dim * (image + hess_params * entry)
    return max(1, min(BATCH_DRAWS, int(BATCH_BYTES / draw_bytes)))


def _fast_losses(beta: int, u: np.ndarray, obs: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """index-free losses sum_mu rho_mu (U^dagger O U)_mumu from one Haar batch."""
    return np.einsum("bij,i,j->b", field.abs2(beta, u), obs, rho)


def mc_landscape(comp: SimpleComponent, n_samples: int, rng: RngState, *,
                 collect=("loss",)) -> McLandscape:
    """Monte Carlo distributions of loss, gradient and Hessian entries.

    Losses come back relative to the floor index * min(o) * tr(rho); only
    the quantities named in collect are returned.  Every quantity comes from
    one batched route that reduces the frame algebra in law: O~ = diag(o),
    rho~ = u diag(rho) u^dagger with u Haar, and each parameter's conjugated
    generator A~ = G J G^dagger with G the first k columns of its own Haar
    frame and J the k x k generator block.  Gradient entries are
    Re tr(G^dagger [rho~, O~] G J); the Hessian is _hessian_entries, the
    formula hessian_eval uses.  The instance-by-instance route (build_ansatz
    with loss_eval, grad_eval and hessian_eval) stays as the tests' oracle.

    The Haar matrices u come from rng's stream.  When gradients or Hessians
    are collected the frames G come from one child stream, spawned once per
    call from rng's seed sequence (rng.split(1)) and drawn sample by sample.
    So no draw depends on how the samples are batched, and adding "hessian"
    leaves the losses and gradients unchanged.
    """
    collect = tuple(collect)
    for c in collect:
        if c not in _COLLECT:
            raise ValidationError(f"unknown collect key {c!r}; choose from {_COLLECT}")
    if not collect:
        raise ValidationError("collect must name at least one quantity")
    n_samples = positive_int("n_samples", n_samples)
    beta, dim = comp.beta, comp.dim
    obs = np.asarray(comp.observable_spectrum)
    rho = np.asarray(comp.input_spectrum)
    floor = comp.index * float(obs[0]) * comp.input_trace  # spectrum sorted ascending
    p = comp.sector_params
    want_grad = "grad" in collect
    want_hess = "hessian" in collect
    want_frames = want_grad or want_hess
    if want_frames and p < 1:
        raise ValidationError("gradient or Hessian collection needs sector_params >= 1")

    if want_frames:
        # one generator block per parameter, stacked to broadcast over a batch
        blocks = np.stack([_generator_block(comp, i) for i in range(p)])[:, None]
        k = blocks.shape[2]
        # [rho~, diag(o)] has entries rho~_ab (o_b - o_a)
        obs_gaps = field.real_entries(beta, obs[None, :] - obs[:, None])
        obs_t = field.scale_columns(beta, field.eye(beta, dim), obs)
        frame_rng = rng.split(1)[0]
    batch = _auto_batch(beta, dim, p if want_hess else 0)
    losses = np.empty(n_samples) if "loss" in collect else None
    grads = np.empty((n_samples, p)) if want_grad else None
    hessians = np.empty((n_samples, p, p)) if want_hess else None

    # one batch per call, so that its arrays are freed before the next draws
    def draw(rows: slice) -> None:
        b = rows.stop - rows.start
        u = haar_group(beta, dim, rng, size=b)
        if losses is not None:
            raw = comp.index * _fast_losses(beta, u, obs, rho)
            losses[rows] = raw - floor
        if not want_frames:
            return
        rho_t = _conjugate_diag(beta, u, rho)
        # drawn sample-major, so consecutive batches read the frame stream in
        # sample order; frames[i]: parameter i's G, shaped (b, dim, k)
        g = haar_columns(beta, dim, k, frame_rng, size=b * p)
        frames = np.swapaxes(g.reshape((b, p) + g.shape[1:]), 0, 1)
        if want_grad:
            kg = field.matmul(beta, rho_t * obs_gaps, frames)
            entries = field.re_trace_prod(
                beta, field.matmul(beta, field.adjoint(beta, frames), kg), blocks)
            grads[rows] = comp.index * entries.T
        if want_hess:
            gens = _conjugate(beta, frames, blocks)
            hessians[rows] = comp.index * _hessian_entries(beta, rho_t, obs_t, gens)

    for start in range(0, n_samples, batch):
        draw(slice(start, min(start + batch, n_samples)))
    return McLandscape(loss_floor=floor, losses=losses, gradients=grads, hessians=hessians)


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
