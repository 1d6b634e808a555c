"""Exact Monte Carlo simulator for randomized variational circuits.

One sector at a time: the circuit is U = g0^dagger (prod_i g_i e^{theta_i A_i}
g_i^dagger) h with g0, h and every g_i independently Haar over the sector's
compact group, A_i an anti-Hermitian unit generator (build_ansatz takes the
canonical one), and the loss index * Re tr(rho U^dagger O U) with rho and O
diagonal in their stored eigenbases.  The loss and both derivatives read the
generators the instance holds: the loss through the closed-form exponential,
the derivatives analytically at theta = 0 through commutator traces.  The
central finite differences of loss_eval that cross-check them are test
oracles (tests/helpers.py).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .algebra import (SimpleComponent, _object_rule, finite_vector,
                      nonnegative_int, positive_int, simple_component)
from .errors import UnsupportedConfigurationError, ValidationError
from .randmat import RngState, _gauss, _stiefel_batch, haar_group, rng_state
from . import field

__all__ = [
    "AnsatzInstance",
    "build_ansatz",
    "canonical_generator",
    "loss_eval",
    "grad_eval",
    "hessian_eval",
    "McLandscape",
    "mc_landscape",
]


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
    comp = simple_component("comp", comp)
    j = _generator_block(comp, nonnegative_int("which", which))
    k = j.shape[0]
    a = np.zeros((comp.dim, comp.dim) + j.shape[2:], dtype=j.dtype)
    a[:k, :k] = j
    return a


def _exp_unit(beta: int, a: np.ndarray, theta: float) -> np.ndarray:
    """exp(theta a) for a unit generator a (a^dagger = -a, a^3 = -a).

    P = -a^2 projects onto the span a rotates, and the series of the
    exponential sums to (I - P) + cos(theta) P + sin(theta) a.
    """
    p = -field.matmul(beta, a, a)
    return (field.eye(beta, len(a)) - p) + np.cos(theta) * p + np.sin(theta) * a


_UNIT_TOL = 1e-10


def _is_unit(beta: int, a, shape: tuple) -> bool:
    """Whether a is a numeric array of the shape given whose a^dagger + a and
    a^3 + a have no entry above _UNIT_TOL in modulus."""
    if np.shape(a) != shape:
        return False
    try:
        a2 = field.matmul(beta, a, a)
        defect = max(np.max(np.abs(field.adjoint(beta, a) + a)),
                     np.max(np.abs(field.matmul(beta, a2, a) + a)))
    except (TypeError, ValueError):
        return False
    return bool(defect <= _UNIT_TOL)


@dataclass(frozen=True)
class AnsatzInstance:
    """One randomized circuit: unit generators and their Haar frames.

    Layer i is conjugators[i] exp(theta_i generators[i]) conjugators[i]^dagger.
    Every generator must be a dim x dim unit generator over the sector's
    field, anti-Hermitian with a^3 = -a (eigenvalues 0 and +-i), as every
    canonical_generator and each of its unitary conjugates is; construction
    refuses a generator whose a^dagger + a or a^3 + a has an entry above
    1e-10, and a conjugator count other than the generator count.
    """

    component: SimpleComponent
    generators: tuple[np.ndarray, ...] = dc_field(repr=False)
    conjugators: tuple[np.ndarray, ...] = dc_field(repr=False)
    state_frame: np.ndarray = dc_field(repr=False)
    observable_frame: np.ndarray = dc_field(repr=False)

    def __post_init__(self):
        comp = simple_component("component", self.component)
        p, c = len(self.generators), len(self.conjugators)
        if p != c:
            raise ValidationError(
                f"AnsatzInstance needs one conjugator per generator, got {p} generators "
                f"and {c} conjugators")
        shape = field.eye(comp.beta, comp.dim).shape
        for i, a in enumerate(self.generators):
            if not _is_unit(comp.beta, a, shape):
                raise ValidationError(
                    f"generators[{i}] must be a unit generator (a^dagger = -a, a^3 = -a "
                    f"within {_UNIT_TOL}) of shape {shape}")

    @property
    def n_params(self) -> int:
        return len(self.generators)

    def conjugated_generator(self, i: int) -> np.ndarray:
        return _conjugate(self.component.beta, self.conjugators[i], self.generators[i])


ansatz_instance = _object_rule(AnsatzInstance, "an AnsatzInstance")


def build_ansatz(comp: SimpleComponent, rng: RngState) -> AnsatzInstance:
    """Draws the Haar frames for one circuit with sector_params parameters."""
    p = simple_component("comp", comp).sector_params
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
    comp = ansatz_instance("inst", inst).component
    theta = finite_vector("theta", theta, inst.n_params)
    beta = comp.beta
    rho_t, obs_t = _frames(inst)
    v = field.eye(beta, comp.dim)
    for i, t in enumerate(theta):
        layer = _conjugate(beta, inst.conjugators[i], _exp_unit(beta, inst.generators[i], t))
        v = field.matmul(beta, v, layer)
    m = field.matmul(beta, field.matmul(beta, field.adjoint(beta, v), obs_t), v)
    return float(comp.index * field.re_trace_prod(beta, rho_t, m))


def grad_eval(inst: AnsatzInstance) -> np.ndarray:
    """Analytic gradient at theta = 0: entries index * Re tr([rho~, O~] A~_i)."""
    comp = ansatz_instance("inst", inst).component
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
    comp = ansatz_instance("inst", inst).component
    if inst.n_params == 0:
        return np.empty((0, 0))
    rho_t, obs_t = _frames(inst)
    gens = np.stack([inst.conjugated_generator(i) for i in range(inst.n_params)])
    return comp.index * _hessian_entries(comp.beta, rho_t, obs_t, gens)


@dataclass(frozen=True)
class McLandscape:
    """Monte Carlo draw set; losses are reported relative to the floor."""

    loss_floor: float
    losses: np.ndarray | None
    gradients: np.ndarray | None
    hessians: np.ndarray | None


_COLLECT = ("loss", "grad", "hessian")
BATCH_BYTES = 6.0e7
BATCH_DRAWS = 4096


def _auto_batch(beta: int, dim: int, params: int, hessian: bool) -> int:
    """Draws per batch: at most BATCH_DRAWS, and few enough that a batch
    peaks below BATCH_BYTES.

    A draw holds its N x N Gaussian and the r = rank(rho) columns factored
    from it, and, for params parameter frames, each frame's N x k Gaussian,
    its k x k Gram read and the r x k products read from it; collecting the
    Hessian adds the frames' adjoints, the k x k products of one row of
    parameter pairs at a time and the p x p entries.  Measured with
    tracemalloc (beta = 1, 2, 4; N = 4, 16, 64; p = 3, 8, 40; rank-3 and
    rank-4 inputs), a loss-only or gradient draw peaks at 1.1-2.9 N x N
    field matrices (8, 16 or 32 bytes per entry) for N >= 16 and 4.2-11.4 at
    N = 4, plus up to 8 N x k field matrices per parameter where those
    outweigh the Gaussian (p >> N; at full rank the r x k reads are as large
    as the frames); collecting the Hessian adds up to 12 N x k matrices per
    parameter and about one p x p real matrix.  The count below prices the
    Gaussian at 5 N x N matrices of a full QR's complex image (8, 16 or 64
    bytes per entry: for beta = 4 the image is 2N x 2N), each frame at
    16 N x k field matrices, and the Hessian at 16 more per frame and 8
    p x p real matrices, which also covers the p x p entries the call's
    result holds per sample.
    """
    image, entry = {1: (8, 8), 2: (16, 16), 4: (64, 32)}[beta]
    frame = dim * field.generator_block(beta).shape[0] * entry
    draw_bytes = 5 * dim * dim * image + 16 * params * frame
    if hessian:
        draw_bytes += 16 * params * frame + 8 * 8 * params * params
    return max(1, min(BATCH_DRAWS, int(BATCH_BYTES / draw_bytes)))


# Real multiplies one real standard normal draw is priced at.  A rank-one
# loss-only draw takes 13-16 ns per real normal of its Gaussian, which the
# rate of rank-one and rank-three gradient calls (760-1420 operations per
# us) prices at 10-22 operations, over beta = 1, 2, 4 and N = 16, 64 (one
# BLAS thread of a 2-core box, OpenBLAS 0.3.31); 20 sits between.
_GAUSS_OPS = 20


def _mc_cost(comp: SimpleComponent, n_samples: int, collect) -> float:
    """Operations mc_landscape spends on n_samples draws of the sector when
    it collects `collect`, the count a work budget is held to, in field
    multiplies of beta^2 real ones.  Per sample: the N x N Gaussian it
    draws, at _GAUSS_OPS per real normal, and the gauged QR of the
    r = rank(rho) columns the input reaches, N r^2.  With gradients or
    Hessians, add per parameter its N x k frame (k the generator block's
    size), drawn and its k x k Gram read at the same rates, and the r x k
    reads u^dagger G and (O u)^dagger G, 2 N r k; with Hessians, add per
    pair of parameters the k x k products G_b^dagger G_a and
    G_b^dagger O G_a, 2 N k^2, and their k x r products with the reads,
    2 k^2 r."""
    n, beta, p = float(comp.dim), comp.beta, comp.sector_params
    r = float(np.count_nonzero(comp.input_spectrum))
    ops = _GAUSS_OPS * beta * n * n + beta**2 * n * r * r
    if "grad" in collect or "hessian" in collect:
        k = field.generator_block(beta).shape[0]
        ops += p * (_GAUSS_OPS * beta * n * k + beta**2 * n * k * (k + 2 * r))
        if "hessian" in collect:
            ops += p * (p + 1) * beta**2 * k * k * (n + r)
    return float(n_samples) * ops


def _fast_losses(beta: int, u: np.ndarray, obs: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """index-free losses sum_mu rho_mu (U^dagger O U)_mumu from one Haar batch."""
    return np.einsum("bij,i,j->b", field.abs2(beta, u), obs, rho)


def _frame_derivatives(beta: int, u: np.ndarray, frames: np.ndarray, obs: np.ndarray,
                       rho: np.ndarray, blocks: np.ndarray,
                       hessian: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """index-free gradients and, if hessian, Hessians at theta = 0 of a batch
    of b draws, read through r x k products.

    u holds each draw's r reached columns, shaped (b, N, r), frames each
    parameter's G, shaped (b, p, N, k) and not assumed orthonormal, and
    blocks the k x k generator blocks J, shaped (p, k, k); O = diag(obs),
    D = diag(rho) and A = G J G^dagger.
    With P = u^dagger G, Q = (O u)^dagger G and K = J P^dagger, the gradient
    entry Re tr(G^dagger [rho~, O] G J) is 2 Re tr(K D Q): the bracket is
    Y - Y^dagger with Y = P^dagger D Q, and Re tr(Y^dagger J) = -Re tr(Y J).
    For a <= b, with L = J Q^dagger, S_ba = G_b^dagger G_a and
    T_ba = G_b^dagger O G_a, the Hessian entry Re tr([rho~, A_b] [A_a, O])
    (_hessian_entries' formula) is -2 Re tr((S_ba L_a - T_ba K_a)(K_b D)^dagger);
    its four terms pair up under the cyclicity of Re tr and its invariance
    under the adjoint.  The Hessian loops over a, taking every b >= a at once,
    so no product spans all p^2 pairs.
    """
    ua = field.adjoint(beta, u)[:, None]
    # P and Q stacked on a leading axis, then K = J P^dagger and L = J Q^dagger
    pq = field.matmul(beta, np.stack([ua, field.scale_columns(beta, ua, obs)]), frames)
    kk, ll = field.matmul(beta, blocks, field.adjoint(beta, pq))
    kd = field.scale_columns(beta, kk, rho)
    grads = 2.0 * field.re_trace_prod(beta, kd, pq[1])
    if not hessian:
        return grads, None
    kd_adj = field.adjoint(beta, kd)
    frames_adj = field.adjoint(beta, frames)
    # G_b^dagger and (O G_b)^dagger times G_a give S_ba and T_ba; times
    # L_a and -K_a and summed over the stacking axis, S_ba L_a - T_ba K_a
    reads = np.stack([frames_adj, field.scale_columns(beta, frames_adj, obs)])
    weights = np.stack([ll, -kk])
    p = frames.shape[1]
    out = np.empty((len(u), p, p))
    for a in range(p):
        st = field.matmul(beta, reads[:, :, a:], frames[:, a, None])
        z = field.matmul(beta, st, weights[:, :, a, None])
        out[:, a, a:] = -2.0 * np.sum(field.re_trace_prod(beta, z, kd_adj[:, a:]), axis=0)
        out[:, a:, a] = out[:, a, a:]
    return grads, out


def _frame_scale(beta: int, g: np.ndarray) -> np.ndarray:
    """s with g J g^dagger = s G J G^dagger, for each N x k Gaussian g of a
    batch, G its gauged QR and J a k x k generator block.

    Over C and H, k = 1, G = g / |g| and s = |g|^2.  Over R, k = 2 and g = G R
    with R upper triangular of positive diagonal; M J M^T = det(M) J for every
    real 2 x 2 M, so s = r11 r22 = |g1| |g2 - (g1.g2 / |g1|^2) g1|, read from
    that residual rather than from |g1|^2 |g2|^2 - (g1.g2)^2, which cancels
    when the two columns are nearly parallel.
    """
    if beta != 1:
        return np.sum(field.abs2(beta, g), axis=(-2, -1))
    g1, g2 = g[..., 0], g[..., 1]
    n1 = np.sum(g1 * g1, axis=-1)
    resid = g2 - (np.sum(g1 * g2, axis=-1) / n1)[..., None] * g1
    return np.sqrt(n1 * np.sum(resid * resid, axis=-1))


def mc_landscape(comp: SimpleComponent, n_samples: int, rng: RngState, *,
                 collect=("loss",)) -> McLandscape:
    """Monte Carlo distributions of loss, gradient and Hessian entries.

    Losses come back relative to the floor index * min(o) * tr(rho); only
    the quantities named in collect are returned.  Every quantity comes from
    one batched route that reduces the frame algebra in law: O~ = diag(o),
    rho~ = u diag(rho) u^dagger with u Haar, and each parameter's conjugated
    generator A~ = G J G^dagger with G the first k columns of its own Haar
    frame and J the k x k generator block.  Gradient entries are
    Re tr(G^dagger [rho~, O~] G J) and Hessian entries, for a <= b,
    Re tr([rho~, A~_b] [A~_a, O~]), the formulas grad_eval and hessian_eval
    use; both are read through r x k products of u's r reached columns with
    each frame, u^dagger G and (O u)^dagger G, and k x k products of frame
    pairs (_frame_derivatives), so no N x N matrix is formed after the
    Gaussian.  No frame is orthonormalized either: G is the gauged QR of an
    N x k Gaussian g, and g J g^dagger = s G J G^dagger with s = |g|^2 over
    C and H and s the determinant of the 2 x 2 triangular factor over R
    (_frame_scale).  So the derivatives are read off the raw g and scaled by
    1/s, gradient entry a by 1/s_a and Hessian entry (a, b) by
    1/(s_a s_b).  The instance-by-instance route (build_ansatz with loss_eval,
    grad_eval and hessian_eval) stays as the tests' oracle.

    The Haar matrices u come from rng's stream as the gauged QR of one
    dim x dim Gaussian each, haar_columns' kernel: Haar on O(N), U(N) or
    Sp(N), without haar_group's fold of beta = 1 draws onto SO(N).  Nothing
    here reads the fold: a real u enters only through |u_ij|^2 and the
    products u^T G and (O u)^T G, and negating column mu of u negates row mu
    of both; every product the derivatives take pairs row mu of one with
    row mu of the other or of itself, and IEEE rounding keeps the two sign
    flips exact, so every output is the one the folded draw gives, bit for
    bit.  Every read takes u only through the rank(rho) columns the input
    reaches, the first ones as rho is stored descending, so only those are
    orthonormalized: the gauged QR of the first k Gaussian columns is
    distributed as the first k columns of a Haar matrix (Mezzadri 2007).
    Every call still draws the whole dim x dim Gaussian, so rng's stream
    moves as far as haar_columns(beta, dim, dim, rng, size=n_samples) moves
    it, and calls on the same seed that collect different quantities share
    their losses bit for bit.

    When gradients or Hessians are collected the frames' Gaussians g come
    from one child stream, spawned once per call from rng's seed sequence
    (rng.split(1)) and drawn sample by sample: the Gaussians
    haar_columns(beta, dim, k, child, size=n_samples * p) would factor.  So
    no draw depends on how the samples are batched, and adding "hessian"
    leaves the losses and gradients unchanged.
    """
    if isinstance(collect, str) or not np.iterable(collect):
        raise ValidationError(
            f"collect must be a tuple of names, such as ('loss',), got {collect!r}")
    collect = tuple(collect)
    for c in collect:
        if c not in _COLLECT:
            raise ValidationError(f"unknown collect key {c!r}; choose from {_COLLECT}")
    if not collect:
        raise ValidationError("collect must name at least one quantity")
    n_samples = positive_int("n_samples", n_samples)
    comp, rng = simple_component("comp", comp), rng_state("rng", rng)
    beta, dim = comp.beta, comp.dim
    obs, rho = comp.observable_spectrum, comp.input_spectrum
    floor = comp.index * float(obs[0]) * comp.input_trace  # spectrum sorted ascending
    p = comp.sector_params
    want_grad = "grad" in collect
    want_hess = "hessian" in collect
    want_frames = want_grad or want_hess
    if want_frames and p < 1:
        raise ValidationError("gradient or Hessian collection needs sector_params >= 1")

    if want_frames:
        # one generator block per parameter, stacked to broadcast over a batch
        blocks = np.stack([_generator_block(comp, i) for i in range(p)])
        k = blocks.shape[1]
        frame_rng = rng.split(1)[0]
    # rho is stored descending, so the columns it reaches come first
    cols = int(np.count_nonzero(rho))
    batch = _auto_batch(beta, dim, p if want_frames else 0, want_hess)
    losses = np.empty(n_samples) if "loss" in collect else None
    grads = np.empty((n_samples, p)) if want_grad else None
    hessians = np.empty((n_samples, p, p)) if want_hess else None

    # one batch per call, so that its arrays are freed before the next draws
    def draw(rows: slice) -> None:
        b = rows.stop - rows.start
        u = _stiefel_batch(beta, _gauss(beta, (b, dim, dim), rng)[:, :, :cols])
        if losses is not None:
            raw = comp.index * _fast_losses(beta, u, obs, rho[:cols])
            losses[rows] = raw - floor
        if not want_frames:
            return
        # drawn sample-major, so consecutive batches read the frame stream in
        # sample order; frames[:, i]: parameter i's unfactored Gaussian g,
        # shaped (b, dim, k)
        g = _gauss(beta, (b * p, dim, k), frame_rng)
        frames = g.reshape((b, p) + g.shape[1:])
        entries, hess = _frame_derivatives(beta, u, frames, obs, rho[:cols], blocks, want_hess)
        inv = 1.0 / _frame_scale(beta, frames)
        if want_grad:
            grads[rows] = comp.index * (entries * inv)
        if want_hess:
            # one product per pair, so that the entries stay bitwise symmetric
            hessians[rows] = comp.index * (hess * (inv[:, :, None] * inv[:, None, :]))

    for start in range(0, n_samples, batch):
        draw(slice(start, min(start + batch, n_samples)))
    return McLandscape(loss_floor=floor, losses=losses, gradients=grads, hessians=hessians)
