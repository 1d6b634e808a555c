"""Wishart sampling routes and the bulk eigenvalue law.

Draws covariance-style random matrices over the real, complex, and
quaternionic fields by two independent routes (direct outer product and
triangular factorization), checks that their first moments agree, then
pools eigenvalues from repeated complex draws and compares the histogram
against the closed-form bulk density.
"""

import numpy as np

from wishartscape import (
    RngState,
    haar_group,
    mp_log_moment,
    wishart_bartlett,
    wishart_direct,
)

DIM, DOF, REPS = 6, 9, 1600

# both routes target the same ensemble, so the averaged diagonal must sit
# at the dof count and the averaged off-diagonal at zero, for every field
print(f"route comparison at dim {DIM}, dof {DOF}, {REPS} draws per route")
print("beta   route        mean diag    mean offdiag")
for beta in (1, 2, 4):
    for name, draw in (("direct", wishart_direct), ("bartlett", wishart_bartlett)):
        rng = RngState(1000 * beta + (0 if name == "direct" else 1))
        diag = np.empty(REPS)
        off = np.empty(REPS)
        for r in range(REPS):
            w = draw(beta, DIM, DOF, rng)
            d = w.real_diagonal()
            diag[r] = d.mean()
            m = w.matrix
            # the stored matrix is real for beta 1, complex for beta 2,
            # and carries a trailing quaternion axis for beta 4
            off[r] = float(np.real(m[1, 0, ..., 0].ravel()[0] if beta == 4
                                   else m[1, 0]))
        print(f"{beta:4d}   {name:<10}   {diag.mean():9.4f}    {off.mean():+.4f}")
print()

# pooled spectrum of scaled complex draws against the bulk density; the
# aspect ratio dim/dof = 0.5 keeps the support away from the origin
dim, dof, pool_reps = 150, 300, 8
gamma = dim / dof
rng = RngState(77)
eigs = []
for _ in range(pool_reps):
    w = wishart_direct(2, dim, dof, rng)
    eigs.append(np.linalg.eigvalsh(w.matrix) / dof)
eigs = np.concatenate(eigs)

# the Marchenko-Pastur law of W / dof: a bulk on [lo, hi] with density
# sqrt((hi - x)(x - lo)) / (2 pi gamma x), and a point mass 1 - 1/gamma at
# zero when gamma > 1
lo, hi = (1.0 - np.sqrt(gamma)) ** 2, (1.0 + np.sqrt(gamma)) ** 2
edges = np.linspace(lo, hi, 26)
counts, _ = np.histogram(eigs, bins=edges)
width = edges[1] - edges[0]
empirical = counts / (eigs.size * width)
centers = 0.5 * (edges[:-1] + edges[1:])
theory = np.sqrt((hi - centers) * (centers - lo)) / (2.0 * np.pi * gamma * centers)
l1 = float(np.sum(np.abs(empirical - theory)) * width)

print(f"bulk spectrum at aspect ratio {gamma}: support [{lo:.4f}, {hi:.4f}]")
print(f"  pooled {eigs.size} eigenvalues from {pool_reps} draws")
print(f"  binned L1 distance to the closed-form density: {l1:.4f}")
print()

# the atom at zero appears only when dof falls below dim
print(f"point mass at zero: gamma 0.5 -> {max(0.0, 1.0 - 1.0 / 0.5):.3f}, "
      f"gamma 2.0 -> {max(0.0, 1.0 - 1.0 / 2.0):.3f}")

# log-moment of the bulk at the square aspect ratio is exactly -1
print(f"bulk log-moment at gamma 1: {mp_log_moment(1.0):.12f}")
print()

# the conjugation layer underneath: group elements must be unitary
u = haar_group(2, 5, RngState(5))
defect = float(np.max(np.abs(u @ u.conj().T - np.eye(5))))
print(f"haar group element at dim 5: unitarity defect {defect:.3e}")
