"""Sampling the loss process and its conditional derivative structure.

Works on a single complex sector with a pure input and a split-half
observable, whose matched dof count is an exact integer, so the drawn
process realizes the gamma law with no rounding.  Draws losses through the
diagonal chi-squared route and checks their moments, then conditions on
the loss value to draw gradients (whose entry variance is linear in the
loss) and Hessians at critical points (whose positive-semidefinite draws
carry all-nonnegative Gaussian factors), and ends with the regularized
Hessian surrogate, which is always positive definite.
"""

import numpy as np

from wishartscape import (
    FIELD_C,
    RngState,
    SectorModel,
    SimpleComponent,
    rank1_gamma_params,
    regularized_hessian_sample,
    sample_gradient_given_loss,
    sample_hessian_at_critical,
    sample_loss_batch,
    spectral_stats,
)

DIM, PARAMS = 8, 3
OBS = np.array([0.0] * 4 + [1.0] * 4)
PURE = np.zeros(DIM)
PURE[0] = 1.0
comp = SimpleComponent(FIELD_C, DIM, 1.0, OBS, PURE, sector_params=PARAMS)
model = SectorModel((comp,), total_params=PARAMS)

# the split-half spectrum matches an integer dof count, so the sampler
# (which draws an integer number of Gaussian rows) hits the law exactly
st = spectral_stats(comp)
print(f"observable: split-half at dim {DIM}, matched dof {st.dof_real:g}")

# one draw, then the batch moments against the gamma law
draw = sample_loss_batch(model, 1, RngState(3))[0]
print(f"single loss draw: total {draw.sum():.6f}, per sector {np.round(draw, 6)}")

k, theta = rank1_gamma_params(comp)
batch = sample_loss_batch(model, 100_000, RngState(4))[:, 0]
print(f"batch of {batch.size} draws:")
print(f"  mean     {batch.mean():.6f}  vs gamma k*theta     {k * theta:.6f}")
print(f"  variance {batch.var():.6f}  vs gamma k*theta^2   {k * theta**2:.6f}")
print()

# gradient entries conditioned on the loss: the entry variance must scale
# linearly with the conditioning value, so doubling z doubles it
z0 = k * theta
reps = 6000
var_at = {}
for mult in (1.0, 2.0):
    rng = RngState(50 + int(mult))
    entries = np.stack([
        sample_gradient_given_loss(model, [mult * z0], rng).entries
        for _ in range(reps)
    ])
    var_at[mult] = float(entries.var())
print(f"conditional gradient entry variance at z = {z0:.4f}: "
      f"{var_at[1.0]:.6f}")
print(f"                                  at z = {2 * z0:.4f}: "
      f"{var_at[2.0]:.6f}")
print(f"  ratio {var_at[2.0] / var_at[1.0]:.4f} (linear law predicts 2)")
print()

# Hessian draws at a critical point with the same conditioning; a draw can
# fail positive semidefiniteness, but whenever it is psd every Gaussian
# factor in it is nonnegative
reps = 600
psd = 0
sign_ok = 0
rng = RngState(9)
for _ in range(reps):
    h = sample_hessian_at_critical(model, [z0], rng)
    sym = float(np.max(np.abs(h.matrix - h.matrix.T)))
    assert sym == 0.0
    if np.linalg.eigvalsh(h.matrix).min() >= 0.0:
        psd += 1
        if all(np.all(g >= 0.0) for g in h.gaussians):
            sign_ok += 1
print(f"hessian draws at the mean loss: {psd}/{reps} positive semidefinite")
print(f"  psd draws with all-nonnegative gaussians: {sign_ok}/{psd}")

# conditioning away the signs gives a surrogate that is always positive
mins = [np.linalg.eigvalsh(regularized_hessian_sample(comp, RngState(100 + i))).min()
        for i in range(50)]
print(f"regularized surrogate: smallest eigenvalue over 50 draws "
      f"{min(mins):.3e} (> 0)")
