"""Monte Carlo circuit landscapes checked against exact quantities.

Loads a three-qubit model whose observable is given as Pauli strings,
builds a random product-of-exponentials ansatz, verifies the analytic
gradient and Hessian against finite differences, and then samples the
landscape to compare the empirical loss mean with the exact average over
random bases.
"""

from pathlib import Path

import numpy as np

from wishartscape import (
    RngState,
    build_ansatz,
    grad_eval,
    hessian_eval,
    load_model,
    loss_eval,
    mc_landscape,
    spectrum_from_pauli,
)

HERE = Path(__file__).resolve().parent
model = load_model(HERE / "models" / "pauli_model.json")
comp = model.components[0]

# the loader diagonalized the Pauli sum; redo it directly to show the path
terms = [(1.0, "ZII"), (0.5, "IXZ"), (0.25, "YYI")]
spec = spectrum_from_pauli(terms)
print("pauli observable 1.0*ZII + 0.5*IXZ + 0.25*YYI")
print(f"  eigenvalues: {np.round(spec, 6)}")
print(f"  matches loaded model: {np.allclose(spec, comp.observable_spectrum)}")
print()

# one concrete circuit instance; conjugators must stay unitary
inst = build_ansatz(comp, RngState(5))
u = inst.conjugators[0]
defect = float(np.max(np.abs(u @ u.conj().T - np.eye(comp.dim))))
theta = RngState(6).generator.uniform(-np.pi, np.pi, comp.sector_params)
print(f"ansatz instance: {comp.sector_params} parameters at dim {comp.dim}")
print(f"  first conjugator unitarity defect: {defect:.3e}")
print(f"  loss at a random point: {loss_eval(inst, theta):.6f}")
print()

# analytic derivatives against central finite differences of the loss
# around theta = 0, with steps 1e-5 (gradient) and 1e-3 (Hessian)
def loss_at(*moves):
    theta = np.zeros(comp.sector_params)
    for i, step in moves:
        theta[i] += step
    return loss_eval(inst, theta)


p, gs, hs = comp.sector_params, 1e-5, 1e-3
g = grad_eval(inst)
g_fd = np.array([(loss_at((i, gs)) - loss_at((i, -gs))) / (2.0 * gs) for i in range(p)])
h = hessian_eval(inst)
h_fd = np.empty((p, p))
for a in range(p):
    for b in range(a, p):
        pp, pm, mp, mm = (loss_at((a, sa * hs), (b, sb * hs))
                          for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)))
        h_fd[a, b] = h_fd[b, a] = (pp - pm - mp + mm) / (4.0 * hs * hs)
print("derivatives at the instance's own parameter point")
print(f"  gradient:  max |analytic - fd| = {np.max(np.abs(g - g_fd)):.3e}")
print(f"  hessian:   max |analytic - fd| = {np.max(np.abs(h - h_fd)):.3e}")
print(f"  hessian symmetry defect:        "
      f"{np.max(np.abs(h - h.T)):.3e}")
print()

# landscape sampling: losses come back relative to the spectrum floor, and
# their average must approach the exact mean over conjugations, which is
# the flat spectral average times the input trace
mc = mc_landscape(comp, 20_000, RngState(11), collect=("loss", "grad"))
losses = mc.losses
exact_mean = spec.mean() * comp.input_trace
print(f"sampled {losses.size} instances")
print(f"  loss floor: {mc.loss_floor:.6f}")
print(f"  empirical mean (floor restored): "
      f"{mc.loss_floor + losses.mean():.6f}  vs exact {exact_mean:.6f}")
print(f"  empirical variance: {losses.var():.6f}")
print(f"  range: [{mc.loss_floor + losses.min():.6f}, "
      f"{mc.loss_floor + losses.max():.6f}]")
grad_mean = float(mc.gradients.mean())
grad_se = float(mc.gradients.std() / np.sqrt(mc.gradients.size))
print(f"  gradient entries: mean {grad_mean:+.2e} "
      f"(standard error {grad_se:.2e}), centered as it must be")
