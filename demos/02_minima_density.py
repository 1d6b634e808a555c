"""Density of local minima across the parameter-budget transition.

Builds a single complex sector with a 16-level ramp observable and a pure
input, then sweeps the sector's parameter budget through the matched number
of degrees of freedom.  Below the transition the minima spread over a
continuous loss profile that integrates to one; above it the whole mass
collapses onto the zero-loss point.  Along the way the script prints the
gamma law of the loss itself and the log-density of critical points.
"""

import numpy as np

from wishartscape import (
    FIELD_C,
    SectorModel,
    SimpleComponent,
    build_minima_density,
    kac_rice_log_density,
    loss_pdf_rank1,
    rank1_gamma_params,
    spectral_stats,
)

DIM = 16
OBS = np.linspace(0.0, 1.0, DIM)
PURE = np.zeros(DIM)
PURE[0] = 1.0


def model_with(params):
    comp = SimpleComponent(FIELD_C, DIM, 1.0, OBS, PURE, sector_params=params)
    return SectorModel((comp,), total_params=params)


# the matched dof count sets the scale of the budget sweep
st = spectral_stats(OBS)
base = model_with(4)
comp = base.components[0]
matched = comp.beta * st.dof_real
print(f"observable: dim {DIM} ramp, shifted mean {st.mean_eig:.6f}, "
      f"dof {st.dof_real:.6f}")
print(f"transition scale: beta * dof = {matched:.4f} parameters")
print()

# gamma law for the loss of this underparameterized sector
k, theta = rank1_gamma_params(comp)
z = np.linspace(0.0, 6.0, 20001)
mass = np.trapezoid(loss_pdf_rank1(comp, z), z)
print(f"loss law: gamma with shape {k:.6f}, scale {theta:.6f}")
print(f"  density integrates to {mass:.10f} on [0, 6]")
print()

# sweep the budget through the transition and watch the mass move
print("params  ratio   grid mass   point mass at zero")
for params in (4, 8, 12, 15, 18, 24):
    m = model_with(params)
    ratio = params / matched
    dens = build_minima_density(m, n_grid=2048)
    print(f"{params:6d}  {ratio:5.3f}   {dens.mass:9.6f}   {dens.point_mass:.6f}")
print()

# below the transition the critical-point log-density peaks where the
# observable spectrum centers; scan and report the argmax
grid = np.linspace(0.02, 0.98, 481)
vals = np.array([kac_rice_log_density(comp, float(v)) for v in grid])
peak = grid[int(np.argmax(vals))]
print(f"critical-point log-density peaks at z = {peak:.4f} "
      f"(spectrum mean {st.mean_eig:.4f})")
print()

# the built profile interpolates on arbitrary points
m = model_with(8)
dens = build_minima_density(m, n_grid=2048)
pts = np.array([0.2, 0.5, 0.8])
print("interpolated minima density at z = 0.2, 0.5, 0.8")
print(f"  {dens.at(pts)}")
