"""Audit the discrete energy balance of two noisy runs, then refine the step.

Along any trajectory the solver should satisfy a discrete energy identity
for the state v it integrates: the rate of change of ||v||^2 balances
damping, the p-Laplacian dissipation, the reaction and forcing pairings,
and the noise coupling.  `energy_audit` recomputes every term from recorded
snapshots and reports the residual, which measures pure time-discretization
error.  The demo audits the additive model (v = u - eps h z) and the
multiplicative one (v = e^{-alpha z} u), whose identity carries the factors
e^{alpha (p-2) z} on the dissipation and e^{-alpha z} on the forcing.

Halving dt should halve the residual (a first-order scheme), and the demo
verifies exactly that.  The same noise realization drives every run: the
path is tabulated at the finest step and coarser runs read every other
node, so the comparison isolates the step size.
"""

import numpy as np

from plrds.analysis import energy_audit
from plrds.fields import Grid, grid_arrays, make_field
from plrds.integrator import StepperConfig, cocycle_apply
from plrds.noise import make_path
from plrds.problem import ProblemSpec

GRID = Grid(1, 8.0, 65)
SPECS = (ProblemSpec(noise_case="additive"),
         ProblemSpec(noise_case="multiplicative", alpha=0.25))
SPAN = 6.0
WARMUP = 0.5
DTS = (4e-3, 2e-3, 1e-3)

arrs = grid_arrays(GRID)
u0 = make_field(GRID, 0.8 * np.exp(-arrs.radial_sq))
path = make_path(3, DTS[-1])

for spec in SPECS:
    print(f"{spec.noise_case} run over {SPAN:g} time units, residual max "
          f"over t in [{WARMUP:g}, {SPAN:g}]\n")
    maxima = []
    for dt in DTS:
        cfg = StepperConfig(dt=dt)
        nsteps = int(round(SPAN / dt))
        k0 = int(round(WARMUP / dt))
        _, rec = cocycle_apply(SPAN, 0.0, path, u0, spec, cfg,
                               snapshot_indices=range(k0 - 1, nsteps + 1))
        _, series = energy_audit(rec, spec)
        worst = float(np.max(np.abs(series["residuals"])))
        maxima.append(worst)
        print(f"  dt = {dt:<7g} max |residual| = {worst:.4e}")

    print("\nresidual ratios under halving:")
    for (d0, d1), (m0, m1) in zip(zip(DTS, DTS[1:]), zip(maxima, maxima[1:])):
        print(f"  {d0:g} -> {d1:g}: factor {m0 / m1:.2f}  (first order ~ 2)")
    print()
