"""Send the multiplicative noise intensity to zero and watch solutions and
attracting sets line up with the noise-free ones.

Two levels of the same story:

* solution level — one fixed initial state evolved for one time unit under
  intensities alpha = 0.4, 0.2, 0.1, 0.05 lands closer and closer to the
  deterministic endpoint, at an empirical rate ~ alpha^1;
* set level — the estimated attracting sets A_alpha approach the noise-free
  set A_0, measured by the one-sided Hausdorff distance.

Runs the small demo grid (n = 65) in roughly half a minute.
"""

import math

import numpy as np

from plrds.analysis import alpha_solution_distances, usc_sweep
from plrds.fields import Grid, grid_arrays, make_field
from plrds.integrator import StepperConfig
from plrds.noise import make_path
from plrds.problem import ProblemSpec

GRID = Grid(1, 8.0, 65)
CFG = StepperConfig(dt=2e-3)
SPEC = ProblemSpec(noise_case="multiplicative", alpha=0.1)
ALPHAS = (0.4, 0.2, 0.1, 0.05)

arrs = grid_arrays(GRID)
u0 = make_field(GRID, 0.8 * np.exp(-arrs.radial_sq))

print("solution level: ||u_alpha(1) - u_0(1)|| for one fixed realization")
for seed in (0, 1, 2):
    d = alpha_solution_distances(0.0, u0, make_path(seed, CFG.dt), SPEC, CFG,
                                 alphas=ALPHAS)
    order = math.log(d[0] / d[-1]) / math.log(ALPHAS[0] / ALPHAS[-1])
    row = "  ".join(f"{v:.3e}" for v in d)
    print(f"  seed {seed}:  {row}   (fitted order {order:.2f})")

print("\nset level: median over seeds of dist(A_alpha, A_0)")
rep = usc_sweep(0.0, SPEC, [make_path(seed, CFG.dt) for seed in range(4)],
                alphas=ALPHAS, horizon=8.0, n_initials=2, grid=GRID, cfg=CFG)
for a, m in zip(rep.alphas, rep.medians):
    print(f"  alpha = {a:<5g} median distance = {m:.3e}")
print("\nhalving alpha roughly halves both gaps: the noisy dynamics")
print("degenerate continuously into the deterministic ones.")
