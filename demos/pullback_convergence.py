"""Watch pullback endpoints converge onto the attracting set.

Fix the observation time tau = 0 and one frozen noise realization, then
start trajectories further and further in the past.  The endpoints at tau
stop caring about where they started: gaps between consecutive-horizon
endpoints shrink geometrically, and the endpoint ensemble collapses to the
attracting set for this realization.  Everything below runs the small demo
grid (n = 65) in a few seconds.
"""

import numpy as np

from plrds.analysis import absorbing_bound, estimate_attractor, sample_initial_ball
from plrds.fields import Grid, grid_arrays, hausdorff_semidistance, l2_sq
from plrds.integrator import StepperConfig, pullback_run
from plrds.noise import make_path
from plrds.problem import ProblemSpec

GRID = Grid(1, 8.0, 65)
CFG = StepperConfig(dt=2e-3)
SPEC = ProblemSpec(noise_case="additive")
SEED = 7

path = make_path(SEED, CFG.dt)
initials = sample_initial_ball(GRID, 1.0, 3, seed=1234)
horizons = [2.0, 4.0, 8.0, 16.0]

print(f"pullback at tau=0, seed {SEED}, {len(initials)} initial states,")
print(f"horizons {horizons}\n")

result = pullback_run(0.0, horizons, initials, path, SPEC, CFG)

w = grid_arrays(GRID).weights
print("endpoint gap between consecutive horizons, per initial state:")
for i in range(len(initials)):
    gaps = []
    for h0, h1 in zip(horizons, horizons[1:]):
        a = result.ensembles[h0].members[i].values
        b = result.ensembles[h1].members[i].values
        gaps.append(float(np.sqrt(np.sum(w * (a - b) ** 2))))
    line = "  ".join(f"d({h0:g},{h1:g})={g:.3e}"
                     for (h0, h1), g in zip(zip(horizons, horizons[1:]), gaps))
    print(f"  initial {i}: {line}")

spread = result.ensembles[horizons[-1]].spread()
print(f"\nensemble spread at horizon {horizons[-1]:g}: {spread:.3e}")
print("(different starting points have become numerically indistinguishable)")

bound = absorbing_bound(0.0, path, SPEC, 1e-12, GRID, 4.0)
ens = estimate_attractor(0.0, SPEC, path, 16.0, n_initials=3, grid=GRID,
                         cfg=CFG, check_contraction=False)
print(f"\nabsorbing bound at tau=0: {bound:.4f}")
print(f"attracting-set estimate: {len(ens)} member(s) after clustering, "
      f"||member||^2 = {l2_sq(ens.members[0]):.3e}")

other = estimate_attractor(0.0, SPEC, make_path(SEED + 1, CFG.dt), 16.0,
                           n_initials=3, grid=GRID, cfg=CFG,
                           check_contraction=False)
d = hausdorff_semidistance(ens, other)
print(f"distance to the estimate under a different realization: {d:.3e}")
print("(the set is genuinely random: it moves with the noise sample)")
