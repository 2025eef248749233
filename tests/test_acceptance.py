"""Acceptance suite: twelve numbered end-to-end claims at working scale.

Everything here runs the 1D n=257 grid (domain half-width 8) at dt = 1e-3,
the scale the library defaults target; a short 2D run guards the
two-dimensional code path.  Each test records its verdict through
``record_criterion`` so the terminal summary prints one line per claim.
"""

import math

import numpy as np
import scipy.sparse as sp
from conftest import record_criterion

from plrds.analysis import (
    absorbing_bound,
    absorbing_check,
    alpha_solution_distances,
    energy_audit,
    estimate_attractor,
    sample_initial_ball,
    tail_check,
    usc_sweep,
)
from plrds.fields import grid_arrays, hausdorff_semidistance, l2_sq, make_field
from plrds.integrator import StepperConfig, cocycle_apply, pullback_run
from plrds.noise import ergodic_diagnostics, make_path, ou_from_path, shift
from plrds.problem import NonlinearitySpec, ProblemSpec, alpha_zero


def test_criterion_01_cocycle_laws(grid257, cfg_accept, spec_add, gaussian_u0,
                                   path_bank):
    u0 = gaussian_u0(grid257)
    path = path_bank(0, cfg_accept.dt)

    ident = cocycle_apply(0.0, 0.0, path, u0, spec_add, cfg_accept)
    ok = bool(np.array_equal(ident.values, u0.values)) and ident is not u0

    for s, t in ((1.0, 1.0), (2.0, 3.0)):
        full = cocycle_apply(s + t, 0.0, path, u0, spec_add, cfg_accept)
        mid = cocycle_apply(s, 0.0, path, u0, spec_add, cfg_accept)
        end = cocycle_apply(t, s, shift(path, s), mid, spec_add, cfg_accept)
        ok = ok and bool(np.array_equal(full.values, end.values))

    record_criterion(1, "zero-duration map is the identity; two-leg runs "
                     "compose bitwise", ok, "legs (1,1) and (2,3)")
    assert ok


def test_criterion_02_deterministic_reduction(grid257, cfg_accept, spec_det,
                                              gaussian_u0, path_bank):
    u0 = gaussian_u0(grid257)
    path = path_bank(0, cfg_accept.dt)
    det = cocycle_apply(1.0, 0.0, None, u0, spec_det, cfg_accept)
    add0 = ProblemSpec(noise_case="additive", alpha=0.0, epsilon=0.0)
    mul0 = ProblemSpec(noise_case="multiplicative", alpha=0.0)
    ua = cocycle_apply(1.0, 0.0, path, u0, add0, cfg_accept)
    um = cocycle_apply(1.0, 0.0, path, u0, mul0, cfg_accept)
    ok = bool(np.array_equal(det.values, ua.values)) \
        and bool(np.array_equal(det.values, um.values))
    record_criterion(2, "zero-intensity steppers reduce to the deterministic "
                     "one bitwise", ok, "10^3 steps, both noise cases")
    assert ok


def test_criterion_03_heat_equation_crosscheck(grid257, cfg_accept,
                                               gaussian_u0):
    # With p = 2 the diffusion term is linear and the custom zero reaction
    # removes the rest, so the model is a damped forced heat equation.  The
    # oracle below advances the same semi-implicit update with an
    # independently assembled sparse matrix, so only rounding may differ.
    spec = ProblemSpec(noise_case="deterministic", alpha=0.0, epsilon=0.0,
                       p=2.0,
                       nonlinearity=NonlinearitySpec(kind="custom",
                                                     expression="0*s"))
    u0 = gaussian_u0(grid257)
    dt = cfg_accept.dt
    nsteps = 1000
    _, rec = cocycle_apply(nsteps * dt, 0.0, None, u0, spec, cfg_accept,
                           snapshot_indices=range(nsteps + 1))

    arrs = grid_arrays(grid257)
    n = grid257.n
    lap = sp.diags([1.0, -2.0, 1.0], (-1, 0, 1),
                   shape=(n - 2, n - 2), format="csr") / arrs.dx ** 2
    x_int = arrs.x[1:-1]
    prof = np.exp(-x_int * x_int)
    decay = math.exp(-spec.lam * dt)
    gain = (1.0 - decay) / spec.lam
    m = int(round(spec.period / dt))

    state = u0.values[1:-1].copy()
    worst = 0.0
    for k in range(nsteps + 1):
        mine = rec.snapshots[k].values[1:-1]
        dev = float(np.linalg.norm(mine - state))
        ref = float(np.linalg.norm(state))
        worst = max(worst, dev / ref)
        if k == nsteps:
            break
        t = (k % m) * dt
        g = (spec.g_amp * math.cos(2.0 * math.pi * t / spec.period)) * prof
        state = decay * state + gain * (lap @ state + g)

    ok = worst <= 1e-10
    record_criterion(3, "p=2 zero-reaction run matches an independent sparse "
                     "heat-equation oracle", ok, f"max rel dev {worst:.2e}")
    assert ok


def test_criterion_04_energy_audit_refinement(grid257, spec_add, gaussian_u0):
    # One noise realization drives all three runs: the path is tabulated at
    # the finest step and the coarser runs read every 2nd/4th node.  The max
    # is taken from t = 0.5 on; earlier the residual reflects the start-up
    # layer of the arbitrary initial state rather than the step-size error
    # whose first-order decay is being measured.
    u0 = gaussian_u0(grid257)
    path = make_path(0, 2.5e-4, 4.0)
    maxima = {}
    for dtt in (1e-3, 5e-4, 2.5e-4):
        cfg = StepperConfig(dt=dtt)
        nsteps = int(round(10.0 / dtt))
        k0 = int(round(0.5 / dtt))
        _, rec = cocycle_apply(10.0, 0.0, path, u0, spec_add, cfg,
                               snapshot_indices=range(k0 - 1, nsteps + 1))
        _, series = energy_audit(rec, spec_add)
        keep = series["times"] >= 0.5 - 1e-12
        maxima[dtt] = float(np.max(np.abs(series["residuals"][keep])))
        del rec, series

    r1 = maxima[1e-3] / maxima[5e-4]
    r2 = maxima[5e-4] / maxima[2.5e-4]
    ok = 1.5 <= r1 <= 3.0 and 1.5 <= r2 <= 3.0
    record_criterion(4, "energy-balance residual decays at first order in "
                     "the step", ok, f"halving ratios {r1:.2f}, {r2:.2f}")
    assert ok


def test_criterion_05_interpolation_inequality(grid257):
    rng = np.random.default_rng(20260819)
    w = grid_arrays(grid257).weights
    pairs = ((3.0, 4.0), (2.5, 6.0))
    checks = 0
    violations = 0
    min_slack = math.inf
    for _ in range(1000):
        scale = 10.0 ** rng.uniform(-2.0, 2.0)
        u = make_field(grid257, scale * rng.standard_normal(grid257.n)).values
        au = np.abs(u)
        u2 = float(np.sum(w * u * u))
        for p, q in pairs:
            lhs = float(np.sum(w * au ** p))
            uq = float(np.sum(w * au ** q))
            rhs = (q - p) / (q - 2.0) * u2 + (p - 2.0) / (q - 2.0) * uq
            checks += 1
            min_slack = min(min_slack, rhs - lhs)
            if lhs > rhs:
                violations += 1
    ok = violations == 0
    record_criterion(5, "p-norm interpolation bound holds on random fields",
                     ok, f"{checks} checks, min slack {min_slack:.3e}")
    assert ok


def test_criterion_06_absorbing_entry(grid257, cfg_accept, spec_mult):
    spec_a = ProblemSpec(noise_case="additive",
                         alpha=0.5 * alpha_zero(1.0, 0.0))
    paths = [make_path(s, cfg_accept.dt) for s in range(16)]
    initials = sample_initial_ball(grid257, 1.0, 1, 1234)
    ok = True
    notes = []
    for label, spec in (("additive", spec_a), ("multiplicative", spec_mult)):
        rep = absorbing_check(0.0, spec, paths, initials, horizons=(32.0,),
                              cfg=cfg_accept)
        good = (all(r[4] for r in rep.rows) and rep.entry_time == 32.0
                and not rep.failures)
        worst = max(r[2] / r[3] for r in rep.rows)
        notes.append(f"{label} max ||u||^2/bound {worst:.2f}")
        ok = ok and good
    record_criterion(6, "every seed is inside its absorbing bound at horizon "
                     "32", ok, "; ".join(notes))
    assert ok


def test_criterion_07_tail_smallness(grid257, cfg_accept, spec_add):
    rep = tail_check(0.0, spec_add,
                     [make_path(s, cfg_accept.dt) for s in range(16)],
                     sample_initial_ball(grid257, 1.0, 1, 1234)[0],
                     horizon=32.0, k_list=(2.0, 3.0, 4.0), cfg=cfg_accept,
                     n_sigma=8)
    rows4 = [r for r in rep.rows if r[1] == 4.0]
    complete = len(rep.sigmas) == 8 and len(rows4) == 16 * 8 \
        and not rep.failures
    small = all(r[3] <= 1e-3 * r[5] for r in rows4)
    worst = max(r[3] / r[5] for r in rows4)
    ok = complete and small and rep.monotone_in_k
    record_criterion(7, "mass beyond half the domain radius is negligible "
                     "and shrinks with the radius", ok,
                     f"max tail fraction {worst:.2e} at k=4")
    assert ok


def test_criterion_08_pullback_cauchy(grid257, cfg_accept, spec_add,
                                      path_bank):
    decreasing = 0
    pairs = 0
    for seed in range(8):
        path = path_bank(seed, cfg_accept.dt)
        initials = sample_initial_ball(grid257, 1.0, 2, 1234)
        res = pullback_run(0.0, [8.0, 16.0, 32.0], initials, path, spec_add,
                           cfg_accept)
        assert not res.failures
        for i in range(len(initials)):
            e8 = res.ensembles[8.0].members[i]
            e16 = res.ensembles[16.0].members[i]
            e32 = res.ensembles[32.0].members[i]
            d1 = hausdorff_semidistance([e8], [e16])
            d2 = hausdorff_semidistance([e16], [e32])
            pairs += 1
            if d2 < d1:
                decreasing += 1
    ok = decreasing >= 0.9 * pairs
    record_criterion(8, "endpoint gaps shrink as the pullback horizon "
                     "doubles", ok, f"{decreasing}/{pairs} pairs decreasing")
    assert ok


def test_criterion_09_periodicity(grid257, cfg_accept, spec_add, path_bank):
    worst = 0.0
    ok = True
    for seed in range(8):
        path = path_bank(seed, cfg_accept.dt)
        bound = absorbing_bound(0.0, path, spec_add, 1e-12, grid257, 4.0)
        tol = 1e-4 * math.sqrt(bound)
        kw = dict(n_initials=2, grid=grid257, cfg=cfg_accept,
                  cluster_tol=tol, check_contraction=False)
        e1 = estimate_attractor(0.0, spec_add, path, 8.0, **kw)
        e2 = estimate_attractor(spec_add.period, spec_add, path, 8.0, **kw)
        d = max(hausdorff_semidistance(e1, e2), hausdorff_semidistance(e2, e1))
        worst = max(worst, d)
        ok = ok and d <= tol
    record_criterion(9, "attracting sets one forcing period apart coincide",
                     ok, f"max distance {worst:.2e}")
    assert ok


def test_criterion_10_alpha_solution_convergence(grid257, cfg_accept,
                                                 spec_mult, gaussian_u0,
                                                 path_bank):
    u0 = gaussian_u0(grid257)
    alphas = (0.4, 0.2, 0.1, 0.05)
    ok = True
    orders = []
    for seed in range(8):
        path = path_bank(seed, cfg_accept.dt)
        d = alpha_solution_distances(0.0, u0, path, spec_mult, cfg_accept,
                                     alphas=alphas)
        mono = all(d[i + 1] < d[i] for i in range(len(d) - 1))
        order = math.log(d[0] / d[-1]) / math.log(alphas[0] / alphas[-1])
        orders.append(order)
        ok = ok and mono and order >= 0.8
    record_criterion(10, "distance to the noise-free solution falls "
                     "near-linearly in alpha", ok,
                     f"orders {min(orders):.2f}..{max(orders):.2f}")
    assert ok


def test_criterion_11_upper_semicontinuity(grid257, cfg_accept, spec_mult):
    rep = usc_sweep(0.0, spec_mult,
                    [make_path(s, cfg_accept.dt) for s in range(8)],
                    alphas=(0.4, 0.2, 0.1, 0.05), horizon=16.0, n_initials=2,
                    grid=grid257, cfg=cfg_accept)
    m = rep.medians
    band = all(m[i + 1] <= 1.2 * m[i] for i in range(len(m) - 1))
    half = m[-1] <= 0.5 * m[0]
    ok = band and half and not rep.failures
    record_criterion(11, "median attractor distance to the noise-free set "
                     "shrinks with alpha", ok,
                     "medians " + ", ".join(f"{v:.3g}" for v in m))
    assert ok


def test_criterion_12_path_ergodic_bounds():
    passing = 0
    for seed in range(100):
        path = make_path(seed, 0.25, 4.0)
        z = ou_from_path(path, 1.0, 0.0, 1.0e4, 0.25)
        diag = ergodic_diagnostics(z)
        sub_ok = bool(np.all(diag["sublinear_ratio"] <= 0.05))
        mean_ok = bool(np.all(np.abs(diag["mean_ratio"])
                              <= 3.0 / np.sqrt(diag["horizons"])))
        if sub_ok and mean_ok:
            passing += 1
    ok = passing >= 95
    record_criterion(12, "path averages vanish at the ergodic rate", ok,
                     f"{passing}/100 seeds within bounds")
    assert ok


def test_2d_smoke(grid2d, cfg_fast, spec_add, gaussian_u0, path_bank):
    u0 = gaussian_u0(grid2d)
    path = path_bank(0, cfg_fast.dt)
    s = t = 0.25
    full = cocycle_apply(s + t, 0.0, path, u0, spec_add, cfg_fast)
    mid = cocycle_apply(s, 0.0, path, u0, spec_add, cfg_fast)
    end = cocycle_apply(t, s, shift(path, s), mid, spec_add, cfg_fast)
    assert np.array_equal(full.values, end.values)
    assert np.all(np.isfinite(full.values))
    assert l2_sq(full) <= 10.0 * l2_sq(u0) + 1.0
