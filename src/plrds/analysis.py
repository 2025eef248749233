"""Quantitative diagnostics: absorbing radii by quadrature, absorbing-entry
checks, energy audits, tail monitors, attractor estimation, and the
noise-intensity (upper-semicontinuity) sweep.

Every sweep maps pullback_run or estimate_attractor over the caller's noise
paths on an optional process pool.  A path pickles by its recipe and its
values are pure functions of it, and results come back in task order, so
worker count never changes any reported number.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .fields import (EndpointEnsemble, Field, Grid, _face_data, _pairing,
                     grid_arrays, hausdorff_semidistance, l2_distance, l2_sq,
                     make_field, tail_mass)
from .integrator import (StepperConfig, TrajectoryRecord, cocycle_apply,
                         pullback_run, _context, _COUPLINGS, _noise_arrays,
                         _noisy_path)
from .noise import QUAD_TOL, _cumtrapz, check_args, snap_steps
from .problem import ForcingNorms, ProblemSpec, check_growth_condition

# The library's defaults, which RunConfig reads as the CLI's.
DEFAULT_C = 4.0
DEFAULT_HORIZONS = (4.0, 8.0, 16.0, 32.0)
DEFAULT_K_LIST = (2.0, 3.0, 4.0)
DEFAULT_ALPHAS = (0.4, 0.2, 0.1, 0.05)
DEFAULT_N_SIGMA = 8
DEFAULT_SAMPLER_SEED = 1234
_SAMPLER_KEY = 0x1B1D


# ---------------------------------------------------------------------------
# Initial data: reproducible bumps inside a ball.
# ---------------------------------------------------------------------------

def sample_initial_ball(grid: Grid, radius: float, count: int,
                        seed: int = DEFAULT_SAMPLER_SEED) -> list:
    """Deterministic sum-of-bumps fields with L2 norm inside the radius."""
    check_args(ball_radius=radius, n_initials=count)
    rng = np.random.Generator(np.random.Philox(key=np.array(
        [seed & 0xFFFFFFFFFFFFFFFF, _SAMPLER_KEY], dtype=np.uint64)))
    arrs = grid_arrays(grid)
    out = []
    for _ in range(count):
        vals = np.zeros(grid.shape)
        for _ in range(3):
            centre = rng.uniform(-grid.half_width / 2, grid.half_width / 2,
                                 grid.dim)
            r2 = sum((x - c) ** 2 for x, c in zip((arrs.x, arrs.y), centre))
            width = rng.uniform(0.8, 1.6)
            vals += rng.standard_normal() * np.exp(-r2 / (2.0 * width * width))
        fld = make_field(grid, vals)
        nrm = math.sqrt(l2_sq(fld))
        target = radius * rng.uniform(0.3, 0.95)
        out.append(Field(grid, fld.values * (target / max(nrm, 1e-12))))
    return out


# ---------------------------------------------------------------------------
# Absorbing radii by quadrature along the noise.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadiusReport:
    """One absorbing radius with its pieces and quadrature provenance.

    radius is the full R; parts splits it into the calibration constant and
    the quadrature contributions; bound is the absorbing bound on ||u||^2
    implied by R for the spec's noise case; shift_sq is ||epsilon*h*z(omega)||^2
    (additive case, else 0).
    """

    radius: float
    bound: float
    shift_sq: float
    parts: dict
    truncation: float
    converged: bool
    growth_finite: bool


def _weight_window(path, spec: ProblemSpec, quad_tol: float):
    """Weights and noise samples on [-S, 0] with S chosen so the weight tail
    falls below quad_tol (capped; the cap flags non-convergence).

    Returns (s, w, z, eta, ds, S, converged) with ds the quadrature step.
    The noise-free window has its own rule: step 1e-3 and the bare span, with
    z = eta = 0.
    """
    lam = spec.lam
    co = _COUPLINGS[spec.noise_case]
    base_span = math.log(1.0 / quad_tol) / (1.25 * lam)
    if co.ou_rate is None:
        ds = 1e-3
        n = int(math.ceil(base_span / ds))
        s = -(n * ds) + np.arange(n + 1) * ds
        zero = np.zeros(n + 1)
        return s, np.exp(1.25 * lam * s), zero, zero, ds, n * ds, True
    dt = _noisy_path(co, path, spec).dt
    n = max(int(round(4.0 / dt)), int(math.ceil(base_span / dt)))
    cap = 16 * max(int(math.ceil(base_span / dt)), int(round(1.0 / dt)))
    while True:
        span = n * dt
        s = -span + np.arange(n + 1) * dt
        z, eta = _noise_arrays(co, path, spec, -span, 0.0, dt)
        # eta modulates the additive damping; z, the multiplicative one.
        integ = _cumtrapz(eta if co.additive else z, dt)
        expo = 1.25 * lam * s - 2.0 * spec.alpha * (integ - integ[-1])
        if not co.additive:
            expo = expo - 2.0 * spec.alpha * z
        with np.errstate(over="ignore"):
            w = np.exp(expo)
        converged = bool(w[0] < quad_tol)
        if converged or n >= cap:
            return s, w, z, eta, s[1] - s[0], span, converged
        n = min(2 * n, cap)


def absorbing_radius(tau: float, path, spec: ProblemSpec,
                     quad_tol: float = QUAD_TOL,
                     grid: Grid = Grid(),
                     c: float = DEFAULT_C) -> RadiusReport:
    """Absorbing radius R at observation time tau for the spec's noise case.

    R = c + c * int_{-S}^0 w(s) F(s) ds, truncated at S where w falls below
    quad_tol, with the forcing norms in F taken at s + tau:

    additive        w = exp((5/4) lam s - 2 alpha int_0^s eta dr), F = ||g||^2
                    + ||psi1||_1 + ||psi3||_q1^q1 + |eps z|^p + |eps z|^q
                    + (alpha eps eta z)^2; bound 2 ||eps h z(omega)||^2 + 2 R
    multiplicative  w = exp((5/4) lam s - 2 alpha int_0^s z dr - 2 alpha z),
                    F = ||g||^2 + ||psi1||_1; bound e^{2 alpha z(omega)} R
    deterministic   w = exp((5/4) lam s), F as multiplicative; bound R

    The bound is on ||u(tau)||^2.  The noise-free case ignores path.  Warns
    when an additive alpha exceeds the admissibility threshold.
    """
    check_args(quad_tol=quad_tol, c=c)
    additive = _COUPLINGS[spec.noise_case].additive
    if additive and spec.alpha > spec.alpha_max:
        warnings.warn(f"alpha={spec.alpha} exceeds the admissible threshold "
                      f"{spec.alpha_max:.6g}; the radius bound is heuristic there",
                      stacklevel=2)
    forcing = ForcingNorms(spec, grid)
    growth = check_growth_condition(spec, tau, quad_tol=quad_tol,
                                    integrand=forcing.total)
    s, w, z, eta, ds, span, converged = _weight_window(path, spec, quad_tol)
    eps = spec.epsilon
    parts = {"constant": c}
    psi = forcing.psi1_l1(s + tau)
    if additive:
        noise_term = (np.abs(eps * z) ** spec.p + np.abs(eps * z) ** spec.q
                      + (spec.alpha * eps * eta * z) ** 2)
        parts["noise"] = c * float(np.trapezoid(w * noise_term, dx=ds))
        psi = psi + forcing.psi3_q1_pow(s + tau)
    parts["g"] = c * float(np.trapezoid(w * forcing.g_l2_sq(s + tau), dx=ds))
    parts["psi"] = c * float(np.trapezoid(w * psi, dx=ds))
    radius = sum(parts.values())
    shift_sq = 0.0
    if additive:
        shift_sq = (eps * float(z[-1])) ** 2 * forcing.h_l2_sq
        bound = 2.0 * shift_sq + 2.0 * radius
    else:   # the noise-free window holds z = 0, so this is R to the bit
        bound = math.exp(2.0 * spec.alpha * float(z[-1])) * radius
    return RadiusReport(radius=radius, bound=bound, shift_sq=shift_sq,
                        parts=parts, truncation=span, converged=converged,
                        growth_finite=growth.finite)


def absorbing_bound(tau: float, path, spec: ProblemSpec,
                    quad_tol: float = QUAD_TOL,
                    grid: Grid = Grid(), c: float = DEFAULT_C) -> float:
    """The case-appropriate absorbing bound on ||u(tau)||^2."""
    return absorbing_radius(tau, path, spec, quad_tol, grid, c).bound


# ---------------------------------------------------------------------------
# Absorbing-entry experiment.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbsorbingReport:
    """Entry of pullback endpoints into the absorbing ball.

    radius_sq is the largest per-path bound; entry_time is the first tested
    horizon from which every sampled trajectory satisfies its bound (None if
    some never does); per_path lists (seed, satisfied, margin) at the largest
    horizon; rows hold (seed, horizon, endpoint_l2_sq, bound, satisfied).
    """

    radius_sq: float
    entry_time: float | None
    per_path: list
    rows: list
    failures: list


def absorbing_check(tau: float, spec: ProblemSpec, paths, initials,
                    horizons=DEFAULT_HORIZONS,
                    cfg: StepperConfig = StepperConfig(),
                    quad_tol: float = QUAD_TOL, c: float = DEFAULT_C,
                    workers: int = 1) -> AbsorbingReport:
    """Check that pullback endpoints enter the absorbing ball.

    For each path, in the given order, compares ||u(tau)||^2 at every
    horizon, started from every initial state, against the path's absorbing
    bound.  The horizons are nonnegative and ascending.
    """
    horizons = [float(h) for h in horizons]
    check_args(quad_tol=quad_tol, c=c, horizons=horizons)
    if not paths or not initials or not horizons:
        raise ValueError("absorbing_check needs at least one path, one "
                         "initial state and one horizon")
    run = partial(pullback_run, tau, horizons, initials, spec=spec, cfg=cfg)
    results = _run_pool(run, [{"path": p} for p in paths], workers)
    rows, failures = [], []
    for path, result in zip(paths, results):
        bound = absorbing_bound(tau, path, spec, quad_tol,
                                initials[0].grid, c)
        for h in horizons:
            ens = result.ensembles[h]
            worst = max((l2_sq(m) for m in ens.members), default=float("nan"))
            rows.append((ens.tag.seed, h, worst, bound, bool(worst <= bound)))
        failures.extend(result.failures)
    sat_by_h = {h: all(r[4] for r in rows if r[1] == h) for h in horizons}
    entry = None
    for i, h in enumerate(horizons):
        if all(sat_by_h[hh] for hh in horizons[i:]):
            entry = h
            break
    largest = horizons[-1]
    per_path = [(r[0], r[4], r[3] - r[2]) for r in rows if r[1] == largest]
    radius_sq = max((r[3] for r in rows), default=float("nan"))
    return AbsorbingReport(radius_sq=radius_sq, entry_time=entry,
                           per_path=per_path, rows=rows, failures=failures)


# ---------------------------------------------------------------------------
# Energy audit.
# ---------------------------------------------------------------------------

def energy_audit(record: TrajectoryRecord, spec: ProblemSpec):
    """Audit the energy balance along a recorded trajectory.

    Evaluates the discrete residual of the energy identity of v, the state
    the stepper integrates, in all three noise cases:

        d/dt ||v||^2 + 2 (lam - alpha m) ||v||^2 + 2 c_p ||grad w||_p^p
          = 2 eps z (|grad w|^{p-2} grad w, grad h) + 2 c_f (f(t,x,u), v)
            + 2 c_f (g, v) + 2 alpha eps eta z (h, v),

    additive        u = w = v + eps h z, m = eta, c_p = c_f = 1
    multiplicative  u = e^{alpha z} v, w = v, m = z,
                    c_p = e^{alpha (p-2) z}, c_f = e^{-alpha z}, no h terms
    noise-free      u = w = v, z = eta = 0, c_p = c_f = 1

    with centered differences in time; the residual is O(dt + dx^2) on smooth
    data.  The case comes from spec.  Requires snapshots at consecutive node
    indices; returns (max |residual|, series) with series holding the
    audited node indices, their times and residuals.

    Noise samples are quadratured over the centered window as
    (z[k-1] + 2 z[k] + z[k+1]) / 4, matching the two step increments the
    window actually contains; sampling z at the node alone would inject the
    rough O(sqrt(dt)) mismatch between node values and step midpoints.
    """
    snaps = record.snapshots
    if len(snaps) < 3:
        raise ValueError("audit needs snapshots at three or more consecutive nodes")
    ks = sorted(snaps)
    interior = [k for k in ks if k - 1 in snaps and k + 1 in snaps]
    if not interior:
        raise ValueError("audit needs consecutive snapshot triples")
    grid = snaps[ks[0]].grid
    ctx = _context(spec, grid)
    co = _COUPLINGS[spec.noise_case]
    wts, dim, dx, a = ctx.arrs.weights, grid.dim, grid.dx, spec.alpha
    axes = tuple(range(-dim, 0))
    # Node series with the float operations of one node each; coefficients
    # through exp, pow, sin and cos are per-node scalars.
    kk = np.array(interior)
    z, eta, en, times = record.z, record.eta, record.l2_sq, record.times[kk]
    dE = (en[kk + 1] - en[kk - 1]) / (2.0 * record.dt)
    zk = (z[kk - 1] + 2.0 * z[kk] + z[kk + 1]) / 4.0
    ek = (eta[kk - 1] + 2.0 * eta[kk] + eta[kk + 1]) / 4.0
    en, ts = en[kk], times.tolist()
    factors = ctx.factors(ts)
    h_grads = [g for g, _ in _face_data(ctx.h, dim, dx, 2.0, 0.0)]
    # The case picks the coefficients; a factor of 1.0 multiplies exactly.
    # The noise-free case takes the multiplicative ones at z = 0, all 1.0.
    ones = np.ones(len(interior))
    mod, eps, c_p, c_f, to_u = ek, spec.epsilon, ones, ones, ones
    if not co.additive:
        mod, eps = zk, 0.0
        c_p, c_f, to_u = (np.array([math.exp(a * e * s) for s in zk.tolist()])
                          for e in (spec.p - 2.0, -1.0, 1.0))
    residuals = np.empty(len(interior))
    rows = ctx.arrs.block_rows
    for b in (slice(i, i + rows) for i in range(0, len(interior), rows)):
        v = np.stack([snaps[k].values for k in interior[b]])
        w = co.w_of(v, zk[b], ctx)
        u = ctx.col(to_u[b]) * w
        faces = _face_data(w, dim, dx, spec.p, spec.delta)
        g, *phi = factors[:, b] * ctx.gauss
        f = ctx.f_of(None, u, *phi) if phi else \
            np.stack([ctx.f_of(t, r) for t, r in zip(ts[b], u)])
        residuals[b] = (
            dE[b] + 2.0 * (spec.lam - a * mod[b]) * en[b]
            + (2.0 * c_p[b]) * _pairing(faces, dx)) - (
            2.0 * eps * zk[b] * _pairing(faces, dx, h_grads)
            + (2.0 * c_f[b]) * (wts * f * v).sum(axes)
            + (2.0 * c_f[b]) * (wts * g * v).sum(axes)
            + 2.0 * a * eps * ek[b] * zk[b]
            * (wts * ctx.h * v).sum(axes))
    return float(np.max(np.abs(residuals))), {
        "nodes": interior, "times": times, "residuals": residuals}


# ---------------------------------------------------------------------------
# Tail monitor.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailReport:
    """Tail masses of v outside each radius k at sampled sigma in [tau-1, tau].

    rows hold (seed, k, sigma, tail_plain, tail_rho, l2_sq); max_per_k maps k
    to the largest plain tail over (seed, sigma); monotone_in_k records the
    pointwise decrease across the ascending k list, None with no rows.
    """

    k_list: tuple
    sigmas: tuple
    rows: list
    max_per_k: dict
    monotone_in_k: bool | None
    failures: list


def tail_check(tau: float, spec: ProblemSpec, paths, u0: Field,
               horizon: float = 32.0, k_list=DEFAULT_K_LIST,
               cfg: StepperConfig = StepperConfig(),
               n_sigma: int = DEFAULT_N_SIGMA,
               workers: int = 1) -> TailReport:
    """Measure how much of v sits outside radius k along the last time unit.

    Pulls u0 back along each path, in the given order, and samples n_sigma
    evenly spaced observation times in [tau-1, tau] (snapped to the step
    grid) at the given horizon.  k_list must be non-empty, ascending,
    positive and inside the grid; tails decrease pointwise in k.
    """
    grid = u0.grid
    k_list = tuple(float(k) for k in k_list)
    check_args(n_sigma=n_sigma, k_list=k_list)
    if not paths:
        raise ValueError("tail_check needs at least one path")
    if horizon < 1.0:
        raise ValueError("tail_check samples the last time unit; horizon >= 1")
    if k_list[-1] >= grid.half_width:
        raise ValueError("k values must be < half_width")
    if grid.half_width <= math.sqrt(2.0) * k_list[-1]:
        warnings.warn("half_width is not beyond sqrt(2) * max(k); the cutoff "
                      "plateau leaves the domain", stacklevel=2)
    nsteps = snap_steps(horizon, cfg.dt, "horizon")
    sigma_frac = np.linspace(0.0, 1.0, n_sigma)
    sigma_idx = sorted({nsteps - int(round(f / cfg.dt)) for f in (1.0 - sigma_frac)})
    run = partial(pullback_run, tau, [float(horizon)], [u0], spec=spec,
                  cfg=cfg, snapshot_indices=sigma_idx)
    results = _run_pool(run, [{"path": p} for p in paths], workers)
    rows, failures = [], []
    monotone = True
    for result in results:
        failures.extend(result.failures)
        rec = result.records.get((horizon, 0))
        if rec is None:
            continue
        seed = result.ensembles[horizon].tag.seed
        for k_idx in sigma_idx:
            snap = rec.snapshots[k_idx]
            sigma = tau - horizon + k_idx * cfg.dt
            base = l2_sq(snap)
            tails = [tail_mass(snap, k) for k in k_list]
            monotone = monotone and not any(
                b.plain > a.plain + 1e-15 for a, b in zip(tails, tails[1:]))
            rows.extend((seed, k, sigma, tm.plain, tm.rho_weighted, base)
                        for k, tm in zip(k_list, tails))
    max_per_k = {k: max((r[3] for r in rows if r[1] == k), default=float("nan"))
                 for k in k_list}
    sigmas = tuple(sorted({r[2] for r in rows}))
    return TailReport(k_list=k_list, sigmas=sigmas, rows=rows,
                      max_per_k=max_per_k, failures=failures,
                      monotone_in_k=monotone if rows else None)


# ---------------------------------------------------------------------------
# Attractor estimation and the noise-intensity sweep.
# ---------------------------------------------------------------------------

def estimate_attractor(tau: float, spec: ProblemSpec, path, horizon: float,
                       n_initials: int = 4, grid: Grid = Grid(),
                       cfg: StepperConfig = StepperConfig(),
                       cluster_tol: float | None = None,
                       sampler_seed: int = DEFAULT_SAMPLER_SEED,
                       quad_tol: float = QUAD_TOL, c: float = DEFAULT_C,
                       check_contraction: bool = True) -> EndpointEnsemble:
    """Estimate the pullback attracting set at tau by long-horizon endpoints.

    Initial states come from the absorbing ball of the given path, whose
    radius the tag records; endpoints closer than cluster_tol (default 1e-4
    times that radius) are merged.  Warns when the endpoint spread at the
    full horizon exceeds the spread at half the horizon, which signals
    non-contraction; both spreads are over the initial states that survived
    both horizons, and with fewer than two of those it warns that
    contraction is unchecked.  The failure entries of the pullback runs
    ride along as the ensemble's failures.
    """
    check_args(horizon=horizon, n_initials=n_initials)
    if cluster_tol is not None:
        check_args(cluster_tol=cluster_tol)
    bound = absorbing_bound(tau, path, spec, quad_tol, grid, c)
    radius = math.sqrt(max(bound, 1e-30))
    if cluster_tol is None:
        cluster_tol = 1e-4 * radius
    initials = sample_initial_ball(grid, radius, n_initials, sampler_seed)
    half = snap_steps(horizon, cfg.dt, "horizon") // 2 * cfg.dt
    horizons = [half, float(horizon)] if (check_contraction and 0.0 < half < horizon) \
        else [float(horizon)]
    result = pullback_run(tau, horizons, initials, path, spec, cfg)
    ens = result.ensembles[float(horizon)]
    if check_contraction and len(horizons) == 2:
        failed = {(f["horizon"], f["initial"]) for f in result.failures}
        kept = {h: [i for i in range(n_initials) if (h, i) not in failed]
                for h in horizons}
        both = set(kept[half]) & set(kept[horizons[1]])
        s_half, s_full = (replace(result.ensembles[h], members=tuple(
            m for i, m in zip(kept[h], result.ensembles[h].members)
            if i in both)).spread() for h in horizons)
        if len(both) < 2:
            warnings.warn(f"fewer than two initial states survived both "
                          f"horizons {half} and {horizon}; contraction "
                          "unchecked", stacklevel=2)
        elif s_full > s_half + cluster_tol:
            warnings.warn(f"endpoint spread grew from {s_half:.3g} at horizon "
                          f"{half} to {s_full:.3g} at {horizon}; "
                          "no contraction yet", stacklevel=2)
    kept = []
    for m in ens.members:
        if all(l2_distance(m, k) >= cluster_tol for k in kept):
            kept.append(m)
    return EndpointEnsemble(members=tuple(kept), tag=replace(
        ens.tag, horizon=horizon, radius=radius, cluster_tol=cluster_tol),
        failures=tuple(result.failures))


def _at_alpha(spec: ProblemSpec, alpha: float) -> ProblemSpec:
    """spec under multiplicative noise of intensity alpha.  alpha = 0 is the
    deterministic case, whose steps give the multiplicative ones' bits."""
    return replace(spec, alpha=float(alpha), noise_case="multiplicative"
                   if alpha > 0 else "deterministic")


@dataclass(frozen=True)
class UscReport:
    """Distances dist(A_alpha, A_0) per (alpha, seed) and their medians."""

    alphas: tuple
    seeds: tuple
    distances: np.ndarray
    medians: tuple
    failures: list


def usc_sweep(tau: float, spec: ProblemSpec, paths,
              alphas=DEFAULT_ALPHAS, horizon: float = 16.0,
              n_initials: int = 2, grid: Grid = Grid(),
              cfg: StepperConfig = StepperConfig(),
              sampler_seed: int = DEFAULT_SAMPLER_SEED,
              quad_tol: float = QUAD_TOL, c: float = DEFAULT_C,
              workers: int = 1) -> UscReport:
    """Compare the noisy attracting sets against the noise-free one as the
    multiplicative intensity alpha decreases toward zero.

    Estimates A_alpha per (alpha, path) and A_0 once (deterministic run), and
    reports dist(A_alpha, A_0) with per-alpha medians; a distance involving
    an empty ensemble is nan.  Columns and seeds follow the order of paths.
    alphas must be non-empty, strictly decreasing and nonnegative.  failures
    holds the pullback failures of A_0 and of every A_alpha, each tagged
    with its alpha.
    """
    alphas = tuple(float(a) for a in alphas)
    check_args(horizon=horizon, n_initials=n_initials, alphas=alphas)
    if not paths:
        raise ValueError("usc_sweep needs at least one path")
    runs = [(0.0, None)] + [(a, p) for a in alphas for p in paths]
    tasks = [{"spec": _at_alpha(spec, a), "path": p} for a, p in runs]
    for task in tasks:                  # every path checked before any run
        _noisy_path(_COUPLINGS[task["spec"].noise_case], task["path"],
                    task["spec"])
    run = partial(estimate_attractor, tau, horizon=float(horizon),
                  n_initials=n_initials, grid=grid, cfg=cfg,
                  sampler_seed=sampler_seed, quad_tol=quad_tol, c=c,
                  check_contraction=False)
    a0, *ensembles = _run_pool(run, tasks, workers)
    dist = np.array([hausdorff_semidistance(e, a0)
                     for e in ensembles]).reshape(len(alphas), len(paths))
    medians = tuple(float(np.median(dist[i])) for i in range(len(alphas)))
    failures = [dict(f, alpha=ens.tag.alpha)
                for ens in (a0, *ensembles) for f in ens.failures]
    seeds = tuple(e.tag.seed for e in ensembles[:len(paths)])
    return UscReport(alphas=alphas, seeds=seeds,
                     distances=dist, medians=medians, failures=failures)


def alpha_solution_distances(tau: float, u0: Field, path, spec: ProblemSpec,
                             cfg: StepperConfig,
                             alphas=DEFAULT_ALPHAS) -> list:
    """||u_alpha(tau+1) - u_0(tau+1)|| for the multiplicative model.

    The noise-free reference uses the deterministic stepper; one value per
    alpha, in the given order.
    """
    ref = cocycle_apply(1.0, tau, path, u0, _at_alpha(spec, 0.0), cfg)
    specs = [_at_alpha(spec, a) for a in alphas]
    return [l2_distance(cocycle_apply(1.0, tau, path, u0, s, cfg), ref)
            for s in specs]


# ---------------------------------------------------------------------------
# Worker pool.
# ---------------------------------------------------------------------------

def _call(fn, task: dict):
    return fn(**task)


def _run_pool(fn, tasks, workers: int) -> list:
    """fn(**task) for each keyword dict in tasks, in task order."""
    # Bounded before the pool starts: under fork it spawns every worker at once.
    workers = min(int(workers), len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(**t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(partial(_call, fn), tasks))
