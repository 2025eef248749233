"""Time integration: the IMEX exponential-Euler step shared by the additive,
multiplicative, and deterministic models, the solution operator built from
it, and pullback runs.

The linear damping is integrated exactly and everything else explicitly:

    v_{k+1} = e^(-a dt) v_k + ((1 - e^(-a dt))/a) * RHS(t_k, v_k),

with a = lam - alpha*eta for the additive model and a = lam otherwise.  The
noise enters through the stationary OU value z: the additive model advances
v = u - epsilon*h*z, the multiplicative model v = e^(-alpha z) u.  z and eta
are sampled at step midpoints (left endpoint for the first substep when the
divergence guard splits a step).  Everything that differs between the three
models sits in one table, _COUPLINGS; the step itself is written once.

Two reproducibility rules shape this module.  First, all step times are
integer multiples of dt, and time-periodic coefficients are evaluated at the
step index modulo the period, so runs started a whole period apart execute
identical float operations.  Second, the solution operator keeps the
untransformed state u between steps and performs the u -> v -> u transform
round trip inside every step; composing two runs then executes literally the
same operations as one long run, and the composition law holds exactly
rather than approximately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat
from typing import Callable, NamedTuple

import numpy as np

from .fields import (EndpointEnsemble, EnsembleTag, Field, Grid, _face_data,
                     _lap_faces, _lebesgue, _pairing, _sq_norm, grid_arrays,
                     lebesgue_pow, make_field, p_dissipation)
from .noise import (_Checked, _resolve, check_args, make_eta, ou_from_path,
                    shift, snap_steps, violated)
from .problem import ProblemSpec


@dataclass(frozen=True)
class StepperConfig(_Checked):
    """Step size and guard policy for the time integrators."""

    dt: float = 1e-3
    substep_limit: int = 8

    @staticmethod
    def violations(v) -> list:
        return violated(
            ("dt", v["dt"] > 0, "dt must be > 0"),
            ("substep_limit", v["substep_limit"] >= 0,
             "substep_limit must be ≥ 0"))


class StiffnessError(RuntimeError):
    """Raised when the divergence guard exhausts its substep budget."""

    def __init__(self, report: dict):
        super().__init__(
            f"step at t={report.get('t')} still diverges after "
            f"{report.get('halvings')} halvings (norm {report.get('norm_before'):.3g} "
            f"-> {report.get('norm_after'):.3g}); suggested dt <= {report.get('suggested_dt'):.3g}")
        self.report = report


@dataclass
class TrajectoryRecord:
    """Per-node series along one run plus optional field snapshots.

    energy series is ||v||^2 at the nodes; the dissipation series hold the
    face quadrature of ||grad w||_p^p and the node quadrature of ||w||_q^q of
    the step's dissipation argument (w = v + epsilon*h*z for the additive
    model, v itself otherwise).  snapshots maps node index -> v-field.
    """

    dt: float
    times: np.ndarray
    l2_sq: np.ndarray
    diss_p: np.ndarray
    diss_q: np.ndarray
    z: np.ndarray
    eta: np.ndarray
    snapshots: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Model context: grid-bound profiles and coefficient closures.
# ---------------------------------------------------------------------------

class _ModelContext:
    def __init__(self, spec: ProblemSpec, grid: Grid):
        self.spec = spec
        self.grid = grid
        arrs = grid_arrays(grid)
        self.arrs = arrs
        self.h = make_field(grid, np.exp(-0.5 * arrs.radial_sq)).values
        self.gauss = make_field(grid, np.exp(-arrs.radial_sq)).values
        self.x = arrs.x
        self.y = arrs.y if grid.dim == 2 else 0.0
        self.split_f = spec.nonlinearity.kind != "custom"
        self.p, self.delta, self.edges = spec.p, spec.delta, arrs.edges
        self.phases = {}                # step time -> its factors

    def col(self, x):
        """x, a scalar or a sequence, with unit grid axes: one row each."""
        x = np.asarray(x)
        return x.reshape(x.shape + (1,) * self.grid.dim)

    def f_of(self, t: float, w: np.ndarray, phi=None) -> np.ndarray:
        """f(t, w); phi, if given, is phi(t) gauss of the default f."""
        if phi is None:
            return self.spec.f_pointwise(t, self.x, self.y, w, self.gauss)
        f = self.spec.reaction(w)
        f += phi
        return f

    def factors(self, ts):
        """Columns of g(t) and, for the default f, phi(t), one call per t."""
        fns = (self.spec.g_time, self.spec.phi_time)[:1 + self.split_f]
        return self.col([[fn(t) for t in ts] for fn in fns])

    def phase_factors(self, ts):
        """factors(ts) at step times j dt, j < m: each evaluated once, kept."""
        for t in set(ts).difference(self.phases):
            self.phases[t] = self.factors([t]).ravel().tolist()
        return self.col(np.transpose([self.phases[t] for t in ts]))


@lru_cache(maxsize=64)
def _context(spec: ProblemSpec, grid: Grid) -> _ModelContext:
    return _ModelContext(spec, grid)


# ---------------------------------------------------------------------------
# Noise coupling: one table entry per case.  Each case keeps its own
# arithmetic; one formula with identity coefficients would not keep the bits
# (x + 0.0*y turns -0.0 into +0.0, and 0*inf into nan).  A step's arrays
# that do not depend on the state are its terms, built for a chunk of steps
# with one NumPy call each from per-step scalars.
# ---------------------------------------------------------------------------

def _deterministic_rhs(v, w, lap, t, z, eta, g, phi, noise, ctx):
    return (lap + ctx.f_of(t, v, phi)) + g, ctx.spec.lam


def _additive_rhs(v, w, lap, t, z, eta, g, phi, noise, ctx):
    rhs = _deterministic_rhs(w, w, lap, t, z, eta, g, phi, noise, ctx)[0]
    return np.add(rhs, noise, out=rhs), ctx.spec.lam - ctx.spec.alpha * eta


def _multiplicative_rhs(v, w, lap, t, z, eta, g, phi, noise, ctx):
    spec = ctx.spec
    scale = math.exp(spec.alpha * z)
    rhs = math.exp(spec.alpha * (spec.p - 2.0) * z) * lap \
        + (spec.alpha * z) * v
    rhs += (1.0 / scale) * ctx.f_of(t, scale * v, phi)
    rhs += (1.0 / scale) * g
    return rhs, spec.lam


class _Coupling(NamedTuple):
    """How one noise case enters the step."""

    ou_rate: Callable | None    # spec -> OU rate of z; None: no noise
    additive: bool              # eta modulates the damping; w is u, else v
    node: Callable              # (z, ctx) -> the term to_v/to_u apply at z
    to_v: Callable              # (u, node term, ctx) -> v
    to_u: Callable              # (v, node term, ctx) -> u
    rhs: Callable               # (v, w, lap, t, z, eta, g, phi, noise, ctx)

    def w_of(self, v, z, ctx):
        """The dissipation argument of v at noise value(s) z."""
        return self.to_u(v, self.node(z, ctx), ctx) if self.additive else v


_COUPLINGS = {
    "additive": _Coupling(
        lambda spec: spec.lam, True,
        lambda z, ctx: (ctx.spec.epsilon * ctx.col(z)) * ctx.h,
        lambda u, s, ctx: u - s, lambda v, s, ctx: v + s, _additive_rhs),
    "multiplicative": _Coupling(
        lambda spec: 1.0, False, lambda z, ctx: z,
        lambda u, z, ctx: math.exp(-ctx.spec.alpha * z) * u,
        lambda v, z, ctx: math.exp(ctx.spec.alpha * z) * v,
        _multiplicative_rhs),
    "deterministic": _Coupling(
        None, False, lambda z, ctx: z, lambda u, z, ctx: u,
        lambda v, z, ctx: v, _deterministic_rhs),
}


def _terms(co: _Coupling, ctx: _ModelContext, factors, z, eta):
    """Per step, from its time factors and midpoint noise z, eta: the node
    term of its dissipation argument, g(t) gauss, phi(t) gauss and the
    additive noise term (None where absent)."""
    spec, none = ctx.spec, repeat(None)
    g, *phi = factors * ctx.gauss
    noise = (spec.alpha * spec.epsilon * ctx.col(eta) * ctx.col(z)) * ctx.h \
        if co.additive else none
    return zip(co.node(z, ctx), g, phi[0] if phi else none, noise)


def _single_step(co: _Coupling, vv: np.ndarray, t_eval: float, dtt: float,
                 z_mid: float, eta_mid: float, terms, ctx: _ModelContext):
    """One IMEX update; returns (v_new, w, faces): the new state, the step's
    dissipation argument and its face data, which a record sums.  At a = 0
    the weight (1 - e^(-a dt))/a takes its limit dt: forward Euler."""
    node, g, phi, noise = terms
    warg = co.to_u(vv, node, ctx) if co.additive else vv
    lap, faces = _lap_faces(warg, ctx.grid, ctx.p, ctx.delta)
    rhs, a = co.rhs(vv, warg, lap, t_eval, z_mid, eta_mid, g, phi, noise, ctx)
    out = math.exp(-a * dtt) * vv
    out += np.multiply(rhs, -math.expm1(-a * dtt) / a if a else dtt, out=rhs)
    for edge in ctx.edges:
        out[edge] = 0.0
    return out, warg, faces


def _norm_ok(sq_old: float, sq_new: float) -> bool:
    """The guard's rule on the norms, given their squares."""
    l2_new = math.sqrt(sq_new)
    return math.isfinite(l2_new) and l2_new <= 10.0 * math.sqrt(sq_old) + 1e-3


def _macro_step(co, vv, t_eval, dtt, z0, z1, eta0, eta1, ctx, cfg, sq_old,
                sq_new):
    """Redo a dt step whose first attempt the divergence guard rejected by
    halving it into substeps, each building its own terms.

    sq_old is ||vv||^2 and sq_new the rejected attempt's ||v_new||^2.
    Returns (v_new, ||v_new||^2, w, faces) of the last substep.  A
    StiffnessError reports as norm_after the norm of the last rejected
    attempt."""
    for halvings in range(1, cfg.substep_limit + 1):
        nsub = 2 ** halvings
        hs = dtt / nsub
        cur = vv
        sq_cur = sq_old
        for i in range(nsub):
            if i == 0:
                zs, es = z0, eta0          # left endpoint for the first substep
            else:
                frac = (i + 0.5) / nsub
                zs = z0 + frac * (z1 - z0)
                es = eta0 + frac * (eta1 - eta0)
            ts = t_eval + i * hs
            terms = next(_terms(co, ctx, ctx.factors([ts]), [zs], [es]))
            nxt, warg, faces = _single_step(co, cur, ts, hs, zs, es, terms,
                                            ctx)
            sq_new = _sq_norm(nxt, ctx.arrs.weights)
            if not _norm_ok(sq_cur, sq_new):
                break
            cur, sq_cur = nxt, sq_new
        else:
            return cur, sq_cur, warg, faces
    raise StiffnessError({
        "t": t_eval, "dt": dtt, "halvings": cfg.substep_limit,
        "norm_before": math.sqrt(sq_old), "norm_after": math.sqrt(sq_new),
        "suggested_dt": stable_dt_bound(Field(ctx.grid, vv), ctx.spec),
    })


def stable_dt_bound(u: Field, spec: ProblemSpec) -> float:
    """The largest dt with diffusion number nu = dt (p - 1) dim peak / dx^2
    ≤ 1/2 at u, peak the largest face coefficient |grad u|^{p-2}."""
    grid = u.grid
    faces = _face_data(u.values, grid.dim, grid.dx, spec.p, spec.delta)
    peak = max(float(np.max(coef)) for _, coef in faces)
    return 0.5 * grid.dx ** 2 / ((spec.p - 1.0) * grid.dim * max(peak, 1e-12))


# ---------------------------------------------------------------------------
# State transforms between the equation variable u and the integrated v.
# ---------------------------------------------------------------------------

def transform_u_to_v(u: Field, z: float, spec: ProblemSpec) -> Field:
    """The integrated variable v of u at noise value z, as a new field."""
    co, ctx = _COUPLINGS[spec.noise_case], _context(spec, u.grid)
    return Field(u.grid, np.array(co.to_v(u.values, co.node(z, ctx), ctx)))


def transform_v_to_u(v: Field, z: float, spec: ProblemSpec) -> Field:
    """The equation variable u of v at noise value z, as a new field."""
    co, ctx = _COUPLINGS[spec.noise_case], _context(spec, v.grid)
    return Field(v.grid, np.array(co.to_u(v.values, co.node(z, ctx), ctx)))


# ---------------------------------------------------------------------------
# The solution operator and pullback runs.
# ---------------------------------------------------------------------------

def _rows(arrays: list) -> np.ndarray:
    """The arrays stacked on a new leading row axis; one array as a view, so
    chunks of one step copy nothing."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


def _noisy_path(co: _Coupling, path, spec: ProblemSpec):
    """path; a ValueError when a noisy case is given none."""
    if co.ou_rate and path is None:
        raise ValueError(f"noise_case {spec.noise_case!r} needs a noise path")
    return path


def _noise_arrays(co: _Coupling, path, spec: ProblemSpec, t0: float,
                  t1: float, dt: float):
    _noisy_path(co, path, spec)
    z = ou_from_path(path, co.ou_rate(spec), t0, t1, dt).values \
        if co.ou_rate else np.zeros(snap_steps(t1 - t0, dt) + 1)
    return z, (make_eta(path, spec.eta, t0, t1, dt) if co.additive
               else np.zeros(len(z)))


def cocycle_apply(t: float, tau: float, path, u_tau: Field, spec: ProblemSpec,
                  cfg: StepperConfig, snapshot_indices=None):
    """The solution operator: evolve u_tau for duration t, starting at tau.

    The path argument carries the noise; its elapsed-time values drive the
    run, so passing a shifted view realizes the shifted noise.  t = 0 returns
    a copy of the input.  Composition over consecutive legs reproduces the
    long run exactly, and time-periodic coefficients make runs a whole period
    apart identical.

    With snapshot_indices given, even empty, returns (endpoint, record): a
    TrajectoryRecord whose snapshots hold the transformed state v at those
    node indices.
    """
    dt = cfg.dt
    nsteps = snap_steps(t, dt, "t")
    if nsteps < 0:
        raise ValueError("duration t must be >= 0")
    tau_k = snap_steps(tau, dt, "tau")
    m = snap_steps(spec.period, dt, "period")
    if m < 1:
        raise ValueError("period must be a positive multiple of dt")
    co = _COUPLINGS[spec.noise_case]
    grid = u_tau.grid
    ctx = _context(spec, grid)
    recording = snapshot_indices is not None
    want = set(int(i) for i in snapshot_indices) if recording else set()

    z, eta = _noise_arrays(co, path, spec, 0.0, nsteps * dt, dt)
    state = u_tau.values.copy()

    if recording:
        l2s, dps, dqs = np.empty((3, nsteps + 1))
    snapshots = {}

    v0 = co.to_v(state, co.node(z[0], ctx), ctx)
    ts = [((tau_k + k) % m) * dt for k in range(nsteps)]
    factors, zs, es = ctx.phase_factors(ts), z.tolist(), eta.tolist()
    z_mid, eta_mid = 0.5 * (z[:-1] + z[1:]), 0.5 * (eta[:-1] + eta[1:])
    zms, ems = z_mid.tolist(), eta_mid.tolist()
    # Chunks of steps build their terms, and a record its quadratures, with
    # one NumPy call each.  Every step of a chunk makes its first attempt
    # unguarded, then one stacked check guards them all: the steps before
    # the first rejected one stand, that one is redone by halving, and the
    # next chunk starts after it.  No accepted step depends on a later
    # guard decision, so the bits are those of guarding each step in turn.
    chunk, weights = ctx.arrs.block_rows, ctx.arrs.weights
    k0, sq_new, vv_new = 0, None, v0    # ||v||^2 and v at the last node
    while k0 < nsteps:
        c = slice(k0, min(k0 + chunk, nsteps))
        nodes = co.node(z[k0:c.stop + 1], ctx)
        vvs, cands, wargs, faces = [], [], [], []
        # Attempts past a rejected step run on a state that is discarded.
        with np.errstate(over="ignore", invalid="ignore"):
            for terms, node, node1, t_k, zm, em in zip(
                    _terms(co, ctx, factors[:, c], z_mid[c], eta_mid[c]),
                    nodes, nodes[1:], ts[c], zms[c], ems[c]):
                vvs.append(co.to_v(state, node, ctx))
                cand, warg, fc = _single_step(co, vvs[-1], t_k, dt, zm, em,
                                              terms, ctx)
                cands.append(cand)
                if recording:
                    wargs.append(warg)
                    faces.append(fc)
                state = co.to_u(cand, node1, ctx)
            sq0 = _sq_norm(_rows(vvs), weights).tolist()
            sq1 = _sq_norm(_rows(cands), weights).tolist()
        # The rule on Python floats: on short chunks, cheaper than NumPy.
        ok = list(map(_norm_ok, sq0, sq1))
        # Steps kept: those that stand, and the first rejected one, redone.
        n = ok.index(False) + 1 if False in ok else len(ok)
        if not ok[n - 1]:
            j, k = n - 1, k0 + n - 1
            cands[j], sq1[j], *rec = _macro_step(
                co, vvs[j], ts[k], dt, zs[k], zs[k + 1], es[k], es[k + 1],
                ctx, cfg, sq0[j], sq1[j])
            if recording:
                wargs[j], faces[j] = rec
            state = co.to_u(cands[j], nodes[n], ctx)
        vv_new, sq_new = cands[n - 1], sq1[n - 1]
        if recording:
            l2s[k0:k0 + n] = sq0[:n]
            for j in range(n):
                if k0 + j in want:
                    snapshots[k0 + j] = Field(grid, vvs[j].copy())
            dps[k0 + 1:k0 + n + 1] = _pairing(
                [tuple(map(_rows, zip(*d))) for d in zip(*faces[:n])],
                grid.dx)
            dqs[k0 + 1:k0 + n + 1] = _lebesgue(_rows(wargs[:n]), weights,
                                               spec.q)
        k0 += n

    out = Field(grid, state)
    if not recording:
        return out
    l2s[nsteps] = sq_new if nsteps else _sq_norm(v0, weights)
    if nsteps in want:
        snapshots[nsteps] = Field(grid, vv_new.copy())
    # At node times the additive dissipation argument w = v + eps*h*z is u
    # itself, taken as given rather than through the v round trip.
    w0 = Field(grid, u_tau.values if co.additive else v0)
    dps[0] = p_dissipation(w0, spec.p, spec.delta)
    dqs[0] = lebesgue_pow(w0, spec.q)
    return out, TrajectoryRecord(
        dt=dt, times=tau + np.arange(nsteps + 1) * dt, l2_sq=l2s,
        diss_p=dps, diss_q=dqs, z=z, eta=eta, snapshots=snapshots)


@dataclass
class PullbackResult:
    """Endpoint ensembles per horizon plus the per-run records."""

    ensembles: dict
    records: dict
    failures: list


def pullback_run(tau: float, horizons, initial_set, path, spec: ProblemSpec,
                 cfg: StepperConfig, snapshot_indices=None) -> PullbackResult:
    """Evolve each initial state from tau - horizon up to tau, per horizon.

    Uses the run started at tau - horizon with the noise shifted back by the
    horizon, which is the pullback convention: larger horizons look further
    into the past while the observation time stays tau.  Failed runs are
    recorded as annotations naming the path's seed, tau, the horizon and the
    initial state, and skipped in the ensembles.  records maps (horizon,
    initial index) to each run's record only when snapshot_indices is given.
    """
    horizons = list(horizons)
    check_args(horizons=horizons)
    ensembles = {}
    records = {}
    failures = []
    seed = getattr(_resolve(path)[0], "seed", None)
    for h in horizons:
        view = shift(path, -h) if path is not None else None
        members = []
        for idx, u0 in enumerate(initial_set):
            try:
                out = cocycle_apply(h, tau - h, view, u0, spec, cfg,
                                    snapshot_indices=snapshot_indices)
            except StiffnessError as exc:
                failures.append({"seed": seed, "tau": tau, "horizon": h,
                                 "initial": idx, "report": exc.report})
                continue
            if snapshot_indices is not None:
                out, records[(h, idx)] = out
            members.append(out)
        ensembles[h] = EndpointEnsemble(
            members=tuple(members),
            tag=EnsembleTag(tau=tau, seed=seed, alpha=spec.alpha, horizon=h))
    return PullbackResult(ensembles=ensembles, records=records, failures=failures)
