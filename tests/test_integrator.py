"""Time stepping: cocycle algebra, reductions, refinement order, guards."""

import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from conftest import TabulatedPath, boundary_mask, flux_pairing

from plrds import fields, integrator
from plrds.fields import (Field, Grid, _lap_faces, _pairing, grid_arrays,
                          l2_sq, lebesgue_pow, make_field, p_dissipation)
from plrds.analysis import sample_initial_ball
from plrds.integrator import (StepperConfig, StiffnessError,
                              TrajectoryRecord, cocycle_apply, pullback_run,
                              stable_dt_bound, transform_u_to_v,
                              transform_v_to_u)
from plrds.noise import EtaConfig, _ou_values, shift, snap_steps
from plrds.problem import NonlinearitySpec, ProblemSpec


class TestIdentity:
    @pytest.mark.parametrize("case", ["additive", "multiplicative"])
    def test_zero_duration_returns_copy(self, case, grid65, cfg_fast,
                                        gaussian_u0, path_bank, spec_add,
                                        spec_mult):
        spec = spec_add if case == "additive" else spec_mult
        u0 = gaussian_u0(grid65)
        out = cocycle_apply(0.0, 0.25, path_bank(3, cfg_fast.dt), u0, spec,
                            cfg_fast)
        assert out is not u0
        assert out.values is not u0.values
        assert np.array_equal(out.values, u0.values)
        out.values[7] = 99.0
        assert u0.values[7] != 99.0


class TestComposition:
    @pytest.mark.parametrize("case", ["additive", "multiplicative"])
    @pytest.mark.parametrize("s,t", [(1.0, 1.0), (2.0, 3.0)])
    def test_two_legs_reproduce_full_run(self, case, s, t, grid65, cfg_fast,
                                         gaussian_u0, path_bank, spec_add,
                                         spec_mult):
        spec = spec_add if case == "additive" else spec_mult
        path = path_bank(11, cfg_fast.dt)
        u0 = gaussian_u0(grid65)
        tau = 0.5
        full = cocycle_apply(s + t, tau, path, u0, spec, cfg_fast)
        mid = cocycle_apply(s, tau, path, u0, spec, cfg_fast)
        end = cocycle_apply(t, tau + s, shift(path, s), mid, spec, cfg_fast)
        assert np.array_equal(full.values, end.values)


class TestPeriodicity:
    @pytest.mark.parametrize("case", ["additive", "multiplicative"])
    def test_start_one_period_later_is_identical(self, case, grid65, cfg_fast,
                                                 gaussian_u0, path_bank,
                                                 spec_add, spec_mult):
        spec = spec_add if case == "additive" else spec_mult
        path = path_bank(5, cfg_fast.dt)
        u0 = gaussian_u0(grid65)
        a = cocycle_apply(1.0, 0.0, path, u0, spec, cfg_fast)
        b = cocycle_apply(1.0, spec.period, path, u0, spec, cfg_fast)
        assert np.array_equal(a.values, b.values)


class TestReductions:
    def test_additive_alpha_eps_zero_matches_deterministic(self, grid65,
                                                           cfg_fast,
                                                           gaussian_u0,
                                                           path_bank,
                                                           spec_det):
        spec0 = ProblemSpec(noise_case="additive", alpha=0.0, epsilon=0.0)
        u0 = gaussian_u0(grid65)
        a = cocycle_apply(1.0, 0.25, path_bank(2, cfg_fast.dt), u0, spec0,
                          cfg_fast)
        d = cocycle_apply(1.0, 0.25, None, u0, spec_det, cfg_fast)
        assert np.array_equal(a.values, d.values)

    def test_multiplicative_alpha_zero_matches_deterministic(self, grid65,
                                                             cfg_fast,
                                                             gaussian_u0,
                                                             path_bank,
                                                             spec_det):
        spec0 = ProblemSpec(noise_case="multiplicative", alpha=0.0)
        u0 = gaussian_u0(grid65)
        m = cocycle_apply(1.0, 0.25, path_bank(2, cfg_fast.dt), u0, spec0,
                          cfg_fast)
        d = cocycle_apply(1.0, 0.25, None, u0, spec_det, cfg_fast)
        assert np.array_equal(m.values, d.values)

    def test_zero_noise_samples_reduce(self, grid65, cfg_fast, gaussian_u0,
                                       spec_det):
        spec0 = ProblemSpec(noise_case="additive", alpha=0.0, epsilon=0.0)
        specm = ProblemSpec(noise_case="multiplicative", alpha=0.0)
        # A path that is zero over every OU anchor window: z = eta = 0.
        zero = TabulatedPath(np.zeros(16001), cfg_fast.dt, first_index=-14000)
        u0 = gaussian_u0(grid65)
        t = 200 * cfg_fast.dt
        va = cocycle_apply(t, 0.0, zero, u0, spec0, cfg_fast)
        vm = cocycle_apply(t, 0.0, zero, u0, specm, cfg_fast)
        vd = cocycle_apply(t, 0.0, None, u0, spec_det, cfg_fast)
        assert np.array_equal(va.values, vd.values)
        assert np.array_equal(vm.values, vd.values)

    def test_zero_damping_imex_equals_explicit(self, grid65, cfg_fast,
                                               gaussian_u0, path_bank):
        # lam = alpha * eta makes the damping rate a exactly 0, where the
        # exponential weight (1 - e^{-a dt}) / a would divide by zero.
        spec = ProblemSpec(noise_case="additive", lam=1.0, alpha=0.0625,
                           eta=EtaConfig(kind="constant", mean=16.0))
        path, u0 = path_bank(4, cfg_fast.dt), gaussian_u0(grid65)
        t = 50 * cfg_fast.dt
        imex = cocycle_apply(t, 0.0, path, u0, spec, cfg_fast)
        explicit = cocycle_apply(t, 0.0, path, u0, spec,
                                 replace(cfg_fast, scheme="explicit"))
        assert np.array_equal(imex.values, explicit.values)


class TestTransforms:
    def test_round_trip_additive(self, grid65, gaussian_u0, spec_add):
        u = gaussian_u0(grid65)
        for z in (-1.7, 0.0, 2.3):
            back = transform_v_to_u(transform_u_to_v(u, z, spec_add), z,
                                    spec_add)
            assert np.allclose(back.values, u.values, rtol=0.0, atol=1e-13)

    def test_round_trip_multiplicative(self, grid65, gaussian_u0, spec_mult):
        u = gaussian_u0(grid65)
        for z in (-1.7, 0.0, 2.3):
            back = transform_v_to_u(transform_u_to_v(u, z, spec_mult), z,
                                    spec_mult)
            assert np.allclose(back.values, u.values, rtol=1e-12)

    def test_deterministic_transform_is_identity_copy(self, grid65,
                                                      gaussian_u0, spec_det):
        u = gaussian_u0(grid65)
        v = transform_u_to_v(u, 1.3, spec_det)
        assert v is not u and np.array_equal(v.values, u.values)


class TestRefinement:
    def test_deterministic_endpoint_first_order(self, grid65, gaussian_u0,
                                                spec_det):
        u0 = gaussian_u0(grid65)
        ends = {}
        for dt in (4e-3, 2e-3, 1e-3):
            cfg = StepperConfig(dt=dt)
            ends[dt] = cocycle_apply(1.0, 0.0, None, u0, spec_det, cfg).values
        g = grid_arrays(grid65)
        e1 = math.sqrt(float(np.sum(g.weights * (ends[4e-3] - ends[2e-3]) ** 2)))
        e2 = math.sqrt(float(np.sum(g.weights * (ends[2e-3] - ends[1e-3]) ** 2)))
        order = math.log2(e1 / e2)
        assert order >= 0.9, f"observed refinement order {order:.3f}"


class TestGuards:
    def test_stiffness_error_explicit_large_dt(self, grid65, gaussian_u0,
                                               spec_det):
        cfg = StepperConfig(dt=0.05, scheme="explicit", substep_limit=2)
        u0 = gaussian_u0(grid65, amp=50.0)
        with pytest.raises(StiffnessError) as exc_info:
            cocycle_apply(0.5, 0.0, None, u0, spec_det, cfg)
        report = exc_info.value.report
        for key in ("t", "dt", "halvings", "norm_before", "norm_after",
                    "suggested_dt"):
            assert key in report
        assert report["suggested_dt"] < cfg.dt
        assert "diverges" in str(exc_info.value)

    def test_stiffness_report_has_last_attempt_norm(self, grid65, gaussian_u0,
                                                    spec_det):
        cfg = StepperConfig(dt=0.05, scheme="explicit", substep_limit=2)
        u0 = gaussian_u0(grid65, amp=50.0)
        with pytest.raises(StiffnessError) as full:
            cocycle_apply(cfg.dt, 0.0, None, u0, spec_det, cfg)
        # The last attempt splits the step into four substeps.  Its first
        # substep is a one-step run at dt/4 without retries, which diverges.
        sub = StepperConfig(dt=cfg.dt / 4, scheme="explicit", substep_limit=0)
        with pytest.raises(StiffnessError) as first:
            cocycle_apply(sub.dt, 0.0, None, u0, spec_det, sub)
        assert full.value.report["norm_after"] == first.value.report["norm_after"]

    def test_stable_dt_bound_formula(self, grid65, gaussian_u0, spec_det):
        u = gaussian_u0(grid65, amp=2.0)
        dx = grid65.dx
        gx = np.diff(u.values) / dx
        peak = float(np.max(np.abs(gx) ** (spec_det.p - 2.0)))
        # nu = dt (p - 1) dim peak / dx^2 = 1/2 at the bound.
        expected = 0.5 * dx ** 2 / ((spec_det.p - 1.0) * peak)
        assert math.isclose(stable_dt_bound(u, spec_det), expected,
                            rel_tol=1e-12)

    @pytest.mark.parametrize("grid", [Grid(1, 8.0, 65), Grid(2, 8.0, 33)])
    def test_stable_dt_bound_is_the_heat_bound_at_p2(self, grid, gaussian_u0):
        # At p = 2 every face coefficient is 1: dt = dx^2 / (2 dim).
        spec = ProblemSpec(p=2.0, noise_case="deterministic")
        assert math.isclose(stable_dt_bound(gaussian_u0(grid), spec),
                            grid.dx ** 2 / (2 * grid.dim), rel_tol=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StepperConfig(dt=0.0)
        with pytest.raises(ValueError):
            StepperConfig(scheme="leapfrog")
        with pytest.raises(ValueError):
            StepperConfig(substep_limit=-1)


class TestRecord:
    def test_series_and_snapshots(self, grid65, cfg_fast, gaussian_u0,
                                  path_bank, spec_add):
        u0 = gaussian_u0(grid65)
        path = path_bank(4, cfg_fast.dt)
        nsteps = 50
        want = {0, 25, 50}
        out, rec = cocycle_apply(nsteps * cfg_fast.dt, 0.0, path, u0,
                                 spec_add, cfg_fast, snapshot_indices=want)
        assert len(rec.times) == nsteps + 1
        assert rec.times[0] == 0.0
        assert math.isclose(rec.times[-1], nsteps * cfg_fast.dt,
                            rel_tol=1e-12)
        assert set(rec.snapshots) == want
        assert len(rec.z) == nsteps + 1 and len(rec.eta) == nsteps + 1
        assert np.all(np.isfinite(rec.l2_sq))
        # endpoint state ties to the last snapshot through the v -> u map
        v_end = rec.snapshots[nsteps]
        u_end = transform_v_to_u(v_end, float(rec.z[-1]), spec_add)
        assert np.allclose(u_end.values, out.values, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("snaps", [None, (), [0], range(3)],
                             ids=["none", "empty", "one", "range"])
    def test_record_iff_snapshot_indices(self, snaps, grid65, cfg_fast,
                                         gaussian_u0, path_bank, spec_add):
        # Snapshot indices, even none, ask for a record; no argument, none.
        out = cocycle_apply(2 * cfg_fast.dt, 0.0, path_bank(4, cfg_fast.dt),
                            gaussian_u0(grid65), spec_add, cfg_fast,
                            snapshot_indices=snaps)
        if snaps is None:
            assert isinstance(out, Field)
        else:
            endpoint, rec = out
            assert isinstance(endpoint, Field)
            assert isinstance(rec, TrajectoryRecord)
            assert set(rec.snapshots) == set(snaps)

    def test_zero_duration_record(self, grid65, cfg_fast, gaussian_u0,
                                  path_bank, spec_add):
        u0 = gaussian_u0(grid65)
        out, rec = cocycle_apply(0.0, 0.0, path_bank(4, cfg_fast.dt), u0,
                                 spec_add, cfg_fast, snapshot_indices={0})
        assert len(rec.times) == 1
        assert 0 in rec.snapshots

    @pytest.mark.parametrize("case", ["additive", "multiplicative",
                                      "deterministic"])
    def test_zero_duration_record_is_row_zero(self, case, grid65, cfg_fast,
                                              path_bank, spec_add, spec_mult,
                                              spec_det):
        spec = {"additive": spec_add, "multiplicative": spec_mult,
                "deterministic": spec_det}[case]
        path = None if case == "deterministic" else path_bank(4, cfg_fast.dt)
        for u0 in sample_initial_ball(grid65, 2.0, 4):
            _, r0 = cocycle_apply(0.0, 0.25, path, u0, spec, cfg_fast,
                                  snapshot_indices={0})
            _, r5 = cocycle_apply(5 * cfg_fast.dt, 0.25, path, u0, spec,
                                  cfg_fast, snapshot_indices={0})
            for name in ("times", "l2_sq", "diss_p", "diss_q", "z", "eta"):
                assert getattr(r0, name).tobytes() == \
                    getattr(r5, name)[:1].tobytes(), name
            assert r0.snapshots[0].values.tobytes() == \
                r5.snapshots[0].values.tobytes()

    def test_additive_node_zero_dissipates_u(self, grid65, cfg_fast,
                                             path_bank, spec_add):
        # The additive model dissipates w = v + eps*h*z = u; at node 0 that
        # is the input itself, not its v round trip.  In 1D the record's
        # quadratures are the same float operations as p_dissipation and
        # lebesgue_pow, so they agree to the bit.
        for seed in range(1, 5):
            path = path_bank(seed, cfg_fast.dt)
            for u0 in sample_initial_ball(grid65, 1.0, 8):
                _, rec = cocycle_apply(0.002, 0.0, path, u0, spec_add,
                                       cfg_fast, snapshot_indices=())
                assert rec.diss_p[0] == p_dissipation(u0, spec_add.p,
                                                      spec_add.delta)
                assert rec.diss_q[0] == lebesgue_pow(u0, spec_add.q)
        # In 2D the record, p_dissipation and flux_pairing(u, u) add the two
        # directions' sums and then scale by dx twice, so they agree to the
        # bit too; scaling by dx**2 once moves the last bit on some fields.
        grid = Grid(2, 7.0, 18)
        path = path_bank(1, cfg_fast.dt)
        for seed in range(50):
            u0 = make_field(grid, np.random.default_rng(seed).standard_normal(
                grid.shape))
            _, rec = cocycle_apply(0.0, 0.0, path, u0, spec_add, cfg_fast,
                                   snapshot_indices=())
            dp = p_dissipation(u0, spec_add.p, spec_add.delta)
            assert rec.diss_p[0] == dp
            assert flux_pairing(u0, u0, spec_add.p, spec_add.delta) == dp


class TestRecordLeavesEndpoint:
    """A record only reads what the step computed: with and without one,
    cocycle_apply gives the same endpoint bits and the same StiffnessError
    report."""

    # Explicit steps that need the halving guard on these grids and
    # amplitudes, yet finish within six halvings.
    SETUPS = {1: (Grid(1, 8.0, 65), 2.0), 2: (Grid(2, 8.0, 17), 8.0)}

    @staticmethod
    def spec_of(case, spec_add, spec_mult, spec_det):
        return {"additive": spec_add, "multiplicative": spec_mult,
                "deterministic": spec_det}[case]

    @staticmethod
    def both(t, path, u0, spec, cfg):
        plain = cocycle_apply(t, 0.0, path, u0, spec, cfg)
        recorded, rec = cocycle_apply(t, 0.0, path, u0, spec, cfg,
                                      snapshot_indices=())
        assert np.all(np.isfinite(rec.diss_p)) and \
            np.all(np.isfinite(rec.diss_q))
        return plain.values, recorded.values

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("case", ["additive", "multiplicative",
                                      "deterministic"])
    def test_imex_run(self, case, dim, cfg_fast, gaussian_u0, path_bank,
                      spec_add, spec_mult, spec_det):
        spec = self.spec_of(case, spec_add, spec_mult, spec_det)
        grid = self.SETUPS[dim][0]
        path = None if case == "deterministic" else path_bank(4, cfg_fast.dt)
        plain, recorded = self.both(0.1, path, gaussian_u0(grid), spec,
                                    cfg_fast)
        assert plain.tobytes() == recorded.tobytes()

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("case", ["additive", "multiplicative",
                                      "deterministic"])
    def test_guard_retries(self, case, dim, gaussian_u0, path_bank,
                           spec_add, spec_mult, spec_det, monkeypatch):
        spec = self.spec_of(case, spec_add, spec_mult, spec_det)
        grid, amp = self.SETUPS[dim]
        cfg = StepperConfig(dt=0.04, scheme="explicit", substep_limit=6)
        path = None if case == "deterministic" else path_bank(3, cfg.dt)
        calls = []
        step = integrator._single_step

        def counted_step(*args):
            calls.append(args)
            return step(*args)
        monkeypatch.setattr(integrator, "_single_step", counted_step)
        nsteps = 10
        plain, recorded = self.both(nsteps * cfg.dt, path,
                                    gaussian_u0(grid, amp), spec, cfg)
        assert len(calls) > 2 * nsteps, "no step went through the guard"
        assert plain.tobytes() == recorded.tobytes()

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("case", ["additive", "multiplicative",
                                      "deterministic"])
    def test_stiffness_report(self, case, dim, gaussian_u0, path_bank,
                              spec_add, spec_mult, spec_det):
        spec = self.spec_of(case, spec_add, spec_mult, spec_det)
        grid, amp = self.SETUPS[dim]
        cfg = StepperConfig(dt=0.04, scheme="explicit", substep_limit=0)
        path = None if case == "deterministic" else path_bank(3, cfg.dt)
        u0 = gaussian_u0(grid, amp)
        reports = []
        for snaps in (None, ()):
            with pytest.raises(StiffnessError) as exc_info:
                cocycle_apply(10 * cfg.dt, 0.0, path, u0, spec, cfg,
                              snapshot_indices=snaps)
            reports.append(exc_info.value.report)
        assert reports[0] == reports[1]


class TestPullback:
    def test_ensembles_and_records_keys(self, grid65, cfg_fast, gaussian_u0,
                                        path_bank, spec_add):
        initials = [gaussian_u0(grid65, amp=0.5), gaussian_u0(grid65, amp=1.0)]
        res = pullback_run(0.0, [0.5, 1.0], initials,
                           path_bank(6, cfg_fast.dt), spec_add, cfg_fast,
                           snapshot_indices=[0])
        assert set(res.ensembles) == {0.5, 1.0}
        assert all(len(ens) == 2 for ens in res.ensembles.values())
        assert set(res.records) == {(0.5, 0), (0.5, 1), (1.0, 0), (1.0, 1)}
        assert res.failures == []
        tag = res.ensembles[1.0].tag
        assert tag.tau == 0.0 and tag.horizon == 1.0
        assert tag.alpha == spec_add.alpha
        # A run keeps its record only when snapshot indices are given.
        bare = pullback_run(0.0, [0.5], initials[:1],
                            path_bank(6, cfg_fast.dt), spec_add, cfg_fast)
        assert bare.records == {} and len(bare.ensembles[0.5]) == 1

    def test_each_window_is_built_once_per_horizon(self, grid65, cfg_fast,
                                                   gaussian_u0, path_bank,
                                                   spec_add):
        # Every initial state reads the same shifted window for z, and the
        # default eta reads z's.  Only the first state of each horizon
        # builds it; the other reads of 2 horizons x 2 states x (z, eta)
        # are memo hits.
        initials = [gaussian_u0(grid65, amp=0.5), gaussian_u0(grid65, amp=1.0)]
        _ou_values.cache_clear()
        res = pullback_run(0.0, [0.1, 0.2], initials,
                           path_bank(6, cfg_fast.dt), spec_add, cfg_fast)
        assert all(len(ens) == 2 for ens in res.ensembles.values())
        info = _ou_values.cache_info()
        assert (info.misses, info.hits) == (2, 6)

    def test_horizon_ordering_validated(self, grid65, cfg_fast, gaussian_u0,
                                        path_bank, spec_add):
        u0 = [gaussian_u0(grid65)]
        path = path_bank(6, cfg_fast.dt)
        with pytest.raises(ValueError):
            pullback_run(0.0, [1.0, 0.5], u0, path, spec_add, cfg_fast)
        with pytest.raises(ValueError):
            pullback_run(0.0, [-1.0], u0, path, spec_add, cfg_fast)

    def test_zero_forcing_contracts(self, grid65, cfg_fast, gaussian_u0,
                                    path_bank, zero_forcing_add):
        u0 = gaussian_u0(grid65)
        res = pullback_run(0.0, [1.0], [u0], path_bank(8, cfg_fast.dt),
                           zero_forcing_add, cfg_fast)
        end = res.ensembles[1.0].members[0]
        assert l2_sq(end) < l2_sq(u0)

    def test_failures_annotated_and_skipped(self, grid65, cfg_fast,
                                            gaussian_u0, path_bank, spec_det):
        cfg = StepperConfig(dt=cfg_fast.dt, substep_limit=0)
        initials = [gaussian_u0(grid65, amp=0.5),
                    gaussian_u0(grid65, amp=1e3)]
        res = pullback_run(0.0, [0.1], initials, None, spec_det, cfg)
        assert len(res.failures) == 1
        note = res.failures[0]
        assert note["horizon"] == 0.1 and note["initial"] == 1
        assert note["seed"] is None and note["tau"] == 0.0  # no noise path
        assert "suggested_dt" in note["report"]
        assert len(res.ensembles[0.1]) == 1


def reference_apply(t, tau, path, u_tau, spec, cfg, snapshot_indices=None,
                    hook=None):
    """cocycle_apply one step at a time: every array of a step built in the
    step, each step guarded on its own, and the record's quadratures summed
    per step.  A record, asked for as cocycle_apply's is, snapshots every
    node.  hook(t, dtt, v_new), if given,
    replaces each attempt's new state."""
    dt, grid = cfg.dt, u_tau.grid
    nsteps, tau_k = snap_steps(t, dt), snap_steps(tau, dt)
    m = snap_steps(spec.period, dt)
    ctx, boundary = integrator._context(spec, grid), boundary_mask(grid)
    co = integrator._COUPLINGS[spec.noise_case]
    z, eta = integrator._noise_arrays(co, path, spec, 0.0, nsteps * dt, dt)
    case, al, eps = spec.noise_case, spec.alpha, spec.epsilon

    def f(t, w):
        return spec.f_pointwise(t, ctx.x, ctx.y, w, ctx.gauss)

    def g(t):
        return spec.g_time(t) * ctx.gauss

    def to_v(u, z):
        return {"additive": lambda: u - (eps * z) * ctx.h,
                "multiplicative": lambda: math.exp(-al * z) * u,
                "deterministic": lambda: u}[case]()

    def to_u(v, z):
        return {"additive": lambda: v + (eps * z) * ctx.h,
                "multiplicative": lambda: math.exp(al * z) * v,
                "deterministic": lambda: v}[case]()

    def step(vv, t, dtt, z, e):
        w = to_u(vv, z) if case == "additive" else vv
        lap, faces = _lap_faces(w, grid, spec.p, spec.delta)
        a = spec.lam
        if case == "additive":
            rhs = ((lap + f(t, w)) + g(t)) + (al * eps * e * z) * ctx.h
            a = spec.lam - al * e
        elif case == "multiplicative":
            scale = math.exp(al * z)
            rhs = ((math.exp(al * (spec.p - 2.0) * z) * lap + (al * z) * vv)
                   + (1.0 / scale) * f(t, scale * vv)) + (1.0 / scale) * g(t)
        else:
            rhs = (lap + f(t, vv)) + g(t)
        if cfg.scheme == "explicit":
            out = vv + dtt * (rhs - a * vv)
        elif a == 0.0:
            out = vv + dtt * rhs
        else:
            out = math.exp(-a * dtt) * vv + (-math.expm1(-a * dtt) / a) * rhs
        out[boundary] = 0.0
        return (hook(t, dtt, out) if hook else out), w, faces

    def sq(v):
        return float((ctx.arrs.weights * v * v).sum())

    def macro(vv, t, z0, z1, e0, e1):
        cand, w, faces = step(vv, t, dt, 0.5 * (z0 + z1), 0.5 * (e0 + e1))
        sq_old, sq_new = sq(vv), sq(cand)
        if integrator._norm_ok(sq_old, sq_new):
            return cand, sq_old, sq_new, w, faces
        for halvings in range(1, cfg.substep_limit + 1):
            nsub = 2 ** halvings
            hs = dt / nsub
            cur, sq_cur = vv, sq_old
            for i in range(nsub):
                zs, es = z0, e0
                if i:
                    frac = (i + 0.5) / nsub
                    zs, es = z0 + frac * (z1 - z0), e0 + frac * (e1 - e0)
                nxt, w, faces = step(cur, t + i * hs, hs, zs, es)
                sq_new = sq(nxt)
                if not integrator._norm_ok(sq_cur, sq_new):
                    break
                cur, sq_cur = nxt, sq_new
            else:
                return cur, sq_old, sq_cur, w, faces
        raise StiffnessError({
            "t": t, "dt": dt, "halvings": cfg.substep_limit,
            "norm_before": math.sqrt(sq_old),
            "norm_after": math.sqrt(sq_new),
            "suggested_dt": stable_dt_bound(Field(grid, vv), spec)})

    series = np.empty((3, nsteps + 1))
    state = u_tau.values.copy()
    v0 = vv_new = to_v(state, z[0])
    snaps = {}
    for k in range(nsteps):
        vv = to_v(state, z[k])
        vv_new, s_old, s_new, w, faces = macro(
            vv, ((tau_k + k) % m) * dt, z[k], z[k + 1], eta[k], eta[k + 1])
        snaps[k] = vv.copy()
        series[:, k + 1] = (0.0, _pairing(faces, grid.dx),
                            lebesgue_pow(Field(grid, w), spec.q))
        series[0, k] = s_old
        state = to_u(vv_new, z[k + 1])
    if snapshot_indices is None:
        return state
    snaps[nsteps] = vv_new.copy()
    w0 = Field(grid, u_tau.values if case == "additive" else v0)
    series[0, nsteps] = s_new if nsteps else sq(v0)
    series[1:, 0] = p_dissipation(w0, spec.p, spec.delta), \
        lebesgue_pow(w0, spec.q)
    return state, series, z, eta, snaps


class TestChunkedLoop:
    """cocycle_apply steps in chunks of _BLOCK_FLOATS // nodes steps and
    builds each chunk's state-independent arrays and record quadratures at
    once; endpoints and records carry the bits of the per-step loop."""

    SPECS = {
        "additive": ProblemSpec(noise_case="additive"),
        "multiplicative": ProblemSpec(noise_case="multiplicative",
                                      alpha=0.25),
        "deterministic": ProblemSpec(noise_case="deterministic", alpha=0.0,
                                     epsilon=0.0),
    }
    CUSTOM = NonlinearitySpec(
        kind="custom",
        expression="-abspow(s, 2) + 0.5*sin(2*t)*exp(-(x*x + y*y))"
                   " + 0.1*abspow(t + 1, 0.5)")
    GRIDS = {1: Grid(1, 8.0, 65), 2: Grid(2, 4.0, 17)}

    @staticmethod
    def chunk(grid):
        return max(1, fields._BLOCK_FLOATS // math.prod(grid.shape))

    @staticmethod
    def assert_same(nsteps, tau, path, u0, spec, cfg, hook=None):
        t = nsteps * cfg.dt
        end = cocycle_apply(t, tau, path, u0, spec, cfg)
        rec_end, rec = cocycle_apply(t, tau, path, u0, spec, cfg,
                                     snapshot_indices=range(nsteps + 1))
        ref_end, series, z, eta, snaps = reference_apply(
            t, tau, path, u0, spec, cfg, snapshot_indices=(), hook=hook)
        assert end.values.tobytes() == ref_end.tobytes()
        assert rec_end.values.tobytes() == ref_end.tobytes()
        for name, ref in zip(("l2_sq", "diss_p", "diss_q"), series):
            assert getattr(rec, name).tobytes() == ref.tobytes(), name
        assert rec.z.tobytes() == z.tobytes()
        assert rec.eta.tobytes() == eta.tobytes()
        assert sorted(rec.snapshots) == sorted(snaps)
        for k, v in snaps.items():
            assert rec.snapshots[k].values.tobytes() == v.tobytes(), k

    @pytest.mark.parametrize("custom", [False, True], ids=["default-f",
                                                           "custom-f"])
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("case", sorted(SPECS))
    def test_bitwise_against_per_step_loop(self, case, dim, custom,
                                           gaussian_u0, path_bank):
        spec = self.SPECS[case]
        if custom:
            spec = replace(spec, nonlinearity=self.CUSTOM)
        grid, cfg = self.GRIDS[dim], StepperConfig(dt=2e-3)
        path = None if case == "deterministic" else path_bank(5, cfg.dt)
        k = self.chunk(grid)
        assert k > 1
        u0 = gaussian_u0(grid, 0.9)
        lengths = (k - 1, k, k + 1, 2 * k + 1) if not custom else (k + 1,)
        # tau < 0, and tau a whole period after 0.3
        for tau in (0.3, -0.7, 0.3 + spec.period):
            for nsteps in lengths:
                self.assert_same(nsteps, tau, path, u0, spec, cfg)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("case", sorted(SPECS))
    def test_guard_retry_inside_a_chunk(self, case, dim, gaussian_u0,
                                        path_bank, monkeypatch):
        # Explicit steps that need the halving guard, yet finish within six
        # halvings (the setups of TestRecordLeavesEndpoint).
        grid, amp = TestRecordLeavesEndpoint.SETUPS[dim]
        cfg = StepperConfig(dt=0.04, scheme="explicit", substep_limit=6)
        spec = self.SPECS[case]
        path = None if case == "deterministic" else path_bank(3, cfg.dt)
        retried = []
        step = integrator._single_step

        def watched(co, vv, t_eval, dtt, *rest):
            if dtt < cfg.dt:
                retried.append(round(t_eval / cfg.dt))
            return step(co, vv, t_eval, dtt, *rest)
        monkeypatch.setattr(integrator, "_single_step", watched)
        self.assert_same(10, 0.0, path, gaussian_u0(grid, amp), spec, cfg)
        assert any(0 < k < self.chunk(grid) for k in retried), retried

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("case", sorted(SPECS))
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_speculative_attempts_do_not_warn(self, case, dim, gaussian_u0,
                                              path_bank, monkeypatch):
        # The guard-retry setups: attempts past a rejected step overflow on
        # a discarded state, and print nothing.
        grid, amp = TestRecordLeavesEndpoint.SETUPS[dim]
        cfg = StepperConfig(dt=0.04, scheme="explicit", substep_limit=6)
        path = None if case == "deterministic" else path_bank(3, cfg.dt)
        attempts = []
        step = integrator._single_step

        def counted(co, vv, t_eval, dtt, *rest):
            attempts.append(dtt == cfg.dt)
            return step(co, vv, t_eval, dtt, *rest)
        monkeypatch.setattr(integrator, "_single_step", counted)
        for snaps in (None, ()):
            cocycle_apply(10 * cfg.dt, 0.0, path, gaussian_u0(grid, amp),
                          self.SPECS[case], cfg, snapshot_indices=snaps)
        assert sum(attempts) > 2 * 10, "no attempt ran past a rejection"

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("case", sorted(SPECS))
    def test_two_stacked_norms_per_clean_chunk(self, case, dim, gaussian_u0,
                                               path_bank, monkeypatch):
        # No step is rejected, so each chunk sums its states and its first
        # attempts with one stacked call each, and no step sums on its own.
        grid, cfg = self.GRIDS[dim], StepperConfig(dt=2e-3)
        k = self.chunk(grid)
        path = None if case == "deterministic" else path_bank(5, cfg.dt)
        rows = []
        sq_norm = integrator._sq_norm

        def counted(values, weights):
            rows.append(values.shape[:-dim])
            return sq_norm(values, weights)
        monkeypatch.setattr(integrator, "_sq_norm", counted)
        cocycle_apply((2 * k + 1) * cfg.dt, 0.3, path, gaussian_u0(grid, 0.9),
                      self.SPECS[case], cfg)
        assert rows == [(k,)] * 4 + [(1,)] * 2

    @staticmethod
    def blow_up(dt, first=(), every=()):
        """A hook on each attempt's new state: the full-dt first attempt of
        each step index in first, and every attempt of each in every, comes
        back 1e150 times too large, which the guard rejects."""
        def hook(t_eval, dtt, out):
            k = int(t_eval / dt + 1e-6)
            return out * 1e150 if k in every or (
                k in first and dtt == dt) else out
        return hook

    @staticmethod
    def hooked(monkeypatch, hook):
        step = integrator._single_step

        def wrapped(co, vv, t_eval, dtt, *rest):
            out, warg, faces = step(co, vv, t_eval, dtt, *rest)
            return hook(t_eval, dtt, out), warg, faces
        monkeypatch.setattr(integrator, "_single_step", wrapped)

    # Rejected steps by index, for chunks of k steps from step 0: a chunk's
    # first, a middle and its last step, two in one chunk, one at the first
    # step of the chunk that starts after a rejection, and the run's last.
    REJECTED = {"first": lambda k: {0}, "middle": lambda k: {k // 2},
                "last": lambda k: {k - 1}, "two": lambda k: {1, k // 2},
                "adjacent": lambda k: {k // 2, k // 2 + 1},
                "run-end": lambda k: {k + 1}}

    @pytest.mark.parametrize("where", sorted(REJECTED))
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("case", sorted(SPECS))
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rollback_to_a_rejected_step(self, case, dim, where, gaussian_u0,
                                         path_bank, monkeypatch):
        grid, cfg = self.GRIDS[dim], StepperConfig(dt=2e-3)
        k = self.chunk(grid)
        path = None if case == "deterministic" else path_bank(5, cfg.dt)
        hook = self.blow_up(cfg.dt, first=self.REJECTED[where](k))
        self.hooked(monkeypatch, hook)
        self.assert_same(k + 2, 0.0, path, gaussian_u0(grid, 0.9),
                         self.SPECS[case], cfg, hook)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("case", sorted(SPECS))
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_stiffness_error_mid_chunk(self, case, dim, gaussian_u0,
                                       path_bank, monkeypatch):
        grid, cfg = self.GRIDS[dim], StepperConfig(dt=2e-3, substep_limit=2)
        k = self.chunk(grid)
        path = None if case == "deterministic" else path_bank(5, cfg.dt)
        hook = self.blow_up(cfg.dt, first={3}, every={k // 2})
        self.hooked(monkeypatch, hook)
        u0 = gaussian_u0(grid, 0.9)
        reports = []
        for run, snaps in ((cocycle_apply, None), (cocycle_apply, ()),
                           (partial(reference_apply, hook=hook), ())):
            with pytest.raises(StiffnessError) as exc_info:
                run((k + 2) * cfg.dt, 0.0, path, u0, self.SPECS[case], cfg,
                    snapshot_indices=snaps)
            reports.append(exc_info.value.report)
        assert reports[0] == reports[1] == reports[2]
        assert reports[0]["t"] == (k // 2) * cfg.dt

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("case", sorted(SPECS))
    def test_stiffness_error(self, case, dim, gaussian_u0, path_bank):
        grid, amp = TestRecordLeavesEndpoint.SETUPS[dim]
        cfg = StepperConfig(dt=0.04, scheme="explicit", substep_limit=1)
        spec = self.SPECS[case]
        path = None if case == "deterministic" else path_bank(3, cfg.dt)
        u0 = gaussian_u0(grid, amp)
        reports = []
        for run in (cocycle_apply, reference_apply):
            with pytest.raises(StiffnessError) as exc_info:
                run(10 * cfg.dt, 0.0, path, u0, spec, cfg,
                    snapshot_indices=())
            reports.append(exc_info.value.report)
        assert reports[0] == reports[1]
        assert reports[0]["t"] > 0.0
