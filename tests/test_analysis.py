"""Diagnostics: absorbing radii, energy audit, tail masses, attractor sets."""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from plrds import analysis, fields
from plrds.analysis import (absorbing_bound, absorbing_check,
                            absorbing_radius, alpha_solution_distances,
                            energy_audit,
                            estimate_attractor, sample_initial_ball,
                            tail_check, usc_sweep)
from plrds.fields import (Field, Grid, flux_pairing, grid_arrays, l2_sq,
                          make_field, p_dissipation)
from plrds.integrator import (StepperConfig, _COUPLINGS, _context,
                              cocycle_apply)
from plrds.noise import EtaConfig, TabulatedPath, make_path, shift
from plrds.problem import NonlinearitySpec, ProblemSpec

DT = 2e-3
GRID = Grid(1, 8.0, 65)
CFG = StepperConfig(dt=DT)


def zero_path(back: float = 72.0, forward: float = 8.0,
              dt: float = DT) -> TabulatedPath:
    """All-zero tabulated path covering [-back, forward] plus block padding."""
    n0 = int(round(back / dt))
    n1 = int(round(forward / dt))
    return TabulatedPath(np.zeros(n0 + n1 + 1), dt, first_index=-n0)


def paths(*seeds) -> list:
    """Fresh noise paths for the sweeps, in the given seed order."""
    return [make_path(s, DT) for s in seeds]


def ball(radius: float, count: int) -> list:
    """count initial states on GRID with norms inside the radius."""
    return sample_initial_ball(GRID, radius, count, 1234)


def no_runs(*args, **kwargs):
    raise AssertionError("work ran before the arguments were checked")


def quiet_additive(g_amp: float = 0.0) -> ProblemSpec:
    return ProblemSpec(noise_case="additive", g_amp=g_amp,
                       nonlinearity=NonlinearitySpec(phi_amp=0.0),
                       eta=EtaConfig(kind="constant", mean=0.0))


class TestSampleInitialBall:
    def test_deterministic_and_within_radius(self, grid65):
        a = sample_initial_ball(grid65, 2.0, 5, seed=9)
        b = sample_initial_ball(grid65, 2.0, 5, seed=9)
        c = sample_initial_ball(grid65, 2.0, 5, seed=10)
        assert len(a) == 5
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.values, fb.values)
        assert any(not np.array_equal(fa.values, fc.values)
                   for fa, fc in zip(a, c))
        for f in a:
            assert math.sqrt(l2_sq(f)) <= 2.0 + 1e-12


class TestAbsorbingRadii:
    def test_additive_quiet_model_radius_is_c(self):
        rep = absorbing_radius(0.0, zero_path(), quiet_additive(), grid=GRID)
        assert rep.radius == 4.0
        assert rep.bound == 8.0
        assert rep.shift_sq == 0.0
        assert rep.converged and rep.growth_finite
        assert rep.parts["noise"] == 0.0
        assert rep.parts["g"] == 0.0
        assert rep.parts["psi"] == 0.0

    def test_g_part_scales_quadratically(self):
        path = zero_path()
        r1 = absorbing_radius(0.0, path, quiet_additive(0.5), grid=GRID)
        r2 = absorbing_radius(0.0, path, quiet_additive(1.0), grid=GRID)
        assert math.isclose(r2.parts["g"], 4.0 * r1.parts["g"],
                            rel_tol=1e-12)
        assert r1.parts["g"] > 0.0

    def test_truncation_tolerance_insensitive(self):
        spec = ProblemSpec(noise_case="additive")
        path = make_path(0, DT)
        a = absorbing_radius(0.0, path, spec, quad_tol=1e-10, grid=GRID)
        b = absorbing_radius(0.0, path, spec, quad_tol=1e-12, grid=GRID)
        assert abs(a.radius - b.radius) <= 1e-7 * b.radius
        assert b.truncation >= a.truncation

    def test_rejects_what_the_parser_rejects(self):
        spec = ProblemSpec(noise_case="additive")
        with pytest.raises(ValueError, match=re.escape(
                "quad_tol must be in (0, 1)")):
            absorbing_radius(0.0, zero_path(), spec, quad_tol=2.0, grid=GRID)
        with pytest.raises(ValueError, match="c must be > 0"):
            absorbing_radius(0.0, zero_path(), spec, grid=GRID, c=-4.0)

    @pytest.mark.parametrize("case, keys", [
        ("additive", ["constant", "noise", "g", "psi"]),
        ("multiplicative", ["constant", "g", "psi"]),
        ("deterministic", ["constant", "g", "psi"])])
    def test_parts_follow_the_noise_case(self, case, keys):
        spec = ProblemSpec(noise_case=case)
        path = None if case == "deterministic" else make_path(2, DT)
        rep = absorbing_radius(0.0, path, spec, grid=GRID)
        assert list(rep.parts) == keys
        assert rep.radius == sum(rep.parts.values())
        assert (rep.shift_sq > 0.0) == (case == "additive")

    def test_noise_free_window_has_no_floor(self):
        # The noise-free window is the bare span at step 1e-3, even when
        # the span is shorter than the four time units noisy windows keep.
        spec = ProblemSpec(noise_case="deterministic", lam=8.0)
        rep = absorbing_radius(0.0, None, spec, grid=GRID)
        span = math.log(1e12) / (1.25 * 8.0)
        assert rep.truncation == math.ceil(span / 1e-3) * 1e-3
        assert rep.truncation < 4.0

    def test_multiplicative_quiet_model(self):
        spec = ProblemSpec(noise_case="multiplicative", alpha=0.1, g_amp=0.0,
                           nonlinearity=NonlinearitySpec(phi_amp=0.0))
        rep = absorbing_radius(0.0, zero_path(), spec, grid=GRID)
        assert rep.radius == 4.0
        assert rep.bound == 4.0  # exp(2 alpha z(0)) = 1 on the zero path

    def test_multiplicative_small_alpha_approaches_noise_free(self):
        spec = ProblemSpec(noise_case="multiplicative", alpha=1e-7)
        path = make_path(0, DT)
        rep = absorbing_radius(0.0, path, spec, grid=GRID)
        det = absorbing_radius(0.0, None, replace(
            spec, alpha=0.0, noise_case="deterministic"), grid=GRID)
        assert abs(rep.radius - det.radius) <= 1e-6 * det.radius

    def test_runaway_weight_flagged_not_converged(self):
        spec = ProblemSpec(noise_case="additive",
                           eta=EtaConfig(kind="constant", mean=50.0))
        with pytest.warns(UserWarning, match="admissible threshold"):
            rep = absorbing_radius(0.0, make_path(1, DT), spec, grid=GRID)
        assert not rep.converged

    def test_deterministic_radius(self):
        rep = absorbing_radius(0.0, None,
                               ProblemSpec(noise_case="deterministic"),
                               grid=GRID)
        assert rep.bound == rep.radius
        assert rep.converged and rep.growth_finite
        assert rep.radius > 4.0  # forcing adds on top of the constant part

    def test_growth_window_follows_tau(self):
        # The truncation point moves with tau, so the periodic default
        # forcing stays summable however far back tau lies.
        rep = absorbing_radius(-20.0, None,
                               ProblemSpec(noise_case="deterministic"),
                               grid=GRID)
        assert rep.growth_finite

    def test_bound_dispatch(self):
        path = zero_path()
        for spec in (quiet_additive(),
                     ProblemSpec(noise_case="multiplicative", alpha=0.1),
                     ProblemSpec(noise_case="deterministic", alpha=0.0)):
            assert absorbing_bound(0.0, path, spec, grid=GRID) == \
                absorbing_radius(0.0, path, spec, grid=GRID).bound


class TestAbsorbingCheck:
    def test_smoke_rows_and_entry(self):
        spec = ProblemSpec(noise_case="additive")
        rep = absorbing_check(0.0, spec, paths(0, 1), ball(1.0, 1),
                              horizons=(1.0, 2.0), cfg=CFG)
        assert len(rep.rows) == 4  # seeds x horizons
        assert all(r[3] > 0.0 for r in rep.rows)
        assert rep.entry_time in (1.0, 2.0, None)
        assert len(rep.per_path) == 2
        assert rep.failures == []
        assert rep.radius_sq == max(r[3] for r in rep.rows)

    def test_larger_ball_enters_no_earlier(self):
        spec = ProblemSpec(noise_case="additive")
        small = absorbing_check(0.0, spec, paths(0, 1), ball(1.0, 1),
                                horizons=(1.0, 2.0, 4.0), cfg=CFG)
        big = absorbing_check(0.0, spec, paths(0, 1), ball(10.0, 1),
                              horizons=(1.0, 2.0, 4.0), cfg=CFG)
        inf = float("inf")
        t_small = small.entry_time if small.entry_time is not None else inf
        t_big = big.entry_time if big.entry_time is not None else inf
        assert t_small <= t_big

    def test_tabulated_paths_across_workers(self):
        # A TabulatedPath has no seed (rows carry None) and pickles to the
        # pool workers as it stands.
        grid, cfg = Grid(1, 8.0, 33), StepperConfig(dt=0.01)
        spec = ProblemSpec(noise_case="additive")
        tabulated = [zero_path(dt=0.01), zero_path(dt=0.01)]
        initials = sample_initial_ball(grid, 1.0, 1, 1234)
        serial, pooled = (absorbing_check(0.0, spec, tabulated, initials,
                                          horizons=(0.5, 1.0), cfg=cfg,
                                          workers=w) for w in (1, 2))
        assert [r[0] for r in serial.rows] == [None] * 4
        assert serial.rows == pooled.rows
        assert serial.failures == pooled.failures == []

    def test_rejects_empty_inputs(self):
        spec = ProblemSpec(noise_case="additive")
        with pytest.raises(ValueError, match="at least one"):
            absorbing_check(0.0, spec, [], ball(1.0, 1), horizons=(0.1,),
                            cfg=CFG)
        with pytest.raises(ValueError, match="at least one"):
            absorbing_check(0.0, spec, paths(0), [], horizons=(0.1,), cfg=CFG)
        with pytest.raises(ValueError, match="at least one"):
            absorbing_check(0.0, spec, paths(0), ball(1.0, 1), horizons=(),
                            cfg=CFG)

    def test_rejects_descending_horizons_before_running(self, monkeypatch):
        # The parser and pullback_run reject them; the check must not sort.
        monkeypatch.setattr(analysis, "_run_pool", no_runs)
        with pytest.raises(ValueError, match="horizons must be ascending"):
            absorbing_check(0.0, ProblemSpec(), paths(0), ball(1.0, 1),
                            horizons=(1.0, 0.5), cfg=CFG)


class TestEnergyAudit:
    def test_zero_trajectory_residual_exactly_zero(self, grid65):
        from plrds.fields import zero_field
        spec = quiet_additive()
        u0 = zero_field(grid65)
        _, rec = cocycle_apply(0.2, 0.0, zero_path(), u0, spec, CFG,
                               snapshot_indices=range(0, 101),
                               with_record=True)
        mx, series = energy_audit(rec, spec)
        assert mx == 0.0
        assert np.all(series["residuals"] == 0.0)

    def test_needs_consecutive_triples(self, grid65, gaussian_u0, path_bank):
        spec = ProblemSpec(noise_case="additive")
        u0 = gaussian_u0(grid65)
        path = path_bank(2, DT)
        _, rec = cocycle_apply(0.1, 0.0, path, u0, spec, CFG,
                               snapshot_indices={0, 50},
                               with_record=True)
        with pytest.raises(ValueError):
            energy_audit(rec, spec)
        _, rec2 = cocycle_apply(0.1, 0.0, path, u0, spec, CFG,
                                snapshot_indices={0, 20, 40},
                                with_record=True)
        with pytest.raises(ValueError, match="consecutive"):
            energy_audit(rec2, spec)

    def test_residual_shrinks_under_refinement(self, grid65, gaussian_u0):
        # pooled over two paths, a 4x dt refinement must cut the max
        # residual by clearly more than the sqrt(dt) factor 2 of a rough
        # (midpoint-inconsistent) quadrature; first order gives ~4.
        spec = ProblemSpec(noise_case="additive")
        u0 = gaussian_u0(grid65)
        pooled = {}
        for dt in (2e-3, 5e-4):
            cfg = StepperConfig(dt=dt)
            k0, k1 = round(0.5 / dt), round(1.0 / dt)
            worst = 0.0
            for seed in (0, 3):
                _, rec = cocycle_apply(1.0, 0.0, make_path(seed, dt), u0,
                                       spec, cfg,
                                       snapshot_indices=range(k0, k1 + 1),
                                       with_record=True)
                mx, _ = energy_audit(rec, spec)
                worst = max(worst, mx)
            pooled[dt] = worst
        ratio = pooled[2e-3] / pooled[5e-4]
        assert 2.2 < ratio < 8.0, f"4x refinement ratio {ratio:.3f}"

    def test_multiplicative_residual_first_order(self):
        # One path read at three steps isolates dt: each halving must cut
        # the residual of the v-identity by criterion 4's factor 1.5 to 3.
        grid = Grid(1, 8.0, 129)
        spec = ProblemSpec(noise_case="multiplicative", alpha=0.25)
        u0 = make_field(grid, 0.8 * np.exp(-grid_arrays(grid).radial_sq))
        for seed in (0, 1, 2):
            path = make_path(seed, 5e-4)
            worst = []
            for dt in (2e-3, 1e-3, 5e-4):
                k0, k1 = round(0.5 / dt), round(2.0 / dt)
                _, rec = cocycle_apply(2.0, 0.0, path, u0, spec,
                                       StepperConfig(dt=dt),
                                       snapshot_indices=range(k0 - 1, k1 + 1),
                                       with_record=True)
                worst.append(energy_audit(rec, spec)[0])
            ratios = [a / b for a, b in zip(worst, worst[1:])]
            assert all(1.5 <= r <= 3.0 for r in ratios), (seed, ratios)

    def test_deterministic_residual_small(self, grid65, gaussian_u0,
                                          spec_det):
        u0 = gaussian_u0(grid65)
        _, rec = cocycle_apply(0.5, 0.0, None, u0, spec_det, CFG,
                               snapshot_indices=range(0, 251),
                               with_record=True)
        mx, _ = energy_audit(rec, spec_det)
        assert mx < 0.02


def reference_audit(record, spec):
    """energy_audit written one node at a time, each grid quadrature by its
    public function on that node's fields alone."""
    snaps = record.snapshots
    ks = sorted(snaps)
    interior = [k for k in ks if k - 1 in snaps and k + 1 in snaps]
    grid = snaps[ks[0]].grid
    ctx = _context(spec, grid)
    co = _COUPLINGS[spec.noise_case]
    wts = grid_arrays(grid).weights
    dt, z, eta, energies = record.dt, record.z, record.eta, record.l2_sq
    hfield = Field(grid, ctx.h)
    residuals = np.empty(len(interior))
    times = np.empty(len(interior))
    for i, k in enumerate(interior):
        t = float(record.times[k])
        v, g = snaps[k], spec.g_time(t) * ctx.gauss
        dE = (energies[k + 1] - energies[k - 1]) / (2.0 * dt)
        zk = float(z[k - 1] + 2.0 * z[k] + z[k + 1]) / 4.0
        ek = float(eta[k - 1] + 2.0 * eta[k] + eta[k + 1]) / 4.0
        w = Field(grid, co.w_of(v.values, zk, ctx))
        if spec.noise_case == "multiplicative":
            lhs = (dE + 2.0 * (spec.lam - spec.alpha * zk) * energies[k]
                   + 2.0 * math.exp(spec.alpha * (spec.p - 2.0) * zk)
                   * p_dissipation(v, spec.p, spec.delta))
            u = math.exp(spec.alpha * zk) * v.values
            rhs = (2.0 * math.exp(-spec.alpha * zk)
                   * float(np.sum(wts * ctx.f_of(t, u) * v.values))
                   + 2.0 * math.exp(-spec.alpha * zk)
                   * float(np.sum(wts * g * v.values)))
            residuals[i] = lhs - rhs
        else:
            lhs = (dE + 2.0 * (spec.lam - spec.alpha * ek) * energies[k]
                   + 2.0 * p_dissipation(w, spec.p, spec.delta))
            rhs = (2.0 * spec.epsilon * zk
                   * flux_pairing(w, hfield, spec.p, spec.delta)
                   + 2.0 * float(np.sum(wts * ctx.f_of(t, w.values)
                                        * v.values))
                   + 2.0 * float(np.sum(wts * g * v.values))
                   + 2.0 * spec.alpha * spec.epsilon * ek * zk
                   * float(np.sum(wts * ctx.h * v.values)))
            residuals[i] = lhs - rhs
        times[i] = t
    return float(np.max(np.abs(residuals))), {
        "nodes": interior, "times": times, "residuals": residuals}


class TestAuditOracle:
    """energy_audit works on blocks of stacked snapshots; every series it
    returns must carry the bits of reference_audit."""

    SPECS = {
        "additive": ProblemSpec(noise_case="additive"),
        "multiplicative": ProblemSpec(noise_case="multiplicative",
                                      alpha=0.25),
        "deterministic": ProblemSpec(noise_case="deterministic", alpha=0.0,
                                     epsilon=0.0),
    }
    # A power of t: t**r of a float and of an array differ in the last bit.
    CUSTOM = NonlinearitySpec(
        kind="custom",
        expression="-abspow(s, 2) + 0.5*sin(2*t)*exp(-(x*x + y*y))"
                   " + 0.1*abspow(t + 1, 0.5)")

    @staticmethod
    def record(spec, grid, tau, nsteps):
        cfg = StepperConfig(dt=DT)
        path = None if spec.noise_case == "deterministic" \
            else make_path(5, DT)
        u0 = make_field(grid, 0.9 * np.exp(-0.5 * grid_arrays(grid).radial_sq))
        return cocycle_apply(nsteps * DT, tau, path, u0, spec, cfg,
                             snapshot_indices=range(nsteps + 1),
                             with_record=True)[1]

    @staticmethod
    def subsets(rec, rows):
        """Snapshot sets: every node, gaps, a late start, and runs of
        rows - 1, rows and rows + 1 interior nodes."""
        snaps = rec.snapshots
        yield snaps
        yield {k: f for k, f in snaps.items() if k not in (5, 6, rows + 3)}
        yield {k: f for k, f in snaps.items() if k >= 4}
        for length in (rows - 1, rows, rows + 1):
            yield {k: f for k, f in snaps.items()
                   if 2 <= k <= 3 + length}

    def assert_same(self, rec, spec):
        got_max, got = energy_audit(rec, spec)
        ref_max, ref = reference_audit(rec, spec)
        assert got["nodes"] == ref["nodes"]
        assert got["times"].tobytes() == ref["times"].tobytes()
        assert got["residuals"].tobytes() == ref["residuals"].tobytes()
        assert repr(got_max) == repr(ref_max)

    @pytest.mark.parametrize("tau", [0.0, 0.3])
    @pytest.mark.parametrize("grid", [Grid(1, 8.0, 65), Grid(2, 4.0, 17)],
                             ids=["1d", "2d"])
    @pytest.mark.parametrize("case", sorted(SPECS))
    def test_bitwise_against_reference(self, case, grid, tau):
        rows = fields._BLOCK_FLOATS // grid.n ** grid.dim
        spec = self.SPECS[case]
        rec = self.record(spec, grid, tau, 2 * rows + 6)
        for snaps in self.subsets(rec, rows):
            self.assert_same(replace(rec, snapshots=snaps), spec)

    @pytest.mark.parametrize("grid", [Grid(1, 8.0, 65), Grid(2, 4.0, 17)],
                             ids=["1d", "2d"])
    @pytest.mark.parametrize("case", sorted(SPECS))
    def test_custom_reaction(self, case, grid):
        spec = replace(self.SPECS[case], nonlinearity=self.CUSTOM)
        rows = fields._BLOCK_FLOATS // grid.n ** grid.dim
        self.assert_same(self.record(spec, grid, 0.3, rows + 3), spec)


class TestTailCheck:
    def test_smoke_shapes_and_monotonicity(self):
        spec = ProblemSpec(noise_case="additive")
        rep = tail_check(0.0, spec, paths(0, 1), ball(1.0, 1)[0],
                         horizon=2.0, k_list=(2.0, 3.0), cfg=CFG, n_sigma=3)
        assert len(rep.rows) == 2 * 2 * 3
        assert rep.monotone_in_k
        assert set(rep.max_per_k) == {2.0, 3.0}
        assert len(rep.sigmas) == 3
        assert rep.max_per_k[3.0] <= rep.max_per_k[2.0] + 1e-15

    def test_validation(self):
        spec = ProblemSpec(noise_case="additive")
        u0 = ball(1.0, 1)[0]
        with pytest.raises(ValueError, match="horizon"):
            tail_check(0.0, spec, paths(0), u0, horizon=0.5, cfg=CFG)
        with pytest.raises(ValueError, match="ascending"):
            tail_check(0.0, spec, paths(0), u0, horizon=2.0,
                       k_list=(3.0, 2.0), cfg=CFG)
        with pytest.raises(ValueError, match="half_width"):
            tail_check(0.0, spec, paths(0), u0, horizon=2.0, k_list=(9.0,),
                       cfg=CFG)
        with pytest.raises(ValueError, match="at least one k"):
            tail_check(0.0, spec, paths(0), u0, horizon=2.0, k_list=(),
                       cfg=CFG)
        with pytest.raises(ValueError, match="> 0"):
            tail_check(0.0, spec, paths(0), u0, horizon=2.0,
                       k_list=(0.0, 2.0), cfg=CFG)
        with pytest.raises(ValueError, match="at least one path"):
            tail_check(0.0, spec, [], u0, horizon=1.0, cfg=CFG)
        with pytest.raises(ValueError, match="n_sigma must be ≥ 2"):
            tail_check(0.0, spec, paths(0), u0, horizon=1.0, cfg=CFG,
                       n_sigma=0)

    def test_warns_when_cutoff_leaves_domain(self):
        spec = ProblemSpec(noise_case="additive")
        with pytest.warns(UserWarning, match="plateau"):
            tail_check(0.0, spec, paths(0), ball(1.0, 1)[0], horizon=1.0,
                       k_list=(6.0,), cfg=CFG, n_sigma=2)


class TestEstimateAttractor:
    def test_contracting_model_dedupes_to_one_member(self):
        spec = ProblemSpec(noise_case="deterministic", alpha=0.0,
                           epsilon=0.0, g_amp=0.0,
                           nonlinearity=NonlinearitySpec(phi_amp=0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ens = estimate_attractor(0.0, spec, None, horizon=12.0,
                                     n_initials=3, grid=GRID, cfg=CFG)
        assert len(ens) == 1
        assert math.sqrt(l2_sq(ens.members[0])) < 1e-4

    def test_tag_and_cluster_tol(self):
        spec = ProblemSpec(noise_case="additive")
        path = make_path(5, DT)
        ens = estimate_attractor(0.0, spec, path, horizon=2.0, n_initials=3,
                                 grid=GRID, cfg=CFG, cluster_tol=1e9,
                                 check_contraction=False)
        assert len(ens) == 1  # everything merges under a huge tolerance
        assert ens.tag.seed == 5
        assert ens.tag.alpha == spec.alpha
        assert ens.tag.horizon == 2.0
        assert ens.tag.cluster_tol == 1e9
        fine = estimate_attractor(0.0, spec, path, horizon=2.0, n_initials=3,
                                  grid=GRID, cfg=CFG, cluster_tol=1e-15,
                                  check_contraction=False)
        assert 1 <= len(fine) <= 3
        default = estimate_attractor(0.0, spec, path, horizon=0.2,
                                     n_initials=1, grid=GRID, cfg=CFG,
                                     check_contraction=False)
        assert default.tag.cluster_tol == 1e-4 * default.tag.radius
        with pytest.raises(ValueError, match="cluster_tol must be ≥ 0"):
            estimate_attractor(0.0, spec, path, horizon=2.0, grid=GRID,
                               cfg=CFG, cluster_tol=-1.0)
        with pytest.raises(ValueError, match="horizon must be > 0"):
            estimate_attractor(0.0, spec, path, horizon=0.0, grid=GRID,
                               cfg=CFG)

    def test_warns_when_the_spread_grows(self):
        # f = 2s outgrows the damping lam = 1, so endpoints drift apart.
        spec = ProblemSpec(noise_case="deterministic", alpha=0.0, epsilon=0.0,
                           nonlinearity=NonlinearitySpec(kind="custom",
                                                         expression="2*s"))
        with pytest.warns(UserWarning, match=r"endpoint spread grew from "
                          r"2\.89 at horizon 0\.5 to 4\.65 at 1\.0"):
            estimate_attractor(0.0, spec, None, horizon=1.0, n_initials=3,
                               grid=Grid(1, 8.0, 33),
                               cfg=StepperConfig(dt=0.01))

    def test_rejects_no_initials_before_the_quadrature(self, monkeypatch):
        monkeypatch.setattr(analysis, "absorbing_bound", no_runs)
        with pytest.raises(ValueError, match="n_initials must be ≥ 1"):
            estimate_attractor(0.0, ProblemSpec(noise_case="additive"),
                               make_path(5, DT), horizon=1.0, n_initials=0,
                               grid=GRID, cfg=CFG)

    def test_tag_records_absorbing_radius(self):
        spec = ProblemSpec(noise_case="additive")
        path = make_path(5, DT)
        ens = estimate_attractor(0.0, spec, path, horizon=0.2, n_initials=1,
                                 grid=GRID, cfg=CFG, check_contraction=False)
        bound = absorbing_bound(0.0, path, spec, grid=GRID)
        assert ens.tag.radius == math.sqrt(bound)


class TestUscSweep:
    def test_smoke_shapes_and_zero_alpha(self):
        spec = ProblemSpec(noise_case="multiplicative", alpha=0.1)
        rep = usc_sweep(0.0, spec, paths(0, 1), alphas=(0.1, 0.0),
                        horizon=2.0, n_initials=1, grid=GRID, cfg=CFG)
        assert rep.distances.shape == (2, 2)
        assert len(rep.medians) == 2
        # alpha = 0 reruns the reference deterministic model: distance 0
        assert np.all(rep.distances[1] == 0.0)
        assert rep.medians[1] == 0.0
        assert np.all(rep.distances >= 0.0)

    def test_repeat_run_bitwise(self):
        spec = ProblemSpec(noise_case="multiplicative", alpha=0.1)
        a = usc_sweep(0.0, spec, paths(0, 1), alphas=(0.1,), horizon=1.0,
                      n_initials=1, grid=GRID, cfg=CFG)
        b = usc_sweep(0.0, spec, paths(0, 1), alphas=(0.1,), horizon=1.0,
                      n_initials=1, grid=GRID, cfg=CFG)
        assert np.array_equal(a.distances, b.distances)

    def test_workers_do_not_change_results(self):
        spec = ProblemSpec(noise_case="multiplicative", alpha=0.1)
        serial = usc_sweep(0.0, spec, paths(0, 1), alphas=(0.1,),
                           horizon=1.0, n_initials=1, grid=GRID, cfg=CFG,
                           workers=1)
        pooled = usc_sweep(0.0, spec, paths(0, 1), alphas=(0.1,),
                           horizon=1.0, n_initials=1, grid=GRID, cfg=CFG,
                           workers=2)
        assert np.array_equal(serial.distances, pooled.distances)

    def test_validation(self):
        spec = ProblemSpec(noise_case="multiplicative", alpha=0.1)
        with pytest.raises(ValueError, match="decreasing"):
            usc_sweep(0.0, spec, paths(0), alphas=(0.1, 0.2), horizon=1.0,
                      grid=GRID, cfg=CFG)
        with pytest.raises(ValueError, match="nonnegative"):
            usc_sweep(0.0, spec, paths(0), alphas=(0.1, -0.05), horizon=1.0,
                      grid=GRID, cfg=CFG)
        with pytest.raises(ValueError, match="at least one path"):
            usc_sweep(0.0, spec, [], alphas=(0.1,), horizon=0.5,
                      n_initials=1, grid=GRID, cfg=CFG)
        with pytest.raises(ValueError, match="horizon must be > 0"):
            usc_sweep(0.0, spec, paths(0), alphas=(0.1,), horizon=0.0,
                      n_initials=1, grid=GRID, cfg=CFG)

    def test_rejects_empty_alphas_before_running(self, monkeypatch):
        monkeypatch.setattr(analysis, "_run_pool", no_runs)
        spec = ProblemSpec(noise_case="multiplicative", alpha=0.1)
        with pytest.raises(ValueError, match="at least one alpha"):
            usc_sweep(0.0, spec, paths(0), alphas=(), horizon=1.0,
                      n_initials=1, grid=GRID, cfg=CFG)

    def test_rejects_no_initials_before_running(self, monkeypatch):
        monkeypatch.setattr(analysis, "_run_pool", no_runs)
        spec = ProblemSpec(noise_case="multiplicative", alpha=0.1)
        with pytest.raises(ValueError, match="n_initials must be ≥ 1"):
            usc_sweep(0.0, spec, paths(0), alphas=(0.1,), horizon=1.0,
                      n_initials=0, grid=GRID, cfg=CFG)


class TestCallerPaths:
    def test_sweeps_follow_the_callers_paths(self):
        # Rows come in the order of the paths given, and each row is driven
        # by its own path, not by its position in the list.
        spec = ProblemSpec(noise_case="additive")
        five_two = paths(5, 2)
        absorb = absorbing_check(0.0, spec, five_two, ball(1.0, 1),
                                 horizons=(0.5,), cfg=CFG)
        assert [r[0] for r in absorb.rows] == [5, 2]
        assert [p[0] for p in absorb.per_path] == [5, 2]
        alone = absorbing_check(0.0, spec, paths(2), ball(1.0, 1),
                                horizons=(0.5,), cfg=CFG)
        assert absorb.rows[1] == alone.rows[0]
        tail = tail_check(0.0, spec, five_two, ball(1.0, 1)[0], horizon=1.0,
                          k_list=(2.0,), cfg=CFG, n_sigma=2)
        assert [r[0] for r in tail.rows] == [5, 5, 2, 2]
        usc = usc_sweep(0.0, ProblemSpec(noise_case="multiplicative",
                                         alpha=0.1),
                        five_two, alphas=(0.1,), horizon=0.5, n_initials=1,
                        grid=GRID, cfg=CFG)
        assert usc.seeds == (5, 2)

    def test_noise_free_rows_carry_seed_none(self):
        # Rows take the seed from the run's ensemble tag.
        det = ProblemSpec(noise_case="deterministic", alpha=0.0, epsilon=0.0)
        absorb = absorbing_check(0.0, det, [None], ball(1.0, 1),
                                 horizons=(0.5,), cfg=CFG)
        assert [r[0] for r in absorb.rows] == [None]
        tail = tail_check(0.0, det, [None], ball(1.0, 1)[0], horizon=1.0,
                          k_list=(2.0,), cfg=CFG, n_sigma=2)
        assert [r[0] for r in tail.rows] == [None, None]
        usc = usc_sweep(0.0, det, [None], alphas=(0.0,), horizon=0.5,
                        n_initials=1, grid=GRID, cfg=CFG)
        assert usc.seeds == (None,)
        assert usc.distances.tolist() == [[0.0]]

    def test_shifted_view_rows_carry_the_root_seed(self):
        shifted = absorbing_check(0.0, ProblemSpec(noise_case="additive"),
                                  [shift(make_path(3, DT), 1.0)],
                                  ball(1.0, 1), horizons=(0.5,), cfg=CFG)
        assert [r[0] for r in shifted.rows] == [3]
        assert [p[0] for p in shifted.per_path] == [3]

    @pytest.mark.parametrize("case", ["additive", "multiplicative"])
    def test_noisy_spec_without_a_path_is_refused(self, case, monkeypatch):
        # A ValueError naming the case, before any step and before the
        # absorbing-radius window reads the path's step.
        from plrds import integrator
        monkeypatch.setattr(integrator, "_single_step", no_runs)
        spec = ProblemSpec(noise_case=case, alpha=0.1)
        u0 = ball(1.0, 1)[0]
        calls = {
            "cocycle_apply": lambda: cocycle_apply(0.1, 0.0, None, u0, spec,
                                                   CFG),
            "pullback_run": lambda: integrator.pullback_run(
                0.0, [0.1], [u0], None, spec, CFG),
            "absorbing_radius": lambda: absorbing_radius(0.0, None, spec,
                                                         grid=GRID),
            "absorbing_check": lambda: absorbing_check(
                0.0, spec, [None], [u0], horizons=(0.1,), cfg=CFG),
            "tail_check": lambda: tail_check(0.0, spec, [None], u0,
                                             horizon=1.0, k_list=(2.0,),
                                             cfg=CFG, n_sigma=2),
            "estimate_attractor": lambda: estimate_attractor(
                0.0, spec, None, 0.1, n_initials=1, grid=GRID, cfg=CFG)}
        for call in calls.values():
            with pytest.raises(ValueError, match=f"noise_case '{case}' needs "
                               "a noise path"):
                call()
        # usc_sweep's A_alpha runs are multiplicative whatever the spec's
        # case; they are checked before its noise-free A_0 runs.
        with pytest.raises(ValueError, match="noise_case 'multiplicative' "
                           "needs a noise path"):
            usc_sweep(0.0, spec, [None], alphas=(0.1,), horizon=0.1,
                      n_initials=1, grid=GRID, cfg=CFG)


class TestAlphaSolutionDistances:
    def test_monotone_in_alpha(self, grid65, gaussian_u0, path_bank):
        spec = ProblemSpec(noise_case="multiplicative", alpha=0.4)
        u0 = gaussian_u0(grid65)
        dists = alpha_solution_distances(0.0, u0, path_bank(3, DT), spec,
                                         CFG, alphas=(0.4, 0.2, 0.1))
        assert all(d > 0.0 for d in dists)
        assert dists[0] > dists[1] > dists[2]


class TestWorkerPool:
    class FakePool:
        """Stands in for ProcessPoolExecutor: records max_workers and maps
        serially, so no process is ever started."""
        sizes = []

        def __init__(self, max_workers):
            self.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    @pytest.mark.parametrize("workers,n_tasks,cpus,size", [
        (100000, 3, 4, 3), (100000, 10, 4, 4), (3, 10, 4, 3),
        (100000, 10, None, None), (100000, 1, 4, None), (1, 10, 4, None)])
    def test_pool_bounded_before_start(self, monkeypatch, workers, n_tasks,
                                       cpus, size):
        monkeypatch.setattr(analysis, "ProcessPoolExecutor", self.FakePool)
        monkeypatch.setattr(analysis.os, "cpu_count", lambda: cpus)
        self.FakePool.sizes.clear()
        out = analysis._run_pool(lambda x: abs(x),
                                 [{"x": -i} for i in range(n_tasks)], workers)
        assert out == list(range(n_tasks))
        assert self.FakePool.sizes == ([] if size is None else [size])
