"""Noise paths, shifts, and derived processes: determinism, statistics,
window independence, and convergence of the derived stationary process."""

import math
import pickle

import numpy as np
import pytest

from plrds.noise import (EtaConfig, NoisePath, ShiftedView, TabulatedPath,
                         ergodic_diagnostics, make_eta, make_path,
                         ou_from_path, shift, snap_steps)


def zero_path(dt: float, back: float, forward: float) -> TabulatedPath:
    """All-zero tabulated path covering [-back, forward] (whole blocks)."""
    n0 = int(round(back / dt))
    n1 = int(round(forward / dt))
    return TabulatedPath(np.zeros(n0 + n1 + 1), dt, first_index=-n0)


class TestSnapSteps:
    def test_exact_multiples(self):
        assert snap_steps(1.0, 1e-3) == 1000
        assert snap_steps(0.0, 0.25) == 0
        assert snap_steps(-2.0, 0.5) == -4

    def test_tolerates_float_noise(self):
        assert snap_steps(0.1 + 0.2, 0.3) == 1  # 0.30000000000000004

    def test_rejects_non_multiple(self):
        with pytest.raises(ValueError, match="not an integer multiple"):
            snap_steps(0.0015, 1e-3)


class TestBrownianPath:
    def test_same_seed_bitwise(self):
        a = make_path(7, 0.01)
        b = make_path(7, 0.01)
        ts = np.arange(-3.0, 3.0, 0.07)
        assert np.array_equal(a.values(ts), b.values(ts))

    def test_different_seeds_differ(self):
        a = make_path(1, 0.01)
        b = make_path(2, 0.01)
        assert not np.array_equal(a.values(np.arange(0.0, 1.0, 0.1)),
                                  b.values(np.arange(0.0, 1.0, 0.1)))

    def test_starts_at_zero(self):
        assert make_path(3, 0.01).value(0.0) == 0.0

    def test_variance_of_unit_increment(self):
        # omega(1) ~ N(0, 1); sample variance over 10^4 seeds within 3%.
        vals = np.array([NoisePath(s, 0.25).value(1.0) for s in range(10_000)])
        var = float(np.var(vals))
        assert 0.97 < var < 1.03, var

    def test_increment_independence_across_blocks(self):
        # Correlation of increments in adjacent blocks is ~0.
        dt = 0.5
        lefts, rights = [], []
        for s in range(4000):
            p = NoisePath(s, dt, block_length=2.0)
            lefts.append(p.value(2.0) - p.value(1.5))    # last of block 0
            rights.append(p.value(2.5) - p.value(2.0))   # first of block 1
        corr = float(np.corrcoef(lefts, rights)[0, 1])
        assert abs(corr) < 0.05, corr

    def test_backward_window_determinism(self):
        p = make_path(11, 0.01)
        w1 = p.grid_values(-400, 0).copy()
        p.grid_values(-1200, 0)  # touch more blocks
        w2 = p.grid_values(-400, 0)
        assert np.array_equal(w1, w2)

    def test_two_sided_continuity_at_origin(self):
        p = make_path(5, 0.01)
        assert p.value(0.0) == 0.0
        vals = p.grid_values(-2, 2)
        assert vals[2] == 0.0 and np.all(np.isfinite(vals))


    def test_pickle_round_trip_bitwise(self):
        # Worker processes receive paths by pickle; the rebuilt path and a
        # view of it must give the same bits as the originals, whatever the
        # original had already cached.
        p = make_path(11, 0.01, 0.5)
        p.grid_values(-250, 250)
        view = shift(p, -3.0)
        q = pickle.loads(pickle.dumps(p))
        qview = pickle.loads(pickle.dumps(view))
        assert isinstance(qview, ShiftedView) and qview.offset == -3.0
        assert np.array_equal(q.grid_values(-400, 400),
                              p.grid_values(-400, 400))
        for a, b in ((p, q), (view, qview)):
            assert np.array_equal(ou_from_path(a, 1.5, -2.0, 2.0).values,
                                  ou_from_path(b, 1.5, -2.0, 2.0).values)
            assert np.array_equal(a.values(np.arange(-2.0, 2.0, 0.037)),
                                  b.values(np.arange(-2.0, 2.0, 0.037)))
        rng = np.random.default_rng(3)
        tab = TabulatedPath(np.cumsum(rng.standard_normal(4001)) * 0.1, 0.01,
                            first_index=-3000, block_length=0.5)
        tab.ou_grid_values(1.5, -200, 200)
        qtab = pickle.loads(pickle.dumps(tab))
        assert np.array_equal(ou_from_path(qtab, 1.5, -2.0, 2.0).values,
                              ou_from_path(tab, 1.5, -2.0, 2.0).values)


class TestShiftedView:
    def test_shift_group_law_exact(self):
        p = make_path(9, 0.01)
        v1 = shift(shift(p, 1.25), 2.5)
        v2 = shift(p, 3.75)
        assert isinstance(v1, ShiftedView) and v1.base is p
        assert v1.offset == v2.offset == 3.75

    def test_view_values_definition(self):
        p = make_path(4, 0.01)
        v = shift(p, 1.5)
        ts = np.arange(-1.0, 1.0, 0.13)
        expected = p.values(ts + 1.5) - p.value(1.5)
        assert np.array_equal(v.values(ts), expected)

    def test_view_starts_at_zero(self):
        v = shift(make_path(4, 0.01), -2.75)
        assert v.value(0.0) == 0.0


class TestStationaryProcess:
    def test_zero_path_gives_zero_process(self):
        z = ou_from_path(zero_path(0.01, 40.0, 8.0), 1.0, 0.0, 4.0)
        assert np.all(z.values == 0.0)

    def test_window_independence_bitwise(self):
        p = make_path(13, 0.005)
        a = ou_from_path(p, 1.0, -4.0, 0.0).values
        b = ou_from_path(p, 1.0, -8.0, 4.0).values
        n = len(a)
        assert np.array_equal(a, b[800:800 + n])

    def test_shifted_view_delegates_bitwise(self):
        p = make_path(13, 0.005)
        v = shift(p, 2.0)
        a = ou_from_path(v, 1.0, 0.0, 2.0).values
        b = ou_from_path(p, 1.0, 2.0, 4.0).values
        assert np.array_equal(a, b)

    def test_stationary_variance(self):
        # Time average of z^2 over a long window ~ 1/(2 rate).
        p = make_path(2, 0.25)
        z = ou_from_path(p, 1.0, 0.0, 2000.0)
        var = float(np.mean(z.values ** 2))
        assert 0.45 < var < 0.55, var

    def test_langevin_residual_first_order(self):
        # dz + rate z dt = dW: the discrete residual is O(dt) in rms,
        # pooled across seeds; orders measured on disjoint seed pools.
        rate, base_dt, span = 1.0, 2.5e-4, 16.0
        n = int(round(span / base_dt))

        def pooled_rms(seeds, m):
            sq, count = 0.0, 0
            for s in seeds:
                p = make_path(s, base_dt)
                dts = m * base_dt
                z = ou_from_path(p, rate, 0.0, span, dts).values
                w = p.grid_values(0, n)[::m]
                res = np.diff(z) + rate * z[:-1] * dts - np.diff(w)
                sq += float(np.sum(res ** 2))
                count += len(res)
            return math.sqrt(sq / count)

        pools = [range(0, 8), range(8, 16)]
        for pool in pools:
            r4 = pooled_rms(pool, 4)
            r2 = pooled_rms(pool, 2)
            r1 = pooled_rms(pool, 1)
            o42 = math.log2(r4 / r2)
            o21 = math.log2(r2 / r1)
            assert o42 >= 0.9, (o42, o21)
            assert o21 >= 0.9, (o42, o21)

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError, match="rate"):
            ou_from_path(make_path(0, 0.01), 0.0, 0.0, 1.0)

    def test_coarse_grid_must_align(self):
        p = make_path(0, 0.01)
        with pytest.raises(ValueError):
            ou_from_path(p, 1.0, 0.0, 1.0, dt=0.015)  # m := 1.5 not integer


class TestEta:
    def test_constant(self):
        eta = make_eta(make_path(0, 0.01), EtaConfig(kind="constant", mean=2.5),
                       0.0, 1.0)
        assert len(eta) == 101 and np.all(eta == 2.5)

    def test_ou_kind_matches_driving_path(self):
        p = make_path(3, 0.01)
        eta = make_eta(p, EtaConfig(kind="ou", rate=2.0), 0.0, 1.0)
        z = ou_from_path(p, 2.0, 0.0, 1.0)
        assert np.array_equal(eta, z.values)

    def test_shifted_ou_adds_mean(self):
        p = make_path(3, 0.01)
        eta = make_eta(p, EtaConfig(kind="shifted-ou", mean=1.5, rate=2.0),
                       0.0, 1.0)
        z = ou_from_path(p, 2.0, 0.0, 1.0)
        assert np.array_equal(eta, 1.5 + z.values)

    def test_independent_seed_differs_but_reproducible(self):
        p = make_path(3, 0.01)
        cfg = EtaConfig(kind="ou", rate=1.0, seed=77)
        e1 = make_eta(p, cfg, 0.0, 1.0)
        e2 = make_eta(p, cfg, 0.0, 1.0)
        same_omega = make_eta(p, EtaConfig(kind="ou", rate=1.0), 0.0, 1.0)
        assert np.array_equal(e1, e2)
        assert not np.array_equal(e1, same_omega)

    def test_mean_value_property(self):
        assert EtaConfig(kind="ou", mean=3.0).mean_value == 0.0
        assert EtaConfig(kind="shifted-ou", mean=3.0).mean_value == 3.0
        assert EtaConfig(kind="constant", mean=3.0).mean_value == 3.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            EtaConfig(kind="brownian")


class TestErgodicDiagnostics:
    def test_requires_long_horizon(self):
        z = ou_from_path(make_path(0, 0.25), 1.0, 0.0, 50.0)
        with pytest.raises(ValueError, match="at least 100"):
            ergodic_diagnostics(z)

    def test_ratios_small_on_long_window(self):
        z = ou_from_path(make_path(1, 0.25), 1.0, 0.0, 1000.0)
        diag = ergodic_diagnostics(z)
        assert np.all(np.abs(diag["sublinear_ratio"]) < 0.05)
        assert abs(diag["mean_ratio"][-1]) < 3.0 / math.sqrt(1000.0)


class TestTabulatedPath:
    def test_round_trip_values(self):
        vals = np.cumsum(np.full(100, 0.1))
        p = TabulatedPath(np.concatenate(([0.0], vals)), 0.1, first_index=0)
        assert math.isclose(p.value(5.0), vals[49], rel_tol=1e-12)

    def test_out_of_window_rejected(self):
        p = TabulatedPath(np.zeros(11), 0.1, first_index=0)
        with pytest.raises(ValueError, match="outside"):
            p.grid_values(-1, 5)
