"""Noise paths, shifts, and derived processes: determinism, statistics,
window independence, and convergence of the derived stationary process."""

import hashlib
import math
import pickle
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from conftest import TabulatedPath, skip_unless_environment
from scipy.signal import lfilter

from plrds.noise import (EtaConfig, NoisePath, ShiftedView, _anchor_kernel,
                         _eta_root, _ou_values, ergodic_diagnostics, make_eta,
                         make_path, ou_from_path, shift, snap_steps)


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
        assert np.array_equal(a.grid_values(-300, 300),
                              b.grid_values(-300, 300))

    def test_different_seeds_differ(self):
        a = make_path(1, 0.01)
        b = make_path(2, 0.01)
        assert not np.array_equal(a.grid_values(0, 100)[::10],
                                  b.grid_values(0, 100)[::10])

    def test_starts_at_zero(self):
        assert make_path(3, 0.01).grid_values(0, 0)[0] == 0.0

    def test_variance_of_unit_increment(self):
        # omega(1) ~ N(0, 1); sample variance over 10^4 seeds within 3%.
        vals = np.array([NoisePath(s, 0.25).grid_values(4, 4)[0]
                         for s in range(10_000)])
        var = float(np.var(vals))
        assert 0.97 < var < 1.03, var

    def test_increment_independence_across_blocks(self):
        # Correlation of increments in adjacent blocks is ~0.
        dt = 0.5
        lefts, rights = [], []
        for s in range(4000):
            w = NoisePath(s, dt, block_length=2.0).grid_values(3, 5)
            lefts.append(w[1] - w[0])    # last of block 0
            rights.append(w[2] - w[1])   # first of block 1
        corr = float(np.corrcoef(lefts, rights)[0, 1])
        assert abs(corr) < 0.05, corr

    def test_backward_window_determinism(self):
        p = make_path(11, 0.01)
        w1 = p.grid_values(-400, 0).copy()
        p.grid_values(-1200, 0)  # touch more blocks
        w2 = p.grid_values(-400, 0)
        assert np.array_equal(w1, w2)

    def test_two_sided_continuity_at_origin(self):
        vals = make_path(5, 0.01).grid_values(-2, 2)
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
        rng = np.random.default_rng(3)
        tab = TabulatedPath(np.cumsum(rng.standard_normal(4001)) * 0.1, 0.01,
                            first_index=-3000, block_length=0.5)
        qtab = pickle.loads(pickle.dumps(tab))
        assert np.array_equal(ou_from_path(qtab, 1.5, -2.0, 2.0).values,
                              ou_from_path(tab, 1.5, -2.0, 2.0).values)


MASK = 2 ** 64 - 1


def reference_omega(seed: int, dt: float, spb: int, jlo: int, jhi: int):
    """omega at grid indices jlo*spb .. (jhi+1)*spb (jlo <= 0 <= jhi), built
    block by block: a fresh Philox keyed (seed, j) per block, then partial
    sums outward from the known boundary."""
    def inc(j):
        key = np.array([seed & MASK, j & MASK], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        return rng.standard_normal(spb) * math.sqrt(dt)

    out = np.empty((jhi - jlo + 1) * spb + 1)
    zero = -jlo * spb
    out[zero] = 0.0
    for j in range(0, jhi + 1):
        a = zero + j * spb
        out[a + 1 : a + spb + 1] = out[a] + np.cumsum(inc(j))
    for j in range(-1, jlo - 1, -1):
        a = zero + j * spb
        out[a : a + spb] = out[a + spb] - np.cumsum(inc(j)[::-1])[::-1]
    return out


class TestIncrementOracle:
    """grid_values against the block-by-block build, bitwise, whatever order
    the blocks are asked for in."""

    DT, SPB = 0.125, 8

    @pytest.mark.parametrize("seed", [0, 2 ** 63 + 5, 2 ** 64 - 1])
    @pytest.mark.parametrize("order", ["forward-first", "backward-first",
                                       "far-first"])
    def test_blocks_match_the_per_block_build(self, seed, order):
        spb = self.SPB
        ref = reference_omega(seed, self.DT, spb, -6, 6)
        lo, hi = -6 * spb, 7 * spb
        p = NoisePath(seed, self.DT, block_length=spb * self.DT)
        windows = {"forward-first": [(0, hi), (lo, 0)],
                   "backward-first": [(lo, 0), (0, hi)],
                   "far-first": [(5 * spb + 3, 6 * spb + 2),
                                 (lo + 1, -5 * spb), (-3, 3)]}[order]
        for i0, i1 in windows + [(lo, hi)]:
            assert p.grid_values(i0, i1).tobytes() == \
                ref[i0 - lo : i1 - lo + 1].tobytes()


class TestGeneratorIsolation:
    """Each path draws from its own generator: builds of several paths,
    interleaved or on threads, give the bits of separate builds."""

    SPB = 10

    def separate(self, seed):
        p = NoisePath(seed, 0.1, block_length=1.0)
        return p.grid_values(-40 * self.SPB, 40 * self.SPB)

    def test_interleaved_builds(self):
        a, b = NoisePath(1, 0.1, 1.0), NoisePath(2, 0.1, 1.0)
        for k in range(1, 41):
            for p in (a, b):
                p.grid_values(-k * self.SPB, k * self.SPB)
        for seed, p in ((1, a), (2, b)):
            assert p.grid_values(-400, 400).tobytes() == \
                self.separate(seed).tobytes()

    def test_threaded_builds(self):
        def build(seed):
            p = NoisePath(seed, 0.1, 1.0)
            for k in range(1, 41):
                p.grid_values(-k * self.SPB, k * self.SPB)
            return p.grid_values(-400, 400)

        seeds = list(range(8))
        with ThreadPoolExecutor(max_workers=2) as pool:
            built = list(pool.map(build, seeds))
        for seed, vals in zip(seeds, built):
            assert vals.tobytes() == self.separate(seed).tobytes()


class TestOuWindowOracle:
    """_ou_values against the per-block loop it replaced (np.diff and a
    scalar-zi lfilter per block), bitwise."""

    DT = 5e-3

    @staticmethod
    def reference_ou_values(base, rate, k0, k1, m):
        kblock = base.steps_per_block // m
        dt_ou = m * base.dt
        steps, wts, bfac = _anchor_kernel(rate, dt_ou)
        decay = math.exp(-rate * dt_ou)
        gain = -math.expm1(-rate * dt_ou) / (rate * dt_ou)
        j0, j1 = k0 // kblock, k1 // kblock
        first = j0 * kblock - steps
        w = base.grid_values(first * m, ((j1 + 1) * kblock - 1) * m)[::m]
        blocks = []
        for j in range(j0, j1 + 1):
            a = j * kblock - first
            win = w[a - steps : a + 1]
            z0 = win[-1] - bfac * win[0] - rate * float((win * wts).sum())
            dw = np.diff(w[a : a + kblock])
            rest, _ = lfilter([gain], [1.0, -decay], dw,
                              zi=np.array([decay * z0]))
            blocks += [[z0], rest]
        lo = k0 - j0 * kblock
        return np.concatenate(blocks)[lo : lo + k1 - k0 + 1]

    def paths(self):
        walk = np.cumsum(np.random.default_rng(5).standard_normal(12001))
        return {"noise": NoisePath(31, self.DT, block_length=0.1),
                "tabulated": TabulatedPath(walk * math.sqrt(self.DT), self.DT,
                                           first_index=-9000,
                                           block_length=0.1)}

    @pytest.mark.parametrize("m", [1, 2, 4])
    @pytest.mark.parametrize("kind", ["noise", "tabulated"])
    @pytest.mark.parametrize("window", ["inside-one-block", "mid-block-start",
                                        "spanning-zero"])
    def test_window_matches_the_per_block_loop(self, m, kind, window):
        base = self.paths()[kind]
        kb = base.steps_per_block // m
        k0, k1 = {"inside-one-block": (1, kb - 2),
                  "mid-block-start": (kb // 2, 3 * kb + 1),
                  "spanning-zero": (-2 * kb - 1, kb + 2)}[window]
        got = _ou_values(base, 1.5, k0, k1, m)
        assert got.tobytes() == \
            self.reference_ou_values(base, 1.5, k0, k1, m).tobytes()

    # Windows of blocks x K nodes pick the loop by shape: the column form
    # when blocks >= K, the row form (last row trimmed at k1) otherwise.
    @pytest.mark.parametrize("form, dt, block_length, m, k0, k1", [
        # 36 blocks of 20: one column at a time across the rows.
        ("column", DT, 0.1, 1, -297, 387),
        # 3 blocks of 1,000 at m = 2, ending mid-block: the last row stops
        # at k1.
        ("row", DT, 10.0, 2, -1250, 617),
        # Ending on a block's first node: the last row keeps its anchor.
        ("row", DT, 10.0, 1, -100, 2000),
        ("column", DT, 0.1, 1, -300, 400),
        # The noise-ergodic window: 2,501 blocks of 16 at dt 0.25.
        ("column", 0.25, 4.0, 1, 0, 40000),
    ])
    def test_each_loop_form_matches_the_per_block_loop(
            self, form, dt, block_length, m, k0, k1):
        base = NoisePath(31, dt, block_length)
        kb = base.steps_per_block // m
        assert (k1 // kb - k0 // kb + 1 >= kb) == (form == "column")
        got = _ou_values(base, 1.5, k0, k1, m)
        assert len(got) == k1 - k0 + 1
        assert got.tobytes() == \
            self.reference_ou_values(base, 1.5, k0, k1, m).tobytes()

    # Anchor kernels of 112 to 55,264 weights: the blocked product and sum
    # over all the windows keeps the bits of one product and sum per anchor.
    @pytest.mark.parametrize("rate, dt, block_length, k0, k1", [
        (1.0, 0.25, 4.0, 0, 4000),      # the noise-ergodic kernel
        (1.5, 0.01, 0.5, -120, 90),
        (0.1, DT, 1.0, -500, 700),
    ])
    def test_anchor_windows_match_per_anchor_sums(self, rate, dt,
                                                  block_length, k0, k1):
        base = NoisePath(31, dt, block_length)
        got = _ou_values(base, rate, k0, k1, 1)
        assert got.tobytes() == \
            self.reference_ou_values(base, rate, k0, k1, 1).tobytes()

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_shifted_view_matches_the_per_block_loop(self, m):
        base = self.paths()["noise"]
        dt_ou = m * self.DT
        view = shift(base, -37 * self.DT * 4)
        z = ou_from_path(view, 0.8, -30 * dt_ou, 25 * dt_ou, dt_ou)
        ref = self.reference_ou_values(base, 0.8, -30 - 37 * 4 // m,
                                       25 - 37 * 4 // m, m)
        assert z.values.tobytes() == ref.tobytes()


class TestShiftedView:
    def test_shift_group_law_exact(self):
        p = make_path(9, 0.01)
        v1 = shift(shift(p, 1.25), 2.5)
        v2 = shift(p, 3.75)
        assert isinstance(v1, ShiftedView) and v1.base is p
        assert v1.offset == v2.offset == 3.75


class TestStationaryProcess:
    # One block of 400 nodes takes the row loop, 26 blocks of 16 the column
    # loop; the memo hands out both forms, so neither may be written.
    @pytest.mark.parametrize("dt, t1", [(0.01, 1.0), (0.25, 100.0)])
    def test_values_are_read_only(self, dt, t1):
        p = make_path(3, dt)
        z = ou_from_path(p, 1.0, 0.0, t1)
        with pytest.raises(ValueError, match="read-only"):
            z.values[0] = 1.0
        assert ou_from_path(p, 1.0, 0.0, t1).values[0] != 1.0
        with pytest.raises(ValueError, match="read-only"):
            make_eta(p, EtaConfig(), 0.0, t1)[-1] += 1.0

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
        with pytest.raises(ValueError, match="divide the block length"):
            ou_from_path(make_path(0, 0.01, 0.05), 1.0, 0.0, 1.0, dt=0.02)


class TestEta:
    def test_constant(self):
        eta = make_eta(make_path(0, 0.01), EtaConfig(kind="constant", mean=2.5),
                       0.0, 1.0)
        assert len(eta) == 101 and np.all(eta == 2.5)

    def test_ou_kind_matches_driving_path(self):
        p = make_path(3, 0.01)
        eta = make_eta(p, EtaConfig(kind="shifted-ou", rate=2.0), 0.0, 1.0)
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
        cfg = EtaConfig(kind="shifted-ou", rate=1.0, seed=77)
        e1 = make_eta(p, cfg, 0.0, 1.0)
        e2 = make_eta(p, cfg, 0.0, 1.0)
        same_omega = make_eta(p, EtaConfig(kind="shifted-ou", rate=1.0),
                              0.0, 1.0)
        assert np.array_equal(e1, e2)
        assert not np.array_equal(e1, same_omega)

    def test_independent_seed_builds_each_block_once(self, monkeypatch):
        # Two calls on one window, with z's window read in between as a
        # pullback does, share eta's own root path: each of its Brownian
        # blocks is generated once, not once per call.
        built, gen = [], NoisePath._generator_at

        def counted(path, j):
            built.append((path.seed, j))
            return gen(path, j)
        monkeypatch.setattr(NoisePath, "_generator_at", counted)
        _eta_root.cache_clear()
        view = shift(make_path(3, 0.01), -2.0)
        cfg = EtaConfig(kind="shifted-ou", rate=1.0, seed=77)
        etas = []
        for _ in range(2):
            ou_from_path(view, 1.0, 0.0, 2.0)
            etas.append(make_eta(view, cfg, 0.0, 2.0))
        eta_blocks = [j for seed, j in built if seed == 77]
        assert eta_blocks and len(eta_blocks) == len(set(eta_blocks))
        assert etas[0].tobytes() == etas[1].tobytes()

    @pytest.mark.parametrize("cfg", [
        EtaConfig(kind="shifted-ou", rate=1.0),
        EtaConfig(kind="shifted-ou", mean=-0.5, rate=1.0),
        EtaConfig(kind="shifted-ou", rate=2.0),
        EtaConfig(kind="shifted-ou", rate=1.0, seed=77),
        EtaConfig(kind="constant", mean=0.25)])
    def test_shared_window_keeps_the_bits(self, cfg):
        # z and eta over one window, read as the stepper reads them, equal
        # fresh builds of each; the memo serves eta whenever it rides z's
        # path at z's rate.
        view = shift(make_path(3, 0.01), -2.0)
        _ou_values.cache_clear()
        z = ou_from_path(view, 1.0, 0.0, 2.0, 0.02).values
        eta = make_eta(view, cfg, 0.0, 2.0, 0.02)
        rides_z = cfg.kind != "constant" and cfg.seed is None \
            and cfg.rate == 1.0
        assert _ou_values.cache_info().hits == rides_z
        _ou_values.cache_clear()
        assert eta.tobytes() == make_eta(view, cfg, 0.0, 2.0, 0.02).tobytes()
        _ou_values.cache_clear()
        assert z.tobytes() == \
            ou_from_path(view, 1.0, 0.0, 2.0, 0.02).values.tobytes()

    def test_ou_kind_rejected(self):
        # E(eta) is `mean` for every kind, so no kind may ignore it.
        assert EtaConfig().kind == "shifted-ou"
        with pytest.raises(ValueError,
                           match="^eta_kind must be constant or shifted-ou$"):
            EtaConfig(kind="ou", mean=0.5)

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
        assert p.grid_values(50, 50)[0] == vals[49]

    def test_out_of_window_rejected(self):
        p = TabulatedPath(np.zeros(11), 0.1, first_index=0)
        with pytest.raises(ValueError, match="outside"):
            p.grid_values(-1, 5)


# SHA-256 of ou_from_path values, pinned so a rewrite of the OU code must
# keep every bit.  The windows cross block boundaries on both sides of 0, at
# OU step m * 5e-3 for m = 1 and 2.  They hold under the recorded environment
# key (conftest's environment_key); under another, the last bits of NumPy's
# np.exp in the anchor weights may differ, so the comparison is skipped.
OU_ENVIRONMENT = {"numpy": "2.4.6", "machine": "x86_64", "system": "Linux",
                  "dispatch": ["AVX512_ICL", "AVX512_SPR", "X86_V3", "X86_V4"]}
OU_DIGESTS = {
    "straddle-m1":
        "f3c01b8c48621a17cee3eabe5bd84e95377ac839f30248da62683c5c18bc4007",
    "past-m1":
        "a1de8f1d8f0b46af5ec383c5c1a8f7177e60f168c673293b495c26ab827470a4",
    "future-m1":
        "85c3b03037e82157f93065aeaeedc6c148302432b3a80f895822241a86457bd2",
    "view-m1":
        "50deab51f1e2f6657f6c596a215dbc5f6006f70cee6ceb1c5aa9762e6835f985",
    "tabulated-m1":
        "de5f6091958c8ec11a36c05c09128ae3011784b561a1e40a02912b4db0a2cdf5",
    "one-entry-block-m1":
        "f634cfa4842d1b705e0166ba9fa99a885b87a9d3223cfe6bc4401de4777b8825",
    "straddle-m2":
        "99e5fd5cd6622842c990c882826ec21b4fedadc78741624ea596b85f65383a29",
    "past-m2":
        "6b0f07dafb471be07d290685b4ecf15f0e2763314d5b949031f20658ceebd55a",
    "future-m2":
        "0c9c8c837c0f139bf18967d40ce781b609453ae6a130af3f19d053dfc751ff3d",
    "view-m2":
        "4e25e61f697dddb1ea558535395be04cc411e62b27e0c4c2efe9424ea20ab4af",
    "tabulated-m2":
        "e7055f83531d008af7a2e81007b97842bb6c7133cddeeaf29d4279bada81d55a",
    "one-entry-block-m2":
        "c123e636ca4d00a9a9d25bf262062dd7c78f5a8f2039adfed68f61505b965e44",
}


def ou_digest_case(name: str):
    """(path, rate, t0, t1, dt) of one pinned OU window."""
    dt = 5e-3
    path = NoisePath(21, dt, block_length=0.5)
    walk = np.cumsum(np.random.default_rng(8).standard_normal(8001))
    tab = TabulatedPath(walk * math.sqrt(dt), dt, first_index=-6000,
                        block_length=0.5)
    m = int(name[-1])
    return {
        "straddle": (path, 1.5, -1.3, 0.7),
        "past": (path, 1.5, -2.5, -0.5),
        "future": (path, 0.7, 0.25, 1.75),
        "view": (shift(path, -0.8), 1.5, -0.5, 0.6),
        "tabulated": (tab, 2.0, -1.2, 0.9),
        "one-entry-block": (NoisePath(22, dt, block_length=m * dt), 1.0,
                            -0.3, 0.3),
    }[name[:-3]] + (m * dt,)


@pytest.mark.bytes
@pytest.mark.parametrize("name", sorted(OU_DIGESTS))
def test_ou_values_match_pinned_digests(name):
    skip_unless_environment(OU_ENVIRONMENT, "OU digests")
    z = ou_from_path(*ou_digest_case(name))
    assert hashlib.sha256(z.values.tobytes()).hexdigest() == OU_DIGESTS[name]
