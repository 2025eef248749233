"""Spatial discretization: p-Laplace fluxes, quadratures, tails, set distance."""

import csv
import hashlib
import math

import numpy as np
import pytest
from conftest import boundary_mask, flux_pairing, norms

from plrds.fields import (EndpointEnsemble, EnsembleTag, Field, Grid,
                          _face_data, _lap_faces, _pairing, _sq_norm,
                          cutoff_rho, field_from_binary, field_from_csv,
                          field_to_binary, field_to_csv, grid_arrays,
                          hausdorff_semidistance, l2_distance, l2_sq,
                          lebesgue_pow, make_field, p_dissipation,
                          p_laplace, tail_mass, zero_field)
from plrds.integrator import StepperConfig, cocycle_apply
from plrds.noise import make_path
from plrds.problem import ProblemSpec


def random_field(grid, seed):
    rng = np.random.default_rng(seed)
    # deliberately asymmetric so cancellations can't mask sign errors
    vals = rng.normal(size=grid.shape)
    vals += np.linspace(0.0, 1.0, grid.n).reshape((-1,) + (1,) * (grid.dim - 1))
    return make_field(grid, vals)


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(3, 1.0, 65)
        with pytest.raises(ValueError):
            Grid(1, 1.0, 2)
        with pytest.raises(ValueError):
            Grid(1, -1.0, 65)

    def test_dx_and_shape(self):
        g = Grid(1, 8.0, 257)
        assert g.dx == 16.0 / 256.0
        assert g.shape == (257,)
        assert Grid(2, 1.0, 65).shape == (65, 65)

    def test_weights_sum_to_volume(self):
        arrs = grid_arrays(Grid(1, 8.0, 257))
        assert math.isclose(float(arrs.weights.sum()), 16.0, rel_tol=1e-12)
        arrs2 = grid_arrays(Grid(2, 2.0, 33))
        assert math.isclose(float(arrs2.weights.sum()), 16.0, rel_tol=1e-12)

    def test_make_field_zeroes_boundary_and_checks(self):
        g = Grid(1, 1.0, 11)
        u = make_field(g, np.ones(11))
        assert u.values[0] == 0.0 and u.values[-1] == 0.0
        with pytest.raises(ValueError):
            make_field(g, np.ones(12))
        with pytest.raises(ValueError):
            make_field(g, np.full(11, np.nan))


class TestPLaplace:
    def test_quadratic_profile_exact_away_from_origin(self):
        # div(|u'|^{p-2} u') for u = x^2, p = 3 is 8|x|; the face scheme
        # reproduces it to rounding at nodes with both faces on one side.
        g = Grid(1, 2.0, 401)
        x = grid_arrays(g).coords
        u = Field(g, x ** 2)  # keep true boundary values: exactness test
        out = p_laplace(u, 3.0).values
        interior = slice(2, -2)
        mask = np.abs(x[interior]) >= g.dx - 1e-12
        err = np.abs(out[interior] - 8.0 * np.abs(x[interior]))
        # rounding only: truncation error of a first-order scheme would be
        # O(dx) = 1e-2 here, nine orders of magnitude larger than this bound
        assert np.max(err[mask]) < 1e-9

    def test_quadratic_profile_origin_error(self):
        g = Grid(1, 2.0, 401)
        x = grid_arrays(g).coords
        u = Field(g, x ** 2)
        out = p_laplace(u, 3.0).values
        i0 = np.argmin(np.abs(x))
        assert abs(out[i0]) <= 2.0 * g.dx + 1e-12

    def test_p2_reduces_to_three_point_laplacian(self):
        g = Grid(1, 8.0, 129)
        u = random_field(g, 7)
        out = p_laplace(u, 2.0).values
        gx = np.diff(u.values) / g.dx
        expected = np.zeros_like(u.values)
        expected[1:-1] = np.diff(1.0 * gx) / g.dx
        assert np.array_equal(out, expected)

    def test_p2_reduces_to_five_point_laplacian_2d(self):
        g = Grid(2, 2.0, 33)
        u = random_field(g, 11)
        out = p_laplace(u, 2.0).values
        v = u.values
        fx = np.diff(v, axis=0) / g.dx
        fy = np.diff(v, axis=1) / g.dx
        expected = np.zeros_like(v)
        expected[1:-1, :] += (fx[1:, :] - fx[:-1, :]) / g.dx
        expected[:, 1:-1] += (fy[:, 1:] - fy[:, :-1]) / g.dx
        expected[boundary_mask(g)] = 0.0
        assert np.array_equal(out, expected)

    def test_rejects_p_below_2_and_negative_delta(self):
        u = zero_field(Grid(1, 1.0, 11))
        with pytest.raises(ValueError):
            p_laplace(u, 1.5)
        with pytest.raises(ValueError):
            p_laplace(u, 3.0, delta=-0.1)

    def test_delta_regularization_continuous(self):
        g = Grid(1, 8.0, 65)
        u = random_field(g, 3)
        a = p_laplace(u, 3.0, delta=0.0).values
        b = p_laplace(u, 3.0, delta=1e-8).values
        assert np.max(np.abs(a - b)) < 1e-6


class TestKernelOracle:
    """The flux kernel against a reference written with np.pad, np.diff and
    np.sum: the kernel's slices and buffers must give the same float
    operations in the same order, signed zeros included."""

    @staticmethod
    def reference_faces(v, dim, dx, p, delta):
        e = 0.5 * (p - 2.0)
        if dim == 1:
            gx = np.diff(v) / dx
            return ((gx, (gx * gx + delta * delta) ** e),)
        pad_y = np.pad(v, ((0, 0), (1, 1)))
        dyn = (pad_y[:, 2:] - pad_y[:, :-2]) / (2.0 * dx)
        gx = np.diff(v, axis=0) / dx
        ty = 0.5 * (dyn[1:, :] + dyn[:-1, :])
        pad_x = np.pad(v, ((1, 1), (0, 0)))
        dxn = (pad_x[2:, :] - pad_x[:-2, :]) / (2.0 * dx)
        gy = np.diff(v, axis=1) / dx
        tx = 0.5 * (dxn[:, 1:] + dxn[:, :-1])
        return ((gx, (gx * gx + ty * ty + delta * delta) ** e),
                (gy, (gy * gy + tx * tx + delta * delta) ** e))

    @classmethod
    def reference_lap_diss(cls, v, grid, p, delta):
        dx = grid.dx
        faces = cls.reference_faces(v, grid.dim, dx, p, delta)
        out = np.zeros_like(v)
        if grid.dim == 1:
            gx, coef = faces[0]
            out[1:-1] = np.diff(coef * gx) / dx
            return out, float(np.sum(coef * gx * gx) * dx)
        (gx, cx), (gy, cy) = faces
        out[1:-1, :] += np.diff(cx * gx, axis=0) / dx
        out[:, 1:-1] += np.diff(cy * gy, axis=1) / dx
        return out, float((np.sum(cx * gx * gx) + np.sum(cy * gy * gy))
                          * dx * dx)

    @staticmethod
    def signed_zero_values(grid, seed):
        # Half the nodes are zeros of either sign, so runs of zeros put
        # signed zeros into the differences and the fluxes.
        rng = np.random.default_rng(seed)
        v = rng.normal(size=grid.shape)
        zero = rng.random(grid.shape) < 0.5
        v[zero] = np.copysign(0.0, rng.normal(size=grid.shape))[zero]
        return v

    # dx = 14/63 and 14/17: no power of two, so regrouped products of dx
    # change bits.
    @pytest.mark.parametrize("grid", [Grid(1, 7.0, 64), Grid(2, 7.0, 18)],
                             ids=["1d", "2d"])
    @pytest.mark.parametrize("p", [2.0, 3.0, 4.5])
    @pytest.mark.parametrize("delta", [0.0, 1e-200, 0.1])
    def test_bitwise_against_reference(self, grid, p, delta):
        # Raw values with a nonzero boundary, so the differences against
        # the kernel's ring of zeros carry data too.  The kernel adds
        # delta^2 only when it is not 0; 1e-200 squares to +0.0.
        v = self.signed_zero_values(grid, 7)
        assert np.any(np.signbit(v) & (v == 0.0))
        faces = _face_data(v, grid.dim, grid.dx, p, delta)
        ref = self.reference_faces(v, grid.dim, grid.dx, p, delta)
        assert len(faces) == len(ref) == grid.dim
        for (g, c), (rg, rc) in zip(faces, ref):
            assert g.tobytes() == rg.tobytes()
            assert c.tobytes() == rc.tobytes()
        lap, lap_faces = _lap_faces(v, grid, p, delta)
        ref_lap, ref_diss = self.reference_lap_diss(v, grid, p, delta)
        assert lap.tobytes() == ref_lap.tobytes()
        assert _pairing(lap_faces, grid.dx) == ref_diss
        u = make_field(grid, v)
        ref_lap = self.reference_lap_diss(u.values, grid, p, delta)[0]
        ref_lap[boundary_mask(grid)] = 0.0
        assert p_laplace(u, p, delta).values.tobytes() == ref_lap.tobytes()

    @pytest.mark.parametrize("grid", [Grid(1, 7.0, 64), Grid(2, 7.0, 18)],
                             ids=["1d", "2d"])
    @pytest.mark.parametrize("p", [2.0, 3.0, 4.5])
    @pytest.mark.parametrize("delta", [0.0, 0.1])
    def test_stacked_rows_match_single_calls(self, grid, p, delta):
        dim, dx = grid.dim, grid.dx
        stack = np.stack([self.signed_zero_values(grid, s) for s in range(5)])
        other = self.signed_zero_values(grid, 11)
        grads = [g for g, _ in _face_data(other, dim, dx, 2.0, 0.0)]
        faces = _face_data(stack, dim, dx, p, delta)
        pair = _pairing(faces, dx)
        cross = _pairing(faces, dx, grads)
        assert pair.shape == cross.shape == (5,)
        for r, v in enumerate(stack):
            row = _face_data(v, dim, dx, p, delta)
            for (g, c), (rg, rc) in zip(faces, row):
                assert g[r].tobytes() == rg.tobytes()
                assert c[r].tobytes() == rc.tobytes()
            assert pair[r].hex() == _pairing(row, dx).hex()
            assert cross[r].hex() == _pairing(row, dx, grads).hex()

    @pytest.mark.parametrize("grid", [Grid(1, 7.0, 64), Grid(2, 7.0, 18)],
                             ids=["1d", "2d"])
    def test_stacked_sq_norm_matches_rows(self, grid):
        # Rows far apart in scale, and one of negative zeros.
        weights = grid_arrays(grid).weights
        stack = np.stack([self.signed_zero_values(grid, s) * 1e3 ** (s - 2)
                          for s in range(5)] + [np.full(grid.shape, -0.0)])
        sums = _sq_norm(stack, weights)
        assert sums.shape == (6,)
        for r, v in enumerate(stack):
            single = float(_sq_norm(v, weights))
            assert sums[r].hex() == single.hex() == \
                float(np.sum(weights * v * v)).hex()


class TestRecordedQuadratures:
    """SHA-256 of the float arrays diss_p and diss_q of one recorded run per
    noise case and dimension.  The golden CSVs see these arrays only after
    formatting; these digests pin their bits.  Recorded with NumPy 2.4.6 on
    x86_64; last-bit behaviour of NumPy's kernels may differ elsewhere."""

    DIGESTS = {
        ("additive", 1): "696d1bebd84ed898eb7e89c2963b05bdc5a32c7f2c532eb614916f7d81d01df7",
        ("multiplicative", 1): "00fa872c01f1ea748aaccc508fa25bc7d548d0b0c8fc3f03775350a11da4018d",
        ("deterministic", 1): "3e975acacd9a0cef7e54fa4533b52e72c69cc15f0c81e27def62ec543087628c",
        ("additive", 2): "4b1df604f64297756e8a34f6cc1fa886427d37098b0f31d43c5597077096461f",
        ("multiplicative", 2): "a274ed05e837dafc4f9792fffb381175cd3d517e6a4f64c2e440e6327f4affb0",
        ("deterministic", 2): "37c57d353e8e2f5bd5077854f3e87b0ea0b12e0880d02e770b2a4be643e1b5d0",
    }

    @pytest.mark.bytes
    @pytest.mark.parametrize("case,dim", sorted(DIGESTS))
    def test_digest(self, case, dim):
        if np.__version__ != "2.4.6":
            pytest.skip(f"digests were made with NumPy 2.4.6, this is "
                        f"{np.__version__}")
        spec = {"additive": ProblemSpec(noise_case="additive"),
                "multiplicative": ProblemSpec(noise_case="multiplicative",
                                              alpha=0.1),
                "deterministic": ProblemSpec(noise_case="deterministic",
                                             alpha=0.0, epsilon=0.0)}[case]
        grid = Grid(1, 7.0, 64) if dim == 1 else Grid(2, 7.0, 18)
        cfg = StepperConfig(dt=2e-3)
        path = None if case == "deterministic" else make_path(4, cfg.dt)
        u0 = make_field(grid, 0.8 * np.exp(-grid_arrays(grid).radial_sq))
        _, rec = cocycle_apply(0.1, 0.25, path, u0, spec, cfg,
                               snapshot_indices=())
        digest = hashlib.sha256(rec.diss_p.tobytes()
                                + rec.diss_q.tobytes()).hexdigest()
        assert digest == self.DIGESTS[(case, dim)]


class TestSummationByParts:
    @pytest.mark.parametrize("grid,p", [
        (Grid(1, 8.0, 129), 3.0),
        (Grid(1, 8.0, 129), 2.0),
        (Grid(1, 5.0, 97), 4.5),
        (Grid(2, 2.0, 33), 3.0),
    ])
    def test_pairing_matches_operator(self, grid, p):
        u = random_field(grid, 42)
        v = random_field(grid, 43)
        w = grid_arrays(grid).weights
        direct = float(np.sum(w * (-p_laplace(u, p).values) * v.values))
        scale = abs(direct) + 1.0
        assert abs(flux_pairing(u, v, p) - direct) < 1e-10 * scale

    def test_dissipation_is_self_pairing(self):
        g = Grid(1, 8.0, 129)
        u = random_field(g, 5)
        assert p_dissipation(u, 3.0) == flux_pairing(u, u, 3.0)

    def test_dissipation_nonnegative(self):
        g = Grid(1, 8.0, 65)
        for seed in range(20):
            assert p_dissipation(random_field(g, seed), 3.0) >= 0.0

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError):
            flux_pairing(zero_field(Grid(1, 1.0, 11)),
                         zero_field(Grid(1, 1.0, 13)), 3.0)


class TestMonotonicity:
    def test_operator_monotone_on_random_pairs(self):
        g = Grid(1, 8.0, 65)
        w = grid_arrays(g).weights
        rng = np.random.default_rng(2024)
        for _ in range(200):
            u = make_field(g, rng.normal(size=g.shape))
            v = make_field(g, rng.normal(size=g.shape))
            du = p_laplace(u, 3.0).values - p_laplace(v, 3.0).values
            pairing = float(np.sum(w * du * (u.values - v.values)))
            assert pairing <= 1e-12


class TestNorms:
    def test_sine_profile_analytic(self):
        # u = sin(pi x / L) on [-L, L]: ||u||_2^2 = L, ||u||_3^3 = 8L/(3 pi),
        # ||u'||_3^3 = (pi/L)^2 * 8/3.
        L, n = 8.0, 1025
        g = Grid(1, L, n)
        x = grid_arrays(g).coords
        u = make_field(g, np.sin(np.pi * x / L))
        assert math.isclose(l2_sq(u), L, rel_tol=1e-4)
        assert math.isclose(lebesgue_pow(u, 3.0), 8.0 * L / (3.0 * np.pi),
                            rel_tol=1e-4)
        assert math.isclose(p_dissipation(u, 3.0, 0.0),
                            (np.pi / L) ** 2 * 8.0 / 3.0, rel_tol=1e-3)

    def test_norms_dict_consistency(self):
        g = Grid(1, 8.0, 129)
        u = random_field(g, 9)
        d = norms(u, 3.0, 4.0)
        assert math.isclose(d["l2"], math.sqrt(l2_sq(u)), rel_tol=1e-14)
        assert math.isclose(d["lp"] ** 3, lebesgue_pow(u, 3.0), rel_tol=1e-12)
        assert math.isclose(d["lq"] ** 4, lebesgue_pow(u, 4.0), rel_tol=1e-12)
        assert math.isclose(d["w1p"] ** 3,
                            lebesgue_pow(u, 3.0) + p_dissipation(u, 3.0, 0.0),
                            rel_tol=1e-12)
        with pytest.raises(ValueError):
            norms(u, 1.5, 4.0)

    def test_unit_field_mass(self):
        # constant 1 on [-1, 1] with 201 nodes: squared mass within 2% of 2.
        g = Grid(1, 1.0, 201)
        u = make_field(g, np.ones(g.shape))
        assert abs(l2_sq(u) - 2.0) <= 0.04

    def test_interpolation_inequality_random_fields(self):
        # ||u||_p^p <= (q-p)/(q-2) ||u||_2^2 + (p-2)/(q-2) ||u||_q^q
        g = Grid(1, 8.0, 65)
        rng = np.random.default_rng(77)
        for p, q in ((3.0, 4.0), (2.5, 6.0)):
            a = (q - p) / (q - 2.0)
            b = (p - 2.0) / (q - 2.0)
            for _ in range(200):
                u = make_field(g, 3.0 * rng.normal(size=g.shape))
                lhs = lebesgue_pow(u, p)
                rhs = a * l2_sq(u) + b * lebesgue_pow(u, q)
                assert lhs <= rhs * (1.0 + 1e-12)


class TestCutoffAndTails:
    def test_cutoff_values(self):
        assert cutoff_rho(0.0) == 0.0
        assert cutoff_rho(0.5) == 0.0
        assert cutoff_rho(1.0) == 0.0
        assert cutoff_rho(1.5) == 0.5
        assert cutoff_rho(2.0) == 1.0
        assert cutoff_rho(3.0) == 1.0
        with pytest.raises(ValueError):
            cutoff_rho(-0.1)

    def test_cutoff_monotone_and_smooth_range(self):
        s = np.linspace(0.0, 3.0, 301)
        r = cutoff_rho(s)
        assert np.all(np.diff(r) >= 0.0)
        assert np.all((r >= 0.0) & (r <= 1.0))

    def test_unit_field_tail(self):
        g = Grid(1, 1.0, 201)
        u = make_field(g, np.ones(g.shape))
        tm = tail_mass(u, 0.5)
        assert abs(tm.plain - 1.0) <= 0.02
        assert tm.rho_weighted <= tm.plain + 1e-15

    def test_rho_weighted_dominated(self):
        g = Grid(1, 8.0, 129)
        for seed in range(10):
            u = random_field(g, seed)
            tm = tail_mass(u, 3.0)
            assert tm.rho_weighted <= tm.plain + 1e-12
            assert tm.plain <= l2_sq(u) + 1e-12

    def test_tail_decreasing_in_k_for_localized_field(self):
        g = Grid(1, 8.0, 257)
        x = grid_arrays(g).coords
        u = make_field(g, np.exp(-x ** 2))
        masses = [tail_mass(u, k).plain for k in (1.0, 2.0, 3.0, 4.0)]
        assert all(m0 > m1 for m0, m1 in zip(masses, masses[1:]))

    def test_k_bounds(self):
        u = zero_field(Grid(1, 8.0, 65))
        for bad in (0.0, -1.0, 8.0, 9.0):
            with pytest.raises(ValueError):
                tail_mass(u, bad)


class TestHausdorff:
    def test_subset_gives_zero(self):
        g = Grid(1, 8.0, 65)
        a = [random_field(g, 1), random_field(g, 2)]
        b = a + [random_field(g, 3)]
        assert hausdorff_semidistance(a, b) == 0.0

    def test_asymmetry(self):
        g = Grid(1, 8.0, 65)
        near = zero_field(g)
        far = make_field(g, 5.0 * np.ones(g.shape))
        assert hausdorff_semidistance([near], [near, far]) == 0.0
        d = hausdorff_semidistance([near, far], [near])
        assert math.isclose(d, math.sqrt(l2_sq(far)), rel_tol=1e-12)

    def test_empty_sets(self):
        # A distance to or from an empty set is unknown, not zero.
        g = Grid(1, 8.0, 65)
        assert math.isnan(hausdorff_semidistance([], [zero_field(g)]))
        assert math.isnan(hausdorff_semidistance([zero_field(g)], []))
        assert math.isnan(hausdorff_semidistance([], []))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_member_gives_nan(self, bad):
        # Python's max(0.0, nan) is 0.0: a nan that comes second would
        # vanish.  A non-finite member, on either side, makes the distance
        # unknown.
        g = Grid(1, 8.0, 65)
        ok, far = zero_field(g), make_field(g, np.ones(g.shape))
        broken = Field(g, np.full(g.shape, bad))
        for a, b in (([ok], [broken]), ([broken], [ok]), ([ok, broken], [ok]),
                     ([far], [ok, broken]), ([ok], [broken, ok])):
            assert math.isnan(hausdorff_semidistance(a, b)), (a, b)

    def test_is_the_largest_nearest_l2_distance_bitwise(self):
        # The one weighted square sum, _sq_norm, measures the set distance.
        g = Grid(2, 1.3, 33)
        a = [random_field(g, s) for s in range(3)]
        b = [random_field(g, s) for s in range(3, 7)]
        assert hausdorff_semidistance(a, b) == max(
            min(l2_distance(f, h) for h in b) for f in a)

    def test_grid_mismatch(self):
        with pytest.raises(ValueError):
            hausdorff_semidistance([zero_field(Grid(1, 8.0, 65))],
                                   [zero_field(Grid(1, 8.0, 129))])

    def test_accepts_ensembles(self):
        g = Grid(1, 8.0, 65)
        ens = EndpointEnsemble(members=(zero_field(g),),
                               tag=EnsembleTag(tau=0.0))
        assert hausdorff_semidistance(ens, ens) == 0.0


class TestEnsemble:
    def test_spread(self):
        g = Grid(1, 8.0, 65)
        u = random_field(g, 21)
        v = random_field(g, 22)
        ens = EndpointEnsemble(members=(u, v), tag=EnsembleTag(tau=0.0))
        diff = make_field(g, u.values - v.values)
        assert math.isclose(ens.spread(), math.sqrt(l2_sq(diff)),
                            rel_tol=1e-12)
        single = EndpointEnsemble(members=(u,), tag=EnsembleTag(tau=0.0))
        assert single.spread() == 0.0
        # No member: the spread is unknown (no surviving run), not zero.
        empty = EndpointEnsemble(members=(), tag=EnsembleTag(tau=0.0))
        assert math.isnan(empty.spread())
        # A non-finite member makes it unknown too, wherever it sits.
        for bad in (math.nan, math.inf):
            broken = Field(g, np.full(g.shape, bad))
            for members in ((zero_field(g), broken, u), (broken, u),
                            (u, v, broken), (broken,)):
                ens_bad = EndpointEnsemble(members=members,
                                           tag=EnsembleTag(tau=0.0))
                assert math.isnan(ens_bad.spread()), members
        assert len(ens) == 2
        assert ens.failures == ()

    def test_spread_is_sqrt_of_largest_squared_distance_bitwise(self):
        # Weights 1.3/16 are not powers of two, so rounding would show.
        g = Grid(2, 1.3, 33)
        members = tuple(random_field(g, s) for s in range(4))
        w = grid_arrays(g).weights
        worst = max(float(np.sum(w * (f.values - h.values)
                                 * (f.values - h.values)))
                    for i, f in enumerate(members) for h in members[i + 1:])
        ens = EndpointEnsemble(members=members, tag=EnsembleTag(tau=0.0))
        assert ens.spread() == math.sqrt(worst)


class TestL2Distance:
    def test_symmetric_and_zero_on_self(self):
        g = Grid(1, 8.0, 65)
        u, v = random_field(g, 1), random_field(g, 2)
        assert l2_distance(u, v) == l2_distance(v, u) > 0.0
        assert l2_distance(u, u) == 0.0
        assert l2_distance(u, v) == math.sqrt(
            l2_sq(make_field(g, u.values - v.values)))


class TestSerialization:
    @pytest.mark.parametrize("grid", [Grid(1, 8.0, 65), Grid(2, 2.0, 17)])
    def test_csv_round_trip_bitwise(self, grid, tmp_path):
        u = random_field(grid, 31)
        path = tmp_path / "field.csv"
        field_to_csv(u, path)
        back = field_from_csv(path)
        assert back.grid == u.grid
        assert np.array_equal(back.values, u.values)

    @pytest.mark.parametrize("grid", [Grid(1, 8.0, 7), Grid(2, 2.0, 5)])
    def test_csv_bytes_match_csv_writer(self, grid, tmp_path):
        # The oracle is the csv module's writer: .17g cells, CRLF line ends.
        vals = np.zeros(grid.shape)
        vals.flat[1:6] = (-0.0, 5e-324, 1e300, np.nan, -np.inf)
        u = Field(grid, vals)
        field_to_csv(u, tmp_path / "got.csv")
        x = grid_arrays(grid).coords
        with open(tmp_path / "want.csv", "w", newline="") as fh:
            wr = csv.writer(fh)
            if grid.dim == 1:
                wr.writerow(["x", "value"])
                wr.writerows([f"{a:.17g}", f"{v:.17g}"]
                             for a, v in zip(x, vals))
            else:
                wr.writerow(["x", "y", "value"])
                wr.writerows([f"{a:.17g}", f"{b:.17g}", f"{vals[i, j]:.17g}"]
                             for i, a in enumerate(x) for j, b in enumerate(x))
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        for cell in (b",-0\r\n", b",4.9406564584124654e-324\r\n",
                     b",1.0000000000000001e+300\r\n", b",nan\r\n",
                     b",-inf\r\n"):
            assert cell in got

    @pytest.mark.parametrize("grid", [Grid(1, 8.0, 65), Grid(2, 2.0, 17)])
    def test_binary_round_trip_bitwise(self, grid, tmp_path):
        u = random_field(grid, 33)
        path = tmp_path / "field.bin"
        field_to_binary(u, path)
        back = field_from_binary(path)
        assert back.grid == u.grid
        assert np.array_equal(back.values, u.values)

    def test_binary_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(ValueError, match="not a field dump"):
            field_from_binary(path)

    def test_binary_rejects_truncated_payload(self, tmp_path):
        u = random_field(Grid(1, 8.0, 65), 1)
        path = tmp_path / "trunc.bin"
        field_to_binary(u, path)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(ValueError, match="payload"):
            field_from_binary(path)

    def test_csv_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,d\n")
        with pytest.raises(ValueError):
            field_from_csv(path)

    def _grid5_lines(self, tmp_path) -> list:
        u = random_field(Grid(2, 2.0, 5), 7)
        field_to_csv(u, tmp_path / "field.csv")
        return (tmp_path / "field.csv").read_bytes().decode().splitlines(True)

    @pytest.mark.parametrize("edit", ["drop", "duplicate"])
    def test_csv_rejects_a_missing_node(self, edit, tmp_path):
        # Row 13 of 25 is the centre node (2, 2); without it the file used
        # to read back 0.0 there.
        lines = self._grid5_lines(tmp_path)
        lines[13] = "" if edit == "drop" else lines[12]
        path = tmp_path / "holed.csv"
        path.write_text("".join(lines), newline="")
        with pytest.raises(ValueError, match="exactly one row per node"):
            field_from_csv(path)

    def test_csv_rejects_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x,value\r\n", newline="")
        with pytest.raises(ValueError, match="must hold 2 cells"):
            field_from_csv(path)

    def test_csv_rejects_a_short_row(self, tmp_path):
        lines = self._grid5_lines(tmp_path)
        lines[13] = lines[13].rsplit(",", 1)[0] + "\r\n"
        path = tmp_path / "short.csv"
        path.write_text("".join(lines), newline="")
        with pytest.raises(ValueError, match="must hold 3 cells"):
            field_from_csv(path)
