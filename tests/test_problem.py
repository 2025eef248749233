"""Model coefficients: exponents, envelope conditions, growth of forcing."""

import math

import numpy as np
import pytest

from plrds.fields import Grid, grid_arrays
from plrds.noise import EtaConfig
from plrds.problem import (ForcingNorms, NonlinearitySpec, ProblemSpec,
                           alpha_zero, check_growth_condition,
                           compile_expression, conjugate_exponent,
                           validate_structure)


class TestExponents:
    def test_conjugate_identity(self):
        for r in (2.0, 2.5, 3.0, 4.0, 6.0):
            r1 = conjugate_exponent(r)
            assert math.isclose(1.0 / r + 1.0 / r1, 1.0, rel_tol=1e-14)

    def test_conjugate_rejects_r_le_1(self):
        with pytest.raises(ValueError):
            conjugate_exponent(1.0)

    def test_alpha_zero_values(self):
        assert alpha_zero(1.0, 0.0) == 0.125
        assert alpha_zero(1.0, 1.0) == 0.0625
        assert alpha_zero(1.0, -1.0) == 0.0625  # |mean| enters

    def test_spec_derived_exponents(self):
        spec = ProblemSpec()
        assert math.isclose(spec.q1, 4.0 / 3.0, rel_tol=1e-14)  # q=4
        assert spec.gamma1 == 0.5 * spec.gamma

    def test_validation(self):
        with pytest.raises(ValueError):
            ProblemSpec(p=1.5)
        with pytest.raises(ValueError):
            ProblemSpec(p=3.0, q=2.0)
        with pytest.raises(ValueError):
            ProblemSpec(alpha=-0.1)
        with pytest.raises(ValueError):
            ProblemSpec(period=0.0)
        with pytest.raises(ValueError):
            ProblemSpec(noise_case="impulsive")


class TestEnvelopes:
    def test_default_family_zero_violations(self):
        rep = validate_structure(ProblemSpec(), sample_count=100_000, seed=0)
        assert rep.violation_count == 0, rep.worst_margin
        assert set(rep.checked) == {"C1", "C2", "C3", "C4"}

    def test_default_family_zero_violations_2d(self):
        rep = validate_structure(ProblemSpec(), sample_count=20_000, seed=1,
                                 dim=2)
        assert rep.violation_count == 0, rep.worst_margin

    def test_antidissipative_f_violates_C1(self):
        # f = +s^3 grows the wrong way: f*s = s^4 overwhelms the envelope.
        bad = ProblemSpec(nonlinearity=NonlinearitySpec(kind="custom",
                                                        expression="s**3"))
        rep = validate_structure(bad, sample_count=20_000, seed=0)
        assert rep.violation_count > 0
        conds = {v["condition"] for v in rep.violations if "condition" in v}
        assert "C1" in conds

    def test_envelope_values(self):
        spec = ProblemSpec()  # gamma=1, q=4, q1=4/3
        assert spec.psi2_value() == spec.gamma + 1.0
        assert spec.psi4_value() == 0.0
        assert spec.psi5_value() == spec.gamma * (spec.q - 1.0) + 1.0
        expected_c = (1.0 / spec.q1) * (spec.q * spec.gamma / 2.0) ** (-spec.q1 / spec.q)
        assert math.isclose(spec.c_psi, expected_c, rel_tol=1e-14)

    def test_power_f_prime_matches_analytic(self):
        spec = ProblemSpec()
        s = np.linspace(-3.0, 3.0, 41)
        fp = spec.f_prime_pointwise(0.3, s * 0.0, s * 0.0, s)
        analytic = -spec.gamma * (spec.q - 1.0) * np.abs(s) ** (spec.q - 2.0)
        assert np.allclose(fp, analytic, atol=1e-12)

    def test_forcing_time_periodicity(self):
        spec = ProblemSpec()
        t = np.arange(0.0, 1.0, 0.001)
        assert np.allclose(spec.phi_time(t), spec.phi_time(t + 1.0),
                           rtol=0.0, atol=1e-11)
        assert np.allclose(spec.g_time(t), spec.g_time(t + 3.0),
                           rtol=0.0, atol=1e-11)


class TestCompileExpression:
    def test_basic_arithmetic(self):
        fn = compile_expression("-s**3 + 0.5*sin(2*t)")
        assert math.isclose(fn(t=0.25, x=0.0, y=0.0, s=2.0),
                            -8.0 + 0.5 * math.sin(0.5), rel_tol=1e-14)

    def test_vectorized(self):
        fn = compile_expression("abs(s)*s")
        s = np.array([-2.0, 3.0])
        assert np.array_equal(fn(t=0.0, x=0.0, y=0.0, s=s),
                              np.array([-4.0, 9.0]))

    def test_rejects_attribute_access(self):
        with pytest.raises(ValueError):
            compile_expression("s.__class__")

    def test_rejects_unknown_names(self):
        with pytest.raises(ValueError):
            compile_expression("open('x')")
        with pytest.raises(ValueError):
            compile_expression("__import__('os').system('ls')")

    def test_rejects_unknown_function(self):
        with pytest.raises(ValueError):
            compile_expression("tan(s)")


class TestForcingNorms:
    def test_g_l2_sq_matches_direct_quadrature(self):
        spec = ProblemSpec()
        grid = Grid(1, 8.0, 257)
        arrs = grid_arrays(grid)
        norms = ForcingNorms(spec, grid)
        for t in (0.0, 0.37, 0.5):
            gvals = spec.g_time(t) * np.exp(-arrs.radial_sq)
            direct = float(np.sum(arrs.weights * gvals ** 2))
            assert math.isclose(float(norms.g_l2_sq(t)), direct, rel_tol=1e-12)

    def test_periodicity(self):
        norms = ForcingNorms(ProblemSpec(), Grid(1, 8.0, 65))
        t = np.arange(0.0, 1.0, 0.01)
        assert np.allclose(norms.total(t), norms.total(t + 1.0),
                           rtol=0.0, atol=1e-11)

    def test_amplitude_scaling_is_quadratic_for_g(self):
        grid = Grid(1, 8.0, 65)
        n1 = ForcingNorms(ProblemSpec(g_amp=0.5), grid)
        n2 = ForcingNorms(ProblemSpec(g_amp=1.0), grid)
        t = np.array([0.1, 0.4])
        assert np.allclose(n2.g_l2_sq(t), 4.0 * n1.g_l2_sq(t), rtol=1e-14)


class TestGrowthCondition:
    def test_default_forcing_is_summable(self):
        spec = ProblemSpec()
        forcing = ForcingNorms(spec, Grid(1, 8.0, 65))
        rep = check_growth_condition(spec, tau=0.0, integrand=forcing.total)
        assert rep.finite
        assert rep.value > 0.0

    def test_bounded_integrand_value(self):
        # constant integrand B: integral of B e^{lam s} up to 0 is B/lam.
        rep = check_growth_condition(ProblemSpec(), tau=0.0,
                                     integrand=lambda s: np.full(len(s), 2.0))
        assert rep.finite
        assert math.isclose(rep.value, 2.0, rel_tol=1e-3)

    def test_weight_cancelling_integrand_flagged(self):
        # integrand e^{-2 lam s} grows backward exactly as fast as the
        # weight decays squared: the weighted integrand explodes at the edge.
        spec = ProblemSpec()
        rep = check_growth_condition(
            spec, tau=0.0, integrand=lambda s: np.exp(-2.0 * spec.lam * s))
        assert not rep.finite

    def test_eta_mean_enters_alpha_max(self):
        spec = ProblemSpec(eta=EtaConfig(kind="shifted-ou", mean=1.0))
        assert math.isclose(spec.alpha_max, 0.0625, rel_tol=1e-14)
        spec0 = ProblemSpec(eta=EtaConfig(kind="shifted-ou", mean=0.0))
        assert math.isclose(spec0.alpha_max, 0.125, rel_tol=1e-14)
