"""Property tests of the bitwise laws on a small grid (1D n = 17, dt = 0.01).

Over noise seeds, initial states from the ball and on-grid times drawn by
Hypothesis, each law must hold to the last bit: composition at any leg
split, runs started a whole forcing period apart, the reduction of the
zero-intensity noise models to the noise-free run, and OU values over a
window equal to those over its two parts.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from plrds.analysis import sample_initial_ball  # noqa: E402
from plrds.fields import Grid  # noqa: E402
from plrds.integrator import StepperConfig, cocycle_apply  # noqa: E402
from plrds.noise import make_path, ou_from_path, shift  # noqa: E402
from plrds.problem import ProblemSpec  # noqa: E402

GRID = Grid(1, 8.0, 17)
CFG = StepperConfig(dt=0.01)
SPECS = {"additive": ProblemSpec(noise_case="additive"),
         "multiplicative": ProblemSpec(noise_case="multiplicative", alpha=0.1),
         "deterministic": ProblemSpec(noise_case="deterministic", alpha=0.0,
                                      epsilon=0.0)}

LAWS = settings(derandomize=True, deadline=None, database=None,
                max_examples=25)
seeds = st.integers(0, 2**32 - 1)
cases = st.sampled_from(sorted(SPECS))
steps = st.integers(-150, 150)       # an on-grid time, in steps of dt


def ball_state(sampler_seed: int, radius: float):
    return sample_initial_ball(GRID, radius, 1, sampler_seed)[0]


def run(k: int, tau_k: int, path, u0, spec):
    """cocycle_apply over k steps from tau_k * dt."""
    return cocycle_apply(k * CFG.dt, tau_k * CFG.dt, path, u0, spec, CFG)


@LAWS
@given(case=cases, seed=seeds, sampler_seed=seeds,
       radius=st.floats(0.1, 4.0), tau_k=steps,
       legs=st.tuples(st.integers(1, 60), st.integers(1, 60)))
def test_composition_at_any_leg_split(case, seed, sampler_seed, radius,
                                      tau_k, legs):
    spec, (k1, k2) = SPECS[case], legs
    path = make_path(seed, CFG.dt)
    u0 = ball_state(sampler_seed, radius)
    whole = run(k1 + k2, tau_k, path, u0, spec)
    first = run(k1, tau_k, path, u0, spec)
    second = run(k2, tau_k + k1, shift(path, k1 * CFG.dt), first, spec)
    assert np.array_equal(whole.values, second.values)


@LAWS
@given(case=cases, seed=seeds, sampler_seed=seeds,
       radius=st.floats(0.1, 4.0), tau_k=steps, k=st.integers(1, 120),
       periods=st.integers(-3, 3).filter(bool))
def test_runs_a_whole_period_apart_are_equal(case, seed, sampler_seed, radius,
                                             tau_k, k, periods):
    spec = SPECS[case]
    period_k = round(spec.period / CFG.dt)
    path = make_path(seed, CFG.dt)
    u0 = ball_state(sampler_seed, radius)
    assert np.array_equal(
        run(k, tau_k, path, u0, spec).values,
        run(k, tau_k + periods * period_k, path, u0, spec).values)


@LAWS
@given(seed=seeds, sampler_seed=seeds, radius=st.floats(0.1, 4.0),
       tau_k=steps, k=st.integers(1, 120))
def test_zero_intensity_reduces_to_the_noise_free_run(seed, sampler_seed,
                                                      radius, tau_k, k):
    path = make_path(seed, CFG.dt)
    u0 = ball_state(sampler_seed, radius)
    free = run(k, tau_k, None, u0, SPECS["deterministic"]).values
    for spec in (ProblemSpec(noise_case="additive", alpha=0.0, epsilon=0.0),
                 ProblemSpec(noise_case="multiplicative", alpha=0.0)):
        assert np.array_equal(run(k, tau_k, path, u0, spec).values, free)


@LAWS
@given(seed=seeds, m=st.sampled_from((1, 2, 4)), rate=st.floats(0.5, 4.0),
       k0=st.integers(-300, 300), left=st.integers(0, 120),
       right=st.integers(0, 120))
def test_ou_window_is_the_concatenation_of_its_parts(seed, m, rate, k0, left,
                                                     right):
    # Path step 5e-3 in blocks of 0.2: OU blocks of 40 / m nodes, so the
    # windows and the split cross block boundaries.
    dt = m * 5e-3
    path = make_path(seed, 5e-3, block_length=0.2)
    ks = k0 + left
    whole = ou_from_path(path, rate, k0 * dt, (ks + 1 + right) * dt, dt)
    parts = [ou_from_path(path, rate, a * dt, b * dt, dt).values
             for a, b in ((k0, ks), (ks + 1, ks + 1 + right))]
    assert np.array_equal(whole.values, np.concatenate(parts))
