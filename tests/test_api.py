"""The public surface: the names plrds exports, and one default per knob
shared by the library's entry points and the CLI."""

import inspect

import pytest

import plrds
from plrds import analysis
from plrds.config import RunConfig
from plrds.fields import Grid
from plrds.noise import NoisePath, make_path

# Any added or removed public name shows up as a diff of this list.
PUBLIC = [
    "AbsorbingReport", "EndpointEnsemble", "EnsembleTag", "EtaConfig",
    "Field", "ForcingNorms", "Grid", "GrowthReport", "NoisePath",
    "NonlinearitySpec", "OUPath", "ProblemSpec", "PullbackResult",
    "RadiusReport", "ShiftedView", "StepperConfig", "StiffnessError",
    "StructureReport", "TailMass", "TailReport", "TrajectoryRecord",
    "UscReport", "absorbing_check", "absorbing_radius",
    "alpha_solution_distances", "alpha_zero", "analysis",
    "check_growth_condition", "cocycle_apply", "conjugate_exponent",
    "cutoff_rho", "energy_audit", "ergodic_diagnostics", "estimate_attractor",
    "field_from_binary", "field_from_csv", "field_to_binary", "field_to_csv",
    "fields", "hausdorff_semidistance", "integrator", "l2_sq",
    "lebesgue_pow", "make_eta", "make_field", "make_path", "noise",
    "ou_from_path", "p_dissipation", "p_laplace", "problem", "pullback_run",
    "sample_initial_ball", "shift", "snap_steps", "stable_dt_bound",
    "tail_check", "tail_mass", "transform_u_to_v", "transform_v_to_u",
    "usc_sweep", "validate_structure", "zero_field",
]


def test_public_names_are_pinned():
    assert sorted(plrds.__all__) == PUBLIC


# The library defaults that differ from the CLI's on purpose: one [experiment]
# horizon key serves five experiments, and the library's attractor estimate
# samples more initial states than the CLI's.
DELIBERATE = {("tail_check", "horizon"): 32.0,
              ("usc_sweep", "horizon"): 16.0,
              ("estimate_attractor", "n_initials"): 4}
# Library arguments with no config key.
NO_KEY = {("estimate_attractor", "check_contraction")}

ENTRY_POINTS = [analysis.sample_initial_ball, analysis.absorbing_radius,
                analysis.absorbing_bound, analysis.absorbing_check,
                analysis.tail_check, analysis.estimate_attractor,
                analysis.usc_sweep, analysis.alpha_solution_distances,
                make_path, NoisePath, Grid]


def cli_default(cfg: RunConfig, name: str):
    """What the CLI passes for the library argument name by default."""
    built = {"grid": cfg.grid(), "cfg": cfg.stepper(),
             "seed": cfg.sampler_seed,
             # A cluster_tol of 0 asks for the library's default, None.
             "cluster_tol": cfg.cluster_tol or None}
    return built[name] if name in built else getattr(cfg, name)


@pytest.mark.parametrize("fn", ENTRY_POINTS, ids=lambda fn: fn.__name__)
def test_library_defaults_are_the_cli_defaults(fn):
    cfg, compared = RunConfig(), 0
    for name, param in inspect.signature(fn).parameters.items():
        key = (fn.__name__, name)
        if param.default is inspect.Parameter.empty or key in NO_KEY:
            continue
        expected = DELIBERATE.get(key, cli_default(cfg, name))
        assert param.default == expected, key
        compared += 1
    assert compared
