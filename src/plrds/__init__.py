"""Numerical laboratory for pullback dynamics of stochastically forced
p-Laplace reaction-diffusion models with additive or multiplicative noise."""

__version__ = "0.1.0"

from .analysis import (AbsorbingReport, RadiusReport, TailReport, UscReport,
                       absorbing_check, absorbing_radius,
                       alpha_solution_distances, energy_audit,
                       estimate_attractor, sample_initial_ball, tail_check,
                       usc_sweep)
from .fields import (EndpointEnsemble, EnsembleTag, Field, Grid, TailMass,
                     cutoff_rho, field_from_binary, field_from_csv,
                     field_to_binary, field_to_csv, hausdorff_semidistance,
                     l2_sq, lebesgue_pow, make_field, p_dissipation,
                     p_laplace, tail_mass, zero_field)
from .integrator import (PullbackResult, StepperConfig, StiffnessError,
                         TrajectoryRecord, cocycle_apply, pullback_run,
                         stable_dt_bound, transform_u_to_v, transform_v_to_u)
from .noise import (EtaConfig, NoisePath, OUPath, ShiftedView,
                    ergodic_diagnostics, make_eta, make_path, ou_from_path,
                    shift, snap_steps)
from .problem import (ForcingNorms, GrowthReport, NonlinearitySpec,
                      ProblemSpec, StructureReport, alpha_zero,
                      check_growth_condition, conjugate_exponent,
                      validate_structure)

__all__ = [name for name in dir() if not name.startswith("_")]
