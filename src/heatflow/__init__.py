"""Numerical laboratory for the harmonic map heat flow on the unit disk."""

__version__ = "0.1.0"

from .mesh import (CellVectorField, DiskMesh, Field, build_disk_mesh, gradient,
                   interpolate, jacobian_product, load_mesh, norms,
                   perp_gradient, save_mesh, weak_div_curl)
from .manifold import (CliffordTorus, ConnectionForm, LevelSetManifold,
                       RevolutionTorus, Sphere, TargetManifold, assemble_omega,
                       normal_deviation_check)
from .elliptic import (HodgePair, PoissonSolution, WenteSolution,
                       hodge_decompose, poisson_dirichlet, psi_energy_density,
                       wente_solve)
from .flow import (ConvexityReport, FlowState, FlowTrajectory,
                   cauchy_certificate, convexity_report, cross_term_check,
                   decay_identity_residual, dirichlet_energy, initial_state,
                   run_flow, step, tension, ut_monotonicity_check)
from .gauge import (ConservationFrame, GaugeFrame, PStructure, b_sup_estimate,
                    conservation_residual, construct_AB, gauge_frame,
                    minimize_gauge, p_oscillation, p_structure, recover_xi,
                    synthetic_gauge)
from .hardy import (BumpProfile, HardyEstimator, build_bump, h1_energy_check,
                    pointwise_lower_bound_check)
from .lab import (ScenarioConfig, load_config, run_scenario, validate_config,
                  verify_suite)
