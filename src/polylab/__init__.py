"""Exact Gibbs-measure simulation and localization diagnostics for directed
polymers in bounded i.i.d. random environments."""

from .engine import (NumericalError, PolymerInstance, ThetaSolution,
                     brute_force, env_layer, env_value, forward_backward,
                     layer_theta, sample_paths, theta_derivative_check)
from .functionals import (LocalizationReport, alpha_floor, alpha_profile,
                          build_report, ell, gamma_tau_profiles, primed_estimates, rho)
from .harness import (ExperimentConfig, ReplicationRecord, histogram,
                      parse_law_spec, run_replications, scaling_study,
                      summary_stats)
from .lattice import neighbors
from .laws import (EnvironmentLaw, LawValidationError, check_ibp,
                   check_poincare, check_poincare_tensorized, kappa,
                   make_table_law, make_uniform, phi, poincare_constant)
from .rng import counter_uniform, derive_seed, replication_seed

__version__ = "0.1.0"
