"""The public API of the polylab package: the names it exports, pinned, so
that every change to them is a deliberate diff of this list."""

import dataclasses
import inspect
import types

import polylab

PUBLIC = [
    "EnvironmentLaw", "ExperimentConfig", "LawValidationError",
    "LocalizationReport", "NumericalError", "PolymerInstance",
    "ReplicationRecord", "ThetaSolution", "alpha_floor", "alpha_profile",
    "brute_force", "build_report", "check_ibp", "check_poincare",
    "check_poincare_tensorized", "counter_uniform", "derive_seed", "ell",
    "env_layer", "env_value", "forward_backward", "gamma_tau_profiles",
    "histogram", "kappa", "layer_theta", "make_table_law", "make_uniform",
    "neighbors", "parse_law_spec", "phi", "poincare_constant",
    "primed_estimates", "replication_seed", "rho", "run_replications", "sample_paths", "scaling_study", "summary_stats",
    "theta_derivative_check",
]


def test_public_names_are_pinned():
    """Names of polylab itself; its submodules are not part of the list."""
    names = sorted(name for name, value in vars(polylab).items()
                   if not name.startswith("_")
                   and not isinstance(value, types.ModuleType))
    assert names == PUBLIC


def test_public_names_resolve():
    """Each name is a class or function of a polylab module."""
    for name in PUBLIC:
        value = getattr(polylab, name)
        assert callable(value), name
        assert value.__module__.startswith("polylab."), name


def test_a_solution_carries_its_instance():
    """ThetaSolution holds its PolymerInstance and no copy of its fields, and
    the functions of one solved environment take no second instance that
    could disagree with it."""
    fields = [f.name for f in dataclasses.fields(polylab.ThetaSolution)]
    assert fields == ["instance", "theta_layers", "log_partition", "layer_lognorms",
                      "forward_layers", "alpha", "path_dp", "replaced"]
    assert not any(hasattr(polylab.ThetaSolution, name)
                   for name in ("d", "n", "beta", "seed"))
    for fn, params in [(polylab.build_report, ["solution"]),
                       (polylab.gamma_tau_profiles, ["solution"]),
                       (polylab.theta_derivative_check, ["solution", "k", "x"])]:
        assert list(inspect.signature(fn).parameters) == params, fn.__name__
