"""Mutation tests for the check library: each family, run at its FAST
sizes, fails once a fault is injected into what it checks."""

import dataclasses

import numpy as np
import pytest

from polylab import functionals, verify


def shift_theta(solve):
    """Every stored theta layer gains 1e-3 per site."""
    def shifted(inst, **kwargs):
        sol = solve(inst, **kwargs)
        return dataclasses.replace(sol, theta_layers=[t + 1e-3 for t in sol.theta_layers])
    return shifted


def scale_h(law):
    return dataclasses.replace(law, h_closed_form=lambda x: 1.01 * law.h_closed_form(x))


@pytest.mark.parametrize("family,owner,name,fault,failing", [
    ("law_battery", verify, "LAW", scale_h,
     {"law_h_positivity", "law_poincare_constant", "law_ibp_battery"}),
    ("oracle_equivalence", verify, "forward_backward", shift_theta, {"oracle_equivalence"}),
    ("beta0_reduction", verify, "binomial_marginal",
     lambda marginal: lambda k: np.roll(marginal(k), 1), {"beta0_binomial_reduction"}),
    ("layer_normalization", verify, "forward_backward", shift_theta,
     {"layer_normalization"}),
    ("chain_and_floors", functionals, "alpha_profile",
     lambda profile: lambda sol: 1e-3 * profile(sol),
     {"proposition1_chain", "alpha_floor_bounds"}),
    ("zero_layer_bounds", verify, "layer_theta",
     lambda zeta: lambda *args: zeta(*args) + 1e-3, {"zeta_sandwich"}),
    ("derivative_identity", verify, "forward_backward", shift_theta,
     {"derivative_identity"}),
])
def test_injected_fault_fails_family(monkeypatch, family, owner, name, fault, failing):
    monkeypatch.setattr(owner, name, fault(getattr(owner, name)))
    records = getattr(verify, family)(**verify.FAST[family])
    assert {rec["name"] for rec in records if not rec["passed"]} == failing
