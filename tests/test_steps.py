"""The step rule: every function that takes a step k reads it through
PolymerInstance.step, so each one refuses a bool, a non-integer and a step
outside 1..n in the same way, and takes a numpy integer as the int it
equals."""

import re

import numpy as np
import pytest

from polylab.engine import (PolymerInstance, env_layer, env_value,
                            forward_backward, layer_theta,
                            theta_derivative_check)
from polylab.functionals import primed_estimates
from polylab.laws import make_uniform

from paths import psi

N = 6
INST = PolymerInstance(d=1, n=N, beta=1.5, law=make_uniform(-1.0, 1.0), seed=11)
SOL = forward_backward(INST)
PATH = np.array([[1], [2], [1], [2], [3], [2]])
SITE = (1,)                     # reachable at the good step, 3

CALLERS = {
    "step": INST.step,
    "env_layer": lambda k: env_layer(INST, k),
    "env_value": lambda k: env_value(INST, k, SITE),
    "theta_array": SOL.theta_array,
    "theta_value": lambda k: SOL.theta_value(k, SITE),
    "forward_backward(layer_omega=)":
        lambda k: forward_backward(INST, layer_omega={k: 0.25}).log_partition,
    "layer_theta": lambda k: layer_theta(INST, k, 0.0),
    "primed_estimates": lambda k: primed_estimates(INST, k, 100),
    "theta_derivative_check": lambda k: theta_derivative_check(SOL, k, SITE),
    "psi": lambda k: psi(INST, PATH, [k]),          # the tests' reference
}

BAD_STEPS = [
    (True, TypeError, "step must be an int"),
    (2.5, TypeError, "step must be an int"),
    ("3", TypeError, "step must be an int"),
    (0, ValueError, f"step 0 outside 1..{N}"),
    (N + 1, ValueError, f"step {N + 1} outside 1..{N}"),
]


def bits(value):
    """The bytes of value's floats, through tuples and arrays."""
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    return np.asarray(value, dtype=np.float64).tobytes()


@pytest.mark.parametrize("caller", CALLERS)
@pytest.mark.parametrize("k,error,message", BAD_STEPS,
                         ids=[repr(k) for k, _, _ in BAD_STEPS])
def test_bad_step_raises(caller, k, error, message):
    with pytest.raises(error, match=re.escape(message)):
        CALLERS[caller](k)


@pytest.mark.parametrize("caller", CALLERS)
def test_numpy_integer_step_is_bit_for_bit_the_int(caller):
    assert bits(CALLERS[caller](np.int64(3))) == bits(CALLERS[caller](3))


def test_step_returns_a_python_int():
    assert type(INST.step(np.int64(3))) is int
    assert INST.step(3) == 3
