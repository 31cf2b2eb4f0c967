"""Paths of n sites, checked and summed: the references the tests hold the
ell paths, the sampled Gibbs paths and gamma_tau_profiles against.  No
program needs them, so they live with the tests, not in polylab."""

import numpy as np

from polylab.engine import env_value


def validate_path(path: np.ndarray, d: int) -> None:
    """Check the path invariants; raise ValueError on the first violation.

    path: integer array of shape (n, d), sites for steps 1..n; any other
    dtype, bool included, raises TypeError.  The sites are read as int64,
    so an unsigned path steps back without wrapping around; an unsigned
    site past the int64 range, which would wrap, is off every cone.
    """
    path = np.asarray(path)
    if not np.issubdtype(path.dtype, np.integer):
        raise TypeError(f"path must be an integer array, got dtype {path.dtype}")
    if np.any(path > np.iinfo(np.int64).max):
        raise ValueError("path leaves the reachability cone")
    path = path.astype(np.int64, copy=False)
    if path.ndim != 2 or path.shape[1] != d:
        raise ValueError(f"path must have shape (n, {d}), got {path.shape}")
    n = path.shape[0]
    if n < 1:
        raise ValueError("path must have at least one site")
    if np.abs(path[0]).sum() != 1:
        raise ValueError("first site must be adjacent to the origin")
    steps = np.abs(np.diff(path, axis=0)).sum(axis=1)
    if n > 1 and np.any(steps != 1):
        k = int(np.argmax(steps != 1)) + 1
        raise ValueError(f"sites at steps {k} and {k + 1} are not neighbors")
    l1 = np.abs(path).sum(axis=1)
    ks = np.arange(1, n + 1)
    if np.any(l1 > ks) or np.any((l1 - ks) % 2 != 0):
        raise ValueError("path leaves the reachability cone")


def psi(instance, path, steps):
    """sum over the distinct k of steps of h(omega_{k, x_k}) along the path,
    which has one site for each of the instance's n steps: the path sum whose
    Gibbs average over paths is the sum of gamma_k over the same steps.  A
    path that is not one of the instance's, or a step outside 1..n, raises,
    so the tests that hold gamma_tau_profiles against it cannot pass on a
    misread path."""
    path = np.asarray(path)
    validate_path(path, instance.d)
    if path.shape[0] != instance.n:
        raise ValueError(f"path has {path.shape[0]} sites, not n={instance.n}")
    return sum(float(instance.law.h(env_value(instance, k, tuple(path[k - 1]))
                                    + instance.omega_shift))
               for k in sorted(set(map(instance.step, steps))))
