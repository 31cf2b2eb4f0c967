"""The four benchmark workloads: inputs from the workload seed, the timed
call into polylab's public API, and the checks on its outputs.

Each workload fixes the work per item, so items cost the same whatever the
seed; the seed only picks environment seeds (and, once per run, the layer k of
``conditional``).  Inputs of call i in pass p come from (seed, p, i), so a
warm-up pass, the measured pass and a traced pass never share inputs.
Library functions are looked up through their modules at call time, which
lets the tracer's wrappers see every call.
"""

from __future__ import annotations

import math
import os
import sys
from pathlib import Path

import numpy as np

EPS = np.finfo(np.float64).eps
DEFAULT_SEED = 1
WARMUP_PASS, MEASURED_PASS, TRACED_PASS = 2, 0, 1


def draw(seed, *tags):
    """A 62-bit integer that is a pure function of (seed, *tags)."""
    return int(np.random.default_rng([seed, *tags]).integers(1 << 62))


def polylab_modules():
    import polylab  # noqa: F401  (the package import registers the submodules)
    return {name: sys.modules["polylab." + name]
            for name in ("engine", "functionals", "harness")}


class Workload:
    """A subclass sets name, reference_calls (calls of the default seed kept
    in reference.json) and terms (see tolerance), and defines setup(),
    warmup(), call(i, pass_id) -> output, items(output), values(output) ->
    one float tuple per item, and problems(i, output) -> failed checks."""

    single_call = False          # one call per run instead of a timed loop
    extra = 0.0                  # tolerance beyond float64 rounding

    def __init__(self, seed, seconds, work_dir):
        self.seed = seed
        self.seconds = seconds
        self.work_dir = Path(work_dir)
        self.pl = polylab_modules()

    def uniform_law(self):
        law = self.pl["harness"].parse_law_spec("uniform:-1,1")
        law.validate()
        return law

    def reference_index(self, i, pass_id):
        """Which reference.json entry call i of a pass must match, or None:
        only the default seed's measured pass has stored values."""
        return i if (self.seed, pass_id) == (DEFAULT_SEED, MEASURED_PASS) else None

    def tolerance(self, expected):
        """Allowed |got - expected|: float64 rounding over the longest
        reduction that feeds the value (self.terms), plus self.extra."""
        return (EPS * self.terms + self.extra) * max(1.0, abs(expected))

    def chain_problems(self, tag, rho, ell, log_z, d, n):
        out = []
        if not (1.0 / (3 ** d * n) <= rho <= 1.0):
            out.append(f"{tag}: rho={rho!r} outside [1/(3^d n), 1]")
        if not (ell * ell <= rho + 1e-12 and rho <= ell + 1e-12):
            out.append(f"{tag}: overlap chain ell^2 <= rho <= ell fails "
                       f"(rho={rho!r}, ell={ell!r})")
        if log_z is not None and not math.isfinite(log_z):
            out.append(f"{tag}: log Z={log_z!r} is not finite")
        return out


class Figure1(Workload):
    """One run_replications call on the figure-1 config per run."""

    name = "figure1"
    single_call = True
    reference_calls = 1
    reps_per_second = 13         # seed-commit rate on a 2-core Xeon; sets R
    reference_reps = 256
    d, n, beta, spec = 1, 300, 3.0, "uniform:-1,1"
    terms = 300 * 601            # log Z: n normalizers of up to 601 cells

    def setup(self):
        self.uniform_law()
        self.reps = max(4, round(self.reps_per_second * self.seconds))

    def config(self, pass_id, reps):
        return self.pl["harness"].ExperimentConfig(
            d=self.d, n=self.n, beta=self.beta, law_spec=self.spec,
            replications=reps, base_seed=draw(self.seed, pass_id))

    def warmup(self):
        self.pl["harness"].run_replications(self.config(WARMUP_PASS, 4), workers=1)

    def call(self, i, pass_id):
        cfg = self.config(pass_id, self.reps)
        return self.pl["harness"].run_replications(cfg, workers=1)

    def items(self, out):
        return len(out)

    def values(self, out):
        return [(r.rho, r.ell, r.log_partition) for r in out]

    def problems(self, i, out):
        bad = []
        if [r.index for r in out] != list(range(self.reps)):
            bad.append("records missing or out of order")
        for r in out:
            bad += self.chain_problems(f"replication {r.index}", r.rho, r.ell,
                                       r.log_partition, self.d, self.n)
        return bad


class ScalingD3(Workload):
    """scaling_study(3, 8/16/32) at beta=0: dense stencil and the ell DP."""

    name = "scaling_d3"
    grid = (8, 16, 32)
    reference_calls = 1
    terms = 32 * 65 ** 3         # n layers of up to 65^3 cells

    def setup(self):
        self.law = self.uniform_law()
        self.solved = None

    def warmup(self):
        self.call(0, WARMUP_PASS)

    def call(self, i, pass_id):
        return self.pl["harness"].scaling_study(
            3, list(self.grid), base_seed=draw(self.seed, pass_id, i),
            law_spec="uniform:-1,1")

    def items(self, out):
        return len(out[0])

    def values(self, out):
        rows, slope = out
        return [(ell, rho) for _, ell, rho in rows] + [(slope,)]

    def reference_index(self, i, pass_id):
        """The beta=0 measure does not depend on the seed, so every call of
        every pass and seed must match the one stored call."""
        return 0

    def _theta_sums(self):
        """max |sum theta - 1| over the layers of a direct solve per n; the
        measure is the same for every seed, so one solve per n serves every
        call."""
        if self.solved is None:
            eng = self.pl["engine"]
            self.solved = {}
            for n in self.grid:
                sol = eng.forward_backward(
                    eng.PolymerInstance(d=3, n=n, beta=0.0, law=self.law, seed=n),
                    keep_forward=False)
                self.solved[n] = max(abs(float(t.sum()) - 1.0)
                                     for t in sol.theta_layers)
        return self.solved

    def problems(self, i, out):
        rows, slope = out
        bad = []
        if [r[0] for r in rows] != list(self.grid):
            bad.append(f"rows cover n={[r[0] for r in rows]}, not {self.grid}")
            return bad
        for n, ell, rho in rows:
            worst = self._theta_sums()[n]
            if worst > 1e-10:
                bad.append(f"n={n}: |sum theta - 1| = {worst:.3g} > 1e-10")
            bad += self.chain_problems(f"n={n}", rho, ell, None, 3, n)
        if not (-1.3 <= slope <= -0.7):
            bad.append(f"d=3 slope {slope!r} outside criterion 08's [-1.3, -0.7]")
        return bad


class TableLaw(Workload):
    """A d=1, n=30, beta=3 replication under a tabulated law per call."""

    name = "table_law"
    reference_calls = 64
    d, n, beta = 1, 30, 3.0
    terms = 30 * 61
    # The table law's quantile bisects to 1e-12 of the support width (2), and
    # an omega error delta moves log Z by <= beta*n*delta and theta by <=
    # 2*beta*n*delta relatively.
    extra = 4 * 3.0 * 30 * 2e-12

    def setup(self):
        self.work_dir.mkdir(parents=True, exist_ok=True)
        path = self.work_dir / f"density_{os.getpid()}.csv"
        xs = np.linspace(-1.0, 1.0, 201)
        with open(path, "w") as fh:
            fh.write("x,f\n")
            for x in xs:
                fh.write(f"{x:.17g},{max(0.0, 1.0 - x * x):.17g}\n")
        try:
            self.law = self.pl["harness"].parse_law_spec(f"table:{path}")
        finally:
            path.unlink()
        self.law.validate()

    def warmup(self):
        self.call(0, WARMUP_PASS)

    def call(self, i, pass_id):
        eng, fun = self.pl["engine"], self.pl["functionals"]
        inst = eng.PolymerInstance(d=self.d, n=self.n, beta=self.beta,
                                   law=self.law, seed=draw(self.seed, pass_id, i))
        sol = eng.forward_backward(inst, keep_forward=False)
        return fun.rho(sol), fun.ell(sol)[0], sol.log_partition

    def items(self, out):
        return 1

    def values(self, out):
        return [out]

    def problems(self, i, out):
        return self.chain_problems(f"call {i}", *out, self.d, self.n)


class Conditional(Workload):
    """primed_estimates(instance, k, 100) on criterion 06's instance."""

    name = "conditional"
    reference_calls = 24
    d, n, beta, resamples = 1, 40, 3.0, 100
    terms = 100 * 40 * 81        # resamples x layers x cells of the last layer

    def setup(self):
        self.law = self.uniform_law()
        # One k per run: the redrawn layer's box enters the work per call.
        self.k = 1 + draw(self.seed) % self.n

    def inputs(self, i, pass_id):
        eng = self.pl["engine"]
        inst = eng.PolymerInstance(d=self.d, n=self.n, beta=self.beta,
                                   law=self.law, seed=draw(self.seed, pass_id, i))
        return inst, self.k

    def warmup(self):
        self.call(0, WARMUP_PASS)

    def call(self, i, pass_id):
        inst, k = self.inputs(i, pass_id)
        alpha_hat, gamma_hat, (alpha_se, gamma_se) = \
            self.pl["functionals"].primed_estimates(inst, k, self.resamples)
        return pass_id, alpha_hat, gamma_hat, alpha_se, gamma_se

    def items(self, out):
        return 1

    def values(self, out):
        return [out[1:]]

    def problems(self, i, out):
        pass_id, alpha_hat, gamma_hat, alpha_se, gamma_se = out
        if not all(map(math.isfinite, out[1:])):
            return [f"call {i}: non-finite estimate {out[1:]!r}"]
        inst, k = self.inputs(i, pass_id)
        sol = self.pl["engine"].forward_backward(inst, keep_forward=False)
        alpha_k = float((sol.theta_array(k) ** 2).sum())
        bound = math.exp(4 * self.beta * self.law.width) * alpha_k + 4 * alpha_se
        bad = []
        if alpha_hat > bound:
            bad.append(f"call {i}: alpha'={alpha_hat!r} above criterion 06's "
                       f"bound {bound!r}")
        if not ((2 * k + 1) ** -self.d <= alpha_hat <= 1.0):
            bad.append(f"call {i}: alpha'={alpha_hat!r} outside [(2k+1)^-d, 1]")
        return bad


WORKLOADS = {w.name: w for w in (Figure1, ScalingD3, TableLaw, Conditional)}
