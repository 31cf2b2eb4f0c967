"""Span tracer that times calls into polylab from outside the package.

The tracer replaces chosen public functions with timing wrappers in every
polylab module namespace that binds them, because a function is looked up
where it is called: ``counter_uniform`` is called through
``polylab.engine``, ``env_layer`` and ``forward_backward`` through
``polylab.functionals`` and ``polylab.engine``, ``forward_backward`` also
through ``polylab.harness``.  ``EnvironmentLaw.validate`` is wrapped on the
class.  A law's ``quantile`` is a closure stored in a frozen dataclass, so
the wrapper of ``harness.parse_law_spec`` returns a copy of each parsed law
whose ``quantile`` is timed.

Spans (id, name, start, end, parent, call id, phase) stay in one flat
in-memory array and are written out when the run ends; self time (duration
minus the time covered by child spans) is computed from them afterwards.
Per-layer counts are derived from call arguments and results as calls
return.  Wrappers record only while ``phase`` is set, so the benchmark can
run warm-up calls and output checks with the wrappers installed but silent.
Single-threaded use only: the parent stack is one list.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

_TICK = time.perf_counter_ns


def _env_counts(tracer, args, kwargs, result):
    instance, k = args[0], args[1]
    overrides = args[2] if len(args) > 2 else kwargs.get("overrides")
    if overrides is not None and k in overrides.zero_layers:
        return                       # a zeroed layer draws no variates
    seed = instance.seed
    if overrides is not None and k in overrides.layer_seeds:
        seed = overrides.layer_seeds[k]
    tracer.add("engine.env_cells", result.size)
    key = (seed, k, instance.d)
    if key not in tracer.env_keys:
        tracer.env_keys.add(key)
        tracer.add("engine.env_cells_distinct", result.size)


def _solve_counts(tracer, args, kwargs, result):
    layer_cells = sum(t.size for t in result.theta_layers)
    arrays = list(result.theta_layers) + list(result.forward_layers or [])
    if result.layer_lognorms is not None:
        arrays.append(result.layer_lognorms)
    tracer.add("engine.cells_swept", 2 * layer_cells)   # forward + backward sweep
    tracer.add("engine.bytes_computed", sum(a.nbytes for a in arrays))


# (defining module, attribute, span name, counter or None)
TARGETS = (
    ("polylab.rng", "counter_uniform", "rng.counter_uniform",
     lambda tracer, args, kwargs, result: tracer.add("rng.variates", result.size)),
    ("polylab.lattice", "layer_mask", "lattice.layer_mask", None),
    ("polylab.lattice", "neighbors", "lattice.neighbors", None),
    ("polylab.engine", "env_layer", "engine.env_layer", _env_counts),
    ("polylab.engine", "forward_backward", "engine.forward_backward", _solve_counts),
    ("polylab.functionals", "alpha_profile", "functionals.alpha_profile", None),
    ("polylab.functionals", "ell", "functionals.ell", None),
    ("polylab.functionals", "primed_estimates", "functionals.primed_estimates", None),
    ("polylab.harness", "run_replications", "harness.run_replications", None),
    ("polylab.harness", "scaling_study", "harness.scaling_study", None),
    ("polylab.harness", "parse_law_spec", "harness.parse_law_spec", None),
)

ROOT_SPAN = "bench.call"


class Tracer:
    """Install with ``with tracer:``; every patched attribute is restored on
    exit, also when the body raises.  Set ``phase`` to record."""

    COLUMNS = ("id", "name", "start_ns", "end_ns", "parent", "call", "phase")

    def __init__(self):
        self.call_id = -1
        self.names = []
        self.phases = []
        self._ids = {}
        self._stack = []
        self._next = 0
        self._patches = []
        self._spans = array("q")            # COLUMNS, one row per closed span
        self.phase_counts = defaultdict(lambda: defaultdict(int))
        self.phase_env_keys = defaultdict(set)
        self.phase = None

    # -- recording ---------------------------------------------------------

    @property
    def phase(self):
        return self._phase

    @phase.setter
    def phase(self, name):
        self._phase = name
        if name is not None and name not in self.phases:
            self.phases.append(name)
        self._phase_id = self.phases.index(name) if name is not None else -1
        self._counts = self.phase_counts[name]
        self.env_keys = self.phase_env_keys[name]

    def add(self, counter, amount):
        self._counts[counter] += int(amount)

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, count=None):
        """Timing wrapper around fn; count(tracer, args, kwargs, result)
        derives layer counts from the call."""
        name_id = self._name_id(name)
        stack, spans = self._stack, self._spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._phase is None:
                return fn(*args, **kwargs)
            sid = self._next
            self._next = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = _TICK()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _TICK()
                stack.pop()
                spans.extend((sid, name_id, start, end, parent, self.call_id,
                              self._phase_id))
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return wrapper

    def root(self, call_id, fn, *args):
        """Run one benchmark call as the root span of its call id."""
        self.call_id = call_id
        return self.wrap(ROOT_SPAN, fn)(*args)

    def columns(self):
        rows = np.frombuffer(self._spans, dtype=np.int64).reshape(-1, len(self.COLUMNS))
        return {c: rows[:, j] for j, c in enumerate(self.COLUMNS)}

    def self_times(self, phase):
        """{span name: (calls, self ns)} over the spans of one phase; self
        time is a span's duration minus the durations of its children."""
        if phase not in self.phases:
            return {}
        col = self.columns()
        dur = col["end_ns"] - col["start_ns"]
        row_of = np.empty(self._next, dtype=np.int64)
        row_of[col["id"]] = np.arange(col["id"].size)
        child = np.zeros_like(dur)
        has_parent = col["parent"] >= 0
        np.add.at(child, row_of[col["parent"][has_parent]], dur[has_parent])
        own = col["phase"] == self.phases.index(phase)
        calls = np.bincount(col["name"][own], minlength=len(self.names))
        self_ns = np.bincount(col["name"][own], weights=(dur - child)[own],
                              minlength=len(self.names))
        return {name: (int(calls[i]), float(self_ns[i]))
                for i, name in enumerate(self.names) if calls[i]}

    # -- install / restore -------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _parse_law_spec(self, parse):
        def parse_timed(spec):
            law = parse(spec)
            return dataclasses.replace(
                law, quantile=self.wrap(
                    "laws.quantile", law.quantile,
                    lambda tracer, args, kwargs, result: tracer.add(
                        "laws.quantile.values", np.size(result))))
        return functools.wraps(parse)(parse_timed)

    def __enter__(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            modules = [m for name, m in sorted(sys.modules.items())
                       if name == "polylab" or name.startswith("polylab.")]
            for modname, attr, span, count in TARGETS:
                orig = getattr(sys.modules[modname], attr)
                target = orig
                if attr == "parse_law_spec":
                    target = self._parse_law_spec(orig)
                wrapped = self.wrap(span, target, count)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._patch(mod, key, wrapped)
            law_cls = sys.modules["polylab.laws"].EnvironmentLaw
            self._patch(law_cls, "validate",
                        self.wrap("laws.validate", law_cls.validate))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- output ------------------------------------------------------------

    def save(self, path):
        """Write every recorded span as columns of an .npz file."""
        np.savez(path, names=np.array(self.names), phases=np.array(self.phases),
                 **self.columns())
