"""Batch experiment driver: replicated simulations over independent
environments, histogram/CSV emission, the beta=0 scaling study, and the
lower-tail probe.

Replication r runs on its own derived seed, so results are independent of
execution order.  Replications are solved in chunks, each chunk one batched
forward_backward over its seeds that keeps no theta layers but reduces them
to alpha and the ell program as the sweep produces them; serial and parallel
runs solve the same chunks, and a batched solve equals the per-seed solves
bit for bit, so records do not depend on the chunk size or the worker
count.  All floats are emitted with 17 significant digits; reports are
byte-identical across reruns of the same config.  Wall-clock timings are kept in memory and only
written to CSV on request, since they would break byte determinism.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import functionals
from .engine import PolymerInstance, forward_backward, streamed_bytes
from .laws import EnvironmentLaw, load_table_law, make_uniform
from .rng import replication_seed

FIGURE1_CONFIG = dict(d=1, n=300, beta=3.0, law="uniform:-1,1",
                      replications=1000, base_seed=20250823)

# Byte budget for what one chunk of replications holds in its streamed solve
# (engine.streamed_bytes, an upper bound).  Batching shares the per-layer
# numpy call overhead across the chunk; the budget keeps a chunk's layers
# cache-sized and its peak memory within it (25 replications per chunk at
# d=1, n=300, beta=3).
CHUNK_BYTES = 4 << 20


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def parse_law_spec(spec: str) -> EnvironmentLaw:
    """Parse 'uniform:lo,hi' or 'table:path.csv' into a law."""
    kind, _, rest = spec.partition(":")
    if kind == "uniform":
        try:
            lo_s, hi_s = rest.split(",")
            lo, hi = float(lo_s), float(hi_s)
        except ValueError as exc:
            raise ConfigError(f"bad uniform spec {spec!r}; want uniform:lo,hi") from exc
        return make_uniform(lo, hi)
    if kind == "table":
        if not rest:
            raise ConfigError("table law needs a CSV path: table:path.csv")
        return load_table_law(rest)
    raise ConfigError(f"unknown law kind {kind!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    d: int
    n: int
    beta: float
    law_spec: str
    replications: int
    base_seed: int
    histogram_bins: int = 40
    centered: bool = False

    def __post_init__(self):
        for name in ("d", "n", "replications", "base_seed", "histogram_bins"):
            if type(getattr(self, name)) is not int:      # bool is not an int here
                raise ConfigError(f"{name} must be an int, got {getattr(self, name)!r}")
        if isinstance(self.beta, bool) or not isinstance(self.beta, (int, float)) \
                or not math.isfinite(self.beta):
            raise ConfigError(f"beta must be a finite number, got {self.beta!r}")
        if type(self.centered) is not bool or not isinstance(self.law_spec, str):
            raise ConfigError("centered must be true or false and law_spec a string")
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        if self.histogram_bins < 10:
            raise ConfigError("histogram needs at least 10 bins")
        if self.d < 1 or self.n < 1 or self.beta < 0:
            raise ConfigError("need d >= 1, n >= 1, beta >= 0")

    def law(self) -> EnvironmentLaw:
        return parse_law_spec(self.law_spec)

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(f"bad config document: {exc}") from exc


@dataclass(frozen=True)
class ReplicationRecord:
    index: int
    rho: float
    ell: float
    log_partition: float
    runtime_ms: float

    def check(self, d: int, n: int) -> None:
        floor = 1.0 / (3 ** d * n)
        if not (floor <= self.rho <= 1.0):
            raise RuntimeError(f"replication {self.index}: rho={self.rho} "
                               f"outside [{floor}, 1]")
        if not (0.0 < self.ell <= 1.0):
            raise RuntimeError(f"replication {self.index}: ell={self.ell} outside (0, 1]")
        if not (self.ell ** 2 <= self.rho + 1e-12 and self.rho <= self.ell + 1e-12):
            raise RuntimeError(f"replication {self.index}: overlap chain violated "
                               f"(ell={self.ell}, rho={self.rho})")


def chunk_size(d: int, n: int, beta: float) -> int:
    """Replications per chunk: CHUNK_BYTES over what one replication holds
    in a keep_theta=False solve."""
    return max(1, CHUNK_BYTES // streamed_bytes(d, n, beta))


def _solve_chunk(config: ExperimentConfig, law: EnvironmentLaw,
                 lo: int, hi: int) -> List[ReplicationRecord]:
    """Records of replications lo..hi-1 from one batched solve.

    runtime_ms is the chunk's wall time divided by its size.
    """
    t0 = time.perf_counter()
    seeds = tuple(replication_seed(config.base_seed, r) for r in range(lo, hi))
    inst = PolymerInstance(d=config.d, n=config.n, beta=config.beta, law=law,
                           seed=seeds, centered=config.centered)
    sol = forward_backward(inst, keep_forward=False, keep_theta=False)
    rhos = functionals.alpha_profile(sol).mean(axis=-1)
    ells, _ = functionals.ell(sol)
    log_z = np.broadcast_to(sol.log_partition, rhos.shape)
    ms = (time.perf_counter() - t0) * 1e3 / (hi - lo)
    records = [ReplicationRecord(index=r, rho=float(rhos[i]), ell=float(ells[i]),
                                 log_partition=float(log_z[i]), runtime_ms=ms)
               for i, r in enumerate(range(lo, hi))]
    for rec in records:
        rec.check(config.d, config.n)
    return records


def _solve_chunk_in_worker(config: ExperimentConfig, lo: int,
                           hi: int) -> List[ReplicationRecord]:
    # Laws hold closures, which do not pickle: each task parses its own.
    return _solve_chunk(config, config.law(), lo, hi)


def worker_count(requested: Optional[int] = None) -> int:
    """Worker processes: `requested`, else POLYLAB_THREADS, else 1; at most
    os.cpu_count().  A count below 1 or a non-integer is a ConfigError."""
    source = "workers"
    if requested is None:
        env = os.environ.get("POLYLAB_THREADS")
        if not env:
            return 1
        source = f"POLYLAB_THREADS={env!r}"
        try:
            requested = int(env)
        except ValueError:
            raise ConfigError(f"{source} is not an integer") from None
    if requested < 1:
        raise ConfigError(f"{source}: need at least 1 worker, got {requested}")
    return min(requested, os.cpu_count() or 1)


def run_replications(config: ExperimentConfig,
                     workers: Optional[int] = None) -> List[ReplicationRecord]:
    """Run all replications; records are returned in index order and are
    identical whether executed serially or in parallel."""
    law = config.law()
    law.validate()
    size = chunk_size(config.d, config.n, config.beta)
    los = range(0, config.replications, size)
    his = [min(lo + size, config.replications) for lo in los]
    w = worker_count(workers)
    if w <= 1 or len(los) == 1:
        parts = [_solve_chunk(config, law, lo, hi) for lo, hi in zip(los, his)]
    else:
        with ProcessPoolExecutor(max_workers=min(w, len(los))) as pool:
            parts = list(pool.map(_solve_chunk_in_worker,
                                  [config] * len(los), los, his))
    return [rec for part in parts for rec in part]


def histogram(records: Sequence[ReplicationRecord],
              bins: int) -> Tuple[np.ndarray, np.ndarray]:
    """Fixed-width histogram of rho on [0, 1]; counts sum to len(records)."""
    if bins < 10:
        raise ConfigError("histogram needs at least 10 bins")
    values = np.array([rec.rho for rec in records])
    counts, edges = np.histogram(values, bins=bins, range=(0.0, 1.0))
    return edges, counts


def write_report_csv(records: Sequence[ReplicationRecord], path: str,
                     include_runtime: bool = False) -> None:
    """Report CSV: replication,rho,ell,log_partition,runtime_ms.

    runtime_ms is written as 0 unless include_runtime is set, keeping the
    default output byte-deterministic across reruns.
    """
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["replication", "rho", "ell", "log_partition", "runtime_ms"])
        for rec in records:
            rt = f"{rec.runtime_ms:.17g}" if include_runtime else "0"
            wr.writerow([rec.index, f"{rec.rho:.17g}", f"{rec.ell:.17g}",
                         f"{rec.log_partition:.17g}", rt])


def write_histogram_csv(edges: np.ndarray, counts: np.ndarray, path: str) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["bin_lo", "bin_hi", "count"])
        for i in range(counts.size):
            wr.writerow([f"{edges[i]:.17g}", f"{edges[i + 1]:.17g}", int(counts[i])])


def write_profile_csv(alpha: np.ndarray, gamma: Optional[np.ndarray],
                      tau: Optional[np.ndarray], path: str) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["k", "alpha", "gamma", "tau"])
        for i in range(alpha.size):
            row = [i + 1, f"{alpha[i]:.17g}"]
            row.append(f"{gamma[i]:.17g}" if gamma is not None else "")
            row.append(f"{tau[i]:.17g}" if tau is not None else "")
            wr.writerow(row)


def scaling_study(d: int, n_grid: Sequence[int], base_seed: int = 0,
                  law_spec: str = "uniform:-1,1"):
    """ell and rho of the beta=0 (simple random walk) measure across n.

    The beta=0 measure is deterministic, so a single run per n suffices.
    Returns (rows, slope) where rows are (n, ell, rho) and slope is the
    fitted log-log slope of ell against n, which needs two distinct n.
    """
    if d < 1 or any(n < 1 for n in n_grid):
        raise ConfigError(f"need d >= 1 and every n >= 1, got d={d}, n={list(n_grid)}")
    if len(set(n_grid)) < 2:
        raise ConfigError(f"a slope needs at least two distinct n, got {list(n_grid)}")
    law = parse_law_spec(law_spec)
    rows = []
    for n in n_grid:
        inst = PolymerInstance(d=d, n=int(n), beta=0.0, law=law,
                               seed=replication_seed(base_seed, n))
        sol = forward_backward(inst, keep_forward=False)
        l_val, _ = functionals.ell(sol)
        rows.append((int(n), l_val, functionals.rho(sol)))
    ls = np.log([r[1] for r in rows])
    ns = np.log([r[0] for r in rows])
    slope = float(np.polyfit(ns, ls, 1)[0])
    return rows, slope


def tail_probe(records: Sequence[ReplicationRecord], delta_grid: Sequence[float],
               d: int, n: int):
    """Empirical P(rho <= delta) over the replications, plus the smallest
    observed rho and the deterministic floor 1/(3^d n)."""
    rhos = np.array([rec.rho for rec in records])
    rows = []
    for delta in delta_grid:
        if not (0.0 < delta < 1.0):
            raise ConfigError(f"delta={delta} outside (0, 1)")
        rows.append((float(delta), float(np.mean(rhos <= delta))))
    return rows, float(rhos.min()), 1.0 / (3 ** d * n)


def summary_stats(records: Sequence[ReplicationRecord]) -> dict:
    rhos = np.array([rec.rho for rec in records])
    return {
        "min_rho": float(rhos.min()),
        "max_rho": float(rhos.max()),
        "mean_rho": float(rhos.mean()),
        "p_rho_le_0.05": float(np.mean(rhos <= 0.05)),
    }
