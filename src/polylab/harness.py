"""Batch experiment driver: replicated simulations over independent
environments, their histogram, the beta=0 scaling study and the output
files: a ReportFile is opened with its head (a CSV's header, a JSON
document's opening brace) written before any work, finished with the
rest, or discarded.

An ExperimentConfig and scaling_study check their polymer's d, n, beta and
seed by building its PolymerInstance, which holds those rules, and report a
broken one as a ConfigError.  FIGURE1 is the paper's figure-1 run and
DEFAULT_LAW the law a run takes when none is named.

Replication r runs on its own derived seed, so results are independent of
execution order.  Replications are solved in chunks, each chunk one batched
forward_backward over its seeds that keeps no theta layers but reduces them
to alpha and the ell program as the sweep produces them.  Serial and
parallel runs solve the same chunks with the law the parent parsed
(ExperimentConfig.instance builds a chunk's instance from it), and a
batched solve equals the per-seed solves bit for bit, so records do not
depend on the chunk size or the worker count.  All floats are emitted with
17 significant digits; reports are byte-identical across reruns of the same
config, so no wall-clock time goes into a record or a report.
"""

from __future__ import annotations

import json
import os
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import functionals
from .engine import (SOLVE_FIXED_BYTES, PolymerInstance, draw_bytes,
                     forward_backward, log_space, streamed_bytes)
from .laws import EnvironmentLaw, load_table_law, make_uniform
from .rng import as_int, replication_seed

DEFAULT_LAW = "uniform:-1,1"

# Byte budget for what one chunk of replications holds in its streamed solve
# (engine.streamed_bytes, an upper bound).  Batching shares the per-layer
# numpy call overhead across the chunk; the budget keeps a chunk's layers
# cache-sized and its peak memory within it (53 replications per chunk at
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
    """`replications` environments of one polymer, replication r on seed
    replication_seed(base_seed, r).

    d, n, beta and base_seed follow PolymerInstance's rules: the config
    builds its instance for base_seed and stores the instance's values, so
    numpy integers become ints and beta a float.  Any invalid field is a
    ConfigError."""

    d: int
    n: int
    beta: float
    law_spec: str
    replications: int
    base_seed: int
    centered: bool = False

    def __post_init__(self):
        if type(self.centered) is not bool or not isinstance(self.law_spec, str):
            raise ConfigError("centered must be true or false and law_spec a string")
        try:
            inst = self.instance(as_int("base_seed", self.base_seed), None)
            replications = as_int("replications", self.replications)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from None
        if replications < 1:
            raise ConfigError("replications must be >= 1")
        # the fields as the instance stores them (frozen, so not by setattr)
        vars(self).update(d=inst.d, n=inst.n, beta=inst.beta, base_seed=inst.seed,
                          replications=replications)

    @cached_property
    def law(self) -> EnvironmentLaw:
        """The parsed law_spec, parsed and validated once per config: a law
        that fails EnvironmentLaw.validate raises LawValidationError."""
        law = parse_law_spec(self.law_spec)
        law.validate()
        return law

    def instance(self, seed, law: EnvironmentLaw) -> PolymerInstance:
        """The PolymerInstance of this config for seed (an int, or a tuple
        for a batch), solved with law: the config's own law, or the copy a
        worker received pickled."""
        return PolymerInstance(d=self.d, n=self.n, beta=self.beta, law=law,
                               seed=seed, centered=self.centered)

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


FIGURE1 = ExperimentConfig(d=1, n=300, beta=3.0, law_spec=DEFAULT_LAW,
                           replications=1000, base_seed=20250823)


@dataclass(frozen=True)
class ReplicationRecord:
    index: int
    rho: float
    ell: float
    log_partition: float

    def check(self, d: int, n: int) -> None:
        floor = 1.0 / (3 ** d * n)
        if not (floor <= self.rho <= 1.0):
            raise RuntimeError(f"replication {self.index}: rho={self.rho} "
                               f"outside [{floor}, 1]")
        if not (0.0 < self.ell <= 1.0):
            raise RuntimeError(f"replication {self.index}: ell={self.ell} outside (0, 1]")
        if not np.isfinite(self.log_partition):
            raise RuntimeError(f"replication {self.index}: non-finite log Z={self.log_partition}")
        if not functionals.overlap_chain_holds(self.rho, self.ell):
            raise RuntimeError(f"replication {self.index}: overlap chain violated "
                               f"(ell={self.ell}, rho={self.rho})")


def chunk_size(d: int, n: int, beta: float, log: bool = False) -> int:
    """Replications per chunk: what CHUNK_BYTES leaves beside a solve's
    fixed bytes (engine.SOLVE_FIXED_BYTES) and the temporaries of drawing
    its top layer (engine.draw_bytes, 16 bytes per entry of the layer's
    largest coordinate array; 4,816 at figure 1, whose chunk is 53), over
    what one replication holds in a keep_theta=False solve (in log space if
    log)."""
    return max(1, (CHUNK_BYTES - SOLVE_FIXED_BYTES - draw_bytes(d, n, beta))
               // streamed_bytes(d, n, beta, log))


def _solve_chunk(config: ExperimentConfig, law: EnvironmentLaw,
                 lo: int, hi: int) -> List[ReplicationRecord]:
    """Records of replications lo..hi-1 from one batched solve."""
    seeds = tuple(replication_seed(config.base_seed, np.arange(lo, hi)))
    sol = forward_backward(config.instance(seeds, law), keep_forward=False, keep_theta=False)
    rhos = functionals.alpha_profile(sol).mean(axis=-1)
    ells = functionals.ell_scores(sol)       # the paths are not reported
    log_z = np.broadcast_to(sol.log_partition, rhos.shape)
    records = [ReplicationRecord(index=r, rho=float(rhos[i]), ell=float(ells[i]),
                                 log_partition=float(log_z[i]))
               for i, r in enumerate(range(lo, hi))]
    for rec in records:
        rec.check(config.d, config.n)
    return records


def worker_count(requested: Optional[int] = None) -> int:
    """Worker processes: `requested`, else POLYLAB_THREADS, else 1; at most
    os.cpu_count().  A count below 1 or a non-integer (by rng.as_int, for
    `requested`) is a ConfigError."""
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
    else:
        try:
            requested = as_int(source, requested)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None
    if requested < 1:
        raise ConfigError(f"{source}: need at least 1 worker, got {requested}")
    return min(requested, os.cpu_count() or 1)


def run_replications(config: ExperimentConfig,
                     workers: Optional[int] = None) -> List[ReplicationRecord]:
    """Run all replications; records are returned in index order and are
    identical whether executed serially or in parallel.  The law is the
    config's, parsed and validated once; workers receive it pickled."""
    law = config.law
    size = chunk_size(config.d, config.n, config.beta,
                      log_space(config.beta, law))
    los = range(0, config.replications, size)
    his = [min(lo + size, config.replications) for lo in los]
    w = worker_count(workers)
    if w <= 1 or len(los) == 1:
        parts = [_solve_chunk(config, law, lo, hi) for lo, hi in zip(los, his)]
    else:
        # imported here, not with the module: it loads multiprocessing, which
        # a serial run (and every import of polylab) would carry for nothing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(w, len(los))) as pool:
            parts = list(pool.map(partial(_solve_chunk, config, law), los, his))
    return [rec for part in parts for rec in part]


def histogram(records: Sequence[ReplicationRecord],
              bins: int) -> Tuple[np.ndarray, np.ndarray]:
    """Fixed-width histogram of rho on [0, 1]; counts sum to len(records)."""
    if bins < 10:
        raise ConfigError("histogram needs at least 10 bins")
    values = np.array([rec.rho for rec in records])
    counts, edges = np.histogram(values, bins=bins, range=(0.0, 1.0))
    return edges, counts


class ReportFile:
    """A text file at path, written in two parts: head as it is opened,
    flushed, so that a file which cannot take data fails before any work
    (a CSV's header; a JSON document's opening brace), and its lines at
    finish, which closes it.  discard closes it and removes it, if it is a
    regular file, so that a failed run leaves no partial file."""

    def __init__(self, path: str, head: str):
        self.path = path
        self.fh = open(path, "w", newline="")
        try:
            self.fh.write(head)
            self.fh.flush()
        except BaseException:
            self.discard()
            raise

    def finish(self, lines: Iterable[str]) -> None:
        with self.fh:
            self.fh.writelines(lines)

    def discard(self) -> None:
        regular = os.path.isfile(self.path)
        with suppress(OSError):     # closing flushes what is buffered, which may fail again
            self.fh.close()
        if regular:
            os.remove(self.path)


def _csv(*fields) -> str:
    """One CSV line, ended as the csv module ends it: a float with 17
    significant digits, any other field (a name, an int) as str gives it.
    No field needs quoting."""
    return ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in fields) + "\r\n"


def report_file(path: str) -> ReportFile:
    """The report CSV at path, its header replication,rho,ell,log_partition
    written: finish it with report_rows."""
    return ReportFile(path, _csv("replication", "rho", "ell", "log_partition"))


def report_rows(records: Sequence[ReplicationRecord]) -> Iterable[str]:
    return (_csv(rec.index, rec.rho, rec.ell, rec.log_partition) for rec in records)


def histogram_file(path: str) -> ReportFile:
    """The histogram CSV at path, its header bin_lo,bin_hi,count written:
    finish it with histogram_rows."""
    return ReportFile(path, _csv("bin_lo", "bin_hi", "count"))


def histogram_rows(edges: np.ndarray, counts: np.ndarray) -> Iterable[str]:
    """One row per bin of histogram's (edges, counts)."""
    return (_csv(lo, hi, int(c)) for lo, hi, c in zip(edges[:-1], edges[1:], counts))


def profile_file(path: str) -> ReportFile:
    """The per-k profile CSV at path, its header k,alpha,gamma,tau written:
    finish it with profile_rows."""
    return ReportFile(path, _csv("k", "alpha", "gamma", "tau"))


def profile_rows(report: functionals.LocalizationReport) -> Iterable[str]:
    """One row per step k of report's alpha, gamma and tau profiles."""
    profiles = zip(report.alpha_profile, report.gamma_profile, report.tau_profile)
    return (_csv(k, *values) for k, values in enumerate(profiles, 1))


def json_file(path: str) -> ReportFile:
    """A JSON object document at path, its opening brace written: finish it
    with the document's text after that brace."""
    return ReportFile(path, "{")


def scaling_instances(d: int, n_grid: Sequence[int], base_seed: int = 0,
                      law_spec: str = DEFAULT_LAW) -> List[PolymerInstance]:
    """The beta=0 instances of scaling_study's grid, one per n, in grid
    order.  d, every n and base_seed follow PolymerInstance's rules, and a
    slope needs two distinct n; anything else is a ConfigError."""
    law = parse_law_spec(law_spec)
    try:    # beta=0 draws nothing, but base_seed is checked all the same
        insts = [PolymerInstance(d=d, n=n, beta=0.0, law=law, seed=base_seed) for n in n_grid]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"scaling needs integers d, n >= 1 and base_seed: {exc}") from None
    if len({inst.n for inst in insts}) < 2:
        raise ConfigError(f"a slope needs at least two distinct n, got {list(n_grid)}")
    return insts


def scaling_study(d: int, n_grid: Sequence[int], base_seed: int = 0,
                  law_spec: str = DEFAULT_LAW):
    """ell and rho of the beta=0 (simple random walk) measure across n.

    The beta=0 measure is deterministic, so a single run per n suffices,
    and the solve of length n is the first n layers of a longer one
    (ThetaSolution.prefix): one streamed solve at the largest n, which
    keeps the ell program's state at every n of the grid, gives every row
    bit for bit as its own solve would.
    Returns (rows, slope) where rows are (n, ell, rho) in grid order and
    slope is the fitted log-log slope of ell against n, which needs two
    distinct n.  The grid is checked by scaling_instances.
    """
    insts = scaling_instances(d, n_grid, base_seed, law_spec)
    sizes = [inst.n for inst in insts]
    sol = forward_backward(max(insts, key=lambda inst: inst.n), keep_forward=False,
                           keep_theta=False, prefixes=sizes)
    rows = []
    for n in sizes:
        part = sol.prefix(n)
        l_val, _ = functionals.ell(part)
        rows.append((n, l_val, functionals.rho(part)))
    ls = np.log([r[1] for r in rows])
    ns = np.log([r[0] for r in rows])
    slope = float(np.polyfit(ns, ls, 1)[0])
    return rows, slope


def summary_stats(records: Sequence[ReplicationRecord]) -> dict:
    rhos = np.array([rec.rho for rec in records])
    return {
        "min_rho": float(rhos.min()),
        "max_rho": float(rhos.max()),
        "mean_rho": float(rhos.mean()),
        "p_rho_le_0.05": float(np.mean(rhos <= 0.05)),
    }
