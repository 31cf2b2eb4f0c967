"""Harness: replication batches, CSV determinism, histogram, scaling, tail probe."""

import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from polylab.engine import PolymerInstance, forward_backward, streamed_bytes
from polylab.functionals import ell as ell_fn
from polylab.functionals import rho as rho_fn
from polylab import harness
from polylab.harness import (ConfigError, ExperimentConfig, ReplicationRecord,
                             chunk_size, histogram, parse_law_spec,
                             run_replications, scaling_study, summary_stats,
                             tail_probe, worker_count, write_histogram_csv,
                             write_report_csv)
from polylab.rng import replication_seed

CFG = ExperimentConfig(d=1, n=40, beta=2.0, law_spec="uniform:-1,1",
                       replications=8, base_seed=31415)


def srw_rho_exact(n):
    """Analytic beta=0 overlap for d=1: mean over k of sum_x p_{k,x}^2 with
    binomial marginals (exact integer arithmetic, rounded once)."""
    total = 0.0
    for k in range(1, n + 1):
        s = sum(math.comb(k, j) ** 2 for j in range(k + 1))
        total += s / 4 ** k
    return total / n


class TestLawSpec:
    def test_uniform(self):
        law = parse_law_spec("uniform:-1,1")
        assert (law.support_lo, law.support_hi) == (-1.0, 1.0)

    def test_table(self, tmp_path):
        p = tmp_path / "law.csv"
        xs = np.linspace(-1, 1, 101)
        p.write_text("x,f\n" + "\n".join(f"{x},{1.0}" for x in xs))
        law = parse_law_spec(f"table:{p}")
        assert law.mean == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("bad", ["uniform:1", "uniform:a,b", "gauss:0,1", "table:"])
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(ConfigError):
            parse_law_spec(bad)


class TestConfig:
    def test_json_roundtrip(self):
        assert ExperimentConfig.from_json(CFG.to_json()) == CFG

    def test_invalid_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(d=1, n=10, beta=1.0, law_spec="uniform:-1,1",
                             replications=0, base_seed=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(d=1, n=10, beta=1.0, law_spec="uniform:-1,1",
                             replications=5, base_seed=0, histogram_bins=5)


class TestRunReplications:
    @pytest.fixture(scope="class")
    @staticmethod
    def records():
        return run_replications(CFG)

    def test_single_replication_equals_direct_run(self):
        cfg1 = ExperimentConfig(d=1, n=40, beta=2.0, law_spec="uniform:-1,1",
                                replications=1, base_seed=31415)
        rec = run_replications(cfg1)[0]
        inst = PolymerInstance(d=1, n=40, beta=2.0, law=parse_law_spec("uniform:-1,1"),
                               seed=replication_seed(31415, 0))
        sol = forward_backward(inst, keep_forward=False)
        assert rec.rho == rho_fn(sol)
        assert rec.ell == ell_fn(sol)[0]
        assert rec.log_partition == sol.log_partition

    def test_records_in_index_order(self, records):
        assert [r.index for r in records] == list(range(8))

    def test_record_invariants(self, records):
        for r in records:
            r.check(1, 40)

    def test_rerun_identical_data(self, records):
        again = run_replications(CFG)
        for a, b in zip(records, again):
            assert (a.rho, a.ell, a.log_partition) == (b.rho, b.ell, b.log_partition)

    def test_csv_bytes_deterministic(self, records, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report_csv(records, str(p1))
        write_report_csv(run_replications(CFG), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_header_and_rows(self, records, tmp_path):
        p = tmp_path / "r.csv"
        write_report_csv(records, str(p))
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "replication,rho,ell,log_partition,runtime_ms"
        assert len(lines) == 9

    def test_parallel_matches_serial(self, records):
        par = run_replications(CFG, workers=2)
        for a, b in zip(records, par):
            assert (a.rho, a.ell, a.log_partition) == (b.rho, b.ell, b.log_partition)


def _data(records):
    return [(r.index, r.rho, r.ell, r.log_partition) for r in records]


CHUNKED = ExperimentConfig(d=2, n=40, beta=2.0, law_spec="uniform:-1,1",
                           replications=12, base_seed=2718)


class TestChunks:
    def test_chunk_size_from_byte_budget(self):
        # figure 1 streams in 20 segments balanced by cells: 7551 cells in
        # the checkpoints k = 49, 84, ..., 292, 4763 in the largest segment
        # (k = 211..221), 3 working layers of 601 cells at k = 300, alpha and
        # the log normalizers (2 x 300), and 11474 bytes of 1-bit choices
        assert streamed_bytes(1, 300, 3.0) == \
            8 * (7551 + 2 * 4763 + 3 * 601 + 2 * 300) + 11474 == 167314
        assert chunk_size(1, 300, 3.0) == harness.CHUNK_BYTES // 167314 == 25
        # beta=0 draws no weights: one segment's worth less
        assert streamed_bytes(1, 300, 0.0) == 167314 - 8 * 4763
        assert chunk_size(1, 300, 0.0) == 32
        assert chunk_size(3, 200, 1.0) == 1

    def test_figure1_chunk_peak_memory_within_budget(self):
        cfg = ExperimentConfig(d=1, n=300, beta=3.0, law_spec="uniform:-1,1",
                               replications=25, base_seed=5)
        law = cfg.law()
        size = chunk_size(1, 300, 3.0)
        harness._solve_chunk(cfg, law, 0, size)  # fills the coordinate cache
        tracemalloc.start()
        try:
            harness._solve_chunk(cfg, law, 0, size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= harness.CHUNK_BYTES

    # a CFG replication holds 9589 bytes: chunks of 1, of 3 (3+3+2), of all 8
    @pytest.mark.parametrize("budget", [1, 28767, 1 << 30])
    def test_records_do_not_depend_on_chunk_size(self, monkeypatch, budget):
        ref = _data(run_replications(CFG))
        monkeypatch.setattr(harness, "CHUNK_BYTES", budget)
        assert _data(run_replications(CFG)) == ref

    def test_parallel_matches_serial_over_several_chunks(self):
        assert chunk_size(CHUNKED.d, CHUNKED.n, CHUNKED.beta) < CHUNKED.replications
        serial = run_replications(CHUNKED, workers=1)
        assert _data(run_replications(CHUNKED, workers=2)) == _data(serial)
        assert [r.index for r in serial] == list(range(12))


class TestWorkerCount:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("POLYLAB_THREADS", raising=False)
        assert worker_count() == 1

    def test_env_value_used_and_capped(self, monkeypatch):
        monkeypatch.setenv("POLYLAB_THREADS", "1")
        assert worker_count() == 1
        monkeypatch.setenv("POLYLAB_THREADS", str(10 ** 6))
        assert worker_count() == os.cpu_count()
        assert worker_count(10 ** 6) == os.cpu_count()

    @pytest.mark.parametrize("env", ["0", "-3", "two", "1.5"])
    def test_bad_env_value_rejected(self, monkeypatch, env):
        monkeypatch.setenv("POLYLAB_THREADS", env)
        with pytest.raises(ConfigError):
            worker_count()

    def test_bad_requested_count_rejected(self):
        with pytest.raises(ConfigError):
            worker_count(0)


class TestHistogram:
    def test_counts_sum(self):
        recs = [ReplicationRecord(i, 0.1 + 0.02 * i, 0.5, 0.0, 0.0) for i in range(20)]
        edges, counts = histogram(recs, 40)
        assert counts.sum() == 20
        assert edges.size == 41

    def test_all_equal_single_bin(self):
        recs = [ReplicationRecord(i, 0.4321, 0.7, 0.0, 0.0) for i in range(12)]
        _, counts = histogram(recs, 10)
        assert counts.max() == 12
        assert (counts > 0).sum() == 1

    def test_bin_guard(self):
        with pytest.raises(ConfigError):
            histogram([], 5)

    def test_csv(self, tmp_path):
        recs = [ReplicationRecord(i, 0.5, 0.7, 0.0, 0.0) for i in range(3)]
        edges, counts = histogram(recs, 10)
        p = tmp_path / "h.csv"
        write_histogram_csv(edges, counts, str(p))
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count"
        assert len(lines) == 11


class TestScaling:
    def test_beta0_rho_matches_analytic(self):
        rows, _ = scaling_study(1, [16, 32, 64])
        for n, _, r in rows:
            assert r == pytest.approx(srw_rho_exact(n), abs=1e-12)

    def test_d1_slope_band(self):
        _, slope = scaling_study(1, [64, 128, 256, 512])
        assert -0.65 <= slope <= -0.35

    def test_d3_slope_band(self):
        _, slope = scaling_study(3, [8, 16, 32])
        assert -1.3 <= slope <= -0.7

    @pytest.mark.parametrize("d,n_grid", [(1, [16]), (1, [16, 16]), (1, []),
                                          (1, [0, 8]), (0, [8, 16])])
    def test_needs_two_distinct_valid_sizes(self, d, n_grid):
        with pytest.raises(ConfigError):
            scaling_study(d, n_grid)


class TestTailProbe:
    @pytest.fixture(scope="class")
    @staticmethod
    def records():
        return run_replications(CFG)

    def test_cdf_monotone(self, records):
        rows, _, _ = tail_probe(records, [0.05, 0.1, 0.3, 0.6, 0.9], 1, 40)
        probs = [p for _, p in rows]
        assert probs == sorted(probs)

    def test_below_floor_probability_zero(self, records):
        floor = 1.0 / (3 * 40)
        rows, min_rho, reported_floor = tail_probe(records, [floor / 2], 1, 40)
        assert rows[0][1] == 0.0
        assert reported_floor == floor
        assert min_rho >= floor

    def test_delta_guard(self, records):
        with pytest.raises(ConfigError):
            tail_probe(records, [1.5], 1, 40)


def test_summary_stats():
    recs = [ReplicationRecord(i, v, 0.8, 0.0, 0.0)
            for i, v in enumerate([0.02, 0.4, 0.6])]
    s = summary_stats(recs)
    assert s["min_rho"] == 0.02
    assert s["max_rho"] == 0.6
    assert s["p_rho_le_0.05"] == pytest.approx(1.0 / 3.0)
    assert json.dumps(s)  # JSON-serializable
