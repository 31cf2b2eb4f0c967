"""Harness: replication batches, CSV determinism, histogram, scaling, tail probe."""

import csv
import dataclasses
import errno
import io
import json
import os
import pickle
import tracemalloc

import numpy as np
import pytest

from polylab import engine, functionals
from polylab.engine import (SOLVE_FIXED_BYTES, PolymerInstance, draw_bytes,
                            forward_backward, log_space, streamed_bytes)
from polylab.laws import make_table_law, make_uniform
from polylab.functionals import ell as ell_fn
from polylab.functionals import rho as rho_fn
from polylab import harness
from polylab.harness import (ConfigError, ExperimentConfig, ReplicationRecord,
                             ReportFile, chunk_size, histogram, histogram_file,
                             histogram_rows, json_file, parse_law_spec, profile_file,
                             profile_rows, report_file, report_rows,
                             run_replications, scaling_instances, scaling_study,
                             summary_stats, worker_count)
from polylab.rng import replication_seed
from polylab.verify import binomial_rho

CFG = ExperimentConfig(d=1, n=40, beta=2.0, law_spec="uniform:-1,1",
                       replications=8, base_seed=31415)


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
    def test_invalid_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(d=1, n=10, beta=1.0, law_spec="uniform:-1,1",
                             replications=0, base_seed=0)

    def test_numpy_values_are_stored_as_python_numbers(self):
        """The config stores d, n, base_seed and beta as its PolymerInstance
        does: numpy integers as ints and beta as a float, with the records
        of the plain config."""
        cfg = ExperimentConfig(d=np.int64(1), n=np.int64(40), beta=np.float32(2.0),
                               law_spec="uniform:-1,1", replications=8,
                               base_seed=np.int64(31415))
        assert [type(v) for v in (cfg.d, cfg.n, cfg.base_seed, cfg.beta)] == \
            [int, int, int, float]
        assert cfg == CFG
        assert _data(run_replications(cfg)) == _data(run_replications(CFG))

    def test_batch_base_seed_is_config_error(self):
        """An instance takes a tuple of seeds; a config's base seed is one int."""
        with pytest.raises(ConfigError, match="base_seed must be an int"):
            dataclasses.replace(CFG, base_seed=(1, 2))


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

    @pytest.mark.parametrize("log_z", [np.inf, -np.inf, np.nan])
    def test_a_non_finite_log_partition_fails_the_check(self, log_z):
        """rho and ell in range do not pass a record whose log Z overflowed."""
        with pytest.raises(RuntimeError, match="replication 0: non-finite log Z"):
            ReplicationRecord(0, 0.5, 0.6, log_z).check(1, 10)

    def test_rerun_identical_data(self, records):
        again = run_replications(CFG)
        for a, b in zip(records, again):
            assert (a.rho, a.ell, a.log_partition) == (b.rho, b.ell, b.log_partition)

    def test_csv_bytes_deterministic(self, records, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        report_file(str(p1)).finish(report_rows(records))
        report_file(str(p2)).finish(report_rows(run_replications(CFG)))
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_header_and_rows(self, records, tmp_path):
        p = tmp_path / "r.csv"
        report_file(str(p)).finish(report_rows(records))
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "replication,rho,ell,log_partition"
        assert len(lines) == 9

    def test_parallel_matches_serial(self, records):
        par = run_replications(CFG, workers=2)
        for a, b in zip(records, par):
            assert (a.rho, a.ell, a.log_partition) == (b.rho, b.ell, b.log_partition)


class TestReportFile:
    def test_the_header_is_on_disk_before_the_rows(self, tmp_path):
        """Opening writes and flushes the header alone; finish adds the rows
        and closes, giving the bytes the csv module writes for the header
        and each record's index and 17-digit floats."""
        records = run_replications(dataclasses.replace(CFG, replications=2))
        p = tmp_path / "a.csv"
        out = report_file(str(p))
        assert p.read_bytes() == b"replication,rho,ell,log_partition\r\n"
        out.finish(report_rows(records))
        assert out.fh.closed
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(["replication", "rho", "ell", "log_partition"])
        writer.writerows([rec.index, f"{rec.rho:.17g}", f"{rec.ell:.17g}",
                          f"{rec.log_partition:.17g}"] for rec in records)
        assert p.read_bytes() == expected.getvalue().encode()

    def test_a_json_document_opens_with_its_brace(self, tmp_path):
        """A JSON object document's head is its opening brace, on disk at
        open; finish writes the rest of the document after it."""
        p = tmp_path / "s.json"
        out = json_file(str(p))
        assert p.read_bytes() == b"{"
        out.finish(['"a": 1}\n'])
        assert json.loads(p.read_text()) == {"a": 1}

    def test_discard_removes_the_partial_file(self, tmp_path):
        p = tmp_path / "r.csv"
        out = ReportFile(str(p), "a,b\r\n")
        out.discard()
        assert out.fh.closed
        assert list(tmp_path.iterdir()) == []

    def test_a_header_that_cannot_be_written_leaves_no_file(self, monkeypatch, tmp_path):
        def full_open(path, mode, newline):
            def full(text):
                raise OSError(errno.ENOSPC, "No space left on device")
            fh = open(path, mode, newline=newline)
            fh.write = full
            return fh
        monkeypatch.setattr(harness, "open", full_open, raising=False)
        with pytest.raises(OSError):
            histogram_file(str(tmp_path / "h.csv"))
        assert list(tmp_path.iterdir()) == []

    def test_profile_rows_read_back_exactly(self, tmp_path):
        """One row per step k = 1..n, each profile value read back bit for
        bit."""
        inst = CFG.instance(replication_seed(CFG.base_seed, 0), CFG.law)
        report = functionals.build_report(forward_backward(inst, keep_forward=False))
        p = tmp_path / "p.csv"
        profile_file(str(p)).finish(profile_rows(report))
        with open(p, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["k", "alpha", "gamma", "tau"]
        assert [int(row[0]) for row in rows] == list(range(1, CFG.n + 1))
        profiles = (report.alpha_profile, report.gamma_profile, report.tau_profile)
        for column, profile in zip(list(zip(*rows))[1:], profiles):
            assert [float(v) for v in column] == list(profile)


def _data(records):
    return [(r.index, r.rho, r.ell, r.log_partition) for r in records]


CHUNKED = ExperimentConfig(d=2, n=80, beta=2.0, law_spec="uniform:-1,1",
                           replications=12, base_seed=2718)


def _streamed_peak(d, n, beta, law, size):
    """The tracemalloc peak of a keep_theta=False solve of size
    environments, after one solve that fills the caches, plus the bytes of
    the buffers a streamed beta=0 solve keeps between calls
    (engine._Retained).  The first solve makes them, sized for this solve
    alone, before the trace starts, and tracemalloc does not see a mapping."""
    inst = PolymerInstance(d=d, n=n, beta=beta, law=law,
                           seed=tuple(replication_seed(3, r) for r in range(size)))
    engine._RETAINED = engine._Retained()
    forward_backward(inst, keep_forward=False, keep_theta=False)
    retained = sum(flat.nbytes for flat in engine._RETAINED.flats.values())
    tracemalloc.start()
    try:
        forward_backward(inst, keep_forward=False, keep_theta=False)
        return tracemalloc.get_traced_memory()[1] + retained
    finally:
        tracemalloc.stop()


class TestChunks:
    def test_chunk_size_from_byte_budget(self):
        # figure 1 streams in 20 segments balanced by cells.  Its bound falls
        # at the recompute of B_109, in the segment k = 109..128: that
        # segment's backward layers (2390 cells), the checkpoints k = 145,
        # ..., 292 above it (3412), alpha and the log normalizers (2 x 300),
        # 8 scalars and 810 bytes of 1-bit choices up to k = 109, plus the
        # moment's own layers: the segment's weights (2390), B_110 * w_110
        # and the step-110 frame the neighbour sum adds into (2 x 111), and
        # F_108 with its ell scores (2 x 109)
        held = 8 * (2390 + 3412 + 2 * 300 + 8) + 810
        assert streamed_bytes(1, 300, 3.0) == held + 8 * (2390 + 2 * 111 + 2 * 109) == 74730
        assert chunk_size(1, 300, 3.0) == \
            (harness.CHUNK_BYTES - SOLVE_FIXED_BYTES) // 74730 == 53
        # beta=0 draws no weights and makes no backward layer, so it holds no
        # checkpoint, recomputes nothing, and its theta_k is F_k.  The ell
        # step of k = 300 bounds it: alpha, the log normalizers, 8 scalars
        # and 5812 choice bytes up to k = 300, then F_300, the step-300
        # scores (written over the layer-299 ones) and the step-300 frame of
        # the layer-299 scores, and, per cell of layer 300, 2d - 1 = 1
        # unpacked mask byte plus 2 bytes of slack
        assert streamed_bytes(1, 300, 0.0) == \
            8 * (2 * 300 + 8) + 5812 + 8 * 3 * 301 + 3 * 301 == 18803
        assert chunk_size(1, 300, 0.0) == 212
        assert chunk_size(3, 200, 1.0) == 1
        # in log space the recompute holds two more frames of 111 cells
        assert streamed_bytes(1, 300, 3.0, log=True) == 74730 + 8 * 2 * 111

    def test_figure1_chunk_peak_memory_within_budget(self):
        cfg = ExperimentConfig(d=1, n=300, beta=3.0, law_spec="uniform:-1,1",
                               replications=25, base_seed=5)
        law = cfg.law
        size = chunk_size(1, 300, 3.0)
        harness._solve_chunk(cfg, law, 0, size)  # fills the step and key caches
        tracemalloc.start()
        try:
            harness._solve_chunk(cfg, law, 0, size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= harness.CHUNK_BYTES

    @pytest.mark.parametrize("d,n,beta", [(1, 300, 3.0), (2, 40, 2.0), (3, 12, 1.0),
                                          (1, 300, 100.0), (2, 20, 100.0),
                                          (3, 16, 0.0), (3, 8, 100.0), (1, 300, 0.0)])
    def test_streamed_bytes_bounds_the_peak_tightly(self, d, n, beta):
        """A chunk's tracemalloc peak is at most its modelled bytes, the
        environments' share plus the solve's fixed bytes, and at least 85%
        of them; beta=100 sweeps in log space."""
        law = parse_law_spec("uniform:-1,1")
        log = log_space(beta, law)
        size = chunk_size(d, n, beta, log)
        model = size * streamed_bytes(d, n, beta, log) + SOLVE_FIXED_BYTES
        assert 0.85 * model <= _streamed_peak(d, n, beta, law, size) <= model

    def test_solve_fixed_bytes_cover_one_replication(self):
        """A one-replication solve holds the temporaries of drawing its top
        layer beside its share; the fixed bytes cover them at d=3, n=12
        (2197 sites, about 10 KiB) even without draw_bytes."""
        peak = _streamed_peak(3, 12, 1.0, parse_law_spec("uniform:-1,1"), 1)
        assert peak <= streamed_bytes(3, 12, 1.0) + SOLVE_FIXED_BYTES

    @pytest.mark.parametrize("d,n", [(3, 12), (3, 20), (4, 8)])
    def test_draw_bytes_bound_one_replication_with_large_layers(self, d, n):
        """The temporaries of drawing the top layer (9261 cells in d=3,
        n=20; 6561 in d=4, n=8, where x_1 spans every axis), set aside as
        draw_bytes, keep the model an upper bound of a one-replication
        solve."""
        peak = _streamed_peak(d, n, 1.0, parse_law_spec("uniform:-1,1"), 1)
        assert peak <= streamed_bytes(d, n, 1.0) + SOLVE_FIXED_BYTES + draw_bytes(d, n, 1.0)

    def test_draw_bytes_follow_the_largest_coordinate_array(self):
        """16 bytes per entry of the top layer's largest coordinate array:
        n + 1 entries in d = 1, (n+1)^2 in d = 2, 3, every cell in d = 4.
        Figure 1's share is 16 x 301 bytes, so its chunk stays 53."""
        assert draw_bytes(1, 300, 3.0) == 16 * 301
        assert chunk_size(1, 300, 3.0) == 53
        assert draw_bytes(3, 20, 0.0) == 0                     # beta=0 draws nothing
        assert draw_bytes(2, 20, 1.0) == draw_bytes(3, 20, 1.0) == 16 * 21 ** 2
        assert draw_bytes(4, 8, 1.0) == 16 * 9 ** 4
        assert chunk_size(3, 20, 1.0) == \
            (harness.CHUNK_BYTES - SOLVE_FIXED_BYTES - draw_bytes(3, 20, 1.0)) \
            // streamed_bytes(3, 20, 1.0)

    # chunks of 1, of 3 (3+3+2, so the last chunk is shorter), of all 8
    @pytest.mark.parametrize("budget,size", [
        (1, 1), (SOLVE_FIXED_BYTES + draw_bytes(CFG.d, CFG.n, CFG.beta)
                 + 3 * streamed_bytes(CFG.d, CFG.n, CFG.beta), 3),
        (1 << 30, 8)])
    def test_records_do_not_depend_on_chunk_size(self, monkeypatch, budget, size):
        ref = _data(run_replications(CFG))
        monkeypatch.setattr(harness, "CHUNK_BYTES", budget)
        assert min(chunk_size(CFG.d, CFG.n, CFG.beta), CFG.replications) == size
        assert _data(run_replications(CFG)) == ref

    def test_parallel_matches_serial_over_several_chunks(self):
        assert chunk_size(CHUNKED.d, CHUNKED.n, CHUNKED.beta) < CHUNKED.replications
        serial = run_replications(CHUNKED, workers=1)
        assert _data(run_replications(CHUNKED, workers=2)) == _data(serial)
        assert [r.index for r in serial] == list(range(12))


class TestLawParsedOnce:
    """A run parses and validates its law once; workers receive it pickled."""

    @pytest.fixture
    @staticmethod
    def table(tmp_path):
        path = tmp_path / "law.csv"
        xs = np.linspace(-1.0, 1.0, 5)
        path.write_text("x,f\n" + "".join(f"{x:.17g},{1.0 - 0.5 * x * x:.17g}\n" for x in xs))
        return path

    def test_parallel_run_survives_table_removed_after_parse(self, monkeypatch, table):
        cfg = dataclasses.replace(CHUNKED, law_spec=f"table:{table}")
        assert chunk_size(cfg.d, cfg.n, cfg.beta) < cfg.replications
        # a config parses its law once: the reference runs on a copy, so the
        # parallel run below parses (and removes the table) itself
        serial = run_replications(dataclasses.replace(cfg), workers=1)
        parse = harness.parse_law_spec

        def parse_then_remove(spec):
            law = parse(spec)
            table.unlink()
            return law

        monkeypatch.setattr(harness, "parse_law_spec", parse_then_remove)
        assert _data(run_replications(cfg, workers=2)) == _data(serial)
        assert not table.exists()

    @pytest.mark.parametrize("make", ["uniform", "table", "spec"])
    def test_law_pickles_to_identical_records(self, table, make):
        xs = np.linspace(-1.0, 1.0, 7)
        law = {"uniform": lambda: make_uniform(-1.0, 1.0),
               "table": lambda: make_table_law(xs, 1.0 - xs ** 4),
               "spec": lambda: parse_law_spec(f"table:{table}")}[make]()
        copy = pickle.loads(pickle.dumps(law))
        grid, u = law.interior_grid(33), np.linspace(0.0, 1.0, 33, endpoint=False)
        for fn, x in (("density", grid), ("h", grid), ("quantile", u)):
            np.testing.assert_array_equal(getattr(copy, fn)(x), getattr(law, fn)(x))
        assert copy.mean == law.mean and copy.name == law.name
        assert _data(harness._solve_chunk(CFG, copy, 0, 8)) == \
            _data(harness._solve_chunk(CFG, law, 0, 8))


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

    @pytest.mark.parametrize("requested", [True, 2.5, "2", np.float64(1.0)])
    def test_requested_count_must_be_an_int(self, requested):
        """A bool passed as True (1 worker), 2.5 passed as 2 on two CPUs
        and as 2.5 on more, and "2" raised a bare TypeError."""
        with pytest.raises(ConfigError, match="workers must be an int"):
            worker_count(requested)

    def test_numpy_integer_count_is_an_int(self):
        assert type(worker_count(np.int64(1))) is int


class TestHistogram:
    def test_counts_sum(self):
        recs = [ReplicationRecord(i, 0.1 + 0.02 * i, 0.5, 0.0) for i in range(20)]
        edges, counts = histogram(recs, 40)
        assert counts.sum() == 20
        assert edges.size == 41

    def test_all_equal_single_bin(self):
        recs = [ReplicationRecord(i, 0.4321, 0.7, 0.0) for i in range(12)]
        _, counts = histogram(recs, 10)
        assert counts.max() == 12
        assert (counts > 0).sum() == 1

    def test_bin_guard(self):
        with pytest.raises(ConfigError):
            histogram([], 5)

    def test_csv(self, tmp_path):
        recs = [ReplicationRecord(i, 0.5, 0.7, 0.0) for i in range(3)]
        edges, counts = histogram(recs, 10)
        p = tmp_path / "h.csv"
        histogram_file(str(p)).finish(histogram_rows(edges, counts))
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count"
        assert len(lines) == 11


class TestScaling:
    def test_beta0_rho_matches_analytic(self):
        rows, _ = scaling_study(1, [16, 32, 64])
        for n, _, r in rows:
            assert r == pytest.approx(binomial_rho(n), abs=1e-12)

    def test_d1_slope_band(self):
        _, slope = scaling_study(1, [64, 128, 256, 512])
        assert -0.65 <= slope <= -0.35

    def test_d3_slope_band(self):
        _, slope = scaling_study(3, [8, 16, 32])
        assert -1.3 <= slope <= -0.7

    @pytest.mark.parametrize("d,n_grid", [(1, [16]), (1, [16, 16]), (1, []),
                                          (1, [0, 8]), (0, [8, 16])])
    def test_needs_two_distinct_valid_sizes(self, d, n_grid):
        for check in (scaling_instances, scaling_study):
            with pytest.raises(ConfigError):
                check(d, n_grid)

    @pytest.mark.parametrize("n_grid", [[8, 16.5], [8.0, 16], [8, True, 16],
                                        [np.int64(8), np.float64(16.0)]])
    def test_rejects_non_integral_sizes(self, n_grid):
        """int(n) would truncate 16.5 to 16 and take True for 1."""
        for check in (scaling_instances, scaling_study):
            with pytest.raises(ConfigError, match="integer"):
                check(1, n_grid)

    @pytest.mark.parametrize("d", [True, 1.5])
    def test_rejects_non_integral_dimension(self, d):
        for check in (scaling_instances, scaling_study):
            with pytest.raises(ConfigError, match="d must be an int"):
                check(d, [8, 16])

    def test_instances_follow_the_grid(self):
        """One beta=0 instance per n, in grid order, repeated sizes included."""
        insts = scaling_instances(2, [12, np.int64(6), 12], base_seed=5)
        assert [(i.d, i.n, i.beta, i.seed) for i in insts] == [
            (2, 12, 0.0, 5), (2, 6, 0.0, 5), (2, 12, 0.0, 5)]

    @pytest.mark.parametrize("d,n_grid", [(1, [32, 8, 16, 8]), (2, [6, 12])])
    def test_rows_equal_per_n_solves_in_grid_order(self, d, n_grid):
        """One solve at the largest n gives every row as its own solve does,
        in grid order, repeated sizes included."""
        law = parse_law_spec("uniform:-1,1")
        want = []
        for n in n_grid:
            sol = forward_backward(PolymerInstance(d=d, n=n, beta=0.0, law=law, seed=0),
                                   keep_forward=False, keep_theta=False)
            want.append((n, ell_fn(sol)[0], rho_fn(sol)))
        rows, _ = scaling_study(d, n_grid)
        assert rows == want

    def test_numpy_int_sizes_are_ints(self):
        assert scaling_study(1, [np.int64(8), np.int32(16)]) == scaling_study(1, [8, 16])


def test_summary_stats():
    recs = [ReplicationRecord(i, v, 0.8, 0.0)
            for i, v in enumerate([0.02, 0.4, 0.6])]
    s = summary_stats(recs)
    assert s["min_rho"] == 0.02
    assert s["max_rho"] == 0.6
    assert s["p_rho_le_0.05"] == pytest.approx(1.0 / 3.0)
    assert json.dumps(s)  # JSON-serializable
