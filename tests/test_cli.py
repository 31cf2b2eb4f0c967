"""CLI: subcommand plumbing, exit codes, file outputs, determinism."""

import json

import pytest

from polylab.cli import (EXIT_CONFIG, EXIT_OK, EXIT_VERIFY_FAILED, main)


def assert_config_error(code, capsys):
    """Exit 2 with one `config error:` line on stderr and no traceback."""
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("config error: ") and err.count("\n") == 1


class TestSimulate:
    def test_basic_run(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main(["simulate", "--d", "1", "--n", "30", "--beta", "3",
                     "--law", "uniform:-1,1", "--reps", "5", "--seed", "42",
                     "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "replication,rho,ell,log_partition,runtime_ms"
        assert len(lines) == 6

    def test_missing_n_is_config_error(self, tmp_path):
        code = main(["simulate", "--d", "1", "--beta", "3",
                     "--out", str(tmp_path / "r.csv")])
        assert code == EXIT_CONFIG

    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        flags = ["simulate", "--d", "1", "--n", "25", "--beta", "2",
                 "--reps", "4", "--seed", "7"]
        assert main(flags + ["--out", str(a)]) == EXIT_OK
        assert main(flags + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_profiles_output(self, tmp_path):
        out, prof = tmp_path / "r.csv", tmp_path / "p.csv"
        code = main(["simulate", "--d", "1", "--n", "20", "--beta", "1",
                     "--reps", "1", "--seed", "3", "--out", str(out),
                     "--profiles", str(prof)])
        assert code == EXIT_OK
        lines = prof.read_text().strip().splitlines()
        assert lines[0] == "k,alpha,gamma,tau"
        assert len(lines) == 21

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "d": 1, "n": 20, "beta": 1.0, "law_spec": "uniform:-1,1",
            "replications": 2, "base_seed": 5}))
        out = tmp_path / "r.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert len(out.read_text().strip().splitlines()) == 3

    @pytest.mark.parametrize("key,value", [
        ("n", 20.0), ("replications", 2.0), ("base_seed", 5.0), ("d", True),
        ("histogram_bins", 40.0), ("beta", float("nan")), ("beta", float("inf")),
        ("beta", "1"), ("centered", 1), ("law_spec", 5),
    ])
    def test_ill_typed_config_is_config_error(self, tmp_path, key, value):
        doc = {"d": 1, "n": 20, "beta": 1.0, "law_spec": "uniform:-1,1",
               "replications": 2, "base_seed": 5}
        doc[key] = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))      # nan and inf as NaN and Infinity
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "r.csv")])
        assert code == EXIT_CONFIG
        assert not (tmp_path / "r.csv").exists()

    def test_config_and_inline_exclusive(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{}")
        code = main(["simulate", "--config", str(cfg), "--n", "10",
                     "--out", str(tmp_path / "r.csv")])
        assert code == EXIT_CONFIG

    def test_malformed_json_config_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"d": 1, "n": 20,')
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "r.csv")])
        assert_config_error(code, capsys)

    def test_out_directory_is_config_error(self, tmp_path, capsys):
        code = main(["simulate", "--d", "1", "--n", "10", "--beta", "1",
                     "--reps", "1", "--out", str(tmp_path)])
        assert_config_error(code, capsys)

    def test_table_law_directory_is_config_error(self, tmp_path, capsys):
        code = main(["simulate", "--d", "1", "--n", "10", "--beta", "1",
                     "--law", f"table:{tmp_path}", "--reps", "1",
                     "--out", str(tmp_path / "r.csv")])
        assert_config_error(code, capsys)
        assert not (tmp_path / "r.csv").exists()

    def test_bad_law_spec(self, tmp_path):
        code = main(["simulate", "--d", "1", "--n", "10", "--beta", "1",
                     "--law", "cauchy:0,1", "--reps", "1", "--seed", "1",
                     "--out", str(tmp_path / "r.csv")])
        assert code == EXIT_CONFIG


class TestFigure1:
    def test_small_run(self, tmp_path):
        prefix = str(tmp_path / "fig")
        code = main(["figure1", "--reps", "12", "--seed", "9",
                     "--out-prefix", prefix])
        assert code == EXIT_OK
        hist = (tmp_path / "fig_histogram.csv").read_text().strip().splitlines()
        assert hist[0] == "bin_lo,bin_hi,count"
        assert sum(int(line.split(",")[2]) for line in hist[1:]) == 12
        summary = json.loads((tmp_path / "fig_summary.json").read_text())
        assert set(summary) == {"min_rho", "max_rho", "mean_rho", "p_rho_le_0.05"}
        assert all(0.0 <= summary[k] <= 1.0 for k in ("min_rho", "max_rho", "mean_rho"))


class TestScaling:
    def test_runs_and_writes(self, tmp_path):
        out = tmp_path / "s.csv"
        code = main(["scaling", "--d", "1", "--n-grid", "16,32,64",
                     "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,ell,rho"
        assert len(lines) == 4

    @pytest.mark.parametrize("grid", ["8,x", "0,8", "16", "16,16"])
    def test_bad_n_grid_is_config_error(self, grid, capsys):
        assert_config_error(main(["scaling", "--n-grid", grid]), capsys)


class TestEnvCheck:
    def test_uniform(self, capsys):
        assert main(["env-check", "--law", "uniform:-1,1",
                     "--grid-points", "256"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "K = sup h = 0.5" in out
        assert "kappa(d=1)" in out

    def test_zero_grid_points_is_config_error(self, capsys):
        assert_config_error(main(["env-check", "--grid-points", "0"]), capsys)


class TestVerify:
    def test_passes_and_reports(self, tmp_path):
        report = tmp_path / "verify.json"
        assert main(["verify", "--report", str(report)]) == EXIT_OK
        doc = json.loads(report.read_text())
        assert doc["passed"] is True
        assert len(doc["checks"]) >= 10
        names = {c["name"] for c in doc["checks"]}
        assert len(names) == len(doc["checks"])

    def test_injected_perturbation_fails_normalization(self, tmp_path, capsys):
        report = tmp_path / "verify.json"
        code = main(["verify", "--report", str(report), "--perturb-theta"])
        assert code == EXIT_VERIFY_FAILED
        doc = json.loads(report.read_text())
        failing = [c["name"] for c in doc["checks"] if not c["passed"]]
        assert failing == ["layer_normalization"]
        assert "layer_normalization" in capsys.readouterr().err


def test_unknown_subcommand_is_config_error():
    assert main(["frobnicate"]) == EXIT_CONFIG
