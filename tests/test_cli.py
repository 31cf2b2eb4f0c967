"""CLI: subcommand plumbing, exit codes, file outputs, determinism."""

import errno
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from polylab import cli, harness, laws, verify
from polylab.cli import (EXIT_BROKEN_PIPE, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK,
                         EXIT_VERIFY_FAILED, main)
from polylab.engine import NumericalError

ROOT = Path(__file__).resolve().parents[1]


def not_called(*args, **kwargs):
    raise AssertionError("the computation was called")


def assert_config_error(code, capsys):
    """Exit 2 with one `config error:` line on stderr and no traceback."""
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("config error: ") and err.count("\n") == 1
    return err


class TestSimulate:
    def test_basic_run(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main(["simulate", "--d", "1", "--n", "30", "--beta", "3",
                     "--law", "uniform:-1,1", "--reps", "5", "--seed", "42",
                     "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "replication,rho,ell,log_partition"
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

    def test_the_report_is_the_same_without_profiles(self, tmp_path):
        flags = ["simulate", "--d", "1", "--n", "20", "--beta", "2", "--reps", "3",
                 "--seed", "5"]
        alone, beside = tmp_path / "alone.csv", tmp_path / "beside.csv"
        assert main(flags + ["--out", str(alone)]) == EXIT_OK
        assert main(flags + ["--out", str(beside), "--profiles", str(tmp_path / "p.csv")]) \
            == EXIT_OK
        assert alone.read_bytes() == beside.read_bytes()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_an_overflowed_log_partition_is_a_numerical_failure(self, monkeypatch, tmp_path,
                                                                 capsys):
        """At beta=5e307 the third replication's log Z overflows to inf
        (numpy warns of the overflow on the way): the run exits 3 and
        removes its report."""
        monkeypatch.chdir(tmp_path)
        code = main(["simulate", "--d", "1", "--n", "10", "--beta", "5e307", "--reps", "3",
                     "--out", "r.csv"])
        assert code == EXIT_NUMERICAL
        assert "replication 2: non-finite log Z=inf" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_profiles_reuse_the_runs_law(self, monkeypatch, tmp_path):
        """--profiles solves with the law the run parsed and validated: a
        table law's CSV is parsed once."""
        table = tmp_path / "law.csv"
        xs = np.linspace(-1.0, 1.0, 5)
        table.write_text("x,f\n" + "".join(f"{x:.17g},{1.0 - 0.5 * x * x:.17g}\n"
                                           for x in xs))
        specs = []
        parse = harness.parse_law_spec
        monkeypatch.setattr(harness, "parse_law_spec",
                            lambda spec: specs.append(spec) or parse(spec))
        code = main(["simulate", "--d", "1", "--n", "12", "--beta", "1",
                     "--law", f"table:{table}", "--reps", "2", "--seed", "3",
                     "--out", str(tmp_path / "r.csv"), "--profiles", str(tmp_path / "p.csv")])
        assert code == EXIT_OK
        assert specs == [f"table:{table}"]

    def test_the_law_is_validated_once(self, monkeypatch, tmp_path):
        """The run's law is validated as its config parses it, once: before
        any output opens, and not again by run_replications or --profiles."""
        calls = []
        validate = laws.EnvironmentLaw.validate
        monkeypatch.setattr(laws.EnvironmentLaw, "validate",
                            lambda law: calls.append(law) or validate(law))
        code = main(["simulate", "--d", "1", "--n", "8", "--beta", "1", "--reps", "2",
                     "--out", str(tmp_path / "r.csv"), "--profiles", str(tmp_path / "p.csv")])
        assert code == EXIT_OK
        assert len(calls) == 1

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
        ("beta", "1"), ("centered", 1), ("law_spec", 5), ("beta", True),
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

    def test_config_refuses_law_flag(self, tmp_path, capsys):
        """--law is an inline flag too, even when it names the default law."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d": 1, "n": 20, "beta": 1.0, "law_spec": "uniform:-1,1",
                                   "replications": 2, "base_seed": 5}))
        code = main(["simulate", "--config", str(cfg), "--law", "uniform:-1,1",
                     "--out", str(tmp_path / "r.csv")])
        assert "mutually exclusive" in assert_config_error(code, capsys)
        assert not (tmp_path / "r.csv").exists()

    def test_malformed_json_config_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"d": 1, "n": 20,')
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "r.csv")])
        assert_config_error(code, capsys)

    def test_out_directory_is_config_error(self, tmp_path, capsys):
        code = main(["simulate", "--d", "1", "--n", "10", "--beta", "1",
                     "--reps", "1", "--out", str(tmp_path)])
        assert_config_error(code, capsys)

    @pytest.mark.parametrize("flag,target", [
        ("--out", "."), ("--out", "missing/r.csv"),
        ("--profiles", "."), ("--profiles", "missing/p.csv"),
    ])
    def test_unwritable_output_fails_before_solving(self, monkeypatch, tmp_path,
                                                     capsys, flag, target):
        """A directory, or a path in a missing directory, exits 2 before any
        replication is solved, and leaves no file behind."""
        monkeypatch.setattr(cli, "run_replications", not_called)
        paths = {"--out": str(tmp_path / "r.csv"), "--profiles": str(tmp_path / "p.csv")}
        paths[flag] = str(tmp_path / target)
        code = main(["simulate", "--d", "1", "--n", "10", "--beta", "1", "--reps", "1",
                     "--out", paths["--out"], "--profiles", paths["--profiles"]])
        assert_config_error(code, capsys)
        assert list(tmp_path.iterdir()) == []

    def test_figure1_unwritable_prefix_fails_before_solving(self, monkeypatch,
                                                            tmp_path, capsys):
        monkeypatch.setattr(cli, "run_replications", not_called)
        code = main(["figure1", "--reps", "2", "--out-prefix",
                     str(tmp_path / "missing" / "fig")])
        assert_config_error(code, capsys)

    def test_figure1_too_few_bins_fails_before_solving(self, monkeypatch, tmp_path,
                                                       capsys):
        monkeypatch.setattr(cli, "run_replications", not_called)
        code = main(["figure1", "--reps", "2", "--bins", "5",
                     "--out-prefix", str(tmp_path / "fig")])
        assert "at least 10 bins" in assert_config_error(code, capsys)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("text", ["x,f\n-1,0\n0,one\n1,0\n", "x,f\n-1,0\n0\n1,0\n"])
    def test_malformed_table_law_is_config_error(self, tmp_path, capsys, text):
        """A non-numeric cell or a one-column row exits 2, naming its line."""
        table = tmp_path / "f.csv"
        table.write_text(text)
        code = main(["simulate", "--d", "1", "--n", "10", "--beta", "1",
                     "--law", f"table:{table}", "--out", str(tmp_path / "r.csv")])
        assert "line 3" in assert_config_error(code, capsys)

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


    def test_a_full_output_fails_before_solving(self, monkeypatch, capsys):
        """The report's header is written and flushed before the run, so
        /dev/full exits 2, naming the flag and the file, without solving a
        replication."""
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        monkeypatch.setattr(cli, "run_replications", not_called)
        code = main(["simulate", "--d", "1", "--n", "5", "--beta", "1",
                     "--out", "/dev/full"])
        err = assert_config_error(code, capsys)
        assert f"--out '/dev/full': [Errno {errno.ENOSPC}]" in err

    def test_a_full_profile_output_fails_before_solving(self, monkeypatch, tmp_path,
                                                        capsys):
        """The profile CSV's header is written and flushed before the run as
        the report's is, so --profiles /dev/full exits 2, naming the flag
        and the file, without solving a replication, and the report whose
        header was written is removed."""
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        monkeypatch.setattr(cli, "run_replications", not_called)
        code = main(["simulate", "--d", "1", "--n", "5", "--beta", "1", "--reps", "3",
                     "--out", str(tmp_path / "r.csv"), "--profiles", "/dev/full"])
        err = assert_config_error(code, capsys)
        assert f"--profiles '/dev/full': [Errno {errno.ENOSPC}]" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("second", ["same.csv", "./same.csv", "link.csv"])
    def test_one_file_named_by_two_outputs_is_refused(self, monkeypatch, tmp_path, capsys,
                                                      second):
        """--out and --profiles of one real path (the profile rows would
        overwrite the report) exit 2 before any solve, naming both flags,
        and leave the file as it was."""
        monkeypatch.setattr(cli, "run_replications", not_called)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "same.csv").write_bytes(b"kept\n")
        (tmp_path / "link.csv").symlink_to("same.csv")
        code = main(["simulate", "--d", "1", "--n", "5", "--beta", "1", "--reps", "3",
                     "--out", "same.csv", "--profiles", second])
        err = assert_config_error(code, capsys)
        assert f"--profiles {second!r} names the file of --out 'same.csv'" in err
        assert (tmp_path / "same.csv").read_bytes() == b"kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "same.csv"]

    @pytest.mark.parametrize("failing", ["run", "profiles"])
    def test_a_failed_solve_leaves_no_report(self, monkeypatch, tmp_path, capsys, failing):
        """A run or a --profiles solve that fails after the report's header
        was written exits 3 and removes the partial report."""
        def fail(*args, **kwargs):
            raise NumericalError("non-finite forward layer at k=2")
        monkeypatch.setattr(cli, {"run": "run_replications",
                                  "profiles": "forward_backward"}[failing], fail)
        out = tmp_path / "r.csv"
        code = main(["simulate", "--d", "1", "--n", "5", "--beta", "1", "--out", str(out),
                     "--profiles", str(tmp_path / "p.csv")])
        assert code == EXIT_NUMERICAL
        assert "non-finite forward layer" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


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

    def test_has_no_seed_flag(self, capsys):
        """The beta=0 measure draws no environment, so a seed would change nothing."""
        assert main(["scaling", "--n-grid", "8,16", "--seed", "3"]) == EXIT_CONFIG
        assert "--seed" in capsys.readouterr().err


class TestEnvCheck:
    def test_uniform(self, capsys):
        assert main(["env-check", "--law", "uniform:-1,1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "K = sup h = 0.5" in out
        assert "kappa(d=1)" in out

    def test_table(self, tmp_path, capsys):
        """The 201-node 1 - x^2 table, perfbench's table_law density."""
        path = tmp_path / "density.csv"
        path.write_text("x,f\n" + "".join(f"{x:.17g},{max(0.0, 1.0 - x * x):.17g}\n"
                                          for x in np.linspace(-1.0, 1.0, 201)))
        assert main(["env-check", "--law", f"table:{path}"]) == EXIT_OK
        line = next(l for l in capsys.readouterr().out.splitlines()
                    if l.startswith("K = sup h = "))
        assert float(line.split("=")[-1]) == pytest.approx(0.24999479159, abs=1e-8)

    def test_coarse_asymmetric_table(self, tmp_path):
        """Four nodes on (0, 2): the law validates, so env-check succeeds."""
        path = tmp_path / "density.csv"
        path.write_text("x,f\n0,0\n0.1,3\n0.7,0.2\n2.0,0\n")
        assert main(["env-check", "--law", f"table:{path}"]) == EXIT_OK


class TestVerify:
    def test_passes_and_reports(self, tmp_path):
        report = tmp_path / "verify.json"
        assert main(["verify", "--report", str(report)]) == EXIT_OK
        doc = json.loads(report.read_text())
        assert doc["passed"] is True
        assert len(doc["checks"]) >= 10
        names = {c["name"] for c in doc["checks"]}
        assert len(names) == len(doc["checks"])

    def test_injected_perturbation_fails_normalization(self, monkeypatch, tmp_path,
                                                       capsys):
        """Perturb one theta entry of the solve the normalization check reads."""
        solve = verify.forward_backward

        def perturbed(inst, **kwargs):
            sol = solve(inst, **kwargs)
            if inst.seed == verify.FAST["layer_normalization"]["seed"]:
                sol.theta_layers[len(sol.theta_layers) // 2][0] += 1e-3
            return sol

        monkeypatch.setattr(verify, "forward_backward", perturbed)
        report = tmp_path / "verify.json"
        code = main(["verify", "--report", str(report)])
        assert code == EXIT_VERIFY_FAILED
        doc = json.loads(report.read_text())
        failing = [c["name"] for c in doc["checks"] if not c["passed"]]
        assert failing == ["layer_normalization"]
        assert "layer_normalization" in capsys.readouterr().err


def test_unknown_subcommand_is_config_error():
    assert main(["frobnicate"]) == EXIT_CONFIG


@pytest.mark.parametrize("argv,flag", [
    (["simulate", "--d", "1", "--n", "5", "--beta", "1", "--out", "r.csv"], "--timings"),
    (["env-check"], "--grid-points"),
])
def test_removed_options_are_config_errors(monkeypatch, capsys, argv, flag):
    """simulate has no --timings (a report holds no wall-clock time) and
    env-check no --grid-points: argparse refuses both before any work."""
    monkeypatch.setattr(cli, "run_replications", not_called)
    monkeypatch.setattr(cli, "parse_law_spec", not_called)
    args = argv + [flag] + (["5"] if flag == "--grid-points" else [])
    assert main(args) == EXIT_CONFIG
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("argv,owner,name", [
    (["scaling", "--out"], cli, "scaling_study"),
    (["verify", "--report"], verify, "run_checks"),
])
def test_unwritable_output_fails_before_computing(monkeypatch, tmp_path, capsys,
                                                  argv, owner, name):
    monkeypatch.setattr(owner, name, not_called)
    assert_config_error(main(argv + [str(tmp_path / "missing" / "f")]), capsys)


@pytest.mark.parametrize("case", ["long-out-name", "out-dev-full",
                                  "config-not-utf8", "table-not-utf8"])
def test_refused_paths_and_undecodable_files_exit_2(monkeypatch, tmp_path, capsys,
                                                    case):
    """An output path the OS refuses and an input file that is not UTF-8
    exit 2 with one config error line, not a traceback and exit 1.  A name
    too long for the OS is refused before any replication is solved and
    leaves no file; an undecodable file is named."""
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff\xfe\x00")
    small = ["simulate", "--d", "1", "--n", "5", "--beta", "1", "--reps", "1"]
    argv = {
        "long-out-name": small + ["--out", str(tmp_path / ("r" * 296 + ".csv"))],
        "out-dev-full": small + ["--out", "/dev/full"],
        "config-not-utf8": ["simulate", "--config", str(bad),
                            "--out", str(tmp_path / "r.csv")],
        "table-not-utf8": ["env-check", "--law", f"table:{bad}"],
    }[case]
    if case == "out-dev-full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    if case == "long-out-name":
        monkeypatch.setattr(cli, "run_replications", not_called)
    err = assert_config_error(main(argv), capsys)
    if case.endswith("not-utf8"):
        assert str(bad) in err
    if case == "out-dev-full":
        assert "--out" in err and "/dev/full" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad"]


def full_rows(*args):
    """Rows whose first write fails as on a full disk."""
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    yield


@pytest.mark.parametrize("case", ["simulate-out", "simulate-profiles", "figure1-histogram",
                                  "scaling-out", "verify-report"])
def test_a_failed_write_names_its_flag_and_file(monkeypatch, tmp_path, capsys, case):
    """A write that fails once the command's outputs are open, as on a full
    disk, exits 2 with a config error naming the flag and the file, and
    leaves no file: every output the command opened is removed, one
    already finished included.  simulate's outputs and figure1's histogram
    fail on their rows; scaling's --out and verify's --report are
    /dev/full, where scaling's CSV fails at its header, before
    scaling_study, and verify's JSON document at its opening brace, before
    run_checks."""
    sim = ["simulate", "--d", "1", "--n", "5", "--beta", "1", "--reps", "2",
           "--out", str(tmp_path / "r.csv"), "--profiles", str(tmp_path / "p.csv")]
    flag, full, argv, rows = {
        "simulate-out": ("--out", str(tmp_path / "r.csv"), sim, "report_rows"),
        "simulate-profiles": ("--profiles", str(tmp_path / "p.csv"), sim, "profile_rows"),
        "figure1-histogram": ("--out-prefix", str(tmp_path / "f_histogram.csv"),
                              ["figure1", "--reps", "2", "--out-prefix", str(tmp_path / "f")],
                              "histogram_rows"),
        "scaling-out": ("--out", "/dev/full",
                        ["scaling", "--n-grid", "4,8", "--out", "/dev/full"], None),
        "verify-report": ("--report", "/dev/full", ["verify", "--report", "/dev/full"], None),
    }[case]
    if rows:
        monkeypatch.setattr(cli, rows, full_rows)
    elif not os.path.exists(full):
        pytest.skip("no /dev/full on this system")
    monkeypatch.setattr(cli, "scaling_study", not_called)
    monkeypatch.setattr(verify, "run_checks", not_called)
    err = assert_config_error(main(argv), capsys)
    assert f"{flag} {full!r}: [Errno {errno.ENOSPC}]" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,last,files", [
    (["scaling", "--n-grid", "8,16"], "log-log slope of ell vs n: ", []),
    (["verify"], "PASS  ", []),
    (["env-check"], f"g={verify.IBP_BATTERY[-1][0]}: ibp residual ", []),
    (["simulate", "--d", "1", "--n", "5", "--beta", "1", "--out", "r.csv"],
     "wrote 1 replications to r.csv", ["r.csv"]),
    (["figure1", "--reps", "2", "--out-prefix", "p"], "}",
     ["p_histogram.csv", "p_report.csv", "p_summary.json"]),
], ids=["scaling", "verify", "env-check", "simulate", "figure1"])
def test_each_command_runs_with_only_its_required_flags(monkeypatch, tmp_path, capsys, argv,
                                                        last, files):
    """An output not asked for is neither opened nor written: each command
    exits 0, prints its usual last line and leaves exactly the files it
    was asked for."""
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1].startswith(last)
    assert sorted(p.name for p in tmp_path.iterdir()) == files


def readme_commands():
    """The polylab commands of README's "Command line" block, each one
    line with its continuations joined, split as a shell splits them."""
    section = (ROOT / "README.md").read_text().split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)
            for line in block.replace("\\\n", " ").splitlines() if line.startswith("polylab ")]


def test_readme_command_line_block_shows_every_subcommand():
    assert [argv[1] for argv in readme_commands()] == [
        "simulate", "figure1", "scaling", "env-check", "verify"]


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[1])
def test_readme_command_line_examples_parse(argv):
    """Each example parses, so no subcommand or flag it names was renamed
    or removed; none is run."""
    assert cli.build_parser().parse_args(argv[1:]).command == argv[1]


@pytest.mark.parametrize("argv", [
    ["simulate", "--d", "1", "--n", "5", "--beta", "1", "--law", "cauchy:0,1", "--out", "r.csv"],
    ["simulate", "--d", "1", "--n", "5", "--beta", "1", "--workers", "0", "--out", "r.csv"],
    ["scaling", "--d", "0", "--out", "r.csv"],
    ["figure1", "--bins", "5", "--out-prefix", "r"],
], ids=["simulate-law", "simulate-workers", "scaling-d", "figure1-bins"])
def test_a_refused_command_touches_no_file(monkeypatch, tmp_path, capsys, argv):
    """Every input check that needs no solve runs before the first output
    is opened, so a refused command leaves the files already at its output
    paths byte-identical."""
    monkeypatch.chdir(tmp_path)
    names = ["r.csv", "r_report.csv", "r_histogram.csv", "r_summary.json"]
    for name in names:
        (tmp_path / name).write_bytes(b"kept\r\n")
    assert_config_error(main(argv), capsys)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == dict.fromkeys(
        names, b"kept\r\n")


@pytest.mark.parametrize("argv", [["figure1", "--bins", "1000000000000"],
                                  ["scaling", "--d", "40", "--n-grid", "4,8"]],
                         ids=["figure1-bins", "scaling-d"])
def test_a_size_too_large_to_allocate_is_a_config_error(monkeypatch, tmp_path, capsys,
                                                        argv):
    """numpy refuses these requests at once (7.28 TiB of bin edges; 8 TiB
    for a layer in d=40): one config error line and exit 2, not a traceback
    and exit 1, and no file."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "run_replications", not_called)
    assert "Unable to allocate" in assert_config_error(main(argv), capsys)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags", [[], ["-u"]], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_141_without_traceback(flags):
    """A reader that closes the pipe before the command writes (as in
    `polylab env-check | head -1` on a long output) ends it with
    128 + SIGPIPE, whether stdout fails on a print or on the final flush."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, *flags, "-m", "polylab.cli", "env-check"],
                              stdout=write_end,
                              stderr=subprocess.PIPE, env=env, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert done.returncode == EXIT_BROKEN_PIPE == 141
    assert "Traceback" not in done.stderr
