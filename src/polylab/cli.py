"""Command-line entry point.

Subcommands:
  simulate   replicated runs -> report CSV (+ optional per-k profile CSV)
  figure1    the canonical d=1, n=300, beta=3, Uniform[-1,1] histogram run
  scaling    beta=0 random-walk scaling of the localization degree
  env-check  law diagnostics: h grid, K, kappa, identity batteries
  verify     full property battery; exit 0 iff everything passes

Exit codes: 0 success, 1 verification failure, 2 config error, 3 numerical
failure, 141 stdout closed by its reader (128 + SIGPIPE, as a shell reports
a writer stopped by a closed pipe).  An input file that cannot be read or
decoded, a size too large to allocate (MemoryError), an output path the OS
refuses (any OSError but a closed stdout), one file named by two outputs
and a failed write to an output file (a full disk, say) are config errors;
the last three name the flag and the file.

Every command that writes files does so one way (_outputs): it checks every
input that needs no solve, then opens every output asked for, a CSV's
header or a JSON document's opening brace written and flushed, then
computes, then finishes each output with one body per declared output; an
output not asked for (scaling without --out, verify without --report,
simulate without --profiles) is neither opened nor written.  So a refused
command touches no file, and a command that fails once its outputs are
open removes every output it opened, one that existed before included.
Every subcommand is deterministic given its flags.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import replace

from . import functionals, laws, verify
from .engine import NumericalError, forward_backward
from .harness import (DEFAULT_LAW, FIGURE1, ConfigError, ExperimentConfig, ReportFile,
                      histogram, histogram_file, histogram_rows, json_file, parse_law_spec,
                      profile_file, profile_rows, report_file, report_rows,
                      run_replications, scaling_instances, scaling_study,
                      summary_stats, worker_count)
from .rng import replication_seed

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_BROKEN_PIPE = 141


def _config_from_args(args) -> ExperimentConfig:
    if args.config:
        if any(v is not None for v in (args.d, args.n, args.beta, args.law, args.reps, args.seed)):
            raise ConfigError("--config and inline flags are mutually exclusive")
        try:
            with open(args.config) as fh:
                return ExperimentConfig.from_json(fh.read())
        except UnicodeDecodeError as exc:
            raise ConfigError(f"--config {args.config!r} cannot be decoded: {exc}") from None
    missing = [name for name, v in
               [("--d", args.d), ("--n", args.n), ("--beta", args.beta)]
               if v is None]
    if missing:
        raise ConfigError(f"missing required flags: {' '.join(missing)}")
    return ExperimentConfig(
        d=args.d, n=args.n, beta=args.beta,
        law_spec=args.law if args.law is not None else DEFAULT_LAW,
        replications=args.reps if args.reps is not None else 1,
        base_seed=args.seed if args.seed is not None else 0)


@contextmanager
def _writing(flag: str, path: str):
    """An OSError in the body reported as a config error that names the
    flag and the file."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"{flag} {path!r}: {exc}") from None


@contextmanager
def _outputs(*outputs):
    """A command's outputs, opened for the with body, which computes and
    then calls the function it is given with one body of lines per output
    to finish each.  Enter it once every input check that needs no solve
    has passed.

    outputs are (flag, path, open_file) triples, path None for an output
    not asked for, which is neither opened nor written.  finish takes one
    body per declared output, asked for or not, in the order declared.  Two
    outputs of one real path are refused before any is opened.
    open_file(path) opens a harness.ReportFile, which writes and flushes its
    head, so /dev/full fails before any work.  Any failure discards every
    file opened, one that existed before included, and an OSError of a file
    is a config error that names its flag and the file."""
    named = {}
    for flag, path in [(flag, path) for flag, path, _ in outputs if path is not None]:
        first = named.setdefault(os.path.realpath(path), (flag, path))
        if first != (flag, path):
            raise ConfigError(f"{flag} {path!r} names the file of {first[0]} {first[1]!r}")
    files = []      # one per output opened so far, None for one not asked for

    def finish(*bodies):
        for (flag, path, _), out, body in zip(outputs, files, bodies, strict=True):
            if out is not None:
                with _writing(flag, path):
                    out.finish(body)

    try:
        for flag, path, open_file in outputs:
            with _writing(flag, path):
                files.append(None if path is None else open_file(path))
        yield finish
    except BaseException:
        for out in filter(None, files):     # the outputs opened
            out.discard()
        raise


def cmd_simulate(args) -> int:
    config = _config_from_args(args)
    law = config.law        # parsed and validated before any output opens
    workers = worker_count(args.workers)
    with _outputs(("--out", args.out, report_file),
                  ("--profiles", args.profiles, profile_file)) as finish:
        records = run_replications(config, workers=workers)
        profiles = None if args.profiles is None else profile_rows(functionals.build_report(
            forward_backward(config.instance(replication_seed(config.base_seed, 0), law),
                             keep_forward=False)))
        finish(report_rows(records), profiles)
    print(f"wrote {len(records)} replications to {args.out}")
    return EXIT_OK


def cmd_figure1(args) -> int:
    config = replace(FIGURE1, replications=args.reps, base_seed=args.seed)
    histogram([], args.bins)        # refuses too few bins before any solve
    workers = worker_count(args.workers)
    prefix = args.out_prefix
    with _outputs(("--out-prefix", prefix + "_report.csv", report_file),
                  ("--out-prefix", prefix + "_histogram.csv", histogram_file),
                  ("--out-prefix", prefix + "_summary.json", json_file)) as finish:
        records = run_replications(config, workers=workers)
        summary = json.dumps(summary_stats(records), indent=2, sort_keys=True) + "\n"
        # the summary after its opening brace, which json_file wrote
        finish(report_rows(records), histogram_rows(*histogram(records, args.bins)), [summary[1:]])
    print(summary, end="")
    return EXIT_OK


def cmd_scaling(args) -> int:
    try:
        n_grid = [int(v) for v in args.n_grid.split(",")]
    except ValueError:
        raise ConfigError(f"--n-grid wants comma-separated integers, "
                          f"got {args.n_grid!r}") from None
    scaling_instances(args.d, n_grid)       # refuses a bad d or grid before any open
    head = "n,ell,rho\n"
    with _outputs(("--out", args.out, lambda path: ReportFile(path, head))) as finish:
        rows, slope = scaling_study(args.d, n_grid)
        table = "".join(f"{n},{l:.17g},{r:.17g}\n" for n, l, r in rows)
        finish([table])
    print(head + table, end="")
    print(f"log-log slope of ell vs n: {slope:.4f}")
    return EXIT_OK


def cmd_env_check(args) -> int:
    law = parse_law_spec(args.law)
    law.validate()
    hv = law.h(law.interior_grid())
    K = laws.poincare_constant(law)
    print(f"law: {law.name}  support ({law.support_lo}, {law.support_hi})  "
          f"mean {law.mean:.12g}")
    print(f"K = sup h = {K:.12g}")
    for d in (1, 2, 3):
        print(f"kappa(d={d}) = {laws.kappa(law, d):.12g}")
    print(f"h on grid: min {hv.min():.6g}, max {hv.max():.6g}")
    for name, g, gp in verify.IBP_BATTERY:
        res = laws.check_ibp(law, g, gp)
        marg = laws.check_poincare(law, g, gp)
        print(f"g={name}: ibp residual {res:.3e}, poincare margin {marg:.3e}")
    return EXIT_OK


def cmd_verify(args) -> int:
    with _outputs(("--report", args.report, json_file)) as finish:
        checks = verify.run_checks(fast=not args.full)
        doc = {"checks": checks, "passed": all(c["passed"] for c in checks)}
        # the document after its opening brace, which json_file wrote
        finish([json.dumps(doc, indent=2)[1:] + "\n"])
    for c in checks:
        print(f"{'PASS' if c['passed'] else 'FAIL'}  {c['name']}: {c['detail']}")
    failing = [c for c in checks if not c["passed"]]
    if failing:
        print(f"first failing check: {failing[0]['name']}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="polylab",
                                description="Directed-polymer localization lab")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="replicated simulation -> report CSV")
    sim.add_argument("--config", help="JSON config file (exclusive with inline flags)")
    sim.add_argument("--d", type=int)
    sim.add_argument("--n", type=int)
    sim.add_argument("--beta", type=float)
    sim.add_argument("--law", help=f"uniform:lo,hi or table:path.csv (default {DEFAULT_LAW})")
    sim.add_argument("--reps", type=int)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--out", required=True, help="report CSV path")
    sim.add_argument("--profiles", help="optional per-k profile CSV path")
    sim.add_argument("--workers", type=int)
    sim.set_defaults(fn=cmd_simulate)

    fig = sub.add_parser("figure1", help="canonical histogram run")
    fig.add_argument("--reps", type=int, default=FIGURE1.replications)
    fig.add_argument("--seed", type=int, default=FIGURE1.base_seed)
    fig.add_argument("--bins", type=int, default=40)
    fig.add_argument("--out-prefix", default="figure1")
    fig.add_argument("--workers", type=int)
    fig.set_defaults(fn=cmd_figure1)

    sc = sub.add_parser("scaling", help="beta=0 scaling of the localization degree")
    sc.add_argument("--d", type=int, default=1)
    sc.add_argument("--n-grid", default="64,128,256,512,1024")
    sc.add_argument("--out")
    sc.set_defaults(fn=cmd_scaling)

    env = sub.add_parser("env-check", help="law diagnostics")
    env.add_argument("--law", default=DEFAULT_LAW)
    env.set_defaults(fn=cmd_env_check)

    ver = sub.add_parser("verify", help="run the full property battery")
    ver.add_argument("--report", help="machine-readable JSON output path")
    ver.add_argument("--full", action="store_true",
                     help="run the battery at the acceptance test sizes")
    ver.set_defaults(fn=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, which matches the config-error code
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        code = args.fn(args)
        sys.stdout.flush()      # a block-buffered stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: give it a sink
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ConfigError, laws.LawValidationError, OSError, MemoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
