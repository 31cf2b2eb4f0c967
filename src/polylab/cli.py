"""Command-line entry point.

Subcommands:
  simulate   replicated runs -> report CSV (+ optional per-k profile CSV)
  figure1    the canonical d=1, n=300, beta=3, Uniform[-1,1] histogram run
  scaling    beta=0 random-walk scaling of the localization degree
  env-check  law diagnostics: h grid, K, kappa, identity batteries
  verify     full property battery; exit 0 iff everything passes

Exit codes: 0 success, 1 verification failure, 2 config error, 3 numerical
failure.  Every subcommand is deterministic given its flags.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import functionals, laws, verify
from .engine import NumericalError, PolymerInstance, forward_backward
from .harness import (ConfigError, ExperimentConfig, FIGURE1_CONFIG, histogram,
                      parse_law_spec, run_replications, scaling_study,
                      summary_stats, write_histogram_csv, write_profile_csv,
                      write_report_csv, worker_count)
from .rng import replication_seed

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _config_from_args(args) -> ExperimentConfig:
    if args.config:
        inline = [args.d, args.n, args.beta, args.reps, args.seed]
        if any(v is not None for v in inline) or args.law != "uniform:-1,1":
            raise ConfigError("--config and inline flags are mutually exclusive")
        with open(args.config) as fh:
            return ExperimentConfig.from_json(fh.read())
    missing = [name for name, v in
               [("--d", args.d), ("--n", args.n), ("--beta", args.beta)]
               if v is None]
    if missing:
        raise ConfigError(f"missing required flags: {' '.join(missing)}")
    return ExperimentConfig(
        d=args.d, n=args.n, beta=args.beta, law_spec=args.law,
        replications=args.reps if args.reps is not None else 1,
        base_seed=args.seed if args.seed is not None else 0)


def cmd_simulate(args) -> int:
    config = _config_from_args(args)
    records = run_replications(config, workers=args.workers)
    write_report_csv(records, args.out, include_runtime=args.timings)
    if args.profiles:
        inst = PolymerInstance(d=config.d, n=config.n, beta=config.beta,
                               law=config.law(),
                               seed=replication_seed(config.base_seed, 0),
                               centered=config.centered)
        sol = forward_backward(inst, keep_forward=False)
        report = functionals.build_report(sol, inst)
        write_profile_csv(report.alpha_profile, report.gamma_profile,
                          report.tau_profile, args.profiles)
    print(f"wrote {len(records)} replications to {args.out}")
    return EXIT_OK


def cmd_figure1(args) -> int:
    config = ExperimentConfig(
        d=FIGURE1_CONFIG["d"], n=FIGURE1_CONFIG["n"], beta=FIGURE1_CONFIG["beta"],
        law_spec=FIGURE1_CONFIG["law"],
        replications=args.reps, base_seed=args.seed, histogram_bins=args.bins)
    records = run_replications(config, workers=args.workers)
    edges, counts = histogram(records, config.histogram_bins)
    write_report_csv(records, args.out_prefix + "_report.csv")
    write_histogram_csv(edges, counts, args.out_prefix + "_histogram.csv")
    summary = summary_stats(records)
    with open(args.out_prefix + "_summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_scaling(args) -> int:
    try:
        n_grid = [int(v) for v in args.n_grid.split(",")]
    except ValueError:
        raise ConfigError(f"--n-grid wants comma-separated integers, "
                          f"got {args.n_grid!r}") from None
    rows, slope = scaling_study(args.d, n_grid, base_seed=args.seed)
    print("n,ell,rho")
    for n, l, r in rows:
        print(f"{n},{l:.17g},{r:.17g}")
    print(f"log-log slope of ell vs n: {slope:.4f}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("n,ell,rho\n")
            for n, l, r in rows:
                fh.write(f"{n},{l:.17g},{r:.17g}\n")
    return EXIT_OK


def cmd_env_check(args) -> int:
    if args.grid_points < 1:
        raise ConfigError(f"--grid-points must be >= 1, got {args.grid_points}")
    law = parse_law_spec(args.law)
    law.validate()
    grid = law.interior_grid(args.grid_points)
    hv = np.asarray(law.h(grid), dtype=np.float64)
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
    checks = verify.run_checks(perturb_theta=args.perturb_theta,
                               fast=not args.full)
    if args.report:
        with open(args.report, "w") as fh:
            json.dump({"checks": checks,
                       "passed": all(c["passed"] for c in checks)}, fh, indent=2)
            fh.write("\n")
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
    sim.add_argument("--law", default="uniform:-1,1",
                     help="uniform:lo,hi or table:path.csv")
    sim.add_argument("--reps", type=int)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--out", required=True, help="report CSV path")
    sim.add_argument("--profiles", help="optional per-k profile CSV path")
    sim.add_argument("--timings", action="store_true",
                     help="write measured runtimes (breaks byte determinism)")
    sim.add_argument("--workers", type=int)
    sim.set_defaults(fn=cmd_simulate)

    fig = sub.add_parser("figure1", help="canonical histogram run")
    fig.add_argument("--reps", type=int, default=FIGURE1_CONFIG["replications"])
    fig.add_argument("--seed", type=int, default=FIGURE1_CONFIG["base_seed"])
    fig.add_argument("--bins", type=int, default=40)
    fig.add_argument("--out-prefix", default="figure1")
    fig.add_argument("--workers", type=int)
    fig.set_defaults(fn=cmd_figure1)

    sc = sub.add_parser("scaling", help="beta=0 scaling of the localization degree")
    sc.add_argument("--d", type=int, default=1)
    sc.add_argument("--n-grid", default="64,128,256,512,1024")
    sc.add_argument("--seed", type=int, default=0)
    sc.add_argument("--out")
    sc.set_defaults(fn=cmd_scaling)

    env = sub.add_parser("env-check", help="law diagnostics")
    env.add_argument("--law", default="uniform:-1,1")
    env.add_argument("--grid-points", type=int, default=4096)
    env.set_defaults(fn=cmd_env_check)

    ver = sub.add_parser("verify", help="run the full property battery")
    ver.add_argument("--report", help="machine-readable JSON output path")
    ver.add_argument("--full", action="store_true",
                     help="run the battery at full test sizes")
    ver.add_argument("--perturb-theta", action="store_true",
                     help=argparse.SUPPRESS)  # test hook
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
        return args.fn(args)
    except (ConfigError, laws.LawValidationError, FileNotFoundError,
            IsADirectoryError, NotADirectoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
