"""Command line front end.

Exit codes: 0 on success, 1 on runtime failures (aborted sessions,
connection problems), 2 on usage or configuration errors.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import analysis, device as devmod, entcf, harness, net
from .errors import BellcertError, ConfigurationError, ValidationError
from .provers import parse_strategy


def _params_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", choices=entcf.BACKENDS, default="ideal")
    parser.add_argument("--seed", type=int, default=0)


def _make_config(args) -> harness.RunConfig:
    return harness.RunConfig(
        params=entcf.EntcfParams(args.backend),
        sessions=args.sessions, seed=args.seed,
        strategy=getattr(args, "strategy", "honest"),
        transcript_path=getattr(args, "transcripts", None))


def _print_stats(stats: harness.RunStats) -> None:
    est = harness.estimate_gammas(stats)
    print(f"sessions: {stats.sessions} aborted: {stats.aborted} undecodable: {stats.undecodable}")
    print("flags:", " ".join(f"{k}={v}" for k, v in sorted(stats.flag_counts.items())))
    for name, e in (("gamma_p", est.gamma_p), ("gamma_t", est.gamma_t),
                    ("gamma_b", est.gamma_b)):
        if e.samples:
            print(f"{name}_hat = {e.value:.5f} +/- {e.sigma3:.5f} (3 sigma, "
                  f"weakest bucket {e.bucket} n={e.samples})")


def _cmd_run(args) -> int:
    config = _make_config(args)
    stats = harness.run_sessions(config)
    _print_stats(stats)
    if args.stats_out:
        payload = {"stats": stats.to_json(),
                   "estimates": harness.estimate_gammas(stats).to_json()}
        with open(args.stats_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return 1 if stats.aborted else 0


def _cmd_analyze(args) -> int:
    dev = devmod.load_device(args.device)
    report = analysis.analyze(dev)
    print(f"gamma_t = {report.gamma_t:.6g}")
    print(f"gamma_b = {report.gamma_b:.6g}")
    print(f"max pauli rounding residual = {max(report.pauli_rounding.values()):.6g}")
    print(f"max bell-case distance = "
          f"{max(c.state_distance for c in report.bell_cases):.6g}")
    if report.violations:
        print(f"structural violations: {len(report.violations)}")
        for v in report.violations:
            print(f"  {v.name}: {v.magnitude:.3g}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report.to_json(), fh, indent=2)
            fh.write("\n")
    if args.csv:
        report.write_csv(args.csv)
    return 0


def _cmd_sweep(args) -> int:
    try:
        grid = [float(tok) for tok in args.grid.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigurationError(f"bad noise grid {args.grid!r}") from exc
    config = _make_config(args)
    rows = harness.sweep(grid, config)
    for row in rows:
        print(f"p={row['p']:.3f} gamma_t={row['gamma_t']:.5f} "
              f"gamma_t_hat={row['gamma_t_hat']:.5f} "
              f"gamma_b={row['gamma_b']:.5f} gamma_b_hat={row['gamma_b_hat']:.5f}")
    if args.out:
        harness.write_sweep_csv(rows, args.out)
    return 0


def _cmd_serve(args) -> int:
    config = _make_config(args)
    stats = net.serve(args.host, args.port, config)
    _print_stats(stats)
    return 1 if stats.aborted else 0


def _cmd_prove(args) -> int:
    if args.sessions < 1:
        raise ConfigurationError("need at least one session")
    parse_strategy(args.strategy)  # refuse a bad name before connecting
    failures = 0
    for _ in range(args.sessions):
        try:
            flag = net.run_prover(args.host, args.port, args.strategy, args.seed)
        except (OSError, BellcertError) as exc:
            print(f"session failed: {exc}", file=sys.stderr)
            failures += 1
            continue
        print(f"verdict: {flag}")
    return 1 if failures else 0


def _cmd_gen_device(args) -> int:
    dev = devmod.from_honest(args.noise)
    devmod.save_device(dev, args.out)
    print(f"wrote honest device (noise {args.noise}) to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellcert",
        description="Single-device Bell certification: protocol runs and "
                    "white-box device diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run sessions in-process")
    _params_args(p)
    p.add_argument("--sessions", type=int, default=1000)
    p.add_argument("--strategy", default="honest")
    p.add_argument("--transcripts", help="write per-session records (JSONL)")
    p.add_argument("--stats-out", help="write counts and estimates (JSON)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("analyze", help="white-box analysis of a device file")
    p.add_argument("device", help="device description (JSON)")
    p.add_argument("--out", help="write the full report (JSON)")
    p.add_argument("--csv", help="write scalar quantities (CSV)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("sweep", help="noise sweep: white-box vs estimated deficits")
    _params_args(p)
    p.add_argument("--grid", default="0,0.05,0.1,0.2,0.3",
                   help="comma-separated depolarizing strengths")
    p.add_argument("--sessions", type=int, default=4000, help="sessions per point")
    p.add_argument("--out", help="write results (CSV)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("serve", help="verify sessions over TCP")
    _params_args(p)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7677)
    p.add_argument("--sessions", type=int, default=1)
    p.add_argument("--transcripts", help="write per-session records (JSONL)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("prove", help="play sessions against a remote verifier")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7677)
    p.add_argument("--sessions", type=int, default=1)
    p.add_argument("--strategy", default="honest")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("gen-device", help="write an honest device description")
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_device)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:  # a bad seed or port is refused before any session or connection
        if getattr(args, "seed", 0) < 0:
            raise ConfigurationError(f"seed {args.seed} is negative")
        if not 1 <= getattr(args, "port", 1) <= 65535:
            raise ConfigurationError(f"port {args.port} outside 1-65535")
        return args.func(args)
    except (ConfigurationError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BellcertError, OSError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
