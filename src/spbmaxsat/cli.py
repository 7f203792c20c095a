"""Command-line front end.

Protocol lines follow the incomplete-solver convention: "o <cost>" on every
improvement, then "s SATISFIABLE" with a "v <bitstring>" witness (one 0/1
character per variable, in index order) or "s UNKNOWN". Diagnostics go to
stderr so stdout stays machine-parseable.
"""
from __future__ import annotations

import argparse
import shlex
import sys
from time import perf_counter
from typing import List, Optional, Tuple

from . import kernel
from .common import MODES
from .formula import INF, load_wcnf
from .search import INITS, PRESETS, ConfigError, SolverConfig, solve


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    """Solver flags, one per SolverConfig field, with the field's name as
    dest. p must be built with argument_default=SUPPRESS: an omitted flag
    stays out of the namespace and keeps the SolverConfig default."""
    p.add_argument("--time-limit", dest="cutoff_seconds", type=float, metavar="SECONDS")
    p.add_argument("--max-flips", type=int, metavar="N")
    p.add_argument("--seed", type=int)
    p.add_argument("--k", type=int, help="BMS sample count")
    p.add_argument("--h-inc", type=float, help="hard-clause weight increment")
    p.add_argument("--delta", type=float, help="multiplicative weight proportion")
    p.add_argument("--mode", choices=[m.replace("_", "-") for m in MODES])
    p.add_argument("--preset", choices=["auto", *PRESETS])
    p.add_argument("--init", choices=INITS)
    p.add_argument("--decay-threshold", type=float)


def _config_from_args(args) -> SolverConfig:
    given = {name: getattr(args, name) for name in SolverConfig.FIELDS if hasattr(args, name)}
    if "mode" in given:
        given["mode"] = given["mode"].replace("-", "_")
    return SolverConfig(**given)


def _parse_configs(specs: List[str]) -> List[Tuple[str, SolverConfig]]:
    """Parse bench --config entries of the form "label=<solver flags>",
    several entries separated by ";"."""
    parser = argparse.ArgumentParser(prog="config", add_help=False,
                                     argument_default=argparse.SUPPRESS)
    _add_solver_flags(parser)

    def fail(message: str):  # one error line, not argparse's usage block and exit 2
        raise ConfigError(f"bad --config entry {entry!r}: {message}")
    parser.error = fail
    out = []
    for spec in specs:
        for entry in spec.split(";"):
            entry = entry.strip()
            if not entry:
                continue
            label, sep, flags = entry.partition("=")
            if not sep or not label.strip():
                raise ConfigError(f"bad --config entry {entry!r}: expected label=<flags>")
            try:
                argv = shlex.split(flags)
            except ValueError as exc:  # an unbalanced quote
                fail(str(exc))
            args = parser.parse_args(argv)
            out.append((label.strip(), _config_from_args(args)))
    return out


def cmd_solve(args) -> int:
    kernel.load()  # before the clock and the parse: a compile is not the run's time
    start = perf_counter()
    cfg = _config_from_args(args)
    formula = load_wcnf(args.file)
    t0 = perf_counter()
    if cfg.cutoff_seconds is None and cfg.max_flips is None:
        cfg.cutoff_seconds = 60.0
    if cfg.cutoff_seconds is not None:
        # The time limit covers parsing: the search gets what is left.
        cfg.cutoff_seconds = max(0.0, cfg.cutoff_seconds - (t0 - start))

    def emit(cost: int) -> None:
        print(f"o {cost}", flush=True)

    result = solve(formula, cfg, on_improvement=emit)
    if result.feasible:
        print("s SATISFIABLE")
        print(f"v {result.bitstring()}", flush=True)
    else:
        print("s UNKNOWN", flush=True)
    elapsed = perf_counter() - t0
    rate = result.flips / elapsed if elapsed > 0 else 0.0
    print(
        f"flips={result.flips} time={elapsed:.3f}s rate={rate:.0f}/s "
        f"termination={result.termination} preset={result.config.preset} "
        f"backend={result.backend}",
        file=sys.stderr,
    )
    return 0


def cmd_oracle(args) -> int:
    from .oracle import brute_force_opt

    formula = load_wcnf(args.file)
    cost, _witness = brute_force_opt(formula)
    if cost == INF:
        print("s UNSATISFIABLE")
    else:
        print(f"o {cost}")
    return 0


def run_benchmark(*args, **kwargs):
    """bench.run_benchmark, imported at the first call: bench loads logging,
    which solve and oracle do without. cmd_bench calls it by this module
    name, which perfbench's tracer wraps."""
    from .bench import run_benchmark as run

    return run(*args, **kwargs)


def cmd_bench(args) -> int:
    import json

    from .bench import format_report

    kernel.load()  # before any run's clock starts; a pool's workers find it built
    configs = _parse_configs(args.config) if args.config else [("default", SolverConfig())]
    bkc = None
    if args.bkc:
        with open(args.bkc) as fh:
            bkc = {k: int(v) for k, v in json.load(fh).items()}
    report = run_benchmark(
        args.dir,
        configs,
        time_limit=args.time_limit,
        parallelism=args.jobs,
        bkc=bkc,
        out_dir=args.out,
    )
    print(format_report(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spb-maxsat",
        description="Local search WPMS solver with soft-conflict weighting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the local search on one instance",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("file")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="exact optimum by enumeration (small instances)")
    p.add_argument("file")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bench", help="run solver configs over an instance directory")
    p.add_argument("--dir", required=True)
    p.add_argument("--time-limit", type=float, default=60.0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--bkc", default=None, help="JSON file mapping instance name to reference cost")
    p.add_argument("--config", action="append", default=None,
                   help='e.g. "fast=--preset wpms --seed 3;const=--mode constant"')
    p.add_argument("--out", default=None, help="directory for runs.jsonl and report.json")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
