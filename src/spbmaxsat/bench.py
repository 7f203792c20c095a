"""Batch benchmark harness: run solver configurations over a directory of
WCNF instances, persist per-run records, and aggregate the comparison
metrics (#win per solver, mean time-to-best, mean score)."""
from __future__ import annotations

import json
import os
from collections.abc import Sequence
from time import perf_counter

from .formula import INF, ParseError, load_wcnf
from .search import ConfigError, SolveResult, SolverConfig, solve

WCNF_SUFFIXES = (".wcnf", ".cnf", ".dimacs")


class RunRecord:
    """One (config, instance) execution, as persisted to runs.jsonl: its
    attributes are the JSON object's keys."""

    def __init__(self, instance: str, label: str, config: dict, best_cost: int | None,
                 time_to_best: float | None, trace: list[tuple[int, float, int]],
                 flips: int, termination: str, wall_time: float,
                 error: str | None = None, skipped: bool = False):
        self.instance = instance
        self.label = label
        self.config = config
        self.best_cost = best_cost
        self.time_to_best = time_to_best
        self.trace = trace
        self.flips = flips
        self.termination = termination
        self.wall_time = wall_time
        self.error = error
        self.skipped = skipped

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True)


def mse_score(bkc: int, found) -> float:
    """Per-instance score: 0 without a feasible solution, else
    (bkc + 1) / (found + 1), clipped to 1."""
    if found is None or found == INF:
        return 0.0
    if found < bkc:
        import logging  # only here: it costs every bench process about 10 ms

        logging.getLogger(__name__).warning(
            "found cost %s beats the reference %s; clipping score to 1", found, bkc)
        return 1.0
    return (bkc + 1) / (found + 1)


def compute_wins(costs: dict[str, dict[str, int | None]]) -> dict[str, int]:
    """Per-solver count of instances where it matched the best finite cost.

    Ties count for every tied solver; instances where no solver found a
    feasible solution award nothing.
    """
    wins = {label: 0 for per_solver in costs.values() for label in per_solver}
    for per_solver in costs.values():
        finite = [c for c in per_solver.values() if c is not None and c != INF]
        if not finite:
            continue
        best = min(finite)
        for label, c in per_solver.items():
            if c == best:
                wins[label] += 1
    return wins


def _run_instance(path: str, configs: Sequence[tuple[str, SolverConfig]]) -> list[RunRecord]:
    """The record of each config run on the instance at path, in config
    order. The instance is parsed once; each record's wall time and time
    limit count that parse, as if the run had parsed the file itself."""
    t0 = perf_counter()
    try:
        formula = load_wcnf(path)
    except (ParseError, OSError, UnicodeDecodeError) as exc:
        return [RunRecord(path, label, {}, None, None, [], 0, "error", perf_counter() - t0,
                          error=f"unreadable: {exc}", skipped=True) for label, _ in configs]
    parse_s = perf_counter() - t0
    records = []
    for label, cfg in configs:
        t0 = perf_counter() - parse_s
        if cfg.cutoff_seconds is not None:
            # The time limit covers parsing: the search gets what is left.
            cfg = cfg.replace(cutoff_seconds=max(0.0, cfg.cutoff_seconds - (perf_counter() - t0)))
        try:
            result: SolveResult = solve(formula, cfg)
        except Exception as exc:  # a crashed run scores as no-feasible
            records.append(RunRecord(path, label, dict(vars(cfg)), None, None, [], 0, "error",
                                     perf_counter() - t0, error=f"crash: {exc}"))
            continue
        feasible = result.feasible
        records.append(RunRecord(
            instance=path,
            label=label,
            config=dict(vars(result.config)),
            best_cost=int(result.best_cost) if feasible else None,
            time_to_best=result.trace[-1][1] if feasible else None,
            trace=list(result.trace),
            flips=result.flips,
            termination=result.termination,
            wall_time=perf_counter() - t0,
        ))
    return records


def _pooled(future, path: str, configs: Sequence[tuple[str, SolverConfig]]) -> list[RunRecord]:
    """The records of an instance run in the pool. A worker that dies (a
    signal, an exit from native code) breaks the pool: the instance whose
    runs it held and every instance not finished yet get an error record
    per config, scored as a crashed run is, and the records finished before
    are kept."""
    from concurrent.futures.process import BrokenProcessPool

    try:
        return future.result()
    except BrokenProcessPool:
        return [RunRecord(path, label, dict(vars(cfg)), None, None, [], 0, "error", 0.0,
                          error="crash: worker process died") for label, cfg in configs]


def aggregate(records: Sequence[RunRecord], bkc: dict[str, int] | None = None) -> dict:
    """Reduce run records to the comparison report.

    The reference cost per instance comes from the bkc mapping when given
    (keyed by basename or full path), otherwise from the best cost found by
    any compared run. Mean time-to-best averages only runs that found a
    feasible solution.
    """
    skipped = sorted({r.instance: r.error for r in records if r.skipped}.items())
    records = sorted(
        (r for r in records if not r.skipped),
        key=lambda r: (r.label, r.instance),
    )

    labels = list(dict.fromkeys(r.label for r in records))
    costs: dict[str, dict[str, int | None]] = {}
    for r in records:
        costs.setdefault(r.instance, {})[r.label] = r.best_cost

    instances = sorted(costs)
    refs: dict[str, int | None] = {}
    for inst in instances:
        ref = None
        if bkc is not None:
            ref = bkc.get(os.path.basename(inst), bkc.get(inst))
        if ref is None:
            finite = [c for c in costs[inst].values() if c is not None]
            ref = min(finite) if finite else None
        refs[inst] = ref

    wins = compute_wins(costs)
    solvers = {}
    for label in labels:
        rows = [r for r in records if r.label == label]
        scores = []
        for inst in instances:
            ref = refs[inst]
            found = costs[inst].get(label)
            scores.append(mse_score(ref, found) if ref is not None else 0.0)
        times = [r.time_to_best for r in rows if r.time_to_best is not None]
        solvers[label] = {
            "wins": wins.get(label, 0),
            "score": sum(scores) / len(scores) if scores else 0.0,
            "mean_time_to_best": sum(times) / len(times) if times else None,
            "feasible": sum(1 for r in rows if r.best_cost is not None),
        }
    return {
        "num_instances": len(instances),
        "instances": instances,
        "refs": {k: refs[k] for k in instances},
        "solvers": solvers,
        "skipped": [list(s) for s in skipped],
    }


def format_report(report: dict) -> str:
    lines = [f"#inst: {report['num_instances']}"]
    header = f"{'solver':<24} {'#win':>6} {'time':>10} {'#score':>8} {'#feas':>6}"
    lines.append(header)
    lines.append("-" * len(header))
    for label, row in report["solvers"].items():
        t = f"{row['mean_time_to_best']:.2f}" if row["mean_time_to_best"] is not None else "-"
        lines.append(
            f"{label:<24} {row['wins']:>6} {t:>10} {row['score']:>8.4f} {row['feasible']:>6}"
        )
    if report["skipped"]:
        lines.append(f"skipped: {len(report['skipped'])} unreadable instance(s)")
    return "\n".join(lines)


def discover_instances(directory) -> list[str]:
    paths = (os.path.join(directory, name) for name in os.listdir(directory)
             if os.path.splitext(name)[1].lower() in WCNF_SUFFIXES)
    return sorted(p for p in paths if os.path.isfile(p))


def run_benchmark(
    directory,
    configs: Sequence[tuple[str, SolverConfig]],
    time_limit: float | None = None,
    parallelism: int = 1,
    bkc: dict[str, int] | None = None,
    out_dir=None,
) -> dict:
    """Execute every (config, instance) pair once and build the report.

    Each config is run under the given wall-clock limit unless it already
    carries its own cutoff. Records land in out_dir/runs.jsonl and the
    report in out_dir/report.json when out_dir is set, config by config
    and each config's instances in order. Labels must be unique: the
    report keys each instance's costs by label.

    The instance is the unit of work (see _run_instance): it is parsed
    once and runs every config. With parallelism > 1 each instance is a
    pool task, on at most one worker per instance (see _pooled for a
    worker that dies).
    """
    labels = [label for label, _ in configs]
    for label in labels:
        if labels.count(label) > 1:
            raise ConfigError(f"duplicate config label {label!r}")
    if time_limit is not None:
        configs = [(label, cfg.replace(cutoff_seconds=time_limit)
                    if cfg.cutoff_seconds is None and cfg.max_flips is None else cfg)
                   for label, cfg in configs]
    paths = discover_instances(directory)
    if parallelism > 1 and len(paths) > 1:
        # Only here: importing multiprocessing costs every solve and
        # serial bench process about 25 ms.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(parallelism, len(paths))) as pool:
            futures = [pool.submit(_run_instance, path, configs) for path in paths]
            runs = [_pooled(future, path, configs) for future, path in zip(futures, paths)]
    else:
        runs = [_run_instance(path, configs) for path in paths]
    records = [rs[i] for i in range(len(configs)) for rs in runs]

    report = aggregate(records, bkc=bkc)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "runs.jsonl"), "w") as fh:
            for r in records:
                fh.write(r.to_json() + "\n")
        with open(os.path.join(out_dir, "report.json"), "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
    return report
