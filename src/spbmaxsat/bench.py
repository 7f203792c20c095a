"""Batch benchmark harness: run solver configurations over a directory of
WCNF instances, persist per-run records, and aggregate the comparison
metrics (#win per solver, mean time-to-best, mean score)."""
from __future__ import annotations

import json
import os
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .formula import INF, Formula, ParseError, load_wcnf
from .search import ConfigError, SolveResult, SolverConfig, solve

WCNF_SUFFIXES = (".wcnf", ".cnf", ".dimacs")


class RunRecord:
    """One (config, instance) execution, as persisted to runs.jsonl: its
    attributes are the JSON object's keys."""

    def __init__(self, instance: str, label: str, config: dict, best_cost: Optional[int],
                 time_to_best: Optional[float], trace: List[Tuple[int, float, int]],
                 flips: int, termination: str, wall_time: float,
                 error: Optional[str] = None, skipped: bool = False):
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


def compute_wins(costs: Dict[str, Dict[str, Optional[int]]]) -> Dict[str, int]:
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


# The instance that _run_one loaded last in this process: (path, its Formula
# or its load error message, the seconds the load took). run_benchmark runs
# an instance's jobs one after another and empties this when it starts and
# ends, so that a sweep parses each instance once per process.
_last: Optional[Tuple[str, Union[Formula, str], float]] = None


def _load(path: str) -> Tuple[Union[Formula, str], float]:
    """The Formula of the instance at path, or its load error message, and
    the seconds its load took, from the one-entry cache _last."""
    global _last
    if _last is None or _last[0] != path:
        t0 = perf_counter()
        try:
            loaded = load_wcnf(path)
        except (ParseError, OSError, UnicodeDecodeError) as exc:
            loaded = f"unreadable: {exc}"
        _last = (path, loaded, perf_counter() - t0)
    return _last[1], _last[2]


def _run_one(job: Tuple[str, str, SolverConfig]) -> RunRecord:
    path, label, cfg = job
    formula, parse_s = _load(path)
    t0 = perf_counter() - parse_s  # a cached load still counts its parse
    if isinstance(formula, str):
        return RunRecord(path, label, {}, None, None, [], 0, "error",
                         perf_counter() - t0, error=formula, skipped=True)
    if cfg.cutoff_seconds is not None:
        # The time limit covers parsing: the search gets what is left.
        cfg = cfg.replace(cutoff_seconds=max(0.0, cfg.cutoff_seconds - (perf_counter() - t0)))
    try:
        result: SolveResult = solve(formula, cfg)
    except Exception as exc:  # a crashed run scores as no-feasible
        return RunRecord(path, label, dict(vars(cfg)), None, None, [], 0, "error",
                         perf_counter() - t0, error=f"crash: {exc}")
    feasible = result.feasible
    return RunRecord(
        instance=path,
        label=label,
        config=dict(vars(result.config)),
        best_cost=int(result.best_cost) if feasible else None,
        time_to_best=result.trace[-1][1] if feasible else None,
        trace=list(result.trace),
        flips=result.flips,
        termination=result.termination,
        wall_time=perf_counter() - t0,
    )


def aggregate(records: Sequence[RunRecord], bkc: Optional[Dict[str, int]] = None) -> dict:
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
    costs: Dict[str, Dict[str, Optional[int]]] = {}
    for r in records:
        costs.setdefault(r.instance, {})[r.label] = r.best_cost

    instances = sorted(costs)
    refs: Dict[str, Optional[int]] = {}
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


def discover_instances(directory) -> List[str]:
    root = Path(directory)
    return sorted(
        str(p) for p in root.iterdir()
        if p.is_file() and p.suffix.lower() in WCNF_SUFFIXES
    )


def run_benchmark(
    directory,
    configs: Sequence[Tuple[str, SolverConfig]],
    time_limit: Optional[float] = None,
    parallelism: int = 1,
    bkc: Optional[Dict[str, int]] = None,
    out_dir=None,
) -> dict:
    """Execute every (config, instance) pair once and build the report.

    Each config is run under the given wall-clock limit unless it already
    carries its own cutoff. Records land in out_dir/runs.jsonl and the
    report in out_dir/report.json when out_dir is set, config by config
    and each config's instances in order. Labels must be unique: the
    report keys each instance's costs by label.

    The jobs run instance by instance, so that each process parses an
    instance once (see _load); each record's wall time and time limit
    still count that parse. With parallelism > 1 each (config, instance)
    pair is a pool task of its own.
    """
    global _last
    labels = [label for label, _ in configs]
    for label in labels:
        if labels.count(label) > 1:
            raise ConfigError(f"duplicate config label {label!r}")
    if time_limit is not None:
        configs = [(label, cfg.replace(cutoff_seconds=time_limit)
                    if cfg.cutoff_seconds is None and cfg.max_flips is None else cfg)
                   for label, cfg in configs]
    jobs = [(path, label, cfg) for path in discover_instances(directory)
            for label, cfg in configs]

    _last = None  # a file may have changed since the last sweep
    try:
        if parallelism > 1 and len(jobs) > 1:
            # Only here: importing multiprocessing costs every solve and
            # one-job bench process about 25 ms.
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=parallelism) as pool:
                records = list(pool.map(_run_one, jobs))
        else:
            records = [_run_one(job) for job in jobs]
    finally:
        _last = None
    # Back to config by config: the records of config i are every len(configs)-th.
    records = [r for i in range(len(configs)) for r in records[i::len(configs)]]

    report = aggregate(records, bkc=bkc)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "runs.jsonl", "w") as fh:
            for r in records:
                fh.write(r.to_json() + "\n")
        with open(out / "report.json", "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
    return report
