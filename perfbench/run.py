"""Benchmark of the spb-maxsat solver, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload random-wpms-search --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, one table each
    python3 perfbench/run.py --write-spec                # regenerate BENCHMARK.json

The solver runs from ./src in child processes, one at a time, as a user runs
it: ``python -m spbmaxsat.cli solve`` for the two single-instance workloads
and ``python -m spbmaxsat.cli bench`` (bench.run_benchmark with one job, so
no pool) for the suite. Each timed child is either a set-up run (flip budget
0) or a solve run (the workload's budget); pairs of them repeat until
``--seconds`` is used up. Times are means over the pairs, flips_per_s is
the throughput of all solve runs together, and the other metrics are
medians (see end_to_end).

With ``--trace 0`` the last stdout line holds the end-to-end metrics. With
``--trace 1`` untraced and traced (see tracing.py) solve runs alternate
instead; every traced run must reproduce the untraced cost and flip count,
and the last line holds the medians of the per-layer metrics. Every run
writes its environment, instance sizes, raw samples and check results to
perfbench/out/results/, and traced runs also the map from each per-layer
metric to the end-to-end metric and workload it should move (spec.py).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:  # run as a script
    sys.path.insert(0, str(ROOT))

from perfbench import check, gen, spec  # noqa: E402
from perfbench.tracing import peak_rss_mb  # noqa: E402

SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
TRACER = ROOT / "perfbench" / "tracing.py"
HARD_LIMIT_S = 165.0  # a run must end within 180 s
MIN_PAIRS = 2

# Per workload: generator arguments and the flip budget of a solve run.
SIZES = {
    "random-wpms-search": {
        "full": dict(num_vars=20_000, num_hard=20_000, num_soft=60_000, flips=25_000),
        "tiny": dict(num_vars=300, num_hard=300, num_soft=900, flips=2_000),
    },
    "cover-pms-setup": {
        "full": dict(num_sets=25_000, num_elements=100_000, planted_frac=0.6, flips=10_000),
        "tiny": dict(num_sets=1_000, num_elements=4_000, planted_frac=0.6, flips=500),
    },
    "small-oracle-suite": {
        "full": dict(count=200, flips=1_000),
        "tiny": dict(count=3, flips=3_000),
    },
}


@dataclass
class Child:
    """One finished child process, as the benchmark saw it."""

    returncode: int
    lines: list  # (seconds since start, stdout line)
    stderr: str
    end_s: float  # process start to exit
    peak_rss_mb: float  # the child's own peak resident set


CLI = ["-m", "spbmaxsat.cli"]


def run_child(args: List[str], deadline: float) -> Child:
    """Run ``python <args>`` with ./src importable; timestamp each stdout line."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with tempfile.TemporaryFile("w+", dir=OUT) as err:  # stay inside the checkout
        t0 = perf_counter()
        p = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                             stderr=err, text=True, env=env, cwd=ROOT)
        timer = threading.Timer(max(deadline - t0, 1.0), p.kill)
        timer.start()
        # The child's high-water mark is polled while it lives: the ru_maxrss
        # that wait4 returns would include this process's own size.
        peak = [0.0]
        stop = threading.Event()

        def poll_rss():
            while not stop.wait(0.02):
                peak[0] = peak_rss_mb(p.pid) or peak[0]

        poller = threading.Thread(target=poll_rss)
        poller.start()
        lines = []
        try:
            for line in p.stdout:
                lines.append((perf_counter() - t0, line.rstrip("\n")))
        except BaseException:
            p.kill()
            raise
        finally:
            p.stdout.close()
            stop.set()
            poller.join()
            _, status, usage = os.wait4(p.pid, 0)
            end = perf_counter() - t0
            timer.cancel()
        p.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return Child(p.returncode, lines, err.read(), end, peak[0] or usage.ru_maxrss / 1024)


def judge(wl, child: Child, setup: bool, tag: str) -> "Sample":
    sample = wl.judge(child, setup, tag)
    if child.returncode != 0:
        sample.failures.append(f"stderr: {child.stderr.strip()[-500:]}")
    return sample


@dataclass
class Sample:
    """What one child run yields: timings, outcome and any check failures."""

    end_s: float
    peak_rss_mb: float
    flips: int
    outcome: object  # compared across runs: equal inputs must give equal outcomes
    score: float
    optimum_rate: float
    first_feasible_s: Optional[float] = None
    search_s: Optional[float] = None
    first_feasible_each: Optional[List[float]] = None  # suite: one per solve
    failures: List[str] = field(default_factory=list)

    def raw(self) -> dict:
        d = dict(self.__dict__)
        d.pop("outcome")
        return d


class SolveWorkload:
    """One generated instance solved by ``spbmaxsat.cli solve``."""

    def __init__(self, name: str, make: Callable, preset: str, size: dict):
        self.name, self._make, self.preset = name, make, preset
        self.size = dict(size)
        self.flips = self.size.pop("flips")
        self._costs: Dict[str, float] = {}

    def prepare(self, work: Path, seed: int) -> List[dict]:
        from spbmaxsat.formula import Formula

        self.inst = self._make(work / f"{self.name}.wcnf", seed, **self.size)
        self._formula = Formula(self.inst.num_vars, self.inst.hard, self.inst.soft)
        return [self.inst.describe()]

    def argv(self, flips: int, _tag: str) -> List[str]:
        return ["solve", str(self.inst.path), "--preset", self.preset,
                "--seed", "1", "--max-flips", str(flips)]

    def _cost(self, values: List[int]) -> float:
        key = "".join(map(str, values))
        if key not in self._costs:
            self._costs[key] = self._formula.cost(values)
        return self._costs[key]

    def judge(self, child: Child, setup: bool, _tag: str) -> Sample:
        p = check.parse_protocol(child.lines)
        bad = check.check_solve(p, child.returncode, self._cost, need_model=not setup)
        flips = check.stderr_flips(child.stderr)
        if flips is None:
            bad.append("no flips= summary on stderr")
        cost = p.costs[-1] if p.costs else None
        end = p.status_time if setup else p.v_time
        ref = self.inst.ref
        return Sample(
            end_s=end if end is not None else child.end_s,
            peak_rss_mb=child.peak_rss_mb,
            flips=flips or 0,
            outcome=(p.costs, p.bits, flips),
            score=0.0 if cost is None else (ref + 1) / (cost + 1),
            optimum_rate=float(cost is not None and cost <= ref),
            first_feasible_s=p.o_times[0] if p.o_times else None,
            search_s=p.v_time - p.o_times[0] if p.o_times and p.v_time else None,
            failures=bad,
        )


class SuiteWorkload:
    """Tiny instances with exact optima, solved by ``spbmaxsat.cli bench``
    under a pms and a wpms config with the optima passed as bkc."""

    CONFIGS = ("pms", "wpms")
    # The default decay threshold (1e7) is reached only in long runs; scaled
    # down with the 1000-flip budget, so that decay_weights and its full
    # score rebuild do work in both configs.
    DECAY_THRESHOLD = 300

    def __init__(self, name: str, size: dict):
        self.name = name
        self.count, self.flips = size["count"], size["flips"]

    def prepare(self, work: Path, seed: int) -> List[dict]:
        self.dir = work / "suite"
        self.dir.mkdir()
        self.work = work
        instances = gen.oracle_suite(self.dir, seed, self.count)
        self.optima = {i.path.name: i.ref for i in instances}
        self.bkc = work / "bkc.json"
        self.bkc.write_text(json.dumps(self.optima))
        return [i.describe() for i in instances]

    def argv(self, flips: int, tag: str) -> List[str]:
        configs = ";".join(f"{c}=--preset {c} --seed 1 --max-flips {flips} "
                           f"--decay-threshold {self.DECAY_THRESHOLD}" for c in self.CONFIGS)
        return ["bench", "--dir", str(self.dir), "--jobs", "1",
                "--bkc", str(self.bkc), "--out", str(self.work / tag), "--config", configs]

    def judge(self, child: Child, setup: bool, tag: str) -> Sample:
        out = self.work / tag
        try:
            records = [json.loads(line) for line in (out / "runs.jsonl").read_text().splitlines()]
            report = json.loads((out / "report.json").read_text())
        except (OSError, ValueError) as exc:
            return Sample(child.end_s, child.peak_rss_mb, 0, None, 0.0, 0.0,
                          failures=[f"unreadable harness output: {exc}"])
        bad = check.check_suite(records, report, self.optima, child.returncode,
                                len(self.CONFIGS))
        shutil.rmtree(out)
        scores = check.suite_score(records, self.optima)
        firsts = [r["trace"][0][1] for r in records if r["trace"]]
        hits = [r["best_cost"] == self.optima[Path(r["instance"]).name] for r in records]
        return Sample(
            end_s=child.end_s,
            peak_rss_mb=child.peak_rss_mb,
            flips=sum(r["flips"] for r in records),
            outcome=sorted((Path(r["instance"]).name, r["label"], r["best_cost"], r["flips"])
                           for r in records),
            score=statistics.fmean(scores.values()) if scores else 0.0,
            optimum_rate=sum(hits) / len(hits) if hits else 0.0,
            # A mean over the run's ~800 solves; a median of µs-scale times
            # moves more with the instance mix and the machine's speed.
            first_feasible_s=statistics.fmean(firsts) if firsts else None,
            first_feasible_each=firsts,
            failures=bad,
        )


def make_workload(name: str, scale: str):
    size = SIZES[name][scale]
    if name == "random-wpms-search":
        return SolveWorkload(name, gen.planted_wpms, "wpms", size)
    if name == "cover-pms-setup":
        return SolveWorkload(name, gen.set_cover_pms, "pms", size)
    return SuiteWorkload(name, size)


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "loadavg_start": loadavg(),
    }


def loadavg() -> str:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def median(xs) -> float:
    xs = [x for x in xs if x is not None]
    return statistics.median(xs) if xs else 0.0


def mean(xs) -> float:
    xs = [x for x in xs if x is not None]
    return statistics.fmean(xs) if xs else 0.0


def end_to_end(setups: List[Sample], solves: List[Sample]) -> Dict[str, float]:
    """The end-to-end metrics of one run from its set-up and solve samples.

    Times are means over the samples, not medians: the machine's speed
    drifts by a fifth and more over spells of seconds to a minute, and the
    mean of samples spread over the whole run averages those spells where
    a median picks the one sample in the middle (across seeds, the mean
    gave the smaller spread in 20 of 24 comparisons on three workloads).
    """
    setup_s = mean(s.end_s for s in setups)
    # flips_per_s is the throughput of all solve runs together. With a
    # feasible init (the set-up runs print an o line), a run searches from its
    # first o line to its v line, which avoids subtracting set-up times taken
    # in other processes; otherwise its search time is its wall time less
    # the mean set-up time.
    if all(s.first_feasible_s is not None for s in setups) and all(s.search_s for s in solves):
        search_s = sum(s.search_s for s in solves)
    else:
        search_s = sum(s.end_s - setup_s for s in solves)
    return {
        "setup_s": setup_s,
        "solve_s": mean(s.end_s for s in solves),
        "flips_per_s": sum(s.flips for s in solves) / search_s if search_s > 0 else 0.0,
        "first_feasible_s": mean(s.first_feasible_s for s in solves),
        "score": median(s.score for s in solves),
        "optimum_rate": median(s.optimum_rate for s in solves),
        "peak_rss_mb": median(s.peak_rss_mb for s in solves),
    }


def layer_metrics(tr: dict, wall_s: float) -> Dict[str, float]:
    """Per-layer metrics from one tracing.py dump; see spec.PER_LAYER.
    trace.overhead_s needs an untraced run and is added by the caller."""
    spans, c = tr["spans"], tr["counts"]

    def sp(name):
        return spans.get(name, [0, 0.0, 0.0])

    def ratio(a, b):
        return a / b if b else 0.0

    parse, build = sp("formula.parse_wcnf"), sp("formula.Formula")
    dec, st, flip = sp("initialization.decimation_init"), sp("state.SearchState"), sp("state.flip")
    bms, pick = sp("search.bms_pick"), sp("search.pick_from_falsified")
    weigh, refresh = sp("weighting.spb_weighting"), sp("weighting.refresh_candidacy")
    decay = sp("weighting.decay_weights")
    solves = [sp("cli.solve"), sp("bench.solve")]
    loads = sp("cli.load_wcnf")[1] + sp("bench.load_wcnf")[1]
    input_mb = c.get("input_bytes", 0) / 1e6
    search_s = sum(s[1] for s in solves) - dec[1] - st[1]
    hist = [size for size, n in tr["goodvars_hist"] for _ in range(n)]
    return {
        "formula.parse_s": parse[2],
        "formula.parse_mb_per_s": ratio(input_mb, parse[2]),
        "formula.build_s": build[1],
        "formula.rss_mb_per_input_mb": ratio(
            c.get("rss_after_load_mb", 0) - c.get("rss_before_load_mb", 0), input_mb),
        "initialization.decimation_s": dec[1],
        "initialization.falsified_hard": ratio(c.get("falsified_hard_after_init", 0),
                                               c.get("states", 0)),
        "state.build_s": st[1],
        "state.flip_calls": flip[0],
        "state.flip_us": ratio(flip[1], flip[0]) * 1e6,
        "state.flip_occ_per_call": ratio(c.get("flip_occ", 0), flip[0]),
        "search.bms_pick_calls": bms[0],
        "search.bms_pick_us": ratio(bms[1], bms[0]) * 1e6,
        "search.bms_goodvars_p50": statistics.median(hist) if hist else 0,
        "search.bms_sample_waste": ratio(c.get("bms_waste", 0), bms[0]),
        "search.pick_falsified_calls": pick[0],
        "search.pick_falsified_us": ratio(pick[1], pick[0]) * 1e6,
        "search.loop_self_s": sum(s[2] for s in solves),
        "search.improvements": c.get("improvements", 0),
        "weighting.calls": weigh[0],
        "weighting.local_opt_frac": ratio(weigh[0], weigh[0] + bms[0]),
        "weighting.spb_weighting_self_s": weigh[2],
        "weighting.spb_violations": c.get("spb_violations", 0),
        "weighting.refresh_vars_per_call": ratio(c.get("refresh_vars", 0), refresh[0]),
        "weighting.refresh_candidacy_s": refresh[1],
        "weighting.decay_events": c.get("decay_events", 0),
        "weighting.decay_s": decay[1],
        "cli.import_s": tr["import_s"],
        "cli.self_s": sp("cli.main")[2],
        "bench.self_s": sp("bench.run_benchmark")[2],
        "trace.overhead_s": 0.0,
        "trace.search_hot_share": ratio(bms[1] + flip[1], search_s),
        "trace.setup_share": ratio(loads + dec[1] + st[1], wall_s),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    t_start = perf_counter()
    hard_deadline = t_start + HARD_LIMIT_S
    env = environment()
    wl = make_workload(name, scale)
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    samples: Dict[str, List[Sample]] = {"setup": [], "solve": []}
    failures: List[str] = []
    attempted = failed = 0
    result: dict = {"workload": name, "seed": seed, "trace": int(trace), "scale": scale}

    def tally(label: str, sample: Sample) -> None:
        nonlocal attempted, failed
        attempted += 1
        failed += bool(sample.failures)
        failures.extend(f"{label}: {f}" for f in sample.failures)

    def timed(kind: str, tag: str, args: List[str]) -> Sample:
        sample = judge(wl, run_child(CLI + args, hard_deadline), kind == "setup", tag)
        first = samples[kind][0] if samples[kind] else None
        if first is not None and sample.outcome != first.outcome:
            sample.failures.append(f"{kind} run differs from the first one")
        tally(f"{kind} #{len(samples[kind])}", sample)
        samples[kind].append(sample)
        return sample

    dumps: List[dict] = []
    traced_ends: List[float] = []

    def traced_solve() -> None:
        dump = work / "trace.json"
        child = run_child([str(TRACER), str(dump), *wl.argv(wl.flips, "traced")], hard_deadline)
        sample = judge(wl, child, False, "traced")
        if sample.outcome != samples["solve"][0].outcome:
            sample.failures.append("cost or flips differ from the untraced run")
        if dump.exists():
            dumps.append(json.loads(dump.read_text()))
            dumps[-1]["metrics"] = layer_metrics(dumps[-1], child.end_s)
            dump.unlink()
        else:
            sample.failures.append("no trace written")
        tally(f"traced #{len(traced_ends)}", sample)
        traced_ends.append(sample.end_s)

    try:
        result["instances"] = wl.prepare(work, seed)
        result["prepare_s"] = perf_counter() - t_start
        # One untimed set-up run fills the bytecode and file caches.
        tally("warm-up", judge(wl, run_child(CLI + wl.argv(0, "warmup"), hard_deadline),
                               True, "warmup"))
        t0 = perf_counter()
        pair_s = 0.0
        # Pairs alternate until the time is used up. Untraced: a set-up run and
        # a solve run. Traced: an untraced and a traced solve run, where the
        # traced one must reproduce the untraced cost and flip count exactly.
        # A pair starts only if it should end within half a pair of the
        # budget, so that a run lasts about --seconds even with long pairs.
        while len(samples["solve"]) < (1 if trace else MIN_PAIRS) \
                or perf_counter() - t0 + pair_s / 2 < seconds:
            if perf_counter() + pair_s > hard_deadline:
                failures.append(f"hard time limit reached after {len(samples['solve'])} pairs")
                break
            t_pair = perf_counter()
            if trace:
                timed("solve", "untraced", wl.argv(wl.flips, "untraced"))
                traced_solve()
            else:
                timed("setup", "setup", wl.argv(0, "setup"))
                timed("solve", "solve", wl.argv(wl.flips, "solve"))
            pair_s = perf_counter() - t_pair
        if trace:
            metrics = {name: median(d["metrics"][name] for d in dumps)
                       for name, *_ in spec.PER_LAYER} if dumps else {}
            if dumps:
                metrics["trace.overhead_s"] = median(traced_ends) - median(
                    s.end_s for s in samples["solve"])
            result.update(traces=dumps, traced_end_s=traced_ends, layer_map=spec.layer_map())
        else:
            metrics = end_to_end(samples["setup"], samples["solve"])
        result["samples"] = {k: [s.raw() for s in v] for k, v in samples.items() if v}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_end"] = loadavg()
    result.update(env=env, measured_s=perf_counter() - t0, failures=failures,
                  attempted=attempted, failed=failed,
                  metrics=metrics)
    return result


def report_lines(result: dict, units: Dict[str, str]) -> List[str]:
    lines = [f"# workload {result['workload']} seed {result['seed']} trace {result['trace']}",
             f"# env {json.dumps(result['env'], sort_keys=True)}"]
    for inst in result["instances"][:4]:
        lines.append(f"# instance {json.dumps(inst, sort_keys=True)}")
    if len(result["instances"]) > 4:
        lines.append(f"# ... {len(result['instances'])} instances in all")
    for kind, rows in result.get("samples", {}).items():
        lines.append(f"# {kind} samples (n={len(rows)}): end_s="
                     + " ".join(f"{r['end_s']:.4f}" for r in rows))
    for name, value in result["metrics"].items():
        lines.append(f"{name:<34} {value:>14.6g} {units[name]}")
    lines.append(f"{'failed_frac':<34} {result['failed'] / max(result['attempted'], 1):>14.6g} "
                 f"ratio ({result['failed']}/{result['attempted']} runs)")
    lines.extend(f"# FAILED {f}" for f in result["failures"][:20])
    return lines


def main(argv=None) -> int:
    names = [w for w, _ in spec.WORKLOADS]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true", help="toy sizes, for the smoke tests")
    ap.add_argument("--write-spec", action="store_true",
                    help="write BENCHMARK.json from perfbench/spec.py and exit")
    args = ap.parse_args(argv)
    if args.write_spec:
        spec.write(ROOT / "BENCHMARK.json")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    for needed in (SRC / "spbmaxsat" / "cli.py", ROOT / "tests" / "gen.py"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found", file=sys.stderr)
            return 2
    sys.path.insert(0, str(SRC))

    units = {n: u for n, u, *_ in spec.END_TO_END + spec.PER_LAYER}
    results = []
    for name in names if args.workload == "all" else [args.workload]:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace),
                              "tiny" if args.tiny else "full")
        results.append(result)
        (OUT / "results").mkdir(parents=True, exist_ok=True)
        path = OUT / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1, sort_keys=True))
        print("\n".join(report_lines(result, units)), flush=True)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in results[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}/{k}": {"value": v, "unit": units[k]}
                   for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
