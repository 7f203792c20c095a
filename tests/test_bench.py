"""Benchmark harness tests: scoring, win counting, execution, persistence."""
from __future__ import annotations

import json
import multiprocessing
import os
import time

import pytest

from spbmaxsat.bench import (
    RunRecord,
    _run_instance,
    aggregate,
    compute_wins,
    format_report,
    mse_score,
    run_benchmark,
)
from spbmaxsat.formula import INF, load_wcnf
from spbmaxsat.search import SolverConfig

from gen import random_parts, render_old

import random


class TestMseScore:
    def test_exact_match_scores_one(self):
        assert mse_score(2, 2) == 1.0

    def test_ratio(self):
        assert mse_score(0, 4) == pytest.approx(0.2)

    def test_no_solution_scores_zero(self):
        assert mse_score(2, None) == 0.0
        assert mse_score(2, INF) == 0.0

    def test_better_than_reference_clips(self, caplog):
        with caplog.at_level("WARNING"):
            assert mse_score(5, 3) == 1.0
        assert "clipping" in caplog.text


class TestComputeWins:
    def test_single_winner(self):
        wins = compute_wins({"i": {"A": 3, "B": 5}})
        assert wins == {"A": 1, "B": 0}

    def test_tie_counts_for_all(self):
        wins = compute_wins({"i": {"A": 3, "B": 3}})
        assert wins == {"A": 1, "B": 1}

    def test_no_feasible_no_wins(self):
        wins = compute_wins({"i": {"A": None, "B": None}})
        assert wins == {"A": 0, "B": 0}


def _write_instances(tmp_path, count=3, seed=17):
    rng = random.Random(seed)
    for i in range(count):
        n, hard, soft = random_parts(rng, min_vars=6, max_vars=10,
                                     min_clauses=8, max_clauses=20)
        (tmp_path / f"inst{i}.wcnf").write_text(render_old(n, hard, soft))


def _records(out):
    return [json.loads(line) for line in (out / "runs.jsonl").read_text().splitlines()]


def test_record_json_is_the_asdict_json(tmp_path):
    _write_instances(tmp_path, count=1)
    (tmp_path / "bad.wcnf").write_text("p wcnf nope\n")
    cfg = SolverConfig(max_flips=500, seed=1)
    solved, = _run_instance(str(tmp_path / "inst0.wcnf"), [("S", cfg)])
    crashed = RunRecord("x.wcnf", "S", vars(cfg), None, None, [], 0, "error", 0.1,
                        error="crash: boom")
    unreadable, = _run_instance(str(tmp_path / "bad.wcnf"), [("S", cfg)])
    assert solved.trace and unreadable.error
    # The record's config is the vars of the run's config: the resolved
    # one, or the one given when solve raises (here: no budget).
    assert solved.config == vars(cfg.resolve(load_wcnf(tmp_path / "inst0.wcnf")))
    unbudgeted = SolverConfig(seed=1)
    failed, = _run_instance(str(tmp_path / "inst0.wcnf"), [("S", unbudgeted)])
    assert failed.error.startswith("crash: ") and failed.config == vars(unbudgeted)
    for record in (solved, crashed, unreadable, failed):
        assert record.to_json() == json.dumps(vars(record), sort_keys=True)


def test_record_keys_are_the_runs_jsonl_keys():
    record = RunRecord("a", "S", {}, 2, 0.1, [], 1, "flips", 0.1)
    assert sorted(json.loads(record.to_json())) == [
        "best_cost", "config", "error", "flips", "instance", "label", "skipped",
        "termination", "time_to_best", "trace", "wall_time"]


class TestRunBenchmark:
    CONFIGS = [
        ("base", SolverConfig(max_flips=4000, seed=1)),
        ("constant", SolverConfig(max_flips=4000, seed=1, mode="constant")),
    ]

    def test_report_and_persistence_round_trip(self, tmp_path):
        _write_instances(tmp_path)
        out = tmp_path / "out"
        report = run_benchmark(tmp_path, self.CONFIGS, out_dir=out)
        assert report["num_instances"] == 3
        for row in report["solvers"].values():
            assert 0.0 <= row["score"] <= 1.0
        lines = (out / "runs.jsonl").read_text().splitlines()
        records = [RunRecord(**json.loads(line)) for line in lines]
        assert aggregate(records) == report
        on_disk = json.loads((out / "report.json").read_text())
        assert on_disk["solvers"].keys() == report["solvers"].keys()
        assert format_report(report)

    def test_score_is_mean_of_per_instance_scores(self, tmp_path):
        _write_instances(tmp_path)
        report = run_benchmark(tmp_path, self.CONFIGS)
        costs = {}
        records = []
        # Rebuild per-instance scores from the stored reference costs.
        for inst in report["instances"]:
            ref = report["refs"][inst]
            assert ref is not None
        # The aggregate itself is validated via the round trip above; here
        # check the averaging law on a handcrafted record set.
        recs = [
            RunRecord("a", "S", {}, 2, 0.1, [], 1, "flips", 0.1),
            RunRecord("b", "S", {}, None, None, [], 1, "flips", 0.1),
            RunRecord("a", "T", {}, 4, 0.1, [], 1, "flips", 0.1),
            RunRecord("b", "T", {}, 7, 0.1, [], 1, "flips", 0.1),
        ]
        rep = aggregate(recs)
        assert rep["solvers"]["S"]["score"] == pytest.approx(
            (mse_score(2, 2) + 0.0) / 2, abs=1e-12)
        assert rep["solvers"]["T"]["score"] == pytest.approx(
            (mse_score(2, 4) + mse_score(7, 7)) / 2, abs=1e-12)
        assert rep["solvers"]["S"]["wins"] == 1
        assert rep["solvers"]["T"]["wins"] == 1

    @staticmethod
    def _deterministic_view(report):
        # Time-to-best is wall clock and legitimately varies between runs.
        return {
            "refs": report["refs"],
            "solvers": {
                label: {k: v for k, v in row.items() if k != "mean_time_to_best"}
                for label, row in report["solvers"].items()
            },
        }

    def test_deterministic_flip_limited_runs(self, tmp_path):
        _write_instances(tmp_path)
        r1 = run_benchmark(tmp_path, self.CONFIGS)
        r2 = run_benchmark(tmp_path, self.CONFIGS)
        assert self._deterministic_view(r1) == self._deterministic_view(r2)

    def test_parallel_matches_serial(self, tmp_path):
        _write_instances(tmp_path, count=2)
        serial = run_benchmark(tmp_path, self.CONFIGS)
        parallel = run_benchmark(tmp_path, self.CONFIGS, parallelism=2)
        assert self._deterministic_view(serial) == self._deterministic_view(parallel)

    def test_empty_directory(self, tmp_path):
        report = run_benchmark(tmp_path, self.CONFIGS)
        assert report["num_instances"] == 0
        assert report["solvers"] == {}

    def test_unreadable_instance_skipped(self, tmp_path):
        (tmp_path / "bad.wcnf").write_text("p wcnf nope\n")
        _write_instances(tmp_path, count=1)
        report = run_benchmark(tmp_path, [self.CONFIGS[0]])
        assert report["num_instances"] == 1
        assert len(report["skipped"]) == 1

    def test_crash_recorded_as_no_feasible(self, tmp_path, monkeypatch):
        _write_instances(tmp_path, count=1)
        import spbmaxsat.bench as bench_mod

        def boom(formula, cfg):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(bench_mod, "solve", boom)
        report = run_benchmark(tmp_path, [self.CONFIGS[0]])
        assert report["solvers"]["base"]["feasible"] == 0
        assert report["solvers"]["base"]["score"] == 0.0

    def test_bkc_mapping_used_for_scoring(self, tmp_path):
        _write_instances(tmp_path, count=1, seed=5)
        inst = report_inst = None
        report = run_benchmark(tmp_path, [self.CONFIGS[0]],
                               bkc={"inst0.wcnf": 0})
        inst = report["instances"][0]
        assert report["refs"][inst] == 0

    def test_time_limit_applied_when_config_has_no_cutoff(self, tmp_path):
        _write_instances(tmp_path, count=1)
        report = run_benchmark(
            tmp_path, [("t", SolverConfig(seed=1))], time_limit=0.05)
        assert report["num_instances"] == 1

    def test_time_limit_covers_parsing(self, tmp_path, monkeypatch):
        _write_instances(tmp_path, count=1, seed=19)  # init is not optimal
        import spbmaxsat.bench as bench_mod

        load = bench_mod.load_wcnf
        loads = []

        def slow_load(path):
            loads.append(path)
            time.sleep(0.2)
            return load(path)

        monkeypatch.setattr(bench_mod, "load_wcnf", slow_load)
        # One parse of the instance, counted by the record of each config.
        run_benchmark(tmp_path, [("t", SolverConfig(seed=1)),
                                 ("c", SolverConfig(seed=1, mode="constant"))],
                      time_limit=0.1, out_dir=tmp_path / "out")
        records = _records(tmp_path / "out")
        assert [(r["flips"], r["termination"]) for r in records] == [(0, "time")] * 2
        assert all(r["wall_time"] >= 0.2 for r in records) and len(loads) == 1


def _fixed(record: dict) -> dict:
    """A runs.jsonl record without the fields that read the clock."""
    fixed = {k: v for k, v in record.items() if k not in ("wall_time", "time_to_best")}
    fixed["trace"] = [[step, cost] for step, _, cost in record["trace"]]
    return fixed


class TestOneParsePerInstance:
    CONFIGS = [
        ("base", SolverConfig(max_flips=2000, seed=1)),
        ("constant", SolverConfig(max_flips=2000, seed=2, mode="constant")),
        ("adaptive", SolverConfig(max_flips=2000, seed=3, mode="all_adaptive")),
    ]

    @pytest.fixture
    def loads(self, monkeypatch):
        """The paths that bench.load_wcnf is called with, in call order."""
        import spbmaxsat.bench as bench_mod

        calls = []
        load = bench_mod.load_wcnf

        def counted(path):
            calls.append(path)
            return load(path)

        monkeypatch.setattr(bench_mod, "load_wcnf", counted)
        return calls

    def test_serial_sweep_parses_each_instance_once(self, tmp_path, loads):
        _write_instances(tmp_path, count=4)
        report = run_benchmark(tmp_path, self.CONFIGS)
        assert report["num_instances"] == 4
        assert sorted(loads) == report["instances"]

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_records_keep_their_order_and_outcomes(self, tmp_path, parallelism):
        _write_instances(tmp_path, count=3)
        run_benchmark(tmp_path, self.CONFIGS, parallelism=parallelism, out_dir=tmp_path / "out")
        records = _records(tmp_path / "out")
        instances = sorted(str(p) for p in tmp_path.glob("*.wcnf"))
        # Config by config, each config's instances in order; each outcome
        # that of a run that parses its instance itself.
        expected = []
        for label, cfg in self.CONFIGS:
            for path in instances:
                record, = _run_instance(path, [(label, cfg)])
                expected.append(_fixed(json.loads(record.to_json())))
        assert [_fixed(r) for r in records] == expected

    @pytest.mark.skipif(multiprocessing.get_context().get_start_method() != "fork",
                        reason="the pool's workers must inherit the patched loader")
    def test_pooled_sweep_parses_each_instance_once(self, tmp_path, monkeypatch):
        import spbmaxsat.bench as bench_mod

        _write_instances(tmp_path, count=4)
        log = tmp_path / "loads.txt"  # written by the workers, which share no list
        load = bench_mod.load_wcnf

        def logged(path):
            with open(log, "a") as fh:
                fh.write(path + "\n")
            return load(path)

        monkeypatch.setattr(bench_mod, "load_wcnf", logged)
        report = run_benchmark(tmp_path, self.CONFIGS, parallelism=2)
        assert sorted(log.read_text().splitlines()) == report["instances"]

    @pytest.mark.parametrize("count, parallelism, workers", [(2, 32, [2]), (3, 2, [2]), (1, 4, [])])
    def test_pool_has_at_most_one_worker_per_instance(self, tmp_path, monkeypatch, count,
                                                      parallelism, workers):
        import concurrent.futures

        started = []

        class InlinePool:
            """Records its max_workers and runs each task at submit, in this
            process: it starts no worker."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        _write_instances(tmp_path, count=count)
        run_benchmark(tmp_path, self.CONFIGS, out_dir=tmp_path / "serial")
        run_benchmark(tmp_path, self.CONFIGS, parallelism=parallelism, out_dir=tmp_path / "out")
        assert started == workers
        assert ([_fixed(r) for r in _records(tmp_path / "out")]
                == [_fixed(r) for r in _records(tmp_path / "serial")])

    def test_unreadable_instance_gives_a_skipped_record_per_config(self, tmp_path, loads):
        (tmp_path / "bad.wcnf").write_text("p wcnf nope\n")
        _write_instances(tmp_path, count=1)
        run_benchmark(tmp_path, self.CONFIGS, out_dir=tmp_path / "out")
        bad = [r for r in _records(tmp_path / "out") if r["instance"].endswith("bad.wcnf")]
        assert [r["label"] for r in bad] == [label for label, _ in self.CONFIGS]
        assert all(r["skipped"] and r["error"].startswith("unreadable: line 1: ") for r in bad)
        assert len(loads) == 2

    def test_crash_of_one_config_leaves_the_others_running(self, tmp_path, monkeypatch, loads):
        import spbmaxsat.bench as bench_mod

        _write_instances(tmp_path, count=2)
        solve = bench_mod.solve

        def solve_or_crash(formula, cfg):
            if cfg.mode == "constant":
                raise RuntimeError("synthetic failure")
            return solve(formula, cfg)

        monkeypatch.setattr(bench_mod, "solve", solve_or_crash)
        run_benchmark(tmp_path, self.CONFIGS, out_dir=tmp_path / "out")
        records = _records(tmp_path / "out")
        for r in records:
            if r["label"] == "constant":
                assert r["error"] == "crash: synthetic failure" and r["best_cost"] is None
            else:
                assert r["error"] is None and r["trace"] and r["termination"] != "error"
        assert len(records) == 6 and len(loads) == 2

    @pytest.mark.skipif(multiprocessing.get_context().get_start_method() != "fork",
                        reason="the pool's workers must inherit the patched loader")
    def test_dying_worker_gives_error_records_and_keeps_the_sweep(self, tmp_path, monkeypatch):
        import spbmaxsat.bench as bench_mod

        _write_instances(tmp_path, count=3)
        dying = str(tmp_path / "inst2.wcnf")
        load = bench_mod.load_wcnf

        def load_or_die(path):
            if path == dying:
                os._exit(1)  # no exception: the worker process is gone
            return load(path)

        monkeypatch.setattr(bench_mod, "load_wcnf", load_or_die)
        report = run_benchmark(tmp_path, self.CONFIGS, parallelism=2, out_dir=tmp_path / "out")
        records = _records(tmp_path / "out")
        assert len(records) == 9 and sorted(report["solvers"]) == ["adaptive", "base", "constant"]
        died = [r for r in records if r["error"] is not None]
        assert all(r["error"] == "crash: worker process died" and r["best_cost"] is None
                   for r in died)
        assert {r["label"] for r in died if r["instance"] == dying} == set(report["solvers"])
        # The worker that took inst2 had finished an instance before.
        finished = [r for r in records if r["error"] is None]
        assert finished and all(r["trace"] and r["instance"] != dying for r in finished)

    def test_file_rewritten_between_sweeps_is_read_again(self, tmp_path, loads):
        path = tmp_path / "inst.wcnf"
        path.write_text("p wcnf 2 3 10\n10 1 2 0\n2 -1 0\n5 -2 0\n")
        first = run_benchmark(tmp_path, self.CONFIGS[:1])
        path.write_text("p wcnf 1 2 10\n10 1 0\n4 -1 0\n")
        second = run_benchmark(tmp_path, self.CONFIGS[:1])
        assert [first["refs"][str(path)], second["refs"][str(path)]] == [2, 4]
        assert loads == [str(path)] * 2
