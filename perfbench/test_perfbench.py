"""Tests of the benchmark itself: checker verdicts, generator determinism,
and a toy-size run of every workload through the real command.

    PYTHONPATH=src python -m pytest -q perfbench
"""
from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

from perfbench import check, gen, run, spec
from spbmaxsat.formula import Formula, load_wcnf
from spbmaxsat.initialization import decimation_init
from spbmaxsat.search import SolverConfig, solve
from spbmaxsat.state import SearchState

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "perfbench" / "run.py"
WORKLOADS = [name for name, _ in spec.WORKLOADS]


def solved_lines(tmp_path):
    inst = gen.planted_wpms(tmp_path / "p.wcnf", 3, num_vars=40, num_hard=40, num_soft=120)
    f = Formula(inst.num_vars, inst.hard, inst.soft)
    result = solve(f, SolverConfig(max_flips=500, seed=1))
    lines = [(0.1 * i, f"o {row[2]}") for i, row in enumerate(result.trace)]
    lines += [(9.0, "s SATISFIABLE"), (9.0, f"v {result.bitstring()}")]
    return f, lines


def test_correct_solve_output_passes(tmp_path):
    f, lines = solved_lines(tmp_path)
    p = check.parse_protocol(lines)
    assert check.check_solve(p, 0, f.cost, need_model=True) == []


def test_corrupted_v_line_fails(tmp_path):
    f, lines = solved_lines(tmp_path)
    bits = lines[-1][1][2:]
    corrupt = ("1" if bits[0] == "0" else "0") + bits[1:]
    p = check.parse_protocol(lines[:-1] + [(9.0, f"v {corrupt}")])
    assert any("v line costs" in msg for msg in check.check_solve(p, 0, f.cost, True))


def test_repeated_o_line_and_exit_code_fail(tmp_path):
    f, lines = solved_lines(tmp_path)
    p = check.parse_protocol(lines[:1] + lines)
    assert check.check_solve(p, 3, f.cost, True) == [
        "exit code 3", "o lines do not strictly decrease"]


def suite_run(cost_w: int):
    optima = {"w0000.wcnf": 7, "u0000.wcnf": 2}
    records = [
        {"instance": "d/w0000.wcnf", "label": "pms", "best_cost": cost_w, "error": None},
        {"instance": "d/u0000.wcnf", "label": "pms", "best_cost": 2, "error": None},
    ]
    report = {"solvers": {"pms": {"score": 0.5 * ((7 + 1) / (cost_w + 1) + 1.0)}}}
    return records, report, optima


def test_suite_at_optimum_passes():
    records, report, optima = suite_run(7)
    assert check.check_suite(records, report, optima, 0, 1) == []


def test_suite_cost_below_optimum_fails():
    records, report, optima = suite_run(6)
    bad = check.check_suite(records, report, optima, 0, 1)
    assert any("below optimum" in msg for msg in bad)


def test_suite_score_mismatch_and_error_record_fail():
    records, report, optima = suite_run(9)
    report["solvers"]["pms"]["score"] += 0.01
    records[1]["error"] = "crash: boom"
    bad = check.check_suite(records, report, optima, 0, 1)
    assert any("#score" in msg for msg in bad)
    assert any("error crash" in msg for msg in bad)


@pytest.mark.parametrize("make, size", [
    (gen.planted_wpms, dict(num_vars=60, num_hard=60, num_soft=180)),
    (gen.set_cover_pms, dict(num_sets=50, num_elements=200, planted_frac=0.6)),
])
def test_generators_are_deterministic_and_files_match(tmp_path, make, size):
    a = make(tmp_path / "a.wcnf", 5, **size)
    b = make(tmp_path / "b.wcnf", 5, **size)
    assert a.path.read_bytes() == b.path.read_bytes()
    parsed = load_wcnf(a.path)
    built = Formula(a.num_vars, a.hard, a.soft)
    assert (parsed.num_vars, parsed.hard, parsed.soft, parsed.soft_weights) == \
        (built.num_vars, built.hard, built.soft, built.soft_weights)


@pytest.mark.parametrize("seed", range(1, 9))
def test_planted_wpms_decimation_init_is_feasible(tmp_path, seed):
    inst = gen.planted_wpms(tmp_path / "p.wcnf", seed, num_vars=300, num_hard=400, num_soft=900)
    f = Formula(inst.num_vars, inst.hard, inst.soft)
    state = SearchState(f, decimation_init(f, random.Random(1)))
    assert state.falsified_hard.members == []


def test_child_peak_rss_is_the_childs_own():
    ballast = b"x" * (300 << 20)  # resident here; a count that included it would exceed 150
    run.OUT.mkdir(parents=True, exist_ok=True)
    child = run.run_child(["-c", "import time; b = b'y' * (60 << 20); time.sleep(0.2)"],
                          perf_counter() + 60)
    assert child.returncode == 0
    assert 60 <= child.peak_rss_mb < 150
    del ballast


def run_bench(*args):
    out = subprocess.run([sys.executable, str(RUN), *args], cwd=ROOT,
                         capture_output=True, text=True, timeout=170)
    return out, out.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run(workload, trace):
    out, lines = run_bench("--workload", workload, "--seed", "2", "--seconds", "1",
                           "--trace", str(trace), "--tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    wanted = spec.PER_LAYER if trace else spec.END_TO_END
    assert list(result["metrics"]) == [m[0] for m in wanted]
    for name, unit, *_ in wanted:
        assert result["metrics"][name]["unit"] == unit
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_solver_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_benchmark_json_is_current():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.benchmark_json()
