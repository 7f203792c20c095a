"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The solver-vs-oracle
criteria share one pooled batch of runs through the module-scoped fixture.
"""
from __future__ import annotations

import io
import multiprocessing
import os
import random
from contextlib import redirect_stdout

import pytest

from spbmaxsat import kernel
from spbmaxsat.bench import RunRecord, aggregate, compute_wins, mse_score
from spbmaxsat.cli import main
from spbmaxsat.formula import INF, Formula, ParseError, parse_wcnf
from spbmaxsat.search import SolverConfig, solve
from spbmaxsat.state import SearchState, flip
from spbmaxsat.common import MODE_CONSTANT, MODE_SPB
from spbmaxsat.weighting import decay_weights, spb_weighting

import acceptance_jobs as jobs
from gen import (
    assert_state_matches_scratch,
    random_parts,
    render_new,
    render_old,
    same_run,
    weight_growth,
)


def report(criterion: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion} {name}: {detail}"


@pytest.fixture(scope="module")
def suite():
    """All pooled solver runs: oracle-checked main presets plus ablations."""
    phase1 = [(i, "wpms", True) for i in range(jobs.NUM_INSTANCES)]
    phase1 += [(i, "pms", True) for i in range(jobs.NUM_INSTANCES)]
    phase2 = [(i, "constant", False) for i in range(jobs.NUM_INSTANCES)]
    phase2 += [(i, "all_adaptive", False) for i in range(jobs.NUM_INSTANCES)]
    ctx = multiprocessing.get_context("fork")
    workers = max(1, min(os.cpu_count() or 1, 8))
    with ctx.Pool(processes=workers) as pool:
        results = pool.map(jobs.run_suite_job, phase1 + phase2, chunksize=8)
    by_variant = {v: {} for v in jobs.VARIANTS}
    for row in results:
        by_variant[row["variant"]][row["idx"]] = row
    return by_variant


def _criterion1_check(rows, label):
    n = len(rows)
    feasible = sum(1 for r in rows.values() if r["feasible"])
    hits = sum(
        1 for r in rows.values()
        if r["feasible"] and r["oracle"] != INF and r["best"] == r["oracle"]
    )
    detail = f"{label}: optimum {hits}/{n}, feasible {feasible}/{n}"
    return feasible == n and hits >= 0.95 * n, detail


def test_criterion_1_oracle_equivalence(suite):
    ok_w, detail_w = _criterion1_check(suite["wpms"], "wpms preset")
    ok_p, detail_p = _criterion1_check(suite["pms"], "pms preset")
    report(1, "oracle equivalence", ok_w and ok_p, f"{detail_w}; {detail_p}")


def test_criterion_2_incremental_consistency():
    rng = random.Random(555)
    checked = 0
    for _ in range(100):
        n, hard, soft = random_parts(rng)
        f = Formula(n, hard, soft)
        values = [rng.randint(0, 1) for _ in range(n)]
        state = SearchState(f, [0, *values])
        # A finite bound makes the soft-conflict updates actually fire.
        state.spb.bound = max(1, state.current_obj)
        cfg = SolverConfig(h_inc=3, delta=1.001)
        # Just above the start weight 1: decays whenever a weight has grown.
        decay_cfg = SolverConfig(decay_threshold=1.5)
        weighting_at = set(rng.sample(range(1000), 50))
        decay_at = set(rng.sample(range(1000), 2))
        for step in range(1000):
            flip(state, rng.randint(1, n))
            if step in weighting_at:
                spb_weighting(state, cfg)
            if step in decay_at:
                decay_weights(state, decay_cfg)
        assert_state_matches_scratch(state, tol=1e-6)
        checked += 1
    report(2, "incremental consistency", checked == 100,
           f"{checked}/100 instances x 1000 flips + 50 weighting + 2 decay events")


def test_criterion_3_weighting_law():
    _, adaptive, _, _ = weight_growth(MODE_SPB, 1.001, 10_000)
    final_gap = abs(adaptive[-1] - 0.001)
    all_above = all(r > 0.001 for r in adaptive)
    _, constant, _, _ = weight_growth(MODE_CONSTANT, 1.001, 10_000)
    exact = all(r == 1.0 / n for n, r in enumerate(constant, 1))
    ok = final_gap <= 1e-4 and all_above and exact
    report(3, "weighting law", ok,
           f"final R_inc gap {final_gap:.2e}, lower bound {'held' if all_above else 'broken'}, "
           f"constant-rule R_inc(n)=1/n {'exact' if exact else 'violated'}")


def test_criterion_4_spb_lifecycle(monkeypatch):
    rng = random.Random(777)
    runs = 0
    for i in range(30):
        n, hard, soft = random_parts(rng)
        f = Formula(n, hard, soft)
        improvements = []
        violations = []
        flips = []

        def on_improvement(c):
            improvements.append(c)

        def checked_flip(state, v):
            flip(state, v)
            flips.append(v)
            if not improvements:
                if state.spb.bound != INF or state.spb.weight != 1.0:
                    violations.append(f"pre-feasible weight {state.spb.weight}")
            else:
                if state.spb.bound != improvements[-1]:
                    violations.append("bound != best cost")

        cfg = SolverConfig(max_flips=20_000, seed=1000 + i,
                           init="random" if i % 2 else "decimation")
        # checked_flip sees the flips of the Python body only; the C kernel
        # must then make the same run.
        with monkeypatch.context() as mp:
            mp.setattr(kernel, "load", lambda: None)
            mp.setattr("spbmaxsat.pywalk.flip", checked_flip)
            result = solve(f, cfg, on_improvement=on_improvement)
        assert not violations, violations[:3]
        assert len(flips) == result.flips
        assert same_run(solve(f, cfg), result)
        assert all(a > b for a, b in zip(improvements, improvements[1:]))
        if result.feasible:
            assert improvements and result.best_cost == improvements[-1]
            assert f.cost(result.best_assignment) == result.best_cost
            bits = result.bitstring()
            assert f.cost([0] + [int(ch) for ch in bits]) == improvements[-1]
        runs += 1
    report(4, "SPB lifecycle", runs == 30,
           f"{runs}/30 instrumented runs: unit weight before first feasible, "
           "bound==best, o-lines decreasing, v-line re-evaluates")


def test_criterion_5_determinism(tmp_path):
    rng = random.Random(888)
    identical = 0
    for i in range(5):
        n, hard, soft = random_parts(rng)
        path = tmp_path / f"det{i}.wcnf"
        path.write_text(render_old(n, hard, soft))
        args = ["solve", str(path), "--max-flips", "30000", "--seed", str(40 + i)]
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            with redirect_stdout(buf):
                rc = main(args)
            assert rc == 0
            outs.append(buf.getvalue())
        if outs[0] == outs[1]:
            identical += 1
    report(5, "determinism", identical == 5,
           f"{identical}/5 instances produced byte-identical protocol output twice")


def test_criterion_6_metrics():
    examples_ok = (
        mse_score(2, 2) == 1.0
        and abs(mse_score(0, 4) - 0.2) < 1e-15
        and mse_score(3, None) == 0.0
    )
    wins = compute_wins({
        "i1": {"A": 3, "B": 5},
        "i2": {"A": 3, "B": 3},
        "i3": {"A": None, "B": None},
    })
    ties_ok = wins == {"A": 2, "B": 1}
    records = [
        RunRecord("a", "S", {}, 2, 0.1, [], 10, "flips", 0.2),
        RunRecord("b", "S", {}, 9, 0.4, [], 10, "flips", 0.5),
        RunRecord("c", "S", {}, None, None, [], 10, "flips", 0.5),
        RunRecord("a", "T", {}, 2, 0.1, [], 10, "flips", 0.2),
        RunRecord("b", "T", {}, 4, 0.1, [], 10, "flips", 0.2),
        RunRecord("c", "T", {}, 1, 0.1, [], 10, "flips", 0.2),
    ]
    rep = aggregate(records)
    expected_s = (mse_score(2, 2) + mse_score(4, 9) + 0.0) / 3
    expected_t = (mse_score(2, 2) + mse_score(4, 4) + mse_score(1, 1)) / 3
    mean_ok = (
        abs(rep["solvers"]["S"]["score"] - expected_s) <= 1e-12
        and abs(rep["solvers"]["T"]["score"] - expected_t) <= 1e-12
    )
    report(6, "metrics", examples_ok and ties_ok and mean_ok,
           f"examples {'ok' if examples_ok else 'bad'}, ties {'ok' if ties_ok else 'bad'}, "
           f"report mean within 1e-12")


def test_criterion_7_parser():
    rng = random.Random(999)
    pairs = 0
    for _ in range(50):
        n, hard, soft = random_parts(rng)
        n = max(abs(l) for lits in hard + [c for _, c in soft] for l in lits)
        old = parse_wcnf(render_old(n, hard, soft))
        new = parse_wcnf(render_new(n, hard, soft))
        assert (old.num_vars, old.hard, old.soft, old.soft_weights) == \
            (new.num_vars, new.hard, new.soft, new.soft_weights)
        pairs += 1

    malformed = [
        ("p wcnf 2 3\n10 1 2 0\n", "header"),
        ("p wcnf 2 1 10\n10 1 2\n", "terminator"),
        ("p wcnf 2 1 10\n10 1 3 0\n", "var-range"),
        ("p wcnf 1 1 5\n0 1 0\n", "soft-weight"),
        (f"{(1 << 63) - 2} 1 0\n2 1 0\n", "overflow"),
    ]
    kinds_ok = 0
    for text, kind in malformed:
        with pytest.raises(ParseError) as exc:
            parse_wcnf(text)
        assert exc.value.kind == kind, (kind, exc.value.kind)
        assert exc.value.line_no is not None
        kinds_ok += 1
    report(7, "parser", pairs == 50 and kinds_ok == len(malformed),
           f"{pairs}/50 format-equivalent instances, "
           f"{kinds_ok}/{len(malformed)} designated parse errors")


def test_criterion_8_ablation_plumbing(suite):
    lines = []
    ok = True
    for mode in ("constant", "all_adaptive"):
        rows = suite[mode]
        n = len(rows)
        feasible = sum(1 for r in rows.values() if r["feasible"])
        hits = sum(
            1 for r in rows.values()
            if r["feasible"] and r["best"] == suite["wpms"][r["idx"]]["oracle"]
        )
        ok = ok and feasible == n
        lines.append(f"{mode}: feasible {feasible}/{n}, optimum {hits}/{n}")
    base_hits = sum(
        1 for r in suite["wpms"].values()
        if r["feasible"] and r["best"] == r["oracle"]
    )
    lines.append(f"spb baseline optimum {base_hits}/{len(suite['wpms'])} (reported, not gated)")
    report(8, "ablation plumbing", ok, "; ".join(lines))
