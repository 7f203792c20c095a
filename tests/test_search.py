"""Search loop tests: BMS selection, escape moves, and full solves."""
from __future__ import annotations

import inspect
import random
from collections import Counter

import pytest

from spbmaxsat import kernel
from spbmaxsat.common import EPS
from spbmaxsat.formula import INF, Formula, parse_wcnf
from spbmaxsat.oracle import brute_force_opt
from spbmaxsat.pywalk import bms_pick, pick_from_falsified
from spbmaxsat.search import ConfigError, PRESETS, SolveResult, SolverConfig, solve
from spbmaxsat.state import SearchState, flip

from gen import as_set, random_parts, same_run, score

F1 = parse_wcnf("p wcnf 2 3 10\n10 1 2 0\n2 -1 0\n5 -2 0\n")


def state_with_scores(weights_by_var):
    """State whose positive-score set is exactly the given vars, with
    score(v) equal to the given soft weight (one falsified soft unit per
    var, w(SPB) = 1)."""
    n = len(weights_by_var)
    soft = [(w, [v]) for v, w in weights_by_var.items()]
    f = Formula(n, [], soft)
    return SearchState(f, [0] + [0] * n)


class TestBmsPick:
    def test_single_candidate_for_any_k(self):
        s = state_with_scores({1: 5})
        for k in (1, 2, 64):
            assert bms_pick(s, k, random.Random(0)) == 1

    def test_k1_is_uniform(self):
        s = state_with_scores({1: 5, 2: 2, 3: 9})
        rng = random.Random(1)
        counts = Counter(bms_pick(s, 1, rng) for _ in range(6000))
        assert set(counts) == {1, 2, 3}
        for v in (1, 2, 3):
            assert 1700 <= counts[v] <= 2300

    def test_k64_dominates(self):
        s = state_with_scores({1: 5, 2: 2})
        rng = random.Random(2)
        assert all(bms_pick(s, 64, rng) == 1 for _ in range(300))

    def test_returns_positive_score_vars_only(self):
        rng = random.Random(3)
        for _ in range(20):
            n, hard, soft = random_parts(rng)
            f = Formula(n, hard, soft)
            s = SearchState(f, [0] + [rng.randint(0, 1) for _ in range(n)])
            if not s.goodvars.members:
                continue
            v = bms_pick(s, 7, rng)
            assert score(s, v) > EPS

    def test_tie_breaks_by_age_then_id(self):
        s = state_with_scores({1: 5, 2: 5})
        s.flip_stamp[1] = 9
        s.flip_stamp[2] = 3
        assert bms_pick(s, 64, random.Random(4)) == 2
        s.flip_stamp[1] = 3
        assert bms_pick(s, 64, random.Random(5)) == 1


class TestPickFromFalsified:
    def test_prefers_hard_and_argmax(self):
        f = Formula(2, [[1, 2]], [(2, [-1]), (5, [-2])])
        s = SearchState(f, [0, 0, 0], hard_weights=[3.0])
        # hard clause falsified; score(x1) = 3 - 2 = 1, score(x2) = 3 - 5 = -2
        assert score(s, 1) == 1 and score(s, 2) == -2
        assert pick_from_falsified(s, random.Random(0)) == 1

    def test_soft_unit_when_no_hard_falsified(self):
        f = Formula(7, [[1]], [(4, [-7])])
        s = SearchState(f, [0, 1, 0, 0, 0, 0, 0, 1])
        assert pick_from_falsified(s, random.Random(0)) == 7

    def test_tie_breaks_by_age_then_id(self):
        f = Formula(2, [[1, 2]], [])
        s = SearchState(f, [0, 0, 0])
        assert score(s, 1) == score(s, 2) == 1
        s.flip_stamp[1] = 9
        s.flip_stamp[2] = 3
        assert pick_from_falsified(s, random.Random(0)) == 2
        s.flip_stamp[1] = 3
        assert pick_from_falsified(s, random.Random(0)) == 1

    def test_none_when_everything_satisfied(self):
        f = Formula(2, [[1, 2]], [(2, [1])])
        s = SearchState(f, [0, 1, 0])
        assert pick_from_falsified(s, random.Random(0)) is None


class TestSolve:
    def test_f1_reaches_optimum(self):
        result = solve(F1, SolverConfig(max_flips=10_000, seed=1))
        oracle_cost, _ = brute_force_opt(F1)
        assert oracle_cost == 2
        assert result.best_cost == 2
        assert F1.cost(result.best_assignment) == 2

    def test_unsatisfiable_hard_units(self):
        f = Formula(1, [[1], [-1]], [(1, [1])])
        result = solve(f, SolverConfig(max_flips=2_000, seed=3))
        assert not result.feasible
        assert result.best_cost == INF
        assert result.trace == []

    def test_no_soft_clauses_terminates_at_zero(self):
        f = Formula(3, [[1, 2], [-1, 3]], [])
        result = solve(f, SolverConfig(max_flips=10_000, seed=2))
        assert result.best_cost == 0
        assert result.termination == "optimum"

    @pytest.mark.parametrize("kernel_off", [False, True])
    def test_empty_hard_clause_infeasible(self, monkeypatch, kernel_off):
        if kernel_off:
            monkeypatch.setattr(kernel, "load", lambda: None)
        f = parse_wcnf("h 0\n1 1 0\n")
        result = solve(f, SolverConfig(max_flips=100, seed=1))
        assert not result.feasible
        assert result.termination == "infeasible"
        # No search runs, but the backend is the one that would have.
        assert result.backend == ("python" if kernel.load() is None else "c")

    def test_trace_strictly_decreasing_and_feasible_records(self):
        rng = random.Random(51)
        for _ in range(10):
            n, hard, soft = random_parts(rng)
            f = Formula(n, hard, soft)
            result = solve(f, SolverConfig(max_flips=20_000, seed=rng.randint(0, 999)))
            costs = [c for _, _, c in result.trace]
            assert all(a > b for a, b in zip(costs, costs[1:]))
            if result.feasible:
                assert result.best_cost == costs[-1]
                assert f.cost(result.best_assignment) == result.best_cost

    def test_deterministic_given_seed_and_flip_budget(self):
        rng = random.Random(52)
        n, hard, soft = random_parts(rng)
        f = Formula(n, hard, soft)
        cfg = SolverConfig(max_flips=30_000, seed=77)
        r1 = solve(f, cfg)
        r2 = solve(f, cfg)
        assert [(s, c) for s, _, c in r1.trace] == [(s, c) for s, _, c in r2.trace]
        assert r1.best_assignment == r2.best_assignment
        assert r1.flips == r2.flips
        assert r1.termination == r2.termination

    def test_bound_tracks_best_cost_and_bucket_matches_scan(self, monkeypatch):
        rng = random.Random(53)
        # Large enough that the run neither starts nor ends at cost 0.
        n, hard, soft = random_parts(rng, min_vars=40, max_vars=40,
                                     min_clauses=160, max_clauses=160)
        f = Formula(n, hard, soft)
        improvements = []
        flips = 0

        def on_improvement(c):
            improvements.append(c)

        def checked_flip(state, v):
            nonlocal flips
            flip(state, v)
            flips += 1
            if improvements:
                assert state.spb.bound == min(improvements)
            else:
                assert state.spb.bound == INF
                assert state.spb.weight == 1.0
            if flips % 97 == 0:  # occasional full-scan equivalence check
                full = {u for u in range(1, n + 1) if score(state, u) > EPS}
                assert as_set(state.goodvars) == full

        # checked_flip sees the flips of the Python body only; the C kernel
        # must then make the same run.
        cfg = SolverConfig(max_flips=5_000, seed=5)
        with monkeypatch.context() as mp:
            mp.setattr(kernel, "load", lambda: None)
            mp.setattr("spbmaxsat.pywalk.flip", checked_flip)
            result = solve(f, cfg, on_improvement=on_improvement)
        assert flips == result.flips > 0
        assert same_run(solve(f, cfg), result)

    def test_zero_flips_records_the_feasible_start(self):
        result = solve(F1, SolverConfig(max_flips=0, seed=1))
        [(step, _, cost)] = result.trace
        assert (step, cost) == (0, result.best_cost)
        assert F1.cost(result.best_assignment) == cost > 2
        assert (result.flips, result.termination) == (0, "flips")

    def test_optimal_start_stops_at_flip_zero(self):
        f = Formula(2, [[1, 2]], [(3, [1])])
        result = solve(f, SolverConfig(max_flips=100, seed=1))
        assert [(s, c) for s, _, c in result.trace] == [(0, 0)]
        assert (result.flips, result.termination) == (0, "optimum")

    def test_infeasible_start_records_nothing(self):
        f = Formula(1, [[1], [-1]], [(1, [1])])
        result = solve(f, SolverConfig(max_flips=0, seed=1))
        assert result.trace == []
        assert (result.flips, result.termination) == (0, "flips")

    def test_random_init_mode(self):
        result = solve(F1, SolverConfig(max_flips=5_000, seed=1, init="random"))
        assert result.best_cost == 2

    @pytest.mark.parametrize("n", [0, 1, 20_000])
    def test_bitstring_is_one_digit_per_variable(self, n):
        rng = random.Random(n)
        model = [0] + [rng.randint(0, 1) for _ in range(n)]
        result = SolveResult(model, 0, [], 0, "flips", SolverConfig())
        assert result.bitstring() == "".join(str(b) for b in model[1:])


class TestConfig:
    def test_auto_preset_resolution(self):
        pms = Formula(2, [[1, 2]], [(1, [1]), (1, [2])])
        wpms = Formula(2, [[1, 2]], [(1, [1]), (2, [2])])
        base = SolverConfig(max_flips=1)
        assert base.resolve(pms).preset == "pms"
        assert base.resolve(wpms).preset == "wpms"
        assert base.resolve(pms).k == PRESETS["pms"][0]
        assert base.resolve(wpms).k == PRESETS["wpms"][0]

    def test_explicit_values_override_preset(self):
        f = Formula(1, [], [(1, [1])])
        cfg = SolverConfig(max_flips=1, k=5, delta=1.5).resolve(f)
        assert cfg.k == 5
        assert cfg.delta == 1.5
        assert cfg.h_inc == PRESETS["pms"][1]

    def test_requires_some_cutoff(self):
        f = Formula(1, [], [(1, [1])])
        with pytest.raises(ConfigError):
            SolverConfig().resolve(f)

    def test_rejects_bad_k_and_preset(self):
        f = Formula(1, [], [(1, [1])])
        with pytest.raises(ConfigError):
            SolverConfig(max_flips=1, k=0).resolve(f)
        with pytest.raises(ConfigError):  # the kernel holds k in an int64_t
            SolverConfig(max_flips=1, k=2**63)
        with pytest.raises(ConfigError):
            SolverConfig(max_flips=1, preset="nope").resolve(f)
        with pytest.raises(ConfigError):
            SolverConfig(max_flips=1, init="nope").resolve(f)

    @pytest.mark.parametrize("seed", ["1", 1.0, None])
    def test_rejects_a_seed_that_is_not_an_int(self, seed):
        # random.Random takes each of these, but the kernel seeds from an
        # int's words.
        with pytest.raises(ConfigError, match="seed"):
            SolverConfig(max_flips=1, seed=seed)
        SolverConfig(max_flips=1, seed=-2**70)  # any int will do

    def test_fields_are_the_constructor_parameters_in_order(self):
        """vars() of a config, which bench stores in runs.jsonl, has exactly
        FIELDS as keys, in the constructor's order."""
        assert tuple(vars(SolverConfig())) == SolverConfig.FIELDS
        assert tuple(inspect.signature(SolverConfig).parameters) == SolverConfig.FIELDS

    def test_replace_checks_the_copy(self):
        cfg = SolverConfig(max_flips=1, seed=3)
        copy = cfg.replace(k=7)
        assert vars(copy) == {**vars(cfg), "k": 7} and cfg.k is None
        for bad in (dict(k=0), dict(mode="nope"), dict(seed="1")):
            with pytest.raises(ConfigError):
                cfg.replace(**bad)

    def test_decay_threshold_floor(self):
        f = Formula(2, [[1, 2]], [(1, [1]), (700, [2])])
        assert SolverConfig(max_flips=1, decay_threshold=300).resolve(f).decay_threshold == 1400
        assert SolverConfig(max_flips=1).resolve(f).decay_threshold == 1e7

    @pytest.mark.parametrize("field", ["h_inc", "delta", "decay_threshold", "cutoff_seconds"])
    def test_rejects_nan(self, field):
        with pytest.raises(ConfigError, match=field):
            SolverConfig(max_flips=1, **{field: float("nan")})

    def test_time_cutoff_terminates(self):
        rng = random.Random(54)
        n, hard, soft = random_parts(rng)
        f = Formula(n, hard, soft)
        result = solve(f, SolverConfig(cutoff_seconds=0.05, seed=1))
        assert result.termination in ("time", "optimum")
