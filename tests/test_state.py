"""Incremental bookkeeping tests: score definitions, flips, and the
from-scratch equivalence oracle."""
from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from spbmaxsat.formula import Formula, parse_wcnf
from spbmaxsat.state import SearchState, SpbConstraint, flip

from gen import as_set, assert_state_matches_scratch, random_parts, score

F1 = parse_wcnf("p wcnf 2 3 10\n10 1 2 0\n2 -1 0\n5 -2 0\n")


def make_state(f, values, hard_weights=None, spb_weight=1.0, spb_bound=float("inf")):
    return SearchState(
        f,
        [0, *values],
        hard_weights=hard_weights,
        spb=SpbConstraint(spb_weight, spb_bound),
    )


class TestScores:
    def test_hscore_breaking(self):
        f = Formula(2, [[1, 2]], [])
        s = make_state(f, (1, 0), hard_weights=[3.0])
        assert s.hscore[1] == -3.0
        assert s.hscore[2] == 0.0

    def test_hscore_making(self):
        f = Formula(2, [[1, 2]], [])
        s = make_state(f, (0, 0), hard_weights=[3.0])
        assert s.hscore[1] == 3.0

    def test_spbscore(self):
        f = Formula(2, [], [(2, [-1]), (5, [-2])])
        s = make_state(f, (1, 0), spb_weight=4.0)
        assert s.spb.weight * s.softdelta[1] == 4 * (2 - 0)
        assert s.spb.weight * s.softdelta[2] == 4 * (2 - 7)

    def test_spbscore_weight_one_is_softdelta(self):
        f = Formula(2, [], [(2, [-1]), (5, [-2])])
        s = make_state(f, (1, 0))
        assert s.spb.weight * s.softdelta[1] == s.softdelta[1]

    def test_score_is_sum(self):
        f = Formula(2, [[1, 2]], [(2, [-1]), (5, [-2])])
        s = make_state(f, (1, 0), hard_weights=[3.0], spb_weight=4.0)
        assert score(s, 1) == -3 + 8 == 5
        assert score(s, 2) == 0 - 20 == -20

    def test_score_without_hard(self):
        f = Formula(2, [], [(2, [-1]), (5, [-2])])
        s = make_state(f, (1, 0), spb_weight=4.0)
        for v in (1, 2):
            assert score(s, v) == s.spb.weight * s.softdelta[v]


class TestFlip:
    def test_flip_updates_obj_and_falsified(self):
        s = make_state(F1, (1, 0))
        assert s.current_obj == 2
        assert not as_set(s.falsified_hard)
        flip(s, 1)
        assert s.current_obj == 0
        assert as_set(s.falsified_hard) == {0}
        assert_state_matches_scratch(s)

    def test_involution_restores_exactly(self):
        rng = random.Random(5)
        n, hard, soft = random_parts(rng)
        f = Formula(n, hard, soft)
        values = [rng.randint(0, 1) for _ in range(n)]
        s = make_state(f, values)
        before = (
            list(s.values), s.current_obj, list(s.hscore), list(s.softdelta),
            list(s.sat_count_hard), list(s.sat_count_soft),
            as_set(s.falsified_hard), as_set(s.falsified_soft),
            as_set(s.goodvars),
        )
        for v in range(1, n + 1):
            flip(s, v)
            flip(s, v)
        after = (
            list(s.values), s.current_obj, list(s.hscore), list(s.softdelta),
            list(s.sat_count_hard), list(s.sat_count_soft),
            as_set(s.falsified_hard), as_set(s.falsified_soft),
            as_set(s.goodvars),
        )
        assert before == after

    def test_flip_isolated_variable(self):
        f = Formula(3, [[1, 2]], [(1, [2])])
        s = make_state(f, (1, 1, 0))
        obj_before = s.current_obj
        scores_before = [score(s, v) for v in (1, 2, 3)]
        flip(s, 3)
        assert s.values[3] == 1
        assert s.flip_stamp[3] == 1
        assert s.current_obj == obj_before
        assert [score(s, v) for v in (1, 2, 3)] == scores_before

    def test_obj_never_exceeds_total(self):
        rng = random.Random(6)
        n, hard, soft = random_parts(rng)
        f = Formula(n, hard, soft)
        s = make_state(f, [rng.randint(0, 1) for _ in range(n)])
        for _ in range(500):
            flip(s, rng.randint(1, n))
            assert s.current_obj <= f.total_soft_weight

    def test_positive_score_strictly_improves_potential(self):
        # Flipping a positive-score variable must lower the weighted total
        # of falsified hard clauses plus w(SPB) * obj by exactly that score.
        rng = random.Random(7)
        checked = 0
        while checked < 25:
            n, hard, soft = random_parts(rng)
            f = Formula(n, hard, soft)
            s = make_state(f, [rng.randint(0, 1) for _ in range(n)],
                           spb_weight=2.5)
            for _ in range(rng.randint(0, 30)):
                flip(s, rng.randint(1, n))
            cands = as_set(s.goodvars)
            if not cands:
                continue
            v = sorted(cands)[0]
            expected_drop = score(s, v)

            def potential(st):
                hard_total = sum(
                    st.hard_weight[cid] for cid in st.falsified_hard.members
                )
                return hard_total + st.spb.weight * st.current_obj

            before = potential(s)
            flip(s, v)
            after = potential(s)
            assert after < before
            assert abs((before - after) - expected_drop) < 1e-6
            checked += 1


class TestScratchOracle:
    def test_initial_state_matches_scratch(self):
        rng = random.Random(8)
        for _ in range(10):
            n, hard, soft = random_parts(rng)
            f = Formula(n, hard, soft)
            s = make_state(f, [rng.randint(0, 1) for _ in range(n)])
            assert_state_matches_scratch(s)

    def test_thousand_flips_on_thirty_vars(self):
        rng = random.Random(9)
        n, hard, soft = random_parts(rng, min_vars=30, max_vars=30,
                                     min_clauses=60, max_clauses=90)
        f = Formula(n, hard, soft)
        s = make_state(f, [rng.randint(0, 1) for _ in range(n)],
                       spb_weight=3.0, spb_bound=10)
        for i in range(1000):
            flip(s, rng.randint(1, n))
            if i % 250 == 0:
                assert_state_matches_scratch(s)
        assert_state_matches_scratch(s)

    def test_empty_formula(self):
        f = Formula(0, [], [])
        s = SearchState(f, [0])
        assert s.current_obj == 0
        assert s.hscore == [0.0]
        assert s.softdelta == [0]
        assert s.goodvars.members == []

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 10**6), max_size=60))
    def test_random_flip_sequences_match_scratch(self, seed, flip_draws):
        rng = random.Random(seed)
        n, hard, soft = random_parts(rng, min_vars=4, max_vars=12,
                                     min_clauses=4, max_clauses=25)
        f = Formula(n, hard, soft)
        s = make_state(f, [rng.randint(0, 1) for _ in range(n)])
        for draw in flip_draws:
            flip(s, 1 + draw % n)
        assert_state_matches_scratch(s)
