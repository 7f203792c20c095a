"""Initial assignment construction tests."""
from __future__ import annotations

import random

from spbmaxsat.formula import Formula
from spbmaxsat.initialization import decimation_init, random_init

from gen import random_parts


class TestRandomInit:
    def test_reproducible(self):
        f = Formula(10, [], [(1, [1])])
        a1 = random_init(f, random.Random(3))
        a2 = random_init(f, random.Random(3))
        assert a1 == a2

    def test_empty_formula(self):
        f = Formula(0, [], [])
        assert random_init(f, random.Random(1)) == [0]

    def test_single_variable_roughly_balanced(self):
        f = Formula(1, [], [(1, [1])])
        rng = random.Random(4)
        trues = sum(random_init(f, rng)[1] for _ in range(10_000))
        assert 4500 <= trues <= 5500


class TestDecimation:
    def test_hard_unit_assigned_first(self):
        f = Formula(3, [[3], [1, 2]], [(1, [-3])])
        for seed in range(20):
            a = decimation_init(f, random.Random(seed))
            assert a[3] == 1

    def test_negative_hard_unit(self):
        f = Formula(2, [[-2]], [(1, [2])])
        for seed in range(10):
            assert decimation_init(f, random.Random(seed))[2] == 0

    def test_conflicting_hard_units_first_come(self):
        f = Formula(1, [[1], [-1]], [(1, [1])])
        for seed in range(10):
            # Clause order fixes discovery order: (x1) is served first.
            assert decimation_init(f, random.Random(seed))[1] == 1

    def test_unit_chain_satisfies_hard(self):
        f = Formula(3, [[1], [-1, 2], [-2, 3]], [(1, [-3])])
        for seed in range(10):
            a = decimation_init(f, random.Random(seed))
            assert a[1] == a[2] == a[3] == 1
            assert f.hard_satisfied(a)

    def test_soft_unit_respected_when_no_hard_unit(self):
        f = Formula(2, [[1, 2]], [(4, [-2])])
        for seed in range(20):
            a = decimation_init(f, random.Random(seed))
            assert a[2] == 0

    def test_complete_assignment(self):
        rng = random.Random(31)
        for _ in range(20):
            n, hard, soft = random_parts(rng)
            f = Formula(n, hard, soft)
            a = decimation_init(f, rng)
            assert len(a) == n + 1
            assert all(v in (0, 1) for v in a[1:])

    def test_deterministic_for_seed(self):
        rng = random.Random(32)
        n, hard, soft = random_parts(rng)
        f = Formula(n, hard, soft)
        a1 = decimation_init(f, random.Random(7))
        a2 = decimation_init(f, random.Random(7))
        assert a1 == a2

    def test_unconstrained_variables_are_uniform(self):
        # Variables 1 and 2 occur in no clause, so only the random rule
        # ever touches them; every combination must show up.
        f = Formula(3, [], [(1, [3])])
        seen = set()
        for seed in range(60):
            a = decimation_init(f, random.Random(seed))
            assert a[3] == 1
            seen.add((a[1], a[2]))
        assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}
