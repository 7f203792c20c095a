"""Exhaustive-enumeration oracle tests, cross-checked against direct
per-assignment evaluation."""
from __future__ import annotations

import random

import pytest

from spbmaxsat.formula import INF, MAX_TOTAL_SOFT_WEIGHT, Formula, parse_wcnf
from spbmaxsat.oracle import MAX_ORACLE_VARS, TooManyVariables, brute_force_opt

from gen import enumerate_opt, random_parts

F1 = parse_wcnf("p wcnf 2 3 10\n10 1 2 0\n2 -1 0\n5 -2 0\n")


def test_f1_optimum():
    cost, witness = brute_force_opt(F1)
    assert cost == 2
    assert F1.cost(witness) == 2


def test_unsatisfiable_hard():
    f = Formula(1, [[1], [-1]], [(1, [1])])
    assert brute_force_opt(f) == (INF, None)


def test_no_soft_clauses():
    f = Formula(2, [[1, 2]], [])
    cost, witness = brute_force_opt(f)
    assert cost == 0
    assert f.cost(witness) == 0


def test_empty_hard_clause_is_infeasible():
    f = parse_wcnf("h 0\n1 1 0\n")
    assert brute_force_opt(f) == (INF, None)


def test_variable_cap():
    f = Formula(MAX_ORACLE_VARS + 1, [], [(1, [1])])
    with pytest.raises(TooManyVariables):
        brute_force_opt(f)


def test_matches_direct_enumeration():
    """Same cost and witness as the definitional optimum, whose witness is
    the lowest-index minimizer. Half the instances get soft weights near
    the 63-bit total cap, so the adder's carries run through many planes."""
    rng = random.Random(41)
    for i in range(50):
        n, hard, soft = random_parts(rng, min_vars=4, max_vars=10,
                                     min_clauses=5, max_clauses=30)
        if i % 2:
            cap = MAX_TOTAL_SOFT_WEIGHT // len(soft)
            soft = [(rng.randint(cap // 2, cap), lits) for _, lits in soft]
        f = Formula(n, hard, soft)
        expected = enumerate_opt(f)
        cost, witness = brute_force_opt(f)
        assert (cost, witness) == expected
        if witness is not None:
            assert f.cost(witness) == cost


def test_lower_bounds_every_feasible_assignment():
    rng = random.Random(42)
    n, hard, soft = random_parts(rng, min_vars=6, max_vars=10)
    f = Formula(n, hard, soft)
    opt, _ = brute_force_opt(f)
    for bits in range(1 << n):
        values = [0] + [(bits >> (v - 1)) & 1 for v in range(1, n + 1)]
        c = f.cost(values)
        if c != INF:
            assert opt <= c

