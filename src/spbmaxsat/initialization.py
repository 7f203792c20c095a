"""Initial assignment construction: unit-propagation decimation and the
uniform-random fallback."""
from __future__ import annotations

import random
from collections import deque
from typing import List

from .formula import Formula


def random_init(f: Formula, rng: random.Random) -> List[int]:
    """0/1 values (index 0 unused), each variable independently uniform-random."""
    values = [0] * (f.num_vars + 1)
    for v in range(1, f.num_vars + 1):
        values[v] = 1 if rng.random() < 0.5 else 0
    return values


def decimation_init(f: Formula, rng: random.Random) -> List[int]:
    """0/1 values (index 0 unused), assigned one variable at a time with
    unit-clause priority.

    Hard unit clauses are served first (in discovery order, so conflicting
    hard units resolve first-come), then a uniformly random soft unit, then
    a uniformly random unassigned variable with a random value. Clauses
    already satisfied drop out of consideration; falsified literals shrink
    the per-clause unassigned counters that detect new units.
    """
    n = f.num_vars
    values = [-1] * (n + 1)

    hard_unassigned = [len(lits) for lits in f.hard]
    soft_unassigned = [len(lits) for lits in f.soft]
    hard_sat = [False] * len(f.hard)
    soft_sat = [False] * len(f.soft)

    hard_units = deque(cid for cid, c in enumerate(f.hard) if len(c) == 1)
    soft_units = [cid for cid, c in enumerate(f.soft) if len(c) == 1]
    unassigned_pool = list(range(1, n + 1))
    remaining = n

    kinds = (
        (f.occ_hard_pos, f.occ_hard_neg, hard_sat, hard_unassigned, hard_units),
        (f.occ_soft_pos, f.occ_soft_neg, soft_sat, soft_unassigned, soft_units),
    )

    def assign(v: int, value: int) -> None:
        nonlocal remaining
        values[v] = value
        remaining -= 1
        for occ_pos, occ_neg, sat, unassigned, units in kinds:
            sat_cids, fal_cids = (occ_pos[v], occ_neg[v]) if value else (occ_neg[v], occ_pos[v])
            for cid in sat_cids:
                sat[cid] = True
            for cid in fal_cids:
                unassigned[cid] -= 1
                if unassigned[cid] == 1 and not sat[cid]:
                    units.append(cid)

    def unit_literal(lits) -> int:
        for lit in lits:
            if values[abs(lit)] < 0:
                return lit
        return 0

    while remaining:
        if hard_units:
            cid = hard_units.popleft()
            if hard_sat[cid] or hard_unassigned[cid] != 1:
                continue
            lit = unit_literal(f.hard.rows[cid])
            assign(abs(lit), 1 if lit > 0 else 0)
            continue

        picked = 0
        while soft_units:
            i = rng.randrange(len(soft_units))
            cid = soft_units[i]
            if soft_sat[cid] or soft_unassigned[cid] != 1:
                soft_units[i] = soft_units[-1]
                soft_units.pop()
                continue
            lit = unit_literal(f.soft.rows[cid])
            assign(abs(lit), 1 if lit > 0 else 0)
            picked = 1
            break
        if picked:
            continue

        while True:
            i = rng.randrange(len(unassigned_pool))
            v = unassigned_pool[i]
            unassigned_pool[i] = unassigned_pool[-1]
            unassigned_pool.pop()
            if values[v] < 0:
                assign(v, 1 if rng.random() < 0.5 else 0)
                break

    values[0] = 0
    return values
