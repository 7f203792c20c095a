"""Incremental search state: per-flip maintenance of scores and falsified sets.

All derived quantities (satisfied-literal counts, falsified-clause sets,
objective value, per-variable score ingredients) are updated in time
proportional to the flipped variable's occurrence lists. The from-scratch
rebuild below serves as the independent correctness oracle.
"""
from __future__ import annotations

from typing import Iterable, List, Optional

from .common import EPS
from .formula import INF, Formula


class SpbConstraint:
    """Soft-conflict pseudo-Boolean constraint: obj(A) < bound, with weight.

    The bound is the cost of the best solution found so far (inf before the
    first feasible one); the weight scales the soft part of every variable
    score.
    """

    def __init__(self, weight: float = 1.0, bound: float = INF):
        self.weight = weight
        self.bound = bound


class IndexSet:
    """Set of small non-negative ints with O(1) add/discard and list access."""

    __slots__ = ("members", "pos")

    def __init__(self, capacity: int, members: Iterable[int] = ()):
        self.members: List[int] = []
        self.pos: List[int] = [-1] * capacity
        for x in members:
            self.add(x)

    def add(self, x: int) -> None:
        if self.pos[x] < 0:
            self.pos[x] = len(self.members)
            self.members.append(x)

    def discard(self, x: int) -> None:
        i = self.pos[x]
        if i >= 0:
            last = self.members[-1]
            self.members[i] = last
            self.pos[last] = i
            self.members.pop()
            self.pos[x] = -1


class SearchState:
    """Mutable solver state over one shared immutable Formula.

    values holds the 0/1 assignment (index 0 unused) and is updated in
    place by flip(); every flip stamp starts at 0 and step at 1. Per clause
    kind, sat_count_* counts each clause's true literals and sat_xor_* is
    the XOR of their variables (a clause holds each variable once), so where
    the count is 1 it is the one satisfying variable. The formula's tuple
    views, occurrence lists and soft weights are looked up once, at build,
    for the per-flip code.
    """

    __slots__ = (
        "formula",
        "hard_rows",
        "hard_vars",
        "soft_rows",
        "soft_vars",
        "soft_weight",
        "occ_hard_pos",
        "occ_hard_neg",
        "occ_soft_pos",
        "occ_soft_neg",
        "values",
        "flip_stamp",
        "step",
        "hard_weight",
        "max_hard_weight",
        "spb",
        "current_obj",
        "sat_count_hard",
        "sat_xor_hard",
        "sat_count_soft",
        "sat_xor_soft",
        "falsified_hard",
        "falsified_soft",
        "hscore",
        "softdelta",
        "goodvars",
    )

    def __init__(self, formula: Formula, values: List[int],
                 hard_weights: Optional[List[float]] = None,
                 spb: Optional[SpbConstraint] = None):
        if len(values) != formula.num_vars + 1:
            raise ValueError("assignment length does not match variable count")
        self.formula = formula
        n = formula.num_vars
        self.hard_rows, self.hard_vars = formula.hard.rows, formula.hard.vars
        self.soft_rows, self.soft_vars = formula.soft.rows, formula.soft.vars
        self.soft_weight = formula.soft_weights.tolist()
        self.occ_hard_pos, self.occ_hard_neg = formula.hard.occurrences(n)
        self.occ_soft_pos, self.occ_soft_neg = formula.soft.occurrences(n)
        self.values = values
        self.flip_stamp = [0] * len(values)
        self.step = 1
        self.hard_weight = list(hard_weights) if hard_weights is not None else [1.0] * len(formula.hard)
        self.max_hard_weight = max(self.hard_weight, default=1.0)
        self.spb = spb if spb is not None else SpbConstraint()
        self._build()

    def _build(self) -> None:
        f = self.formula
        n = f.num_vars
        values = self.values
        self.hscore = [0.0] * (n + 1)
        self.softdelta = [0] * (n + 1)
        self.sat_count_hard, self.sat_xor_hard, self.falsified_hard, _ = _build_kind(
            values, self.hard_rows, self.hard_vars, self.hard_weight, self.hscore)
        self.sat_count_soft, self.sat_xor_soft, self.falsified_soft, soft_falsified = _build_kind(
            values, self.soft_rows, self.soft_vars, self.soft_weight, self.softdelta)
        self.current_obj = f.soft_base + soft_falsified
        self.goodvars = IndexSet(n + 1)
        refresh_candidacy(self, range(1, n + 1))


def _build_kind(values, clauses, clause_vars, weights, scores):
    """Satisfied-literal bookkeeping of one clause kind (hard or soft).

    Adds each clause's make/break weight into scores and returns its
    satisfied-literal counts, the XOR of each clause's satisfying variables
    (where the count is 1, the sole one), falsified set and falsified
    weight total.
    """
    count = [0] * len(clauses)
    sat_xor = [0] * len(clauses)
    falsified = IndexSet(len(clauses))
    falsified_weight = 0
    for cid, lits in enumerate(clauses):
        cnt = x = 0
        for lit in lits:
            if values[lit] if lit > 0 else not values[-lit]:
                cnt += 1
                x ^= abs(lit)
        count[cid] = cnt
        sat_xor[cid] = x
        if cnt == 0:
            falsified.add(cid)
            falsified_weight += weights[cid]
    _add_scores(count, sat_xor, clause_vars, weights, scores)
    return count, sat_xor, falsified, falsified_weight


def _add_scores(count, sat_xor, clause_vars, weights, scores):
    """Add each clause's make/break weight into scores.

    Flipping any variable of a falsified clause makes it; flipping the sole
    satisfying variable of a clause with one true literal breaks it.
    """
    for cid, cnt in enumerate(count):
        if cnt == 0:
            w = weights[cid]
            for v in clause_vars[cid]:
                scores[v] += w
        elif cnt == 1:
            scores[sat_xor[cid]] -= weights[cid]


def refresh_candidacy(state: SearchState, variables: Iterable[int]) -> None:
    """Re-test goodvars membership for the given variables.

    The IndexSet add/discard is inlined on its lists for speed; repeated
    variables are idempotent.
    """
    hs = state.hscore
    sds = state.softdelta
    w_spb = state.spb.weight
    gv_pos = state.goodvars.pos
    gv_members = state.goodvars.members
    for u in variables:
        if hs[u] + w_spb * sds[u] > EPS:
            if gv_pos[u] < 0:
                gv_pos[u] = len(gv_members)
                gv_members.append(u)
        else:
            i = gv_pos[u]
            if i >= 0:
                last = gv_members[-1]
                gv_members[i] = last
                gv_pos[last] = i
                gv_members.pop()
                gv_pos[u] = -1


def flip(state: SearchState, v: int) -> None:
    """Flip one variable and update every derived field incrementally."""
    values = state.values
    old = values[v]
    values[v] = 1 - old
    state.flip_stamp[v] = state.step
    state.step += 1
    # softdelta[v] is exactly the objective drop of flipping v.
    state.current_obj -= state.softdelta[v]
    if old:
        made_h, broken_h = state.occ_hard_neg[v], state.occ_hard_pos[v]
        made_s, broken_s = state.occ_soft_neg[v], state.occ_soft_pos[v]
    else:
        made_h, broken_h = state.occ_hard_pos[v], state.occ_hard_neg[v]
        made_s, broken_s = state.occ_soft_pos[v], state.occ_soft_neg[v]
    touched = []
    _flip_kind(v, made_h, broken_h, state.hard_vars, state.hard_weight, state.hscore,
               state.sat_count_hard, state.sat_xor_hard, state.falsified_hard, touched)
    _flip_kind(v, made_s, broken_s, state.soft_vars, state.soft_weight, state.softdelta,
               state.sat_count_soft, state.sat_xor_soft, state.falsified_soft, touched)
    refresh_candidacy(state, touched)


def _flip_kind(v, made, broken, clause_vars, weights, scores, count, sat_xor,
               falsified, touched) -> None:
    """One clause kind's part of flip, after values[v] changed.

    made holds the clauses of the kind where v's literal turned true, broken
    those where it turned false. v is XORed into each one's sat_xor, so
    where one true literal is left, sat_xor is its variable: no clause is
    scanned. Appends every variable whose score changed to touched.
    """
    for cid in made:
        n = count[cid]
        x = sat_xor[cid]
        sat_xor[cid] = x ^ v
        count[cid] = n + 1
        if n == 0:
            w = weights[cid]
            falsified.discard(cid)
            for u in clause_vars[cid]:
                scores[u] -= w
                touched.append(u)
            scores[v] -= w
        elif n == 1:
            scores[x] += weights[cid]
            touched.append(x)

    for cid in broken:
        n = count[cid]
        x = sat_xor[cid] ^ v
        sat_xor[cid] = x
        count[cid] = n - 1
        if n == 1:
            w = weights[cid]
            falsified.add(cid)
            scores[v] += w
            for u in clause_vars[cid]:
                scores[u] += w
                touched.append(u)
        elif n == 2:
            scores[x] -= weights[cid]
            touched.append(x)


def recompute_from_scratch(formula: Formula, values: List[int],
                           hard_weights: Optional[List[float]] = None,
                           spb: Optional[SpbConstraint] = None) -> SearchState:
    """Build a SearchState directly from definitions, then overwrite the score
    arrays by literal flip simulation.

    Serves as the test oracle for the incremental updates: hscore[v] and
    softdelta[v] are obtained by actually flipping v and re-evaluating the
    falsified hard weight total and obj from scratch.
    """
    spb = spb if spb is not None else SpbConstraint()
    state = SearchState(formula, list(values), hard_weights=hard_weights, spb=spb)
    values = list(values)
    n = formula.num_vars

    def falsified_hard_weight(vals) -> float:
        total = 0.0
        for cid, lits in enumerate(formula.hard):
            if not formula.clause_satisfied(lits, vals):
                total += state.hard_weight[cid]
        return total

    base_hw = falsified_hard_weight(values)
    base_obj = formula.obj(values)
    hs = [0.0] * (n + 1)
    sd = [0] * (n + 1)
    for v in range(1, n + 1):
        values[v] = 1 - values[v]
        hs[v] = base_hw - falsified_hard_weight(values)
        sd[v] = base_obj - formula.obj(values)
        values[v] = 1 - values[v]
    state.hscore = hs
    state.softdelta = sd
    state.current_obj = base_obj
    state.goodvars = IndexSet(
        n + 1, (v for v in range(1, n + 1) if hs[v] + spb.weight * sd[v] > EPS)
    )
    return state
