"""Shared helpers for tests: random instance generation, WCNF rendering,
and consistency checks between incremental and from-scratch states."""
from __future__ import annotations

import random
from typing import List, Tuple

from spbmaxsat.common import EPS
from spbmaxsat.formula import INF, Formula
from spbmaxsat.search import SolverConfig
from spbmaxsat.state import IndexSet, SearchState, recompute_from_scratch
from spbmaxsat.weighting import spb_weighting


def random_parts(
    rng: random.Random,
    min_vars: int = 8,
    max_vars: int = 18,
    min_clauses: int = 10,
    max_clauses: int = 60,
    max_weight: int = 10,
    unit_weights: bool = False,
    max_len: int = 4,
) -> Tuple[int, List[List[int]], List[Tuple[int, List[int]]]]:
    """Random instance with a hard part satisfiable by construction.

    A hidden assignment is drawn first; every hard clause is patched to
    contain at least one literal the hidden assignment satisfies. Each
    clause has 1 to max_len distinct variables (at most n).
    """
    n = rng.randint(min_vars, max_vars)
    m = rng.randint(min_clauses, max_clauses)
    hard_frac = rng.uniform(0.3, 0.7)
    hidden = [rng.randint(0, 1) for _ in range(n + 1)]
    hard: List[List[int]] = []
    soft: List[Tuple[int, List[int]]] = []
    for _ in range(m):
        size = rng.randint(1, min(max_len, n))
        vs = rng.sample(range(1, n + 1), size)
        lits = [v if rng.random() < 0.5 else -v for v in vs]
        if rng.random() < hard_frac:
            if not any((lit > 0) == bool(hidden[abs(lit)]) for lit in lits):
                i = rng.randrange(len(lits))
                v = abs(lits[i])
                lits[i] = v if hidden[v] else -v
            hard.append(lits)
        else:
            w = 1 if unit_weights else rng.randint(1, max_weight)
            soft.append((w, lits))
    if not soft:
        w = 1 if unit_weights else rng.randint(1, max_weight)
        soft.append((w, [rng.randint(1, n)]))
    return n, hard, soft


def render_old(n: int, hard, soft) -> str:
    top = sum(w for w, _ in soft) + 1
    lines = [f"p wcnf {n} {len(hard) + len(soft)} {top}"]
    for lits in hard:
        lines.append(f"{top} " + " ".join(map(str, lits)) + " 0")
    for w, lits in soft:
        lines.append(f"{w} " + " ".join(map(str, lits)) + " 0")
    return "\n".join(lines) + "\n"


def render_new(n: int, hard, soft) -> str:
    lines = []
    for lits in hard:
        lines.append("h " + " ".join(map(str, lits)) + " 0")
    for w, lits in soft:
        lines.append(f"{w} " + " ".join(map(str, lits)) + " 0")
    return "\n".join(lines) + "\n"


def score(state: SearchState, v: int) -> float:
    """The variable's score: hscore + w_spb * softdelta."""
    return state.hscore[v] + state.spb.weight * state.softdelta[v]


def as_set(s: IndexSet) -> set:
    return set(s.members)


def enumerate_opt(f: Formula):
    """Definitional optimum: direct evaluation of every assignment.

    Independent of both the solver and the bitset oracle; only usable for
    small variable counts. Keeps the first strict minimum, so the witness
    is the minimizer with the smallest assignment index.
    """
    assert f.num_vars <= 16
    best = None
    best_values = None
    for bits in range(1 << f.num_vars):
        values = [0] * (f.num_vars + 1)
        for v in range(1, f.num_vars + 1):
            values[v] = (bits >> (v - 1)) & 1
        c = f.cost(values)
        if c != float("inf") and (best is None or c < best):
            best = c
            best_values = values
    return (best, best_values) if best is not None else (float("inf"), None)


def assert_state_matches_scratch(state: SearchState, tol: float = 1e-6) -> None:
    """Field-for-field comparison against the from-scratch rebuild."""
    scratch = recompute_from_scratch(
        state.formula,
        state.values,
        hard_weights=list(state.hard_weight),
        spb=type(state.spb)(state.spb.weight, state.spb.bound),
    )
    f = state.formula
    assert state.current_obj == scratch.current_obj
    assert state.sat_count_hard == scratch.sat_count_hard
    assert state.sat_count_soft == scratch.sat_count_soft
    assert as_set(state.falsified_hard) == as_set(scratch.falsified_hard)
    assert as_set(state.falsified_soft) == as_set(scratch.falsified_soft)
    assert state.sat_xor_hard == scratch.sat_xor_hard
    assert state.sat_xor_soft == scratch.sat_xor_soft
    assert state.softdelta == scratch.softdelta
    for v in range(1, f.num_vars + 1):
        assert abs(state.hscore[v] - scratch.hscore[v]) <= tol, (
            v, state.hscore[v], scratch.hscore[v])
    expected_good = {
        v for v in range(1, f.num_vars + 1) if score(scratch, v) > EPS
    }
    assert as_set(state.goodvars) == expected_good


def same_run(a, b) -> bool:
    """True when two solve results (of the two backends, say) agree: the
    same improvements at the same steps, model, flips and termination."""
    def run(r):
        return ([(step, cost) for step, _, cost in r.trace], r.best_assignment, r.best_cost,
                r.flips, r.termination)
    return run(a) == run(b)


def weight_growth(mode: str, delta: float, events: int):
    """Growth of the solver's own weights under repeated spb_weighting calls.

    One falsified hard clause and one falsified soft clause, with the SPB
    bound held at the objective, so every event bumps the hard weight and
    raises w_spb; h_inc is 1 and decay never fires. Returns four lists with
    one entry per event: w_spb after it, R_inc = (w' - w)/w, I_inc =
    (w' - w)/(w + w_hard) (both over the weights before it), and the hard
    weight after it.
    """
    state = SearchState(Formula(1, [[1]], [(1, [1])]), [0, 0])
    state.spb.bound = state.current_obj
    cfg = SolverConfig(h_inc=1, delta=delta, mode=mode, decay_threshold=INF)
    w_spb, r_inc, i_inc, hard = [], [], [], []
    for _ in range(events):
        w, wh = state.spb.weight, state.hard_weight[0]
        spb_weighting(state, cfg)
        new = state.spb.weight
        w_spb.append(new)
        r_inc.append((new - w) / w)
        i_inc.append((new - w) / (w + wh))
        hard.append(state.hard_weight[0])
    return w_spb, r_inc, i_inc, hard
