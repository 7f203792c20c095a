"""solve's search in Python: the reference that kernel.c ports flip for
flip (tests/test_kernel.py compares the two), and the fallback that solve
runs when kernel.start returns None. solve imports this module only then,
and the tests import it directly: a run in the kernel loads none of it,
nor the state, initialization and weighting modules that it uses."""
from __future__ import annotations

import random
from typing import TYPE_CHECKING, List, Optional, Tuple

from .formula import INF, Formula
from .initialization import decimation_init, random_init
from .state import SearchState, flip
from .weighting import spb_weighting, update_spb_bound

if TYPE_CHECKING:
    from .search import SolverConfig


def start(formula: Formula, cfg: SolverConfig) -> _PythonWalk:
    """A walk from solve's start state, as kernel.start builds it: the
    initial assignment drawn as cfg.init says from random.Random(cfg.seed),
    which the search then goes on drawing from."""
    rng = random.Random(cfg.seed)
    values = decimation_init(formula, rng) if cfg.init == "decimation" \
        else random_init(formula, rng)
    return _PythonWalk(SearchState(formula, values), cfg, rng)


def _best(state: SearchState, candidates) -> int:
    """The candidate with the highest score hscore + w_spb * softdelta; ties
    go to the older flip stamp, then the lower id. Repeats of the best (BMS
    samples repeat) are skipped."""
    hs = state.hscore
    sd = state.softdelta
    w = state.spb.weight
    stamp = state.flip_stamp
    best_v = candidates[0]
    best_s = hs[best_v] + w * sd[best_v]
    for u in candidates:
        if u == best_v:
            continue
        s = hs[u] + w * sd[u]
        if s > best_s or (s == best_s and (stamp[u], u) < (stamp[best_v], best_v)):
            best_v = u
            best_s = s
    return best_v


def bms_pick(state: SearchState, k: int, rng: random.Random) -> int:
    """Best (see _best) of k positive-score candidates sampled with replacement."""
    members = state.goodvars.members
    assert members, "bms_pick requires a non-empty positive-score set"
    if len(members) == 1:
        return members[0]
    # choices() takes each sample as members[floor(random() * len)]: one
    # random() call per sample, which the goldens pin.
    return _best(state, rng.choices(members, k=k))


def pick_from_falsified(state: SearchState, rng: random.Random) -> Optional[int]:
    """Best variable (see _best) of a random falsified clause, hard first.

    Returns None when nothing is falsified, i.e. the current assignment
    satisfies every clause and is therefore optimal.
    """
    members, clause_vars = state.falsified_hard.members, state.hard_vars
    if not members:
        members, clause_vars = state.falsified_soft.members, state.soft_vars
        if not members:
            return None
    return _best(state, clause_vars[members[int(rng.random() * len(members))]])


class _PythonWalk:
    """solve's search body in Python: the fallback when the C kernel (see
    kernel.py) does not load, and the reference it is tested against."""

    def __init__(self, state: SearchState, cfg: SolverConfig, rng: random.Random):
        self.state, self.cfg, self.rng = state, cfg, rng

    def cost(self) -> float:
        """The objective if no hard clause is falsified, inf otherwise."""
        return INF if self.state.falsified_hard.members else self.state.current_obj

    def snapshot(self) -> List[int]:
        """A copy of the current assignment."""
        return list(self.state.values)

    @staticmethod
    def assignment(snapshot: List[int]) -> List[int]:
        return snapshot

    def set_bound(self, cost) -> None:
        update_spb_bound(self.state.spb, cost)

    def advance(self, n: int) -> Tuple[int, bool]:
        """Run up to n flips: a BMS pick, or weighting and a falsified-clause
        pick at a local optimum, then the flip. Stop right after a flip that
        beats the bound with no hard clause falsified. Returns the flips made
        and whether the search stopped because nothing is falsified.
        """
        state, cfg, rng = self.state, self.cfg, self.rng
        goodvars = state.goodvars.members
        falsified_hard = state.falsified_hard.members
        spb = state.spb
        for i in range(n):
            if goodvars:
                v = bms_pick(state, cfg.k, rng)
            else:
                spb_weighting(state, cfg)
                v = pick_from_falsified(state, rng)
                if v is None:
                    return i, True
            flip(state, v)
            if not falsified_hard and state.current_obj < spb.bound:
                return i + 1, False
        return n, False
