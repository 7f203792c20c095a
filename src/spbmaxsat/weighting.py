"""Dynamic clause weighting: falsified-hard increments, the adaptively
weighted soft-conflict constraint, and the decay safeguard."""
from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from .state import SearchState, SpbConstraint, _add_scores, refresh_candidacy

MODE_SPB = "spb"
MODE_CONSTANT = "constant"
MODE_ALL_ADAPTIVE = "all_adaptive"
MODES = (MODE_SPB, MODE_CONSTANT, MODE_ALL_ADAPTIVE)

DECAY_FACTOR = 0.5

if TYPE_CHECKING:
    from .search import SolverConfig


def mode_deltas(cfg: SolverConfig) -> Tuple[float, float]:
    """(hard_delta, spb_delta) of a resolved config: the factors by which
    spb_weighting scales a falsified hard clause's and the soft-conflict
    constraint's bumped weights. Hard clauses are scaled by delta in
    all_adaptive mode only, the constraint by delta except in constant
    mode; 1.0 leaves a bump additive."""
    return (cfg.delta if cfg.mode == MODE_ALL_ADAPTIVE else 1.0,
            1.0 if cfg.mode == MODE_CONSTANT else cfg.delta)


def spb_is_falsified(spb: SpbConstraint, current_obj) -> bool:
    """True iff the current objective violates obj < bound.

    Always false while the bound is infinite (no feasible solution yet):
    the objective is an int, and no int is >= inf.
    """
    return current_obj >= spb.bound


def update_spb_bound(spb: SpbConstraint, new_cost) -> None:
    """Tighten the constraint after a strictly better solution was found."""
    assert new_cost < spb.bound, "bound update requires a strict improvement"
    spb.bound = new_cost


def spb_weighting(state: SearchState, cfg: SolverConfig) -> None:
    """Raise the weights of everything falsified by the current assignment.

    Each falsified hard clause's weight w becomes hard_delta * (w + h_inc);
    if the soft-conflict constraint itself is violated, its weight w becomes
    spb_delta * (w + 1), both factors from mode_deltas.
    Score caches are adjusted for exactly the variables whose score can
    change, then the decay trigger is checked. cfg is a resolved
    SolverConfig.
    """
    hs = state.hscore
    hard_vars = state.hard_vars
    hard_weight = state.hard_weight
    hard_delta, spb_delta = mode_deltas(cfg)
    h_inc = cfg.h_inc
    touched = []

    for cid in state.falsified_hard.members:
        old = hard_weight[cid]
        new = hard_delta * (old + h_inc)
        hard_weight[cid] = new
        dw = new - old
        for u in hard_vars[cid]:
            hs[u] += dw
            touched.append(u)
        if new > state.max_hard_weight:
            state.max_hard_weight = new

    if spb_is_falsified(state.spb, state.current_obj):
        state.spb.weight = spb_delta * (state.spb.weight + 1.0)
        # A variable with positive softdelta may turn positive-score. Flipping
        # it lowers obj, so it lies in a falsified soft clause: those clauses'
        # variables are enough. Members of goodvars with negative softdelta
        # may drop out (relevant when invoked outside a local optimum).
        soft_vars = state.soft_vars
        for cid in state.falsified_soft.members:
            touched.extend(soft_vars[cid])
        touched.extend(state.goodvars.members)

    refresh_candidacy(state, touched)
    decay_weights(state, cfg)


def decay_weights(state: SearchState, cfg: SolverConfig) -> bool:
    """Halve all dynamic weights (DECAY_FACTOR), clamped below at 1.

    No-op unless some weight exceeds the threshold. The constraint bound is
    a cost, not a weight, and is left untouched. The satisfied-literal
    counts do not change, so hscore is rebuilt from them and every
    variable's candidacy is re-tested.
    """
    if state.spb.weight <= cfg.decay_threshold \
            and state.max_hard_weight <= cfg.decay_threshold:
        return False
    hw = state.hard_weight
    for cid in range(len(hw)):
        w = hw[cid] * DECAY_FACTOR
        hw[cid] = w if w > 1.0 else 1.0
    w = state.spb.weight * DECAY_FACTOR
    state.spb.weight = w if w > 1.0 else 1.0
    state.max_hard_weight = max(hw, default=1.0)
    hs = [0.0] * len(state.hscore)
    _add_scores(state.sat_count_hard, state.sat_var_hard, state.hard_vars, hw, hs)
    state.hscore = hs
    refresh_candidacy(state, range(1, len(hs)))
    return True
