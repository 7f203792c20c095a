"""Dynamic clause weighting: falsified-hard increments, the adaptively
weighted soft-conflict constraint, and the decay safeguard."""
from __future__ import annotations

from typing import TYPE_CHECKING

from .formula import INF
from .state import SearchState, SpbConstraint, _build_kind, refresh_candidacy

MODE_SPB = "spb"
MODE_CONSTANT = "constant"
MODE_ALL_ADAPTIVE = "all_adaptive"
MODES = (MODE_SPB, MODE_CONSTANT, MODE_ALL_ADAPTIVE)

if TYPE_CHECKING:
    from .search import SolverConfig


def spb_is_falsified(spb: SpbConstraint, current_obj) -> bool:
    """True iff the current objective violates obj < bound.

    Always false while the bound is infinite (no feasible solution yet).
    """
    return spb.bound != INF and current_obj >= spb.bound


def update_spb_bound(spb: SpbConstraint, new_cost) -> None:
    """Tighten the constraint after a strictly better solution was found."""
    assert new_cost < spb.bound, "bound update requires a strict improvement"
    spb.bound = new_cost


def spb_weighting(state: SearchState, cfg: SolverConfig) -> None:
    """Raise the weights of everything falsified by the current assignment.

    Falsified hard clauses gain h_inc (or delta*(w + h_inc) in all_adaptive
    mode); if the soft-conflict constraint itself is violated, its weight is
    updated multiplicatively. Score caches are adjusted for exactly the
    variables whose score can change, then the decay trigger is checked.
    cfg is a resolved SolverConfig.
    """
    f = state.formula
    hs = state.hscore
    hard_vars = f.hard_vars
    hard_weight = state.hard_weight
    touched = []

    if cfg.mode == MODE_ALL_ADAPTIVE:
        delta = cfg.delta
        h_inc = cfg.h_inc
        for cid in state.falsified_hard.members:
            old = hard_weight[cid]
            new = delta * (old + h_inc)
            hard_weight[cid] = new
            dw = new - old
            for u in hard_vars[cid]:
                hs[u] += dw
                touched.append(u)
            if new > state.max_hard_weight:
                state.max_hard_weight = new
    else:
        h_inc = cfg.h_inc
        for cid in state.falsified_hard.members:
            new = hard_weight[cid] + h_inc
            hard_weight[cid] = new
            for u in hard_vars[cid]:
                hs[u] += h_inc
                touched.append(u)
            if new > state.max_hard_weight:
                state.max_hard_weight = new

    if spb_is_falsified(state.spb, state.current_obj):
        delta = 1.0 if cfg.mode == MODE_CONSTANT else cfg.delta
        state.spb.weight = delta * (state.spb.weight + 1.0)
        # A variable with positive softdelta may turn positive-score. Flipping
        # it lowers obj, so it lies in a falsified soft clause: those clauses'
        # variables are enough. Members of goodvars with negative softdelta
        # may drop out (relevant when invoked outside a local optimum).
        soft_vars = f.soft_vars
        for cid in state.falsified_soft.members:
            touched.extend(soft_vars[cid])
        touched.extend(state.goodvars.members)

    refresh_candidacy(state, touched)
    decay_weights(state, cfg)


def decay_weights(state: SearchState, cfg: SolverConfig, force: bool = False) -> bool:
    """Multiply all dynamic weights by the decay factor, clamped below at 1.

    No-op unless some weight exceeds the threshold (or force is set). The
    constraint bound is a cost, not a weight, and is left untouched.
    """
    if not force and state.spb.weight <= cfg.decay_threshold \
            and state.max_hard_weight <= cfg.decay_threshold:
        return False
    rho = cfg.decay_factor
    hw = state.hard_weight
    for cid in range(len(hw)):
        w = hw[cid] * rho
        hw[cid] = w if w > 1.0 else 1.0
    w = state.spb.weight * rho
    state.spb.weight = w if w > 1.0 else 1.0
    state.max_hard_weight = max(hw, default=1.0)
    _rebuild_hard_scores(state)
    return True


def _rebuild_hard_scores(state: SearchState) -> None:
    """Full hscore and candidate-bucket rebuild after a global weight change."""
    f = state.formula
    n = f.num_vars
    hs = [0.0] * (n + 1)
    _build_kind(state.values, f.hard, f.hard_vars, state.hard_weight, hs)
    state.hscore = hs
    refresh_candidacy(state, range(1, n + 1))
