"""What the C kernel and the Python reference search share: the weighting
modes, the weight rules' constants, and the factors that a mode gives.

kernel.py passes EPS and DECAY_FACTOR to cc as -D options; the Python
reference (state, weighting) reads them from here.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

# Positive-score threshold; absorbs float noise introduced by weight decay.
EPS = 1e-9

# The factor by which a decay scales every dynamic weight.
DECAY_FACTOR = 0.5

MODE_SPB = "spb"
MODE_CONSTANT = "constant"
MODE_ALL_ADAPTIVE = "all_adaptive"
MODES = (MODE_SPB, MODE_CONSTANT, MODE_ALL_ADAPTIVE)

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
