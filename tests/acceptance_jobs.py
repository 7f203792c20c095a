"""Worker functions for the acceptance suite's process pool.

Kept in an importable module so forked pool workers can resolve them.
Instance generation is frozen by index: instance i is always built from
Random(ACCEPT_SEED + i), weighted and unit-weight variants sharing the
same clause structure.
"""
from __future__ import annotations

import random
from typing import Dict, Tuple

from spbmaxsat.formula import Formula
from spbmaxsat.oracle import brute_force_opt
from spbmaxsat.search import SolverConfig, solve

from gen import random_parts

ACCEPT_SEED = 987_001
NUM_INSTANCES = 200
MAX_FLIPS = 100_000
SOLVE_SEED = 1


def instance_parts(idx: int):
    return random_parts(random.Random(ACCEPT_SEED + idx))


def build_formula(idx: int, unit_weights: bool) -> Formula:
    n, hard, soft = instance_parts(idx)
    if unit_weights:
        soft = [(1, lits) for _, lits in soft]
    return Formula(n, hard, soft)


VARIANTS: Dict[str, Tuple[bool, str, str]] = {
    # name -> (unit_weights, preset, mode)
    "wpms": (False, "wpms", "spb"),
    "pms": (True, "pms", "spb"),
    "constant": (False, "wpms", "constant"),
    "all_adaptive": (False, "wpms", "all_adaptive"),
}


def run_suite_job(args, seed: int = SOLVE_SEED) -> dict:
    """One suite run: instance idx of variant, solved from seed; the oracle
    cost too when with_oracle."""
    idx, variant, with_oracle = args
    unit_weights, preset, mode = VARIANTS[variant]
    f = build_formula(idx, unit_weights)
    oracle_cost = None
    if with_oracle:
        oracle_cost, _ = brute_force_opt(f)
    result = solve(f, SolverConfig(
        preset=preset, mode=mode, max_flips=MAX_FLIPS, seed=seed))
    return {
        "idx": idx,
        "variant": variant,
        "oracle": oracle_cost,
        "best": result.best_cost if result.feasible else None,
        "feasible": result.feasible,
        "flips": result.flips,
        "termination": result.termination,
    }
