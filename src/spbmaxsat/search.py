"""Main local search loop: greedy BMS flips, weighting at local optima,
best-solution tracking, and soft-conflict bound updates."""
from __future__ import annotations

import random
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Callable, List, Optional, Tuple

from . import kernel
from .formula import INF, Formula
from .initialization import decimation_init, random_init
from .state import SearchState, flip
from .weighting import MODE_SPB, MODES, spb_weighting, update_spb_bound

# Tuned presets: (k, h_inc, delta). "pms" applies when every soft weight is 1.
PRESETS = {
    "pms": (53, 1.0, 1.00072),
    "wpms": (97, 28.0, 1.001),
}
INITS = ("decimation", "random")

TERM_TIME = "time"
TERM_FLIPS = "flips"
TERM_OPTIMUM = "optimum"
TERM_INFEASIBLE = "infeasible"


class ConfigError(ValueError):
    pass


@dataclass
class SolverConfig:
    """Solver parameters; None fields are filled in from the preset.

    Values are checked when the config is built, the presence of a budget
    by resolve(): the CLI and bench fill in a default time limit later.

    preset "auto" resolves to "pms" when every soft weight equals 1 and to
    "wpms" otherwise. h_inc is the additive bump for falsified hard clauses,
    delta the multiplicative proportion for the soft-conflict weight. Mode
    "constant" forces delta to 1 for that update; "all_adaptive" applies
    the multiplicative rule to hard clauses as well. resolve() raises
    decay_threshold to at least twice the largest soft weight (the decay
    floor): below it, the hard weights left after a decay cannot outweigh a
    soft gain, and the search stops improving.
    """

    k: Optional[int] = None
    h_inc: Optional[float] = None
    delta: Optional[float] = None
    mode: str = MODE_SPB
    decay_threshold: float = 1e7
    cutoff_seconds: Optional[float] = None
    max_flips: Optional[int] = None
    seed: int = 1
    init: str = "decimation"
    preset: str = "auto"

    def __post_init__(self) -> None:
        if self.preset != "auto" and self.preset not in PRESETS:
            raise ConfigError(f"unknown preset {self.preset!r}")
        if self.mode not in MODES:
            raise ConfigError(f"unknown weighting mode {self.mode!r}")
        if self.init not in INITS:
            raise ConfigError(f"unknown init mode {self.init!r}")
        # The kernel seeds from the int's words; random.Random would also
        # take a str or a float, and seed them another way.
        if not isinstance(self.seed, int):
            raise ConfigError(f"seed must be an int, not {type(self.seed).__name__}")
        if self.k is not None and self.k < 1:
            raise ConfigError("k must be >= 1")
        # Negated comparisons, so that NaN fails too.
        if self.h_inc is not None and not self.h_inc > 0:
            raise ConfigError("h_inc must be positive")
        if self.delta is not None and not self.delta >= 1.0:
            raise ConfigError("delta must be >= 1")
        if not self.decay_threshold > 1.0:
            raise ConfigError("decay_threshold must exceed 1")
        if self.cutoff_seconds is not None and not self.cutoff_seconds >= 0:
            raise ConfigError("cutoff_seconds must be >= 0")
        if self.max_flips is not None and not self.max_flips >= 0:
            raise ConfigError("max_flips must be >= 0")

    def resolve(self, formula: Formula) -> "SolverConfig":
        """A copy with the budget checked, the preset's values filled in and
        the decay floor applied."""
        if self.cutoff_seconds is None and self.max_flips is None:
            raise ConfigError("set at least one of cutoff_seconds / max_flips")
        preset = self.preset
        if preset == "auto":
            preset = "pms" if formula.is_pms else "wpms"
        pk, ph, pd = PRESETS[preset]
        return replace(
            self,
            k=self.k if self.k is not None else pk,
            h_inc=self.h_inc if self.h_inc is not None else ph,
            delta=self.delta if self.delta is not None else pd,
            preset=preset,
            decay_threshold=max(self.decay_threshold, 2.0 * max(formula.soft_weights, default=0)),
        )


@dataclass
class SolveResult:
    """Outcome of one solver run.

    trace holds one (flip step, wall seconds, cost) row per strict
    improvement; best_cost is inf and best_assignment None when no feasible
    solution was found. backend is "c" when the C kernel built the start
    state and ran the search (a run of no flips included), "python" when
    both ran in Python.
    """

    best_assignment: Optional[List[int]]
    best_cost: float
    trace: List[Tuple[int, float, int]]
    flips: int
    termination: str
    config: SolverConfig
    backend: str = "python"

    @property
    def feasible(self) -> bool:
        return self.best_assignment is not None

    def bitstring(self) -> str:
        assert self.best_assignment is not None
        return "".join(str(b) for b in self.best_assignment[1:])


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

    def assignment(self) -> List[int]:
        return list(self.state.values)

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


def solve(
    formula: Formula,
    config: Optional[SolverConfig] = None,
    on_improvement: Optional[Callable[[int], None]] = None,
) -> SolveResult:
    """Run the local search until the flip or time budget is exhausted.

    Every strict improvement triggers on_improvement(cost) immediately.
    The start state and the flips come from the C kernel when it loads
    (the first call builds it, before the clock starts), else from Python;
    both make the same flips.
    """
    cfg = (config or SolverConfig()).resolve(formula)
    kernel.load()
    t0 = perf_counter()

    if formula.has_empty_hard:
        return SolveResult(None, INF, [], 0, TERM_INFEASIBLE, cfg)

    walk = kernel.start(formula, cfg)  # seeds its own Mersenne Twister
    if walk is None:
        rng = random.Random(cfg.seed)
        values = decimation_init(formula, rng) if cfg.init == "decimation" \
            else random_init(formula, rng)
        walk = _PythonWalk(SearchState(formula, values), cfg, rng)

    best_cost = INF
    best_values: Optional[List[int]] = None
    trace: List[Tuple[int, float, int]] = []
    max_flips = cfg.max_flips
    cutoff = cfg.cutoff_seconds
    flips = 0
    termination = TERM_FLIPS

    while True:
        # The one improvement check: the start assignment, then each advance.
        cost = walk.cost()
        if cost < best_cost:
            best_cost = cost
            best_values = walk.assignment()
            trace.append((flips, perf_counter() - t0, best_cost))
            walk.set_bound(best_cost)
            if on_improvement is not None:
                on_improvement(best_cost)
            if best_cost == 0:
                termination = TERM_OPTIMUM
                break
        if max_flips is not None and flips >= max_flips:
            break
        if cutoff is not None and (flips & 1023) == 0 \
                and perf_counter() - t0 >= cutoff:
            termination = TERM_TIME
            break
        # Up to the next time check, within the flip budget.
        n = 1024 - (flips & 1023)
        if max_flips is not None:
            n = min(n, max_flips - flips)
        done, nothing_falsified = walk.advance(n)
        flips += done
        if nothing_falsified:
            # The current solution is optimal and was recorded when the loop
            # last checked for an improvement.
            termination = TERM_OPTIMUM
            break

    backend = "c" if isinstance(walk, kernel.Walk) else "python"
    return SolveResult(best_values, best_cost, trace, flips, termination, cfg, backend)
