"""The solver's config and result, and solve: the anytime loop that runs a
walk (the C kernel's, else the Python reference's in pywalk), keeps the
best solution and tightens the soft-conflict bound."""
from __future__ import annotations

from time import perf_counter
from typing import Callable, List, Optional, Tuple

from . import kernel
from .common import MODE_SPB, MODES
from .formula import INF, Formula

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
TERM_STOPPED = "stopped"


# bitstring's map from the bytes 0 and 1 to the characters "0" and "1".
_DIGITS = bytes.maketrans(b"\0\1", b"01")


class ConfigError(ValueError):
    pass


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

    # The fields, in constructor order: the CLI has one flag per field.
    FIELDS = ("k", "h_inc", "delta", "mode", "decay_threshold", "cutoff_seconds",
              "max_flips", "seed", "init", "preset")

    def __init__(self, k: Optional[int] = None, h_inc: Optional[float] = None,
                 delta: Optional[float] = None, mode: str = MODE_SPB,
                 decay_threshold: float = 1e7, cutoff_seconds: Optional[float] = None,
                 max_flips: Optional[int] = None, seed: int = 1, init: str = "decimation",
                 preset: str = "auto"):
        self.k = k
        self.h_inc = h_inc
        self.delta = delta
        self.mode = mode
        self.decay_threshold = decay_threshold
        self.cutoff_seconds = cutoff_seconds
        self.max_flips = max_flips
        self.seed = seed
        self.init = init
        self.preset = preset
        if self.preset != "auto" and self.preset not in PRESETS:
            raise ConfigError(f"unknown preset {self.preset!r}")
        if self.mode not in MODES:
            raise ConfigError(f"unknown weighting mode {self.mode!r}")
        if self.init not in INITS:
            raise ConfigError(f"unknown init mode {self.init!r}")
        # An int, as the CLI's --seed is: random.Random would also take a
        # str or a float, and seed them another way.
        if not isinstance(self.seed, int):
            raise ConfigError(f"seed must be an int, not {type(self.seed).__name__}")
        if self.k is not None and self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.k is not None and self.k >= 2**63:  # the kernel holds k in an int64_t
            raise ConfigError("k must be < 2**63")
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

    def __repr__(self) -> str:
        return f"SolverConfig({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"

    def replace(self, **changes) -> "SolverConfig":
        """A copy with the given fields changed, checked as a new config is."""
        return SolverConfig(**{**vars(self), **changes})

    def resolve(self, formula: Formula) -> "SolverConfig":
        """A copy with the budget checked, the preset's values filled in and
        the decay floor applied."""
        if self.cutoff_seconds is None and self.max_flips is None:
            raise ConfigError("set at least one of cutoff_seconds / max_flips")
        preset = self.preset
        if preset == "auto":
            preset = "pms" if formula.is_pms else "wpms"
        pk, ph, pd = PRESETS[preset]
        return self.replace(
            k=self.k if self.k is not None else pk,
            h_inc=self.h_inc if self.h_inc is not None else ph,
            delta=self.delta if self.delta is not None else pd,
            preset=preset,
            decay_threshold=max(self.decay_threshold, 2.0 * formula.max_soft_weight),
        )


class SolveResult:
    """Outcome of one solver run.

    trace holds one (flip step, wall seconds, cost) row per strict
    improvement; best_cost is inf and best_assignment None when no feasible
    solution was found. backend is "c" when the C kernel built the start
    state and ran the search (a run of no flips included), "python" when
    both ran in Python. An instance with an empty hard clause runs no
    search: backend is then "c" when the kernel loaded.
    """

    def __init__(self, best_assignment: Optional[List[int]], best_cost: float,
                 trace: List[Tuple[int, float, int]], flips: int, termination: str,
                 config: SolverConfig, backend: str = "python"):
        self.best_assignment = best_assignment
        self.best_cost = best_cost
        self.trace = trace
        self.flips = flips
        self.termination = termination
        self.config = config
        self.backend = backend

    @property
    def feasible(self) -> bool:
        return self.best_assignment is not None

    def bitstring(self) -> str:
        assert self.best_assignment is not None
        return bytes(self.best_assignment[1:]).translate(_DIGITS).decode("ascii")


def solve(
    formula: Formula,
    config: Optional[SolverConfig] = None,
    on_improvement: Optional[Callable[[int], None]] = None,
    stop: Optional[Callable[[], bool]] = None,
) -> SolveResult:
    """Run the local search until the flip or time budget is exhausted, or
    until stop() returns true; it is asked where the time is checked, every
    1024 flips.

    Every strict improvement triggers on_improvement(cost) immediately.
    The start state and the flips come from the C kernel when it loads
    (the first call builds it, before the clock starts), else from Python;
    both make the same flips.
    """
    cfg = (config or SolverConfig()).resolve(formula)
    lib = kernel.load()
    t0 = perf_counter()

    if formula.has_empty_hard:
        return SolveResult(None, INF, [], 0, TERM_INFEASIBLE, cfg,
                           "python" if lib is None else "c")

    walk = kernel.start(formula, cfg)  # seeds its own Mersenne Twister
    if walk is None:
        from . import pywalk  # the Python reference: only where the kernel is not

        walk = pywalk.start(formula, cfg)

    best_cost = INF
    best_snapshot = None  # walk.snapshot() at the best cost: a list only at the end
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
            best_snapshot = walk.snapshot()
            trace.append((flips, perf_counter() - t0, best_cost))
            walk.set_bound(best_cost)
            if on_improvement is not None:
                on_improvement(best_cost)
            if best_cost == 0:
                termination = TERM_OPTIMUM
                break
        if max_flips is not None and flips >= max_flips:
            break
        if (flips & 1023) == 0:
            if stop is not None and stop():
                termination = TERM_STOPPED
                break
            if cutoff is not None and perf_counter() - t0 >= cutoff:
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
    best_values = None if best_snapshot is None else walk.assignment(best_snapshot)
    return SolveResult(best_values, best_cost, trace, flips, termination, cfg, backend)


# perfbench/tracing.py looks these names up on this module to wrap them. They
# are the Python reference's (pywalk), imported at the first such lookup
# (PEP 562): a run in the kernel imports none of it.
_REFERENCE_NAMES = ("decimation_init", "SearchState", "bms_pick", "pick_from_falsified",
                    "flip", "spb_weighting")


def __getattr__(name: str):
    if name in _REFERENCE_NAMES:
        from . import pywalk

        return getattr(pywalk, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
