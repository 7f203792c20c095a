"""Local search solver for (weighted) partial MaxSAT built around a
dynamically weighted soft-conflict pseudo-Boolean constraint."""

from .formula import INF, Formula, ParseError, load_wcnf, parse_wcnf
from .search import SolveResult, SolverConfig, solve
from .state import SearchState, SpbConstraint

__all__ = [
    "INF",
    "Formula",
    "ParseError",
    "load_wcnf",
    "parse_wcnf",
    "brute_force_opt",
    "SolveResult",
    "SolverConfig",
    "solve",
    "SearchState",
    "SpbConstraint",
]


def __getattr__(name: str):
    # The oracle is imported at its first use (PEP 562): solve needs none of it.
    if name == "brute_force_opt":
        from .oracle import brute_force_opt

        return brute_force_opt
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
