"""Local search solver for (weighted) partial MaxSAT built around a
dynamically weighted soft-conflict pseudo-Boolean constraint."""

from .formula import INF, Formula, ParseError, load_wcnf, parse_wcnf
from .oracle import brute_force_opt
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
