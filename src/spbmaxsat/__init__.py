"""Local search solver for (weighted) partial MaxSAT built around a
dynamically weighted soft-conflict pseudo-Boolean constraint."""

from .formula import INF, Formula, ParseError, load_wcnf, parse_wcnf
from .search import SolveResult, SolverConfig, solve

__all__ = [
    "INF",
    "Formula",
    "ParseError",
    "load_wcnf",
    "parse_wcnf",
    "SolveResult",
    "SolverConfig",
    "solve",
]
