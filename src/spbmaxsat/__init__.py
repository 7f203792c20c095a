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
    "brute_force_opt",
    "SolveResult",
    "SolverConfig",
    "solve",
    "SearchState",
    "SpbConstraint",
]


def __getattr__(name: str):
    # The oracle and the Python reference's state are imported at their first
    # use (PEP 562): a solve in the C kernel needs neither.
    if name == "brute_force_opt":
        from .oracle import brute_force_opt

        return brute_force_opt
    if name in ("SearchState", "SpbConstraint"):
        from . import state

        return getattr(state, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
