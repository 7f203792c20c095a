"""WCNF instances: parsing, immutable storage, and assignment evaluation.

Literals use the DIMACS convention: a positive integer v is the variable
itself, -v its negation. Clauses are tuples of such literals; hard and
soft clauses live in separate parallel lists.
"""
from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

INF = float("inf")

# Parser-enforced ceiling so that any sum of soft weights stays additive
# without overflow checks downstream.
MAX_TOTAL_SOFT_WEIGHT = (1 << 63) - 1


class ParseError(ValueError):
    """WCNF syntax or semantic error, tagged with a kind and a line number."""

    def __init__(self, kind: str, message: str, line_no: Optional[int] = None):
        self.kind = kind
        self.line_no = line_no
        prefix = f"line {line_no}: " if line_no is not None else ""
        super().__init__(f"{prefix}{message}")


def _normalize(literals: Iterable[int]) -> Optional[Tuple[int, ...]]:
    """Deduplicate literals; return None for tautologies (x and -x present)."""
    seen = dict.fromkeys(literals)
    for lit in seen:
        if -lit in seen:
            return None
    return tuple(seen)


def _index(clauses: Tuple[Tuple[int, ...], ...], num_vars: int):
    """Variable tuples of one clause kind, plus its positive and negative
    occurrence lists (clause ids per variable)."""
    pos: List[List[int]] = [[] for _ in range(num_vars + 1)]
    neg: List[List[int]] = [[] for _ in range(num_vars + 1)]
    for cid, lits in enumerate(clauses):
        for lit in lits:
            (pos if lit > 0 else neg)[abs(lit)].append(cid)
    clause_vars = tuple(tuple(abs(l) for l in c) for c in clauses)
    return clause_vars, tuple(tuple(x) for x in pos), tuple(tuple(x) for x in neg)


class Formula:
    """Immutable WPMS instance with per-literal occurrence lists.

    Construction normalizes clauses: duplicate literals are dropped,
    tautological clauses are removed entirely (a dropped soft clause does
    not count towards total_soft_weight). An empty hard clause marks the
    whole instance infeasible; an empty soft clause contributes its weight
    to every assignment's obj via a constant offset.
    """

    __slots__ = (
        "num_vars",
        "hard",
        "soft",
        "soft_weights",
        "hard_vars",
        "soft_vars",
        "total_soft_weight",
        "soft_base",
        "has_empty_hard",
        "occ_hard_pos",
        "occ_hard_neg",
        "occ_soft_pos",
        "occ_soft_neg",
    )

    def __init__(
        self,
        num_vars: int,
        hard: Iterable[Sequence[int]],
        soft: Iterable[Tuple[int, Sequence[int]]],
    ):
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        self.num_vars = num_vars
        hard_out: List[Tuple[int, ...]] = []
        soft_out: List[Tuple[int, ...]] = []
        weights: List[int] = []
        soft_base = 0
        has_empty_hard = False

        for lits in hard:
            self._check_range(lits)
            norm = _normalize(lits)
            if norm is None:
                continue
            if not norm:
                has_empty_hard = True
                continue
            hard_out.append(norm)
        for weight, lits in soft:
            if weight < 1:
                raise ValueError("soft weight must be >= 1")
            self._check_range(lits)
            norm = _normalize(lits)
            if norm is None:
                continue
            if not norm:
                soft_base += weight
                continue
            soft_out.append(norm)
            weights.append(weight)

        total = soft_base + sum(weights)
        if total > MAX_TOTAL_SOFT_WEIGHT:
            raise ValueError("total soft weight exceeds 63 bits")

        self.hard = tuple(hard_out)
        self.soft = tuple(soft_out)
        self.soft_weights = tuple(weights)
        self.hard_vars, self.occ_hard_pos, self.occ_hard_neg = _index(self.hard, num_vars)
        self.soft_vars, self.occ_soft_pos, self.occ_soft_neg = _index(self.soft, num_vars)
        self.total_soft_weight = total
        self.soft_base = soft_base
        self.has_empty_hard = has_empty_hard

    def _check_range(self, lits: Sequence[int]) -> None:
        for lit in lits:
            if lit == 0 or abs(lit) > self.num_vars:
                raise ValueError(f"literal {lit} out of range [1, {self.num_vars}]")

    @property
    def is_pms(self) -> bool:
        """True when every soft clause carries unit weight."""
        return all(w == 1 for w in self.soft_weights)

    def clause_satisfied(self, lits: Tuple[int, ...], values: Sequence[int]) -> bool:
        for lit in lits:
            if values[lit] if lit > 0 else not values[-lit]:
                return True
        return False

    def obj(self, values: Sequence[int]) -> int:
        """Total weight of soft clauses falsified by the given valuation."""
        total = self.soft_base
        for lits, w in zip(self.soft, self.soft_weights):
            if not self.clause_satisfied(lits, values):
                total += w
        return total

    def hard_satisfied(self, values: Sequence[int]) -> bool:
        if self.has_empty_hard:
            return False
        return all(self.clause_satisfied(lits, values) for lits in self.hard)

    def cost(self, values: Sequence[int]):
        """obj if every hard clause is satisfied, +inf otherwise."""
        return self.obj(values) if self.hard_satisfied(values) else INF


def _parse_int(token: str, kind: str, msg: str, line_no: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(kind, f"{msg}: {token!r}", line_no) from None


def _split_clause_tokens(tokens: List[str], line_no: int) -> List[int]:
    """Literal tokens of one clause line, with the trailing 0 stripped."""
    if not tokens or tokens[-1] != "0":
        raise ParseError("terminator", "clause line missing terminating 0", line_no)
    lits = []
    for tok in tokens[:-1]:
        lit = _parse_int(tok, "clause", "invalid literal", line_no)
        if lit == 0:
            raise ParseError("terminator", "unexpected 0 before end of clause line", line_no)
        lits.append(lit)
    return lits


def parse_wcnf(source) -> Formula:
    """Parse WCNF text in either the classic headered or the headerless format.

    Classic: "p wcnf <num_vars> <num_clauses> <top>" followed by
    "<weight> <lit>... 0" lines, weight >= top meaning hard. Headerless:
    "h <lit>... 0" for hard, "<weight> <lit>... 0" for soft, num_vars being
    the largest variable mentioned. Comment lines start with "c". The format
    is auto-detected from the first significant line.
    """
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    lines = source.splitlines()

    classic = False
    for raw in lines:
        stripped = raw.strip()
        if stripped and not stripped.startswith("c"):
            classic = stripped.startswith("p")
            break
    num_vars = None if classic else 0
    top = None
    hard: List[List[int]] = []
    soft: List[Tuple[int, List[int]]] = []
    running_total = 0

    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tokens = line.split()
        if classic and tokens[0] == "p":
            if num_vars is not None:
                raise ParseError("header", "duplicate problem header", line_no)
            if len(tokens) != 5 or tokens[1] != "wcnf":
                raise ParseError("header", f"malformed header: {line!r}", line_no)
            num_vars = _parse_int(tokens[2], "header", "invalid variable count", line_no)
            _parse_int(tokens[3], "header", "invalid clause count", line_no)
            top = _parse_int(tokens[4], "header", "invalid top weight", line_no)
            if num_vars < 0 or top < 1:
                raise ParseError("header", "header values out of range", line_no)
            continue
        if num_vars is None:
            raise ParseError("header", "clause before 'p wcnf' header", line_no)
        is_hard = not classic and tokens[0] == "h"
        if not is_hard:
            weight = _parse_int(tokens[0], "clause", "invalid clause weight", line_no)
        lits = _split_clause_tokens(tokens[1:], line_no)
        for lit in lits:
            if abs(lit) > num_vars:
                if classic:
                    raise ParseError(
                        "var-range", f"variable {abs(lit)} exceeds declared count {num_vars}", line_no
                    )
                num_vars = abs(lit)
        if classic:
            is_hard = weight >= top
        if is_hard:
            hard.append(lits)
            continue
        if weight < 1:
            raise ParseError("soft-weight", f"soft clause weight must be positive, got {weight}", line_no)
        running_total += weight
        if running_total > MAX_TOTAL_SOFT_WEIGHT:
            raise ParseError("overflow", "total soft weight exceeds 63 bits", line_no)
        soft.append((weight, lits))

    return Formula(num_vars, hard, soft)


def load_wcnf(path) -> Formula:
    with open(path, "rb") as fh:
        return parse_wcnf(fh.read())
