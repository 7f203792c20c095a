"""WCNF instances: parsing, immutable storage, and assignment evaluation.

Literals use the DIMACS convention: a positive integer v is the variable
itself, -v its negation. Each clause kind (hard, soft) is stored once, in
CSR form: a flat array of literals plus clause offsets (see Clauses).
"""
from __future__ import annotations

import re
from array import array
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

INF = float("inf")

# Parser-enforced ceiling so that any sum of soft weights stays additive
# without overflow checks downstream.
MAX_TOTAL_SOFT_WEIGHT = (1 << 63) - 1
# The C kernel indexes variables 0..num_vars with 32-bit ints.
MAX_VARS = 2**31 - 2


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


class Clauses:
    """One clause kind in CSR form: clause c is lits[off[c]:off[c + 1]],
    with weight weights[c] when the kind is weighted (soft).

    Clauses are stored normalized: repeated literals are dropped, a
    tautology is dropped entirely, and an empty clause is not stored but
    adds its weight (1 when unweighted) to `empty`. The tuple views used by
    the Python search body are built on first use.
    """

    __slots__ = ("lits", "off", "weights", "empty", "_rows", "_vars", "_occ")

    def __init__(self, weighted: bool = False):
        self.lits = array("i")
        self.off = array("i", [0])
        self.weights = array("q") if weighted else None
        self.empty = 0
        self._rows = self._vars = self._occ = None

    def add(self, lits: Sequence[int], weight: int = 1) -> None:
        """Append one clause, normalized."""
        norm = _normalize(lits)
        if norm is None:
            return
        if not norm:
            self.empty += weight
            return
        if self.weights is not None:
            if weight > MAX_TOTAL_SOFT_WEIGHT:
                raise ValueError("total soft weight exceeds 63 bits")
            self.weights.append(weight)
        self.lits.extend(norm)
        self.off.append(len(self.lits))

    def __len__(self) -> int:
        return len(self.off) - 1

    def __iter__(self):
        return iter(self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Clauses):
            return NotImplemented
        return (self.lits, self.off, self.weights, self.empty) == \
            (other.lits, other.off, other.weights, other.empty)

    __hash__ = None

    @property
    def rows(self) -> Tuple[Tuple[int, ...], ...]:
        """Each clause as a tuple of literals."""
        if self._rows is None:
            lits, off = self.lits.tolist(), self.off.tolist()
            self._rows = tuple(tuple(lits[a:b]) for a, b in zip(off, off[1:]))
        return self._rows

    @property
    def vars(self) -> Tuple[Tuple[int, ...], ...]:
        """Each clause as a tuple of its variables."""
        if self._vars is None:
            self._vars = tuple(tuple(map(abs, lits)) for lits in self.rows)
        return self._vars

    def occurrences(self, num_vars: int):
        """Per variable v, the ids of the clauses with literal v and those
        with literal -v, in clause order: a (positive, negative) pair.
        Rebuilt when asked for another variable count than the cached one."""
        if self._occ is None or len(self._occ[0]) != num_vars + 1:
            pos: List[List[int]] = [[] for _ in range(num_vars + 1)]
            neg: List[List[int]] = [[] for _ in range(num_vars + 1)]
            for cid, lits in enumerate(self.rows):
                for lit in lits:
                    (pos if lit > 0 else neg)[abs(lit)].append(cid)
            self._occ = (tuple(map(tuple, pos)), tuple(map(tuple, neg)))
        return self._occ


class Formula:
    """Immutable WPMS instance.

    hard is an iterable of literal sequences, soft one of (weight, literals)
    pairs; either may also be a Clauses of that kind, which is taken over
    as it is (the parser builds them). Construction normalizes clauses (see
    Clauses): a dropped soft clause does not count towards
    total_soft_weight, an empty hard clause marks the whole instance
    infeasible, and an empty soft clause contributes its weight to every
    assignment's obj via a constant offset (soft_base).
    """

    __slots__ = (
        "num_vars",
        "hard",
        "soft",
        "soft_weights",
        "total_soft_weight",
        "soft_base",
        "has_empty_hard",
    )

    def __init__(
        self,
        num_vars: int,
        hard: Iterable[Sequence[int]],
        soft: Iterable[Tuple[int, Sequence[int]]],
    ):
        if not 0 <= num_vars <= MAX_VARS:
            raise ValueError(f"num_vars must be in [0, {MAX_VARS}]")
        self.num_vars = num_vars
        if isinstance(hard, Clauses):
            self._check_range(hard.lits)
        else:
            rows, hard = hard, Clauses()
            for lits in rows:
                self._check_range(lits)
                hard.add(lits)
        if isinstance(soft, Clauses):
            self._check_range(soft.lits)
        else:
            rows, soft = soft, Clauses(weighted=True)
            for weight, lits in rows:
                if weight < 1:
                    raise ValueError("soft weight must be >= 1")
                self._check_range(lits)
                soft.add(lits, weight)

        total = soft.empty + sum(soft.weights)
        if total > MAX_TOTAL_SOFT_WEIGHT:
            raise ValueError("total soft weight exceeds 63 bits")
        self.hard = hard
        self.soft = soft
        self.soft_weights = soft.weights
        self.total_soft_weight = total
        self.soft_base = soft.empty
        self.has_empty_hard = hard.empty > 0

    def _check_range(self, lits: Sequence[int]) -> None:
        if lits and (0 in lits or max(lits) > self.num_vars or -min(lits) > self.num_vars):
            lit = next(lit for lit in lits if lit == 0 or abs(lit) > self.num_vars)
            raise ValueError(f"literal {lit} out of range [1, {self.num_vars}]")

    # Occurrence lists of the Python search body, built on first use.
    @property
    def occ_hard_pos(self):
        return self.hard.occurrences(self.num_vars)[0]

    @property
    def occ_hard_neg(self):
        return self.hard.occurrences(self.num_vars)[1]

    @property
    def occ_soft_pos(self):
        return self.soft.occurrences(self.num_vars)[0]

    @property
    def occ_soft_neg(self):
        return self.soft.occurrences(self.num_vars)[1]

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


# --- parsing ----------------------------------------------------------------

_CHUNK = 1 << 16  # characters of whole lines split at a time: bounds the line list
# Every line break of str.splitlines(), "\r\n" as one.
_BREAK = re.compile("\r\n|[\n\v\f\r\x1c-\x1e\x85\u2028\u2029]")


def _lines(text: str) -> Iterator[str]:
    """The lines of text.splitlines(), split a chunk of about _CHUNK
    characters at a time; each chunk ends just after a line break."""
    start = 0
    while start < len(text):
        cut = _BREAK.search(text, start + _CHUNK)
        end = cut.end() if cut else len(text)
        yield from text[start:end].splitlines()
        start = end


def _parse_int(token: str, kind: str, msg: str, line_no: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(kind, f"{msg}: {token!r}", line_no) from None


def _header(tokens: List[str], line: str, line_no: int) -> Tuple[int, int]:
    """(num_vars, top) of a "p wcnf" line."""
    if len(tokens) != 5 or tokens[1] != "wcnf":
        raise ParseError("header", f"malformed header: {line.strip()!r}", line_no)
    num_vars = _parse_int(tokens[2], "header", "invalid variable count", line_no)
    _parse_int(tokens[3], "header", "invalid clause count", line_no)
    top = _parse_int(tokens[4], "header", "invalid top weight", line_no)
    if num_vars < 0 or top < 1:
        raise ParseError("header", "header values out of range", line_no)
    if num_vars > MAX_VARS:
        raise ParseError("header", f"variable count {num_vars} exceeds {MAX_VARS}", line_no)
    return num_vars, top


def _literal_error(tokens: List[str], line_no: int) -> ParseError:
    """The error of a clause line's first literal token that is not a nonzero
    int: raised if it is no int, returned if it is a 0."""
    for tok in tokens[1:-1]:
        if _parse_int(tok, "clause", "invalid literal", line_no) == 0:
            break
    return ParseError("terminator", "unexpected 0 before end of clause line", line_no)


def parse_wcnf(source) -> Formula:
    """Parse WCNF text, str or UTF-8 bytes, in either the classic headered
    or the headerless format.

    Classic: "p wcnf <num_vars> <num_clauses> <top>" followed by
    "<weight> <lit>... 0" lines, weight >= top meaning hard. Headerless:
    "h <lit>... 0" for hard, "<weight> <lit>... 0" for soft, num_vars being
    the largest variable mentioned. Comment lines start with "c". Lines end
    at any break that str.splitlines() knows. The format is auto-detected
    from the first significant line. A variable above MAX_VARS is an error.
    Each error is a ParseError with the number of its line.
    """
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    hard, soft = Clauses(), Clauses(weighted=True)
    hard_lits, hard_off = hard.lits, hard.off
    soft_lits, soft_off, soft_weights = soft.lits, soft.off, soft.weights
    classic = None  # set by the first significant line
    num_vars = top = total = 0
    for line_no, line in enumerate(_lines(source), 1):
        tokens = line.split()
        if not tokens or tokens[0][0] == "c":
            continue
        head = tokens[0]
        if classic is None:
            classic = head[0] == "p"
            if classic:
                if head != "p":
                    raise ParseError("header", "clause before 'p wcnf' header", line_no)
                num_vars, top = _header(tokens, line, line_no)
                continue
        if classic or head != "h":
            try:
                weight = int(head)
            except ValueError:
                if classic and head == "p":
                    raise ParseError("header", "duplicate problem header", line_no) from None
                raise ParseError("clause", f"invalid clause weight: {head!r}", line_no) from None
        if len(tokens) < 2 or tokens[-1] != "0":
            raise ParseError("terminator", "clause line missing terminating 0", line_no)
        try:
            lits = list(map(int, tokens[1:-1]))
        except ValueError:
            raise _literal_error(tokens, line_no) from None
        # One set finds an interior 0, a repeated variable and the largest one.
        variables = set(map(abs, lits))
        if 0 in variables:
            raise _literal_error(tokens, line_no)
        if variables and max(variables) > num_vars:
            if classic or max(variables) > MAX_VARS:
                limit = num_vars if classic else MAX_VARS
                var = next(v for v in map(abs, lits) if v > limit)
                bound = f"declared count {limit}" if classic else limit
                raise ParseError("var-range", f"variable {var} exceeds {bound}", line_no)
            num_vars = max(variables)
        # Rows with no repeated variable go straight in; Clauses.add normalizes the rest.
        if weight >= top if classic else head == "h":
            if lits and len(variables) == len(lits):
                hard_lits.fromlist(lits)
                hard_off.append(len(hard_lits))
            else:
                hard.add(lits)
            continue
        if weight < 1:
            raise ParseError("soft-weight",
                             f"soft clause weight must be positive, got {weight}", line_no)
        total += weight
        if total > MAX_TOTAL_SOFT_WEIGHT:
            raise ParseError("overflow", "total soft weight exceeds 63 bits", line_no)
        if lits and len(variables) == len(lits):
            soft_lits.fromlist(lits)
            soft_off.append(len(soft_lits))
            soft_weights.append(weight)
        else:
            soft.add(lits, weight)
    return Formula(num_vars, hard, soft)


def load_wcnf(path) -> Formula:
    """Parse the WCNF file at path, read as UTF-8 text."""
    with open(path, encoding="utf-8") as fh:
        return parse_wcnf(fh.read())
