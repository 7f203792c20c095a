"""WCNF instances: parsing, immutable storage, and assignment evaluation.

Literals use the DIMACS convention: a positive integer v is the variable
itself, -v its negation. Each clause kind (hard, soft) is stored once, in
CSR form: a flat array of literals plus clause offsets (see Clauses).
"""
from __future__ import annotations

from array import array
from collections import deque
from itertools import accumulate, compress, count, repeat
from operator import add, ne, not_, sub
from typing import Iterable, List, Optional, Sequence, Tuple

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

_CHUNK = 1 << 16  # characters of whole lines parsed at a time: bounds the lists per chunk


def _parse_bulk(text: str) -> Formula:
    """parse_wcnf on well-formed text, a chunk of whole lines at a time:
    one split() and map(int, ...) per chunk, rows found by their 0
    terminators, every per-row step a C-level iterator. Lines are those of
    str.splitlines(), as in _parse_lines. Raises ValueError or
    OverflowError, with no useful message, on anything else, an empty
    clause or a clause that repeats a variable included; Formula raises
    for a variable count, a literal or a soft total out of range. The line
    parser then reads the text or reports the error."""
    hard, soft = Clauses(), Clauses(weighted=True)
    top = None  # the classic format's top weight; None when headerless
    first = True
    num_vars = max_var = 0
    start = 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK) + 1 or len(text)
        rows = [r for r in map(str.strip, text[start:end].splitlines())
                if r and not r.startswith("c")]
        start = end
        if rows and first:
            first = False
            if rows[0].startswith("p"):
                p, fmt, nv, nc, top = rows.pop(0).split()
                num_vars, _, top = int(nv), int(nc), int(top)
                if p != "p" or fmt != "wcnf" or top < 1:
                    raise ValueError
        if not rows:
            continue
        if not all(map(str.endswith, rows, repeat((" 0", "\t0")))):
            raise ValueError
        joined = " ".join(rows)
        if top is None:
            # Drop the "h" markers; the count shows each is a row's first token.
            is_hard = list(map(str.startswith, rows, repeat(("h ", "h\t"))))
            if joined.count("h") != sum(is_hard):
                raise ValueError
            joined = joined.replace("h", "")
        ints = list(map(int, joined.split()))
        ends = list(compress(count(), map(not_, ints)))
        if len(ends) != len(rows):  # a 0 inside a row
            raise ValueError
        starts = [0, *map((1).__add__, ends[:-1])]
        if top is not None:
            is_hard = list(map(top.__le__, map(ints.__getitem__, starts)))
        is_soft = list(map(not_, is_hard))
        weighted = starts if top is not None else list(compress(starts, is_soft))
        weights = list(map(ints.__getitem__, compress(starts, is_soft)))
        if weights and min(weights) < 1:
            raise ValueError
        # A row's literals follow its weight, if it has one, up to its end.
        firsts = list(map(add, starts, is_soft)) if top is None else \
            list(map((1).__add__, starts))
        lengths = list(map(sub, ends, firsts))
        variables = list(map(abs, ints))
        if 0 in lengths or any(map(ne, map(len, map(set, map(
                variables.__getitem__, map(slice, firsts, ends)))), lengths)):
            raise ValueError  # an empty clause, or a repeated variable
        # With the weights zeroed, the literals are the nonzero ints; one
        # filter() per run of rows of one kind.
        deque(map(ints.__setitem__, weighted, repeat(0)), 0)
        max_var = max(max_var, max(ints), -min(ints))
        cuts = [0, *compress(count(1), map(ne, is_hard, is_hard[1:])), len(rows)]
        for a, b in zip(cuts, cuts[1:]):
            kind = hard if is_hard[a] else soft
            kind.lits.extend(filter(None, ints[starts[a]:ends[b - 1]]))
            kind.off.extend(map(kind.off[-1].__add__, accumulate(lengths[a:b])))
        soft.weights.extend(weights)
    return Formula(max_var if top is None else num_vars, hard, soft)


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


def _parse_lines(text: str) -> Formula:
    """parse_wcnf one line of str.splitlines() at a time: the reference
    that reports each error with its line number, and reads what the bulk
    parser leaves to it (empty clauses and repeated variables, say)."""
    lines = text.splitlines()

    classic = False
    for raw in lines:
        stripped = raw.strip()
        if stripped and not stripped.startswith("c"):
            classic = stripped.startswith("p")
            break
    num_vars = None if classic else 0
    top = None
    hard, soft = Clauses(), Clauses(weighted=True)
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
            if num_vars > MAX_VARS:
                raise ParseError("header", f"variable count {num_vars} exceeds {MAX_VARS}",
                                 line_no)
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
                        "var-range", f"variable {abs(lit)} exceeds declared count {num_vars}", line_no)
                if abs(lit) > MAX_VARS:
                    raise ParseError("var-range", f"variable {abs(lit)} exceeds {MAX_VARS}",
                                     line_no)
                num_vars = abs(lit)
        if classic:
            is_hard = weight >= top
        if is_hard:
            hard.add(lits)
            continue
        if weight < 1:
            raise ParseError("soft-weight", f"soft clause weight must be positive, got {weight}", line_no)
        running_total += weight
        if running_total > MAX_TOTAL_SOFT_WEIGHT:
            raise ParseError("overflow", "total soft weight exceeds 63 bits", line_no)
        soft.add(lits, weight)

    return Formula(num_vars, hard, soft)


def parse_wcnf(source) -> Formula:
    """Parse WCNF text, str or UTF-8 bytes, in either the classic headered
    or the headerless format.

    Classic: "p wcnf <num_vars> <num_clauses> <top>" followed by
    "<weight> <lit>... 0" lines, weight >= top meaning hard. Headerless:
    "h <lit>... 0" for hard, "<weight> <lit>... 0" for soft, num_vars being
    the largest variable mentioned. Comment lines start with "c". Lines end
    at any break that str.splitlines() knows. The format is auto-detected
    from the first significant line. A variable above MAX_VARS is an error.
    """
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    try:
        return _parse_bulk(source)
    except (ValueError, OverflowError):
        # An error, an empty clause or a repeated variable: the line parser
        # finds the error and its line, or reads the text.
        return _parse_lines(source)


def load_wcnf(path) -> Formula:
    """Parse the WCNF file at path, read as UTF-8 text. Universal newlines
    turn CR and CRLF into LF, one line break to str.splitlines() either
    way, so that _parse_bulk also cuts a file with CR line ends into
    chunks."""
    with open(path, encoding="utf-8") as fh:
        return parse_wcnf(fh.read())
