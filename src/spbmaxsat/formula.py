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

# Ceiling that Clauses.add enforces so that any sum of soft weights stays additive
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


def _normalize(literals: Iterable[int]) -> Optional[List[int]]:
    """Deduplicate literals; return None for tautologies (x and -x present)."""
    seen = dict.fromkeys(literals)
    for lit in seen:
        if -lit in seen:
            return None
    return list(seen)


class Clauses:
    """One clause kind in CSR form: clause c is lits[off[c]:off[c + 1]],
    with weight weights[c] when the kind is weighted (soft).

    add() is the one check of a clause row, for the parser and for Formula
    alike. Clauses are stored normalized: repeated literals are dropped, a
    tautology is dropped entirely and an empty clause is not stored; each
    of these two adds its weight (1 when unweighted) to `dropped` or
    `empty`. `max_var` is the largest variable of any row added, dropped
    ones included, and `total` the sum of every soft weight added, dropped
    ones included, which add() keeps within 63 bits. `max_weight` is the
    largest weight stored (0 when none is, and when unweighted). The tuple
    views used by the Python search body are built on first use.
    """

    __slots__ = ("lits", "off", "weights", "empty", "dropped", "total", "max_var",
                 "max_weight", "_rows", "_vars", "_occ")

    def __init__(self, weighted: bool = False):
        self.lits = array("i")
        self.off = array("i", [0])
        self.weights = array("q") if weighted else None
        self.empty = self.dropped = self.total = self.max_var = self.max_weight = 0
        self._rows = self._vars = self._occ = None

    def add(self, lits: List[int], weight: int = 1, num_vars: Optional[int] = None) -> None:
        """Check one clause row, a list of literals, and append it,
        normalized. Its variables must lie in [1, num_vars], or in
        [1, MAX_VARS] when num_vars is None (no count declared). A row with
        an error raises a ParseError, without a line number, and changes
        nothing."""
        variables = set(map(abs, lits))
        if 0 in variables:
            raise ParseError("terminator", "unexpected 0 before end of clause line")
        top = max(variables) if variables else 0
        limit = MAX_VARS if num_vars is None else num_vars
        if top > limit:
            var = next(v for v in map(abs, lits) if v > limit)
            bound = limit if num_vars is None else f"declared count {limit}"
            raise ParseError("var-range", f"variable {var} exceeds {bound}")
        if self.weights is not None:
            if weight < 1:
                raise ParseError("soft-weight", f"soft clause weight must be positive, got {weight}")
            if self.total + weight > MAX_TOTAL_SOFT_WEIGHT:
                raise ParseError("overflow", "total soft weight exceeds 63 bits")
            self.total += weight
        if top > self.max_var:
            self.max_var = top
        if len(variables) < len(lits):
            lits = _normalize(lits)
            if lits is None:
                self.dropped += weight
                return
        if not lits:
            self.empty += weight
            return
        self.lits.fromlist(lits)
        self.off.append(len(self.lits))
        if self.weights is not None:
            self.weights.append(weight)
            if weight > self.max_weight:
                self.max_weight = weight

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
    pairs; each row is checked and normalized by Clauses.add, with the same
    ParseError kinds as the parser's (without line numbers). Either may also
    be a Clauses of that kind, which is taken over as it is (the parser
    builds them): its rows were checked when added, so only its max_var is
    compared with num_vars. A dropped soft clause does not count towards
    total_soft_weight, an empty hard clause marks the whole instance
    infeasible, and an empty soft clause contributes its weight to every
    assignment's obj via a constant offset (soft_base). max_soft_weight is
    the largest of soft_weights, 0 when there is none.
    """

    __slots__ = (
        "num_vars",
        "hard",
        "soft",
        "soft_weights",
        "max_soft_weight",
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
        if not isinstance(hard, Clauses):
            rows, hard = hard, Clauses()
            for lits in rows:
                hard.add(list(lits), 1, num_vars)
        if not isinstance(soft, Clauses):
            rows, soft = soft, Clauses(weighted=True)
            for weight, lits in rows:
                soft.add(list(lits), weight, num_vars)
        # The C kernel indexes its values by variable.
        top = max(hard.max_var, soft.max_var)
        if top > num_vars:
            raise ParseError("var-range", f"variable {top} exceeds declared count {num_vars}")
        self.num_vars = num_vars
        self.hard = hard
        self.soft = soft
        self.soft_weights = soft.weights
        self.max_soft_weight = soft.max_weight
        self.total_soft_weight = soft.total - soft.dropped
        self.soft_base = soft.empty
        self.has_empty_hard = hard.empty > 0

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
        return self.max_soft_weight <= 1

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


def _parse_int(token: str, kind: str, msg: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(kind, f"{msg}: {token!r}") from None


def _header(tokens: List[str], line: str) -> Tuple[int, int]:
    """(num_vars, top) of a "p wcnf" line."""
    if len(tokens) != 5 or tokens[1] != "wcnf":
        raise ParseError("header", f"malformed header: {line.strip()!r}")
    num_vars = _parse_int(tokens[2], "header", "invalid variable count")
    _parse_int(tokens[3], "header", "invalid clause count")
    top = _parse_int(tokens[4], "header", "invalid top weight")
    if num_vars < 0 or top < 1:
        raise ParseError("header", "header values out of range")
    if num_vars > MAX_VARS:
        raise ParseError("header", f"variable count {num_vars} exceeds {MAX_VARS}")
    return num_vars, top


def _literal_error(tokens: List[str]) -> ParseError:
    """The error of a clause line with a literal token that is no int: that
    token's (raised), or, when a 0 comes before it, the interior-0 error
    that Clauses.add gives such a row (returned)."""
    for tok in tokens[1:-1]:
        if _parse_int(tok, "clause", "invalid literal") == 0:
            break
    return ParseError("terminator", "unexpected 0 before end of clause line")


def parse_wcnf(source) -> Formula:
    """Parse WCNF text, str or UTF-8 bytes, in either the classic headered
    or the headerless format.

    Classic: "p wcnf <num_vars> <num_clauses> <top>" followed by
    "<weight> <lit>... 0" lines, weight >= top meaning hard. Headerless:
    "h <lit>... 0" for hard, "<weight> <lit>... 0" for soft, num_vars being
    the largest variable mentioned. Comment lines start with "c". Lines end
    at any break that str.splitlines() knows. The format is auto-detected
    from the first significant line. Each error is a ParseError with the
    number of its line.

    The C kernel parses the text when it loads (kernel.parse), to the same
    Formula. It declines on any error and on text that it does not read as
    Python does, and then this function parses it in Python: it reads
    tokens and the header, and Clauses.add checks each row.
    """
    from . import kernel  # kernel imports this module

    data = source.encode("utf-8", "surrogatepass") if isinstance(source, str) else source
    parsed = kernel.parse(data)
    if parsed is not None:
        return Formula(*parsed)
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    hard, soft = Clauses(), Clauses(weighted=True)
    classic = declared = None  # set by the first significant line
    top = 0
    try:
        for line_no, line in enumerate(_lines(source), 1):
            tokens = line.split()
            if not tokens or tokens[0][0] == "c":
                continue
            head = tokens[0]
            if classic is None:
                classic = head[0] == "p"
                if classic:
                    if head != "p":
                        raise ParseError("header", "clause before 'p wcnf' header")
                    declared, top = _header(tokens, line)
                    continue
            if classic or head != "h":
                try:
                    weight = int(head)
                except ValueError:
                    if classic and head == "p":
                        raise ParseError("header", "duplicate problem header") from None
                    raise ParseError("clause", f"invalid clause weight: {head!r}") from None
            if len(tokens) < 2 or tokens[-1] != "0":
                raise ParseError("terminator", "clause line missing terminating 0")
            try:
                lits = list(map(int, tokens[1:-1]))
            except ValueError:
                raise _literal_error(tokens) from None
            if weight >= top if classic else head == "h":
                hard.add(lits, 1, declared)
            else:
                soft.add(lits, weight, declared)
    except ParseError as exc:
        raise ParseError(exc.kind, str(exc), line_no) from None
    num_vars = declared if classic else max(hard.max_var, soft.max_var)
    return Formula(num_vars, hard, soft)


def load_wcnf(path) -> Formula:
    """Parse the WCNF file at path, UTF-8 text."""
    with open(path, "rb") as fh:
        return parse_wcnf(fh.read())
