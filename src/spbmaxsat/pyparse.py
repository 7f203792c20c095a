"""The Python WCNF parser: formula.parse_wcnf's reference, and its parser
wherever the C kernel does not load or declines the text. Imported only
then: a process whose text the kernel reads compiles none of it.
"""
from __future__ import annotations

import re
from typing import Iterator, List, Tuple

from .formula import MAX_VARS, Clauses, Formula, ParseError

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


def parse(source) -> Formula:
    """formula.parse_wcnf in Python, str or UTF-8 bytes: the text is read
    once, line by line, and Clauses.add checks each row."""
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
