"""Parsing and evaluation tests for the WCNF instance module."""
from __future__ import annotations

import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from spbmaxsat import kernel
from spbmaxsat.formula import (INF, Clauses, Formula, ParseError, _parse_bulk, _parse_lines,
                               load_wcnf, parse_wcnf)
from spbmaxsat.search import SolverConfig, solve

from gen import random_parts, render_new, render_old

F1_OLD = "p wcnf 2 3 10\n10 1 2 0\n2 -1 0\n5 -2 0\n"
F1_NEW = "h 1 2 0\n2 -1 0\n5 -2 0\n"


def a(*values):
    return [0, *values]


class TestParsing:
    def test_old_format_f1(self):
        f = parse_wcnf(F1_OLD)
        assert f.num_vars == 2
        assert f.hard.rows == ((1, 2),)
        assert f.soft.rows == ((-1,), (-2,))
        assert f.soft_weights.tolist() == [2, 5]
        assert f.total_soft_weight == 7

    def test_new_format_matches_old(self):
        old = parse_wcnf(F1_OLD)
        new = parse_wcnf(F1_NEW)
        assert (old.num_vars, old.hard, old.soft, old.soft_weights) == \
            (new.num_vars, new.hard, new.soft, new.soft_weights)

    def test_bytes_input(self):
        assert parse_wcnf(F1_OLD.encode()).num_vars == 2

    def test_soft_weight_zero(self):
        with pytest.raises(ParseError) as exc:
            parse_wcnf("p wcnf 1 1 5\n0 1 0\n")
        assert exc.value.kind == "soft-weight"
        assert exc.value.line_no == 2

    def test_malformed_header(self):
        with pytest.raises(ParseError) as exc:
            parse_wcnf("p wcnf 2 3\n10 1 2 0\n")
        assert exc.value.kind == "header"

    def test_missing_terminator(self):
        with pytest.raises(ParseError) as exc:
            parse_wcnf("p wcnf 2 1 10\n10 1 2\n")
        assert exc.value.kind == "terminator"
        assert exc.value.line_no == 2

    def test_interior_zero(self):
        with pytest.raises(ParseError) as exc:
            parse_wcnf("h 1 0 2 0\n")
        assert exc.value.kind == "terminator"

    def test_var_out_of_range(self):
        with pytest.raises(ParseError) as exc:
            parse_wcnf("p wcnf 2 1 10\n10 1 3 0\n")
        assert exc.value.kind == "var-range"

    def test_overflow(self):
        big = (1 << 63) - 2
        with pytest.raises(ParseError) as exc:
            parse_wcnf(f"{big} 1 0\n2 1 0\n")
        assert exc.value.kind == "overflow"
        assert exc.value.line_no == 2

    def test_comments_and_blank_lines(self):
        f = parse_wcnf("c comment\n\np wcnf 1 1 5\nc another\n1 1 0\n")
        assert f.num_vars == 1 and len(f.soft) == 1

    def test_weight_above_top_is_hard(self):
        f = parse_wcnf("p wcnf 1 1 5\n9 1 0\n")
        assert len(f.hard) == 1 and len(f.soft) == 0

    def test_clause_before_header(self):
        # First significant line decides the format: this parses as the
        # headerless one, where "p" is not a valid weight.
        with pytest.raises(ParseError):
            parse_wcnf("1 1 0\np wcnf 1 1 5\n")

    def test_missing_header_entirely(self):
        # Headerless text is valid new-format input.
        f = parse_wcnf("1 1 0\n")
        assert f.num_vars == 1

    def test_duplicate_literals_deduped(self):
        f = parse_wcnf("h 1 1 2 0\n3 2 2 0\n")
        assert f.hard.rows == ((1, 2),)
        assert f.soft.rows == ((2,),)

    def test_tautology_dropped_and_weight_excluded(self):
        f = parse_wcnf("h 1 -1 0\n4 2 -2 0\n3 2 0\n")
        assert len(f.hard) == 0
        assert f.soft.rows == ((2,),)
        assert f.total_soft_weight == 3

    def test_lone_surrogate_in_a_comment(self):
        # A str that cannot be encoded as UTF-8 still takes the bulk path.
        text = "c \udc80\n" + F1_NEW
        assert formula_fields(_parse_bulk(text)) == formula_fields(parse_wcnf(F1_NEW))
        assert formula_fields(parse_wcnf(text)) == formula_fields(parse_wcnf(F1_NEW))

    def test_file_line_breaks(self, tmp_path):
        data = F1_OLD.encode().replace(b"\n", b"\r", 2).replace(b"\n", b"\r\n", 1)
        path = tmp_path / "f1.wcnf"
        path.write_bytes(data)
        assert formula_fields(load_wcnf(path)) == formula_fields(parse_wcnf(F1_OLD))

    def test_non_ascii_digit_in_a_literal(self):
        text = "h 1 \u0662 0\n3 -1 0\n"
        want = formula_fields(Formula(2, [[1, 2]], [(3, [-1])]))
        assert formula_fields(_parse_bulk(text)) == want
        assert formula_fields(_parse_lines(text)) == want

    def test_empty_hard_clause_marks_infeasible(self):
        f = parse_wcnf("h 0\n1 1 0\n")
        assert f.has_empty_hard
        assert f.cost([0, 1]) == INF

    def test_empty_soft_clause_becomes_offset(self):
        f = parse_wcnf("p wcnf 1 2 9\n5 0\n1 1 0\n")
        assert f.soft_base == 5
        assert f.obj([0, 1]) == 5
        assert f.total_soft_weight == 6


# (text, kind, line number, message) for error branches that the tests
# above and acceptance criterion 7 leave open.
PARSE_ERRORS = [
    ("p wcnf 1 1 5\np wcnf 1 1 5\n1 1 0\n", "header", 2, "duplicate problem header"),
    ("c x\np wcnf -1 1 5\n", "header", 2, "header values out of range"),
    ("p wcnf 1 1 0\n1 1 0\n", "header", 1, "header values out of range"),
    ("p wcnf x 1 5\n", "header", 1, "invalid variable count: 'x'"),
    ("p wcnf 1 1 5\nx 1 0\n", "clause", 2, "invalid clause weight: 'x'"),
    ("1 1 0\n\n2.5 1 0\n", "clause", 3, "invalid clause weight: '2.5'"),
    ("p wcnf 1 1 5\nh 1 0\n", "clause", 2, "invalid clause weight: 'h'"),
    ("p wcnf 2 1 5\n5 1 a 0\n", "clause", 2, "invalid literal: 'a'"),
    ("h 1 a 0\n", "clause", 1, "invalid literal: 'a'"),
    ("p cnf 1 1\n1 0\n", "header", 1, "malformed header: 'p cnf 1 1'"),
    ("pwcnf 1 1 5\n1 1 0\n", "header", 1, "clause before 'p wcnf' header"),
    ("p wcnf 2 1 5\n0 3 0\n", "var-range", 2, "variable 3 exceeds declared count 2"),
    ("x 1\n", "clause", 1, "invalid clause weight: 'x'"),
    ("1 1 0\n0 1\n", "terminator", 2, "clause line missing terminating 0"),
    ("h 99999999999 0\n", "var-range", 1, "variable 99999999999 exceeds 2147483646"),
    ("c x\n1 -2147483647 0\n", "var-range", 2, "variable 2147483647 exceeds 2147483646"),
    ("p wcnf 1 x 5\n1 1 0\n", "header", 1, "invalid clause count: 'x'"),
    ("p wcnf 99999999999 1 5\n1 1 0\n", "header", 1,
     "variable count 99999999999 exceeds 2147483646"),
]


@pytest.mark.parametrize("text, kind, line_no, message", PARSE_ERRORS)
def test_parse_error_kind_line_and_message(text, kind, line_no, message):
    with pytest.raises(ParseError) as exc:
        parse_wcnf(text)
    assert (exc.value.kind, exc.value.line_no, str(exc.value)) == \
        (kind, line_no, f"line {line_no}: {message}")


@pytest.mark.parametrize("text", [row[0] for row in PARSE_ERRORS])
def test_bulk_parser_leaves_every_error_to_the_line_parser(text):
    with pytest.raises((ValueError, OverflowError)) as exc:
        _parse_bulk(text)
    assert not isinstance(exc.value, ParseError)


def test_variable_counts_are_checked_before_any_allocation():
    # Under a 1 GB address-space limit: a count at the 32-bit limit parses
    # (nothing is allocated per variable), one above it is a ParseError.
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from spbmaxsat.formula import ParseError, parse_wcnf\n"
        "assert parse_wcnf(b'p wcnf 2147483646 1 5\\n1 -2147483646 0\\n').num_vars == 2147483646\n"
        "for text in (b'h 99999999999 0\\n', b'p wcnf 99999999999 1 5\\n1 1 0\\n'):\n"
        "    try:\n"
        "        parse_wcnf(text)\n"
        "    except ParseError:\n"
        "        continue\n"
        "    sys.exit('no ParseError')\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr


# --- the bulk parser against Formula built from the same clause lists ------

CLAUSE = st.lists(st.integers(-9, 9).filter(bool), max_size=5)  # repeats, tautologies, empty
NOISE = st.sampled_from(["c comment", "  c indented 1 0", "\tc", "c h 1 0", "", "  ", "\t",
                         "c café \udc80"])
SEP = st.sampled_from([" ", "\t", "  ", " \t "])
EOLS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x85", "\u2028"]


@st.composite
def wcnf_texts(draw):
    """(text, expected Formula, plain): random clause lists written in
    either format, with comments, blank lines, tabs and the line breaks of
    str.splitlines() mixed in; plain when no clause is empty or repeats a
    variable."""
    hard = draw(st.lists(CLAUSE, max_size=8))
    soft = draw(st.lists(st.tuples(st.integers(1, 50), CLAUSE), max_size=8))
    classic = draw(st.booleans())
    used = max((abs(lit) for lits in hard + [c for _, c in soft] for lit in lits), default=0)
    n = used + draw(st.integers(0, 3)) if classic else used
    top = sum(w for w, _ in soft) + 1
    rows = [[str(top) if classic else "h", *map(str, lits), "0"] for lits in hard]
    soft_rows = iter([[str(w), *map(str, lits), "0"] for w, lits in soft])
    hard_rows = iter(rows)
    # Interleave the kinds, keeping the order within each.
    order = draw(st.permutations([0] * len(hard) + [1] * len(soft)))
    body = [next(soft_rows) if kind else next(hard_rows) for kind in order]
    if classic:
        body.insert(0, ["p", "wcnf", str(n), str(len(hard) + len(soft)), str(top)])
    lines = []
    for tokens in body:
        lines += draw(st.lists(NOISE, max_size=2))
        sep = draw(SEP)
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + sep.join(tokens)
                     + draw(st.sampled_from(["", " ", "\t"])))
    lines += draw(st.lists(NOISE, max_size=2))
    eols = draw(st.lists(st.sampled_from(EOLS), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(line + eol for line, eol in zip(lines, eols))
    if text and draw(st.booleans()):
        text = text[:-len(eols[-1])]  # no line break after the last line
    plain = all(lits and len(set(map(abs, lits))) == len(lits)
                for lits in hard + [c for _, c in soft])
    return text, Formula(n, hard, soft), plain


def formula_fields(f: Formula):
    return (f.num_vars, f.hard, f.soft, f.soft_weights, f.soft_base, f.has_empty_hard,
            f.total_soft_weight)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(wcnf_texts())
def test_both_parsers_read_what_formula_builds_from_the_lists(case):
    text, expected, plain = case
    want = formula_fields(expected)
    if plain:
        assert formula_fields(_parse_bulk(text)) == want
    else:
        # An empty clause or a repeated variable is left to the line parser.
        with pytest.raises(ValueError):
            _parse_bulk(text)
    assert formula_fields(_parse_lines(text)) == want
    assert formula_fields(parse_wcnf(text)) == want


def test_bulk_parser_reads_many_chunks(monkeypatch):
    import spbmaxsat.formula as formula

    rng = random.Random(4)
    n, hard, soft = random_parts(rng, min_vars=50, max_vars=50, min_clauses=400,
                                 max_clauses=400)
    text = render_new(n, hard, soft)
    expected = formula_fields(_parse_bulk(text))
    monkeypatch.setattr(formula, "_CHUNK", 64)
    assert formula_fields(_parse_bulk(text)) == expected
    assert formula_fields(_parse_bulk(text.replace("h", "c x\nh", 9))) == expected


def test_formulas_sharing_clauses_get_their_own_occurrence_lists(monkeypatch):
    monkeypatch.setattr(kernel, "load", lambda: None)
    c = Clauses()
    c.add([1, 2])
    assert len(Formula(2, c, []).occ_hard_pos) == 3
    f = Formula(5, c, [(1, [5])])
    assert f.occ_hard_pos == ((), (0,), (0,), (), (), ())
    assert solve(f, SolverConfig(max_flips=10)).best_cost == 0


class TestEvaluation:
    def test_obj_examples(self):
        f = parse_wcnf(F1_OLD)
        assert f.obj(a(1, 0)) == 2
        assert f.obj(a(0, 1)) == 5

    def test_obj_no_soft(self):
        f = Formula(2, [[1, 2]], [])
        assert f.obj(a(0, 0)) == 0

    def test_cost_examples(self):
        f = parse_wcnf(F1_OLD)
        assert f.cost(a(1, 0)) == 2
        assert f.cost(a(0, 0)) == INF

    def test_cost_without_hard_clauses(self):
        f = Formula(2, [], [(2, [-1]), (5, [-2])])
        for values in ([0, 0], [0, 1], [1, 0], [1, 1]):
            va = [0, *values]
            assert f.cost(va) == f.obj(va)

    def test_obj_plus_satisfied_equals_total(self):
        rng = random.Random(11)
        for _ in range(30):
            n, hard, soft = random_parts(rng)
            f = Formula(n, hard, soft)
            values = [0] + [rng.randint(0, 1) for _ in range(n)]
            satisfied = sum(
                w for lits, w in zip(f.soft, f.soft_weights)
                if f.clause_satisfied(lits, values)
            )
            assert f.obj(values) + satisfied == f.total_soft_weight

    def test_cost_infinite_iff_hard_falsified(self):
        rng = random.Random(12)
        for _ in range(30):
            n, hard, soft = random_parts(rng)
            f = Formula(n, hard, soft)
            values = [0] + [rng.randint(0, 1) for _ in range(n)]
            falsified = any(
                not f.clause_satisfied(lits, values) for lits in f.hard
            )
            assert (f.cost(values) == INF) == falsified

    def test_pms_classification(self):
        rng = random.Random(13)
        n, hard, soft = random_parts(rng, unit_weights=True)
        assert Formula(n, hard, soft).is_pms
        weighted = Formula(2, [], [(2, [1]), (1, [2])])
        assert not weighted.is_pms


class TestFormatEquivalence:
    def test_fifty_random_instances_round_trip(self):
        rng = random.Random(99)
        for _ in range(50):
            n, hard, soft = random_parts(rng)
            # The headerless format cannot express trailing unused variables,
            # so render with the highest variable actually mentioned.
            n = max(abs(l) for lits in hard + [c for _, c in soft] for l in lits)
            old = parse_wcnf(render_old(n, hard, soft))
            new = parse_wcnf(render_new(n, hard, soft))
            assert old.num_vars == new.num_vars
            assert old.hard == new.hard
            assert old.soft == new.soft
            assert old.soft_weights == new.soft_weights
            assert old.total_soft_weight == new.total_soft_weight
