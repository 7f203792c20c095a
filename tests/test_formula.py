"""Parsing and evaluation tests for the WCNF instance module."""
from __future__ import annotations

import random
import subprocess
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from spbmaxsat import formula, kernel, pyparse
from spbmaxsat.formula import INF, Clauses, Formula, ParseError, load_wcnf, parse_wcnf
from spbmaxsat.pyparse import _lines
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
        # A str that cannot be encoded as UTF-8 still parses.
        text = "c \udc80\n" + F1_NEW
        assert formula_fields(parse_wcnf(text)) == formula_fields(parse_wcnf(F1_NEW))

    def test_file_line_breaks(self, tmp_path):
        data = F1_OLD.encode().replace(b"\n", b"\r", 2).replace(b"\n", b"\r\n", 1)
        path = tmp_path / "f1.wcnf"
        path.write_bytes(data)
        assert formula_fields(load_wcnf(path)) == formula_fields(parse_wcnf(F1_OLD))

    def test_non_ascii_digit_in_a_literal(self):
        text = "h 1 \u0662 0\n3 -1 0\n"
        assert formula_fields(parse_wcnf(text)) == \
            formula_fields(Formula(2, [[1, 2]], [(3, [-1])]))

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
    ("h 1 00\n", "terminator", 1, "clause line missing terminating 0"),
    ("c x\n3 -1 -0 \n", "terminator", 2, "clause line missing terminating 0"),
    ("h 99999999999 0\n", "var-range", 1, "variable 99999999999 exceeds 2147483646"),
    ("c x\n1 -2147483647 0\n", "var-range", 2, "variable 2147483647 exceeds 2147483646"),
    ("p wcnf 2147483646 1 5\n5 2147483647 0\n", "var-range", 2,
     "variable 2147483647 exceeds declared count 2147483646"),
    ("p wcnf 1 x 5\n1 1 0\n", "header", 1, "invalid clause count: 'x'"),
    ("p wcnf 99999999999 1 5\n1 1 0\n", "header", 1,
     "variable count 99999999999 exceeds 2147483646"),
    ("p wcnf 2147483647 1 5\n", "header", 1, "variable count 2147483647 exceeds 2147483646"),
]


@pytest.mark.parametrize("text, kind, line_no, message", PARSE_ERRORS)
def test_parse_error_kind_line_and_message(text, kind, line_no, message):
    with pytest.raises(ParseError) as exc:
        parse_wcnf(text)
    assert (exc.value.kind, exc.value.line_no, str(exc.value)) == \
        (kind, line_no, f"line {line_no}: {message}")


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
@pytest.mark.parametrize("text, kind, line_no, message", PARSE_ERRORS)
def test_parse_error_line_past_the_first_chunk(monkeypatch, text, kind, line_no, message, eol):
    # Comment and blank lines first, so that the error lies many chunks in.
    monkeypatch.setattr(kernel, "load", lambda: None)  # the Python parser's chunks
    monkeypatch.setattr(pyparse, "_CHUNK", 64)
    prefix = ["c a comment line", "", " \t"] * 100
    with pytest.raises(ParseError) as exc:
        parse_wcnf(eol.join(prefix + text.split("\n")))
    line_no += len(prefix)
    assert (exc.value.kind, exc.value.line_no, str(exc.value)) == \
        (kind, line_no, f"line {line_no}: {message}")


# (num_vars, hard, soft, kind): rows that Formula, built from the lists,
# rejects with the kind and message that the parser gives for the same rows.
ROW_ERRORS = [
    (2, [[1, 0, 2]], [], "terminator"),
    (2, [], [(3, [0])], "terminator"),
    (2, [[1, -3]], [], "var-range"),
    (2, [], [(3, [3, 3])], "var-range"),
    (2, [], [(0, [1])], "soft-weight"),
    (1, [], [(2**63 - 2, [1]), (2, [-1])], "overflow"),
    # The weight of a dropped tautology counts towards the 63-bit total.
    (1, [[1]], [(2**63 - 5, [1, -1]), (10, [1])], "overflow"),
    (1, [], [(1 << 64, [1, -1])], "overflow"),
]


@pytest.mark.parametrize("n, hard, soft, kind", ROW_ERRORS)
def test_formula_rejects_rows_as_the_parser_does(n, hard, soft, kind):
    with pytest.raises(ValueError) as built:
        Formula(n, hard, soft)
    assert isinstance(built.value, ParseError)
    assert (built.value.kind, built.value.line_no) == (kind, None)
    # The headerless format declares no variable count to exceed.
    for render in [render_old] if kind == "var-range" else [render_old, render_new]:
        with pytest.raises(ParseError) as parsed:
            parse_wcnf(render(n, hard, soft))
        assert parsed.value.kind == kind
        assert str(parsed.value) == f"line {parsed.value.line_no}: {built.value}"


class Unreadable:
    """Stands in for the arrays of a Clauses: any read fails."""

    def _fail(self, *args):
        raise AssertionError("read")

    __iter__ = __len__ = __contains__ = __getitem__ = __getattr__ = _fail


def test_formula_takes_clauses_without_reading_their_rows():
    hard, soft = Clauses(), Clauses(weighted=True)
    hard.add([1, -2])
    soft.add([2], 3)
    soft.add([1, -1], 4)
    soft.add([], 5)
    hard.lits = soft.lits = soft.weights = Unreadable()
    f = Formula(2, hard, soft)
    assert (f.total_soft_weight, f.soft_base, f.has_empty_hard) == (8, 5, False)
    # The kernel indexes its values by variable: a larger one is still caught.
    with pytest.raises(ValueError) as exc:
        Formula(1, hard, soft)
    assert (exc.value.kind, str(exc.value)) == ("var-range", "variable 2 exceeds declared count 1")


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


# --- the parser against Formula built from the same clause lists -----------

CLAUSE = st.lists(st.integers(-9, 9).filter(bool), max_size=5)  # repeats, tautologies, empty
NOISE = st.sampled_from(["c comment", "  c indented 1 0", "\tc", "c h 1 0", "", "  ", "\t",
                         "c café \udc80"])
SEP = st.sampled_from([" ", "\t", "  ", " \t "])
EOLS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@st.composite
def wcnf_texts(draw):
    """(text, num_vars, hard, soft): random clause lists, empty clauses and
    repeated variables included, written in either format, with comments,
    blank lines, tabs and the line breaks of str.splitlines() mixed in.
    Some cases hold weights of 0, some weights near 2^63, some a
    classic-format literal above num_vars; never two of these, so that the
    first error is of the same kind whether the rows are read in text order
    or hard ones first."""
    fault = draw(st.sampled_from(["", "", "zero", "big", "range"]))
    weights = st.integers(0 if fault == "zero" else 1, 50)
    if fault == "big":
        weights = st.one_of(weights, st.integers(2**63 - 64, 2**63 + 8))
    hard = draw(st.lists(CLAUSE, max_size=8))
    soft = draw(st.lists(st.tuples(weights, CLAUSE), max_size=8))
    classic = fault == "range" or draw(st.booleans())
    used = max((abs(lit) for lits in hard + [c for _, c in soft] for lit in lits), default=0)
    if fault == "range":
        n = max(used - draw(st.integers(1, 3)), 0)
    else:
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
    return text, n, hard, soft


def formula_fields(f: Formula):
    # The largest stored soft weight is counted as rows are stored, dropped
    # and empty rows left out.
    assert f.max_soft_weight == max(f.soft_weights, default=0)
    return (f.num_vars, f.hard, f.soft, f.soft_weights, f.soft_base, f.has_empty_hard,
            f.total_soft_weight, f.max_soft_weight)


def outcome(build):
    """The fields of the Formula that build() returns, or the kind of the
    ValueError it raises."""
    try:
        return formula_fields(build())
    except ValueError as exc:
        return getattr(exc, "kind", repr(exc))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(wcnf_texts())
def test_parser_reads_what_formula_builds_from_the_lists(case):
    text, n, hard, soft = case
    assert outcome(lambda: parse_wcnf(text)) == outcome(lambda: Formula(n, hard, soft))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(EOLS + ["a", " ", "0"])).map("".join))
def test_chunks_cut_only_after_whole_line_breaks(text):
    for chunk in (1, 2, 3, 64):
        with mock.patch.object(pyparse, "_CHUNK", chunk):
            assert list(_lines(text)) == text.splitlines()


@pytest.mark.parametrize("eol", EOLS)
def test_chunks_stay_small_whatever_the_line_break(monkeypatch, eol):
    monkeypatch.setattr(pyparse, "_CHUNK", 1024)
    text = ("h 1 -2 3 0" + eol) * 5000
    tracemalloc.start()
    try:
        for _ in _lines(text):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(text) / 4  # a chunk's lines, not the whole text's


def test_parser_reads_many_chunks(monkeypatch):
    rng = random.Random(4)
    n, hard, soft = random_parts(rng, min_vars=50, max_vars=50, min_clauses=400,
                                 max_clauses=400)
    text = render_new(n, hard, soft)
    expected = formula_fields(parse_wcnf(text))
    monkeypatch.setattr(kernel, "load", lambda: None)  # the Python parser's chunks
    monkeypatch.setattr(pyparse, "_CHUNK", 64)
    assert formula_fields(parse_wcnf(text)) == expected
    assert formula_fields(parse_wcnf(text.replace("h", "c x\nh", 9))) == expected
    assert formula_fields(parse_wcnf(text.replace("\n", "\r"))) == expected


def test_one_repeated_variable_is_normalized_alone(monkeypatch):
    # The row is handed to Clauses.add as it is read; the text is not read twice.
    monkeypatch.setattr(kernel, "load", lambda: None)  # the Python parser
    rng = random.Random(5)
    n, hard, soft = random_parts(rng, min_vars=50, max_vars=50, min_clauses=400,
                                 max_clauses=400)
    w, lits = soft[-1]
    soft[-1] = (w, lits + lits[:1])
    expected = formula_fields(Formula(n, hard, soft))
    calls = []
    normalize = formula._normalize
    monkeypatch.setattr(formula, "_normalize", lambda lits: calls.append(lits) or normalize(lits))
    assert formula_fields(parse_wcnf(render_new(n, hard, soft))) == expected
    assert calls == [lits + lits[:1]]


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
        # A dropped tautology and an empty soft clause store no weight.
        assert Formula(2, [], [(1, [1]), (9, [2, -2]), (7, [])]).is_pms
        assert Formula(0, [], []).is_pms

    @pytest.mark.parametrize("text", [
        "p wcnf 2 4 100\n1 1 0\n9 2 -2 0\n7 0\n3 -1 2 0\n",
        "1 1 0\n9 2 -2 0\n7 0\n3 -1 2 0\n",
    ])
    def test_max_soft_weight_counts_stored_rows_only(self, text):
        f = parse_wcnf(text)
        assert (list(f.soft_weights), f.max_soft_weight) == ([1, 3], 3)
        cfg = SolverConfig(max_flips=0, decay_threshold=2.0).resolve(f)
        assert cfg.decay_threshold == 6.0


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
