"""The C search kernel against the Python body it ports.

The differential tests start both backends from one formula and seed (the
kernel builds its own start state, Python runs decimation_init or
random_init and builds a SearchState), compare every field of the state
and the Mersenne Twister state (the kernel's arrays read from its one
buffer through st's pointers), then advance both by the same random chunk
sizes, the way solve does, comparing again after each chunk. The parser tests
compare kernel.parse with the Python parser on the texts that
test_formula.py draws. The CLI tests run `solve` on a private copy of the
package, so that they control its build cache.
"""
from __future__ import annotations

import ctypes
import mmap
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Callable, Optional
from unittest import mock

import pytest
from hypothesis import given, settings

from spbmaxsat import kernel, pywalk
from spbmaxsat.common import MODES
from spbmaxsat.formula import Clauses, Formula, ParseError, load_wcnf, parse_wcnf
from spbmaxsat.pywalk import _PythonWalk
from spbmaxsat.search import INITS, SolverConfig, solve

from gen import random_parts, render_new, render_old
from test_formula import EOLS, PARSE_ERRORS, ROW_ERRORS, wcnf_texts

PACKAGE = Path(kernel.__file__).parent

INSTANCES = {
    "suite": dict(),  # random_parts' default: 8-18 variables
    "weighted-200": dict(min_vars=200, max_vars=200, min_clauses=800, max_clauses=800,
                         max_weight=1000),
    "unit-200": dict(min_vars=200, max_vars=200, min_clauses=800, max_clauses=800,
                     unit_weights=True),
    # Clauses of up to 12 literals, enough of them to keep every run going:
    # each run leaves thousands of clauses longer than 4 with one true
    # literal (2 -> 1) and gives them a second (1 -> 2).
    "long": dict(min_vars=30, max_vars=40, min_clauses=300, max_clauses=400, max_len=12),
}


@pytest.fixture(scope="module")
def lib():
    lib = kernel.load()
    assert lib is not None, "the C kernel did not build or load"
    return lib


def assert_same_state(c: kernel.Walk, py: _PythonWalk) -> None:
    s, st = py.state, c.st
    vars_ = st.num_vars + 1
    assert c.view(st.values, "i", vars_).tolist() == s.values
    assert c.view(st.flip_stamp, "q", vars_).tolist() == s.flip_stamp
    assert c.view(st.hscore, "d", vars_).tolist() == s.hscore
    assert c.view(st.softdelta, "q", vars_).tolist() == s.softdelta
    assert c.view(st.hard_weight, "d", st.hard.num_clauses).tolist() == s.hard_weight
    for k, count, sat_xor, fal in (
            (st.hard, s.sat_count_hard, s.sat_xor_hard, s.falsified_hard),
            (st.soft, s.sat_count_soft, s.sat_xor_soft, s.falsified_soft)):
        m = k.num_clauses
        assert c.view(k.sat_count, "i", m).tolist() == count
        assert c.view(k.sat_xor, "i", m).tolist() == sat_xor
        assert c.view(k.falsified, "i", k.num_falsified).tolist() == fal.members
        assert c.view(k.falsified_pos, "i", m).tolist() == fal.pos
    assert c.view(st.goodvars, "i", st.num_goodvars).tolist() == s.goodvars.members
    assert c.view(st.goodvars_pos, "i", vars_).tolist() == s.goodvars.pos
    assert (st.step, st.current_obj, st.max_hard_weight, st.spb_weight) == \
        (s.step, s.current_obj, s.max_hard_weight, s.spb.weight)
    assert c.cost() == py.cost()
    assert tuple(c.view(st.mt, "I", kernel.MT_WORDS)) == py.rng.getstate()[1]


def start_both(f: Formula, cfg: SolverConfig):
    """The kernel's start state and the Python body's, from one seed."""
    c, py = kernel.start(f, cfg), pywalk.start(f, cfg)
    assert_same_state(c, py)
    return c, py


def run_both(f: Formula, cfg: SolverConfig, flips: int,
             chunk: Callable[[_PythonWalk], int],
             started: Callable[[kernel.Walk, _PythonWalk], None] = lambda c, py: None) -> int:
    """Advance both backends from one start through flips, in chunks of
    chunk(Python walk) flips, with solve's improvement bookkeeping between
    chunks; returns the number of chunks compared. started(kernel walk,
    Python walk) is called once both have started."""
    cfg = cfg.resolve(f)
    c, py = start_both(f, cfg)
    started(c, py)
    best = float("inf")
    done = compared = 0
    while done < flips:
        cost = py.cost()
        if cost < best:
            best = cost
            py.set_bound(cost)
            c.set_bound(cost)
            if cost == 0:
                break
        n = min(chunk(py), flips - done)
        result = py.advance(n)
        assert c.advance(n) == result
        assert_same_state(c, py)
        compared += 1
        done += result[0]
        if result[1]:
            break
    return compared


@pytest.mark.parametrize("preset", ["pms", "wpms"])
@pytest.mark.parametrize("init", INITS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("instance", sorted(INSTANCES))
def test_kernel_state_matches_python_body(lib, instance, mode, init, preset):
    rng = random.Random(f"{instance}-{mode}-{init}-{preset}")
    count, flips = (4, 1500) if instance == "suite" else (1, 5000)
    compared = 0
    for i in range(count):
        n, hard, soft = random_parts(rng, **INSTANCES[instance])
        cfg = SolverConfig(mode=mode, init=init, preset=preset, seed=i + 1,
                           decay_threshold=300, max_flips=flips)
        compared += run_both(Formula(n, hard, soft), cfg, flips, lambda _: rng.randint(1, 700))
    assert compared >= count


@pytest.mark.parametrize("k", [1, 2, 97, 1500])
def test_bms_pick_matches_python_flip_by_flip(lib, k):
    """Both backends one flip at a time, from starts of many positive-score
    variables: the kernel's pick scores a set of at most 64 members once its
    samples have drawn them all and skips the rest of the draws, and draws
    and prefetches a larger set's samples in batches. k = 1500 skips past a
    twist of the Mersenne Twister within one pick."""
    sizes = set()

    def one_flip(py: _PythonWalk) -> int:
        sizes.add(len(py.state.goodvars.members))
        return 1

    rng = random.Random(f"bms-{k}")
    for i, init in enumerate(INITS):
        n, hard, soft = random_parts(rng, min_vars=400, max_vars=400, min_clauses=1600,
                                     max_clauses=1600, max_weight=1000)
        cfg = SolverConfig(k=k, init=init, seed=i + 1, decay_threshold=300, max_flips=600)
        run_both(Formula(n, hard, soft), cfg, 600, one_flip)
    assert {63, 64, 65} <= sizes, sorted(sizes)


@pytest.mark.parametrize("index", [616, 618, 620, 622])
@pytest.mark.parametrize("k", [1, 3, 4, 5, 97, 128, 129])
def test_bms_pick_draws_across_a_twist(lib, k, index):
    """The first pick samples more than 64 members from MT index `index`, so
    that its draws reach the twist four samples (eight words) at a time, one
    at a time or both, in a batch or in the tail after one; later picks meet
    twists where the stream puts them. Each flip compares the pick (the
    flipped variable), the MT words and the state with the Python body."""
    def at_index(c: kernel.Walk, py: _PythonWalk) -> None:
        assert c.st.num_goodvars > 64
        mt = c.view(c.st.mt, "I", kernel.MT_WORDS)
        mt[-1] = index
        py.rng.setstate((3, tuple(mt), None))

    rng = random.Random(f"twist-{k}-{index}")
    n, hard, soft = random_parts(rng, min_vars=400, max_vars=400, min_clauses=1600,
                                 max_clauses=1600, max_weight=1000)
    cfg = SolverConfig(k=k, init="random", seed=index, decay_threshold=300, max_flips=40)
    assert run_both(Formula(n, hard, soft), cfg, 40, lambda _: 1, started=at_index) == 40


SEEDS = [0, 1, -1, -7, 2**32 - 1, 2**32, 2**64 + 3, 2**200 + 7]


@pytest.mark.parametrize("seed", SEEDS)
def test_kernel_seeds_the_mersenne_twister_as_random_does(lib, seed):
    """kn_seed ports CPython's random_seed: from abs(seed)'s 32-bit words,
    one word or many, the state words and the index of Random(seed). The
    walks of a seed share its words, which none of them changes."""
    words = random.Random(seed).getstate()[1]
    empty = Formula(0, [], [])  # random init draws nothing
    walk = kernel.start(empty, SolverConfig(seed=seed, init="random", max_flips=0).resolve(empty))
    assert tuple(walk.view(walk.st.mt, "I", kernel.MT_WORDS)) == words
    n, hard, soft = random_parts(random.Random(seed))
    f = Formula(n, hard, soft)
    for init in INITS:  # compares the words after each init's draws
        start_both(f, SolverConfig(seed=seed, init=init, max_flips=0).resolve(f))
    assert tuple(kernel._seeded(lib, seed)) == words


@pytest.mark.parametrize("seed", [-3, 2**70 + 1])
def test_kernel_matches_python_body_at_negative_and_wide_seeds(lib, seed):
    rng = random.Random(f"seed-{seed}")
    n, hard, soft = random_parts(rng, **INSTANCES["weighted-200"])
    cfg = SolverConfig(seed=seed, decay_threshold=300, max_flips=3000)
    assert run_both(Formula(n, hard, soft), cfg, 3000, lambda _: rng.randint(1, 700)) > 1


def carved(walk: kernel.Walk):
    """(address, bytes) of each array that kn_setup carves for walk, with
    the length that the search uses."""
    st, f = walk.st, walk.formula
    vars_ = st.num_vars + 1
    out = []
    for k, clauses in ((st.hard, f.hard), (st.soft, f.soft)):
        m = k.num_clauses
        out += [(k.occ_off, 4 * (2 * vars_ + 1)), (k.occ, 4 * len(clauses.lits)),
                (k.sat_count, 4 * m), (k.sat_xor, 4 * m),
                (k.falsified, 4 * m), (k.falsified_pos, 4 * m)]
    touched = len(f.hard.lits) + len(f.soft.lits) + vars_
    out += [(st.values, 4 * vars_), (st.flip_stamp, 8 * vars_), (st.hscore, 8 * vars_),
            (st.softdelta, 8 * vars_), (st.hard_weight, 8 * st.hard.num_clauses),
            (st.goodvars, 4 * vars_), (st.goodvars_pos, 4 * vars_),
            (st.mt, 4 * kernel.MT_WORDS),
            (st.touched, 4 * touched)]
    return out


def align64(address: int) -> int:
    return (address + 63) & ~63


_N, _HARD, _SOFT = random_parts(random.Random(11), **INSTANCES["weighted-200"])
BUFFER_SHAPES = {"no soft clauses": (_N, _HARD, []),
                 "no hard clauses": (_N, [], _SOFT),
                 "variables in no clause": (_N + 3, _HARD, _SOFT)}


@pytest.mark.parametrize("shape", sorted(BUFFER_SHAPES))
@pytest.mark.parametrize("init", INITS)
def test_kernel_carves_its_arrays_from_one_buffer(lib, shape, init):
    """Each array starts at the first 64-byte boundary after the one before
    (in address order): they are aligned, disjoint and no longer than the
    search needs, plus padding. The buffer holds them all, with less than 64
    bytes to spare. The padding stays zero through the setup and keeps a
    marker through the run, so nothing is written beyond those lengths."""
    assert type(check_carving(shape, init)) is bytearray  # below ARENA_MMAP


@pytest.mark.parametrize("shape", sorted(BUFFER_SHAPES))
@pytest.mark.parametrize("init", INITS)
def test_kernel_carves_its_arrays_from_an_mmap_arena(lib, shape, init, monkeypatch):
    """The same on the arena of a large instance: an anonymous mmap."""
    monkeypatch.setattr(kernel, "ARENA_MMAP", 0)
    assert type(check_carving(shape, init)) is mmap.mmap


def check_carving(shape: str, init: str):
    """Run test_kernel_carves_its_arrays_from_one_buffer's checks on one
    shape; returns the walk's arena."""
    f = Formula(*BUFFER_SHAPES[shape])
    walks = []

    def check_and_mark(c: kernel.Walk, _py) -> None:
        base, size = c._base, len(c.arena)
        end, padding = base, []
        for address, n in sorted(carved(c)):
            assert address == align64(end)
            padding.append((end - base, address - base))
            end = address + n
        assert end <= base + size < end + 64
        padding.append((end - base, size))
        for a, b in padding:
            assert not any(c.arena[a:b])
            c.arena[a:b] = b"\xa5" * (b - a)
        walks.append((c, padding))

    cfg = SolverConfig(init=init, seed=4, decay_threshold=300, max_flips=2000)
    run_both(f, cfg, 2000, lambda _: 250, started=check_and_mark)
    (c, padding), = walks
    assert all(c.arena[a:b] == b"\xa5" * (b - a) for a, b in padding)
    return c.arena


@pytest.mark.parametrize("arena", ["bytearray", "mmap"])
def test_kernel_matches_python_body_on_either_arena(lib, arena, monkeypatch):
    """A differential run on each arena type; ARENA_MMAP = 0 maps every one."""
    if arena == "mmap":
        monkeypatch.setattr(kernel, "ARENA_MMAP", 0)
    types = set()
    rng = random.Random(f"arena-{arena}")
    for i, init in enumerate(INITS):
        n, hard, soft = random_parts(rng, **INSTANCES["weighted-200"])
        cfg = SolverConfig(init=init, seed=i + 1, decay_threshold=300, max_flips=3000)
        run_both(Formula(n, hard, soft), cfg, 3000, lambda _: rng.randint(1, 700),
                 started=lambda c, _py: types.add(type(c.arena).__name__))
    assert types == {arena}


# Many unit clauses: decimation's hard queue and soft draws do most of the work.
UNIT_HEAVY = dict(min_vars=300, max_vars=300, min_clauses=900, max_clauses=900, max_weight=50)


@pytest.mark.parametrize("preset", ["pms", "wpms"])
@pytest.mark.parametrize("init", INITS)
def test_kernel_start_state_matches_python_init(lib, init, preset):
    rng = random.Random(f"start-{init}-{preset}")
    shapes = [dict(), INSTANCES["weighted-200"], INSTANCES["unit-200"], UNIT_HEAVY]
    for i, shape in enumerate(shapes * 3):
        n, hard, soft = random_parts(rng, **shape)
        if shape is UNIT_HEAVY:
            hard = [lits[:1] if j % 3 == 0 else lits for j, lits in enumerate(hard)]
            soft = [(w, lits[:1]) if j % 2 == 0 else (w, lits) for j, (w, lits) in enumerate(soft)]
        f = Formula(n, hard, soft)
        cfg = SolverConfig(init=init, preset=preset, seed=i + 1, max_flips=0).resolve(f)
        start_both(f, cfg)


def test_kernel_path_builds_no_python_clause_views(lib, monkeypatch):
    n, hard, soft = random_parts(random.Random(6), **INSTANCES["weighted-200"])
    f = parse_wcnf(render_old(n, hard, soft))
    monkeypatch.setattr(pywalk, "SearchState", None)  # a call would fail
    assert solve(f, SolverConfig(max_flips=2000)).backend == "c"
    for kind in (f.hard, f.soft):
        assert (kind._rows, kind._vars, kind._occ) == (None, None, None)


def test_parse_after_load_does_not_stat_the_library(lib, monkeypatch):
    monkeypatch.setattr(kernel, "library_path", None)  # a call would fail
    assert kernel.parse(b"p wcnf 2 2 9\n9 1 2 0\n4 -1 0\n") is not None


def test_start_declines_counts_beyond_32_bits(lib, monkeypatch):
    n, hard, soft = random_parts(random.Random(1))
    f = Formula(n, hard, soft)
    cfg = SolverConfig(max_flips=10).resolve(f)
    assert kernel.start(f, cfg) is not None
    monkeypatch.setattr(kernel, "INT32_MAX", n)
    assert kernel.start(f, cfg) is None


def test_layer_split_counts_every_part_of_an_unchanged_run(lib):
    n, hard, soft = random_parts(random.Random(9), **INSTANCES["unit-200"])
    f = Formula(n, hard, soft)
    cfg = SolverConfig(max_flips=4000, seed=2, decay_threshold=300)
    assert kernel.PARTS == ("bms_pick", "pick_from_falsified", "flip", "spb_weighting")
    plain = kernel.start
    split = kernel.layer_split(f, cfg)
    assert kernel.start is plain
    expected = solve(f, cfg)
    assert (split["flips"], split["backend"]) == (expected.flips, "c")
    calls = {part: split[part]["calls"] for part in kernel.PARTS}
    assert calls["flip"] == calls["bms_pick"] + calls["pick_from_falsified"] == expected.flips
    assert calls["spb_weighting"] == calls["pick_from_falsified"] > 0
    assert all(split[part]["us_per_call"] > 0 for part in kernel.PARTS)


# --- the C parser against the Python one ----------------------------------

def parse_fields(f: Formula):
    """Everything that parse_wcnf builds: num_vars and both Clauses' fields."""
    assert f.max_soft_weight == max(f.soft_weights, default=0)
    return (f.num_vars, *((c.lits, c.off, c.weights, c.empty, c.dropped, c.total, c.max_var,
                           c.max_weight) for c in (f.hard, f.soft)))


def python_parse(text: str):
    """The Python parser's fields for text, or the kind of its ParseError."""
    with mock.patch.object(kernel, "load", lambda: None):
        try:
            return parse_fields(parse_wcnf(text))
        except ParseError as exc:
            return exc.kind


def c_parse(text: str):
    """kernel.parse's fields for text, or None when it declines."""
    parsed = kernel.parse(text.encode("utf-8", "surrogatepass"))
    return None if parsed is None else parse_fields(Formula(*parsed))


def c_reads(text: str) -> bool:
    """Whether kn_parse reads every byte of text: ASCII, and no line break
    or whitespace that only Python reads."""
    return text.isascii() and not any(ch in text for ch in "\v\f\x1c\x1d\x1e\x1f")


def made_c_readable(text: str) -> str:
    """text with each line break that kn_parse does not read made "\n" and
    each other character that it does not read (they are all in comments)
    made "x"."""
    return "".join(ch if c_reads(ch) else "\n" if ch in EOLS else "x" for ch in text)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(wcnf_texts())
def test_c_parser_builds_what_the_python_parser_does(lib, case):
    # It declines exactly on errors and on bytes that it does not read.
    for text in (case[0], made_c_readable(case[0])):
        expected = python_parse(text)
        if isinstance(expected, str) or not c_reads(text):
            assert c_parse(text) is None
        else:
            assert c_parse(text) == expected


ERROR_TEXTS = [text for text, *_ in PARSE_ERRORS] + [
    render(n, hard, soft) for n, hard, soft, kind in ROW_ERRORS
    for render in ([render_old] if kind == "var-range" else [render_old, render_new])]


@pytest.mark.parametrize("text", ERROR_TEXTS)
def test_c_parser_declines_on_every_error(lib, text):
    assert isinstance(python_parse(text), str)
    assert c_parse(text) is None


def long_row(tail):
    return "h " + " ".join(map(str, [*range(1, 40), *tail])) + " 0\n"


N, HARD, SOFT = random_parts(random.Random(7), **INSTANCES["weighted-200"])
BIG = 2**63 - 1
PLAIN_TEXTS = {
    "classic": render_old(N, HARD, SOFT),
    "headerless": render_new(N, HARD, SOFT),
    "crlf": render_old(N, HARD, SOFT).replace("\n", "\r\n"),
    "cr": render_new(N, HARD, SOFT).replace("\n", "\r"),
    "tabs, comments, no final break": "c x\n\tc y 1 0\n\n h\t1 \t-2 0 \t\n3 2 0",
    "repeated variables": "h 1 1 2 0\n3 2 -3 2 0\n4 -1 -1 0\n",
    "tautologies": "p wcnf 3 3 9\n9 1 -1 0\n4 2 3 -2 0\n3 2 0\n",
    "empty clauses": "h 0\n5 0\n1 1 0\n",
    "long rows": long_row([5, 7, 39]) + long_row([-8]) + "2 -3 0\n",
    "leading zeros": "p wcnf 003 2 010\n010 01 -002 0\n007 03 0\n",
    "63-bit weights": f"{BIG} 1 0\nh -1 2 0\n",
    "63-bit weights, classic": f"p wcnf 2 3 {BIG + 1}\n{BIG + 1} 1 0\n{BIG - 1} -1 0\n1 2 0\n",
    "19-digit hard weight": f"p wcnf 1 1 5\n{BIG} 1 0\n",
}


@pytest.mark.parametrize("name", PLAIN_TEXTS)
def test_c_parser_reads_plain_text(lib, name):
    text = PLAIN_TEXTS[name]
    expected = python_parse(text)
    assert not isinstance(expected, str)
    assert c_parse(text) == expected


# --- one pass, grown and resumed ------------------------------------------

def c_parse_at(capacity: int, text: str):
    """c_parse with PARSE_CAPACITY items in each array at first."""
    with mock.patch.object(kernel, "PARSE_CAPACITY", capacity):
        return c_parse(text)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(wcnf_texts())
def test_c_parser_grows_and_resumes_row_by_row(lib, case):
    # With room for one item at first, every row that is stored grows an
    # array and resumes kn_parse at its start.
    for text in (case[0], made_c_readable(case[0])):
        assert c_parse_at(1, text) == c_parse(text)


@pytest.mark.parametrize("text", [*PLAIN_TEXTS.values(), *ERROR_TEXTS],
                         ids=[*PLAIN_TEXTS, *(f"error-{i}" for i in range(len(ERROR_TEXTS)))])
def test_c_parser_reads_the_same_when_every_row_grows_an_array(lib, text):
    assert c_parse_at(1, text) == c_parse(text)


def test_c_parser_grows_an_array_for_a_row_longer_than_the_text_read(lib):
    # A long row after short ones: its literals are more than any estimate
    # from the rows before it.
    text = "h 1 2 0\n" * 3 + long_row(range(40, 400))
    assert c_parse_at(4, text) == c_parse_at(1 << 20, text) == python_parse(text)


def guarded_parse(text: bytes):
    """kernel.parse of text placed so that it ends where a PROT_NONE page
    begins: a read past its end faults."""
    page = mmap.PAGESIZE
    assert len(text) <= page
    buf = mmap.mmap(-1, 2 * page)
    base = ctypes.addressof(ctypes.c_char.from_buffer(buf))
    libc = ctypes.CDLL(None, use_errno=True)
    libc.mprotect.argtypes = [ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int]
    prot_none = 0
    assert libc.mprotect(base + page, page, prot_none) == 0, os.strerror(ctypes.get_errno())
    start = base + page - len(text)
    ctypes.memmove(start, text, len(text))
    lib = kernel.load()

    class Guarded:  # kn_parse on the guarded copy of the bytes it is given
        def kn_parse(self, data, n, out):
            assert data == text
            return lib.kn_parse(ctypes.cast(start, ctypes.c_char_p), n, out)

    with mock.patch.object(kernel, "load", Guarded):
        return kernel.parse(text)


GUARDED_TEXTS = {
    "digit": "p wcnf 3 2 9\n9 1 -2 0\n4 3 0",
    "digit, declined": "h 1 2 0\nh 1 2",
    "long number, declined": "h 1 0\n3 " + "0" * 30 + "1",
    "blank": "h 1 2 0\n5 -1 0 \t ",
    "cr": "h 1 2 0\r\n5 -1 0\r",
    "comment": "h 1 2 0\n5 -1 0\nc last line",
    "only a comment": "c x",
    "header": "p wcnf 3 0 9",
    "h": "h",
    "empty": "",
}


@pytest.mark.parametrize("capacity", [1, 1 << 14])
@pytest.mark.parametrize("name", GUARDED_TEXTS)
def test_c_parser_reads_no_byte_past_the_text(lib, name, capacity, monkeypatch):
    monkeypatch.setattr(kernel, "PARSE_CAPACITY", capacity)
    text = GUARDED_TEXTS[name]
    fields = guarded_parse(text.encode())
    assert (None if fields is None else parse_fields(Formula(*fields))) == c_parse(text)


def test_parse_wcnf_and_load_wcnf_use_the_c_parser(lib, tmp_path):
    text = PLAIN_TEXTS["classic"]
    path = tmp_path / "f.wcnf"
    path.write_text(text)
    expected = python_parse(text)
    with mock.patch.object(Clauses, "add", side_effect=AssertionError("the Python parser ran")):
        for source in (text, text.encode()):
            assert parse_fields(parse_wcnf(source)) == expected
        assert parse_fields(load_wcnf(path)) == expected


# --- the build cache and the fallback, through the CLI ---------------------

def copy_package(dest: Path) -> Path:
    """The package sources without any build cache; returns the path entry."""
    pkg = dest / "spbmaxsat"
    pkg.mkdir(parents=True)
    for src in [*PACKAGE.glob("*.py"), kernel.SOURCE]:
        shutil.copy(src, pkg)
    return dest


def cli(path_entry: Path, *args: str, cc: Optional[str] = None) -> subprocess.CompletedProcess:
    """Run the CLI from path_entry, with $CC set to cc when it is given."""
    env = dict(os.environ, PYTHONPATH=str(path_entry), PYTHONDONTWRITEBYTECODE="1")
    if cc is not None:
        env["CC"] = cc
    out = subprocess.run([sys.executable, "-m", "spbmaxsat.cli", *args], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out


def cli_solve(path_entry: Path, instance: Path, cc: Optional[str] = None):
    out = cli(path_entry, "solve", str(instance), "--max-flips", "3000", "--seed", "3", cc=cc)
    backend = out.stderr.split("backend=")[1].split()[0]
    return out.stdout, backend


@pytest.fixture(scope="module")
def instance(tmp_path_factory):
    n, hard, soft = random_parts(random.Random(5), **INSTANCES["weighted-200"])
    path = tmp_path_factory.mktemp("kernel") / "w200.wcnf"
    path.write_text(render_old(n, hard, soft))
    return path


def test_second_process_uses_the_cached_build(tmp_path, instance, monkeypatch):
    entry = copy_package(tmp_path / "pkg")
    cc = tmp_path / "cc"
    cc.write_text('#!/bin/sh\nexec cc "$@"\n')
    cc.chmod(0o755)
    first, backend = cli_solve(entry, instance, cc=str(cc))
    assert backend == "c"
    built = sorted(p.name for p in (entry / "spbmaxsat" / "__pycache__").iterdir())
    monkeypatch.setenv("CC", str(cc))
    assert built == [kernel.library_path().name]
    # The same $CC now fails any compile: the C backend comes from the cache.
    cc.write_text("#!/bin/sh\nexit 1\n")
    assert cli_solve(entry, instance, cc=str(cc)) == (first, "c")


def test_cc_is_part_of_the_cache_key(monkeypatch):
    def path(cc: str) -> Path:
        monkeypatch.setenv("CC", cc)
        return kernel.library_path()

    plain, ubsan = path("cc"), path("cc -fsanitize=undefined")
    assert plain != ubsan
    assert path("cc") == plain and path("cc -fsanitize=undefined") == ubsan
    monkeypatch.delenv("CC")
    assert kernel.library_path() == plain  # $CC defaults to cc


def test_help_and_oracle_compile_nothing(tmp_path, instance):
    """Importing the package, --help and the oracle (which parses in Python
    then) build no kernel; solve builds and uses it."""
    entry = copy_package(tmp_path)
    small = tmp_path / "small.wcnf"
    small.write_text("p wcnf 2 3 10\n10 1 2 0\n2 -1 0\n5 -2 0\n")
    assert "usage" in cli(entry, "--help").stdout
    assert cli(entry, "oracle", str(small)).stdout == "o 2\n"
    assert not list(entry.glob("spbmaxsat/__pycache__/kernel.*"))
    assert cli_solve(entry, instance)[1] == "c"
    assert list(entry.glob("spbmaxsat/__pycache__/kernel.*"))


def test_build_deletes_the_libraries_of_other_sources(tmp_path, instance):
    entry = copy_package(tmp_path)
    cache = entry / "spbmaxsat" / "__pycache__"
    cache.mkdir()
    stale = cache / f"kernel.{'0' * 16}{kernel.library_path().suffixes[-1]}"
    kept = [cache / "kernel.cpython-311.pyc", cache / "search.cpython-311.pyc"]
    for p in [stale, *kept]:
        p.write_bytes(b"")
    assert cli_solve(entry, instance)[1] == "c"
    assert sorted(p.name for p in cache.iterdir()) == \
        sorted([kernel.library_path().name, *(p.name for p in kept)])


@pytest.mark.parametrize("old, new", [
    ("int64_t optimum;", "int32_t optimum;"),
    ("int64_t optimum;", "int64_t optimum[4];"),
    ("int64_t optimum;", "void (*optimum)(void);"),
    ("int64_t optimum;", "struct kind optimum;"),
    ("int64_t optimum;", "int64_t optimum : 1;"),
    ("PART_FLIP, PART_SPB", "PART_FLIP = 2, PART_SPB"),
])
def test_layout_reader_raises_on_a_form_it_does_not_know(old, new):
    text = kernel.SOURCE.read_text()
    assert text.count(old) == 1, old
    with pytest.raises(ValueError):
        kernel._layout(text.replace(old, new))


def test_reordered_fields_in_kernel_c_run_the_same_flips(tmp_path, instance):
    """kernel.py reads the struct layout from kernel.c: fields of one size
    declared in another order must not change a flip."""
    expected, backend = cli_solve(PACKAGE.parent, instance)
    assert backend == "c"
    entry = copy_package(tmp_path)
    source = entry / "spbmaxsat" / kernel.SOURCE.name
    text = source.read_text()
    for old, new in (("int64_t step, current_obj;", "int64_t current_obj, step;"),
                     ("double h_inc, hard_delta, spb_delta, decay_threshold;",
                      "double decay_threshold, spb_delta, hard_delta, h_inc;")):
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    source.write_text(text)
    assert cli_solve(entry, instance) == (expected, "c")


@pytest.mark.parametrize("broken", ["no compiler", "cache is a file"])
def test_fallback_to_python_keeps_stdout(tmp_path, instance, broken):
    expected, backend = cli_solve(PACKAGE.parent, instance)
    assert backend == "c"
    entry = copy_package(tmp_path)
    cc = None
    if broken == "no compiler":
        cc = "false"
    else:
        (entry / "spbmaxsat" / "__pycache__").write_text("")
    assert cli_solve(entry, instance, cc=cc) == (expected, "python")
