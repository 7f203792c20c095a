"""The C kernel (kernel.c): build and load it, parse WCNF and start a
search in it.

kernel.c alone declares the structs that Python and C share: at import,
the ctypes classes and PARTS are read from its source text, the bytes that
also name the library. A declaration that cannot be read raises.

load() compiles kernel.c once with $CC (default cc) into this package's
__pycache__, named by a checksum of the source, the flags and $CC, and
loads it with ctypes; later processes load the cached library without a
compiler, and a build deletes the libraries of other sources. load()
returns None when anything fails (no compiler, an unwritable cache
directory), and solve then runs the Python reference (pywalk). Importing
the package compiles nothing: solve builds the kernel at its first call,
and the CLI's solve and bench call load() before they start their clocks.

parse() reads WCNF bytes into the arrays of two Clauses in one pass,
growing them when kn_parse stops before a row that does not fit, or
declines and leaves the text to the Python parser; it uses a library that
is built already and never compiles one. start() hands the kernel the
formula's own clause arrays, the Mersenne Twister words of
random.Random(seed) (read once per seed from _random.Random, its C base
class, to which it hands an int seed as it is) and one zeroed buffer that
the kernel carves its arrays from (an anonymous mmap from ARENA_MMAP bytes
on, whose pages the OS zeroes when they are first written); the kernel
copies the words and builds the initial assignment and the search state.
Its run is flip for flip the Python one; tests/test_kernel.py checks it,
and layer_split() times its parts. A run from a cached library imports
no random, mmap only for an arena that large, and none of what _build
imports.
"""
from __future__ import annotations

import _random
import ctypes
import functools
import importlib.machinery
import os
import re
import struct
import zlib
from array import array

from .common import DECAY_FACTOR, EPS, mode_deltas
from .formula import INF, MAX_VARS, Clauses, Formula

SOURCE = os.path.join(os.path.dirname(__file__), "kernel.c")
with open(SOURCE, "rb") as _fh:
    _TEXT = _fh.read()  # read once: the cache key and the layout come from it
# -ffp-contract=off: a fused multiply-add would round differently from Python.
# The -D constants are the Python reference's own values.
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC", f"-DEPS={EPS!r}",
         f"-DDECAY_FACTOR={DECAY_FACTOR!r}", f"-DMAX_VARS={MAX_VARS}")
INT32_MAX = 2**31 - 1
MT_WORDS = 625  # the Mersenne Twister's 624 state words and its index
# An arena this large or larger is an anonymous mmap, zeroed page by page on
# first touch, so that pages the search never writes (much of the touched
# scratch, the falsified sets' tails) cost no memory. A smaller one is a
# bytearray: a 3 KB mmap takes about 12 us to make and write once, a
# bytearray 0.2 us, and a suite of small solves makes hundreds of walks.
ARENA_MMAP = 1 << 20
# The items in each array of a parse before its first growth (see parse).
PARSE_CAPACITY = 1 << 14
_FULL = 2  # kn_parse's return when a row does not fit

_SCALARS = {"int64_t": ctypes.c_int64, "double": ctypes.c_double}


def _layout(text: str) -> tuple[tuple[str, ...], dict[str, type]]:
    """The part names of the PART_ enum in kernel.c's text, and a ctypes
    class per typedef struct, in the forms that kernel.c lists beside them."""
    text = re.sub(r"/\*.*?\*/|//[^\n]*", " ", text, flags=re.S)
    enum = re.search(r"enum\s*\{((?:\s*PART_\w+\s*,)*)\s*PARTS\s*\}", text)
    if enum is None:
        raise ValueError("kernel.c: no enum { PART_..., PARTS } that can be read")
    parts = tuple(p.lower() for p in re.findall(r"PART_(\w+)", enum.group(1)))
    structs: dict[str, type] = {}
    for body, name in re.findall(r"typedef\s+struct\s*\{([^{}]*)\}\s*(\w+)\s*;", text):
        fields = []
        for decl in filter(str.strip, body.split(";")):
            m = re.fullmatch(r"\s*(?:const\s+)?(\w+)\s+(.*)", decl, re.S)
            if m is None:
                raise ValueError(f"kernel.c: cannot read {decl.strip()!r}")
            base = _SCALARS.get(m.group(1)) or structs.get(m.group(1))
            for d in m.group(2).split(","):
                n = re.fullmatch(r"\s*(\**)\s*(\w+)\s*(\[\s*PARTS\s*\])?\s*", d)
                ctype = ctypes.c_void_p if n and n.group(1) else base
                if n is None or ctype is None:
                    raise ValueError(f"kernel.c: cannot read {decl.strip()!r}")
                fields.append((n.group(2), ctype * len(parts) if n.group(3) else ctype))
        structs[name] = type(name, (ctypes.Structure,), {"_fields_": fields})
    return parts, structs


# The parts of the loop body that a profiled kernel times, in kernel.c's order.
PARTS, _STRUCTS = _layout(_TEXT.decode())
_State, _Parsed = _STRUCTS["kstate"], _STRUCTS["parsed"]
_I = ctypes.c_int64


def library_path() -> str:
    """The library that $CC (default cc) builds from kernel.c with FLAGS."""
    return _library_path(os.environ.get("CC", "cc"))


@functools.lru_cache(maxsize=None)  # each parse asks for it
def _library_path(cc: str) -> str:
    # Two 32-bit checksums, not hashlib: importing hashlib loads OpenSSL, about
    # 4 MB of resident memory in every process that imports the solver.
    data = b"\0".join([_TEXT, " ".join(FLAGS).encode(), cc.encode()])
    key = f"{zlib.crc32(data):08x}{zlib.adler32(data):08x}"
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]  # the interpreter's EXT_SUFFIX
    return os.path.join(os.path.dirname(SOURCE), "__pycache__", f"kernel.{key}{suffix}")


def _build(path: str) -> None:
    """Compile kernel.c to path through a temporary file in its directory, so
    that a concurrent loader never sees a half-written library, then delete
    the stale libraries beside it."""
    import contextlib  # only here: a cached build needs none of these
    import shlex
    import subprocess
    import tempfile

    cache = os.path.dirname(path)
    os.makedirs(cache, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".kernel-", suffix=".so", dir=cache)
    os.close(fd)
    try:
        cc = shlex.split(os.environ.get("CC", "cc"))
        try:
            subprocess.run([*cc, *FLAGS, "-o", tmp, SOURCE], check=True,
                           stdin=subprocess.DEVNULL, capture_output=True, timeout=120)
        except subprocess.SubprocessError as exc:  # a failed or hung compile
            raise OSError(f"cannot compile kernel.c: {exc}") from exc
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    # Delete the libraries of other sources or flags (another key); those
    # of other interpreters with this key stay.
    key = os.path.basename(path).split(".")[1]
    for name in os.listdir(cache):
        m = re.fullmatch(r"kernel\.([0-9a-f]{16})\..+", name)
        if m and m.group(1) != key:
            with contextlib.suppress(OSError):  # gone already, or not ours to delete
                os.unlink(os.path.join(cache, name))


@functools.lru_cache(maxsize=None)
def load() -> ctypes.CDLL | None:
    """The kernel library, built on first use; None if it cannot be had."""
    try:
        path = library_path()
        if not os.path.exists(path):
            _build(path)
        lib = ctypes.CDLL(path)
    except (OSError, ValueError):  # ValueError: a $CC that shlex cannot split
        return None
    lib.kn_setup.argtypes = [ctypes.POINTER(_State), ctypes.c_void_p]
    lib.kn_setup.restype = _I
    lib.kn_advance.argtypes = [ctypes.POINTER(_State), _I]
    lib.kn_advance.restype = _I
    lib.kn_parse.argtypes = [ctypes.c_char_p, _I, ctypes.POINTER(_Parsed)]
    lib.kn_parse.restype = _I
    return lib


# Whether load() has run in this process: then parse need not stat the
# library. Bound here, so that a test that replaces load still reads it.
_load_calls = load.cache_info


@functools.lru_cache(maxsize=64)  # suite runs start hundreds of walks from one seed
def _seeded(seed: int) -> array:
    """The 625 Mersenne Twister words (state, then index) of
    random.Random(seed), read from its C base class. Shared between walks:
    kn_setup copies them and nothing writes them."""
    return array("I", _random.Random(seed).getstate())


# _fit appends zeros from this block: a zero buffer as large as a growth
# would be fresh pages, a page fault for each that is read.
_ZEROS = memoryview(bytes(1 << 14))


def _fit(c: Clauses, k, num_lits: int, num_rows: int) -> None:
    """Grow the arrays of c in place, with zeros, to hold at least num_lits
    literals and num_rows rows, and point k, their kind in kn_parse's
    parsed, at them."""
    for a, n in ((c.lits, num_lits), (c.off, num_rows + 1), (c.weights, num_rows)):
        if a is not None and len(a) < n:
            extra = (n - len(a)) * a.itemsize
            for _ in range(extra // len(_ZEROS)):
                a.frombytes(_ZEROS)
            a.frombytes(_ZEROS[:extra % len(_ZEROS)])
    k.lits, k.off = c.lits.buffer_info()[0], c.off.buffer_info()[0]
    k.lits_cap, k.rows_cap = len(c.lits), len(c.off) - 1
    if c.weights is not None:
        k.weights = c.weights.buffer_info()[0]


def _wanted(used: int, need: int, cap: int, left: int, span: int) -> int:
    """The capacity for an array that holds used items and needs room for
    need more: cap if that fits, else room for what the bytes left hold at
    the kind's density over the span of bytes since its first row, and 1/16
    more, but for no more than used items beyond need. The kinds may come
    in blocks, hard rows first: the density of one need not last."""
    if used + need <= cap:
        return cap
    return used + need + min(used, used * left * 17 // (16 * max(1, span)))


def _release_free_heap() -> None:
    """Hand the heap's free pages back to the OS, where the C library can
    (glibc's malloc_trim). A grown array that realloc moved, or whose slack
    was cut, leaves a free block in the heap that stays resident: 0.5 MB
    after parsing perfbench's WPMS file, which the search's peak RSS would
    carry."""
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except AttributeError:  # not glibc
        pass


def parse(data: bytes) -> tuple[int, Clauses, Clauses] | None:
    """The num_vars, hard and soft Clauses that formula.parse_wcnf builds
    from the WCNF text data, read by kernel.c's kn_parse; None when the
    kernel is not built, did not load or kn_parse declines (on any error,
    for one). A parse never compiles the kernel: a process that only reads
    instances (the oracle) runs no compiler.

    Each array starts with PARSE_CAPACITY items (fewer for a short text).
    When kn_parse stops before a row that does not fit, the arrays of that
    row's kind grow (see _wanted) and kn_parse goes on from that row; the
    slack is cut at the end.
    """
    lib = load() if _load_calls().currsize or os.path.exists(library_path()) else None
    if lib is None:
        return None
    n, out = len(data), _Parsed()
    hard, soft = Clauses(), Clauses(weighted=True)
    pairs = ((hard, out.hard), (soft, out.soft))
    first = min(PARSE_CAPACITY, n // 2 + 1)  # n bytes hold at most n // 2 + 1 rows or literals
    for c, k in pairs:
        _fit(c, k, first, first)
    grown = False
    while (status := lib.kn_parse(data, n, out)) == _FULL:
        left, grown = n - out.pos, True
        for c, k in pairs:
            span = out.pos - k.first + 1
            _fit(c, k, _wanted(k.num_lits, out.row_lits, k.lits_cap, left, span),
                 _wanted(k.num_clauses, 1, k.rows_cap, left, span))
    if status:
        return None
    for c, k in pairs:  # the arrays' slack
        del c.lits[k.num_lits:], c.off[k.num_clauses + 1:]
        if c.weights is not None:
            del c.weights[k.num_clauses:]
        c.empty, c.dropped, c.total, c.max_var = k.empty, k.dropped, k.total, k.max_var
        c.max_weight = k.max_weight
    if grown:
        _release_free_heap()
    return out.num_vars, hard, soft


class Walk:
    """solve's search body running in the C kernel.

    The clause literals, offsets and soft weights are the formula's own
    arrays, read in place. Every other array of the kernel's state lives in
    one zeroed buffer, arena (a bytearray, or an mmap from ARENA_MMAP bytes
    on): kn_setup first returns its size, then carves the arrays from it,
    each at a 64-byte boundary, copies in the Mersenne Twister words that
    cfg.seed gives (see _seeded), and builds the start state, the start
    assignment included. st's pointer fields locate each array; view()
    reads one.
    """

    def __init__(self, lib: ctypes.CDLL, formula: Formula, cfg):
        f = self.formula = formula  # keeps the clause arrays alive
        self._lib = lib
        hard_delta, spb_delta = mode_deltas(cfg)
        seeded = _seeded(cfg.seed)
        self.st = st = _State(num_vars=f.num_vars, k=cfg.k, decimation=cfg.init == "decimation",
                              h_inc=cfg.h_inc, hard_delta=hard_delta, spb_delta=spb_delta,
                              decay_threshold=cfg.decay_threshold, current_obj=f.soft_base,
                              soft_weight=f.soft_weights.buffer_info()[0],
                              seeded=seeded.buffer_info()[0])
        for kind, clauses in ((st.hard, f.hard), (st.soft, f.soft)):
            kind.num_clauses = len(clauses)
            kind.lits = clauses.lits.buffer_info()[0]
            kind.off = clauses.off.buffer_info()[0]
        size = lib.kn_setup(st, None)
        if size >= ARENA_MMAP:
            import mmap  # only here: a suite of small solves needs none
            self.arena = mmap.mmap(-1, size)
        else:
            self.arena = bytearray(size)
        self._base = ctypes.addressof(ctypes.c_char.from_buffer(self.arena))
        lib.kn_setup(st, self._base)
        self._values = self.view(st.values, "i", f.num_vars + 1)

    def view(self, address: int, code: str, n: int) -> memoryview:
        """The n items of array type code at address, one of st's pointers
        into arena."""
        at = address - self._base
        return memoryview(self.arena)[at:at + n * struct.calcsize(code)].cast(code)

    def cost(self) -> float:
        """The objective if no hard clause is falsified, inf otherwise."""
        return INF if self.st.hard.num_falsified else self.st.current_obj

    def snapshot(self) -> bytes:
        """A copy of the current assignment: the kernel's int32 values."""
        return self._values.tobytes()

    @staticmethod
    def assignment(snapshot: bytes) -> list[int]:
        """The assignment list (index 0 unused) of a snapshot."""
        return memoryview(snapshot).cast("i").tolist()

    def set_bound(self, cost) -> None:
        """Set the SPB bound (the best cost so far; inf before the first)."""
        self.st.has_bound = cost != INF
        self.st.bound = int(cost) if self.st.has_bound else 0

    def advance(self, n: int) -> tuple[int, bool]:
        """Run up to n flips, as pywalk._PythonWalk.advance does."""
        done = self._lib.kn_advance(self.st, n)
        return done, bool(self.st.optimum)


def start(formula: Formula, cfg) -> Walk | None:
    """A Walk from solve's start state, the initial assignment drawn as
    cfg.init says from a Mersenne Twister seeded with cfg.seed, or None when
    the kernel did not load or a count does not fit its 32-bit indices."""
    lib = load()
    f = formula
    if lib is None or max(f.num_vars + 1, len(f.hard.lits), len(f.soft.lits)) > INT32_MAX:
        return None
    return Walk(lib, f, cfg)


def layer_split(formula, cfg) -> dict:
    """Run search.solve(formula, cfg) with the kernel counting and timing
    each part of its loop body.

    Returns the run's flips and backend, and per part of PARTS its calls
    and mean microseconds per call. A traced perfbench run cannot give this
    split: its wrappers see none of the calls that the kernel makes.
    """
    from . import search  # search imports this module

    global start
    plain, walks = start, []

    def profiled(*args):
        walk = plain(*args)
        if walk is not None:
            walk.st.profile = 1
            walks.append(walk)
        return walk

    start = profiled
    try:
        result = search.solve(formula, cfg)
    finally:
        start = plain
    split = {"flips": result.flips, "backend": result.backend}
    for i, part in enumerate(PARTS):
        calls = sum(w.st.part_calls[i] for w in walks)
        ns = sum(w.st.part_ns[i] for w in walks)
        split[part] = {"calls": calls, "us_per_call": ns / calls / 1e3 if calls else 0.0}
    return split

