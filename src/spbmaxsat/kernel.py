"""The C search kernel (kernel.c): build, load and start a search in it.

load() compiles kernel.c once with $CC (default cc) into this package's
__pycache__, named by a checksum of the source and the flags, and loads it
with ctypes; later processes load the cached library without a compiler,
and a build deletes the libraries of other sources. load() returns None
when anything fails (no compiler, an unwritable cache directory, a library
that does not match this file's struct layout), and solve then runs its
Python body.

start() hands the kernel the formula's own clause arrays and the RNG state;
the kernel builds the initial assignment and the search state from them.
Its run is flip for flip the Python one; tests/test_kernel.py checks it,
and layer_split() times its parts.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib.machinery
import os
import random
import shlex
import tempfile
import zlib
from array import array
from pathlib import Path
from typing import List, Optional, Tuple

from .formula import INF, Formula
from .weighting import mode_deltas

SOURCE = Path(__file__).with_name("kernel.c")
# -ffp-contract=off: a fused multiply-add would round differently from Python.
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
INT32_MAX = 2**31 - 1
# The parts of the loop body that a profiled kernel times, in kernel.c's order.
PARTS = ("bms_pick", "pick_from_falsified", "flip", "spb_weighting")

_P = ctypes.c_void_p
_I = ctypes.c_int64
_D = ctypes.c_double


class _Kind(ctypes.Structure):
    _fields_ = [("num_clauses", _I), ("lits", _P), ("off", _P), ("occ_off", _P), ("occ", _P),
                ("sat_count", _P), ("sat_var", _P), ("falsified", _P), ("falsified_pos", _P),
                ("num_falsified", _I)]


class _State(ctypes.Structure):
    """struct kstate of kernel.c, field for field."""

    _fields_ = [("num_vars", _I), ("k", _I), ("decimation", _I),
                ("h_inc", _D), ("hard_delta", _D), ("spb_delta", _D), ("decay_threshold", _D),
                ("hard", _Kind), ("soft", _Kind),
                ("soft_weight", _P), ("hard_weight", _P), ("values", _P), ("flip_stamp", _P),
                ("hscore", _P), ("softdelta", _P), ("goodvars", _P), ("goodvars_pos", _P),
                ("num_goodvars", _I), ("touched", _P), ("mt", _P),
                ("step", _I), ("current_obj", _I), ("has_bound", _I), ("bound", _I),
                ("max_hard_weight", _D), ("spb_weight", _D), ("optimum", _I),
                ("profile", _I), ("part_calls", _I * len(PARTS)), ("part_ns", _I * len(PARTS))]


def library_path() -> Path:
    # Two 32-bit checksums, not hashlib: importing hashlib loads OpenSSL, about
    # 4 MB of resident memory in every process that imports the solver.
    data = SOURCE.read_bytes() + " ".join(FLAGS).encode()
    key = f"{zlib.crc32(data):08x}{zlib.adler32(data):08x}"
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]  # the interpreter's EXT_SUFFIX
    return SOURCE.parent / "__pycache__" / f"kernel.{key}{suffix}"


def _build(path: Path) -> None:
    """Compile kernel.c to path through a temporary file in its directory, so
    that a concurrent loader never sees a half-written library, then delete
    the stale libraries beside it."""
    import re
    import subprocess  # only here: a cached build needs no subprocess

    path.parent.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".kernel-", suffix=".so", dir=path.parent)
    os.close(fd)
    try:
        cc = shlex.split(os.environ.get("CC", "cc"))
        try:
            subprocess.run([*cc, *FLAGS, "-o", tmp, str(SOURCE)], check=True,
                           stdin=subprocess.DEVNULL, capture_output=True, timeout=120)
        except subprocess.SubprocessError as exc:  # a failed or hung compile
            raise OSError(f"cannot compile {SOURCE.name}: {exc}") from exc
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    # Delete the libraries of other sources or flags (another key); those
    # of other interpreters with this key stay.
    key = path.name.split(".")[1]
    for old in path.parent.iterdir():
        m = re.fullmatch(r"kernel\.([0-9a-f]{16})\..+", old.name)
        if m and m.group(1) != key:
            with contextlib.suppress(OSError):  # gone already, or not ours to delete
                old.unlink()


@functools.lru_cache(maxsize=None)
def load() -> Optional[ctypes.CDLL]:
    """The kernel library, built on first use; None if it cannot be had."""
    try:
        path = library_path()
        if not path.exists():
            _build(path)
        lib = ctypes.CDLL(str(path))
    except (OSError, ValueError):  # ValueError: a $CC that shlex cannot split
        return None
    lib.kn_state_size.argtypes = []
    lib.kn_state_size.restype = _I
    lib.kn_setup.argtypes = [ctypes.POINTER(_State)]
    lib.kn_setup.restype = None
    lib.kn_advance.argtypes = [ctypes.POINTER(_State), _I]
    lib.kn_advance.restype = _I
    if lib.kn_state_size() != ctypes.sizeof(_State):
        return None
    return lib


def _zeros(code: str, n: int) -> array:
    return array(code, [0]) * n


class Walk:
    """solve's search body running in the C kernel.

    The arrays below are the kernel's state, named after the SearchState
    fields they stand for: falsified and goodvars hold the set members
    padded to capacity, mt the Mersenne Twister words then its index. The
    clause literals, offsets and soft weights are the formula's own arrays,
    read in place. kn_setup builds everything else, the start assignment
    included, and uses the falsified, goodvars and count arrays as scratch
    for decimation_init first.
    """

    def __init__(self, lib: ctypes.CDLL, formula: Formula, cfg, rng: random.Random):
        f = self.formula = formula  # keeps the clause arrays alive
        nv = f.num_vars
        self._lib = lib
        hard_delta, spb_delta = mode_deltas(cfg)
        self.st = st = _State(num_vars=nv, k=cfg.k, decimation=cfg.init == "decimation",
                              h_inc=cfg.h_inc, hard_delta=hard_delta, spb_delta=spb_delta,
                              decay_threshold=cfg.decay_threshold,
                              step=1, current_obj=f.soft_base, max_hard_weight=1.0,
                              spb_weight=1.0)
        self.set_bound(INF)
        self.kinds = {}
        total = nv + 1
        for name, clauses in (("hard", f.hard), ("soft", f.soft)):
            m = len(clauses)
            arrays = dict(occ_off=_zeros("i", 2 * (nv + 1) + 1), occ=_zeros("i", len(clauses.lits)),
                          sat_count=_zeros("i", m), sat_var=_zeros("i", m),
                          falsified=_zeros("i", m), falsified_pos=_zeros("i", m))
            total += len(clauses.lits)
            self.kinds[name] = arrays
            kind = getattr(st, name)
            kind.num_clauses = m
            kind.lits = clauses.lits.buffer_info()[0]
            kind.off = clauses.off.buffer_info()[0]
            for field, a in arrays.items():
                setattr(kind, field, a.buffer_info()[0])
        self.values = _zeros("i", nv + 1)
        self.flip_stamp = _zeros("q", nv + 1)
        self.hscore = _zeros("d", nv + 1)
        self.softdelta = _zeros("q", nv + 1)
        self.hard_weight = array("d", [1.0]) * len(f.hard)
        self.goodvars = _zeros("i", nv + 1)
        self.goodvars_pos = _zeros("i", nv + 1)
        self.mt = array("I", rng.getstate()[1])
        self.touched = _zeros("i", total)  # see struct kstate
        for field in ("values", "flip_stamp", "hscore", "softdelta", "hard_weight",
                      "goodvars", "goodvars_pos", "mt", "touched"):
            setattr(st, field, getattr(self, field).buffer_info()[0])
        st.soft_weight = f.soft_weights.buffer_info()[0]
        lib.kn_setup(st)

    def cost(self) -> float:
        """The objective if no hard clause is falsified, inf otherwise."""
        return INF if self.st.hard.num_falsified else self.st.current_obj

    def assignment(self) -> List[int]:
        return self.values.tolist()

    def set_bound(self, cost) -> None:
        """Set the SPB bound (the best cost so far; inf before the first)."""
        self.st.has_bound = cost != INF
        self.st.bound = int(cost) if self.st.has_bound else 0

    def advance(self, n: int) -> Tuple[int, bool]:
        """Run up to n flips, as search._PythonWalk.advance does."""
        done = self._lib.kn_advance(self.st, n)
        return done, bool(self.st.optimum)


def start(formula: Formula, cfg, rng: random.Random) -> Optional[Walk]:
    """A Walk from solve's start state, the initial assignment drawn from
    rng's state as cfg.init says (rng itself is not advanced), or None when
    the kernel did not load or a count does not fit its 32-bit indices."""
    lib = load()
    f = formula
    if lib is None or max(f.num_vars + 1, len(f.hard.lits), len(f.soft.lits)) > INT32_MAX:
        return None
    return Walk(lib, f, cfg, rng)


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

