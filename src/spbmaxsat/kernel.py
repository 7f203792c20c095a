"""The C search kernel (kernel.c): build, load and hand a search over to it.

load() compiles kernel.c once with $CC (default cc) into this package's
__pycache__, named by a checksum of the source and the flags, and loads it
with ctypes; later processes load the cached library without a compiler.
It returns None when anything fails (no compiler, an unwritable cache
directory, a library that does not match this file's struct layout), and
solve then runs its Python body.

handoff() copies a built SearchState, the formula's clauses and the RNG
state into arrays that the C code works on in place. The kernel's run is
flip for flip the Python one; tests/test_kernel.py checks it, and
layer_split() times its parts.
"""
from __future__ import annotations

import ctypes
import functools
import importlib.machinery
import os
import random
import shlex
import tempfile
import zlib
from array import array
from itertools import accumulate, chain
from pathlib import Path
from typing import List, Optional, Tuple

from .formula import INF
from .state import SearchState
from .weighting import MODE_ALL_ADAPTIVE, MODE_CONSTANT

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

    _fields_ = [("num_vars", _I), ("k", _I),
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
    that a concurrent loader never sees a half-written library."""
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
    a = array(code)
    return array(code, bytes(a.itemsize * n))


def _padded(code: str, members: List[int], n: int) -> array:
    """An IndexSet's members in an array of its capacity n."""
    a = array(code, members)
    a.extend(_zeros(code, n - len(members)))
    return a


class Walk:
    """solve's search body running in the C kernel.

    The arrays below are the kernel's state, named after the SearchState
    fields they stand for: falsified and goodvars hold the set members
    padded to capacity, mt the Mersenne Twister words then its index. The
    counts, satisfying variables and set positions are derived in C
    (kn_setup) rather than copied, which saves about a tenth of the handoff.
    After the first advance() the SearchState copied from is stale.
    """

    def __init__(self, lib: ctypes.CDLL, state: SearchState, cfg, rng: random.Random):
        f = state.formula
        nv = f.num_vars
        self._lib = lib
        self.st = st = _State(num_vars=nv, k=cfg.k, h_inc=cfg.h_inc,
                              hard_delta=cfg.delta if cfg.mode == MODE_ALL_ADAPTIVE else 1.0,
                              spb_delta=1.0 if cfg.mode == MODE_CONSTANT else cfg.delta,
                              decay_threshold=cfg.decay_threshold,
                              step=state.step, current_obj=state.current_obj,
                              max_hard_weight=state.max_hard_weight,
                              spb_weight=state.spb.weight,
                              num_goodvars=len(state.goodvars.members))
        self.set_bound(state.spb.bound)
        self.kinds = {}
        total = nv + 1
        for name, clauses, fal in (("hard", f.hard, state.falsified_hard),
                                   ("soft", f.soft, state.falsified_soft)):
            m = len(clauses)
            # From lists: array() takes a list faster than an iterator.
            arrays = dict(lits=array("i", list(chain.from_iterable(clauses))),
                          off=array("i", list(accumulate(map(len, clauses), initial=0))),
                          occ_off=_zeros("i", 2 * (nv + 1) + 1),
                          sat_count=_zeros("i", m), sat_var=_zeros("i", m),
                          falsified=_padded("i", fal.members, m),
                          falsified_pos=_zeros("i", m))
            arrays["occ"] = _zeros("i", len(arrays["lits"]))
            total += len(arrays["lits"])
            self.kinds[name] = arrays
            kind = getattr(st, name)
            kind.num_clauses = m
            kind.num_falsified = len(fal.members)
            for field, a in arrays.items():
                setattr(kind, field, a.buffer_info()[0])
        self.values = array("i", state.values)
        self.flip_stamp = array("q", state.flip_stamp)
        self.hscore = array("d", state.hscore)
        self.softdelta = array("q", state.softdelta)
        self.hard_weight = array("d", state.hard_weight)
        self.soft_weight = array("q", f.soft_weights)
        self.goodvars = _padded("i", state.goodvars.members, nv + 1)
        self.goodvars_pos = _zeros("i", nv + 1)
        self.mt = array("I", rng.getstate()[1])
        self.touched = _zeros("i", total)  # see struct kstate
        for field in ("values", "flip_stamp", "hscore", "softdelta", "hard_weight",
                      "soft_weight", "goodvars", "goodvars_pos", "mt", "touched"):
            setattr(st, field, getattr(self, field).buffer_info()[0])
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


def handoff(state: SearchState, cfg, rng: random.Random) -> Optional[Walk]:
    """A Walk continuing from state and rng, or None when the kernel did not
    load or a count does not fit its 32-bit indices."""
    lib = load()
    f = state.formula
    if lib is None or max(f.num_vars + 1, len(f.hard), len(f.soft)) > INT32_MAX:
        return None
    try:
        return Walk(lib, state, cfg, rng)
    except OverflowError:  # from array("i"): a kind with 2**31 literals or more
        return None


def layer_split(formula, cfg) -> dict:
    """Run search.solve(formula, cfg) with the kernel counting and timing
    each part of its loop body.

    Returns the run's flips and backend, and per part of PARTS its calls
    and mean microseconds per call. A traced perfbench run cannot give this
    split: its wrappers see none of the calls that the kernel makes.
    """
    from . import search  # search imports this module

    global handoff
    plain, walks = handoff, []

    def profiled(*args):
        walk = plain(*args)
        if walk is not None:
            walk.st.profile = 1
            walks.append(walk)
        return walk

    handoff = profiled
    try:
        result = search.solve(formula, cfg)
    finally:
        handoff = plain
    split = {"flips": result.flips, "backend": result.backend}
    for i, part in enumerate(PARTS):
        calls = sum(w.st.part_calls[i] for w in walks)
        ns = sum(w.st.part_ns[i] for w in walks)
        split[part] = {"calls": calls, "us_per_call": ns / calls / 1e3 if calls else 0.0}
    return split

