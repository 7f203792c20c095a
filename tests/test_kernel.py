"""The C search kernel against the Python body it ports.

The differential tests start both backends from one formula and seed (the
kernel builds its own start state, Python runs decimation_init or
random_init and builds a SearchState), compare every field of the state
and the Mersenne Twister state, then advance both by the same random chunk
sizes, the way solve does, comparing again after each chunk. The CLI tests
run `solve` on a private copy of the package, so that they control its
build cache.
"""
from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Optional

import pytest

from spbmaxsat import kernel, search
from spbmaxsat.formula import Formula, parse_wcnf
from spbmaxsat.initialization import decimation_init, random_init
from spbmaxsat.search import INITS, SolverConfig, _PythonWalk, solve
from spbmaxsat.state import SearchState
from spbmaxsat.weighting import MODES

from gen import random_parts, render_old

PACKAGE = Path(kernel.__file__).parent

INSTANCES = {
    "suite": dict(),  # random_parts' default: 8-18 variables
    "weighted-200": dict(min_vars=200, max_vars=200, min_clauses=800, max_clauses=800,
                         max_weight=1000),
    "unit-200": dict(min_vars=200, max_vars=200, min_clauses=800, max_clauses=800,
                     unit_weights=True),
}


@pytest.fixture(scope="module")
def lib():
    lib = kernel.load()
    assert lib is not None, "the C kernel did not build or load"
    return lib


def assert_same_state(c: kernel.Walk, py: _PythonWalk) -> None:
    s, st = py.state, c.st
    assert c.values.tolist() == s.values
    assert c.flip_stamp.tolist() == s.flip_stamp
    assert c.hscore.tolist() == s.hscore
    assert c.softdelta.tolist() == s.softdelta
    assert c.hard_weight.tolist() == s.hard_weight
    for name, count, sat_var, fal in (
            ("hard", s.sat_count_hard, s.sat_var_hard, s.falsified_hard),
            ("soft", s.sat_count_soft, s.sat_var_soft, s.falsified_soft)):
        arrays = c.kinds[name]
        assert arrays["sat_count"].tolist() == count
        assert arrays["sat_var"].tolist() == sat_var
        assert arrays["falsified"][:getattr(st, name).num_falsified].tolist() == fal.members
        assert arrays["falsified_pos"].tolist() == fal.pos
    assert c.goodvars[:st.num_goodvars].tolist() == s.goodvars.members
    assert c.goodvars_pos.tolist() == s.goodvars.pos
    assert (st.step, st.current_obj, st.max_hard_weight, st.spb_weight) == \
        (s.step, s.current_obj, s.max_hard_weight, s.spb.weight)
    assert c.cost() == py.cost()
    assert tuple(c.mt) == py.rng.getstate()[1]


def start_both(f: Formula, cfg: SolverConfig):
    """The kernel's start state and the Python body's, from one seed."""
    c = kernel.start(f, cfg, random.Random(cfg.seed))
    rng = random.Random(cfg.seed)
    values = decimation_init(f, rng) if cfg.init == "decimation" else random_init(f, rng)
    py = _PythonWalk(SearchState(f, values), cfg, rng)
    assert_same_state(c, py)
    return c, py


def run_both(f: Formula, cfg: SolverConfig, flips: int, chunks: random.Random) -> int:
    """Advance both backends from one start through flips, in random chunks,
    with solve's improvement bookkeeping between chunks; returns the number
    of chunks compared."""
    cfg = cfg.resolve(f)
    c, py = start_both(f, cfg)
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
        n = min(chunks.randint(1, 700), flips - done)
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
        compared += run_both(Formula(n, hard, soft), cfg, flips, rng)
    assert compared >= count


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
    monkeypatch.setattr(search, "SearchState", None)  # a call would fail
    assert solve(f, SolverConfig(max_flips=2000)).backend == "c"
    for kind in (f.hard, f.soft):
        assert (kind._rows, kind._vars, kind._occ) == (None, None, None)


def test_start_declines_counts_beyond_32_bits(lib, monkeypatch):
    n, hard, soft = random_parts(random.Random(1))
    f = Formula(n, hard, soft)
    cfg = SolverConfig(max_flips=10).resolve(f)
    assert kernel.start(f, cfg, random.Random(1)) is not None
    monkeypatch.setattr(kernel, "INT32_MAX", n)
    assert kernel.start(f, cfg, random.Random(1)) is None


def test_layer_split_counts_every_part_of_an_unchanged_run(lib):
    n, hard, soft = random_parts(random.Random(9), **INSTANCES["unit-200"])
    f = Formula(n, hard, soft)
    cfg = SolverConfig(max_flips=4000, seed=2, decay_threshold=300)
    plain = kernel.start
    split = kernel.layer_split(f, cfg)
    assert kernel.start is plain
    expected = solve(f, cfg)
    assert (split["flips"], split["backend"]) == (expected.flips, "c")
    calls = {part: split[part]["calls"] for part in kernel.PARTS}
    assert calls["flip"] == calls["bms_pick"] + calls["pick_from_falsified"] == expected.flips
    assert calls["spb_weighting"] == calls["pick_from_falsified"] > 0
    assert all(split[part]["us_per_call"] > 0 for part in kernel.PARTS)


# --- the build cache and the fallback, through the CLI ---------------------

def copy_package(dest: Path) -> Path:
    """The package sources without any build cache; returns the path entry."""
    pkg = dest / "spbmaxsat"
    pkg.mkdir(parents=True)
    for src in [*PACKAGE.glob("*.py"), kernel.SOURCE]:
        shutil.copy(src, pkg)
    return dest


def cli_solve(path_entry: Path, instance: Path, cc: Optional[str] = None):
    env = dict(os.environ, PYTHONPATH=str(path_entry), PYTHONDONTWRITEBYTECODE="1")
    env.pop("CC", None)
    if cc is not None:
        env["CC"] = cc
    out = subprocess.run(
        [sys.executable, "-m", "spbmaxsat.cli", "solve", str(instance), "--max-flips", "3000",
         "--seed", "3"], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    backend = out.stderr.split("backend=")[1].split()[0]
    return out.stdout, backend


@pytest.fixture(scope="module")
def instance(tmp_path_factory):
    n, hard, soft = random_parts(random.Random(5), **INSTANCES["weighted-200"])
    path = tmp_path_factory.mktemp("kernel") / "w200.wcnf"
    path.write_text(render_old(n, hard, soft))
    return path


def test_second_process_uses_the_cached_build(tmp_path, instance):
    entry = copy_package(tmp_path)
    first, backend = cli_solve(entry, instance)
    assert backend == "c"
    built = sorted(p.name for p in (entry / "spbmaxsat" / "__pycache__").iterdir())
    assert built == [kernel.library_path().name]
    # CC=false fails any compile: the C backend now comes from the cache.
    assert cli_solve(entry, instance, cc="false") == (first, "c")


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
