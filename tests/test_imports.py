"""Import hygiene: every imported name is used (an AST check over the
package and the tests), the package needs nothing outside the stdlib, and
an entry point loads only what it runs.

A name counts as used when it occurs as a Name node (attribute access
such as `random.Random` starts with one) or is listed in `__all__`.
`__future__` imports are exempt.
"""
from __future__ import annotations

import ast
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from gen import random_parts, render_old

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src" / "spbmaxsat").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(tree: ast.Module) -> list:
    imported = []
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(set(imported) - used - exported)


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_package_loads_only_stdlib_modules():
    # Compare sys.modules before and after, so modules that the interpreter
    # loads at startup (such as an editable install's path hook) don't count.
    code = ("import sys; before = set(sys.modules); import spbmaxsat, spbmaxsat.cli; "
            "import json; print(json.dumps(sorted({m.split('.')[0] "
            "for m in set(sys.modules) - before})))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    # multiprocessing registers __main__ a second time as __mp_main__.
    loaded = set(json.loads(out)) - {"__mp_main__"}
    assert "spbmaxsat" in loaded
    assert loaded - set(sys.stdlib_module_names) - {"spbmaxsat"} == set()


def loads(code: str, *modules: str) -> list:
    """Which of modules a fresh process loads while it runs code. The
    process runs without site (-S): a .pth file in site-packages may
    import any module before the probe starts, and hide its load."""
    probe = (f"import sys; before = set(sys.modules)\n{code}\n"
             f"found = sorted({set(modules)!r} & (set(sys.modules) - before)); "
             "import json; print(json.dumps(found))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    return json.loads(out)


# What a cached kernel solve does without: annotations are strings (no
# typing), paths are os.path strings (no pathlib), only a build imports
# tempfile and contextlib, and the seed's words come from _random.
BUILD_AND_ANNOTATION_MODULES = ["contextlib", "pathlib", "random", "tempfile", "typing"]
# A probe's CLI run with its stdout swapped out by hand, as
# contextlib.redirect_stdout would load contextlib.
QUIET_CLI = ("import io\nfrom spbmaxsat import cli\n"
             "stdout, sys.stdout = sys.stdout, io.StringIO()\n"
             "assert cli.main({}) == 0\nsys.stdout = stdout")


def test_cli_import_loads_neither_bench_nor_logging():
    """solve and oracle need neither: bench is imported when the bench
    command runs."""
    assert loads("import spbmaxsat.cli", "logging", "spbmaxsat.bench") == []


def test_bench_import_loads_no_logging():
    """bench imports logging only to warn of a score that it clips."""
    assert loads("import spbmaxsat.bench", "logging") == []


def test_serial_bench_loads_no_pool_code(tmp_path):
    """bench imports the process pool only for a sweep that runs one:
    concurrent.futures and multiprocessing cost a process about 25 ms. A
    serial sweep loads none of BUILD_AND_ANNOTATION_MODULES either."""
    for name in ("f1.wcnf", "f2.wcnf"):
        (tmp_path / name).write_text("p wcnf 2 3 10\n10 1 2 0\n2 -1 0\n5 -2 0\n")

    def bench(jobs: int) -> str:
        return QUIET_CLI.format(["bench", "--dir", str(tmp_path), "--jobs", str(jobs), "--config",
                                 "a=--max-flips 100;b=--max-flips 100 --seed 2"])

    pool = ["concurrent.futures", "multiprocessing"]
    assert loads(bench(1), *pool, *BUILD_AND_ANNOTATION_MODULES) == []
    # A pooled sweep loads both.
    assert loads(bench(2), *pool) == pool


def test_cli_import_loads_neither_dataclasses_nor_the_oracle():
    """The package's records are plain classes: dataclasses would load
    inspect, ast, dis and tokenize. The oracle loads at its first use."""
    assert loads("import spbmaxsat.cli", "dataclasses", "inspect", "spbmaxsat.oracle") == []


def test_kernel_solve_loads_no_python_reference():
    """The Python search (pywalk and the modules it uses) is imported only
    when the kernel does not start a walk."""
    from spbmaxsat import kernel

    if kernel.load() is None:
        pytest.skip("the C kernel did not build or load")
    solve = ("from spbmaxsat import SolverConfig, kernel, parse_wcnf, solve\n{}\n"
             "f = parse_wcnf('p wcnf 2 3 10\\n10 1 2 0\\n2 -1 0\\n5 -2 0\\n')\n"
             "assert solve(f, SolverConfig(max_flips=100)).backend == {!r}")
    reference = ["spbmaxsat.initialization", "spbmaxsat.pywalk", "spbmaxsat.state",
                 "spbmaxsat.weighting"]
    assert loads(solve.format("", "c"), *reference) == []
    # Without the kernel, the probe sees them all.
    assert loads(solve.format("kernel.load = lambda: None", "python"), *reference) == reference


def test_kernel_solve_loads_neither_the_python_parser_nor_shlex(tmp_path):
    """solve parses in the kernel: the Python parser (pyparse) is imported
    only for a text that the kernel declines, and shlex only to split $CC
    for a build or a bench --config entry."""
    from spbmaxsat import kernel

    if kernel.load() is None:
        pytest.skip("the C kernel did not build or load")
    path = tmp_path / "f.wcnf"
    path.write_text("p wcnf 2 3 10\n10 1 2 0\n2 -1 0\n5 -2 0\n")
    solve = QUIET_CLI.format(["solve", str(path), "--max-flips", "100"])
    assert loads(solve, "spbmaxsat.pyparse", "shlex") == []
    # A declined text (a literal that only int() reads) is parsed in Python.
    declined = "from spbmaxsat import parse_wcnf\nassert parse_wcnf('h +1 0\\n').num_vars == 1"
    assert loads(declined, "spbmaxsat.pyparse") == ["spbmaxsat.pyparse"]


@pytest.mark.parametrize("text, arena_mmap", [
    (render_old(*random_parts(random.Random(1), min_vars=18)), False),
    ("".join(f"1 {v} 0\n" for v in range(1, 20_001)), True),  # 1.6 MB of arena
], ids=["suite-size", "mmap-arena"])
def test_kernel_solve_loads_only_what_it_runs(tmp_path, text, arena_mmap):
    """A solve in the cached kernel loads none of BUILD_AND_ANNOTATION_MODULES,
    and mmap only for an arena of ARENA_MMAP bytes or more."""
    from spbmaxsat import SolverConfig, kernel, parse_wcnf

    if kernel.load() is None:
        pytest.skip("the C kernel did not build or load")
    f = parse_wcnf(text)
    walk = kernel.start(f, SolverConfig(max_flips=0).resolve(f))
    assert (len(walk.arena) >= kernel.ARENA_MMAP) == arena_mmap
    path = tmp_path / "f.wcnf"
    path.write_text(text)
    solve = QUIET_CLI.format(["solve", str(path), "--max-flips", "100"])
    expected = ["mmap"] if arena_mmap else []
    assert loads(solve, *BUILD_AND_ANNOTATION_MODULES, "mmap") == expected
