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
import subprocess
import sys
from pathlib import Path

import pytest

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
    """Which of modules a fresh process loads while it runs code."""
    probe = (f"import sys; before = set(sys.modules)\n{code}\n"
             f"found = sorted({set(modules)!r} & (set(sys.modules) - before)); "
             "import json; print(json.dumps(found))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    return json.loads(out)


def test_cli_import_loads_neither_bench_nor_logging():
    """solve and oracle need neither: bench is imported when the bench
    command runs."""
    assert loads("import spbmaxsat.cli", "logging", "spbmaxsat.bench") == []


def test_bench_import_loads_no_logging():
    """bench imports logging only to warn of a score that it clips."""
    assert loads("import spbmaxsat.bench", "logging") == []


def test_serial_bench_loads_no_pool_code(tmp_path):
    """bench imports the process pool only for a sweep that runs one:
    concurrent.futures and multiprocessing cost a process about 25 ms."""
    for name in ("f1.wcnf", "f2.wcnf"):
        (tmp_path / name).write_text("p wcnf 2 3 10\n10 1 2 0\n2 -1 0\n5 -2 0\n")
    bench = ("import contextlib, io\nfrom spbmaxsat import cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    assert cli.main(['bench', '--dir', {!r}, '--jobs', '{}', '--config',\n"
             "                     'a=--max-flips 100;b=--max-flips 100 --seed 2']) == 0")
    pool = ["concurrent.futures", "multiprocessing"]
    assert loads(bench.format(str(tmp_path), 1), *pool) == []
    # A pooled sweep loads both.
    assert loads(bench.format(str(tmp_path), 2), *pool) == pool


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
    solve = ("import contextlib, io\nfrom spbmaxsat import cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             f"    assert cli.main(['solve', {str(path)!r}, '--max-flips', '100']) == 0")
    assert loads(solve, "spbmaxsat.pyparse", "shlex") == []
    # A declined text (a literal that only int() reads) is parsed in Python.
    declined = "from spbmaxsat import parse_wcnf\nassert parse_wcnf('h +1 0\\n').num_vars == 1"
    assert loads(declined, "spbmaxsat.pyparse") == ["spbmaxsat.pyparse"]
