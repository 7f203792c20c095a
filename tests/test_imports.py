"""Import hygiene: every imported name is used (an AST check over the
package and the tests), and the package needs nothing outside the stdlib.

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


def cli_import_loads(*modules: str) -> list:
    """Which of modules a fresh `import spbmaxsat.cli` loads."""
    code = ("import sys; before = set(sys.modules); import spbmaxsat.cli; "
            f"found = sorted({set(modules)!r} & (set(sys.modules) - before)); "
            "import json; print(json.dumps(found))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    return json.loads(out)


def test_cli_import_loads_neither_bench_nor_logging():
    """solve and oracle need neither: bench, which loads logging, is
    imported when the bench command runs."""
    assert cli_import_loads("logging", "spbmaxsat.bench") == []


def test_cli_import_loads_neither_dataclasses_nor_the_oracle():
    """The package's records are plain classes: dataclasses would load
    inspect, ast, dis and tokenize. The oracle loads at its first use."""
    assert cli_import_loads("dataclasses", "inspect", "spbmaxsat.oracle") == []
