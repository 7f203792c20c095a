"""Golden `solve` output: protocol stdout plus improvement trace, pinned.

Each case solves a seeded instance for a fixed flip budget and compares
the full `o`/`s`/`v` stdout of `spb-maxsat solve` and the SolveResult
trace rows (step, cost), flips and termination with tests/golden.json.
The cases cover every --mode x --init pair, both file formats, low decay
thresholds (so decay_weights fires) and a 2000-variable instance on which
almost every pick is a BMS pick. A refactor that changes no behaviour
must leave all of them byte-identical, with the flips made by the C
kernel and by the Python body alike.

Re-record only for an intended behaviour change:
    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from pathlib import Path
from typing import Optional
from unittest.mock import patch

import pytest

from spbmaxsat import cli, kernel
from spbmaxsat.search import solve

from gen import random_parts, render_new, render_old

GOLDEN = Path(__file__).with_name("golden.json")

INSTANCES = {
    "weighted": dict(seed=11, min_vars=200, max_vars=200, min_clauses=800, max_clauses=800,
                     max_weight=1000),
    "unit": dict(seed=12, min_vars=200, max_vars=200, min_clauses=800, max_clauses=800,
                 unit_weights=True),
    "large": dict(seed=1, min_vars=2000, max_vars=2000, min_clauses=8000, max_clauses=8000),
}
RENDER = {"old": render_old, "new": render_new}


def _cases():
    cases = {}
    for mode in ("spb", "constant", "all-adaptive"):
        for init in ("decimation", "random"):
            for fmt in ("old", "new"):
                cases[f"weighted-{mode}-{init}-{fmt}"] = (
                    "weighted", fmt,
                    ["--mode", mode, "--init", init, "--max-flips", "3000", "--seed", "3"])
        cases[f"unit-{mode}-decay"] = (
            "unit", "old",
            ["--mode", mode, "--max-flips", "3000", "--seed", "5", "--decay-threshold", "20"])
        cases[f"weighted-{mode}-decay"] = (
            "weighted", "new",
            ["--mode", mode, "--max-flips", "3000", "--seed", "7", "--decay-threshold", "3000"])
    cases["large-spb-decimation"] = (
        "large", "old", ["--max-flips", "10000", "--seed", "1"])
    cases["large-all-adaptive-random-decay"] = (
        "large", "new",
        ["--mode", "all-adaptive", "--init", "random", "--max-flips", "10000", "--seed", "2",
         "--decay-threshold", "300"])
    return cases


CASES = _cases()


def write_instance(directory: Path, instance: str, fmt: str) -> Path:
    params = dict(INSTANCES[instance])
    rng = random.Random(params.pop("seed"))
    n, hard, soft = random_parts(rng, **params)
    path = directory / f"{instance}-{fmt}.wcnf"
    if not path.exists():
        path.write_text(RENDER[fmt](n, hard, soft))
    return path


def run_case(directory: Path, name: str, backend: Optional[str] = None) -> dict:
    instance, fmt, flags = CASES[name]
    path = str(write_instance(directory, instance, fmt))
    results = []

    def solve_and_keep(*args, **kwargs):
        results.append(solve(*args, **kwargs))
        return results[-1]

    with patch.object(cli, "solve", solve_and_keep), redirect_stdout(io.StringIO()) as out:
        assert cli.main(["solve", path, *flags]) == 0
    (result,) = results
    assert backend in (None, result.backend)
    return {
        "stdout": out.getvalue(),
        "trace": [[step, cost] for step, _, cost in result.trace],
        "flips": result.flips,
        "termination": result.termination,
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def instance_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


@pytest.mark.parametrize("name", sorted(CASES))
def test_solve_matches_golden(name, golden, instance_dir):
    # The C kernel wherever it builds; the Python body without a compiler.
    backend = "python" if kernel.load() is None else "c"
    assert run_case(instance_dir, name, backend) == golden[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_python_body_matches_golden(name, golden, instance_dir, monkeypatch):
    monkeypatch.setattr(kernel, "load", lambda: None)
    assert run_case(instance_dir, name, "python") == golden[name]


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        data = {name: run_case(Path(tmp), name) for name in sorted(CASES)}
    GOLDEN.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {len(data)} cases to {GOLDEN}")
