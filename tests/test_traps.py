"""Known search traps, pinned until a fix lands.

An open trap is xfail(strict=True): it fails today because of a defect in
the search, and a change that fixes the defect turns it into an XPASS, which
fails the run until the marker is removed. A fixed trap keeps its test.
"""
from __future__ import annotations

import random

import pytest

from spbmaxsat.formula import Formula
from spbmaxsat.search import SolverConfig, solve

import acceptance_jobs as jobs
from gen import random_parts
from test_golden import INSTANCES


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="search trap: the run settles above the optimum")
@pytest.mark.parametrize("seed, idx, variant", [
    (1, 14, "wpms"),   # optimum 14, solver 15
    (1, 97, "wpms"),   # optimum 2, solver 3
    (1, 115, "wpms"),  # optimum 6, solver 8
    (1, 97, "pms"),    # optimum 1, solver 2
    (2, 14, "wpms"),   # optimum 14, solver 15
    (2, 16, "wpms"),   # optimum 6, solver 12
    (2, 152, "pms"),   # optimum 2, solver 3
    (3, 14, "wpms"),   # optimum 14, solver 15
    (3, 28, "wpms"),   # optimum 14, solver 15
    (3, 115, "wpms"),  # optimum 6, solver 8
    (3, 97, "pms"),    # optimum 1, solver 2
    (3, 152, "pms"),   # optimum 2, solver 3
    (4, 14, "wpms"),   # optimum 14, solver 15
    (4, 69, "wpms"),   # optimum 11, solver 12
    (4, 90, "wpms"),   # optimum 1, solver 4
    (4, 115, "wpms"),  # optimum 6, solver 8
    (5, 14, "wpms"),   # optimum 14, solver 15
    (5, 16, "wpms"),   # optimum 6, solver 12
    (5, 49, "wpms"),   # optimum 0, solver 5
    (5, 97, "pms"),    # optimum 1, solver 2
    (5, 142, "pms"),   # optimum 2, solver 3
])
def test_acceptance_instance_reaches_optimum(seed, idx, variant):
    """Acceptance criterion 1 settings (100k flips) with solve seeds 1-5:
    every miss among the 200 instances of each of wpms and pms."""
    row = jobs.run_suite_job((idx, variant, True), seed)
    assert row["best"] == row["oracle"]


def test_low_decay_threshold_still_improves():
    """Golden weighted instance (soft weights 1..1000), seed 3, 3000 flips.

    Taken as given, decay_threshold 1000 would never improve on the step-0
    cost 36354; resolve() raises it to twice the largest soft weight, and
    at 2000 the run reaches 30686.
    """
    params = dict(INSTANCES["weighted"])
    n, hard, soft = random_parts(random.Random(params.pop("seed")), **params)
    result = solve(Formula(n, hard, soft),
                   SolverConfig(seed=3, max_flips=3000, decay_threshold=1000))
    assert result.best_cost < result.trace[0][2]
