"""Weight-growth metric tests."""
from __future__ import annotations

import csv
import io

import pytest

from spbmaxsat.dynamics import weight_dynamics, write_csv


def test_first_step_constant_rule():
    row = weight_dynamics(1.0, 1)[0]
    assert row.w_spb == 2.0
    assert row.r_inc == 1.0
    assert row.i_inc == 0.5


def test_constant_rule_rates_exactly_reciprocal():
    rows = weight_dynamics(1.0, 5000)
    for r in rows:
        assert r.r_inc == 1.0 / r.step
        assert r.i_inc == 1.0 / (2 * r.step)


def test_adaptive_converges_to_delta_minus_one():
    rows = weight_dynamics(1.001, 10_000)
    assert rows[-1].r_inc == pytest.approx(0.001, abs=1e-4)
    assert rows[-1].i_inc == pytest.approx(0.001, abs=1e-4)
    for r in rows:
        assert r.r_inc > 0.001


def test_constant_rule_decays_to_zero():
    rows = weight_dynamics(1.0, 10_000)
    assert rows[-1].r_inc < 1e-3
    assert rows[-1].i_inc < 1e-3


def test_rate_strictly_decreasing_and_weight_increasing():
    for delta in (1.0, 1.001, 1.01):
        rows = weight_dynamics(delta, 2000)
        for a, b in zip(rows, rows[1:]):
            assert b.r_inc < a.r_inc
            assert b.w_spb > a.w_spb
            assert b.i_inc > 0


def test_input_validation():
    with pytest.raises(ValueError):
        weight_dynamics(0.9, 10)
    with pytest.raises(ValueError):
        weight_dynamics(1.0, 0)


def test_csv_output():
    rows = weight_dynamics(1.001, 3)
    buf = io.StringIO()
    write_csv(rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "step,w_spb,r_inc,i_inc"
    parsed = list(csv.DictReader(io.StringIO(buf.getvalue())))
    assert len(parsed) == 3
    assert int(parsed[0]["step"]) == 1
    assert float(parsed[0]["w_spb"]) == rows[0].w_spb
    assert float(parsed[2]["r_inc"]) == rows[2].r_inc
