"""Output checks. Every failed check counts towards the run's ``failed``.

A solver run is judged only from what a user sees: the exit code, the
``o``/``s``/``v`` protocol lines on stdout, and for the harness its
``runs.jsonl`` and ``report.json``.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

_FLIPS = re.compile(r"\bflips=(\d+)")


@dataclass
class Protocol:
    """The protocol lines of one ``solve`` run, with arrival times."""

    costs: List[int] = field(default_factory=list)
    o_times: List[float] = field(default_factory=list)
    status: Optional[str] = None
    status_time: Optional[float] = None
    bits: Optional[str] = None
    v_time: Optional[float] = None


def parse_protocol(lines) -> Protocol:
    """lines: (seconds since process start, text) pairs in arrival order."""
    p = Protocol()
    for t, line in lines:
        if line.startswith("o "):
            p.costs.append(int(line[2:]))
            p.o_times.append(t)
        elif line.startswith("s "):
            p.status, p.status_time = line[2:].strip(), t
        elif line.startswith("v "):
            p.bits, p.v_time = line[2:].strip(), t
    return p


def stderr_flips(text: str) -> Optional[int]:
    """Flip count from the ``flips=N`` summary ``solve`` writes to stderr."""
    m = _FLIPS.search(text)
    return int(m.group(1)) if m else None


def check_solve(p: Protocol, returncode: int, evaluate: Callable[[List[int]], float],
                need_model: bool) -> List[str]:
    """Problems with one ``solve`` run; empty when it is correct.

    evaluate maps a 0/1 value list (slot 0 unused) to Formula.cost.
    """
    bad = []
    if returncode != 0:
        bad.append(f"exit code {returncode}")
    if any(b >= a for a, b in zip(p.costs, p.costs[1:])):
        bad.append("o lines do not strictly decrease")
    if p.status == "SATISFIABLE":
        if not p.costs:
            bad.append("s SATISFIABLE without an o line")
        if p.bits is None or set(p.bits) - {"0", "1"}:
            bad.append("missing or malformed v line")
        elif p.costs:
            cost = evaluate([0] + [int(c) for c in p.bits])
            if cost != p.costs[-1]:
                bad.append(f"v line costs {cost}, last o line says {p.costs[-1]}")
    elif p.status == "UNKNOWN":
        if p.costs or p.bits is not None:
            bad.append("s UNKNOWN after a feasible solution")
        if need_model:
            bad.append("no feasible solution")
    else:
        bad.append(f"missing or unexpected s line: {p.status!r}")
    return bad


def suite_score(records: List[dict], optima: Dict[str, int]) -> Dict[str, float]:
    """Mean (opt + 1) / (cost + 1) per config label, 0 for an infeasible run."""
    per_label: Dict[str, List[float]] = {}
    for r in records:
        opt = optima[Path(r["instance"]).name]
        cost = r["best_cost"]
        s = 0.0 if cost is None else (opt + 1) / (cost + 1)
        per_label.setdefault(r["label"], []).append(s)
    return {label: sum(v) / len(v) for label, v in per_label.items()}


def check_suite(records: List[dict], report: dict, optima: Dict[str, int],
                returncode: int, configs: int) -> List[str]:
    """Problems with one harness run over the oracle suite."""
    bad = []
    if returncode != 0:
        bad.append(f"exit code {returncode}")
    if len(records) != configs * len(optima):
        bad.append(f"{len(records)} records for {configs} configs x {len(optima)} instances")
    for r in records:
        name = Path(r["instance"]).name
        if r.get("error"):
            bad.append(f"{name}/{r['label']}: error {r['error']}")
        elif r["best_cost"] is not None and r["best_cost"] < optima[name]:
            bad.append(f"{name}/{r['label']}: cost {r['best_cost']} below optimum {optima[name]}")
    ours = suite_score(records, optima)
    for label, row in report.get("solvers", {}).items():
        if abs(ours.get(label, -1.0) - row["score"]) > 1e-9:
            bad.append(f"{label}: report #score {row['score']} != {ours.get(label)}")
    if set(ours) != set(report.get("solvers", {})):
        bad.append("report.json labels differ from runs.jsonl")
    return bad

