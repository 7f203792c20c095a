"""Seeded instance generators, one per workload.

Every generator is a pure function of its seed and size parameters, so the
same seed always writes byte-identical files. The solver only ever sees the
files; the benchmark keeps the clause lists to check outputs and to state
each instance's reference cost.
"""
from __future__ import annotations

import importlib.util
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

Clause = List[int]
Soft = Tuple[int, Clause]


@dataclass
class Instance:
    """One generated WCNF file plus what the benchmark needs to judge it."""

    path: Path
    num_vars: int
    hard: List[Clause]
    soft: List[Soft]
    ref: int  # reference cost: a planted witness's cost, or the exact optimum
    info: Dict[str, object] = field(default_factory=dict)

    def describe(self) -> dict:
        return {
            "file": self.path.name,
            "vars": self.num_vars,
            "clauses": len(self.hard) + len(self.soft),
            "mb": round(self.path.stat().st_size / 1e6, 3),
            "ref": self.ref,
            **self.info,
        }


def _lit_true(lit: int, planted: List[int]) -> bool:
    return (lit > 0) == bool(planted[abs(lit)])


def _soft_cost(soft: List[Soft], planted: List[int]) -> int:
    return sum(w for w, lits in soft if not any(_lit_true(l, planted) for l in lits))


def write_headerless(path: Path, hard: List[Clause], soft: List[Soft]) -> None:
    with open(path, "w") as fh:
        fh.writelines(f"h {' '.join(map(str, lits))} 0\n" for lits in hard)
        fh.writelines(f"{w} {' '.join(map(str, lits))} 0\n" for w, lits in soft)


def write_classic(path: Path, num_vars: int, hard: List[Clause], soft: List[Soft]) -> None:
    top = sum(w for w, _ in soft) + 1
    with open(path, "w") as fh:
        fh.write(f"p wcnf {num_vars} {len(hard) + len(soft)} {top}\n")
        fh.writelines(f"{top} {' '.join(map(str, lits))} 0\n" for lits in hard)
        fh.writelines(f"{w} {' '.join(map(str, lits))} 0\n" for w, lits in soft)


def planted_wpms(path: Path, seed: int, num_vars: int, num_hard: int, num_soft: int,
                 max_weight: int = 100) -> Instance:
    """Random weighted partial MaxSAT with a planted feasible assignment.

    Clauses have 2 or 3 distinct variables. In the hard clauses every
    variable keeps the sign of its planted value, so the planted assignment
    satisfies them, and unit propagation during decimation init never meets
    two opposite demands on a variable: init is feasible for every seed.
    Soft clauses have random signs, so they pull against the hard ones and
    the planted assignment's cost is a beatable reference. Written in the
    headerless format.
    """
    rng = random.Random(f"planted-wpms-{seed}")
    planted = [0] + [rng.getrandbits(1) for _ in range(num_vars)]
    hard: List[Clause] = [
        [v if planted[v] else -v for v in rng.sample(range(1, num_vars + 1), rng.randint(2, 3))]
        for _ in range(num_hard)
    ]
    soft: List[Soft] = []
    for _ in range(num_soft):
        lits = [v if rng.getrandbits(1) else -v
                for v in rng.sample(range(1, num_vars + 1), rng.randint(2, 3))]
        soft.append((rng.randint(1, max_weight), lits))
    write_headerless(path, hard, soft)
    return Instance(path, num_vars, hard, soft, _soft_cost(soft, planted),
                    {"format": "headerless", "ref_kind": "planted"})


def set_cover_pms(path: Path, seed: int, num_sets: int, num_elements: int,
                  planted_frac: float) -> Instance:
    """Unit-weight set cover as partial MaxSAT.

    Variable s_j means "set j is chosen". Each element is a hard clause over
    the 2..6 sets that contain it, and each set a soft unit clause -s_j. A
    planted cover (a random share of the sets) meets at least one set of
    every element, so the instance is feasible and the planted cover's size
    is a reference cost. Written in the classic "p wcnf" format.
    """
    rng = random.Random(f"set-cover-{seed}")
    planted_sets = [j for j in range(1, num_sets + 1) if rng.random() < planted_frac]
    planted = [0] * (num_sets + 1)
    for j in planted_sets:
        planted[j] = 1
    hard: List[Clause] = []
    for _ in range(num_elements):
        sets = rng.sample(range(1, num_sets + 1), rng.randint(2, 6))
        if not any(planted[j] for j in sets):
            sets[rng.randrange(len(sets))] = planted_sets[rng.randrange(len(planted_sets))]
        hard.append(sets)
    soft: List[Soft] = [(1, [-j]) for j in range(1, num_sets + 1)]
    write_classic(path, num_sets, hard, soft)
    return Instance(path, num_sets, hard, soft, len(planted_sets),
                    {"format": "classic", "ref_kind": "planted"})


def acceptance_random_parts():
    """``random_parts`` of tests/gen.py: the acceptance-suite distribution,
    loaded from the test helpers so that both draw the same instances."""
    spec = importlib.util.spec_from_file_location(
        "acceptance_gen", Path(__file__).resolve().parents[1] / "tests" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.random_parts


def oracle_suite(directory: Path, seed: int, count: int) -> List[Instance]:
    """count tiny instances, each in a weighted and a unit-weight variant.

    The draw is not filtered: whatever the seed yields, trap instances
    included, is solved. Exact optima come from the brute-force oracle.
    """
    from spbmaxsat.formula import Formula
    from spbmaxsat.oracle import brute_force_opt

    random_parts = acceptance_random_parts()
    out: List[Instance] = []
    for i in range(count):
        n, hard, soft = random_parts(random.Random(f"oracle-suite-{seed}-{i}"))
        for tag, variant in (("w", soft), ("u", [(1, lits) for _, lits in soft])):
            opt, _ = brute_force_opt(Formula(n, hard, variant))
            path = directory / f"{tag}{i:04d}.wcnf"
            write_headerless(path, hard, variant)
            out.append(Instance(path, n, hard, variant, int(opt),
                                {"format": "headerless", "ref_kind": "oracle"}))
    return out
