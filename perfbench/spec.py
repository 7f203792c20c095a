"""What the benchmark measures, in one place.

``BENCHMARK.json`` at the repository root is written from this module
(``python3 perfbench/run.py --write-spec``) and holds only the keys its
consumers read. The map from each per-layer metric to the end-to-end metric
and workload it should move lives here and in every traced result file.
"""
from __future__ import annotations

import json
from pathlib import Path

RUN_SECONDS = 30

WORKLOADS = [
    ("random-wpms-search",
     "one 20k-var planted random WPMS solve, wpms preset, 25k flips: almost all "
     "time is in the BMS pick and flip hot path, and o lines come every 1-2k flips "
     "after the first ~6k"),
    ("cover-pms-setup",
     "one 3 MB set-cover PMS (25k sets, 100k elements) in the classic header "
     "format, pms preset, 10k flips: parse, build and init take most of the wall"),
    ("small-oracle-suite",
     "800 tiny solves with exact optima through the bench harness, decay threshold "
     "300: at a local optimum on about half the flips, so weighting, decay and "
     "per-solve costs count"),
]

# name, unit, better, bound (share of the parent's median it may worsen by).
# Wall times on a small shared machine drift by a fifth or more over spells of seconds
# to minutes, which repetition inside one run only partly averages out;
# hence the largest bound, 0.25, on every time.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("solve_s", "s", "lower", 0.25),
    ("flips_per_s", "1/s", "higher", 0.25),
    ("first_feasible_s", "s", "lower", 0.25),
    ("score", "ratio", "higher", 0.2),
    ("optimum_rate", "ratio", "higher", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

WPMS, COVER, SUITE = (w for w, _ in WORKLOADS)

# name, unit, better, (end-to-end metric it should move, on workloads)
PER_LAYER = [
    ("formula.parse_s", "s", "lower", ("setup_s", [COVER])),
    ("formula.parse_mb_per_s", "MB/s", "higher", ("setup_s", [COVER])),
    ("formula.build_s", "s", "lower", ("setup_s", [COVER])),
    ("formula.rss_mb_per_input_mb", "MB/MB", "lower", ("peak_rss_mb", [COVER])),
    ("initialization.decimation_s", "s", "lower", ("setup_s", [COVER])),
    ("initialization.falsified_hard", "count", "lower", ("first_feasible_s", [WPMS])),
    ("state.build_s", "s", "lower", ("setup_s", [COVER])),
    ("state.flip_calls", "count", "higher", ("flips_per_s", [WPMS, SUITE])),
    ("state.flip_us", "us", "lower", ("flips_per_s", [WPMS, SUITE])),
    ("state.flip_occ_per_call", "count", "lower", ("flips_per_s", [WPMS, SUITE])),
    ("search.bms_pick_calls", "count", "higher", ("flips_per_s", [WPMS])),
    ("search.bms_pick_us", "us", "lower", ("flips_per_s", [WPMS])),
    ("search.bms_goodvars_p50", "count", "higher", ("flips_per_s", [WPMS])),
    ("search.bms_sample_waste", "ratio", "lower", ("flips_per_s", [WPMS])),
    ("search.pick_falsified_calls", "count", "higher", ("flips_per_s", [SUITE])),
    ("search.pick_falsified_us", "us", "lower", ("flips_per_s", [SUITE])),
    ("search.loop_self_s", "s", "lower", ("solve_s", [WPMS])),
    ("search.improvements", "count", "higher", ("solve_s", [WPMS])),
    ("weighting.calls", "count", "higher", ("flips_per_s", [SUITE])),
    ("weighting.local_opt_frac", "ratio", "higher", ("flips_per_s", [SUITE])),
    ("weighting.spb_weighting_self_s", "s", "lower", ("flips_per_s", [SUITE])),
    ("weighting.spb_violations", "count", "higher", ("flips_per_s", [SUITE])),
    ("weighting.refresh_vars_per_call", "count", "lower", ("flips_per_s", [SUITE])),
    ("weighting.refresh_candidacy_s", "s", "lower", ("flips_per_s", [SUITE])),
    ("weighting.decay_events", "count", "higher", ("flips_per_s", [SUITE])),
    ("weighting.decay_s", "s", "lower", ("flips_per_s", [SUITE])),
    ("cli.import_s", "s", "lower", ("setup_s", [WPMS])),
    ("cli.self_s", "s", "lower", ("solve_s", [WPMS, COVER])),
    ("bench.self_s", "s", "lower", ("solve_s", [SUITE])),
    ("trace.overhead_s", "s", "lower", ("solve_s", [WPMS, COVER, SUITE])),
    ("trace.search_hot_share", "ratio", "lower", ("flips_per_s", [WPMS])),
    ("trace.setup_share", "ratio", "lower", ("setup_s", [COVER])),
]


def layer_map() -> dict:
    return {name: {"moves": moves, "on": on} for name, _, _, (moves, on) in PER_LAYER}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }


def write(path: Path) -> None:
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
