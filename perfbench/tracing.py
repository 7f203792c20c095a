"""Traced child process: ``python3 tracing.py <trace.json> <cli args>...``.

Wraps the module-level names that the solver looks up at call time, runs
``spbmaxsat.cli.main`` with the given arguments, and writes the collected
spans and counts to trace.json when the run ends. The solver's own files
are not touched; with the wrappers removed the run is the untraced one.

A span's self time is its duration minus the time of the spans it caused.
Spans are kept as per-name totals (calls, total, self), not one record per
call, so that millions of flips fit in memory.
"""
from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter
from typing import Optional


def peak_rss_mb(pid="self") -> Optional[float]:
    """VmHWM of a live process, in MB; None once it has exited.

    Unlike ru_maxrss, this is the process's own peak: ru_maxrss also counts
    the resident size of the parent that spawned it.
    """
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


class Tracer:
    """Per-name span totals plus event counts, all in memory."""

    def __init__(self):
        self.spans = {}  # name -> [calls, total_s, self_s]
        self.counts = Counter()
        self.goodvars = Counter()  # |goodvars| at each bms_pick call
        self.improvement_steps = []  # per solve: the flip step of each o line
        self._child_time = [0.0]  # per open span: time covered by its children

    def wrap(self, module, attr, name, before=None, after=None):
        fn = getattr(module, attr)
        totals = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._child_time

        def traced(*args, **kwargs):
            t_enter = perf_counter()
            if before is not None:
                before(*args, **kwargs)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                children = stack.pop()
                totals[0] += 1
                totals[1] += dur
                totals[2] += dur - children
            if after is not None:
                after(result, *args, **kwargs)
            # The hooks are tracing cost: keep them out of the caller's self time.
            stack[-1] += perf_counter() - t_enter
            return result

        setattr(module, attr, traced)

    def install(self, cli, bench, formula, search, weighting) -> None:
        c = self.counts

        def on_parse(source):
            c["input_bytes"] += len(source)

        def on_load(_path):
            c["rss_before_load_mb"] += peak_rss_mb() or 0.0

        def after_load(_f, _path):
            c["rss_after_load_mb"] += peak_rss_mb() or 0.0

        def after_state(st, *_a, **_k):
            c["states"] += 1
            c["falsified_hard_after_init"] += len(st.falsified_hard.members)

        def before_flip(st, v):
            f = st.formula
            c["flip_occ"] += (len(f.occ_hard_pos[v]) + len(f.occ_hard_neg[v])
                              + len(f.occ_soft_pos[v]) + len(f.occ_soft_neg[v]))

        def before_bms(st, k, _rng):
            m = len(st.goodvars.members)
            self.goodvars[m] += 1
            c["bms_waste"] += 1.0 - min(m, k) / k

        def after_result(result, *_a, **_k):
            c["improvements"] += len(result.trace)
            self.improvement_steps.append([step for step, _, _ in result.trace])

        def count_true(key):
            def after(result, *_a, **_k):
                if result:
                    c[key] += 1
            return after

        def before_refresh(_st, variables):
            c["refresh_vars"] += len(variables)

        self.wrap(cli, "load_wcnf", "cli.load_wcnf", before=on_load, after=after_load)
        self.wrap(cli, "solve", "cli.solve", after=after_result)
        self.wrap(cli, "run_benchmark", "bench.run_benchmark")
        self.wrap(bench, "load_wcnf", "bench.load_wcnf", before=on_load, after=after_load)
        self.wrap(bench, "solve", "bench.solve", after=after_result)
        self.wrap(formula, "parse_wcnf", "formula.parse_wcnf", before=on_parse)
        self.wrap(formula, "Formula", "formula.Formula")
        self.wrap(search, "decimation_init", "initialization.decimation_init")
        self.wrap(search, "SearchState", "state.SearchState", after=after_state)
        self.wrap(search, "bms_pick", "search.bms_pick", before=before_bms)
        self.wrap(search, "pick_from_falsified", "search.pick_from_falsified")
        self.wrap(search, "flip", "state.flip", before=before_flip)
        self.wrap(search, "spb_weighting", "weighting.spb_weighting")
        self.wrap(weighting, "refresh_candidacy", "weighting.refresh_candidacy",
                  before=before_refresh)
        self.wrap(weighting, "spb_is_falsified", "weighting.spb_is_falsified",
                  after=count_true("spb_violations"))
        self.wrap(weighting, "decay_weights", "weighting.decay_weights",
                  after=count_true("decay_events"))

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "goodvars_hist": sorted(self.goodvars.items()),
            "improvement_steps": self.improvement_steps,
        }


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    t0 = perf_counter()
    import spbmaxsat.cli as cli  # the import is itself a measured layer
    import_s = perf_counter() - t0
    import json

    from spbmaxsat import bench, formula, search, weighting

    tracer = Tracer()
    tracer.install(cli, bench, formula, search, weighting)
    tracer.wrap(cli, "main", "cli.main")
    try:
        rc = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        data = tracer.dump()
        data["import_s"] = import_s
        with open(out_path, "w") as fh:
            json.dump(data, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
