"""Command-line interface tests: protocol output, exit codes, subcommands."""
from __future__ import annotations

import argparse
import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from spbmaxsat import cli
from spbmaxsat.cli import main
from spbmaxsat.common import MODES
from spbmaxsat.formula import load_wcnf
from spbmaxsat.search import INITS, PRESETS, SolverConfig

from gen import random_parts, render_old

F1 = "p wcnf 2 3 10\n10 1 2 0\n2 -1 0\n5 -2 0\n"


@pytest.fixture
def f1_path(tmp_path):
    p = tmp_path / "f1.wcnf"
    p.write_text(F1)
    return str(p)


def readme_section(start: str, end: str) -> str:
    """README text from the first `start` up to the next `end`."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    i = readme.index(start)
    return readme[i:readme.index(end, i)]


def subcommands() -> dict:
    return next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def protocol_lines(out: str):
    o_lines = [int(l[2:]) for l in out.splitlines() if l.startswith("o ")]
    s_lines = [l for l in out.splitlines() if l.startswith("s ")]
    v_lines = [l[2:] for l in out.splitlines() if l.startswith("v ")]
    return o_lines, s_lines, v_lines


class TestSolveCommand:
    def test_f1_protocol(self, f1_path, capsys):
        rc = main(["solve", f1_path, "--max-flips", "10000", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        o, s, v = protocol_lines(out)
        assert o[-1] == 2
        assert s == ["s SATISFIABLE"]
        assert len(v) == 1 and len(v[0]) == 2
        assert set(v[0]) <= {"0", "1"}

    def test_o_lines_strictly_decreasing_and_v_consistent(self, tmp_path, capsys):
        rng = random.Random(61)
        n, hard, soft = random_parts(rng)
        p = tmp_path / "r.wcnf"
        p.write_text(render_old(n, hard, soft))
        rc = main(["solve", str(p), "--max-flips", "20000", "--seed", "9"])
        assert rc == 0
        out = capsys.readouterr().out
        o, s, v = protocol_lines(out)
        assert all(a > b for a, b in zip(o, o[1:]))
        if s == ["s SATISFIABLE"]:
            f = load_wcnf(str(p))
            values = [0] + [int(ch) for ch in v[0]]
            assert f.cost(values) == o[-1]

    def test_unsatisfiable_reports_unknown(self, tmp_path, capsys):
        p = tmp_path / "u.wcnf"
        p.write_text("h 1 0\nh -1 0\n1 1 0\n")
        rc = main(["solve", str(p), "--max-flips", "500"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "s UNKNOWN" in out
        assert "v " not in out

    def test_missing_file(self, capsys):
        rc = main(["solve", "/no/such/file.wcnf"])
        assert rc != 0
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("k", [0, 65537, 2**63])
    def test_bad_value_reported_before_reading_instance(self, capsys, k):
        assert main(["solve", "/no/such/file.wcnf", "--k", str(k)]) == 1
        assert capsys.readouterr().err == "error: k must be in [1, 65536]\n"

    @pytest.mark.parametrize("flags, error", [
        (["--time-limit", "nan"], "cutoff_seconds must be >= 0"),
        (["--time-limit", "-1"], "cutoff_seconds must be >= 0"),
        (["--max-flips", "-5"], "max_flips must be >= 0"),
    ])
    def test_bad_budget_reported_before_reading_instance(self, capsys, flags, error):
        assert main(["solve", "/no/such/file.wcnf", *flags]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"

    def test_parse_error_exit_code(self, tmp_path, capsys):
        p = tmp_path / "bad.wcnf"
        p.write_text("p wcnf zzz\n")
        rc = main(["solve", str(p)])
        assert rc != 0

    def test_unknown_flag(self, f1_path):
        with pytest.raises(SystemExit) as exc:
            main(["solve", f1_path, "--bogus"])
        assert exc.value.code != 0

    def test_byte_identical_repeat_runs(self, tmp_path, capsys):
        rng = random.Random(62)
        n, hard, soft = random_parts(rng)
        p = tmp_path / "d.wcnf"
        p.write_text(render_old(n, hard, soft))
        args = ["solve", str(p), "--max-flips", "15000", "--seed", "4"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_time_limit_covers_parsing(self, f1_path, tmp_path, capsys, monkeypatch):
        load = cli.load_wcnf

        def slow_load(path):
            time.sleep(0.2)
            return load(path)

        monkeypatch.setattr(cli, "load_wcnf", slow_load)
        unsat = tmp_path / "u.wcnf"
        unsat.write_text("h 1 0\nh -1 0\n1 1 0\n")
        for path, feasible in ((f1_path, True), (str(unsat), False)):
            assert main(["solve", path, "--time-limit", "0.1"]) == 0
            captured = capsys.readouterr()
            o, s, v = protocol_lines(captured.out)
            assert "flips=0 " in captured.err
            assert "termination=time " in captured.err
            if feasible:
                assert s == ["s SATISFIABLE"]
                assert load(f1_path).cost([0] + [int(ch) for ch in v[0]]) == o[-1]
            else:
                assert s == ["s UNKNOWN"] and v == []

    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
    def test_a_stopped_run_prints_its_best_model(self, tmp_path, signum):
        n, hard, soft = random_parts(random.Random(5), min_vars=200, max_vars=200,
                                     min_clauses=800, max_clauses=800, max_weight=1000)
        path = tmp_path / "w200.wcnf"
        path.write_text(render_old(n, hard, soft))
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        with open(tmp_path / "err", "w+") as err:
            proc = subprocess.Popen([sys.executable, "-m", "spbmaxsat.cli", "solve", str(path),
                                     "--time-limit", "30"], stdout=subprocess.PIPE,
                                    stderr=err, text=True, env=env)
            try:
                first = proc.stdout.readline()
                assert first.startswith("o "), first
                proc.send_signal(signum)
                proc.wait(timeout=20)  # well before the time limit
                out = first + proc.stdout.read()  # a few lines: the pipe never filled
            finally:
                proc.kill()
                proc.stdout.close()
            err.seek(0)
            err = err.read()
        assert proc.returncode == 0, err
        assert "termination=stopped" in err
        o, s, v = protocol_lines(out)
        assert s == ["s SATISFIABLE"] and len(v) == 1
        assert load_wcnf(path).cost([0, *map(int, v[0])]) == o[-1]

    def test_largest_k_keeps_the_time_limit(self, tmp_path, capsys):
        """From a random start, 20,000 unit soft clauses leave thousands of
        candidates to every pick, so each draws all k samples: at the
        largest k that SolverConfig takes, the 1024 flips between two reads
        of the clock still end the run within a second of its limit."""
        from spbmaxsat import kernel

        if kernel.load() is None:
            pytest.skip("the bound is set by the C kernel's pick")
        path = tmp_path / "units.wcnf"
        path.write_text("".join(f"1 {v} 0\n" for v in range(1, 20_001)))
        t0 = time.perf_counter()
        assert main(["solve", str(path), "--init", "random", "--k", "65536",
                     "--time-limit", "0.5"]) == 0
        assert time.perf_counter() - t0 < 1.5
        err = capsys.readouterr().err
        assert "termination=time" in err and " backend=c" in err

    def test_solve_restores_the_signal_handlers(self, f1_path, capsys):
        handlers = {sig: signal.getsignal(sig) for sig in (signal.SIGTERM, signal.SIGINT)}
        assert main(["solve", f1_path, "--max-flips", "100"]) == 0
        assert {sig: signal.getsignal(sig) for sig in handlers} == handlers

    def test_mode_and_param_flags(self, f1_path, capsys):
        rc = main(["solve", f1_path, "--max-flips", "4000", "--mode",
                   "all-adaptive", "--preset", "wpms", "--k", "10",
                   "--h-inc", "2", "--delta", "1.01", "--init", "random",
                   "--decay-threshold", "1e6"])
        assert rc == 0
        o, s, _ = protocol_lines(capsys.readouterr().out)
        assert o[-1] == 2

    def test_readme_lists_every_solver_flag(self):
        listed = re.findall(r"`(--[a-z-]+)", readme_section("Solver flags:", "Presets:"))
        options = [opt for action in subcommands()["solve"]._actions
                   for opt in action.option_strings if opt not in ("-h", "--help")]
        assert sorted(listed) == sorted(options)

    def test_flags_and_choices_come_from_solver_config(self):
        actions = {a.dest: a for a in subcommands()["solve"]._actions if a.option_strings}
        del actions["help"]
        assert set(actions) == set(SolverConfig.FIELDS)
        assert tuple(actions["preset"].choices) == ("auto", *PRESETS)
        assert tuple(actions["init"].choices) == INITS
        assert tuple(actions["mode"].choices) == tuple(m.replace("_", "-") for m in MODES)

    def test_readme_lists_every_subcommand(self):
        listed = re.findall(r"^spb-maxsat ([a-z]+)", readme_section("## CLI", "\n```\n"), re.M)
        assert sorted(set(listed)) == sorted(subcommands())


class TestOracleCommand:
    def test_optimum_line(self, f1_path, capsys):
        assert main(["oracle", f1_path]) == 0
        assert capsys.readouterr().out.strip() == "o 2"

    def test_unsatisfiable(self, tmp_path, capsys):
        p = tmp_path / "u.wcnf"
        p.write_text("h 1 0\nh -1 0\n1 1 0\n")
        assert main(["oracle", str(p)]) == 0
        assert capsys.readouterr().out.strip() == "s UNSATISFIABLE"

    def test_too_many_variables(self, tmp_path, capsys):
        lits = " ".join(str(v) for v in range(1, 26))
        p = tmp_path / "big.wcnf"
        p.write_text(f"h {lits} 0\n1 1 0\n")
        assert main(["oracle", str(p)]) != 0


def bench_dir(tmp_path) -> Path:
    inst_dir = tmp_path / "instances"
    inst_dir.mkdir()
    for i in range(2):
        (inst_dir / f"i{i}.wcnf").write_text(F1)
    return inst_dir


class TestBenchCommand:
    def test_end_to_end(self, tmp_path, capsys):
        rng = random.Random(63)
        inst_dir = tmp_path / "instances"
        inst_dir.mkdir()
        for i in range(2):
            n, hard, soft = random_parts(rng, min_vars=6, max_vars=8,
                                         min_clauses=6, max_clauses=12)
            (inst_dir / f"i{i}.wcnf").write_text(render_old(n, hard, soft))
        out_dir = tmp_path / "out"
        rc = main([
            "bench", "--dir", str(inst_dir), "--jobs", "1",
            "--out", str(out_dir),
            "--config", "a=--max-flips 2000 --seed 1;b=--max-flips 2000 --seed 2 --mode constant",
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "#inst: 2" in text
        assert (out_dir / "runs.jsonl").exists()
        assert (out_dir / "report.json").exists()

    def test_duplicate_label_rejected_before_any_run(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        rc = main([
            "bench", "--dir", str(bench_dir(tmp_path)), "--out", str(out_dir),
            "--config", "a=--max-flips 10 --seed 1;a=--max-flips 3000 --seed 2",
        ])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == "error: duplicate config label 'a'\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("args, error", [
        (["--config", "a=--max-flips 10 --k 0;b=--max-flips 10"], "k must be in [1, 65536]"),
        (["--config", "a=--max-flips 10;b=--max-flips 10 --k 65537"], "k must be in [1, 65536]"),
        (["--config", "nolabel --max-flips 10"],
         "bad --config entry 'nolabel --max-flips 10': expected label=<flags>"),
        (["--config", "a=--bogus"],
         "bad --config entry 'a=--bogus': unrecognized arguments: --bogus"),
        (["--config", "a=--k x"],
         "bad --config entry 'a=--k x': argument --k: invalid int value: 'x'"),
        (["--config", 'a=--seed "1'],
         "bad --config entry 'a=--seed \"1': No closing quotation"),
        (["--time-limit", "nan"], "cutoff_seconds must be >= 0"),
    ], ids=["bad-value", "k-too-large", "no-label", "unknown-flag", "unparsable-value",
            "unbalanced-quote", "nan-time-limit"])
    def test_bad_config_rejected_before_any_run(self, tmp_path, capsys, args, error):
        out_dir = tmp_path / "out"
        rc = main(["bench", "--dir", str(bench_dir(tmp_path)), "--out", str(out_dir), *args])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == f"error: {error}\n"
        assert not out_dir.exists()
