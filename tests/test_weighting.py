"""Weight-update rules: falsified-hard increments, adaptive soft-conflict
updates, and the decay safeguard."""
from __future__ import annotations

import random

import pytest

from spbmaxsat.common import MODE_ALL_ADAPTIVE, MODE_CONSTANT, MODE_SPB, MODES
from spbmaxsat.formula import INF, Formula
from spbmaxsat.search import ConfigError, SolverConfig
from spbmaxsat.state import SearchState, SpbConstraint, flip
from spbmaxsat.weighting import decay_weights, spb_is_falsified, spb_weighting, update_spb_bound

from gen import assert_state_matches_scratch, random_parts, weight_growth


def make_state(f, values, **kw):
    spb = SpbConstraint(kw.pop("spb_weight", 1.0), kw.pop("spb_bound", INF))
    return SearchState(f, [0, *values], spb=spb, **kw)


class TestSpbConstraint:
    def test_infinite_bound_never_falsified(self):
        spb = SpbConstraint()
        for current in (0, 1, 10**12):
            assert not spb_is_falsified(spb, current)

    def test_strict_inequality(self):
        spb = SpbConstraint(bound=5)
        assert spb_is_falsified(spb, 5)
        assert not spb_is_falsified(spb, 4)

    def test_bound_updates(self):
        spb = SpbConstraint()
        update_spb_bound(spb, 7)
        assert spb.bound == 7
        update_spb_bound(spb, 5)
        assert spb.bound == 5
        with pytest.raises(AssertionError):
            update_spb_bound(spb, 5)


class TestSpbWeighting:
    def test_spb_weight_update_formula(self):
        f = Formula(1, [], [(3, [-1])])
        s = make_state(f, (1,), spb_bound=1)  # obj = 3 >= 1: falsified
        cfg = SolverConfig(h_inc=1, delta=1.001)
        spb_weighting(s, cfg)
        assert s.spb.weight == pytest.approx(2.002, abs=1e-12)

    def test_spb_weight_unchanged_when_satisfied(self):
        f = Formula(1, [], [(3, [1])])
        s = make_state(f, (1,), spb_bound=1)  # obj = 0 < 1: satisfied
        spb_weighting(s, SolverConfig(h_inc=1, delta=1.001))
        assert s.spb.weight == 1.0

    def test_spb_raise_admits_soft_gain_variable(self):
        # score(1) = -5 + 1 * 3 = -2 until the SPB weight rises to 2.002;
        # no falsified hard clause touches variable 1.
        f = Formula(1, [[-1]], [(3, [1])])
        s = make_state(f, (0,), hard_weights=[5.0], spb_bound=3)
        assert s.goodvars.members == []
        spb_weighting(s, SolverConfig(h_inc=1, delta=1.001))
        assert s.spb.weight == pytest.approx(2.002, abs=1e-12)
        assert s.goodvars.members == [1]
        assert_state_matches_scratch(s)

    def test_hard_increment(self):
        f = Formula(2, [[1, 2]], [(1, [1])])
        s = make_state(f, (0, 0))
        spb_weighting(s, SolverConfig(h_inc=28, delta=1.001))
        assert s.hard_weight[0] == 29.0
        assert_state_matches_scratch(s)

    def test_constant_mode_is_additive(self):
        # delta is forced to 1: both weights rise by exactly 1 per event, so
        # R_inc(n) = 1/n and I_inc(n) = 1/(2n) decay to zero.
        w_spb, r_inc, i_inc, hard = weight_growth(MODE_CONSTANT, 1.5, 10_000)
        for n in range(1, 10_001):
            assert w_spb[n - 1] == hard[n - 1] == n + 1.0
            assert r_inc[n - 1] == 1.0 / n
            assert i_inc[n - 1] == 1.0 / (2 * n)

    def test_all_adaptive_hard_rule(self):
        f = Formula(2, [[1, 2]], [(1, [1])])
        s = make_state(f, (0, 0))
        cfg = SolverConfig(h_inc=2, delta=1.5, mode=MODE_ALL_ADAPTIVE)
        spb_weighting(s, cfg)
        assert s.hard_weight[0] == pytest.approx(1.5 * (1 + 2))
        assert_state_matches_scratch(s)

    def test_weights_nondecreasing_between_decays(self):
        rng = random.Random(21)
        n, hard, soft = random_parts(rng)
        f = Formula(n, hard, soft)
        s = make_state(f, [rng.randint(0, 1) for _ in range(n)], spb_bound=0)
        cfg = SolverConfig(h_inc=3, delta=1.01)
        for _ in range(50):
            prev_hard = list(s.hard_weight)
            prev_spb = s.spb.weight
            spb_weighting(s, cfg)
            assert s.spb.weight >= prev_spb
            assert all(w >= p for w, p in zip(s.hard_weight, prev_hard))
            flip(s, rng.randint(1, n))

    def test_rate_exceeds_delta_minus_one(self):
        # In every mode w_spb rises while its R_inc falls and stays above
        # delta - 1 (constant mode forces delta to 1). The multiplicative
        # rule's R_inc converges to delta - 1, and so does the hard
        # weight's in all_adaptive mode.
        for mode in MODES:
            for delta in (1.0, 1.001, 1.01):
                w_spb, r_inc, i_inc, _ = weight_growth(mode, delta, 2000)
                floor = 0.0 if mode == MODE_CONSTANT else delta - 1
                assert all(r > floor for r in r_inc), (mode, delta)
                assert all(i > 0 for i in i_inc), (mode, delta)
                assert all(b < a for a, b in zip(r_inc, r_inc[1:])), (mode, delta)
                assert all(b > a for a, b in zip(w_spb, w_spb[1:])), (mode, delta)
            _, r_inc, i_inc, hard = weight_growth(mode, 1.001, 10_000)
            if mode != MODE_CONSTANT:
                assert r_inc[-1] == pytest.approx(0.001, abs=1e-4), mode
            if mode == MODE_SPB:
                assert i_inc[-1] == pytest.approx(0.001, abs=1e-4)
            if mode == MODE_ALL_ADAPTIVE:
                hard_rate = [(b - a) / a for a, b in zip([1.0, *hard], hard)]
                assert all(r > 0.001 for r in hard_rate)
                assert hard_rate[-1] == pytest.approx(0.001, abs=1e-4)

    @pytest.mark.parametrize("mode", MODES)
    def test_scores_consistent_after_weighting_off_optimum(self, mode):
        rng = random.Random(22)
        for _ in range(10):
            n, hard, soft = random_parts(rng)
            f = Formula(n, hard, soft)
            s = make_state(f, [rng.randint(0, 1) for _ in range(n)],
                           spb_bound=rng.randint(1, 20))
            cfg = SolverConfig(h_inc=2, delta=1.1, mode=mode)
            for _ in range(20):
                flip(s, rng.randint(1, n))
                spb_weighting(s, cfg)
            assert_state_matches_scratch(s)


class TestDecay:
    def test_halves_at_threshold(self):
        f = Formula(1, [], [(3, [-1])])
        s = make_state(f, (1,))
        s.spb.weight = 2e7
        cfg = SolverConfig(decay_threshold=1e7)
        assert decay_weights(s, cfg)
        assert s.spb.weight == 1e7

    def test_clamped_below_at_one(self):
        f = Formula(2, [[1, 2]], [(1, [1])])
        s = make_state(f, (0, 0))
        s.hard_weight[0] = 1.2
        s.spb.weight = 2e7
        cfg = SolverConfig(decay_threshold=1e7)
        decay_weights(s, cfg)
        assert s.hard_weight[0] == 1.0
        assert_state_matches_scratch(s)

    def test_noop_below_threshold(self):
        f = Formula(2, [[1, 2]], [(1, [1])])
        s = make_state(f, (0, 0))
        s.hard_weight[0] = 50.0
        s.max_hard_weight = 50.0
        assert not decay_weights(s, SolverConfig())
        assert s.hard_weight[0] == 50.0

    @pytest.mark.parametrize("mode", MODES)
    def test_forced_decay_keeps_state_consistent(self, mode):
        rng = random.Random(23)
        n, hard, soft = random_parts(rng)
        f = Formula(n, hard, soft)
        s = make_state(f, [rng.randint(0, 1) for _ in range(n)], spb_bound=5)
        cfg = SolverConfig(h_inc=7, delta=1.2, mode=mode)
        for _ in range(30):
            flip(s, rng.randint(1, n))
            spb_weighting(s, cfg)
        assert decay_weights(s, SolverConfig(decay_threshold=1.5))
        assert_state_matches_scratch(s)
        assert min(s.hard_weight, default=1.0) >= 1.0
        assert s.spb.weight >= 1.0

    def test_bound_untouched_by_decay(self):
        f = Formula(1, [], [(3, [-1])])
        s = make_state(f, (1,), spb_bound=42)
        s.spb.weight = 2e7
        decay_weights(s, SolverConfig())
        assert s.spb.bound == 42

    def test_triggered_automatically_from_weighting(self):
        f = Formula(1, [], [(3, [-1])])
        s = make_state(f, (1,), spb_bound=1)
        s.spb.weight = 9.999e6
        cfg = SolverConfig(h_inc=1, delta=1.5, decay_threshold=1e7)
        spb_weighting(s, cfg)  # pushes above the threshold, then decays
        assert s.spb.weight <= 1e7


class TestConfigValidation:
    def test_rejects_bad_values(self):
        f = Formula(1, [], [(3, [-1])])
        for kw, message in (
            ({"mode": "bogus"}, "unknown weighting mode 'bogus'"),
            ({"h_inc": 0}, "h_inc must be positive"),
            ({"delta": 0.9}, "delta must be >= 1"),
            ({"decay_threshold": 1.0}, "decay_threshold must exceed 1"),
            ({"cutoff_seconds": -1.0}, "cutoff_seconds must be >= 0"),
            ({"max_flips": -5}, "max_flips must be >= 0"),
        ):
            with pytest.raises(ConfigError, match=message):
                SolverConfig(**{"max_flips": 1, **kw}).resolve(f)
