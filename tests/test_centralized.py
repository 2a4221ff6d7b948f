"""Tests for the centralized anytime index protocol."""

from __future__ import annotations

import math

import numpy as np
import pytest

from housebandits.centralized import index, rank_by_index, submitted_rankings
from housebandits.env import ArmStats
from housebandits.harness import ExperimentConfig, monte_carlo, run_episode
from housebandits.instances import sttcb_instance
from housebandits.market import validate_instance


def swap_market():
    return validate_instance(np.array([[0.2, 0.9], [0.9, 0.2]]), "gaussian")


class TestIndex:
    def test_unseen_arm_is_infinite(self):
        assert index(0.0, 0, 1) == math.inf
        assert index(0.7, 0, 10**6) == math.inf

    def test_hand_value(self):
        # sqrt(3 * ln(e^4) / (2 * 6)) = sqrt(12 / 12) = 1
        assert index(0.5, 6, math.exp(4.0)) == pytest.approx(1.5)

    def test_shrinks_with_count_grows_with_round(self):
        by_count = [index(0.5, c, 100) for c in (1, 2, 8, 32)]
        assert by_count == sorted(by_count, reverse=True)
        by_round = [index(0.5, 10, t) for t in (2, 10, 100, 10**4)]
        assert by_round == sorted(by_round)

    def test_incremental_update(self):
        st = ArmStats(2)
        st.update(1, 0.9)
        st.update(1, 0.3)
        assert st.means[1] == pytest.approx(0.6)
        assert st.counts == [0, 2]


class TestRanking:
    def test_all_unseen_breaks_ties_by_arm(self):
        assert rank_by_index([math.inf] * 3) == (0, 1, 2)

    def test_infinite_index_outranks_finite(self):
        assert rank_by_index([1.5, math.inf, 0.3]) == (1, 0, 2)

    def test_equal_finite_ties_by_arm(self):
        assert rank_by_index([0.5, 0.7, 0.5]) == (1, 0, 2)

    def test_first_round_everyone_ranks_identically(self):
        states = [ArmStats(3) for _ in range(3)]
        assert submitted_rankings(states, 1) == ((0, 1, 2),) * 3


class TestRounds:
    def test_first_round_matching_is_identity(self):
        """All-infinite indices tie-break to identical rankings, whose
        trading cycles are the self-loops."""
        from housebandits.centralized import platform_round
        from housebandits.env import MarketEnv

        inst = swap_market()
        env = MarketEnv(inst, seed=0)
        states = [ArmStats(2) for _ in range(2)]
        matching, outcome = platform_round(states, 1, env)
        assert matching.assignment == (0, 1)
        assert outcome.matched == (0, 1)
        assert not any(outcome.collided)

    def test_every_round_matches_everyone(self):
        from housebandits.centralized import platform_round
        from housebandits.env import MarketEnv

        rng = np.random.default_rng(5)
        inst = sttcb_instance(4, 0.25, rng, "gaussian")
        env = MarketEnv(inst, seed=11)
        states = [ArmStats(4) for _ in range(4)]
        for t in range(1, 51):
            matching, outcome = platform_round(states, t, env)
            assert sorted(matching.assignment) == [0, 1, 2, 3]
            assert not any(outcome.collided)
            assert None not in outcome.matched

    def test_pull_counts_track_rounds(self):
        from housebandits.centralized import platform_round
        from housebandits.env import MarketEnv

        inst = swap_market()
        env = MarketEnv(inst, seed=0)
        states = [ArmStats(2) for _ in range(2)]
        for t in range(1, 11):
            platform_round(states, t, env)
        assert all(sum(st.counts) == 10 for st in states)


class TestConvergence:
    def test_zero_noise_locks_onto_core(self):
        """Exact means leave only the forced optimism pulls; the core
        matching is played in 288 of 300 rounds."""
        cfg = ExperimentConfig(
            swap_market(), "centralized-ucb", horizon=300, seeds=(0,),
            reward_family="deterministic", checkpoints=(300,),
        )
        tr = run_episode(cfg, 0)
        assert tr.stats["core_match_rounds"] == 288
        assert tr.final_pseudo == pytest.approx((8.4, 8.4))

    def test_noisy_second_half_mostly_core(self):
        rng = np.random.default_rng(3)
        inst = sttcb_instance(4, 0.25, rng, "gaussian")
        cfg = ExperimentConfig(
            inst, "centralized-ucb", horizon=10**4, seeds=tuple(range(10)),
        )
        rep = monte_carlo(cfg)
        assert rep.telemetry["mean_core_match_fraction_second_half"] >= 0.95

    def test_regret_growth_slows_down(self):
        """Pseudo-regret accumulated in (500, 1000] is below the
        regret accumulated in (0, 500]."""
        rng = np.random.default_rng(3)
        inst = sttcb_instance(4, 0.25, rng, "gaussian")
        cfg = ExperimentConfig(
            inst, "centralized-ucb", horizon=1000, seeds=tuple(range(10)),
            checkpoints=(500, 1000),
        )
        rep = monte_carlo(cfg)
        first = np.array(rep.mean_regret[0])
        second = np.array(rep.mean_regret[1]) - first
        assert (second < first).all()
