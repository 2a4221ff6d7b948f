"""Tests for the centralized anytime index protocol."""

from __future__ import annotations

import hashlib
import math
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from housebandits import centralized, harness, market
from housebandits.centralized import hold_profile, submitted_rankings
from housebandits.env import ArmStats
from housebandits.harness import ExperimentConfig, monte_carlo, run_episode
from housebandits.instances import lower_bound_instance, random_instance, sttcb_instance
from housebandits.market import Ranking, validate_instance


# --- the reference spec the package's inlined ranking must equal ------------

def index(mean: float, count: int, t: int) -> float:
    """Optimistic index: +inf when the arm was never pulled, otherwise
    mean + sqrt(3 ln t / (2 count)) with the count taken before the
    current round."""
    if count == 0:
        return math.inf
    return mean + math.sqrt(3.0 * math.log(t) / (2.0 * count))


def rank_by_index(indices: Sequence[float]) -> Ranking:
    """Arms by index, best first; ties (including several +inf) break
    toward the lower arm index."""
    return tuple(sorted(range(len(indices)), key=lambda j: (-indices[j], j)))


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
        st.fold(1, (0.9,))
        st.fold(1, (0.3,))
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
        _, matching, outcome = platform_round(states, 1, env)
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
            _, matching, outcome = platform_round(states, t, env)
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


# --- the inlined index and the platform memo against the spec ----------------

# Bernoulli rewards keep means on a few values, so equal (mean, count)
# pairs, and with them equal indices, are common
MEANS = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(-1.0, 2.0)
COUNTS = st.integers(0, 3) | st.integers(0, 10**7)


@st.composite
def player_states(draw):
    n = draw(st.integers(1, 6))
    states = []
    for _ in range(n):
        stats = ArmStats(n)
        stats.means = draw(st.lists(MEANS, min_size=n, max_size=n))
        stats.counts = draw(st.lists(COUNTS, min_size=n, max_size=n))
        states.append(stats)
    return states


@settings(max_examples=300, deadline=None)
@given(player_states(), st.integers(1, 10**7))
def test_submitted_rankings_equal_the_reference(states, t):
    expected = tuple(
        rank_by_index([index(m, c, t) for m, c in zip(s.means, s.counts)]) for s in states
    )
    assert submitted_rankings(states, t) == expected


def test_ttc_runs_exactly_when_the_profile_changes_and_returns_its_matching(monkeypatch):
    """Over a centralized episode on the loop alone, which plays every
    round through platform_round, the platform calls ttc in exactly the rounds
    whose ranking profile differs from the round before, on that
    profile, and every round's matching is ttc's matching of that
    round's rankings. A profile that comes back after another calls ttc
    again: nothing is remembered beyond the previous round."""
    calls = []
    profiles = []
    rounds = []
    platform_round = centralized.platform_round

    def counting_ttc(rankings):
        calls.append((len(profiles), rankings))
        return market.ttc(rankings)

    def recording_rankings(states, t):
        profiles.append(submitted_rankings(states, t))
        return profiles[-1]

    def recording_round(states, t, env, last):
        rankings, matching, outcome = platform_round(states, t, env, last)
        assert rankings == profiles[-1]
        rounds.append((rankings, matching))
        return rankings, matching, outcome

    monkeypatch.setattr(centralized, "ttc", counting_ttc)
    monkeypatch.setattr(centralized, "submitted_rankings", recording_rankings)
    monkeypatch.setattr(harness, "platform_round", recording_round)
    monkeypatch.setattr(harness, "_FAST_FORWARD", False)
    inst = sttcb_instance(5, 0.2, np.random.default_rng(7))
    cfg = ExperimentConfig(inst, "centralized-ucb", horizon=20000, seeds=(0,))
    run_episode(cfg, 0)

    changed = [(t, p) for t, p in enumerate(profiles, 1) if t == 1 or p != profiles[t - 2]]
    assert len(rounds) == 20000
    assert 100 < len(changed) < len(rounds)
    assert len(changed) > len(set(profiles))
    assert calls == changed
    for rankings, matching in rounds:
        assert matching == market.ttc(rankings)


# --- the prepared stretch against the all-pairs block check -----------------

def hold_profile_reference(states, rankings, assignment, t, rewards):
    """One block of a held stretch, every (round, player, arm) index
    computed afresh from the states: the rounds t .. t + k - 1 in which
    player i draws rewards[r, i] from arm assignment[i]. Returns the
    number of leading rounds whose profile is still rankings, and folds
    exactly those rounds' rewards into the states."""
    k, n = rewards.shape
    rows = np.arange(n)
    means = np.array([st.means for st in states])
    counts = np.array([st.counts for st in states], dtype=float)
    runs = [st.run(a, col) for st, a, col in zip(states, assignment, rewards.T.tolist())]
    # round t + r ranks on the matched arm's mean and count after r rewards
    m = np.repeat(means[None], k, axis=0)
    c = np.repeat(counts[None], k, axis=0)
    m[1:, rows, assignment] = np.array(runs).T[:-1]
    c[:, rows, assignment] += np.arange(k)[:, None]
    explore = np.array([3.0 * math.log(s) for s in range(t, t + k)])[:, None, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        neg = -(m + np.sqrt(explore / (2.0 * c)))
    neg[c == 0] = -math.inf
    # along each ranking the negated indices rise, a tie with the lower arm first
    order = np.array(rankings)
    ranked = neg[:, rows[:, None], order]
    ahead, behind = ranked[..., :-1], ranked[..., 1:]
    sorted_ok = (ahead < behind) | ((ahead == behind) & (order[:, :-1] < order[:, 1:]))
    holds = sorted_ok.all(axis=(1, 2))
    held = k if holds.all() else int(holds.argmin())
    for st, a, run in zip(states, assignment, runs):
        if held:
            st.means[a] = run[held - 1]
        st.counts[a] += held
    return held


def copy_states(states):
    copies = []
    for st in states:
        copy = ArmStats(len(st.means))
        copy.means, copy.counts = list(st.means), list(st.counts)
        copies.append(copy)
    return copies


def hold_stretch(states, rankings, assignment, t, blocks):
    """Play blocks of rewards one after another through one prepared
    stretch, and the same blocks through the reference on a copy of
    the states, until a block breaks; after each block both hold the
    same states. Returns the held counts."""
    reference = copy_states(states)
    keep = hold_profile(states, rankings, assignment)
    helds = []
    for rewards in blocks:
        held = keep(t, rewards)
        assert held == hold_profile_reference(reference, rankings, assignment, t, rewards)
        assert repr([(st.means, st.counts) for st in states]) == repr([
            (st.means, st.counts) for st in reference])
        helds.append(held)
        t += held
        if held < len(rewards):
            break
    return helds


def two_players(means, counts):
    states = [ArmStats(2), ArmStats(2)]
    for st, m, c in zip(states, means, counts):
        st.means, st.counts = list(m), list(c)
    return states


def test_a_block_breaks_where_a_tie_puts_the_lower_arm_first():
    """Player 1 ranks arm 2 first until one more reward gives it arm 1's
    mean and count; the exact tie then sorts arm 1 first, so the
    profile holds for one block round only."""
    states = two_players([(0.5, 0.5), (1.0, 0.0)], [(4, 3), (100, 100)])
    rankings = submitted_rankings(states, 10)
    assert rankings == ((1, 0), (0, 1))
    assignment = market.ttc(rankings).assignment
    assert hold_stretch(states, rankings, assignment, 10, [np.array([[0.5, 1.0]] * 3)]) == [1]
    assert (states[0].means, states[0].counts) == ([0.5, 0.5], [4, 4])
    assert submitted_rankings(states, 11) == ((0, 1), (0, 1))


def test_a_block_holds_through_a_tie_that_keeps_the_lower_arm_first():
    """The same tie with arm 1 ranked first keeps the ranking; the next
    reward drops arm 1 behind arm 2."""
    states = two_players([(0.5, 0.5), (0.0, 1.0)], [(3, 4), (100, 100)])
    rankings = submitted_rankings(states, 10)
    assert rankings == ((0, 1), (1, 0))
    assignment = market.ttc(rankings).assignment
    assert hold_stretch(states, rankings, assignment, 10, [np.array([[0.5, 1.0]] * 3)]) == [2]
    assert (states[0].means, states[0].counts) == ([0.5, 0.5], [5, 4])
    assert submitted_rankings(states, 12) == ((1, 0), (1, 0))


@st.composite
def held_stretches(draw):
    """States whose matched arms have been pulled (some other arms not),
    the profile they submit in round t, and blocks of rewards."""
    states = draw(player_states())
    n = len(states)
    assignment = draw(st.permutations(range(n)))
    for stats, a in zip(states, assignment):
        stats.counts[a] = max(stats.counts[a], 1)
    t = draw(st.integers(1, 10**7))
    blocks = [np.array(draw(st.lists(st.lists(MEANS, min_size=n, max_size=n),
                                     min_size=1, max_size=40)))
              for _ in range(draw(st.integers(1, 4)))]
    return states, submitted_rankings(states, t), tuple(assignment), t, blocks


@settings(max_examples=150, deadline=None)
@given(held_stretches())
def test_a_prepared_stretch_equals_the_all_pairs_check(stretch):
    """The first block holds at least its first round, whose profile
    was read from the same states."""
    helds = hold_stretch(*stretch)
    assert helds[0] >= 1


# sha256 of (final_pseudo, final_realized, checkpoint_pseudo, stats) of 18
# episodes, recorded with the per-(player, arm) index function and a ttc
# call every round; the inlined index and the memo must not move a bit
EPISODES_DIGEST = "488ba674aaddfe8eccf19ab466189f69b05f89dbfc9d062f7bc9e516c5875223"


def test_episodes_match_the_recorded_digest():
    markets = (
        sttcb_instance(5, 0.2, np.random.default_rng(7)),
        lower_bound_instance(5, 0.2, 1),
        random_instance(4, 0.05, np.random.default_rng(1)),
    )
    digest = hashlib.sha256()
    for inst in markets:
        for family in ("gaussian", "bernoulli", "deterministic"):
            cfg = ExperimentConfig(inst, "centralized-ucb", horizon=20000, seeds=(0, 1),
                                   reward_family=family, checkpoints=(1, 100, 4097, 20000))
            for seed in cfg.seeds:
                tr = run_episode(cfg, seed)
                digest.update(repr((tr.final_pseudo, tr.final_realized, tr.checkpoint_pseudo,
                                    sorted(tr.stats.items()))).encode())
    assert digest.hexdigest() == EPISODES_DIGEST
