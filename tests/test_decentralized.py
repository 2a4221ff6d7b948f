"""Tests for the decentralized explore-then-commit protocol."""

from __future__ import annotations

import io
import itertools
import math

import numpy as np
import pytest

from housebandits.decentralized import (
    COMMUNICATE,
    EXPLORE,
    PHASE2,
    DecentralizedPlayer,
    PlayerView,
    confidence_bounds,
    entry_round_bound,
    sub_phase_end,
    try_extract_ranking,
)
from housebandits.env import ArmStats, MarketEnv
from housebandits.errors import ConfigInvalidError, DesyncError
from housebandits.harness import ExperimentConfig, run_episode
from housebandits.instances import random_instance, sttcb_instance
from housebandits.market import validate_instance, yrmh_igyt


def swap_market():
    """Two players, both rows with a 0.7 adjacent gap; core is the swap."""
    return validate_instance(np.array([[0.2, 0.9], [0.9, 0.2]]), "gaussian")


def reference_schedule(t, n):
    """Independent prefix-sum walk over explore/communicate blocks:
    (sub-phase, stage, 1-based offset in the stage) of round t."""
    ell = 1
    while True:
        if t <= 2**ell:
            return (ell, EXPLORE, t)
        t -= 2**ell
        if t <= n:
            return (ell, COMMUNICATE, t)
        t -= n
        ell += 1


def walk_schedule(n, rounds):
    """Yield (t, (sub-phase, stage, offset)) for rounds 1..rounds, read
    from a player's own counters before it acts. Zero rewards tie every
    arm, so the player never certifies and stays in phase 1."""
    player = DecentralizedPlayer(0, n, 10**7)
    flags = [True] * n
    for t in range(1, rounds + 1):
        length = 2**player.ell if player.stage == EXPLORE else n
        yield t, (player.ell, player.stage, length - player.stage_left + 1)
        arm = player.action(t, flags)
        player.observe(t, PlayerView(arm, 0.0, False, ()))


class TestSchedule:
    def test_three_player_layout(self):
        """Hand-unrolled layout for n=3: 2 explore + 3 status rounds,
        then 4 + 3, then 8 + 3."""
        layout = dict(walk_schedule(3, 23))
        assert layout[1] == (1, EXPLORE, 1)
        assert layout[2] == (1, EXPLORE, 2)
        assert layout[3] == (1, COMMUNICATE, 1)
        assert layout[5] == (1, COMMUNICATE, 3)
        assert layout[6] == (2, EXPLORE, 1)
        assert layout[9] == (2, EXPLORE, 4)
        assert layout[10] == (2, COMMUNICATE, 1)
        assert layout[12] == (2, COMMUNICATE, 3)
        assert layout[13] == (3, EXPLORE, 1)
        assert layout[23] == (3, COMMUNICATE, 3)

    def test_sub_phase_end_closed_form(self):
        assert sub_phase_end(1, 3) == 5
        assert sub_phase_end(2, 3) == 12
        assert sub_phase_end(3, 3) == 23
        assert sub_phase_end(9, 2) == 1040
        assert sub_phase_end(15, 5) == 65609
        assert sub_phase_end(17, 5) == 262227

    @pytest.mark.parametrize("n", [2, 5])
    def test_matches_prefix_sum_reference(self, n):
        for t, position in walk_schedule(n, 10**6 + 1):
            if t < 2000 or t >= 10**6:
                assert position == reference_schedule(t, n), t

    def test_schedule_rejects_nonpositive_round(self):
        player = DecentralizedPlayer(0, 3, 1000)
        with pytest.raises(DesyncError):
            player.action(0, [True] * 3)
        with pytest.raises(DesyncError):
            player.observe(0, PlayerView(None, 0.0, False, ()))

    def test_stage_ends_line_up_with_sub_phase_end(self):
        for n in (2, 4):
            layout = dict(walk_schedule(n, sub_phase_end(11, n) + 1))
            for ell in range(1, 12):
                end = sub_phase_end(ell, n)
                assert layout[end] == (ell, COMMUNICATE, n)
                assert layout[end + 1] == (ell + 1, EXPLORE, 1)


def stats_of(means, counts):
    stats = ArmStats(len(means))
    stats.means = list(means)
    stats.counts = list(counts)
    return stats


class TestEstimates:
    def test_incremental_mean_matches_average(self):
        stats = ArmStats(2)
        stats.fold(0, (1.0,))
        assert stats.means[0] == 1.0 and stats.counts[0] == 1
        stats.fold(0, (0.5,))
        assert stats.means[0] == pytest.approx(0.75)
        stats.fold(0, (0.25,))
        assert stats.means[0] == pytest.approx(7 / 12)
        assert stats.counts == [3, 0]

    def test_confidence_radius_value(self):
        # sqrt(6 ln 400 / 24) = 1.2238734...
        lo, hi = confidence_bounds(0.5, 24, 400)
        assert hi - 0.5 == pytest.approx(1.2238734153404083)
        assert 0.5 - lo == pytest.approx(1.2238734153404083)

    def test_confidence_radius_shrinks_with_count(self):
        radii = [confidence_bounds(0.0, c, 10**4)[1] for c in (1, 4, 16, 64)]
        assert radii == sorted(radii, reverse=True)
        # quadrupling the count halves the radius
        assert radii[0] / radii[1] == pytest.approx(2.0)


class TestExtraction:
    def test_unseen_arm_blocks_certification(self):
        assert try_extract_ranking(stats_of([0.9, 0.0], [400, 0]), 400) is None

    def test_separated_means_certify(self):
        # radius at count 400, horizon 400 is 0.2998; 0.9 - r > 0.1 + r
        assert try_extract_ranking(stats_of([0.9, 0.1], [400, 400]), 400) == (0, 1)

    def test_wide_intervals_refuse(self):
        # radius at count 100 is 0.5996; intervals overlap
        assert try_extract_ranking(stats_of([0.9, 0.1], [100, 100]), 400) is None

    def test_one_close_pair_blocks_everything(self):
        stats = stats_of([0.9, 0.5, 0.48], [10**4, 10**4, 10**4])
        assert try_extract_ranking(stats, 10**4) is None

    def test_order_follows_means_not_indices(self):
        stats = stats_of([0.5, 0.9, 0.1], [10**4] * 3)
        # radius 0.0743 at count 1e4; all pairwise gaps >= 0.4
        assert try_extract_ranking(stats, 10**4) == (1, 0, 2)


class TestEntryBound:
    def test_frozen_value_for_five_players(self):
        # 96*5*ln(1e5)/0.2^2 = 138 155 explore rounds; first sub-phase
        # with 2^(l+1)-2 above that is l=17, ending at round 262 227
        assert entry_round_bound(5, 10**5, 0.2) == 262227

    def test_monotone_in_gap(self):
        bounds = [entry_round_bound(3, 10**4, g) for g in (0.1, 0.2, 0.4)]
        assert bounds == sorted(bounds, reverse=True)

    def test_infinite_gap_gives_first_sub_phase(self):
        assert entry_round_bound(1, 100, math.inf) == sub_phase_end(1, 1)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(DesyncError):
            entry_round_bound(3, 1, 0.2)
        with pytest.raises(DesyncError):
            entry_round_bound(3, 100, 0.0)

    @pytest.mark.parametrize("gap", [5e-324, 1e-160])
    def test_refuses_a_gap_without_a_finite_bound(self, gap):
        with pytest.raises(ConfigInvalidError):
            entry_round_bound(2, 100, gap)


class TestPlayerStateMachine:
    def test_horizon_must_cover_one_round_pair(self):
        with pytest.raises(DesyncError):
            DecentralizedPlayer(0, 3, 1)

    def test_explore_actions_form_permutation(self):
        players = [DecentralizedPlayer(i, 3, 1000) for i in range(3)]
        flags = [True] * 3
        assert sorted(p.action(1, flags) for p in players) == [0, 1, 2]

    @pytest.mark.parametrize("view", [PlayerView(0, 0.5, False, ()), PlayerView(2, 0.0, True, ())])
    def test_exploration_observation_must_be_the_round_robin_match(self, view):
        """Player 1 of 3 proposes arm (1 + 1) mod 3 = 2 in round 1."""
        player = DecentralizedPlayer(1, 3, 1000)
        assert player.action(1, [True] * 3) == 2
        with pytest.raises(DesyncError, match="clean exploration match"):
            player.observe(1, view)

    def test_round_skew_detected(self):
        """Acting in round 2, or observing exploration from round 2, is
        refused before round 1 has been played."""
        for skewed in (lambda p: p.action(2, [True] * 3), lambda p: p.explore_span(2, [0.5])):
            player = DecentralizedPlayer(0, 3, 1000)
            with pytest.raises(DesyncError, match="round 2, expected 1"):
                skewed(player)

    def test_holding_without_a_commitment_is_a_desync(self):
        player = DecentralizedPlayer(0, 3, 1000)
        with pytest.raises(DesyncError, match="cannot hold a commitment"):
            player.hold_commitment(5)

    def test_phase2_without_a_ranking_is_a_desync(self):
        """An epoch leader that reached phase 2 with no certified
        ranking has nothing to request: a typed error, also under -O."""
        player = DecentralizedPlayer(0, 2, 1000)
        player.stage = PHASE2
        with pytest.raises(DesyncError, match="without a certified ranking"):
            player.action(1, [True, True])


def zero_noise_swap_episode(trace=None):
    cfg = ExperimentConfig(
        swap_market(),
        "decentralized-etc",
        horizon=1100,
        seeds=(0,),
        reward_family="deterministic",
        checkpoints=(1042, 1100),
    )
    return run_episode(cfg, 0, trace=trace)


class TestZeroNoiseEpisode:
    """With exact rewards the protocol is fully deterministic: entry
    lands where the confidence radii first clear the 0.7 gaps."""

    def test_entry_and_commitment_rounds(self):
        tr = zero_noise_swap_episode()
        # per-arm count must exceed 24 ln(1100)/0.49 = 343, reached in
        # sub-phase 9 (511 per arm), which ends at round 1040
        assert tr.stats["entry_round"] == 1040
        assert tr.stats["commit_rounds"] == [1042, 1042]
        assert tr.stats["committed_arms"] == [2, 1]
        assert tr.stats["committed_is_core"] == [True, True]

    def test_regret_flat_after_commitment(self):
        tr = zero_noise_swap_episode()
        at_commit, at_end = tr.checkpoint_pseudo
        assert at_commit == at_end
        assert at_end == pytest.approx((374.8, 374.8))
        assert tr.stats["post_commit_core_rounds"] == tr.stats["post_commit_rounds"]

    def test_round_roles_in_trace(self):
        trace = io.StringIO()
        zero_noise_swap_episode(trace)
        by_round = {}
        # round, player, proposal, matched_arm, collided
        for line in trace.getvalue().splitlines()[1:]:
            row = tuple(int(v) for v in line.split(",")[:5])
            by_round.setdefault(row[0], []).append(row)
        # early status rounds: nothing certified, both abstain
        for t in (3, 4):
            assert [(r[2], r[4]) for r in by_round[t]] == [(0, 0), (0, 0)]
        # final status rounds: both certified, both hit the round's arm
        assert [(r[2], r[4]) for r in by_round[1039]] == [(1, 1), (1, 1)]
        assert [(r[2], r[4]) for r in by_round[1040]] == [(2, 1), (2, 1)]
        # epoch: the leader requests its top arm, the owner answers by
        # requesting the leader's arm, nobody collides
        assert [(r[2], r[3], r[4]) for r in by_round[1041]] == [(2, 2, 0), (0, 0, 0)]
        assert [(r[2], r[3], r[4]) for r in by_round[1042]] == [(0, 0, 0), (1, 1, 0)]
        # committed play: the swap repeats forever
        assert [(r[2], r[3], r[4]) for r in by_round[1043]] == [(2, 2, 0), (1, 1, 0)]

    def test_estimates_recover_true_utilities(self):
        tr = zero_noise_swap_episode()
        p0, p1 = tr.player_snapshots
        assert p0["means"] == pytest.approx([0.2, 0.9])
        assert p1["means"] == pytest.approx([0.9, 0.2])
        assert p0["ranking_certified"] and p1["ranking_certified"]
        assert p0["ranking"] == [2, 1] and p1["ranking"] == [1, 2]

    def test_entry_within_closed_form_bound(self):
        inst = swap_market()
        tr = zero_noise_swap_episode()
        assert tr.stats["entry_round"] <= entry_round_bound(2, 1100, inst.min_gap)


class TestFivePlayerCycle:
    def test_zero_noise_full_cycle_commits(self):
        rng = np.random.default_rng(7)
        inst = sttcb_instance(5, 0.2, rng, "gaussian")
        cfg = ExperimentConfig(
            inst, "decentralized-etc", horizon=10**5, seeds=(0,),
            reward_family="deterministic", checkpoints=(10**5,),
        )
        tr = run_episode(cfg, 0)
        assert tr.stats["entry_round"] == 65609
        assert tr.stats["commit_rounds"] == [65614] * 5
        assert tr.stats["committed_is_core"] == [True] * 5
        assert tr.stats["entry_round"] <= entry_round_bound(5, 10**5, inst.min_gap)
        assert tr.stats["post_commit_core_rounds"] == tr.stats["post_commit_rounds"]


# (instance, reward family, horizon) of seed-0 episodes that reach phase
# 2: the zero-noise swap, the README market under noise, and 4-player
# random markets of two to four epochs each
PHASE2_EPISODES = [
    (swap_market, "deterministic", 1100),
    (lambda: sttcb_instance(5, 0.2, np.random.default_rng(7)), None, 10**5),
] + [
    (lambda s=s: random_instance(4, 0.2, np.random.default_rng(s)), "deterministic", 10**5)
    for s in range(6)
]


@pytest.mark.parametrize("make, family, horizon", PHASE2_EPISODES,
                         ids=["swap", "readme-market"] + [f"random-4-{s}" for s in range(6)])
def test_phase2_replays_request_by_turn(make, family, horizon):
    """Phase 2 is yrmh_igyt under the certified rankings, round for
    round: each epoch's chain proposes one player per round (leader
    first, closer last, the trading cycle as its tail), and the cycle
    commits in the round its closer proposes."""
    instance = make()
    n = instance.n
    calls = []
    step = MarketEnv.step

    def recorded(env, proposals):
        calls.append(tuple(proposals))
        return step(env, proposals)

    config = ExperimentConfig(instance, "decentralized-etc", horizon, (0,),
                              reward_family=family, checkpoints=(horizon,))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MarketEnv, "step", recorded)
        episode = run_episode(config, 0)
    t1 = episode.stats["entry_round"]
    assert t1 is not None
    log = yrmh_igyt([tuple(a - 1 for a in s["ranking"])
                     for s in episode.player_snapshots]).epoch_log
    ends = list(itertools.accumulate(record.rounds for record in log))
    commit_rounds = [None] * n
    for record, end in zip(log, ends):
        for i in record.cycle:
            commit_rounds[i] = t1 + end
    assert episode.stats["commit_rounds"] == commit_rounds
    # once every player has committed the rest of the horizon is played
    # in blocks, so rounds t1 + 1 .. t1 + ends[-1] are the last steps,
    # right after round t1, where every player signals on arm n - 1
    assert calls[-ends[-1] - 1] == (n - 1,) * n
    phase2 = calls[-ends[-1]:]
    committed = set()
    for record, start, end in zip(log, [0] + ends, ends):
        chain = []
        for proposals in phase2[start:end]:
            proposers = [i for i, arm in enumerate(proposals)
                         if arm is not None and i not in committed]
            assert len(proposers) == 1, proposals
            chain += proposers
        assert len(set(chain)) == len(chain)
        assert (chain[0], chain[-1]) == (record.leader, record.closer)
        assert tuple(chain[-len(record.cycle):]) == record.cycle
        committed.update(record.cycle)


class TestNoisyEpisodes:
    def test_gaussian_seeds_commit_to_core(self):
        """Ten seeded episodes on a 3-cycle all certify the true
        ranking and commit to the core matching."""
        rng = np.random.default_rng(7)
        inst = sttcb_instance(3, 0.2, rng, "gaussian")
        for seed in range(10):
            cfg = ExperimentConfig(inst, "decentralized-etc", horizon=60000, seeds=(seed,))
            tr = run_episode(cfg, seed)
            assert tr.stats["entry_round"] is not None, seed
            assert all(tr.stats["committed_is_core"]), seed

    def test_entry_round_is_a_sub_phase_end(self):
        rng = np.random.default_rng(7)
        inst = sttcb_instance(3, 0.2, rng, "gaussian")
        cfg = ExperimentConfig(inst, "decentralized-etc", horizon=60000, seeds=(1,))
        tr = run_episode(cfg, 1)
        t1 = tr.stats["entry_round"]
        ends = {sub_phase_end(ell, 3) for ell in range(1, 30)}
        assert t1 in ends
