"""The fast-forward of untraced episodes against the per-round loop.

A traced episode plays every round through the loop, the executable
spec; an untraced one skips the rounds its schedule fixes in advance.
Both must give the same episode bit for bit.
"""

from __future__ import annotations

import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from housebandits import decentralized
from housebandits.env import MarketEnv, RegretLedger
from housebandits.errors import RuntimeFailure
from housebandits.harness import ExperimentConfig, run_episode
from housebandits.instances import lower_bound_instance, random_instance, sttcb_instance
from housebandits.market import ttc, validate_instance

INSTANCES = {
    "sttcb": lambda: sttcb_instance(5, 0.2, np.random.default_rng(7)),
    "random": lambda: random_instance(4, 0.2, np.random.default_rng(3)),
    "lower-bound": lambda: lower_bound_instance(5, 0.2, 1),
}
FAMILIES = ("gaussian", "bernoulli", "deterministic")
ALGORITHMS = ("decentralized-etc", "oracle-fixed")


def both_paths(instance, algorithm, horizon, seed, family):
    """(traced, untraced) episodes with checkpoints across the horizon,
    most of them inside a fast-forwarded span."""
    cps = tuple(sorted({c for c in (1, 100, 1000, 4096, horizon - 1, horizon) if c <= horizon}))
    cfg = ExperimentConfig(instance, algorithm, horizon, (seed,), reward_family=family,
                           checkpoints=cps)
    return run_episode(cfg, seed, trace=io.StringIO()), run_episode(cfg, seed)


def assert_same_episode(loop, fast):
    assert fast.final_pseudo == loop.final_pseudo
    assert fast.final_realized == loop.final_realized
    assert fast.checkpoint_pseudo == loop.checkpoint_pseudo
    assert fast.stats == loop.stats
    assert fast.player_snapshots == loop.player_snapshots


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("name", INSTANCES)
@pytest.mark.parametrize("seed,horizon", [(0, 4097), (1, 5000)])
def test_fast_path_equals_the_loop_in_phase_1(name, family, algorithm, seed, horizon):
    """Horizons one past a noise chunk and inside an exploration block."""
    assert_same_episode(*both_paths(INSTANCES[name](), algorithm, horizon, seed, family))


@pytest.mark.parametrize(
    "name,family,seed,horizon",
    [
        ("sttcb", "gaussian", 0, 70000),
        ("random", "bernoulli", 1, 34000),
        ("random", "deterministic", 0, 40000),
    ],
)
def test_fast_path_equals_the_loop_through_commitment(name, family, seed, horizon):
    """Episodes that enter phase 2 and end in a post-commit span."""
    loop, fast = both_paths(INSTANCES[name](), "decentralized-etc", horizon, seed, family)
    assert None not in loop.stats["commit_rounds"]
    assert max(loop.stats["commit_rounds"]) < horizon - 1
    assert_same_episode(loop, fast)


def test_block_record_refuses_a_traced_ledger():
    inst = INSTANCES["sttcb"]()
    env = MarketEnv(inst, 0)
    arms = np.tile(np.array(inst.core.assignment), (3, 1))
    rewards = env.step_block(arms)
    with pytest.raises(RuntimeFailure):
        RegretLedger(inst, trace=io.StringIO()).record_block(arms, rewards)


def test_block_record_fills_the_same_snapshots_as_rounds():
    """Checkpoints at round 1 and at the first and last round of a block."""
    inst = INSTANCES["sttcb"]()
    n = inst.n
    arms = (np.arange(1, 103)[:, None] + np.arange(n)) % n  # rounds 1 .. 102
    cps = (1, 2, 101)
    by_round, by_block = (RegretLedger(inst, checkpoints=cps) for _ in range(2))
    env = MarketEnv(inst, 0)
    for row in arms:
        by_round.record(env.step(row.tolist()))
    env = MarketEnv(inst, 0)
    by_block.record(env.step(arms[0].tolist()))
    by_block.record_block(arms[1:101], env.step_block(arms[1:101]))
    by_block.record(env.step(arms[101].tolist()))
    assert sorted(by_block.snapshots) == list(cps)
    assert by_block.snapshots == by_round.snapshots
    assert (by_block.pseudo, by_block.realized) == (by_round.pseudo, by_round.realized)


def test_block_rejects_colliding_rounds():
    """No noise is consumed, so the next valid block is a fresh
    environment's first."""
    inst = INSTANCES["sttcb"]()
    env = MarketEnv(inst, 0)
    with pytest.raises(RuntimeFailure):
        env.step_block(np.zeros((2, 5), dtype=int))
    arms = np.tile(np.array(inst.core.assignment), (2, 1))
    assert np.array_equal(env.step_block(arms), MarketEnv(inst, 0).step_block(arms))


def count_steps(monkeypatch):
    calls = [0]
    step = MarketEnv.step

    def counting(self, proposals):
        calls[0] += 1
        return step(self, proposals)

    monkeypatch.setattr(MarketEnv, "step", counting)
    return calls


def test_untraced_decentralized_episode_plays_few_rounds_one_by_one(monkeypatch):
    """Status rounds, block closings and pre-commit phase 2 only."""
    calls = count_steps(monkeypatch)
    cfg = ExperimentConfig(INSTANCES["sttcb"](), "decentralized-etc", 10**5, (0,))
    episode = run_episode(cfg, 0)
    assert all(episode.stats["committed_is_core"])
    assert 0 < calls[0] < 1000


def test_untraced_oracle_episode_plays_no_round_one_by_one(monkeypatch):
    calls = count_steps(monkeypatch)
    run_episode(ExperimentConfig(INSTANCES["sttcb"](), "oracle-fixed", 10**5, (0,)), 0)
    assert calls[0] == 0


# Deterministic rewards and utilities spaced 1/(n-1) apart: every
# permutation market certifies at the same round, before these horizons.
PROPERTY_HORIZONS = {2: 1000, 3: 6000, 4: 12000}


@st.composite
def spaced_markets(draw):
    n = draw(st.integers(2, 4))
    rows = [draw(st.permutations(range(n))) for _ in range(n)]
    return validate_instance(np.array(rows, dtype=float) / (n - 1))


@settings(max_examples=8, deadline=None)
@given(spaced_markets())
def test_episode_properties_on_both_paths(instance):
    """Players agree on t1, phase 2 never collides, the commitments are
    the trading cycles of the certified rankings, and the post-commit
    counters match the trace."""
    horizon = PROPERTY_HORIZONS[instance.n]
    trace = io.StringIO()
    cfg = ExperimentConfig(instance, "decentralized-etc", horizon, (0,),
                           reward_family="deterministic", checkpoints=(horizon,))
    loop = run_episode(cfg, 0, trace=trace)
    fast = run_episode(cfg, 0)
    for episode in (loop, fast):
        t1 = episode.stats["entry_round"]
        assert t1 is not None
        snaps = episode.player_snapshots
        assert [s["entry_round"] for s in snaps] == [t1] * instance.n
        rankings = tuple(tuple(a - 1 for a in s["ranking"]) for s in snaps)
        committed = tuple(a - 1 for a in episode.stats["committed_arms"])
        assert committed == ttc(rankings).assignment
    trace.seek(0)
    rows = list(csv.DictReader(trace))
    assert not [row for row in rows if int(row["round"]) > t1 and row["collided"] == "1"]
    assert_post_commit_counts_match(loop, rows, instance.core.assignment)
    assert_same_episode(loop, fast)


def assert_post_commit_counts_match(episode, rows, core):
    """The post-commit counters count the traced rounds after each
    commit, and among them those matched to the core arm."""
    for i, commit in enumerate(episode.stats["commit_rounds"]):
        after = [int(r["matched_arm"]) - 1 for r in rows
                 if int(r["player"]) == i + 1 and int(r["round"]) > commit]
        assert episode.stats["post_commit_rounds"][i] == len(after)
        assert episode.stats["post_commit_core_rounds"][i] == after.count(core[i])


def test_commitments_off_the_core_count_no_core_rounds(monkeypatch):
    """Every player certifies the ranking (arm 1, arm 2), so the trading
    cycles give the identity matching, not the core swap."""
    monkeypatch.setattr(decentralized, "try_extract_ranking", lambda stats, horizon: (0, 1))
    instance = validate_instance([[0.2, 0.9], [0.8, 0.3]])
    cfg = ExperimentConfig(instance, "decentralized-etc", 200, (0,), reward_family="deterministic")
    trace = io.StringIO()
    loop = run_episode(cfg, 0, trace=trace)
    assert loop.stats["committed_arms"] == [1, 2]
    assert loop.stats["post_commit_core_rounds"] == [0, 0]
    assert min(loop.stats["post_commit_rounds"]) > 0
    trace.seek(0)
    assert_post_commit_counts_match(loop, list(csv.DictReader(trace)), instance.core.assignment)
    assert_same_episode(loop, run_episode(cfg, 0))
