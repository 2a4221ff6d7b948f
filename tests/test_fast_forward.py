"""The fast-forward of episodes against the per-round loop.

An episode, traced or not, resolves the rounds its schedule fixes in
advance in blocks, and a centralized one the rounds in which the
submitted profile holds. With harness._FAST_FORWARD cleared it plays
every round through the loop, the executable spec. Both must give the
same episode bit for bit, trace CSV included.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from housebandits import decentralized, harness
from housebandits.decentralized import EXPLORE, DecentralizedPlayer, PlayerView, explore_arm
from housebandits.env import ArmStats, MarketEnv, RegretLedger
from housebandits.errors import DesyncError, RuntimeFailure
from housebandits.harness import ExperimentConfig, run_episode
from housebandits.instances import lower_bound_instance, random_instance, sttcb_instance
from housebandits.market import ttc, validate_instance

INSTANCES = {
    "sttcb": lambda: sttcb_instance(5, 0.2, np.random.default_rng(7)),
    "random": lambda: random_instance(4, 0.2, np.random.default_rng(3)),
    "lower-bound": lambda: lower_bound_instance(5, 0.2, 1),
}
FAMILIES = ("gaussian", "bernoulli", "deterministic")
ALGORITHMS = ("decentralized-etc", "oracle-fixed", "centralized-ucb")
# the algorithms of the recorded digest below; test_centralized.py
# holds the centralized one
DIGEST_ALGORITHMS = ("decentralized-etc", "oracle-fixed")


def play(cfg, seed, fast):
    """A traced episode and its trace CSV, on the fast path or, with
    fast false, on the loop alone."""
    trace = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_FAST_FORWARD", fast)
        episode = run_episode(cfg, seed, trace=trace)
    return episode, trace.getvalue()


def both_paths(instance, algorithm, horizon, seed, family, checkpoints=None):
    """(loop, fast) traced episodes with their trace CSVs, and the given
    checkpoints, by default checkpoints across the horizon, most of them
    inside a fast-forwarded span."""
    cps = checkpoints or tuple(
        sorted({c for c in (1, 100, 1000, 4096, horizon - 1, horizon) if c <= horizon}))
    cfg = ExperimentConfig(instance, algorithm, horizon, (seed,), reward_family=family,
                           checkpoints=cps)
    return play(cfg, seed, False), play(cfg, seed, True)


def assert_same_episode(loop, fast):
    """Two (episode, trace CSV) pairs agree bit for bit and byte for
    byte."""
    (loop, loop_csv), (fast, fast_csv) = loop, fast
    assert fast.final_pseudo == loop.final_pseudo
    assert fast.final_realized == loop.final_realized
    assert fast.checkpoint_pseudo == loop.checkpoint_pseudo
    assert fast.stats == loop.stats
    assert fast.player_snapshots == loop.player_snapshots
    # lines, so that a failure names the first line that differs
    assert fast_csv.splitlines() == loop_csv.splitlines()


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("name", INSTANCES)
@pytest.mark.parametrize("seed,horizon", [(0, 4097), (1, 5000)])
def test_fast_path_equals_the_loop_in_phase_1(name, family, algorithm, seed, horizon):
    """Horizons one past a noise chunk and, for decentralized-etc,
    inside an exploration block."""
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
    assert None not in loop[0].stats["commit_rounds"]
    assert max(loop[0].stats["commit_rounds"]) < horizon - 1
    assert_same_episode(loop, fast)


# sha256 of the 36 untraced episodes and the one trace CSV below,
# recorded with a fast-forward that stopped each block one round short
# and split phase-1 and phase-2 actions; the one block-closing path must
# not move a bit
EPISODES_DIGEST = "edb14522c2a6b847e47d404d69fe628518130e4a44f87045bc611e4e4b3cec21"


def test_episodes_match_the_recorded_digest():
    """The fast path and the loop agree with each other, but a change
    both share shows only against recorded output: untraced
    episodes of both algorithms (those at T = 70000 commit, outside the
    lower-bound market) and the trace CSV of one committing episode."""
    digest = hashlib.sha256()
    for make in INSTANCES.values():
        inst = make()
        for family in FAMILIES:
            for algorithm in DIGEST_ALGORITHMS:
                for seed, horizon in ((0, 4097), (1, 70000)):
                    cps = tuple(c for c in (1, 100, 1000, 4096, 32768, 65610, 70000)
                                if c <= horizon)
                    cfg = ExperimentConfig(inst, algorithm, horizon, (seed,),
                                           reward_family=family, checkpoints=cps)
                    tr = run_episode(cfg, seed)
                    digest.update(repr((tr.final_pseudo, tr.final_realized, tr.checkpoint_pseudo,
                                        sorted(tr.stats.items()))).encode())
                    digest.update(json.dumps(tr.player_snapshots, sort_keys=True).encode())
    cfg = ExperimentConfig(INSTANCES["random"](), "decentralized-etc", 33000, (0,),
                           reward_family="bernoulli", checkpoints=(33000,))
    trace = io.StringIO()
    assert None not in run_episode(cfg, 0, trace=trace).stats["commit_rounds"]
    digest.update(trace.getvalue().encode())
    assert digest.hexdigest() == EPISODES_DIGEST


@pytest.mark.parametrize("name,algorithm", [("lower-bound", "centralized-ucb"),
                                            ("sttcb", "decentralized-etc")])
def test_every_fold_of_an_episode_stores_int_counts(monkeypatch, name, algorithm):
    """ArmStats.fold and ArmStats.update_run carry their count as a
    float and must store an int back after every call, or player
    snapshots would print counts as 5.0; a count compares equal either
    way. Exploration folds with fold, centralized blocks with
    update_run."""
    calls = {"fold": 0, "update_run": 0}

    def checked(method):
        original = getattr(ArmStats, method)

        def call(stats, arm, rewards):
            result = original(stats, arm, rewards)
            assert all(type(c) is int for c in stats.counts)
            calls[method] += 1
            return result
        return call

    for method in calls:
        monkeypatch.setattr(ArmStats, method, checked(method))
    cfg = ExperimentConfig(INSTANCES[name](), algorithm, 20000, (0,), checkpoints=(20000,))
    run_episode(cfg, 0)
    assert calls["fold" if algorithm == "decentralized-etc" else "update_run"]


def test_one_span_call_closes_a_block_as_observe_does():
    """Each block goes to one player through a single explore_span call
    and to another round by round through action and observe; after
    every block, up to the first that certifies, both hold the same
    statistics, certificate and schedule."""
    n, pid = 3, 1
    utility = (0.0, 0.5, 1.0)
    rng = np.random.default_rng(0)
    span, loop = DecentralizedPlayer(pid, n, 1000), DecentralizedPlayer(pid, n, 1000)
    flags = [True] * n

    def state(p):
        return (p.t, p.stats.means, p.stats.counts, p.p_flag, p.sigma, p.stage, p.stage_left)

    t = 1
    while not span.p_flag:
        assert span.stage == EXPLORE and span.ell < 14
        k = span.stage_left
        rewards = [utility[explore_arm(pid, t + r, n)] + 0.1 * x
                   for r, x in enumerate(rng.standard_normal(k).tolist())]
        with pytest.raises(DesyncError):
            span.explore_span(t, rewards + [0.0])
        span.explore_span(t, rewards)
        for r, x in enumerate(rewards):
            arm = loop.action(t + r, flags)
            loop.observe(t + r, PlayerView(arm, x, False, ((arm - t - r) % n,)))
        t += k
        assert state(span) == state(loop)
        for p in (span, loop):
            for r in range(n):
                p.observe(t + r, PlayerView(p.action(t + r, flags), 0.0, False, ()))
        t += n
    assert span.sigma == (2, 1, 0)


def round_robin(n, first, last):
    """Rounds first .. last of the exploration round robin as a block
    (rows, index): the table of its n proposal vectors, row j proposing
    arm (i + j) mod n to player i, and each round's row, t mod n."""
    return (np.arange(n)[:, None] + np.arange(n)) % n, np.arange(first, last + 1) % n


def test_block_record_writes_the_rows_of_rounds():
    """A block of 300 rounds, more than one slice of rows, writes what
    300 calls of record write, with the extra column on every row; a
    wrong number of extra values is refused."""
    inst = INSTANCES["sttcb"]()
    n = inst.n
    rows, index = round_robin(n, 1, 301)
    traces = io.StringIO(), io.StringIO()
    by_round, by_block = (RegretLedger(inst, trace=trace, extra_columns=("matching_is_core",))
                          for trace in traces)
    env = MarketEnv(inst, 0)
    for row in rows[index]:
        by_round.record(env.step(row.tolist()), (1,))
    env = MarketEnv(inst, 0)
    by_block.record(env.step(rows[index[0]].tolist()), (1,))
    by_block.record_block(rows, index[1:], env.step_block(rows, index[1:]), (1,))
    lines = traces[1].getvalue().splitlines()
    assert len(lines) == 1 + 301 * n
    assert lines == traces[0].getvalue().splitlines()
    assert lines[-1].startswith(f"301,{n},") and lines[-1].endswith(",1")
    with pytest.raises(RuntimeFailure, match="expected 1 extra values, got 0"):
        by_block.record_block(rows, index[:2], env.step_block(rows, index[:2]))


def test_block_record_fills_the_same_snapshots_as_rounds():
    """Checkpoints at round 1 and at the first and last round of a block."""
    inst = INSTANCES["sttcb"]()
    n = inst.n
    rows, index = round_robin(n, 1, 102)
    cps = (1, 2, 101)
    by_round, by_block = (RegretLedger(inst, checkpoints=cps) for _ in range(2))
    env = MarketEnv(inst, 0)
    for row in rows[index]:
        by_round.record(env.step(row.tolist()))
    env = MarketEnv(inst, 0)
    by_block.record(env.step(rows[index[0]].tolist()))
    by_block.record_block(rows, index[1:101], env.step_block(rows, index[1:101]))
    by_block.record(env.step(rows[index[101]].tolist()))
    assert sorted(by_block.snapshots) == list(cps)
    assert by_block.snapshots == by_round.snapshots
    assert (by_block.pseudo, by_block.realized) == (by_round.pseudo, by_round.realized)


# (rounds drawn, rounds kept) of each block: one that ends at a noise-chunk
# refill, one cut short by the refill and partly given back, one that ends
# the chunk and one drawn from the next
REFILL_BLOCKS = ((4090, 4090), (16, 4), (64, 64), (64, 64))


def play_blocks(inst, family, rows, spelled_out):
    """The REFILL_BLOCKS of rounds 1, 2, ..., round t proposing row
    t mod m of the m-row table rows, each block given to step_block and
    record_block as (rows, index) or, spelled out, as a table of one row
    per round. Returns each block's drawn rewards as bytes and the
    ledger's sums, snapshots and trace lines."""
    env = MarketEnv(inst, 0, family)
    trace = io.StringIO()
    ledger = RegretLedger(inst, trace=trace, extra_columns=("matching_is_core",),
                          checkpoints=(1, 100, 4090, 4096, 4100))
    drawn = []
    t = 1
    for size, keep in REFILL_BLOCKS:
        index = np.arange(t, t + size) % len(rows)
        block = (rows[index], np.arange(size)) if spelled_out else (rows, index)
        rewards = env.step_block(*block)
        kept = min(keep, len(rewards))
        env.give_back(len(rewards) - kept)
        ledger.record_block(block[0], block[1][:kept], rewards[:kept], (1,))
        drawn.append(rewards.tobytes())
        t += kept
    return drawn, ledger.pseudo, ledger.realized, ledger.snapshots, trace.getvalue().splitlines()


@pytest.mark.parametrize("family", FAMILIES)
def test_a_repeated_proposal_block_equals_its_rows_spelled_out(family):
    """A table of one proposal vector, which step_block and
    record_block check and price once and broadcast over the block,
    against the same rounds as a table of one row per round: equal
    rewards, sums, snapshots and trace rows, over REFILL_BLOCKS."""
    inst = INSTANCES["lower-bound"]()
    n = inst.n
    one_row = play_blocks(inst, family, np.array([inst.core.assignment]), False)
    assert [len(d) for d in one_row[0]] == [8 * n * k for k in (4090, 6, 2, 64)]
    assert one_row == play_blocks(inst, family, np.array([inst.core.assignment]), True)


@pytest.mark.parametrize("family", FAMILIES)
def test_a_round_robin_block_across_a_refill_equals_its_rounds(family):
    """The n-row round robin over REFILL_BLOCKS: its second block
    crosses the 4,096-round refill, so step_block returns the prefix
    left in the chunk, and recording the kept rounds as (rows,
    index[:kept]) gives the sums, snapshots and trace rows of one step
    and record per round, and of the rounds spelled out."""
    inst = INSTANCES["lower-bound"]()
    n = inst.n
    rows = round_robin(n, 0, 0)[0]
    blocks = play_blocks(inst, family, rows, False)
    assert [len(d) for d in blocks[0]] == [8 * n * k for k in (4090, 6, 2, 64)]
    assert blocks == play_blocks(inst, family, rows, True)
    env = MarketEnv(inst, 0, family)
    trace = io.StringIO()
    ledger = RegretLedger(inst, trace=trace, extra_columns=("matching_is_core",),
                          checkpoints=(1, 100, 4090, 4096, 4100))
    for t in range(1, 1 + 4090 + 4 + 2 + 64):  # the rounds the blocks keep
        ledger.record(env.step(rows[t % n].tolist()), (1,))
    assert blocks[1:] == (ledger.pseudo, ledger.realized, ledger.snapshots,
                          trace.getvalue().splitlines())


# --- trace windows on forked workers --------------------------------------------

WINDOW_HORIZON = 1000
# checkpoints in each window of two and of three, and at their edges
WINDOW_CHECKPOINTS = (1, 333, 334, 335, 500, 501, 667, 668, 999, 1000)


def windowed(cfg, seed, cpus, trace, monkeypatch):
    """run_episode with cpus usable CPUs and no minimum window, so that
    every trace forks one worker per CPU beyond the first."""
    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(harness, "_MIN_WINDOW_ROUNDS", 0)
    return run_episode(cfg, seed, trace=trace)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("name", INSTANCES)
def test_windowed_trace_equals_the_one_process_trace(name, family, algorithm, monkeypatch):
    """Windows written by two and three processes give the one-process
    episode and its trace byte for byte."""
    cfg = ExperimentConfig(INSTANCES[name](), algorithm, WINDOW_HORIZON, (1,),
                           reward_family=family, checkpoints=WINDOW_CHECKPOINTS)
    whole = io.StringIO()
    alone = windowed(cfg, 1, 1, whole, monkeypatch)
    for cpus in (2, 3):
        trace = io.StringIO()
        episode = windowed(cfg, 1, cpus, trace, monkeypatch)
        assert_same_episode((alone, whole.getvalue()), (episode, trace.getvalue()))
        assert trace.getvalue() == whole.getvalue(), f"{cpus} windows"
    no_child_left()


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_windowed_trace_into_a_file_is_byte_identical(algorithm, tmp_path, monkeypatch):
    """A real file, with a line still in its buffer that a worker must
    not flush a second time; the matching_is_core column rides along."""
    cfg = ExperimentConfig(INSTANCES["lower-bound"](), algorithm, WINDOW_HORIZON, (0,),
                           checkpoints=WINDOW_CHECKPOINTS)
    whole = io.StringIO()
    harness._play_window(cfg, 0, whole)
    for cpus in (2, 3):
        path = tmp_path / f"trace-{cpus}.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("before\n")
            windowed(cfg, 0, cpus, fh, monkeypatch)
        assert path.read_bytes() == ("before\n" + whole.getvalue()).encode()
    no_child_left()


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_a_horizon_shorter_than_the_windows_leaves_some_empty(algorithm, monkeypatch):
    """Three windows of two rounds: the last is empty, and the header is
    written once."""
    cfg = ExperimentConfig(INSTANCES["sttcb"](), algorithm, 2, (0,))
    whole = io.StringIO()
    harness._play_window(cfg, 0, whole)
    trace = io.StringIO()
    windowed(cfg, 0, 3, trace, monkeypatch)
    assert trace.getvalue() == whole.getvalue()
    assert len(whole.getvalue().splitlines()) == 1 + 2 * 5
    no_child_left()


def test_a_trace_forks_only_when_every_window_holds_the_minimum(monkeypatch):
    """Two CPUs: a horizon of twice the minimum window forks one worker,
    one round less plays in one process, and so does an untraced
    episode."""
    forks = []
    forked = harness._forked

    def counted(jobs):
        forks.append(len(jobs))
        return forked(jobs)

    monkeypatch.setattr(harness, "_forked", counted)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    inst = INSTANCES["sttcb"]()
    two = 2 * harness._MIN_WINDOW_ROUNDS
    for horizon in (two - 1, two):
        cfg = ExperimentConfig(inst, "oracle-fixed", horizon, (0,))
        run_episode(cfg, 0, trace=io.StringIO())
        run_episode(cfg, 0)
    assert forks == [2]
    no_child_left()


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_block_rejects_colliding_rounds():
    """Each refusal comes before any noise is drawn, so the next valid
    block is a fresh environment's first: a colliding row, first or not,
    an out-of-range arm and an index past the table, of one row or
    several."""
    inst = INSTANCES["sttcb"]()
    n = inst.n
    env = MarketEnv(inst, 0)
    rows, index = round_robin(n, 1, 12)
    colliding, out_of_range = rows.copy(), rows.copy()
    colliding[2, 3] = colliding[2, 4]
    out_of_range[1, 0] = n
    for bad in ((np.zeros((2, n), dtype=int), np.arange(2)),
                (np.zeros((1, n), dtype=int), np.zeros(2, dtype=int)),
                (colliding, index), (out_of_range, index),
                (rows, index + 1), (rows, index - n), (rows[:1], np.array([0, 1]))):
        with pytest.raises(RuntimeFailure):
            env.step_block(*bad)
    assert np.array_equal(env.step_block(rows, index), MarketEnv(inst, 0).step_block(rows, index))


def count_steps(monkeypatch):
    calls = [0]
    step = MarketEnv.step

    def counting(self, proposals):
        calls[0] += 1
        return step(self, proposals)

    monkeypatch.setattr(MarketEnv, "step", counting)
    return calls


def test_untraced_decentralized_episode_plays_few_rounds_one_by_one(monkeypatch, tmp_path):
    """Status rounds, block closings and pre-commit phase 2 only, with a
    trace as without."""
    calls = count_steps(monkeypatch)
    cfg = ExperimentConfig(INSTANCES["sttcb"](), "decentralized-etc", 10**5, (0,))
    episode = run_episode(cfg, 0)
    assert all(episode.stats["committed_is_core"])
    assert 0 < calls[0] < 1000
    untraced = calls[0]
    with open(tmp_path / "trace.csv", "w", encoding="utf-8") as fh:
        run_episode(cfg, 0, trace=fh)
    assert calls[0] == 2 * untraced


def test_untraced_oracle_episode_plays_no_round_one_by_one(monkeypatch, tmp_path):
    calls = count_steps(monkeypatch)
    cfg = ExperimentConfig(INSTANCES["sttcb"](), "oracle-fixed", 10**5, (0,))
    run_episode(cfg, 0)
    with open(tmp_path / "trace.csv", "w", encoding="utf-8") as fh:
        run_episode(cfg, 0, trace=fh)
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
    cfg = ExperimentConfig(instance, "decentralized-etc", horizon, (0,),
                           reward_family="deterministic", checkpoints=(horizon,))
    loop, fast = play(cfg, 0, False), play(cfg, 0, True)
    for episode, _ in (loop, fast):
        t1 = episode.stats["entry_round"]
        assert t1 is not None
        snaps = episode.player_snapshots
        assert [s["entry_round"] for s in snaps] == [t1] * instance.n
        rankings = tuple(tuple(a - 1 for a in s["ranking"]) for s in snaps)
        committed = tuple(a - 1 for a in episode.stats["committed_arms"])
        assert committed == ttc(rankings).assignment
    rows = list(csv.DictReader(io.StringIO(loop[1])))
    assert not [row for row in rows if int(row["round"]) > t1 and row["collided"] == "1"]
    assert_post_commit_counts_match(loop[0], rows, instance.core.assignment)
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
    (loop, trace), fast = play(cfg, 0, False), play(cfg, 0, True)
    assert loop.stats["committed_arms"] == [1, 2]
    assert loop.stats["post_commit_core_rounds"] == [0, 0]
    assert min(loop.stats["post_commit_rounds"]) > 0
    rows = list(csv.DictReader(io.StringIO(trace)))
    assert_post_commit_counts_match(loop, rows, instance.core.assignment)
    assert_same_episode((loop, trace), fast)


# --- the centralized fast path ------------------------------------------------

LONG_HORIZON = 10**5
LONG_CHECKPOINTS = (1, 100, 1000, 4096, 10_000, 33_333, 65_536, 99_999, LONG_HORIZON)


class Digest:
    """A text sink that keeps only the sha256 of what is written to it,
    so a long trace costs no memory."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text):
        self.sha.update(text.encode())


@pytest.fixture(scope="module")
def long_centralized():
    """Centralized episodes on the lower-bound market at T = 1e5: a
    traced one on the fast path, the same on the loop, and an untraced
    one on the fast path. Holds the fast and the loop (episode, trace
    sha256) pairs; the rewards of the rounds the fast one played through
    platform_round, and the loop's rewards in those rounds; the
    platform_round calls of each episode; and the fast one's blocks as
    (first round, rounds drawn, rounds held)."""
    cfg = ExperimentConfig(INSTANCES["lower-bound"](), "centralized-ucb", LONG_HORIZON, (2,),
                           checkpoints=LONG_CHECKPOINTS)
    platform_round = harness.platform_round
    hold_profile = harness.hold_profile
    run = SimpleNamespace(fast_rounds={}, loop_rounds={}, calls={}, blocks=[])

    def counting_round(path):
        def round_(states, t, env, last):
            result = platform_round(states, t, env, last)
            run.calls[path] = run.calls.get(path, 0) + 1
            if path == "fast":
                run.fast_rounds[t] = result[2].rewards
            elif path == "loop" and t in run.fast_rounds:
                run.loop_rounds[t] = result[2].rewards
            return result
        return round_

    def recording_hold(states, rankings, assignment):
        keep = hold_profile(states, rankings, assignment)

        def recording_keep(t, rewards):
            held = keep(t, rewards)
            run.blocks.append((t, len(rewards), held))
            return held
        return recording_keep

    with pytest.MonkeyPatch.context() as mp:
        for path, fast in (("fast", True), ("loop", False)):
            mp.setattr(harness, "_FAST_FORWARD", fast)
            mp.setattr(harness, "hold_profile", recording_hold if fast else hold_profile)
            mp.setattr(harness, "platform_round", counting_round(path))
            trace = Digest()
            setattr(run, path, (run_episode(cfg, 2, trace=trace), trace.sha.hexdigest()))
        mp.setattr(harness, "_FAST_FORWARD", True)
        mp.setattr(harness, "platform_round", counting_round("untraced"))
        run.untraced = run_episode(cfg, 2)
    return run


def test_long_centralized_episode_equals_the_loop(long_centralized):
    """Checkpoints fall inside held blocks."""
    run = long_centralized
    assert_same_episode(run.loop, run.fast)
    assert run.untraced.checkpoint_pseudo == run.fast[0].checkpoint_pseudo
    assert run.untraced.stats == run.fast[0].stats
    assert any(t < c < t + held - 1 for c in LONG_CHECKPOINTS for t, _, held in run.blocks)


def test_untraced_centralized_episode_plays_few_rounds_one_by_one(long_centralized):
    """So does the traced one on the fast path; the loop calls
    platform_round every round."""
    calls = long_centralized.calls
    assert calls["loop"] == LONG_HORIZON
    assert calls["untraced"] == calls["fast"] == len(long_centralized.fast_rounds)
    assert 0 < calls["fast"] < LONG_HORIZON // 10


def test_rounds_after_a_broken_block_draw_the_loop_noise(long_centralized):
    """A block that breaks early hands its unheld rounds back, so the
    round that broke it draws in platform_round what the loop draws."""
    run = long_centralized
    broken = [t + held for t, drawn, held in run.blocks if held < drawn]
    assert len(broken) > 100
    assert set(broken) <= run.fast_rounds.keys()
    assert run.fast_rounds == run.loop_rounds


@pytest.mark.parametrize("family", ["gaussian", "bernoulli"])
def test_given_back_rounds_draw_the_same_noise_again(family):
    """A block cut short by the end of the noise chunk, then partly
    given back: the rounds after it draw what round-by-round steps
    draw, and a give-back past the chunk's start is refused."""
    inst = INSTANCES["lower-bound"]()
    core = list(inst.core.assignment)
    rows, index = np.array([core]), np.zeros(4090, dtype=int)
    env, loop = MarketEnv(inst, 0, family), MarketEnv(inst, 0, family)
    assert len(env.step_block(rows, index)) == 4090
    assert len(env.step_block(rows, index[:16])) == 6
    env.give_back(4)
    with pytest.raises(RuntimeFailure):
        env.give_back(4093)
    for _ in range(4092):
        loop.step(core)
    for _ in range(10):
        assert env.step(core).rewards == loop.step(core).rewards


@st.composite
def small_markets(draw):
    """Utilities spaced 1/(n-1) apart, or a seeded random market."""
    if draw(st.booleans()):
        return draw(spaced_markets())
    n = draw(st.integers(2, 4))
    return random_instance(n, 0.05, np.random.default_rng(draw(st.integers(0, 100))))


@settings(max_examples=25, deadline=None)
@given(small_markets(), st.sampled_from(FAMILIES), st.integers(0, 3), st.integers(2, 3000))
def test_centralized_paths_agree_on_small_markets(instance, family, seed, horizon):
    """Deterministic and Bernoulli rewards keep means on few values, so
    indices tie exactly, and the stable-sort tie break must hold. With a
    checkpoint at every round too, so that every block fills the
    checkpoints of all its rounds, its last one included."""
    for cps in (None, tuple(range(1, horizon + 1))):
        assert_same_episode(*both_paths(instance, "centralized-ucb", horizon, seed, family, cps))
