"""Environment tests: collision resolution, reward sampling, regret
accounting, reproducibility, and trace export."""

import csv
import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from housebandits.env import (
    _NOISE_CHUNK_ROUNDS,
    ABSTAIN,
    TRACE_COLUMNS,
    ArmStats,
    MarketEnv,
    RegretLedger,
    _trace_text,
)
from housebandits.errors import EntryOutOfRangeError, RuntimeFailure
from housebandits.market import validate_instance


def resolve(proposals, instance, family=None, seed=0):
    """One round on a fresh environment."""
    return MarketEnv(instance, seed, family=family).step(proposals)


def draws(instance, arm, rounds, seed, family=None):
    """Rewards of player 0 pulling one arm alone, round after round."""
    env = MarketEnv(instance, seed, family=family)
    return [env.step([arm] + [ABSTAIN] * (instance.n - 1)).rewards[0] for _ in range(rounds)]


def read_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def applicant_counts(out, n):
    return tuple(len(out.owner_view(arm)) for arm in range(n))


@pytest.fixture
def swap2():
    # both players prefer the other's arm; core = swap
    return validate_instance([[0.2, 0.9], [0.8, 0.3]])


@pytest.fixture
def tri():
    return validate_instance(
        [
            [0.5, 0.9, 0.1],
            [0.9, 0.5, 0.1],
            [0.9, 0.5, 0.1],
        ]
    )


# --- round resolution ----------------------------------------------------------


def test_resolve_unique_proposals_all_match(swap2):
    out = resolve([0, 1], swap2, family="deterministic")
    assert out.matched == (0, 1)
    assert out.collided == (False, False)
    assert out.rewards == (0.2, 0.3)
    assert applicant_counts(out, 2) == (1, 1)


def test_resolve_collision_blocks_everyone(swap2):
    out = resolve([0, 0], swap2)
    assert out.matched == (None, None)
    assert out.collided == (True, True)
    assert out.rewards == (0.0, 0.0)
    assert applicant_counts(out, 2) == (2, 0)


def test_resolve_abstain_is_not_a_collision(tri):
    out = resolve([1, ABSTAIN, 1], tri)
    assert out.collided == (True, False, True)
    assert out.matched == (None, None, None)
    assert out.rewards == (0.0, 0.0, 0.0)
    assert applicant_counts(out, 3) == (0, 2, 0)


def test_resolve_rejects_bad_arm(swap2):
    with pytest.raises(EntryOutOfRangeError):
        resolve([0, 2], swap2)
    with pytest.raises(EntryOutOfRangeError):
        resolve([0, -1], swap2)


@pytest.mark.parametrize("proposals", [[0], [0, 1, ABSTAIN], []])
def test_step_rejects_wrong_number_of_slots(swap2, proposals):
    """A short vector is not read as abstentions, nor a long one
    truncated; no noise is consumed, so the next valid round is a fresh
    environment's first."""
    env = MarketEnv(swap2, seed=0)
    with pytest.raises(EntryOutOfRangeError):
        env.step(proposals)
    assert env.step([1, 0]).rewards == resolve([1, 0], swap2).rewards


def test_owner_view_carries_identities(tri):
    out = resolve([1, ABSTAIN, 1], tri)
    assert out.owner_view(1) == (0, 2)
    assert out.owner_view(0) == ()
    # identity sets are not part of the public per-player fields
    public = {"proposals", "matched", "rewards", "collided"}
    assert public == {s for s in out.__slots__ if not s.startswith("_")}


def test_collision_structure_is_permutation_symmetric(tri):
    proposals = [1, ABSTAIN, 1]
    perm = [2, 0, 1]  # player i of the permuted round is player perm[i]
    permuted = [proposals[perm[i]] for i in range(3)]
    a = resolve(proposals, tri)
    b = resolve(permuted, tri)
    for i in range(3):
        assert b.matched[i] == a.matched[perm[i]]
        assert b.collided[i] == a.collided[perm[i]]
    assert sorted(applicant_counts(a, 3)) == sorted(applicant_counts(b, 3))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.one_of(st.none(), st.integers(0, 3)), min_size=4, max_size=4))
def test_resolve_matches_at_most_one_player_per_arm(proposals):
    inst = validate_instance(
        np.array(
            [
                [0.1, 0.3, 0.5, 0.7],
                [0.7, 0.1, 0.3, 0.5],
                [0.5, 0.7, 0.1, 0.3],
                [0.3, 0.5, 0.7, 0.1],
            ]
        )
    )
    out = resolve(proposals, inst, seed=1)
    matched_arms = [a for a in out.matched if a is not None]
    assert len(matched_arms) == len(set(matched_arms))
    for i, arm in enumerate(out.matched):
        if arm is not None:
            assert proposals[i] == arm
            assert len(out.owner_view(arm)) == 1
    for i in range(4):
        if out.collided[i]:
            assert out.rewards[i] == 0.0
            assert out.matched[i] is None


# --- sampling ---------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.floats(-1.0, 2.0), st.integers(0, 10**7),
       st.lists(st.sampled_from([0.0, 1.0]) | st.floats(-3.0, 4.0), max_size=20))
def test_a_run_update_equals_one_update_per_reward(mean, count, rewards):
    """Bit for bit, with the run returning each intermediate mean and
    the fold ending on the last of them. Both carry their count as a
    float, so the count they store back must be an int again: 5 == 5.0,
    but a float count changes every snapshot that prints it. Means
    compare by repr, which tells -0.0 from 0.0."""
    run, folded, steps = ArmStats(2), ArmStats(2), ArmStats(2)
    for stats in (run, folded, steps):
        stats.means[1], stats.counts[1] = mean, count
    means = []
    for x in rewards:
        steps.update(1, x)
        means.append(steps.means[1])
    assert repr(run.update_run(1, rewards)) == repr(means)
    folded.fold(1, rewards)
    for stats in (run, folded):
        assert repr(stats.means) == repr(steps.means)
        assert stats.counts == steps.counts
        assert all(type(c) is int for c in stats.counts)


def test_bernoulli_extremes():
    inst = validate_instance([[1.0, 0.0], [0.0, 1.0]], "bernoulli")
    assert draws(inst, 0, 50, seed=0) == [1.0] * 50
    assert draws(inst, 1, 50, seed=0) == [0.0] * 50


def test_bernoulli_rejects_bad_mean():
    """Bernoulli means are utilities, and a utility outside [0, 1]
    never makes it into an instance."""
    with pytest.raises(EntryOutOfRangeError):
        validate_instance([[1.2, 0.5], [0.4, 0.5]], "bernoulli")


def test_unknown_family_rejected(swap2):
    with pytest.raises(EntryOutOfRangeError):
        MarketEnv(swap2, seed=0, family="uniform")


def test_gaussian_sample_mean_concentrates():
    # CLT: stderr = 1/sqrt(1e5) ~ 0.0032, so +-0.02 is ~6 sigma
    one_arm = validate_instance([[0.5]], "gaussian")
    assert abs(float(np.mean(draws(one_arm, 0, 100_000, seed=123))) - 0.5) < 0.02


def test_gaussian_is_not_clipped():
    one_arm = validate_instance([[0.1]], "gaussian")
    rewards = draws(one_arm, 0, 200, seed=5)
    assert min(rewards) < 0.0
    assert max(rewards) > 1.0


def test_deterministic_family_returns_mean():
    inst = validate_instance([[0.37, 0.2], [0.1, 0.9]], "gaussian")
    assert draws(inst, 0, 3, seed=0, family="deterministic") == [0.37] * 3


# --- ledger -----------------------------------------------------------------


def test_record_zero_increment_when_matched_to_core(swap2):
    ledger = RegretLedger(swap2)
    ledger.record(resolve([1, 0], swap2, family="deterministic"))
    assert ledger.pseudo == [0.0, 0.0]


def test_record_collision_increment_is_core_mean(tri):
    # core means: p0 -> a1 (0.9), p1 -> a0 (0.9), p2 -> a2 (0.1)
    ledger = RegretLedger(tri)
    out = resolve([1, 1, ABSTAIN], tri)
    ledger.record(out)
    assert ledger.pseudo == pytest.approx([0.9, 0.9, 0.1])


def test_ten_collision_rounds_accumulate(swap2):
    # core mean for p0 is u[0][1] = 0.9; p1 proposes a0 -> 0.8
    ledger = RegretLedger(swap2)
    env = MarketEnv(swap2, seed=0)
    for _ in range(10):
        ledger.record(env.step([0, 0]))
    assert ledger.pseudo == pytest.approx([9.0, 8.0])


def test_full_core_episode_has_zero_regret(tri):
    ledger = RegretLedger(tri)
    env = MarketEnv(tri, seed=0, family="deterministic")
    core = tri.core.assignment
    for _ in range(37):
        ledger.record(env.step(list(core)))
    assert ledger.pseudo == pytest.approx([0.0, 0.0, 0.0])
    assert ledger.realized == pytest.approx([0.0, 0.0, 0.0])


def test_realized_matches_pseudo_in_expectation(tri):
    """Average realized regret across 200 seeds lands within three
    standard errors of the (seed-independent) pseudo-regret."""
    rounds = 40
    proposals = [1, 0, 2]  # the core matching, played by everyone
    finals = []
    pseudo = None
    for seed in range(200):
        env = MarketEnv(tri, seed)
        ledger = RegretLedger(tri)
        for _ in range(rounds):
            ledger.record(env.step(proposals))
        finals.append(ledger.realized[0])
        pseudo = ledger.pseudo[0]
    mean = float(np.mean(finals))
    stderr = float(np.std(finals, ddof=1) / math.sqrt(len(finals)))
    assert abs(mean - pseudo) <= 3 * stderr


def test_pseudo_regret_monotone_when_core_is_argmax():
    """On a market where each core arm is the player's top arm every
    pseudo increment is non-negative."""
    inst = validate_instance([[0.2, 0.9], [0.8, 0.3]])
    trace = io.StringIO()
    ledger = RegretLedger(inst, trace=trace)
    env = MarketEnv(inst, seed=3)
    arms = [0, 1, None]
    gen = np.random.default_rng(99)
    for _ in range(60):
        ledger.record(env.step([arms[gen.integers(3)] for _ in range(2)]))
    rows = read_csv(trace.getvalue())
    assert len(rows) == 120
    for i in range(2):
        series = [0.0] + [float(r["pseudo_regret_cum"]) for r in rows[i::2]]
        assert all(b - a >= -1e-12 for a, b in zip(series, series[1:]))


# --- reproducibility --------------------------------------------------------


def test_env_step_equals_per_round_draws(tri):
    """Chunked noise pregeneration must reproduce one block of n draws
    per round exactly, across a chunk refill."""
    proposals = [[1, ABSTAIN, 1], [1, 0, 2], [ABSTAIN, ABSTAIN, 0], [2, 1, 0]]
    u = tri.utilities.tolist()
    for family in ("gaussian", "bernoulli"):
        env = MarketEnv(tri, seed=42, family=family)
        rng = np.random.default_rng(42)
        for t in range(_NOISE_CHUNK_ROUNDS + 100):
            props = proposals[t % 4]
            out = env.step(props)
            noise = rng.standard_normal(3) if family == "gaussian" else rng.random(3)
            expected = [0.0] * 3
            for i, arm in enumerate(props):
                if arm is not None and props.count(arm) == 1:
                    mean = u[i][arm]
                    gaussian = family == "gaussian"
                    expected[i] = mean + noise[i] if gaussian else float(noise[i] < mean)
            assert list(out.rewards) == expected, (family, t)
            assert out.collided == tuple(a is not None and props.count(a) > 1 for a in props)


def test_identical_seeds_reproduce_bit_identical_episodes(tri):
    def run():
        env = MarketEnv(tri, seed=7, family="bernoulli")
        trace = io.StringIO()
        ledger = RegretLedger(tri, trace=trace)
        for t in range(50):
            ledger.record(env.step([t % 3, (t + 1) % 3, ABSTAIN]))
        return trace.getvalue()

    assert run() == run()


# --- trace export -----------------------------------------------------------


def test_trace_csv_layout(tri):
    trace = io.StringIO()
    ledger = RegretLedger(tri, trace=trace)
    env = MarketEnv(tri, seed=0, family="deterministic")
    ledger.record(env.step([1, ABSTAIN, 1]))
    ledger.record(env.step([1, 0, 2]))
    rows = read_csv(trace.getvalue())
    assert len(rows) == 6
    head = rows[0]
    assert list(head) == [
        "round",
        "player",
        "proposal",
        "matched_arm",
        "collided",
        "reward",
        "pseudo_regret_cum",
        "realized_regret_cum",
    ]
    # round 1: p1 and p3 collided on arm 2, p2 abstained (encoded 0)
    assert head["round"] == "1" and head["player"] == "1"
    assert head["proposal"] == "2" and head["matched_arm"] == "0" and head["collided"] == "1"
    assert rows[1]["proposal"] == "0" and rows[1]["collided"] == "0"
    # round 2: everyone matched to the core matching
    assert rows[3]["matched_arm"] == "2" and rows[3]["collided"] == "0"
    assert float(rows[3]["pseudo_regret_cum"]) == pytest.approx(0.9)
    # floats are written with repr, so they read back exactly
    assert [float(r["realized_regret_cum"]) for r in rows[-3:]] == ledger.realized
    floats = ("reward", "pseudo_regret_cum", "realized_regret_cum")
    assert all(repr(float(r[k])) == r[k] for r in rows for k in floats)


def test_trace_extra_columns(tri):
    trace = io.StringIO()
    ledger = RegretLedger(tri, trace=trace, extra_columns=("matching_is_core",))
    env = MarketEnv(tri, seed=0)
    ledger.record(env.step([1, 0, 2]), extra=(1,))
    rows = read_csv(trace.getvalue())
    assert list(rows[0]) == list(TRACE_COLUMNS) + ["matching_is_core"]
    assert [r["matching_is_core"] for r in rows] == ["1", "1", "1"]


def test_trace_extra_values_must_match_columns(tri):
    """A runner that passes the wrong number of extra values breaks a
    harness-internal contract, not user input."""
    ledger = RegretLedger(tri, trace=io.StringIO(), extra_columns=("matching_is_core",))
    with pytest.raises(RuntimeFailure, match="expected 1 extra values, got 0"):
        ledger.record(MarketEnv(tri, seed=0).step([1, 0, 2]))


def test_trace_export_requires_trace_mode(tri):
    """Without a trace file the ledger is untraced and writes nothing;
    with one, the header is written before the first round."""
    ledger = RegretLedger(tri)
    ledger.record(MarketEnv(tri, seed=0).step([1, 0, 2]))
    assert ledger.trace is False
    trace = io.StringIO()
    traced = RegretLedger(tri, trace=trace)
    assert traced.trace is True
    assert trace.getvalue() == ",".join(TRACE_COLUMNS) + "\n"


# --- the trace encoder --------------------------------------------------------
#
# record and record_block both write through _trace_text, so the fast path
# and the per-round loop can no longer check each other's formatting; the
# per-row f-string that wrote every line before it is kept here as the spec.


def spec_lines(t, proposals, matched, collided, rewards, pseudo, realized, tail):
    """The trace lines of rounds t, t + 1, ...: each argument but tail
    holds one row of per-player values per round, arms 1-based with 0 for
    none, collided as 0 or 1."""
    return "".join([
        f"{t + r},{i},{p},{m},{c},{x!r},{a!r},{b!r}{tail}\n"
        for r, row in enumerate(zip(proposals, matched, collided, rewards, pseudo, realized))
        for i, p, m, c, x, a, b in zip(itertools.count(1), *row)
    ])


# signed zeros, the smallest subnormal, and both sides of repr's switches
# to exponent form at 1e16 and 1e-4
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e16, 9999999999999998.0, 1e-5, 0.0001,
               1.7976931348623157e308, -1e300, 0.30000000000000004)
trace_floats = st.sampled_from(EDGE_FLOATS) | st.floats()
TAILS = ("", ",1", ",0.5,-0.0")


@st.composite
def trace_slices(draw):
    """A k x n slice of trace columns. Each pseudo-regret cell repeats
    the one above (None), takes a signed zero or takes any float, so runs
    of equal values and adjacent 0.0 and -0.0 are common."""
    k, n = draw(st.integers(1, 20)), draw(st.integers(1, 4))

    def grid(cells):
        return draw(st.lists(st.lists(cells, min_size=n, max_size=n), min_size=k, max_size=k))

    pseudo = []
    for row in grid(st.none() | st.sampled_from((0.0, -0.0)) | trace_floats):
        above = pseudo[-1] if pseudo else [0.0] * n
        pseudo.append([a if v is None else v for a, v in zip(above, row)])
    arms = st.integers(0, n)
    return (draw(st.integers(1, 10**7)), grid(arms), grid(arms), grid(st.integers(0, 1)),
            grid(trace_floats), pseudo, grid(trace_floats), draw(st.sampled_from(TAILS)))


@settings(max_examples=60, deadline=None)
@given(trace_slices())
def test_trace_text_equals_the_per_row_spec(columns):
    t, proposals, matched, collided, rewards, pseudo, realized, tail = columns
    mids = [f",{i},{p},{m},{c},"
            for row in zip(proposals, matched, collided)
            for i, p, m, c in zip(itertools.count(1), *row)]
    text = _trace_text(t, mids, np.array(rewards), np.array(pseudo), np.array(realized), tail)
    assert text == spec_lines(*columns)


@st.composite
def traced_episodes(draw):
    """A market whose utilities may hold -0.0, a mix of single rounds
    (any proposals, collisions and abstentions included) and blocks
    (rows, index) of up to three trace slices, a table of one to four
    permutations and each round's row in it, a row window and the extra
    columns."""
    n = draw(st.integers(1, 4))
    market = validate_instance(
        [draw(st.permutations((-0.0, 0.25, 0.5, 0.75, 1.0)))[:n] for _ in range(n)])
    steps = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            steps.append(draw(st.lists(st.none() | st.integers(0, n - 1), min_size=n, max_size=n)))
            continue
        k = draw(st.integers(1, 80))
        rows = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=4))
        index = draw(st.lists(st.integers(0, len(rows) - 1), min_size=k, max_size=k))
        steps.append((np.array(rows), np.array(index)))
    rounds = sum(1 if isinstance(s, list) else len(s[1]) for s in steps)
    lo = draw(st.integers(0, rounds))
    hi = draw(st.integers(lo, rounds) | st.just(math.inf))
    columns, extra = draw(st.sampled_from([((), ()), (("matching_is_core",), (1,)),
                                           (("a", "b"), (0.5, -0.0))]))
    return market, steps, (lo, hi), columns, extra


@settings(max_examples=100, deadline=None)
@given(traced_episodes(), st.sampled_from(("gaussian", "deterministic")))
def test_ledger_trace_equals_the_per_row_spec(episode, family):
    """record and record_block, one-row tables and window edges inside
    a slice included, write the spec's lines of the rounds in the window,
    summed by a plain loop."""
    market, steps, (lo, hi), columns, extra = episode
    n = market.n
    trace = io.StringIO()
    ledger = RegretLedger(market, trace=trace, extra_columns=columns, rows=(lo, hi))
    env = MarketEnv(market, seed=0, family=family)
    u = market.utilities.tolist()
    core = [u[i][market.core.arm_of(i)] for i in range(n)]
    pseudo, realized = [0.0] * n, [0.0] * n
    tail = "".join(f",{v!r}" for v in extra)
    expected = [",".join(TRACE_COLUMNS + columns) + "\n"] if lo == 0 else []
    t = 0
    for step in steps:
        if isinstance(step, list):
            out = env.step(step)
            ledger.record(out, extra)
            rounds = [(step, out.matched, out.collided, out.rewards)]
        else:
            rows, index = step
            rewards = env.step_block(rows, index)
            ledger.record_block(rows, index, rewards, extra)
            rounds = [(arms, arms, [False] * n, row)
                      for arms, row in zip(rows[index].tolist(), rewards.tolist())]
        for proposals, matched, collided, rewards in rounds:
            t += 1
            for i in range(n):
                pseudo[i] += core[i] - (0.0 if matched[i] is None else u[i][matched[i]])
                realized[i] += core[i] - rewards[i]
            if lo < t <= hi:
                expected.append(spec_lines(
                    t, [[0 if a is None else a + 1 for a in proposals]],
                    [[0 if a is None else a + 1 for a in matched]], [[int(c) for c in collided]],
                    [rewards], [pseudo], [realized], tail))
    assert trace.getvalue() == "".join(expected)
