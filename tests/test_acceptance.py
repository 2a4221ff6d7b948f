"""Acceptance gate: one test and one printed pass/fail line per
shipped criterion. Run with `pytest tests/test_acceptance.py -s` to see
the lines; the whole module takes a few minutes (AC-4/AC-5 are 50-seed
full-horizon experiments).
"""

from __future__ import annotations

import io
import math
import time

import numpy as np
import pytest

from housebandits import harness
from housebandits.decentralized import (
    PHASE2,
    DecentralizedPlayer,
    confidence_bounds,
    entry_round_bound,
)
from housebandits.env import ArmStats, MarketEnv, RegretLedger
from housebandits.harness import ExperimentConfig, bound_curves, monte_carlo, run_episode
from housebandits.instances import lower_bound_instance, random_instance, sttcb_instance
from housebandits.market import core_oracle_bruteforce, ttc, validate_instance, yrmh_igyt

CORPUS_PER_SIZE = 500
CORPUS_SIZES = (2, 3, 4, 5, 6)


def report(label: str, ok: bool, detail: str) -> None:
    print(f"{label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label} failed: {detail}"


@pytest.fixture(scope="module")
def corpus():
    """Shared instance corpus for the mechanism criteria."""
    instances = []
    for n in CORPUS_SIZES:
        for k in range(CORPUS_PER_SIZE):
            rng = np.random.default_rng(n * 10_000 + k)
            instances.append(random_instance(n, 0.02, rng, "gaussian"))
    return instances


@pytest.fixture(scope="module")
def hard_instance():
    return lower_bound_instance(5, 0.2, 1)


@pytest.fixture(scope="module")
def centralized_report(hard_instance):
    cfg = ExperimentConfig(
        hard_instance, "centralized-ucb", 10**5, tuple(range(50)), instance_id="hard"
    )
    start = time.monotonic()
    rep = monte_carlo(cfg)
    return rep, time.monotonic() - start


@pytest.fixture(scope="module")
def decentralized_report(hard_instance):
    cfg = ExperimentConfig(
        hard_instance,
        "decentralized-etc",
        10**5,
        tuple(range(50)),
        reward_family="gaussian",
        instance_id="hard",
    )
    start = time.monotonic()
    rep = monte_carlo(cfg)
    return rep, time.monotonic() - start


def test_ac1_mechanism_matches_exhaustive_oracle(corpus):
    """Trading-cycle output equals the brute-force core on every
    instance, and the oracle certifies uniqueness each time."""
    start = time.monotonic()
    mismatches = 0
    for inst in corpus:
        oracle = core_oracle_bruteforce(inst.utilities)
        if ttc(inst.rankings) != oracle:
            mismatches += 1
    elapsed = time.monotonic() - start
    report(
        "AC-1",
        mismatches == 0 and elapsed < 30.0,
        f"{len(corpus)} instances, {mismatches} mismatches, "
        f"uniqueness certified on all, {elapsed:.1f}s",
    )


def test_ac2_serial_mechanism_agrees_within_round_budget(corpus):
    bad = 0
    for inst in corpus:
        n = inst.n
        result = yrmh_igyt(inst.rankings)
        if not (
            result.matching == inst.core
            and result.epochs <= n
            and result.rounds <= n * n
        ):
            bad += 1
    report("AC-2", bad == 0, f"{len(corpus)} instances, {bad} out of budget or mismatched")


def test_ac3_zero_noise_entry_commitment_and_flatline():
    rng = np.random.default_rng(7)
    inst = sttcb_instance(5, 0.2, rng, "gaussian")
    horizon = 10**5
    cfg = ExperimentConfig(
        inst, "decentralized-etc", horizon, (0,), reward_family="deterministic"
    )
    tr = run_episode(cfg, 0)
    t1 = tr.stats["entry_round"]  # runner asserts all players agree on it
    bound = entry_round_bound(5, horizon, inst.min_gap)
    commits = tr.stats["commit_rounds"]
    ok = (
        t1 is not None
        and t1 <= bound
        and all(c is not None and c - t1 <= 25 for c in commits)
        and all(tr.stats["committed_is_core"])
        and tr.stats["post_commit_core_rounds"] == tr.stats["post_commit_rounds"]
    )
    report(
        "AC-3",
        ok,
        f"entry t1={t1} <= bound {bound}, commits by {max(commits)}, "
        f"all core, zero increments after",
    )


def test_ac4_centralized_regret_below_curve_and_sublinear(hard_instance, centralized_report):
    """The smallest adjacent gap of this instance is the tie-break
    epsilon, not its 0.2: lower_bound_instance(5, 0.2, 1).min_gap is
    9.999999999732445e-07, so the closed-form curve at T = 1e5 is
    1.38-1.73e14 per player and bound dominance cannot fail. The
    sublinear rate ratios carry the check; both are printed."""
    rep, elapsed = centralized_report
    means = np.array(rep.mean_regret)
    bounds = np.array(rep.bounds)
    dominated = bool((means <= bounds).all())
    cps = rep.checkpoints
    i3, i5 = cps.index(1000), cps.index(100000)
    rates = (means[i5] / 100000) / (means[i3] / 1000)
    sublinear = bool((rates <= 0.05).all())
    report(
        "AC-4",
        dominated and sublinear and elapsed < 600,
        f"bound dominance at {len(cps)} checkpoints: {dominated}, "
        f"rate ratios {np.round(rates, 4).tolist()} all <= 0.05, {elapsed:.0f}s",
    )


def test_ac5_decentralized_regret_below_curve_and_commit_quality(
    hard_instance, decentralized_report
):
    """The adjacent-gap floor of this instance is the tie-break
    epsilon, so certification is unreachable at this horizon: the
    closed-form curve is astronomically loose and the post-commitment
    match rate is vacuously perfect. Both halves still run honestly and
    the measured numbers are printed."""
    rep, elapsed = decentralized_report
    means = np.array(rep.mean_regret[-1])
    curve = np.array(bound_curves(hard_instance, "decentralized-etc", (10**5,))[0])
    dominated = bool((means <= curve).all())
    frac = rep.telemetry["post_commit_core_fraction"]
    entering = rep.telemetry["episodes_entering_phase2"]
    linear = ", linear: no episode certifies" if entering == 0 else ""
    ok = dominated and frac >= 0.98
    report(
        "AC-5",
        ok,
        f"mean regret at T {np.round(means, 1).tolist()} <= curve "
        f"(~{curve.max():.2g}), post-commit core rate {frac} "
        f"({rep.telemetry['player_commitments']} commitments across "
        f"{entering} entering episodes), summed mean regret / T "
        f"{means.sum() / rep.horizon:.3f}{linear}, {elapsed:.0f}s",
    )


@pytest.mark.parametrize("n, delta, seed", [(5, 0.2, 7), (3, 0.2, 7)])
def test_ac5_noisy_markets_enter_phase2_and_commit_to_the_core(n, delta, seed):
    """AC-5 runs where no episode certifies, so its commitment half is
    vacuous. On noisy markets whose gaps certify within T = 1e5 (the
    README market first), every seed must enter phase 2 and every
    commitment must be to the core arm; a too-narrow confidence radius
    commits some players elsewhere."""
    inst = sttcb_instance(n, delta, np.random.default_rng(seed), "gaussian")
    start = time.monotonic()
    rep = monte_carlo(ExperimentConfig(inst, "decentralized-etc", 10**5, tuple(range(40))))
    elapsed = time.monotonic() - start
    tel = rep.telemetry
    ok = (
        tel["episodes_entering_phase2"] == len(rep.seeds)
        and tel["player_commitments_to_core"] == tel["player_commitments"]
    )
    report(
        f"AC-5 sttcb_instance({n}, {delta}, rng {seed})",
        ok,
        f"{tel['episodes_entering_phase2']}/{len(rep.seeds)} seeds entered phase 2, "
        f"{tel['player_commitments_to_core']}/{tel['player_commitments']} commitments core, "
        f"{elapsed:.1f}s",
    )


def test_ac6_log_growth_signature(centralized_report):
    rep, _ = centralized_report
    means = np.array(rep.mean_regret)
    cps = rep.checkpoints
    i3, i4, i5 = cps.index(1000), cps.index(10000), cps.index(100000)
    ratios = (means[i5] - means[i4]) / (means[i4] - means[i3])
    ok = bool(((ratios >= 0.5) & (ratios <= 2.0)).all())
    report(
        "AC-6",
        ok,
        f"per-decade growth ratios {np.round(ratios, 3).tolist()} all in [0.5, 2.0]",
    )


AC7_HORIZON = 10**4


def violated_in_loop(instance, seed, horizon, u):
    """Whether, after some phase-1 round of the episode run_episode
    plays on its per-round loop, a player's matched arm has a confidence
    interval that misses u, its utility matrix. A player's means move
    only in its own observe, so each player is checked right after it."""
    violated = [False]
    observe = DecentralizedPlayer.observe

    def checked(player, t, view):
        in_phase2 = player.stage == PHASE2
        observe(player, t, view)
        j = view.matched
        if not in_phase2 and j is not None and player.stats.counts[j] > 0:
            lo, hi = confidence_bounds(player.stats.means[j], player.stats.counts[j], horizon)
            violated[0] |= not (lo <= u[player.id, j] <= hi)

    config = ExperimentConfig(instance, "decentralized-etc", horizon, (seed,),
                              checkpoints=(horizon,))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_FAST_FORWARD", False)
        mp.setattr(DecentralizedPlayer, "observe", checked)
        run_episode(config, seed)
    return violated[0]


def fast_path_check(instance, seed, horizon, u):
    """violated_in_loop's flag, from the episode run_episode plays, and
    the episode's margin. A player folds a reward only in an
    exploration round, all before the entry round t1, where the arm it
    folds into is the one it matched; a status round re-checks a mean
    that has not moved since. So the loop's flag is a check of every
    mean a fold produces. The fast path folds each exploration run with
    ArmStats.fold; the check first replays the run with ArmStats.run,
    which returns those means and stores nothing, and the fold must end
    on the replay's last mean and count. The margin is
    the largest standardized deviation |m - u| / sqrt(6 ln T / c) over
    those means m, c being the count after the fold: how near the
    episode came to leaving an interval, whose edge is 1. A span hands
    fold strided views of a buffer, which both the replay and the fold
    iterate; the check sees one fold per arm a span reaches and, over
    a player's folds, every pull the player counts."""
    folds = []  # (player, arm, count before the run, means after each reward)
    folding = [None]
    last_round = [0]
    span_folds = [0]
    explore_span = DecentralizedPlayer.explore_span
    fold = ArmStats.fold
    replay = ArmStats.run

    def span(player, t, rewards):
        folding[0] = player.id
        last_round[0] = t + len(rewards) - 1
        span_folds[0] += min(player.n, len(rewards))
        try:
            explore_span(player, t, rewards)
        finally:
            folding[0] = None

    def recorded_fold(stats, arm, rewards):
        if folding[0] is None:
            other_fold(stats, arm, rewards)
        count = stats.counts[arm]
        run = replay(stats, arm, rewards)
        folds.append((folding[0], arm, count, run))
        fold(stats, arm, rewards)
        assert repr(stats.means[arm]) == repr(run[-1])
        assert stats.counts[arm] == count + len(run)

    def other_fold(stats, arm, rewards):
        raise AssertionError("a reward was folded outside explore_span")

    config = ExperimentConfig(instance, "decentralized-etc", horizon, (seed,),
                              checkpoints=(horizon,))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DecentralizedPlayer, "explore_span", span)
        mp.setattr(ArmStats, "fold", recorded_fold)
        mp.setattr(ArmStats, "run", other_fold)
        episode = run_episode(config, seed)
    t1 = episode.stats["entry_round"]
    assert t1 is None or last_round[0] < t1
    assert len(folds) == span_folds[0] > 0
    for i, snapshot in enumerate(episode.player_snapshots):
        assert sum(len(run) for p, _, _, run in folds if p == i) == sum(snapshot["counts"])
    scale = 6.0 * math.log(horizon)
    violated, deviation = False, 0.0
    for i, arm, count, run in folds:
        # confidence_bounds elementwise: numpy rounds +, -, / and sqrt as Python does
        means = np.array(run)
        radius = np.sqrt(scale / np.arange(count + 1, count + 1 + len(run)))
        if not ((means - radius <= u[i, arm]) & (u[i, arm] <= means + radius)).all():
            violated = True
        deviation = max(deviation, float((np.abs(means - u[i, arm]) / radius).max(initial=0.0)))
    return violated, deviation


def test_ac7_fast_path_flags_equal_the_loop():
    """On AC-7's market, against its utilities (no violation in the 200
    seeds) and against utilities 0.1 higher, which seeds 4 and 6 violate
    and seed 5 does not."""
    inst3 = sttcb_instance(3, 0.2, np.random.default_rng(7), "gaussian")
    for seed, u in ((0, inst3.utilities), (4, inst3.utilities + 0.1), (5, inst3.utilities + 0.1),
                    (6, inst3.utilities + 0.1)):
        flag = violated_in_loop(inst3, seed, AC7_HORIZON, u)
        assert flag == (seed in (4, 6))
        assert fast_path_check(inst3, seed, AC7_HORIZON, u)[0] == flag


def test_ac7_environment_statistics():
    # 1) empirical Bernoulli mean over 1e5 pulls of a mean-0.5 arm
    one_arm = validate_instance(np.array([[0.5]]), "bernoulli")
    env = MarketEnv(one_arm, seed=123)
    total = 0.0
    for _ in range(10**5):
        total += env.step([0]).rewards[0]
    empirical = total / 10**5
    mean_ok = abs(empirical - 0.5) <= 0.01

    # 2) collision rounds pay exactly zero in traces, both when forced
    # by hand under noise and when produced by the protocol itself
    swap = validate_instance(np.array([[0.2, 0.9], [0.9, 0.2]]), "gaussian")
    def collision_rows(trace):
        rows = [line.split(",") for line in trace.getvalue().splitlines()[1:]]
        return [r for r in rows if r[4] == "1"]

    env2 = MarketEnv(swap, seed=5)
    forced_trace = io.StringIO()
    ledger = RegretLedger(swap, trace=forced_trace)
    for _ in range(50):
        out = env2.step([0, 0])
        ledger.record(out)
    forced = collision_rows(forced_trace)
    cfg = ExperimentConfig(
        swap, "decentralized-etc", 1100, (0,),
        reward_family="deterministic", checkpoints=(1100,),
    )
    protocol_trace = io.StringIO()
    run_episode(cfg, 0, trace=protocol_trace)
    protocol = collision_rows(protocol_trace)
    collided = forced + protocol
    collisions_zero = (
        len(forced) == 100
        and bool(protocol)
        and all(float(r[5]) == 0.0 for r in collided)
    )
    rng = np.random.default_rng(7)
    inst3 = sttcb_instance(3, 0.2, rng, "gaussian")

    # 3) episodes containing a confidence-interval violation are rare
    flags, deviations = zip(*(fast_path_check(inst3, seed, AC7_HORIZON, inst3.utilities)
                              for seed in range(200)))
    violation_frac = sum(flags) / 200
    violations_ok = violation_frac <= 0.05

    report(
        "AC-7",
        mean_ok and collisions_zero and violations_ok,
        f"empirical mean {empirical:.4f} in 0.5+-0.01, "
        f"{len(collided)} collision rows all zero-reward, "
        f"violation episode fraction {violation_frac}, "
        f"largest |m - u| / sqrt(6 ln T / c) {max(deviations):.3f}",
    )
