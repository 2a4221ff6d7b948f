"""Centralized anytime protocol.

Every round each player turns its per-arm statistics into optimistic
indices, mean + sqrt(3 ln t / (2 count)) with the count taken before
the round (an unpulled arm scores +infinity), ranks arms by index with
ties broken toward the lower arm, and submits the ranking; the platform
computes a top-trading-cycles matching of the submitted rankings and
assigns every player the arm it was matched to. Matchings are
bijections, so no collision can ever happen and every player is matched
every round. Nothing here reads the horizon: the exploration radius
shrinks with the current round only.

The round loop is the simulator's hot path, so the index is computed
inline: 3 ln t once per round, not once per (player, arm), with the same
float operations in the same order, and one stable sort of the negated
indices per player. Late in an episode the same ranking profile recurs
round after round, so the platform calls ttc only in a round whose
profile differs from the round before, and otherwise reuses that
round's matching: ttc is a function of the profile alone and checks
every ranking, so the reused matching is the one ttc would build.
Nothing outlives an episode.

Because the profile recurs, an episode can also resolve a
block of rounds at once on the guess that a profile holds, and keep
the rounds in which it did (hold_profile): in each block round only the
matched arm's mean and count move, so each round's indices can be
computed in numpy with the loop's own float operations (3 ln s from
math.log per round, then +, *, / and sqrt, which numpy rounds exactly
as Python does), and the round holds if every ranking in the profile
is still the stable sort of its negated indices. A stretch of such
blocks reads the other arms' means and counts once, when the profile
repeats; each block then reads only its matched arms' counts and runs
of means, and commits the rounds it keeps.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .env import ArmStats, MarketEnv, RoundOutcome
from .market import Matching, Ranking, ttc


def submitted_rankings(states: Sequence[ArmStats], t: int) -> tuple[Ranking, ...]:
    """Every player's arms by optimistic index, best first."""
    explore = 3.0 * math.log(t)
    sqrt = math.sqrt
    unseen = -math.inf
    rankings = []
    for st in states:
        neg = [unseen if c == 0 else -(m + sqrt(explore / (2.0 * c)))
               for m, c in zip(st.means, st.counts)]
        rankings.append(tuple(sorted(range(len(neg)), key=neg.__getitem__)))
    return tuple(rankings)


def platform_round(
    states: Sequence[ArmStats], t: int, env: MarketEnv,
    last: tuple[tuple[Ranking, ...], Matching] | None = None,
) -> tuple[tuple[Ranking, ...], Matching, RoundOutcome]:
    """One full platform round: collect rankings, match via top trading
    cycles, pull the assigned arms, then fold the observed rewards into
    the per-player statistics. last is the previous round's profile and
    matching, whose matching is reused when the profile repeats. Mutates
    states in place and returns the submitted profile, its matching and
    the round's outcome."""
    rankings = submitted_rankings(states, t)
    matching = last[1] if last is not None and last[0] == rankings else ttc(rankings)
    outcome = env.step(matching.assignment)
    for i, st in enumerate(states):
        st.fold(matching.assignment[i], (outcome.rewards[i],))
    return rankings, matching, outcome


def hold_profile(
    states: Sequence[ArmStats], rankings: tuple[Ranking, ...], assignment: Sequence[int],
) -> Callable[[int, np.ndarray], int]:
    """Prepare a stretch of rounds played on the guess that every player
    keeps submitting its ranking in rankings, so that player i is
    matched to arm assignment[i] (the profile's matching), which it has
    pulled before. Returns keep(t, rewards), which resolves the block of
    rounds t .. t + k - 1 in which player i draws rewards[r, i] in
    round t + r (rewards is k x n): it returns the number of leading
    rounds in which the guess holds, the rounds before the first that
    would submit another profile, and folds exactly those rounds'
    rewards into the states, as platform_round would have. Blocks
    follow one another, each from the round after the last one kept.

    While the profile holds only the matched arms move, so the other
    arms' means and doubled counts are read once, in ranking order, and
    a block broadcasts them over its rounds. Each block reads the
    matched arms' counts from the states and their means after each
    block reward from ArmStats.run, which stores nothing, and commits
    the kept prefix alone. An unpulled arm keeps mean and doubled count
    +inf, whose index is +inf in every round, as in submitted_rankings.
    The guess holds in a round while every ranking is still the stable
    sort of the round's negated indices: along it the indices do not
    rise, and an equal pair keeps the lower arm first."""
    n = len(states)
    rows = np.arange(n)
    at = [ranking.index(a) for ranking, a in zip(rankings, assignment)]
    # [player, position, round] arrays: a block's rounds run along the last axis
    order = np.array(rankings, dtype=int)[:, :, None]
    ties_broken = order[:, :-1] > order[:, 1:]
    in_order = [(st, a) for st, ranking in zip(states, rankings) for a in ranking]
    means = np.array([st.means[a] if st.counts[a] else math.inf
                      for st, a in in_order]).reshape(n, n, 1)
    twice = np.array([2.0 * st.counts[a] if st.counts[a] else math.inf
                      for st, a in in_order]).reshape(n, n, 1)

    def keep(t: int, rewards: np.ndarray) -> int:
        k = len(rewards)
        # row i: player i's matched mean before each block reward, then after the last
        runs = [[st.means[a], *st.run(a, col)]
                for st, a, col in zip(states, assignment, rewards.T.tolist())]
        # the matched arms' doubled counts before the block's first round
        twice_now = np.array([2.0 * st.counts[a] for st, a in zip(states, assignment)])[:, None]
        explore = 3.0 * np.fromiter(map(math.log, range(t, t + k)), float, k)
        index = means + np.sqrt(explore / twice)
        # round t + r ranks on the matched arm's mean and count after r rewards
        index[rows, at] = np.array(runs, dtype=float)[:, :-1] + np.sqrt(
            explore / (twice_now + np.arange(0.0, 2.0 * k, 2.0)))
        # an adjacent pair breaks its ranking where the arm behind has the
        # higher index, or an equal one with the higher arm ranked ahead
        ahead, behind = index[:, :-1], index[:, 1:]
        broken = np.less(ahead, behind)
        np.less_equal(ahead, behind, out=broken, where=ties_broken)
        broken = broken.any(axis=(0, 1))
        held = int(broken.argmax())
        if not broken[held]:
            held = k
        for st, a, run in zip(states, assignment, runs):
            st.means[a] = run[held]
            st.counts[a] += held
        return held

    return keep
