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
is still the stable sort of its negated indices.
"""

from __future__ import annotations

import math
from typing import Sequence

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
        st.update(matching.assignment[i], outcome.rewards[i])
    return rankings, matching, outcome


def hold_profile(
    states: Sequence[ArmStats], rankings: tuple[Ranking, ...], assignment: Sequence[int],
    t: int, rewards: np.ndarray,
) -> int:
    """Resolve a block of rounds t .. t + k - 1 drawn on the guess that
    every player keeps submitting its ranking in rankings, so that
    player i is matched to arm assignment[i] (the profile's matching)
    and draws rewards[r, i] in round t + r (rewards is k x n). Returns
    the number of leading rounds in which the guess holds, the rounds
    before the first that would submit another profile, and folds
    exactly those rounds' rewards into the states, as platform_round
    would have."""
    k, n = rewards.shape
    rows = np.arange(n)
    means = np.array([st.means for st in states])
    counts = np.array([st.counts for st in states], dtype=float)
    start = [(st.means[a], st.counts[a]) for st, a in zip(states, assignment)]
    runs = [st.update_run(a, col) for st, a, col in zip(states, assignment, rewards.T.tolist())]
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
    if held < k:
        for st, a, run, (mean, count) in zip(states, assignment, runs, start):
            st.means[a] = run[held - 1] if held else mean
            st.counts[a] = count + held
    return held
