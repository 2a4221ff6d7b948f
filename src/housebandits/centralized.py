"""Centralized anytime protocol.

Every round each player turns its per-arm statistics into optimistic
indices (an unpulled arm scores +infinity), ranks arms by index, and
submits the ranking; the platform computes a top-trading-cycles
matching of the submitted rankings and assigns every player the arm it
was matched to. Matchings are bijections, so no collision can ever
happen and every player is matched every round. Nothing here reads the
horizon: the exploration radius shrinks with the current round only.
"""

from __future__ import annotations

import math
from typing import Sequence

from .env import ArmStats, MarketEnv, RoundOutcome
from .market import Matching, Ranking, ttc


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


def submitted_rankings(states: Sequence[ArmStats], t: int) -> tuple[Ranking, ...]:
    rankings = []
    for st in states:
        means = st.means
        counts = st.counts
        idx = [index(means[j], counts[j], t) for j in range(len(means))]
        rankings.append(rank_by_index(idx))
    return tuple(rankings)


def platform_round(
    states: Sequence[ArmStats], t: int, env: MarketEnv
) -> tuple[Matching, RoundOutcome]:
    """One full platform round: collect rankings, match via top trading
    cycles, pull the assigned arms, then fold the observed rewards into
    the per-player statistics. Mutates states in place."""
    matching = ttc(submitted_rankings(states, t))
    outcome = env.step(matching.assignment)
    for i, st in enumerate(states):
        st.update(matching.assignment[i], outcome.rewards[i])
    return matching, outcome
