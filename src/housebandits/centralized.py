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
round after round, so the platform keeps the matchings of the
_MEMO_PROFILES most recently used distinct profiles. A miss calls ttc,
which checks every ranking, so a remembered matching was checked when it
was first built. The memo is shared by every episode in the process; a
matching is immutable and a function of the profile alone, so sharing
changes only how often ttc runs, never a result.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

from .env import ArmStats, MarketEnv, RoundOutcome
from .market import Matching, Ranking, ttc

# distinct ranking profiles whose matchings the platform remembers
_MEMO_PROFILES = 1024


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


@lru_cache(maxsize=_MEMO_PROFILES)
def _clear(rankings: tuple[Ranking, ...]) -> Matching:
    # looks ttc up at call time, so a wrapped module global sees the misses
    return ttc(rankings)


def platform_round(
    states: Sequence[ArmStats], t: int, env: MarketEnv
) -> tuple[Matching, RoundOutcome]:
    """One full platform round: collect rankings, match via top trading
    cycles, pull the assigned arms, then fold the observed rewards into
    the per-player statistics. Mutates states in place."""
    matching = _clear(submitted_rankings(states, t))
    outcome = env.step(matching.assignment)
    for i, st in enumerate(states):
        st.update(matching.assignment[i], outcome.rewards[i])
    return matching, outcome
