"""Decentralized explore-then-commit protocol.

Each player runs the same two-phase state machine against a known
horizon T, communicating only through the collision channel.

Phase 1 is organized in sub-phases ell = 1, 2, ...; sub-phase ell has
an exploration block of 2^ell rounds followed by n status rounds. In
exploration everyone round-robins (player i proposes arm
explore_arm(i, t, n) = (i + t) mod n, collision-free), updating an
empirical mean per arm from matched rewards. At the end of each block
a player tries to extract a full preference ranking: sort arms by
empirical mean and certify that every adjacent pair of confidence
intervals is disjoint. In status round t' of a sub-phase, players
that certified a ranking propose arm t' while the rest abstain; the
owner of arm t' consequently counts n applicants exactly when everyone
certified, which is the signal (seen by each owner in its own status
round) to enter phase 2 at the end of the sub-phase. Either every
player sees the signal or none does, so the transition round t1 is
common.

Phase 2 replays the request-by-turn mechanism under the certified
rankings using a common-knowledge availability flag per arm. At the
start of each epoch (every time the available set shrinks) the owner
of the lowest-indexed available arm proposes to its best available
arm; afterwards, whoever owned the previously proposed arm proposes to
its own best available arm, recording the proposer as its predecessor.
A trading cycle closes the moment a proposal reaches the arm of a
player who has already proposed in this epoch: that player withdraws
(flag down) and commits to the arm it proposed to, and the rest of the
cycle commits in the same round's bookkeeping through the
predecessor-withdrew rule (commit_cascade, run to fixpoint before the
next round starts). Committed players pull their committed arm every
remaining round; uncommitted bystanders abstain.

Each protocol event happens at one point, whichever call drives the
player: certification in _close_block (reached by observe or
explore_span), t1 in the last status round's observe, epochs and
requests in action, commitments in commit_check.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .env import ArmStats
from .errors import DesyncError
from .market import Ranking, gap_term

EXPLORE = "explore"
COMMUNICATE = "communicate"
PHASE2 = "phase2"


class PlayerView(NamedTuple):
    """What one player legitimately observes after a round: its own
    outcome plus the applicant identities on its endowed arm."""

    matched: int | None
    reward: float
    collided: bool
    own_applicants: tuple[int, ...]


def explore_arm(player, t, n):
    """The round-robin exploration arm (player + t) mod n of a player in
    round t; elementwise on numpy arrays."""
    return (player + t) % n


def sub_phase_end(ell: int, n: int) -> int:
    """Last round of sub-phase ell: sum over ell' <= ell of 2^ell' + n."""
    return 2 ** (ell + 1) - 2 + ell * n


def entry_round_bound(n: int, horizon: int, gap: float) -> int:
    """Worst-case exploitation entry round under clean concentration.

    Certification is guaranteed once cumulative exploration rounds
    reach 96 n ln T / gap^2, so the bound is the end of the first
    sub-phase whose explore budget crosses that threshold.
    """
    if horizon < 2:
        raise DesyncError(f"entry bound needs horizon >= 2, got {horizon}")
    if gap <= 0:
        raise DesyncError(f"entry bound needs a positive gap, got {gap}")
    need = gap_term(96.0 * n * math.log(horizon), gap)
    ell = 1
    while 2 ** (ell + 1) - 2 < need:
        ell += 1
    return sub_phase_end(ell, n)


def confidence_bounds(mean: float, count: int, horizon: int) -> tuple[float, float]:
    """Symmetric confidence interval with radius sqrt(6 ln T / max(count, 1))."""
    radius = math.sqrt(6.0 * math.log(horizon) / max(count, 1))
    return mean - radius, mean + radius


def try_extract_ranking(stats: ArmStats, horizon: int) -> Ranking | None:
    """Certified ranking, or None.

    Sort arms by empirical mean (descending) and accept iff for every
    adjacent pair the lower bound of the better arm strictly exceeds
    the upper bound of the worse one. Searching other permutations is
    pointless: pairwise-disjoint intervals admit exactly this order.
    """
    means = stats.means
    counts = stats.counts
    order = sorted(range(len(means)), key=lambda j: (-means[j], j))
    for a, b in zip(order, order[1:]):
        lower_a = confidence_bounds(means[a], counts[a], horizon)[0]
        upper_b = confidence_bounds(means[b], counts[b], horizon)[1]
        if not lower_a > upper_b:
            return None
    return tuple(order)


class DecentralizedPlayer:
    """State machine for one player. Drive it with action, then observe,
    once per round; after phase-2 observes, run commit_cascade over all
    players. explore_span and hold_commitment advance it over rounds
    whose proposals are fixed in advance. stage walks the schedule: the
    EXPLORE block and COMMUNICATE status stage of each sub-phase ell,
    then PHASE2 from the entry round t1 on. A phase-1 action is a
    function of the round and the schedule alone, so observe checks an
    exploration match against explore_arm; phase 2 keeps the chain state
    (epoch, predecessor, proposed and committed arm).
    """

    def __init__(self, player_id: int, n: int, horizon: int):
        if horizon < 2:
            raise DesyncError(f"protocol needs horizon >= 2, got {horizon}")
        self.id = player_id
        self.n = n
        self.horizon = horizon
        self.stats = ArmStats(n)
        self.t = 0
        # the schedule: sub-phase, stage, rounds left in a phase-1 stage
        self.ell = 1
        self.stage = EXPLORE
        self.stage_left = 2
        self.p_flag = False
        self.sigma: Ranking | None = None
        self.pending_entry = False
        self.t1: int | None = None
        # phase-2 fields
        self.epoch = 0
        self.available: frozenset[int] = frozenset()
        self.predecessor: int | None = None
        self.proposed_arm: int | None = None
        self.committed: int | None = None
        self.commit_round: int | None = None
        self._own_applicants: tuple[int, ...] = ()

    # --- actions ---------------------------------------------------------

    def action(self, t: int, flags: Sequence[bool]) -> int | None:
        if t != self.t + 1:
            raise DesyncError(f"player {self.id} asked to act at round {t}, expected {self.t + 1}")
        if self.stage == EXPLORE:
            return explore_arm(self.id, t, self.n)
        if self.stage == COMMUNICATE:
            # status round n - stage_left + 1 (1-based): propose its arm
            return self.n - self.stage_left if self.p_flag else None
        if self.committed is not None:
            return self.committed
        avail = frozenset(j for j in range(self.n) if flags[j])
        if not avail:
            raise DesyncError(f"player {self.id} uncommitted with no available arms")
        if avail != self.available:
            # epoch start: the owner of the lowest available arm proposes
            self.epoch += 1
            self.available = avail
            self.predecessor = None
            self.proposed_arm = self._best_available() if self.id == min(avail) else None
            return self.proposed_arm
        if self.proposed_arm is not None or not self._own_applicants:
            return None
        # chain turn: my arm was requested last round
        if len(self._own_applicants) != 1:
            raise DesyncError(
                f"arm {self.id} drew {len(self._own_applicants)} phase-2 applicants"
            )
        self.predecessor = self._own_applicants[0]
        self.proposed_arm = self._best_available()
        return self.proposed_arm

    def _best_available(self) -> int:
        if self.sigma is None:
            raise DesyncError(f"player {self.id} is in phase 2 without a certified ranking")
        for arm in self.sigma:
            if arm in self.available:
                return arm
        raise DesyncError(f"player {self.id} found no available arm in its ranking")

    # --- observations ------------------------------------------------------

    def observe(self, t: int, view: PlayerView) -> None:
        if t != self.t + 1:
            raise DesyncError(f"player {self.id} observed round {t}, expected {self.t + 1}")
        self.t = t
        self._own_applicants = view.own_applicants
        if self.stage == EXPLORE:
            if view.collided or view.matched != explore_arm(self.id, t, self.n):
                raise DesyncError(
                    f"player {self.id} expected a clean exploration match at round {t}"
                )
            self.stats.fold(view.matched, (view.reward,))
            self.stage_left -= 1
            if self.stage_left == 0:
                self._close_block()
        elif self.stage == COMMUNICATE:
            if self.n - self.stage_left == self.id and len(view.own_applicants) == self.n:
                self.pending_entry = True
            self.stage_left -= 1
            if self.stage_left == 0:
                if self.pending_entry:
                    self.stage = PHASE2
                    self.t1 = t
                    if t != sub_phase_end(self.ell, self.n):
                        raise DesyncError(
                            f"player {self.id} entered phase 2 at round {t}, "
                            f"not at the end of sub-phase {self.ell}"
                        )
                else:
                    self.ell += 1
                    self.stage = EXPLORE
                    self.stage_left = 2**self.ell

    def explore_span(self, t: int, rewards: Sequence[float]) -> None:
        """Observe rounds t .. t + k - 1 of the exploration block at once,
        up to and including its closing round: in round t + r this
        player was matched to explore_arm(id, t + r, n) and drew
        rewards[r]. Each arm's mean takes the same updates as observe
        gives it, in the same order: the rounds that explore one arm
        are every n-th, so each arm folds one strided run with
        ArmStats.fold."""
        k = len(rewards)
        if t != self.t + 1:
            raise DesyncError(f"player {self.id} observed round {t}, expected {self.t + 1}")
        if self.stage != EXPLORE or not 0 < k <= self.stage_left:
            raise DesyncError(
                f"player {self.id} has no {k} open exploration rounds at round {t}"
            )
        n = self.n
        for r in range(min(n, k)):
            self.stats.fold(explore_arm(self.id, t + r, n), rewards[r::n])
        self.t = t + k - 1
        self.stage_left -= k
        if self.stage_left == 0:
            self._close_block()

    def _close_block(self) -> None:
        """End the exploration block: refresh the certificate, then
        start the status stage."""
        extracted = try_extract_ranking(self.stats, self.horizon)
        self.p_flag = extracted is not None
        if extracted is not None:
            self.sigma = extracted
        self.stage = COMMUNICATE
        self.stage_left = self.n

    def hold_commitment(self, t: int) -> None:
        """Skip to the end of round t, pulling the committed arm in every
        round. Only valid once every player has committed, so no
        observation in between can change this player's state."""
        if self.committed is None or t < self.t:
            raise DesyncError(f"player {self.id} cannot hold a commitment to round {t}")
        self.t = t

    # --- phase-2 commit bookkeeping -----------------------------------------

    def commit_check(self, flags: Sequence[bool]) -> bool:
        """One step of the end-of-round closure rule. True if this
        player just withdrew (the caller must flip its flag)."""
        if self.committed is not None or self.proposed_arm is None:
            return False
        closed = bool(self._own_applicants)
        withdrawn = self.predecessor is not None and not flags[self.predecessor]
        if closed or withdrawn:
            self.committed = self.proposed_arm
            self.commit_round = self.t
            return True
        return False

    def snapshot(self) -> dict:
        """JSON-friendly dump of the player state (1-based indices)."""
        phase1 = self.stage != PHASE2
        return {
            "player": self.id + 1,
            "phase": 1 if phase1 else 2,
            "round": self.t,
            "sub_phase": self.ell if phase1 else None,
            "stage": self.stage,
            "means": list(self.stats.means),
            "counts": list(self.stats.counts),
            "ranking_certified": self.p_flag,
            "ranking": None if self.sigma is None else [a + 1 for a in self.sigma],
            "entry_round": self.t1,
            "epoch": None if phase1 else self.epoch,
            "committed_arm": None if self.committed is None else self.committed + 1,
            "commit_round": self.commit_round,
        }


def commit_cascade(players: Sequence[DecentralizedPlayer], flags: list[bool]) -> None:
    """Run the closure rule to fixpoint after a phase-2 round.

    A whole trading cycle resolves here: the repeated proposer commits
    first (its arm received a request while its own was pending), then
    withdrawal propagates along predecessor links. Flags are mutated in
    place and become the common knowledge of the next round.
    """
    changed = True
    while changed:
        changed = False
        for p in players:
            if p.commit_check(flags):
                flags[p.id] = False
                changed = True
