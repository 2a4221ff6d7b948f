"""Stochastic market environment.

Resolves one proposal vector per round under the collision rule: an arm
proposed to by two or more players matches nobody and every applicant
takes reward 0 with a collided flag; a unique applicant is matched and
draws a reward with mean equal to its utility for that arm; abstaining
players take reward 0 without a collision. Only the owner of an arm may
see who applied to it, which RoundOutcome enforces by exposing identity
sets through an owner-view accessor alone.

Randomness: an episode owns a single seeded generator, and each round
consumes one block of n variates, element i belonging to player i. The
variate feeding (player, round) therefore never depends on resolution
order, and an identical (instance, proposals, seed) triple reproduces
an episode bit for bit. MarketEnv pregenerates the blocks of 4096 rounds
as one array, which yields the exact same stream as drawing one block
per round: step reads one row of it, and step_block, which resolves a
run of collision-free rounds at once, reads a slice of consecutive rows.
A block is a pair (rows, index): a table of the distinct proposal
vectors its rounds play and, per round, the position of its vector in
the table (a round robin's n rows, or the one row that every round of
a held profile, a committed stretch or the oracle repeats). step_block
and RegretLedger.record_block check and price each row of the table
once and expand the result by the index. Each sampling family is one
entry of the table _FAMILIES: its noise draw, which fills the chunk,
and its reward rule, one expression that step applies to a float and
step_block to an array. The deterministic family's rows are -0.0 noise
that draws nothing from the generator, so its rewards are the exact
means. A caller that resolves a block speculatively keeps a prefix of
it and hands the rest back with give_back, whose rows the next step or
step_block reads again; since a block never spans two chunks, neither
does a give-back.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Iterable, Sequence, TextIO

import numpy as np

from .errors import EntryOutOfRangeError, RuntimeFailure
from .market import REWARD_MODELS, MarketInstance

# The abstain action: a proposal slot holding None instead of an arm.
ABSTAIN = None

# Families accepted when sampling: the instance reward models plus
# "deterministic" (reward equals the mean exactly), a diagnostic mode for
# no-noise episodes that is not a valid instance file family.
SAMPLING_FAMILIES = REWARD_MODELS + ("deterministic",)

# Each sampling family once, paired with SAMPLING_FAMILIES by position:
# its noise draw (rng, shape -> noise rows) and its reward rule (mean,
# noise -> reward), whose one expression gives the same floats for a
# float, in MarketEnv.step, and elementwise for arrays, in step_block.
# A Bernoulli reward is 1.0 when the uniform variate lies below the
# mean; the deterministic family's -0.0 noise draws nothing from the
# rng, and x + -0.0 == x bit for bit for every float x, -0.0 included.
_FAMILIES = dict(zip(SAMPLING_FAMILIES, [
    (lambda rng, shape: rng.standard_normal(shape), operator.add),
    (lambda rng, shape: rng.random(shape), lambda mean, noise: (noise < mean) * 1.0),
    (lambda rng, shape: np.full(shape, -0.0), operator.add)], strict=True))

TRACE_COLUMNS = (
    "round",
    "player",
    "proposal",
    "matched_arm",
    "collided",
    "reward",
    "pseudo_regret_cum",
    "realized_regret_cum",
)

_NOISE_CHUNK_ROUNDS = 4096
# rounds of a recorded block whose trace lines are formatted and written
# at once
_TRACE_SLICE_ROUNDS = 32


class RoundOutcome:
    """Result of one resolved round.

    Public per-player fields: proposals, matched (arm or None), rewards,
    collided. Applicant identity sets are reachable only through
    owner_view, mirroring the rule that only the owner of an arm
    observes its application profile.
    """

    __slots__ = ("proposals", "matched", "rewards", "collided", "_applicants")

    def __init__(self, proposals, matched, rewards, collided, applicants):
        self.proposals = proposals
        self.matched = matched
        self.rewards = rewards
        self.collided = collided
        self._applicants = applicants

    def owner_view(self, arm: int) -> tuple[int, ...]:
        """Applicant identities for one arm, as seen by its owner."""
        return tuple(self._applicants[arm])


class ArmStats:
    """One player's empirical mean and pull count per arm.

    The mean is the exact running mean (m * c + x) / (c + 1), taken one
    reward at a time. fold is the one method that changes the
    statistics: a run of k rewards to one arm folds in one call and
    gives the same floats as k calls of one reward each. run computes
    the same means and stores nothing; it returns the mean after each
    reward, for the centralized block check, which commits only the
    prefix of the run it keeps. Both carry the count as a float inside
    their loops, which is cheaper than an int, and fold stores an int
    back: below 2^53, float * int and float / int convert the int to
    this same double, so every mean is unchanged."""

    __slots__ = ("means", "counts")

    def __init__(self, n: int):
        self.means = [0.0] * n
        self.counts = [0] * n

    def fold(self, arm: int, rewards: Iterable[float]) -> None:
        """Fold rewards into arm's mean and count, in order."""
        m = self.means[arm]
        c = float(self.counts[arm])
        for x in rewards:
            # the numerator reads c before the denominator counts the reward
            m = (m * c + x) / (c := c + 1.0)
        self.means[arm] = m
        self.counts[arm] = int(c)

    def run(self, arm: int, rewards: Iterable[float]) -> list[float]:
        """The mean of arm after each of rewards, as fold would leave it
        after folding them up to that one; stores nothing."""
        m = self.means[arm]
        c = float(self.counts[arm])
        # the numerator reads c before the denominator counts the reward
        return [m := (m * c + x) / (c := c + 1.0) for x in rewards]


class MarketEnv:
    """Sequential episode driver: a seeded rng and its noise chunks.

    The family's entry of _FAMILIES, looked up once here, gives the
    noise draw and the reward rule. Noise blocks are pregenerated in
    chunks purely for speed; the stream equals one draw of n variates
    per round (rng.standard_normal for Gaussian, rng.random for
    Bernoulli).
    """

    def __init__(self, instance: MarketInstance, seed: int, family: str | None = None):
        self.instance = instance
        self.family = instance.reward_model if family is None else family
        if self.family not in SAMPLING_FAMILIES:
            raise EntryOutOfRangeError(f"unknown reward family {self.family!r}")
        self._noise, self._reward = _FAMILIES[self.family]
        self.rng = np.random.default_rng(seed)
        self._u = instance.utilities.tolist()
        self._players = np.arange(instance.n)
        self._chunk = np.empty((0, instance.n))  # noise blocks, one row per round
        self._chunk_pos = 0

    def _draw(self, k: int) -> np.ndarray:
        """The next min(k, rows left in the noise chunk) noise rows, one
        per round, after replacing a spent chunk with the next one, which
        the family's noise draw in _FAMILIES fills."""
        if self._chunk_pos == len(self._chunk):
            self._chunk = None  # free the spent chunk before building the next
            self._chunk = self._noise(self.rng, (_NOISE_CHUNK_ROUNDS, self.instance.n))
            self._chunk_pos = 0
        rows = self._chunk[self._chunk_pos:self._chunk_pos + k]
        self._chunk_pos += len(rows)
        return rows

    def step(self, proposals: Sequence[int | None]) -> RoundOutcome:
        """Resolve one round of proposals (one slot per player, an arm
        or ABSTAIN), consuming one noise block."""
        n = self.instance.n
        if len(proposals) != n:
            raise EntryOutOfRangeError(f"expected {n} proposal slots, got {len(proposals)}")
        noise_row = self._draw(1).tolist()[0]
        reward = self._reward
        utilities = self._u
        matched: list[int | None] = [None] * n
        rewards = [0.0] * n
        collided = [False] * n
        applicants: list[list[int]] = [[] for _ in range(n)]
        for i, arm in enumerate(proposals):
            if arm is ABSTAIN:
                continue
            if not 0 <= arm < n:
                raise EntryOutOfRangeError(f"player {i} proposed invalid arm {arm}")
            applicants[arm].append(i)
        for arm, apps in enumerate(applicants):
            if len(apps) == 1:
                i = apps[0]
                matched[i] = arm
                rewards[i] = reward(utilities[i][arm], noise_row[i])
            elif len(apps) > 1:
                for i in apps:
                    collided[i] = True
        return RoundOutcome(
            proposals=tuple(proposals),
            matched=tuple(matched),
            rewards=tuple(rewards),
            collided=tuple(collided),
            applicants=applicants,
        )

    def step_block(self, rows: np.ndarray, index: np.ndarray) -> np.ndarray:
        """Resolve a run of rounds in which every player proposes and no
        two collide: round r proposes row index[r] of the m x n table
        rows, and each row is a permutation of the arms (k = len(index)
        >= 1 rounds). Resolves the leading min(k, rounds left in the
        noise chunk) rounds and returns their rewards, row r for round
        r; every player is matched to the arm it proposed. Each row is
        checked and gathered once, and a table of one row is broadcast
        over the rounds. A row that is not a permutation, or an index
        outside the table, is refused before any noise is drawn."""
        m = len(rows)
        if (np.sort(rows, axis=1) != self._players).any():
            raise RuntimeFailure("a block row is not a collision-free proposal of every arm")
        if index.min(initial=0) < 0 or index.max(initial=0) >= m:
            raise RuntimeFailure(f"a block round's row index lies outside its {m}-row table")
        noise = self._draw(len(index))
        means = self.instance.utilities[self._players, rows]
        if m > 1:
            means = means[index[:len(noise)]]
        return self._reward(means, noise)

    def give_back(self, k: int) -> None:
        """Unresolve the last k rounds of the latest step_block: the next
        step or step_block draws their noise rows again. The rows must
        lie in the current chunk, so a give-back never crosses a refill."""
        if not 0 <= k <= self._chunk_pos:
            raise RuntimeFailure(f"cannot give back {k} rounds at chunk row {self._chunk_pos}")
        self._chunk_pos -= k


class RegretLedger:
    """Per-player regret accounting against the core matching, the one
    owner of an episode's bookkeeping.

    Pseudo-regret accumulates the mean shortfall
    U(i, core(i)) - (U(i, matched arm) if matched else 0),
    realized regret accumulates U(i, core(i)) - X_i(t). At each round in
    checkpoints, the ledger stores the cumulative pseudo-regret after
    that round in snapshots, keyed by round, whether the round was
    recorded alone or inside a block. Given a text file as trace, the
    ledger writes the CSV header at once and then one line per
    (round, player) as each round or block is recorded, a block in
    slices of rounds, so a trace takes constant memory. record and
    record_block write their lines through one column-wise encoder,
    _trace_text, so a block writes what its rounds recorded one by one
    would. extra_columns lets a caller append per-round values, each
    repeated on that round's player rows. Values are written with repr,
    so floats read back exactly.

    rows = (lo, hi) is the ledger's row window: it writes the header
    only when lo is 0, and the lines of rounds lo < t <= hi only. Its
    sums, snapshots and checkpoints cover every round all the same, so
    ledgers that play one episode with windows that tile 0 .. T write,
    in window order, the trace of one unwindowed ledger.
    """

    def __init__(self, instance: MarketInstance, trace: TextIO | None = None,
                 extra_columns: tuple[str, ...] = (), checkpoints: Iterable[int] = (),
                 rows: tuple[int, float] = (0, math.inf)):
        self.instance = instance
        self.n = instance.n
        u = instance.utilities.tolist()
        self.core_means = [u[i][instance.core.arm_of(i)] for i in range(self.n)]
        self._core = np.array(self.core_means)
        self._u = u
        self._players = np.arange(self.n)
        self.t = 0
        self.pseudo = [0.0] * self.n
        self.realized = [0.0] * self.n
        # the checkpoints a round can reach, in order, then a sentinel no
        # round reaches, and the index of the next one to fill
        self._due = sorted(c for c in set(checkpoints) if c >= 1) + [math.inf]
        self._next = 0
        self.snapshots: dict[int, tuple[float, ...]] = {}
        self.trace = trace is not None
        self._file = trace
        self._lo, self._hi = rows
        self.extra_columns = extra_columns
        if trace is not None:
            if self._lo == 0:
                trace.write(",".join(TRACE_COLUMNS + extra_columns) + "\n")
            # the ",player,proposal,matched_arm,collided," text of a block
            # line in which player i matched the arm it proposed, at [i, arm]
            self._block_mids = np.array([[f",{i},{a},{a},0," for a in range(1, self.n + 1)]
                                         for i in range(1, self.n + 1)], dtype=object)

    def _tail(self, extra: tuple) -> str:
        """The trace text of a round's extra values."""
        if len(extra) != len(self.extra_columns):
            raise RuntimeFailure(
                f"expected {len(self.extra_columns)} extra values, got {len(extra)}"
            )
        return "".join(f",{v!r}" for v in extra)

    def record(self, outcome: RoundOutcome, extra: tuple = ()) -> None:
        self.t = t = self.t + 1
        core_means = self.core_means
        pseudo = self.pseudo
        realized = self.realized
        u = self._u
        matched = outcome.matched
        rewards = outcome.rewards
        for i in range(self.n):
            arm = matched[i]
            got = u[i][arm] if arm is not None else 0.0
            pseudo[i] += core_means[i] - got
            realized[i] += core_means[i] - rewards[i]
        if t == self._due[self._next]:
            self.snapshots[t] = tuple(pseudo)
            self._next += 1
        if self.trace and self._lo < t <= self._hi:
            mids = [f",{i},{0 if p is None else p + 1},{0 if arm is None else arm + 1},{int(c)},"
                    for i, p, arm, c in zip(itertools.count(1), outcome.proposals, matched,
                                            outcome.collided)]
            self._file.write(_trace_text(t, mids, np.array([rewards]), np.array([pseudo]),
                                         np.array([realized]), self._tail(extra)))

    def record_block(self, rows: np.ndarray, index: np.ndarray, rewards: np.ndarray,
                     extra: tuple = ()) -> None:
        """Record k = len(index) rounds at once in which player i
        matched rows[index[r], i] and drew rewards[r, i], as from
        MarketEnv.step_block, and fill the checkpoints among them. Same
        sums as k calls of record: the shortfall core - u is priced once
        per row of the table and expanded by the index (broadcast for a
        table of one row), and np.add.accumulate adds in round order.
        extra holds the extra column values, the same in every round of
        the block. A traced ledger writes the rows in its window as k
        calls of record would, in slices of _TRACE_SLICE_ROUNDS rounds,
        so the text it holds at once stays small."""
        tail = self._tail(extra) if self.trace else ""
        n = self.n
        k = len(index)
        # one row per round: every player's pseudo-regret, then its realized regret
        sums = np.empty((k, 2 * n))
        pseudo, realized = sums[:, :n], sums[:, n:]
        price = self._core - self.instance.utilities[self._players, rows]
        pseudo[:] = price if len(rows) == 1 else price[index]
        np.subtract(self._core, rewards, out=realized)
        sums[0] += self.pseudo + self.realized
        np.add.accumulate(sums, axis=0, out=sums)
        last = sums[-1].tolist()
        self.pseudo[:], self.realized[:] = last[:n], last[n:]
        t = self.t
        self.t = t + k
        while self._due[self._next] <= self.t:
            c = self._due[self._next]
            self.snapshots[c] = tuple(pseudo[c - t - 1].tolist())
            self._next += 1
        if self.trace:
            mids = self._block_mids[self._players, rows]
            # block row r is round t + 1 + r; keep the rows in the window
            stop = min(k, self._hi - t)
            for lo in range(max(0, self._lo - t), stop, _TRACE_SLICE_ROUNDS):
                part = slice(lo, min(lo + _TRACE_SLICE_ROUNDS, stop))
                self._file.write(_trace_text(t + 1 + lo, mids[index[part]].ravel().tolist(),
                                             rewards[part], pseudo[part], realized[part], tail))


def _trace_text(t, mids, rewards, pseudo, realized, tail):
    """The trace CSV lines of rounds t, t + 1, ..., one per (round,
    player), the round, its mid, the repr of its reward, pseudo-regret
    and realized regret joined by commas, and tail. mids holds each
    line's ",player,proposal,matched_arm,collided," text in line order;
    rewards, pseudo and realized are k x n arrays, one row of per-player
    values per round; tail is the text of the extra values, repeated on
    every line.

    The text is built a column at a time and joined once. A player's
    pseudo-regret that equals, bit for bit, its value one round above
    reuses that value's text, so repr runs once per change (comparing
    the int64 views keeps -0.0 apart from 0.0)."""
    k, n = pseudo.shape
    fresh = np.ones((k, n), bool)
    bits = pseudo.view(np.int64)
    np.not_equal(bits[1:], bits[:-1], out=fresh[1:])
    texts = list(map(repr, pseudo[fresh].tolist()))
    # each line's index into texts: the latest fresh value at or above it
    ranks = np.cumsum(fresh).reshape(k, n)
    ranks *= fresh
    source = np.maximum.accumulate(ranks, axis=0).ravel() - 1
    # eight pieces a line: round, mid, reward, ",", pseudo, ",", realized, tail
    lines = [None, None, None, ",", None, ",", None, tail + "\n"] * (k * n)
    rounds = list(map(str, range(t, t + k)))
    for i in range(n):
        lines[8 * i::8 * n] = rounds
    lines[1::8] = mids
    lines[2::8] = map(repr, rewards.ravel().tolist())
    lines[4::8] = map(texts.__getitem__, source.tolist())
    lines[6::8] = map(repr, realized.ravel().tolist())
    return "".join(lines)
