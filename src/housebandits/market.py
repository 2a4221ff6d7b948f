"""Housing-market primitives: instances, preference rankings, matchings,
the top-trading-cycles mechanism, a round-by-round serial dictatorship
(you-request-my-house-I-get-your-turn), and a brute-force core oracle.
Both mechanisms read one trading-cycle walk (_trading_cycles): ttc
keeps its matching, and the serial dictatorship also its cuts, one
per epoch, since it is top trading cycles run in one order.

Markets are one-sided: player i enters owning arm (house) a_i, utilities
live in an n x n matrix with one row per player, and rows are required
to be strict (no duplicate values) so every player has a total order
over arms. Under strict preferences the core of the exchange economy is
a single matching, which is what both mechanisms here compute. One
stable sort of the matrix (_sorted_rows) gives the rankings, the
refusal of a tied row and the smallest adjacent gap Delta of a
validated instance, and the rankings and place table the core oracle
and the blocking search read.

Players and arms are indexed 0..n-1 internally. JSON files use 1-based
indices; conversion happens only at (de)serialization boundaries.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ConfigInvalidError,
    EmptyCoreError,
    EntryOutOfRangeError,
    MalformedRankingError,
    NonSquareMatrixError,
    NonUniqueCoreError,
    OracleTooLargeError,
    TiedPreferenceError,
)

# Largest market the factorial core oracle will enumerate.
MAX_ORACLE_N = 8

REWARD_MODELS = ("gaussian", "bernoulli")

Ranking = tuple[int, ...]


@dataclass(frozen=True)
class Matching:
    """A total assignment of arms to players.

    assignment[i] is the arm matched to player i. The constructor
    rejects anything that is not a permutation of 0..n-1.
    """

    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_permutation(self.assignment, len(self.assignment))

    def arm_of(self, player: int) -> int:
        return self.assignment[player]

    def to_json_list(self) -> list[int]:
        """1-based list, position p holds the arm of player p (1-based)."""
        return [a + 1 for a in self.assignment]


@dataclass(frozen=True)
class Coalition:
    """A blocking coalition: members swap endowments along a cycle and
    every member strictly improves on the matching under test.

    reallocation pairs (player, arm) use only the members' own
    endowments, as required for a valid objection.
    """

    members: tuple[int, ...]
    reallocation: tuple[tuple[int, int], ...]


@dataclass(frozen=True, eq=False)
class MarketInstance:
    """A validated market: utilities, derived rankings, the minimum
    utility gap, and the (unique) core matching.

    Build instances through validate_instance or
    instance_from_json_dict, never directly; the derived fields are
    trusted downstream. Instances compare by identity; two hold the same
    market when their to_json_dict() are equal.
    """

    utilities: np.ndarray
    reward_model: str
    rankings: tuple[Ranking, ...]
    min_gap: float
    core: Matching

    @property
    def n(self) -> int:
        return len(self.rankings)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "utilities": [[float(v) for v in row] for row in self.utilities],
            "reward_model": self.reward_model,
        }


def _check_permutation(seq: Sequence[int], n: int) -> None:
    if len(seq) != n or sorted(seq) != list(range(n)):
        raise MalformedRankingError(
            f"expected a permutation of 0..{n - 1}, got {tuple(seq)!r}"
        )


def _sorted_rows(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one sort of a utility matrix: (order, ordered), where order[i]
    is player i's ranking, best arm first (a stable sort on negated
    values), and ordered[i] its utilities in that order.

    Raises TiedPreferenceError for the first player with two equal
    ranking-adjacent values. Equal values sort next to each other, so
    this refuses any duplicate in a row: 0.0 and -0.0 tie, as do two
    infinities of one sign, and NaN, sorted last, ties nothing.
    """
    order = np.argsort(-u, axis=1, kind="stable")
    ordered = np.take_along_axis(u, order, axis=1)
    tied = np.any(ordered[:, 1:] == ordered[:, :-1], axis=1)
    if tied.any():
        player = int(np.argmax(tied))
        raise TiedPreferenceError(f"player {player} has tied utilities: {u[player].tolist()}")
    return order, ordered


def gap_term(scale: float, gap: float) -> float:
    """scale / g^2 for a smallest adjacent gap g, the exploration term of
    every regret and entry-round bound (scale carries its N ln T
    factor); 0.0 for the infinite gap of a 1x1 market. A gap so small
    that g^2 underflows to zero or the term overflows leaves no finite
    bound, and is refused."""
    if math.isinf(gap):
        return 0.0
    square = gap * gap
    if square == 0.0 or math.isinf(scale / square):
        raise ConfigInvalidError(
            f"the smallest utility gap {gap!r} is too small for a finite regret bound"
        )
    return scale / square


def validate_instance(utilities: Iterable, reward_model: str = "gaussian") -> MarketInstance:
    """Check a raw utility matrix and package it with derived data.

    Rejects non-square matrices, entries outside [0, 1] (or non-finite),
    duplicate values within a row, and unknown reward models.

    The rankings, the tie refusal and min_gap all come from one sort of
    the matrix (_sorted_rows). min_gap, the paper's Delta, is the
    smallest difference between ranking-adjacent utilities over all
    players, positive since rows are strict; +inf for a 1x1 market,
    which has no adjacent pair.
    """
    try:
        u = np.array(utilities, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise NonSquareMatrixError(f"utilities must be a square matrix of numbers: {exc}") from exc
    if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape[0] == 0:
        raise NonSquareMatrixError(f"utilities must be square and non-empty, got shape {u.shape}")
    if not np.all(np.isfinite(u)) or np.any(u < 0.0) or np.any(u > 1.0):
        raise EntryOutOfRangeError("utility entries must be finite and within [0, 1]")
    if reward_model not in REWARD_MODELS:
        raise EntryOutOfRangeError(
            f"reward_model must be one of {REWARD_MODELS}, got {reward_model!r}"
        )
    order, ordered = _sorted_rows(u)
    rankings = tuple(map(tuple, order.tolist()))
    u.setflags(write=False)
    return MarketInstance(
        utilities=u,
        reward_model=reward_model,
        rankings=rankings,
        min_gap=float(np.min(ordered[:, :-1] - ordered[:, 1:])) if len(u) > 1 else math.inf,
        core=ttc(rankings),
    )


# --- mechanisms -----------------------------------------------------------


def _trading_cycles(
    rankings: Sequence[Ranking],
) -> tuple[list[int], list[tuple[int, tuple[int, ...], int, int]]]:
    """Top trading cycles under strict rankings, as one path walk.

    Every player still in points at the owner of its best arm still in
    (arm j is player j's); the players on a pointer cycle leave, each
    with the arm it points at. A cycle's members point only at each
    other, so cycles may leave one at a time, as the walk meets them.
    From each start player still in, the walk pushes it and repeats
    until the path is empty: advance the top player's best past the
    arms gone (arm j goes when player j leaves); if that arm's owner is
    on the path, the players from its place on leave and are cut from
    the path, else push the owner. A player leaves the path only by
    leaving the market, so one still in with a place is on the path. A
    player still in keeps its own arm, so no advance runs off a ranking
    and no guard is needed.

    Returns (leaves_with, cuts): leaves_with[i] is the arm player i
    leaves with, and each cut, in the order the walk makes them, is
    (start, cycle, closer, len(path)) at the moment of the cut, with
    the closer the path's top.
    """
    n = len(rankings)
    for r in rankings:
        _check_permutation(r, n)
    leaves_with = [-1] * n  # the arm player i leaves with, -1 while it is in
    best = [0] * n  # the place in i's ranking of its best arm still in
    place = [-1] * n  # i's place on the path, -1 before it is pushed
    cuts = []
    for start in range(n):
        if leaves_with[start] >= 0:
            continue
        place[start] = 0
        path = [start]
        while path:
            i = path[-1]
            rank = rankings[i]
            c = best[i]
            while leaves_with[rank[c]] >= 0:
                c += 1
            best[i] = c
            j = rank[c]
            if place[j] >= 0:
                cycle = path[place[j]:]
                for m in cycle:
                    leaves_with[m] = rankings[m][best[m]]
                cuts.append((start, tuple(cycle), i, len(path)))
                del path[place[j]:]
            else:
                place[j] = len(path)
                path.append(j)
    return leaves_with, cuts


def ttc(rankings: Sequence[Ranking]) -> Matching:
    """Top trading cycles under strict rankings: the matching of
    _trading_cycles' path walk, without its cuts. Those are yrmh_igyt's
    epochs; its docstring says why the walk's start is each epoch's
    leader and the path's length its rounds."""
    return Matching(tuple(_trading_cycles(rankings)[0]))


@dataclass(frozen=True)
class EpochRecord:
    """One epoch of the request-by-turn mechanism: who led, which cycle
    traded, who closed it, and how many proposal rounds it took."""

    leader: int
    cycle: tuple[int, ...]
    closer: int
    rounds: int


@dataclass(frozen=True)
class SerialDictatorshipResult:
    """What yrmh_igyt reports: the matching, the number of epochs, the
    proposal rounds over all epochs, and one EpochRecord per epoch in
    the order they ran."""

    matching: Matching
    epochs: int
    rounds: int
    epoch_log: tuple[EpochRecord, ...]


def yrmh_igyt(rankings: Sequence[Ranking]) -> SerialDictatorshipResult:
    """You-request-my-house-I-get-your-turn, one proposal per round.

    Each epoch a chain of proposers grows from its leader: the last one
    proposes to its best arm still in, whose owner (arm j is player j's)
    proposes next. When a proposal reaches a player already on the
    chain, the players from its place on are a trading cycle and leave
    with the arms they proposed to. The leader is the smallest player
    still in. This is top trading cycles in one order, so each epoch is
    one cut of _trading_cycles' path walk. That walk starts players in
    index order and its start stays at the path's foot until it leaves,
    so the start is the smallest player still in: the epoch's leader.
    The players left on the path after a cut still point along it, so
    the next epoch's chain from the same leader proposes along that
    prefix again before it goes on: the path at the cut, leader through
    closer, is the epoch's chain, and len(path) its rounds. Produces
    the same matching as ttc, in at most n epochs and n*n rounds total.
    """
    leaves_with, cuts = _trading_cycles(rankings)
    log = tuple(EpochRecord(*cut) for cut in cuts)
    rounds = sum(record.rounds for record in log)
    return SerialDictatorshipResult(Matching(tuple(leaves_with)), len(log), rounds, log)


# --- core membership ------------------------------------------------------


def find_blocking_coalition(utilities: np.ndarray, matching: Matching) -> Coalition | None:
    """A coalition that blocks the matching, or None iff the matching is
    the core matching.

    A coalition blocks when it can reallocate its own endowments so
    that no member is worse off and at least one member is strictly
    better off (weak domination; with strict preferences this is the
    blocking notion under which the core is the single matching that
    top trading cycles produces). Members who do not improve must be
    handed exactly the arm they already hold, since any other arm of
    equal value cannot exist in a strict market; rows must be strict
    (TiedPreferenceError otherwise).

    Any blocking coalition contains a blocking trade cycle, so the
    witness returned is always one cycle: each member takes the
    endowment of the next, listed from the smallest member. It is the
    cycle that _blocking_search closes, polynomial in n: along the
    matching from each frame's entry (head in the first) to its tail,
    then across the strict edge into the next frame.
    """
    rankings, pos = _preference_tables(np.asarray(utilities, dtype=float))
    found = _blocking_search(rankings, pos, matching.assignment)
    if found is None:
        return None
    frames, head = found
    cycle = []
    for k, (entry, tail, _) in enumerate(frames):
        member = head if k == 0 else entry
        cycle.append(member)
        while member != tail:
            member = matching.assignment[member]
            cycle.append(member)
    first = cycle.index(min(cycle))
    cycle = cycle[first:] + cycle[:first]
    k = len(cycle)
    return Coalition(
        members=tuple(sorted(cycle)),
        reallocation=tuple((cycle[m], cycle[(m + 1) % k]) for m in range(k)),
    )


def core_oracle_bruteforce(utilities: np.ndarray) -> Matching:
    """Enumerate all n! matchings, keep the unblocked ones, and insist
    there is exactly one. Independent of ttc by construction; used to
    certify mechanism output and core uniqueness in tests.
    """
    u = np.asarray(utilities, dtype=float)
    n = u.shape[0]
    if n > MAX_ORACLE_N:
        raise OracleTooLargeError(f"brute-force oracle limited to n <= {MAX_ORACLE_N}, got {n}")
    rankings, pos = _preference_tables(u)
    unblocked: list[tuple[int, ...]] = []
    for perm in itertools.permutations(range(n)):
        if _blocking_search(rankings, pos, perm) is None:
            unblocked.append(perm)
            if len(unblocked) > 1:
                raise NonUniqueCoreError(
                    f"found two unblocked matchings: {unblocked}"
                )
    if not unblocked:
        raise EmptyCoreError("no unblocked matching exists; strict rows should prevent this")
    return Matching(unblocked[0])


def _preference_tables(u: np.ndarray) -> tuple[list[list[int]], list[list[int]]]:
    """Rankings (_sorted_rows' order) plus pos[i][j], the place of arm j
    in player i's ranking: the order's inverse permutation. The arms
    player i strictly prefers to its match are the ranking prefix before
    the matched arm."""
    order, _ = _sorted_rows(u)
    pos = np.empty_like(order)
    np.put_along_axis(pos, order, np.arange(order.shape[1]), axis=1)
    return order.tolist(), pos.tolist()


def _blocking_search(
    rankings: Sequence[Sequence[int]], pos: Sequence[Sequence[int]], matching: Sequence[int]
) -> tuple[list[list[int]], int] | None:
    """Depth-first search for an objection to the matching, tuned for
    the n! enumeration loop of the oracle.

    View the market as a digraph on players with a strict edge i -> j
    whenever player i strictly prefers arm a_j to its matched arm (the
    targets are exactly the ranking prefix of i before its match) plus
    a stay edge i -> matching[i] (taking its current arm back from the
    owner of that arm). The matching is weakly dominated iff some cycle
    uses at least one strict edge. The stay edges form exactly the
    matching's own trade cycles, so with each trade cycle taken as one
    node, whose out-edges are its members' strict edges, the matching
    is blocked iff that graph has a cycle. A loop counts: a strict edge
    back into its own trade cycle is an individual-rationality
    violation, or a strict improvement that carries the rest of the
    trade cycle along.

    A frame [entry, tail, pointer] searches one trade cycle: entered at
    player entry, it walks the members along the matching from entry,
    scanning the strict edges of tail from pointer. Each trade cycle,
    labelled by its smallest member, has a depth: 0 while new, k while
    it is on the stack as frame k - 1, -1 once spent.

    Returns None when unblocked. Otherwise returns (frames, head) the
    moment a strict edge tail -> head closes a cycle: frames runs from
    the frame of head's trade cycle to the top of the stack, the tail
    of each frame has a strict edge to the entry of the next, and the
    top frame's tail is the closing edge's tail.
    """
    n = len(matching)
    cycle_of = [-1] * n
    for i in range(n):
        j = i
        while cycle_of[j] < 0:
            cycle_of[j] = i
            j = matching[j]
    depth = [0] * n
    for root in range(n):
        if depth[cycle_of[root]]:
            continue
        depth[cycle_of[root]] = 1
        stack = [[root, root, 0]]
        while stack:
            frame = stack[-1]
            entry, tail, ptr = frame
            edges = rankings[tail]
            limit = pos[tail][matching[tail]]
            while ptr < limit:
                head = edges[ptr]
                ptr += 1
                d = depth[cycle_of[head]]
                if d > 0:
                    return stack[d - 1:], head
                if d == 0:
                    frame[2] = ptr
                    stack.append([head, head, 0])
                    depth[cycle_of[head]] = len(stack)
                    break
            else:
                tail = matching[tail]
                if tail == entry:
                    depth[cycle_of[entry]] = -1
                    stack.pop()
                else:
                    frame[1] = tail
                    frame[2] = 0
    return None


# --- serialization --------------------------------------------------------


def is_json_int(value) -> bool:
    """A JSON integer; Python counts a bool as an int, JSON does not."""
    return isinstance(value, int) and not isinstance(value, bool)


def instance_from_json_dict(data: dict) -> MarketInstance:
    """Build an instance from the documented JSON schema:
    {"n": int, "utilities": [[number, ...], ...],
    "reward_model": "gaussian"|"bernoulli"}.
    """
    if not isinstance(data, dict):
        raise NonSquareMatrixError("instance file must hold a JSON object")
    expected = {"n", "utilities", "reward_model"}
    if set(data) != expected:
        raise NonSquareMatrixError(
            f"instance object must have exactly the keys {sorted(expected)}, got {sorted(data)}"
        )
    if not is_json_int(data["n"]):
        raise NonSquareMatrixError(f"n must be an integer, got {data['n']!r}")
    rows = data["utilities"]
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and all(is_json_int(v) or isinstance(v, float) for v in row)
        for row in rows
    ):
        raise NonSquareMatrixError("utilities must be a list of rows of numbers")
    inst = validate_instance(rows, data["reward_model"])
    if inst.n != data["n"]:
        raise NonSquareMatrixError(
            f"declared n={data['n']} does not match a {inst.n}x{inst.n} matrix"
        )
    return inst


class _Output(io.FileIO):
    """Made as _Output(path, "w", opener=lambda *_: fd): a failed write names path."""

    def write(self, data):
        try:
            return super().write(data)
        except OSError as exc:
            raise ConfigInvalidError(f"cannot write {self.name}: {exc.strerror or exc}") from exc


@contextlib.contextmanager
def written(*paths: str | Path | None):
    """A UTF-8 text file per path (None for None) for the block, made
    beside the resolved path (a symlink's target) with a new file's mode
    and moved over it once the block and every close succeed: a failed
    or interrupted block changes no path and leaves no file. A path that
    exists but is not a regular file (/dev/null, a FIFO) is written
    directly. A system error, a path the system cannot encode (a NUL
    byte, a lone surrogate) or an empty path raises ConfigInvalidError
    naming the output."""
    if "" in paths:  # realpath("") is the working directory
        raise ConfigInvalidError("cannot write '': an empty path names no file")
    files, moves, path = [], [], None  # moves: (new file, resolved path, path)
    try:
        for path in (p for p in paths if p is not None):
            direct = os.path.exists(path) and not os.path.isfile(path)
            target = path if direct else os.path.realpath(path)
            temp = target if direct else f"{target}.{os.urandom(4).hex()}.tmp"
            flags = os.O_WRONLY | os.O_CREAT | (os.O_TRUNC if direct else os.O_EXCL)
            fd = os.open(temp, flags, 0o666)
            moves += [] if direct else [(temp, target, path)]
            raw = _Output(path, "w", opener=lambda *_: fd)
            files.append(io.TextIOWrapper(io.BufferedWriter(raw), encoding="utf-8"))
        opened, path = iter(files), None  # an error of the block names no output
        yield [None if p is None else next(opened) for p in paths]
        for fh in files:
            fh.close()
        for temp, target, path in moves:
            os.replace(temp, target)
    except BaseException as exc:
        for fh in files:
            with contextlib.suppress(Exception):
                fh.close()
        for temp, _, _ in moves:
            with contextlib.suppress(OSError):
                os.unlink(temp)
        if path is not None and isinstance(exc, (OSError, ValueError)):
            reason = getattr(exc, "strerror", None) or exc
            raise ConfigInvalidError(f"cannot write {path}: {reason}") from exc
        raise


def save_instance(instance: MarketInstance, path: str | Path) -> None:
    with written(path) as (fh,):
        json.dump(instance.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
