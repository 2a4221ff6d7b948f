"""Experiment harness: seeded episodes, Monte Carlo aggregation over
seeds, closed-form regret bound curves, and report export.

An episode is a sequential round loop, which stays the executable spec.
An episode of the decentralized protocol or the oracle fast-forwards
the spans whose proposals are fixed in advance (each exploration
block's round robin, closing round included, play after every player
has committed, the oracle's whole horizon) in blocks of whole rounds. A
centralized episode, once a round submits the same ranking profile as
the round before, plays blocks on the guess that the profile holds and
keeps each block's rounds up to the first that would submit another
(centralized.hold_profile, prepared once per stretch of blocks). A
block reaches the environment and the ledger as (rows, index): the
table of the distinct proposal vectors of its span (the n rows of the
round robin, or the one row of a span that repeats one vector) and
each round's row in it, so both check and price each row once. Both
protocols play through one block driver, with the same random stream
and the same sums as the loop, so the fast path and the loop give the
same episode bit for bit, trace rows included: the ledger writes a
kept block's rows itself. Traced or not, every episode takes the fast
path; only _FAST_FORWARD = False, which the tests set, plays the loop
alone.
Two jobs run on every usable CPU, one forked worker per CPU beyond the
first, through one helper (_forked): Monte Carlo plays its seeds there
(episodes share no mutable state) and merges the episodes back into
seed order, and every episode is played through it as windows of
rounds, one for an untraced or short traced episode, played in this
process. A long traced episode is replayed by every worker, each
formatting the trace rows of its own window, which are appended in
round order, and each worker's whole episode must equal this
process's. Reports and traces are byte-identical to a one-process run;
wrappers and counters installed in the calling process see only what
it plays itself. The headline metric is cumulative
pseudo-regret per player, snapshotted by the episode's RegretLedger at
log-spaced checkpoints and compared against per-player bound curves.
"""

from __future__ import annotations

import contextlib
import csv
import json
import logging
import math
import os
import pickle
import shutil
import signal
import tempfile
import threading
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, TextIO

import numpy as np

from .centralized import hold_profile, platform_round
from .decentralized import (
    EXPLORE,
    PHASE2,
    DecentralizedPlayer,
    PlayerView,
    commit_cascade,
    entry_round_bound,
    explore_arm,
)
from .env import CHUNK_ROUNDS, SAMPLING_FAMILIES, ArmStats, MarketEnv, RegretLedger
from .errors import ConfigInvalidError, DesyncError, RuntimeFailure
from .market import MarketInstance, gap_term, is_json_int, written

log = logging.getLogger(__name__)

DEFAULT_CHECKPOINT_GRID = (100, 1_000, 10_000, 100_000)

CSV_COLUMNS = (
    "algorithm",
    "instance_id",
    "seed_count",
    "player",
    "checkpoint_t",
    "mean_regret",
    "stderr",
    "bound",
)


def default_checkpoints(horizon: int) -> tuple[int, ...]:
    """The grid points up to the horizon, or the horizon alone when
    none fits."""
    return tuple(c for c in DEFAULT_CHECKPOINT_GRID if 1 <= c <= horizon) or (horizon,)


def validate_horizon(horizon, algorithm: str) -> None:
    """A horizon is an integer (not a bool or a float) of at least the
    algorithm's min_horizon; the algorithm must be registered (see
    algorithm_spec)."""
    min_horizon = algorithm_spec(algorithm).min_horizon
    if not is_json_int(horizon):
        raise ConfigInvalidError(f"horizon must be an integer, got {horizon!r}")
    if horizon < min_horizon:
        raise ConfigInvalidError(f"{algorithm} needs horizon >= {min_horizon}, got {horizon}")


def resolve_checkpoints(checkpoints, horizon: int) -> tuple[int, ...]:
    """The rounds an episode snapshots and bounds are evaluated at:
    default_checkpoints(horizon) for None, else checkpoints as a tuple,
    which must be strictly increasing rounds in [1, horizon]."""
    if checkpoints is None:
        return default_checkpoints(horizon)
    checkpoints = tuple(checkpoints)
    if any(c < 1 or c > horizon for c in checkpoints):
        raise ConfigInvalidError(f"checkpoints must lie in [1, horizon], got {checkpoints}")
    if list(checkpoints) != sorted(set(checkpoints)):
        raise ConfigInvalidError(f"checkpoints must be strictly increasing, got {checkpoints}")
    return checkpoints


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved experiment: the CLI handles file paths and
    passes the loaded instance in here.

    reward_family overrides the instance's family for the run (for
    example a no-noise diagnostic run via "deterministic"). checkpoints
    holds the rounds an episode snapshots once the config is built (see
    resolve_checkpoints).
    """

    instance: MarketInstance
    algorithm: str
    horizon: int
    seeds: tuple[int, ...]
    reward_family: str | None = None
    checkpoints: tuple[int, ...] | None = None
    instance_id: str = "instance"

    def __post_init__(self):
        validate_horizon(self.horizon, self.algorithm)
        for name, values in (("seeds", self.seeds), ("checkpoints", self.checkpoints or ())):
            if not all(map(is_json_int, values)):
                raise ConfigInvalidError(f"{name} must be integers, got {tuple(values)!r}")
        if not self.seeds:
            raise ConfigInvalidError("seed list must not be empty")
        if any(s < 0 for s in self.seeds):
            raise ConfigInvalidError(f"seeds must be non-negative, got {min(self.seeds)}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigInvalidError("seeds must be distinct; a repeated seed replays its episode")
        if self.reward_family is not None and self.reward_family not in SAMPLING_FAMILIES:
            raise ConfigInvalidError(
                f"unknown reward family {self.reward_family!r}; expected one of {SAMPLING_FAMILIES}"
            )
        object.__setattr__(self, "checkpoints", resolve_checkpoints(self.checkpoints, self.horizon))


@dataclass
class EpisodeTrace:
    """Result of one seeded episode: regret snapshots plus algorithm
    telemetry (entry round, commit rounds, core-match counters)."""

    algorithm: str
    seed: int
    horizon: int
    checkpoints: tuple[int, ...]
    checkpoint_pseudo: tuple[tuple[float, ...], ...]  # aligned with checkpoints
    final_pseudo: tuple[float, ...]
    final_realized: tuple[float, ...]
    stats: dict = field(default_factory=dict)
    player_snapshots: list[dict] | None = None


def run_episode(
    config: ExperimentConfig, seed: int, trace: TextIO | None = None
) -> EpisodeTrace:
    """Play one episode to the horizon and collect regret snapshots;
    with a text file as trace, write the per-round trace CSV to it.

    Every episode goes through _forked, once: rounds 1 .. T are cut into
    w windows of at least _MIN_WINDOW_ROUNDS rounds each, w being the
    usable CPUs for a long trace (fewer on a shorter one) and 1
    otherwise. Worker j = 1 .. w - 1 replays the whole episode and
    writes window j's rows to a temporary file of its own; this process
    plays window 0 straight into trace and then appends the workers'
    files in window order. The file is byte-identical to a one-process
    trace; a worker whose episode differs from this process's in any
    field raises DesyncError.
    """
    horizon = config.horizon
    w = max(1, min(_usable_cpus(), horizon // _MIN_WINDOW_ROUNDS)) if trace is not None else 1
    cuts = [horizon * j // w for j in range(w + 1)]
    with contextlib.ExitStack() as stack:
        parts = [trace] + [stack.enter_context(tempfile.TemporaryFile(
            "w+", encoding="utf-8", newline="")) for _ in range(1, w)]

        def window(j):
            episode = _play_window(config, seed, parts[j], (cuts[j], cuts[j + 1]))
            if j:
                parts[j].flush()  # a worker leaves through os._exit, which flushes nothing
            return episode

        episode, *others = _forked([lambda j=j: window(j) for j in range(w)])
        differ = sorted({f.name for other in others for f in fields(other)
                         if getattr(other, f.name) != getattr(episode, f.name)})
        if differ:
            raise DesyncError(f"a trace worker's episode differs from this process's "
                              f"in {', '.join(differ)}")
        for part in parts[1:]:
            part.seek(0)
            shutil.copyfileobj(part, trace)
    return episode


def _play_window(config: ExperimentConfig, seed: int, trace: TextIO | None,
                 rows: tuple[int, int]) -> EpisodeTrace:
    """Play one episode to the horizon; a trace gets the rows of rounds
    rows[0] < t <= rows[1], and the header when rows[0] is 0."""
    instance = config.instance
    horizon = config.horizon
    cps = config.checkpoints
    spec = algorithm_spec(config.algorithm)
    env = MarketEnv(instance, seed, family=config.reward_family)
    ledger = RegretLedger(instance, trace=trace, extra_columns=spec.extra_columns,
                          checkpoints=cps, rows=rows)
    stats, snapshots = spec.run(instance, env, ledger, horizon)
    return EpisodeTrace(
        algorithm=config.algorithm,
        seed=seed,
        horizon=horizon,
        checkpoints=cps,
        checkpoint_pseudo=tuple(ledger.snapshots[c] for c in cps),
        final_pseudo=tuple(ledger.pseudo),
        final_realized=tuple(ledger.realized),
        stats=stats,
        player_snapshots=snapshots,
    )


# a trace window's rows are formatted by a worker only if it holds at
# least this many rounds: a worker replays the whole episode untraced
# (about 0.04 s for decentralized-etc and 0.4-0.5 s for centralized-ucb
# at T = 1e5 on a 2-vCPU box), and short traces are cheaper in one
# process
_MIN_WINDOW_ROUNDS = 8192


# Episode runners: (instance, env, ledger, horizon) -> (stats, player
# snapshots or None); the ledger keeps the regret checkpoints. The
# per-round calls go through this module's globals, so they can be
# swapped at run time. While _FAST_FORWARD holds, a runner fast-forwards
# collision-free spans through _blocks: the rounds whose proposals are
# fixed in advance, kept whole, or, for the centralized protocol, the
# rounds after a repeated profile, kept while it holds (hold_profile
# prepares the stretch once and returns its keep). A span is a table of
# its distinct proposal vectors, round t playing row t mod m of its m
# rows: the n rows of the exploration round robin, or the one row that
# the oracle, the committed players or a held profile repeats. Each
# block goes to the environment and the ledger as (rows, index), so
# both check and price each row once; the ledger writes the block's
# trace rows if it has a trace. The players take the block in one call
# that leaves them as the loop would. Otherwise every round goes
# through the loop, the spec.

# whether runners fast-forward; the tests clear it to play the spec loop
_FAST_FORWARD = True
# rounds of a centralized block right after the profile first repeats;
# each block that holds doubles the next, up to env.CHUNK_ROUNDS
_BLOCK_ROUNDS = 16


def _blocks(env, ledger, t, stop, rows, keep, size=CHUNK_ROUNDS, extra=()):
    """Play rounds t .. stop - 1 in blocks of collision-free rounds,
    round s proposing row s mod m of the m x n table rows. A block of
    at most size rounds from round start goes to env.step_block and
    ledger.record_block as (rows, index), index holding each round's
    row: a view of one ring of row positions built per call, so a block
    allocates no index. keep(start, rewards) folds into the players the
    leading rounds they keep and returns how many. The rest are given
    back, the kept rounds recorded with the extra trace values, and
    size doubles up to the noise chunk while blocks are kept whole.
    step_block resolves no more rounds than the chunk has left, so the
    chunk is the one bound on a block and on the arrays it allocates.
    Returns the first round not played."""
    m = len(rows)
    ring = np.arange(m + CHUNK_ROUNDS) % m
    while t < stop:
        index = ring[t % m:][:min(size, stop - t)]
        rewards = env.step_block(rows, index)
        kept = keep(t, rewards)
        env.give_back(len(rewards) - kept)
        if kept:
            ledger.record_block(rows, index[:kept], rewards[:kept], extra)
            t += kept
        if kept < len(rewards):
            break
        size = min(2 * size, CHUNK_ROUNDS)
    return t


def _keep_all(start, rewards):
    return len(rewards)


def _run_oracle_fixed(instance, env, ledger, horizon):
    proposals = list(instance.core.assignment)
    if _FAST_FORWARD:
        _blocks(env, ledger, 1, horizon + 1, np.array([proposals]), _keep_all)
        return {}, None
    for _ in range(horizon):
        ledger.record(env.step(proposals))
    return {}, None


def _run_centralized(instance, env, ledger, horizon):
    n = instance.n
    states = [ArmStats(n) for _ in range(n)]
    core = instance.core.assignment
    core_rounds = 0
    core_rounds_second_half = 0
    half = horizon // 2
    last = None
    t = 1
    while t <= horizon:
        rankings, matching, outcome = platform_round(states, t, env, last)
        is_core = matching.assignment == core
        extra = (int(is_core),)
        ledger.record(outcome, extra)
        start = t
        t += 1
        if _FAST_FORWARD and last is not None and rankings == last[0]:
            # the profile repeated: play blocks on the guess that it
            # holds, and go back to the loop where it breaks
            assignment = matching.assignment
            t = _blocks(env, ledger, t, horizon + 1, np.array([assignment]),
                        hold_profile(states, rankings, assignment), _BLOCK_ROUNDS, extra)
        last = rankings, matching
        if is_core:
            # rounds start .. t - 1 all played this matching
            core_rounds += t - start
            core_rounds_second_half += max(0, t - max(start, half + 1))
    stats = {
        "core_match_rounds": core_rounds,
        "core_match_rounds_second_half": core_rounds_second_half,
        "second_half_rounds": horizon - half,
    }
    return stats, None


def _run_decentralized(instance, env, ledger, horizon):
    n = instance.n
    core = instance.core.assignment
    players = [DecentralizedPlayer(i, n, horizon) for i in range(n)]
    flags = [True] * n
    lead = players[0]
    # round t's round-robin proposals are row t mod n of one table,
    # built once per episode
    cycle = explore_arm(np.arange(n), np.arange(n)[:, None], n)

    def explore(start, rewards):
        # each player folds straight from its contiguous row of rewards
        for p, column in zip(players, np.ascontiguousarray(rewards.T)):
            p.explore_span(start, memoryview(column))
        return len(rewards)

    t = 1
    while t <= horizon:
        if _FAST_FORWARD and lead.stage == EXPLORE:
            # the rest of the block's round robin, closing round included
            t = _blocks(env, ledger, t, min(t + lead.stage_left, horizon + 1), cycle, explore)
            continue
        if _FAST_FORWARD and all(p.committed is not None for p in players):
            # every player pulls its committed arm until the horizon
            _blocks(env, ledger, t, horizon + 1, np.array([[p.committed for p in players]]),
                    _keep_all)
            for p in players:
                p.hold_commitment(horizon)
            break
        in_phase2 = lead.stage == PHASE2
        proposals = [p.action(t, flags) for p in players]
        outcome = env.step(proposals)
        matched = outcome.matched
        rewards = outcome.rewards
        collided = outcome.collided
        for i, p in enumerate(players):
            p.observe(t, PlayerView(matched[i], rewards[i], collided[i], outcome.owner_view(i)))
        if in_phase2:
            # committed pulls and chain requests target disjoint arm sets
            if any(collided):
                raise DesyncError(f"phase-2 collision at round {t}")
            commit_cascade(players, flags)
        ledger.record(outcome)
        t += 1
    t1 = players[0].t1
    if any(p.t1 != t1 for p in players):
        raise DesyncError(f"players disagree on the entry round: {[p.t1 for p in players]}")
    # A committed player proposes its arm in every later round and a
    # phase-2 collision raises, so it is matched to that arm until the
    # horizon.
    post_commit_rounds = [0 if p.committed is None else horizon - p.commit_round
                          for p in players]
    is_core = [p.committed is not None and p.committed == core[i] for i, p in enumerate(players)]
    stats = {
        "entry_round": t1,
        "commit_rounds": [p.commit_round for p in players],
        "committed_arms": [None if p.committed is None else p.committed + 1 for p in players],
        "committed_is_core": is_core,
        "post_commit_rounds": post_commit_rounds,
        "post_commit_core_rounds": [r if c else 0 for r, c in zip(post_commit_rounds, is_core)],
    }
    return stats, [p.snapshot() for p in players]


@dataclass
class AggregateReport:
    """Cross-seed checkpoint statistics plus bound curves."""

    algorithm: str
    instance_id: str
    n: int
    horizon: int
    seeds: tuple[int, ...]
    checkpoints: tuple[int, ...]
    mean_regret: tuple[tuple[float, ...], ...]  # [checkpoint][player]
    stderr: tuple[tuple[float, ...], ...]
    bounds: tuple[tuple[float, ...], ...]
    telemetry: dict = field(default_factory=dict)


def monte_carlo(config: ExperimentConfig) -> AggregateReport:
    """Play every seed on every usable CPU and aggregate checkpoint
    statistics.

    Distinct seeds are fully independent, so the episodes are played by
    this process and one forked worker per further usable CPU (see
    _play_seeds) and merged back into seed order: the report is
    byte-identical to a one-process run. Anything installed in this
    process to watch the episodes (wrappers of module globals, call
    counters, profilers) sees only this process's share of them.
    """
    if len(config.seeds) < 2:
        raise ConfigInvalidError("monte_carlo needs at least 2 seeds for error bars")
    cps = config.checkpoints
    # a market with no finite bound is refused before any episode
    bounds = bound_curves(config.instance, config.algorithm, cps)
    traces = _play_seeds(config)
    k = len(traces)
    mean_rows = []
    stderr_rows = []
    for ci in range(len(cps)):
        data = np.array([tr.checkpoint_pseudo[ci] for tr in traces])
        mean_rows.append(tuple(float(v) for v in data.mean(axis=0)))
        stderr_rows.append(
            tuple(float(v) for v in data.std(axis=0, ddof=1) / math.sqrt(k))
        )
    return AggregateReport(
        algorithm=config.algorithm,
        instance_id=config.instance_id,
        n=config.instance.n,
        horizon=config.horizon,
        seeds=config.seeds,
        checkpoints=cps,
        mean_regret=tuple(mean_rows),
        stderr=tuple(stderr_rows),
        bounds=bounds,
        telemetry=algorithm_spec(config.algorithm).telemetry(traces),
    )


def _usable_cpus() -> int:
    """CPUs this process may run on, or 1 where it cannot fork safely:
    no os.fork or os.sched_getaffinity, or another thread running."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity") \
            or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _play_seeds(config: ExperimentConfig) -> list[EpisodeTrace]:
    """Every seed's episode, in seed order: with w workers (see
    _forked), worker j plays seeds[j::w]."""
    seeds = config.seeds
    w = min(_usable_cpus(), len(seeds))
    shares = _forked([lambda j=j: [run_episode(config, s) for s in seeds[j::w]]
                      for j in range(w)])
    traces = [None] * len(seeds)
    for j, share in enumerate(shares):
        traces[j::w] = share
    return traces


def _forked(jobs: list[Callable[[], object]]) -> list:
    """The results of jobs, in job order: forked child j = 1 ..
    len(jobs) - 1 runs jobs[j] while this process runs jobs[0]. Each
    child sends back one pickle, its result or its error, which is
    raised here as it was raised there. A pipe or fork the system
    refuses raises RuntimeFailure. Any error or interrupt here kills and
    reaps every child still running."""
    live = []  # (pid, read end of its pipe) of each child not yet reaped
    try:
        for job in jobs[1:]:
            pipe = ()
            try:
                pipe = os.pipe()
                pid = os.fork()
            except OSError as exc:
                for fd in pipe:
                    os.close(fd)
                raise RuntimeFailure(f"cannot start a worker: {exc}") from exc
            read_end, write_end = pipe
            if pid == 0:
                # the child leaves only here: no unwinding into the
                # caller's stack, no flush of inherited buffers
                code = 1
                try:
                    _send_result(job, write_end)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_end)
            live.append((pid, read_end))
        results = [jobs[0]()]
        while live:
            pid, read_end = live[0]
            with open(read_end, "rb", closefd=False) as pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            live.pop(0)
            os.close(read_end)
            code = os.waitstatus_to_exitcode(status)
            if code != 0:
                raise RuntimeFailure(f"a worker exited with status {code} "
                                     "without sending its result")
            ok, payload = pickle.loads(data)
            if not ok:
                raise payload
            results.append(payload)
    finally:
        for pid, read_end in live:
            os.close(read_end)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results


def _send_result(job: Callable[[], object], write_end: int) -> None:
    """A child's work: run job and write one pickle of (True, result),
    or of (False, error), to its pipe. An error that does not survive
    pickling is sent as a RuntimeFailure carrying its repr."""
    try:
        result = True, job()
    except BaseException as exc:  # handed to the parent, which raises it
        result = False, exc
    try:
        data = pickle.dumps(result)
        pickle.loads(data)  # an error can pickle yet fail to rebuild
    except Exception:
        data = pickle.dumps((False, RuntimeFailure(repr(result[1]))))
    with open(write_end, "wb") as pipe:
        pipe.write(data)


def bound_curves(instance: MarketInstance, algorithm: str,
                 checkpoints: tuple[int, ...]) -> tuple[tuple[float, ...], ...]:
    """The closed-form per-player regret bound at each checkpoint T.
    Decentralized: (192 N ln T / g^2 + N ln(192 N ln T / g^2) + 3 N^2)
    times the per-player per-round regret cap U(i, core arm), where g
    is the smallest adjacent utility gap of the instance. Centralized:
    max_j max(0, U(i, core arm) - U(i, j)) times (5 N^2 + 12 N ln T /
    g^2). The oracle baseline has a zero curve. An infinite g (1x1
    market) drops the exploration terms and is flagged in the log once
    per call; the nested log term is capped below at zero so tiny
    horizons stay finite. A g so small that a term is not finite is
    refused with ConfigInvalidError (see gap_term)."""
    bound = algorithm_spec(algorithm).bound
    if any(t < 1 for t in checkpoints):
        raise ConfigInvalidError(f"checkpoints must be >= 1, got {min(checkpoints)}")
    if math.isinf(instance.min_gap):
        log.warning("min gap is infinite (1x1 market); bounds keep only their constant terms")
    return tuple(tuple(bound(instance, math.log(t))) for t in checkpoints)


def _centralized_telemetry(traces: list[EpisodeTrace]) -> dict:
    frac = [
        tr.stats["core_match_rounds_second_half"] / tr.stats["second_half_rounds"]
        for tr in traces
    ]
    return {
        "mean_core_match_fraction_second_half": float(np.mean(frac)),
    }


def _decentralized_telemetry(traces: list[EpisodeTrace]) -> dict:
    entries = [tr.stats["entry_round"] for tr in traces]
    entered = [e for e in entries if e is not None]
    committed_core = 0
    committed_total = 0
    post_rounds = 0
    post_core = 0
    for tr in traces:
        committed_total += sum(r is not None for r in tr.stats["commit_rounds"])
        committed_core += sum(tr.stats["committed_is_core"])
        post_rounds += sum(tr.stats["post_commit_rounds"])
        post_core += sum(tr.stats["post_commit_core_rounds"])
    return {
        "episodes_entering_phase2": len(entered),
        "mean_entry_round": float(np.mean(entered)) if entered else None,
        "player_commitments": committed_total,
        "player_commitments_to_core": committed_core,
        "post_commit_rounds": post_rounds,
        "post_commit_core_rounds": post_core,
        # vacuously 1.0 when no post-commitment rounds exist
        "post_commit_core_fraction": (post_core / post_rounds) if post_rounds else 1.0,
    }


def _decentralized_bound(instance: MarketInstance, log_t: float) -> list[float]:
    n = instance.n
    u = instance.utilities
    core = instance.core.assignment
    explore = gap_term(192.0 * n * log_t, instance.min_gap)
    nested = n * math.log(explore) if explore > 1.0 else 0.0
    rounds_term = explore + nested + 3.0 * n * n
    return [rounds_term * float(u[i, core[i]]) for i in range(n)]


def _centralized_bound(instance: MarketInstance, log_t: float) -> list[float]:
    n = instance.n
    u = instance.utilities
    core = instance.core.assignment
    pulls_term = 5.0 * n * n + gap_term(12.0 * n * log_t, instance.min_gap)
    out = []
    for i in range(n):
        worst = max(max(0.0, float(u[i, core[i]] - u[i, j])) for j in range(n))
        out.append(worst * pulls_term)
    return out


@dataclass(frozen=True)
class Algorithm:
    """Everything the harness and the CLI know about one algorithm."""

    run: Callable  # episode runner, see _run_oracle_fixed
    bound: Callable[[MarketInstance, float], list[float]]  # (instance, ln T) -> per player
    telemetry: Callable[[list[EpisodeTrace]], dict]  # cross-seed summary for the report
    extra_columns: tuple[str, ...] = ()  # per-round trace columns after TRACE_COLUMNS
    min_horizon: int = 1
    snapshots: bool = False  # whether the runner returns per-player snapshots
    # (instance, horizon) -> worst-case round the protocol enters its
    # exploitation phase, or None where it has no such phase
    entry_bound: Callable[[MarketInstance, int], int] | None = None


ALGORITHMS = {
    "decentralized-etc": Algorithm(
        _run_decentralized, _decentralized_bound, _decentralized_telemetry, min_horizon=2,
        snapshots=True,
        entry_bound=lambda instance, horizon: entry_round_bound(
            instance.n, horizon, instance.min_gap),
    ),
    "centralized-ucb": Algorithm(
        _run_centralized, _centralized_bound, _centralized_telemetry,
        extra_columns=("matching_is_core",),
    ),
    "oracle-fixed": Algorithm(
        _run_oracle_fixed, lambda instance, log_t: [0.0] * instance.n, lambda traces: {}
    ),
}


def algorithm_spec(name) -> Algorithm:
    """The registered Algorithm called name; any other value, a string
    or not, raises ConfigInvalidError."""
    if not isinstance(name, str) or name not in ALGORITHMS:
        raise ConfigInvalidError(
            f"unknown algorithm {name!r}; expected one of {tuple(ALGORITHMS)}"
        )
    return ALGORITHMS[name]


def export(report: AggregateReport, csv_path: str | Path, json_path: str | Path) -> None:
    """write_report to new files at csv_path and json_path (see written)."""
    with written(csv_path, json_path) as (csv_file, json_file):
        write_report(report, csv_file, json_file)


def write_report(report: AggregateReport, csv_file: TextIO, json_file: TextIO) -> None:
    """Write the long-format CSV and a JSON summary; both byte-stable.

    CSV rows are ordered by checkpoint then player (1-based players in
    the file); csv.writer quotes a field that holds a comma, quote or
    newline. The JSON holds every field of the report plus seed_count.
    """
    seed_count = len(report.seeds)
    rows = csv.writer(csv_file, lineterminator="\n")
    rows.writerow(CSV_COLUMNS)
    for ci, cp in enumerate(report.checkpoints):
        for i in range(report.n):
            rows.writerow((report.algorithm, report.instance_id, seed_count, i + 1, cp,
                           report.mean_regret[ci][i], report.stderr[ci][i], report.bounds[ci][i]))
    summary = {**asdict(report), "seed_count": seed_count}
    json.dump(summary, json_file, indent=2, sort_keys=True)
    json_file.write("\n")
