"""Experiment harness: seeded episodes, Monte Carlo aggregation over
seeds, closed-form regret bound curves, and report export.

An episode is a sequential round loop, which stays the executable spec
and is what a traced episode plays. An untraced episode of the
decentralized protocol or the oracle fast-forwards the spans whose
proposals are fixed in advance (exploration round robins before each
block's closing round, play after every player has committed, the
oracle's whole horizon) in pieces of whole rounds, with the same random
stream and the same sums, so both give the same episode bit for bit.
Parallelism, when wanted, belongs at the seed level only (episodes
share no mutable state). The headline metric is cumulative
pseudo-regret per player, snapshotted by the episode's RegretLedger at
log-spaced checkpoints and compared against per-player bound curves.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, TextIO

import numpy as np

from .centralized import platform_round
from .decentralized import (
    EXPLORE,
    DecentralizedPlayer,
    PlayerView,
    commit_cascade,
    entry_round_bound,
)
from .env import SAMPLING_FAMILIES, ArmStats, MarketEnv, RegretLedger
from .errors import ConfigInvalidError, DesyncError
from .market import MarketInstance

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


def validate_checkpoints(checkpoints: tuple[int, ...], horizon: int) -> None:
    """Checkpoints are strictly increasing rounds in [1, horizon]."""
    if any(c < 1 or c > horizon for c in checkpoints):
        raise ConfigInvalidError(f"checkpoints must lie in [1, horizon], got {checkpoints}")
    if list(checkpoints) != sorted(set(checkpoints)):
        raise ConfigInvalidError(f"checkpoints must be strictly increasing, got {checkpoints}")


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved experiment: the CLI handles file paths and
    generator configs and passes the loaded instance in here.

    reward_family overrides the instance's family for the run (for
    example a no-noise diagnostic run via "deterministic").
    """

    instance: MarketInstance
    algorithm: str
    horizon: int
    seeds: tuple[int, ...]
    reward_family: str | None = None
    checkpoints: tuple[int, ...] | None = None
    instance_id: str = "instance"

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigInvalidError(
                f"unknown algorithm {self.algorithm!r}; expected one of {tuple(ALGORITHMS)}"
            )
        min_horizon = ALGORITHMS[self.algorithm].min_horizon
        if self.horizon < min_horizon:
            raise ConfigInvalidError(
                f"{self.algorithm} needs horizon >= {min_horizon}, got {self.horizon}"
            )
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
        validate_checkpoints(self.effective_checkpoints(), self.horizon)

    def effective_checkpoints(self) -> tuple[int, ...]:
        if self.checkpoints is not None:
            return self.checkpoints
        return default_checkpoints(self.horizon)


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
    with a text file as trace, write the per-round trace CSV to it."""
    instance = config.instance
    horizon = config.horizon
    cps = config.effective_checkpoints()
    spec = ALGORITHMS[config.algorithm]
    env = MarketEnv(instance, seed, family=config.reward_family)
    ledger = RegretLedger(instance, trace=trace, extra_columns=spec.extra_columns,
                          checkpoints=cps)
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


# Episode runners: (instance, env, ledger, horizon) -> (stats, player
# snapshots or None); the ledger keeps the regret checkpoints. The
# per-round calls go through this module's globals, so they can be
# swapped at run time. An untraced ledger lets a runner fast-forward the
# rounds whose proposals are fixed in advance (_fixed_rounds); a traced
# one plays every round through the loop, which stays the spec.

# rounds per fast-forward piece; bounds the arrays a piece allocates
_PIECE_ROUNDS = 1024


def _fixed_rounds(env, ledger, start, stop, arms_of):
    """Resolve and record rounds start .. stop - 1 in pieces, where
    arms_of(rounds) gives the proposals of those rounds, collision-free
    and fixed in advance. Yields each piece's first round and rewards."""
    t = start
    while t < stop:
        arms = arms_of(np.arange(t, min(t + _PIECE_ROUNDS, stop)))
        rewards = env.step_block(arms)
        ledger.record_block(arms[:len(rewards)], rewards)
        yield t, rewards
        t += len(rewards)


def _hold(env, ledger, proposals, start, stop):
    """Fast-forward rounds start .. stop - 1, which all repeat one
    collision-free proposal vector."""
    fixed = np.array(proposals)
    for _ in _fixed_rounds(env, ledger, start, stop,
                           lambda rounds: np.broadcast_to(fixed, (len(rounds), len(fixed)))):
        pass


def _run_oracle_fixed(instance, env, ledger, horizon):
    proposals = list(instance.core.assignment)
    if not ledger.trace:
        _hold(env, ledger, proposals, 1, horizon + 1)
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
    for t in range(1, horizon + 1):
        matching, outcome = platform_round(states, t, env)
        is_core = matching.assignment == core
        if is_core:
            core_rounds += 1
            if t > half:
                core_rounds_second_half += 1
        ledger.record(outcome, extra=(int(is_core),) if ledger.trace else ())
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
    ids = np.arange(n)
    t = 1
    while t <= horizon:
        if not ledger.trace and lead.phase == 1 and lead.stage == EXPLORE and lead.stage_left > 1:
            # the block's round robin up to, not including, its closing round
            stop = min(t + lead.stage_left - 1, horizon + 1)
            for start, rewards in _fixed_rounds(env, ledger, t, stop,
                                                lambda rounds: (rounds[:, None] + ids) % n):
                for i, p in enumerate(players):
                    p.explore_span(start, rewards[:, i].tolist())
            t = stop
            continue
        if not ledger.trace and all(p.committed is not None for p in players):
            # every player pulls its committed arm until the horizon
            _hold(env, ledger, [p.committed for p in players], t, horizon + 1)
            for p in players:
                p.hold_commitment(horizon)
            break
        in_phase2 = lead.phase == 2
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

    @property
    def seed_count(self) -> int:
        return len(self.seeds)


def monte_carlo(config: ExperimentConfig) -> AggregateReport:
    """Run every seed sequentially and aggregate checkpoint statistics.

    Distinct seeds are fully independent; run them elsewhere in
    parallel if wanted and aggregate equivalently.
    """
    if len(config.seeds) < 2:
        raise ConfigInvalidError("monte_carlo needs at least 2 seeds for error bars")
    traces = [run_episode(config, s) for s in config.seeds]
    cps = config.effective_checkpoints()
    k = len(traces)
    mean_rows = []
    stderr_rows = []
    bound_rows = []
    for ci, cp in enumerate(cps):
        data = np.array([tr.checkpoint_pseudo[ci] for tr in traces])
        mean_rows.append(tuple(float(v) for v in data.mean(axis=0)))
        stderr_rows.append(
            tuple(float(v) for v in data.std(axis=0, ddof=1) / math.sqrt(k))
        )
        bound_rows.append(tuple(theoretical_bounds(config.instance, cp, config.algorithm)))
    return AggregateReport(
        algorithm=config.algorithm,
        instance_id=config.instance_id,
        n=config.instance.n,
        horizon=config.horizon,
        seeds=config.seeds,
        checkpoints=cps,
        mean_regret=tuple(mean_rows),
        stderr=tuple(stderr_rows),
        bounds=tuple(bound_rows),
        telemetry=ALGORITHMS[config.algorithm].telemetry(traces),
    )


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


def theoretical_bounds(instance: MarketInstance, horizon: int, algorithm: str) -> list[float]:
    """Closed-form per-player regret bound at the given horizon.

    Decentralized: (192 N ln T / g^2 + N ln(192 N ln T / g^2) + 3 N^2)
    times the per-player per-round regret cap U(i, core arm), where g
    is the smallest adjacent utility gap of the instance. Centralized:
    max_j max(0, U(i, core arm) - U(i, j)) times (5 N^2 + 12 N ln T /
    g^2). The oracle baseline has a zero curve. An infinite g (1x1
    market) drops the exploration terms and is flagged in the log; the
    nested log term is capped below at zero so tiny horizons stay
    finite.
    """
    if horizon < 1:
        raise ConfigInvalidError(f"bounds need horizon >= 1, got {horizon}")
    if algorithm not in ALGORITHMS:
        raise ConfigInvalidError(f"no bound curve for algorithm {algorithm!r}")
    return ALGORITHMS[algorithm].bound(instance, math.log(horizon))


def _finite_gap(instance: MarketInstance) -> bool:
    """Whether the exploration terms apply; logs the 1x1 case."""
    if math.isinf(instance.min_gap):
        log.warning("min gap is infinite (1x1 market); bound keeps only the constant term")
        return False
    return True


def _decentralized_bound(instance: MarketInstance, log_t: float) -> list[float]:
    n = instance.n
    u = instance.utilities
    core = instance.core.assignment
    gap = instance.min_gap
    if _finite_gap(instance):
        explore = 192.0 * n * log_t / (gap * gap)
        nested = n * math.log(explore) if explore > 1.0 else 0.0
        rounds_term = explore + max(nested, 0.0) + 3.0 * n * n
    else:
        rounds_term = 3.0 * n * n
    return [rounds_term * float(u[i, core[i]]) for i in range(n)]


def _centralized_bound(instance: MarketInstance, log_t: float) -> list[float]:
    n = instance.n
    u = instance.utilities
    core = instance.core.assignment
    gap = instance.min_gap
    pulls_term = 5.0 * n * n
    if _finite_gap(instance):
        pulls_term += 12.0 * n * log_t / (gap * gap)
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


def export(report: AggregateReport, csv_path: str | Path, json_path: str | Path) -> None:
    """Write the long-format CSV and a JSON summary; both byte-stable.

    CSV rows are ordered by checkpoint then player (1-based players in
    the file). The JSON carries the same numbers plus telemetry.
    """
    csv_path = Path(csv_path)
    json_path = Path(json_path)
    try:
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for ci, cp in enumerate(report.checkpoints):
                for i in range(report.n):
                    fh.write(
                        ",".join(
                            (
                                report.algorithm,
                                report.instance_id,
                                str(report.seed_count),
                                str(i + 1),
                                str(cp),
                                repr(report.mean_regret[ci][i]),
                                repr(report.stderr[ci][i]),
                                repr(report.bounds[ci][i]),
                            )
                        )
                        + "\n"
                    )
    except OSError as exc:
        raise ConfigInvalidError(f"cannot write CSV to {csv_path}: {exc}") from exc
    summary = {
        "algorithm": report.algorithm,
        "instance_id": report.instance_id,
        "n": report.n,
        "horizon": report.horizon,
        "seeds": list(report.seeds),
        "seed_count": report.seed_count,
        "checkpoints": list(report.checkpoints),
        "mean_regret": [list(r) for r in report.mean_regret],
        "stderr": [list(r) for r in report.stderr],
        "bounds": [list(r) for r in report.bounds],
        "telemetry": report.telemetry,
    }
    try:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise ConfigInvalidError(f"cannot write JSON to {json_path}: {exc}") from exc
