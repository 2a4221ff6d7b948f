"""What the traced mode wraps, and the per-layer metrics it reports.

Layers are the package modules. Wrappers sit on the module-level names
the callers look up (harness.platform_round, centralized.ttc, ...) and
on the class methods the round loops call, so the package itself is
not edited. A layer that the table in README.md assigns to a workload
must record calls on it, or the traced run fails.
"""

from __future__ import annotations

import statistics

from tracer import Target, Tracer, self_times
from workloads import CORPUS_SIZES, cli, harness, market  # puts src/ on sys.path first

from housebandits import centralized, decentralized, env, instances  # noqa: E402


def _size_key(args) -> str:
    return f".n{len(args[0])}"


def _count_step(tracer: Tracer, args, outcome) -> None:
    tracer.count("env.proposals", sum(p is not None for p in outcome.proposals))
    tracer.count("env.matched", sum(m is not None for m in outcome.matched))


def _count_record(tracer: Tracer, args, _result) -> None:
    ledger = args[0]
    if ledger.trace:
        tracer.count("env.trace_rows", ledger.n)


def _count_certified(tracer: Tracer, args, ranking) -> None:
    if ranking is not None:
        tracer.count("decentralized.certified")


def _count_phases(tracer: Tracer, args, episode) -> None:
    if episode.algorithm != "decentralized-etc":
        return
    t1 = episode.stats["entry_round"]
    tracer.count("decentralized.episodes")
    tracer.count("decentralized.phase1_rounds", episode.horizon if t1 is None else t1)
    tracer.count("decentralized.phase2_rounds", 0 if t1 is None else episode.horizon - t1)


def targets() -> list[Target]:
    Player = decentralized.DecentralizedPlayer
    return [
        # coarse calls: spans
        Target(cli, "main", "cli.main", span=True),
        Target(harness, "monte_carlo", "harness.monte_carlo", span=True),
        Target(harness, "run_episode", "harness.run_episode", span=True, hook=_count_phases),
        Target(cli, "run_episode", "harness.run_episode", span=True, hook=_count_phases),
        Target(harness, "export", "harness.export", span=True),
        # per-round calls: folded aggregates
        Target(harness, "platform_round", "centralized.platform_round"),
        Target(centralized, "submitted_rankings", "centralized.submitted_rankings"),
        Target(centralized, "ttc", "market.ttc"),
        Target(market, "ttc", "market.ttc"),
        Target(Player, "action", "decentralized.action"),
        Target(Player, "observe", "decentralized.observe"),
        Target(harness, "commit_cascade", "decentralized.commit_cascade"),
        Target(decentralized, "try_extract_ranking", "decentralized.try_extract_ranking",
               hook=_count_certified),
        Target(env.MarketEnv, "step", "env.step", hook=_count_step),
        Target(env.RegretLedger, "record", "env.record", hook=_count_record),
        # offline mechanisms
        Target(market, "yrmh_igyt", "market.yrmh_igyt"),
        Target(market, "core_oracle_bruteforce", "market.core_oracle_bruteforce", key=_size_key),
        Target(market, "find_blocking_coalition", "market.find_blocking_coalition",
               key=_size_key),
        # set-up
        Target(instances, "random_instance", "instances.random_instance"),
        Target(instances, "sttcb_instance", "instances.sttcb_instance"),
        Target(instances, "lower_bound_instance", "instances.lower_bound_instance"),
        Target(instances, "validate_instance", "market.validate_instance"),
        Target(market, "validate_instance", "market.validate_instance"),
    ]


_SIZED = [
    (f"market.{fn}.{kind}.n{n}", unit, better)
    for fn in ("core_oracle_bruteforce", "find_blocking_coalition")
    for kind, unit, better in (("ms", "ms", "lower"), ("calls", "count", "higher"))
    for n in CORPUS_SIZES
]

# (name, unit, better) of every metric a traced run reports
LAYER_METRICS = [
    ("centralized.submitted_rankings.us", "us", "lower"),
    ("centralized.submitted_rankings.calls", "count", "higher"),
    ("centralized.platform_round.self_us", "us", "lower"),
    ("centralized.platform_round.calls", "count", "higher"),
    ("market.ttc.us", "us", "lower"),
    ("market.ttc.calls", "count", "higher"),
    ("decentralized.action.us", "us", "lower"),
    ("decentralized.action.calls", "count", "higher"),
    ("decentralized.observe.us", "us", "lower"),
    ("decentralized.observe.calls", "count", "higher"),
    ("decentralized.commit_cascade.us", "us", "lower"),
    ("decentralized.commit_cascade.calls", "count", "higher"),
    ("decentralized.phase1_rounds", "rounds", "lower"),
    ("decentralized.phase2_rounds", "rounds", "higher"),
    ("decentralized.certify_attempts", "count", "lower"),
    ("decentralized.certified_frac", "ratio", "higher"),
    ("env.step.us", "us", "lower"),
    ("env.step.calls", "count", "higher"),
    ("env.match_per_proposal", "ratio", "higher"),
    ("env.record.us", "us", "lower"),
    ("env.record.calls", "count", "higher"),
    ("env.trace_rows", "count", "higher"),
    ("cli.main.s", "s", "lower"),
    ("cli.main.calls", "count", "higher"),
    ("cli.export_s", "s", "lower"),
    ("harness.run_episode.s_p50", "s", "lower"),
    ("harness.run_episode.self_frac", "ratio", "lower"),
    ("harness.run_episode.calls", "count", "higher"),
    ("harness.monte_carlo.self_ms", "ms", "lower"),
    ("harness.monte_carlo.calls", "count", "higher"),
    ("harness.export.ms", "ms", "lower"),
    ("harness.export.calls", "count", "higher"),
    *_SIZED,
    ("market.yrmh_igyt.us", "us", "lower"),
    ("market.yrmh_igyt.calls", "count", "higher"),
    ("instances.random_instance.us", "us", "lower"),
    ("instances.random_instance.calls", "count", "higher"),
    ("instances.sttcb_instance.us", "us", "lower"),
    ("instances.sttcb_instance.calls", "count", "higher"),
    ("instances.lower_bound_instance.us", "us", "lower"),
    ("instances.lower_bound_instance.calls", "count", "higher"),
    ("market.validate_instance.us", "us", "lower"),
    ("market.validate_instance.calls", "count", "higher"),
    ("trace.norm_work_per_s", "1/s", "higher"),
    ("trace.untraced_norm_work_per_s", "1/s", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
]
UNITS = {name: unit for name, unit, _ in LAYER_METRICS}

_EPISODE = ("env.step.us", "env.step.calls", "env.match_per_proposal", "env.record.us",
            "env.record.calls", "harness.run_episode.s_p50", "harness.run_episode.self_frac",
            "harness.run_episode.calls", "market.validate_instance.us")
_MC = ("harness.monte_carlo.self_ms", "harness.monte_carlo.calls", "harness.export.ms",
       "harness.export.calls")
_DECENTRALIZED = ("decentralized.action.us", "decentralized.observe.us",
                  "decentralized.commit_cascade.us", "decentralized.phase1_rounds",
                  "decentralized.phase2_rounds", "decentralized.certify_attempts",
                  "decentralized.certified_frac")

# metrics that must be non-zero on each workload, the table in README.md
REQUIRED = {
    "mc-centralized": _EPISODE + _MC + (
        "centralized.submitted_rankings.us", "centralized.platform_round.self_us",
        "market.ttc.us", "market.ttc.calls", "instances.lower_bound_instance.us"),
    "mc-decentralized": _EPISODE + _MC + _DECENTRALIZED + ("instances.sttcb_instance.us",),
    "run-trace": _EPISODE + _DECENTRALIZED + (
        "env.trace_rows", "cli.main.s", "cli.export_s", "instances.sttcb_instance.us"),
    "verify-corpus": tuple(name for name, _, _ in _SIZED) + (
        "market.ttc.us", "market.yrmh_igyt.us", "instances.random_instance.us",
        "market.validate_instance.us"),
}


class LayerNotExercised(RuntimeError):
    """A layer that a workload must exercise recorded no calls."""


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every traced metric except the trace.* rates, which the caller
    adds. A layer that was not called reports 0."""
    out: dict[str, float] = {}

    def per_call(name: str, scale: float, own: bool = False) -> float:
        calls, total, self_s = tracer.aggregates.get(name, (0, 0.0, 0.0))
        return (self_s if own else total) / calls * scale if calls else 0.0

    for name in ("centralized.submitted_rankings", "market.ttc", "decentralized.action",
                 "decentralized.observe", "decentralized.commit_cascade", "env.step",
                 "env.record", "market.yrmh_igyt", "instances.random_instance",
                 "instances.sttcb_instance", "instances.lower_bound_instance",
                 "market.validate_instance"):
        out[f"{name}.us"] = per_call(name, 1e6)
        out[f"{name}.calls"] = tracer.calls(name)
    out["centralized.platform_round.self_us"] = per_call("centralized.platform_round", 1e6, True)
    out["centralized.platform_round.calls"] = tracer.calls("centralized.platform_round")
    for fn in ("core_oracle_bruteforce", "find_blocking_coalition"):
        for n in CORPUS_SIZES:
            out[f"market.{fn}.ms.n{n}"] = per_call(f"market.{fn}.n{n}", 1e3)
            out[f"market.{fn}.calls.n{n}"] = tracer.calls(f"market.{fn}.n{n}")

    counters = tracer.counters
    episodes = counters.get("decentralized.episodes", 0)
    attempts = tracer.calls("decentralized.try_extract_ranking")
    out["decentralized.phase1_rounds"] = _ratio(counters.get("decentralized.phase1_rounds", 0),
                                                episodes)
    out["decentralized.phase2_rounds"] = _ratio(counters.get("decentralized.phase2_rounds", 0),
                                                episodes)
    out["decentralized.certify_attempts"] = _ratio(attempts, episodes)
    out["decentralized.certified_frac"] = _ratio(counters.get("decentralized.certified", 0),
                                                 attempts)
    out["env.match_per_proposal"] = _ratio(counters.get("env.matched", 0),
                                           counters.get("env.proposals", 0))
    out["env.trace_rows"] = counters.get("env.trace_rows", 0)

    selfs = self_times(tracer.spans)
    by_name: dict[str, list[tuple[float, float]]] = {}
    for s in tracer.spans:
        by_name.setdefault(s["name"], []).append((s["end"] - s["start"], selfs[s["id"]]))
    main = by_name.get("cli.main", [])
    episode = by_name.get("harness.run_episode", [])
    mc = by_name.get("harness.monte_carlo", [])
    exports = by_name.get("harness.export", [])
    out["cli.main.s"] = _mean([d for d, _ in main])
    out["cli.main.calls"] = len(main)
    out["cli.export_s"] = _mean([own for _, own in main])
    out["harness.run_episode.s_p50"] = statistics.median([d for d, _ in episode]) if episode else 0.0
    out["harness.run_episode.self_frac"] = _ratio(sum(o for _, o in episode),
                                                  sum(d for d, _ in episode))
    out["harness.run_episode.calls"] = len(episode)
    out["harness.monte_carlo.self_ms"] = _mean([own for _, own in mc]) * 1e3
    out["harness.monte_carlo.calls"] = len(mc)
    out["harness.export.ms"] = _mean([d for d, _ in exports]) * 1e3
    out["harness.export.calls"] = len(exports)
    return out


def check_required(workload: str, metrics: dict[str, float]) -> None:
    silent = [name for name in REQUIRED[workload] if not metrics.get(name)]
    if silent:
        raise LayerNotExercised(f"{workload}: traced layers recorded nothing: {', '.join(silent)}")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0
