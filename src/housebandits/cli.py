"""Command-line interface.

Subcommands: gen (write an instance file), run (single seeded episode),
mc (Monte Carlo aggregate over seeds), mechanisms (offline matching on
an instance file), bounds (closed-form regret curves). Exit codes: 0
success, 2 invalid input, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys
from pathlib import Path

from . import __version__
from .env import SAMPLING_FAMILIES
from .errors import ConfigInvalidError, InputError, RuntimeFailure
from .harness import (
    ALGORITHMS,
    ExperimentConfig,
    bound_curves,
    default_checkpoints,
    monte_carlo,
    run_episode,
    theoretical_bounds,
    validate_checkpoints,
    write_report,
)
from .instances import GENERATOR_FAMILIES, generate
from .market import (
    MAX_ORACLE_N,
    REWARD_MODELS,
    MarketInstance,
    core_oracle_bruteforce,
    instance_from_json_dict,
    is_json_int,
    save_instance,
    save_matching,
    yrmh_igyt,
)


# a Monte Carlo run keeps one episode record per seed; a longer seed
# list is refused before any range in it is expanded
MAX_SEEDS = 10**6


def parse_seeds(text: str) -> list[range]:
    """A comma-separated seed list, unexpanded: a seed s as
    range(s, s + 1), an a:b item as range(a, b)."""
    ranges = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        lo_text, colon, hi_text = item.partition(":")
        try:
            lo = int(lo_text)
            hi = int(hi_text) if colon else lo + 1
        except ValueError as exc:
            raise ConfigInvalidError(f"bad seed {'range ' if colon else ''}{item!r}") from exc
        if hi <= lo:
            raise ConfigInvalidError(f"empty seed range {item!r}")
        ranges.append(range(lo, hi))
    if not ranges:
        raise ConfigInvalidError(f"no seeds in {text!r}")
    return ranges


def parse_checkpoints(text: str) -> tuple[int, ...]:
    try:
        checkpoints = tuple(int(item) for item in text.split(",") if item.strip())
    except ValueError as exc:
        raise ConfigInvalidError(f"bad checkpoint list {text!r}") from exc
    if not checkpoints:
        raise ConfigInvalidError(f"no checkpoints in {text!r}")
    return checkpoints


def _read_json(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigInvalidError(f"cannot read {what} {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad JSON, bad UTF-8 and an integer longer
        # than Python's int-from-string digit limit
        raise ConfigInvalidError(f"{what} {path} is not valid JSON: {exc}") from exc


def _refuse_overwrites(inputs: tuple[str | None, ...], outputs: tuple[str | None, ...]) -> None:
    """Refuse an output path that names an input or another output,
    however spelled, before any file is opened for writing; a path of
    None is not given."""
    given = [p for p in outputs if p]
    for k, out in enumerate(given):
        for other in [p for p in inputs if p] + given[:k]:
            if _same_file(out, other):
                raise ConfigInvalidError(f"output {out} would overwrite {other}")


def _same_file(a: str, b: str) -> bool:
    """Whether paths a and b name one regular file, existing or not; a
    device such as /dev/null takes any number of writers. A path the
    system cannot encode names no file, and fails when it is opened."""
    try:
        if os.path.exists(a) and os.path.exists(b):
            return os.path.samefile(a, b) and os.path.isfile(a)
        return os.path.realpath(a) == os.path.realpath(b)
    except (OSError, ValueError):
        return False


def _read_instance(path: str) -> MarketInstance:
    return instance_from_json_dict(_read_json(path, "instance"))


def _read_config_file(path: str) -> dict:
    data = _read_json(path, "config")
    if not isinstance(data, dict):
        raise ConfigInvalidError(f"config {path} must hold a JSON object")
    return data


_CONFIG_KEYS = {
    "instance",
    "algorithm",
    "horizon",
    "seeds",
    "reward_family",
    "checkpoints",
    "instance_id",
}


def build_experiment(args: argparse.Namespace, need_many_seeds: bool,
                     outputs: tuple[str | None, ...] = ()) -> ExperimentConfig:
    """Merge an optional JSON config file with CLI flags; explicit
    flags win over config values. An output path that names the config,
    the instance or another output is refused."""
    raw: dict = {}
    if args.config:
        raw = _read_config_file(args.config)
        unknown = set(raw) - _CONFIG_KEYS
        if unknown:
            raise ConfigInvalidError(f"unknown config keys: {sorted(unknown)}")
    instance_path = args.instance or raw.get("instance")
    if not instance_path or not isinstance(instance_path, str):
        raise ConfigInvalidError("an instance file path is required (--instance or config)")
    if "\0" in instance_path:
        raise ConfigInvalidError(f"instance path {instance_path!r} holds a NUL byte")
    _refuse_overwrites((args.config, instance_path), outputs)
    algorithm = args.algo or raw.get("algorithm")
    if not algorithm or not isinstance(algorithm, str):
        raise ConfigInvalidError("an algorithm name is required (--algo or config)")
    horizon = args.horizon if args.horizon is not None else raw.get("horizon")
    if horizon is None:
        raise ConfigInvalidError("a horizon is required (--horizon or config)")
    if not is_json_int(horizon):
        raise ConfigInvalidError(f"horizon must be an integer, got {horizon!r}")
    if args.seeds is not None:
        ranges = parse_seeds(args.seeds)
    elif "seeds" in raw:
        seeds_raw = raw["seeds"]
        if not isinstance(seeds_raw, list) or not all(map(is_json_int, seeds_raw)):
            raise ConfigInvalidError("config seeds must be a list of integers")
        ranges = [range(s, s + 1) for s in seeds_raw]
    else:
        raise ConfigInvalidError("seeds are required (--seeds or config)")
    # counted without len(), which overflows on a wide range
    count = sum(r.stop - r.start for r in ranges)
    if need_many_seeds and count < 2:
        raise ConfigInvalidError("mc needs at least 2 seeds")
    if need_many_seeds and count > MAX_SEEDS:
        raise ConfigInvalidError(f"mc takes at most {MAX_SEEDS} seeds, got {count}")
    if not need_many_seeds and count != 1:
        raise ConfigInvalidError(f"run takes exactly one seed, got {count}")
    seeds = tuple(itertools.chain.from_iterable(ranges))
    if args.checkpoints is not None:
        checkpoints = parse_checkpoints(args.checkpoints)
    elif "checkpoints" in raw:
        cps_raw = raw["checkpoints"]
        if not isinstance(cps_raw, list) or not all(map(is_json_int, cps_raw)):
            raise ConfigInvalidError("config checkpoints must be a list of integers")
        checkpoints = tuple(cps_raw)
    else:
        checkpoints = None
    family = args.family or raw.get("reward_family")
    instance_id = raw.get("instance_id", Path(instance_path).stem)
    if not isinstance(instance_id, str):
        raise ConfigInvalidError(f"config instance_id must be a string, got {instance_id!r}")
    instance = _read_instance(instance_path)
    return ExperimentConfig(
        instance=instance,
        algorithm=algorithm,
        horizon=horizon,
        seeds=seeds,
        reward_family=family,
        checkpoints=checkpoints,
        instance_id=instance_id,
    )


def cmd_gen(args: argparse.Namespace) -> int:
    instance = generate(args.family, args.n, delta_floor=args.delta_floor, delta=args.delta,
                        distinguished=args.distinguished, seed=args.seed,
                        reward_model=args.reward_model)
    try:
        save_instance(instance, args.out)
    except OSError as exc:
        raise ConfigInvalidError(f"cannot write {args.out}: {exc}") from exc
    core = [a + 1 for a in instance.core.assignment]
    print(f"wrote {args.out}: n={instance.n} core={core} min_gap={instance.min_gap:.6g}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    config = build_experiment(args, need_many_seeds=False, outputs=(args.trace, args.snapshots))
    if args.snapshots and not ALGORITHMS[config.algorithm].snapshots:
        raise ConfigInvalidError(f"{config.algorithm} produces no player snapshots")
    seed = config.seeds[0]
    try:
        with contextlib.ExitStack() as files:
            # both outputs are opened before round 1, so a bad path fails
            # before anything is played; the trace is written as it plays
            trace, snapshots = (files.enter_context(open(path, "w", encoding="utf-8"))
                                if path else None for path in (args.trace, args.snapshots))
            episode = run_episode(config, seed, trace=trace)
            if snapshots is not None:
                json.dump({"players": episode.player_snapshots}, snapshots, indent=2,
                          sort_keys=True)
                snapshots.write("\n")
    except OSError as exc:
        raise ConfigInvalidError(f"cannot write {exc.filename or 'the outputs'}: {exc}") from exc
    for i in range(config.instance.n):
        print(
            f"player {i + 1}: pseudo_regret={episode.final_pseudo[i]:.6g} "
            f"realized_regret={episode.final_realized[i]:.6g}"
        )
    if episode.stats:
        print(f"stats: {json.dumps(episode.stats, sort_keys=True)}")
    if args.trace:
        print(f"trace written to {args.trace}")
    if args.snapshots:
        print(f"snapshots written to {args.snapshots}")
    return 0


def cmd_mc(args: argparse.Namespace) -> int:
    csv_path = args.out + ".csv"
    json_path = args.out + ".json"
    config = build_experiment(args, need_many_seeds=True, outputs=(csv_path, json_path))
    # a market with no finite bound is refused before a file is opened
    bound_curves(config)
    try:
        # both reports are opened before the first episode, so a bad path
        # fails before anything is played
        with open(csv_path, "w", encoding="utf-8") as csv_file, \
                open(json_path, "w", encoding="utf-8") as json_file:
            report = monte_carlo(config)
            write_report(report, csv_file, json_file)
    except OSError as exc:
        raise ConfigInvalidError(f"cannot write {exc.filename or 'the report'}: {exc}") from exc
    print(f"wrote {csv_path} and {json_path}")
    last = len(report.checkpoints) - 1
    if last >= 0:
        t = report.checkpoints[last]
        for i in range(report.n):
            print(
                f"player {i + 1} @ t={t}: mean={report.mean_regret[last][i]:.6g} "
                f"stderr={report.stderr[last][i]:.6g} bound={report.bounds[last][i]:.6g}"
            )
    return 0


def cmd_mechanisms(args: argparse.Namespace) -> int:
    _refuse_overwrites((args.instance,), (args.out,))
    instance = _read_instance(args.instance)
    matching = instance.core
    print(f"core matching: {[a + 1 for a in matching.assignment]}")
    result = yrmh_igyt(instance.rankings)
    agrees = result.matching == matching
    print(
        f"serial mechanism: epochs={result.epochs} rounds={result.rounds} "
        f"agrees={'yes' if agrees else 'no'}"
    )
    if not agrees:
        raise RuntimeFailure("serial mechanism disagrees with the trading-cycle matching")
    if instance.n <= MAX_ORACLE_N:
        oracle = core_oracle_bruteforce(instance.utilities)
        verified = oracle == matching
        print(f"exhaustive verification: {'unique core confirmed' if verified else 'MISMATCH'}")
        if not verified:
            raise RuntimeFailure("exhaustive oracle disagrees with the mechanism output")
    else:
        print(f"exhaustive verification: skipped (n > {MAX_ORACLE_N})")
    if args.out:
        try:
            save_matching(matching, args.out)
        except OSError as exc:
            raise ConfigInvalidError(f"cannot write {args.out}: {exc}") from exc
        print(f"matching written to {args.out}")
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    min_horizon = ALGORITHMS[args.algo].min_horizon
    if args.horizon < min_horizon:
        raise ConfigInvalidError(f"{args.algo} needs horizon >= {min_horizon}, got {args.horizon}")
    instance = _read_instance(args.instance)
    checkpoints = (
        parse_checkpoints(args.checkpoints)
        if args.checkpoints is not None
        else default_checkpoints(args.horizon)
    )
    validate_checkpoints(checkpoints, args.horizon)
    # everything is computed before the header, so a refusal prints nothing
    curves = [(t, theoretical_bounds(instance, t, args.algo)) for t in checkpoints]
    entry_bound = ALGORITHMS[args.algo].entry_bound
    entry = None if entry_bound is None else entry_bound(instance, args.horizon)
    print("checkpoint_t,player,bound")
    for t, values in curves:
        for i, v in enumerate(values):
            print(f"{t},{i + 1},{v:.6g}")
    if entry is not None:
        print(f"# worst-case exploitation entry round: {entry}", file=sys.stderr)
    return 0


def _add_experiment_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; flags override its values")
    sub.add_argument("--instance", help="instance JSON file")
    sub.add_argument("--algo", choices=tuple(ALGORITHMS))
    sub.add_argument("--horizon", type=int)
    sub.add_argument("--seeds", help="comma list; a:b expands to range(a, b)")
    sub.add_argument("--checkpoints", help="comma list of snapshot rounds")
    sub.add_argument(
        "--family",
        choices=SAMPLING_FAMILIES,
        help="override the instance's reward family",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="housebandits",
        description="Bandit learning in housing markets: mechanisms, protocols, experiments.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="generate an instance file")
    gen.add_argument("--family", required=True, choices=tuple(GENERATOR_FAMILIES))
    gen.add_argument("--n", required=True, type=int, help="number of players")
    gen.add_argument("--delta-floor", type=float, help="minimum adjacent gap (random family)")
    gen.add_argument("--delta", type=float, help="gap parameter (sttcb / lower-bound)")
    gen.add_argument(
        "--distinguished", type=int, help="1-based distinguished player (lower-bound)"
    )
    gen.add_argument("--seed", type=int, help="generator seed (random / sttcb)")
    gen.add_argument("--reward-model", choices=REWARD_MODELS,
                     help="reward family, gaussian if not given (random / sttcb)")
    gen.add_argument("--out", required=True, help="output instance JSON path")
    gen.set_defaults(func=cmd_gen)

    run = subs.add_parser("run", help="play one seeded episode")
    _add_experiment_flags(run)
    run.add_argument("--trace", help="write the per-round trace CSV here")
    run.add_argument("--snapshots", help="write per-player protocol state JSON here")
    run.set_defaults(func=cmd_run)

    mc = subs.add_parser("mc", help="Monte Carlo aggregate over seeds")
    _add_experiment_flags(mc)
    mc.add_argument("--out", required=True, help="output path prefix (.csv/.json appended)")
    mc.set_defaults(func=cmd_mc)

    mech = subs.add_parser("mechanisms", help="offline matching on an instance file")
    mech.add_argument("--instance", required=True)
    mech.add_argument("--out", help="write the core matching JSON here")
    mech.set_defaults(func=cmd_mechanisms)

    bounds = subs.add_parser("bounds", help="print closed-form regret bound curves")
    bounds.add_argument("--instance", required=True)
    bounds.add_argument("--algo", required=True, choices=tuple(ALGORITHMS))
    bounds.add_argument("--horizon", required=True, type=int)
    bounds.add_argument("--checkpoints", help="comma list of rounds to evaluate")
    bounds.set_defaults(func=cmd_bounds)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeFailure as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
