"""Command-line interface.

Subcommands: gen (write an instance file), run (single seeded episode),
mc (Monte Carlo aggregate over seeds), mechanisms (offline matching on
an instance file), bounds (closed-form regret curves). Exit codes: 0
success, 2 invalid input (an output that cannot be written included), 3
runtime failure (any other error the system raises included).
"""

from __future__ import annotations

import argparse
import dataclasses
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
    algorithm_spec,
    bound_curves,
    monte_carlo,
    resolve_checkpoints,
    run_episode,
    validate_horizon,
    write_report,
)
from .instances import GENERATOR_FAMILIES, generate
from .market import (
    MAX_ORACLE_N,
    REWARD_MODELS,
    MarketInstance,
    core_oracle_bruteforce,
    instance_from_json_dict,
    save_instance,
    written,
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
    if not path:  # the system's own error would name no path
        raise ConfigInvalidError(f"cannot read {what} '': an empty path names no file")
    try:
        # ValueError: a path the system cannot encode (a NUL byte, a lone surrogate)
        fh = open(path, "r", encoding="utf-8")
    except (OSError, ValueError) as exc:
        raise ConfigInvalidError(f"cannot read {what} {path}: {exc}") from exc
    try:
        with fh:
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
    given = [p for p in outputs if p is not None]
    for k, out in enumerate(given):
        for other in [p for p in inputs if p is not None] + given[:k]:
            if _same_file(out, other):
                raise ConfigInvalidError(f"output {out} would overwrite {other}")


def _same_file(a: str, b: str) -> bool:
    """Whether paths a and b name one regular file, existing or not; a
    device such as /dev/null takes any number of writers. A path the
    system cannot encode names no file, and is refused when it is opened."""
    try:
        if os.path.exists(a) and os.path.exists(b):
            return os.path.samefile(a, b) and os.path.isfile(a)
        return os.path.realpath(a) == os.path.realpath(b)
    except (OSError, ValueError):
        return False


def _read_instance(path: str) -> MarketInstance:
    return instance_from_json_dict(_read_json(path, "instance"))


_CONFIG_KEYS = {f.name for f in dataclasses.fields(ExperimentConfig)}
# the config keys given as lists; their flags are comma lists
_LIST_KEYS = {"seeds": parse_seeds, "checkpoints": parse_checkpoints}


def build_experiment(args: argparse.Namespace, need_many_seeds: bool,
                     outputs: tuple[str | None, ...] = ()) -> ExperimentConfig:
    """Merge an optional JSON config file with CLI flags: a flag that is
    given wins, even an empty one, and a config value of null counts as
    not given. Each flag's dest is its config key. ExperimentConfig
    checks the merged values; an output path that names the config, the
    instance or another output is refused."""
    merged: dict = {}
    if args.config is not None:
        raw = _read_json(args.config, "config")
        if not isinstance(raw, dict):
            raise ConfigInvalidError(f"config {args.config} must hold a JSON object")
        unknown = set(raw) - _CONFIG_KEYS
        if unknown:
            raise ConfigInvalidError(f"unknown config keys: {sorted(unknown)}")
        merged = {key: value for key, value in raw.items() if value is not None}
        for key in _LIST_KEYS:
            if not isinstance(merged.get(key, []), list):
                raise ConfigInvalidError(f"config {key} must be a list of integers")
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = _LIST_KEYS[key](flag) if key in _LIST_KEYS else flag
    for key in ("instance", "algorithm", "horizon", "seeds"):
        if key not in merged:
            raise ConfigInvalidError(f"{key} is required, as a flag or in the config")
    # a flag gives seed ranges, a config list one seed per item; counted
    # before any range is expanded, and without len(), which overflows
    # on a wide range
    pieces = [s if isinstance(s, range) else (s,) for s in merged["seeds"]]
    count = sum(s.stop - s.start if isinstance(s, range) else 1 for s in pieces)
    if need_many_seeds and count > MAX_SEEDS:
        raise ConfigInvalidError(f"mc takes at most {MAX_SEEDS} seeds, got {count}")
    if not need_many_seeds and count != 1:
        raise ConfigInvalidError(f"run takes exactly one seed, got {count}")
    merged["seeds"] = tuple(itertools.chain.from_iterable(pieces))
    instance_path = merged.pop("instance")
    if not isinstance(instance_path, str):
        raise ConfigInvalidError(f"instance path must be a string, got {instance_path!r}")
    _refuse_overwrites((args.config, instance_path), outputs)
    instance_id = merged.setdefault("instance_id", Path(instance_path).stem)
    if not isinstance(instance_id, str):
        raise ConfigInvalidError(f"config instance_id must be a string, got {instance_id!r}")
    return ExperimentConfig(instance=_read_instance(instance_path), **merged)


def cmd_gen(args: argparse.Namespace) -> int:
    instance = generate(args.family, args.n, delta_floor=args.delta_floor, delta=args.delta,
                        distinguished=args.distinguished, seed=args.seed,
                        reward_model=args.reward_model)
    save_instance(instance, args.out)
    print(f"wrote {args.out}: n={instance.n} core={instance.core.to_json_list()} "
          f"min_gap={instance.min_gap:.6g}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    config = build_experiment(args, need_many_seeds=False, outputs=(args.trace, args.snapshots))
    if args.snapshots is not None and not algorithm_spec(config.algorithm).snapshots:
        raise ConfigInvalidError(f"{config.algorithm} produces no player snapshots")
    # made before round 1, so a bad path fails before anything is played
    with written(args.trace, args.snapshots) as (trace, snapshots):
        episode = run_episode(config, config.seeds[0], trace=trace)
        if snapshots is not None:
            json.dump({"players": episode.player_snapshots}, snapshots, indent=2, sort_keys=True)
            snapshots.write("\n")
    for i in range(config.instance.n):
        print(
            f"player {i + 1}: pseudo_regret={episode.final_pseudo[i]:.6g} "
            f"realized_regret={episode.final_realized[i]:.6g}"
        )
    if episode.stats:
        print(f"stats: {json.dumps(episode.stats, sort_keys=True)}")
    if args.trace is not None:
        print(f"trace written to {args.trace}")
    if args.snapshots is not None:
        print(f"snapshots written to {args.snapshots}")
    return 0


def cmd_mc(args: argparse.Namespace) -> int:
    if not args.out:  # ".csv" and ".json" would be hidden files
        raise ConfigInvalidError("cannot write '': an empty prefix names no report")
    csv_path = args.out + ".csv"
    json_path = args.out + ".json"
    config = build_experiment(args, need_many_seeds=True, outputs=(csv_path, json_path))
    # made before the first episode, so a bad path fails before any is played
    with written(csv_path, json_path) as (csv_file, json_file):
        report = monte_carlo(config)
        write_report(report, csv_file, json_file)
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
    # made before the mechanisms run, so a bad path fails before anything is printed
    with written(args.out) as (out,):
        print(f"core matching: {matching.to_json_list()}")
        result = yrmh_igyt(instance.rankings)
        print(f"serial mechanism: epochs={result.epochs} rounds={result.rounds}")
        if instance.n <= MAX_ORACLE_N:
            oracle = core_oracle_bruteforce(instance.utilities)
            verified = oracle == matching
            print(f"exhaustive verification: {'unique core confirmed' if verified else 'MISMATCH'}")
            if not verified:
                raise RuntimeFailure("exhaustive oracle disagrees with the mechanism output")
        else:
            print(f"exhaustive verification: skipped (n > {MAX_ORACLE_N})")
        if out is not None:
            print(json.dumps(matching.to_json_list()), file=out)
    if args.out is not None:
        print(f"matching written to {args.out}")
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    validate_horizon(args.horizon, args.algo)
    instance = _read_instance(args.instance)
    checkpoints = resolve_checkpoints(
        None if args.checkpoints is None else parse_checkpoints(args.checkpoints), args.horizon)
    # everything is computed before the header, so a refusal prints nothing
    curves = bound_curves(instance, args.algo, checkpoints)
    entry_bound = algorithm_spec(args.algo).entry_bound
    entry = None if entry_bound is None else entry_bound(instance, args.horizon)
    print("checkpoint_t,player,bound")
    for t, values in zip(checkpoints, curves):
        for i, v in enumerate(values):
            print(f"{t},{i + 1},{v:.6g}")
    if entry is not None:
        print(f"# worst-case exploitation entry round: {entry}", file=sys.stderr)
    return 0


def _add_experiment_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; flags override its values")
    sub.add_argument("--instance", help="instance JSON file")
    sub.add_argument("--algo", dest="algorithm", choices=tuple(ALGORITHMS))
    sub.add_argument("--horizon", type=int)
    sub.add_argument("--seeds", help="comma list; a:b expands to range(a, b)")
    sub.add_argument("--checkpoints", help="comma list of snapshot rounds")
    sub.add_argument(
        "--family",
        dest="reward_family",
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
        message, code = f"error: {exc}", 2
    except (RuntimeFailure, OSError) as exc:
        message, code = f"runtime failure: {exc}", 3
    # a lone surrogate (in a path the system cannot encode) is escaped as
    # sys.stderr itself escapes it, so that a strict text stream takes it too
    print(message.encode("utf-8", "backslashreplace").decode("utf-8"), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
