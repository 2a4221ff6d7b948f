"""The four benchmark workloads and the checks on their outputs.

Each workload is a batch job driven through the package's public
functions (or the CLI entry, cli.main) from one thread. setup() builds
everything a run needs before the first timed call; run(k) performs
operation k, times only the calls into the package, and checks the
outputs afterwards. The benchmark seed picks the inputs: episode seeds
for the Monte Carlo and CLI workloads, the market corpus for
verify-corpus. The package sees only the instances and seed lists.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
REFERENCE_FILE = BENCH_DIR / "reference.json"

if not (SRC / "housebandits" / "__init__.py").is_file():
    raise ImportError(f"the housebandits sources are missing under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from housebandits import cli, harness, instances, market  # noqa: E402

WORKLOADS = ("mc-centralized", "mc-decentralized", "run-trace", "verify-corpus")

DEFAULT_SEED = 0
HORIZON = 100_000
# monte_carlo refuses fewer than two seeds, so a batch is its smallest call
MC_BATCH = 2
# episode seed k of benchmark seed s is s * SEED_STRIDE + k
SEED_STRIDE = 100_000
CORPUS_SIZES = (3, 4, 5, 6, 7)
CORPUS_ROUNDS = 400  # markets of each size in the corpus
CORPUS_GAP = 0.02
# a p99 needs ten samples beyond it
MIN_VERIFY_SAMPLES = 1000

TRACE_HEADER = (
    "round,player,proposal,matched_arm,collided,reward,pseudo_regret_cum,realized_regret_cum"
)
REGRET_REL_TOL = 1e-9  # mean regret and stderr against the reference
COUNT_REL_TOL = 1e-12  # telemetry floats are means of integer counts
PRINTED_REL_TOL = 1e-5  # the CLI prints regrets with %.6g


class CheckFailed(Exception):
    """An operation's output failed its check."""


@dataclass
class OpResult:
    units: int  # seed-rounds, or corpus instances
    seconds: float  # time spent inside the package calls


def episode_seed(bench_seed: int, k: int) -> int:
    return bench_seed * SEED_STRIDE + k


def readme_market():
    """The README's market: gen --family sttcb --n 5 --delta 0.2 --seed 7."""
    return instances.sttcb_instance(5, 0.2, np.random.default_rng(7))


# --- Monte Carlo workloads ------------------------------------------------


class MonteCarlo:
    """harness.monte_carlo plus harness.export on MC_BATCH seeds per
    operation, the path of `housebandits mc`."""

    op_size = MC_BATCH
    unit = "seed-rounds"
    min_ops = 1

    def __init__(self, name: str, seed: int, workdir: Path, reference: list | None = None):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.reference = reference
        self.algorithm = "centralized-ucb" if name == "mc-centralized" else "decentralized-etc"
        self.seeds_run: list[int] = []
        self.summaries: list[dict] = []
        self.telemetry = {"episodes": 0, "entered_phase2": 0, "commitments": 0,
                          "commitments_to_core": 0}

    def setup(self) -> None:
        if self.algorithm == "centralized-ucb":
            self.instance = instances.lower_bound_instance(5, 0.2, 1)
        else:
            self.instance = readme_market()
        self.config = self._config(0)

    def _config(self, k: int):
        seeds = tuple(episode_seed(self.seed, k * MC_BATCH + j) for j in range(MC_BATCH))
        return harness.ExperimentConfig(
            instance=self.instance, algorithm=self.algorithm, horizon=HORIZON,
            seeds=seeds, instance_id=self.name,
        )

    def run(self, k: int) -> OpResult:
        config = self.config if k == 0 else self._config(k)
        csv_path = self.workdir / f"report-{k}.csv"
        json_path = self.workdir / f"report-{k}.json"
        start = time.perf_counter()
        report = harness.monte_carlo(config)
        harness.export(report, csv_path, json_path)
        seconds = time.perf_counter() - start
        summary = json.loads(json_path.read_text(encoding="utf-8"))
        csv_path.unlink()
        json_path.unlink()
        self.seeds_run.extend(config.seeds)
        self.summaries.append(summary)
        problems = check_mc_summary(summary, self.algorithm, config.seeds, self.instance.n)
        if self.reference is not None and k < len(self.reference):
            problems += compare_summary(summary, self.reference[k])
        if self.algorithm == "decentralized-etc":
            tele = summary["telemetry"]
            self.telemetry["episodes"] += summary["seed_count"]
            self.telemetry["entered_phase2"] += tele["episodes_entering_phase2"]
            self.telemetry["commitments"] += tele["player_commitments"]
            self.telemetry["commitments_to_core"] += tele["player_commitments_to_core"]
        if problems:
            raise CheckFailed("; ".join(problems))
        return OpResult(units=HORIZON * len(config.seeds), seconds=seconds)

    def finish(self) -> None:
        pass

    def manifest(self) -> dict:
        out = {"algorithm": self.algorithm, "horizon": HORIZON, "seeds_per_call": MC_BATCH,
               "episode_seeds": self.seeds_run,
               "reference_checked_calls": min(len(self.summaries), len(self.reference or []))}
        if self.algorithm == "decentralized-etc":
            out["telemetry"] = self.telemetry
        return out


def check_mc_summary(summary: dict, algorithm: str, seeds: tuple, n: int) -> list[str]:
    """Checks that hold for every seed."""
    problems = []
    if summary["seeds"] != list(seeds) or summary["seed_count"] != len(seeds):
        problems.append(f"report seeds {summary['seeds']} != {list(seeds)}")
    if summary["checkpoints"] != list(harness.default_checkpoints(HORIZON)):
        problems.append(f"unexpected checkpoints {summary['checkpoints']}")
    for key in ("mean_regret", "stderr", "bounds"):
        rows = summary[key]
        if len(rows) != len(summary["checkpoints"]) or any(len(r) != n for r in rows):
            problems.append(f"{key} has the wrong shape")
        elif not all(math.isfinite(v) for r in rows for v in r):
            problems.append(f"{key} has a non-finite value")
    if algorithm == "decentralized-etc":
        tele = summary["telemetry"]
        if tele["episodes_entering_phase2"] != len(seeds):
            problems.append(f"only {tele['episodes_entering_phase2']} of {len(seeds)} "
                            "episodes entered phase 2")
        if not tele["player_commitments_to_core"] == tele["player_commitments"] == n * len(seeds):
            problems.append(f"{tele['player_commitments_to_core']} of "
                            f"{n * len(seeds)} players committed to their core arm")
    return problems


def _rel_err(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


def compare_summary(got: dict, ref: dict) -> list[str]:
    """Compare a report summary with its stored reference.

    Integers and strings must be equal. Mean regret, stderr and bounds
    may differ by REGRET_REL_TOL relative error, the gate a fast path
    must meet; telemetry floats are means of integer counts and may
    differ only by rounding.
    """
    problems = []
    if sorted(got) != sorted(ref):
        return [f"report keys {sorted(got)} != reference keys {sorted(ref)}"]
    for key in ("algorithm", "instance_id", "n", "horizon", "seeds", "seed_count", "checkpoints"):
        if got[key] != ref[key]:
            problems.append(f"{key}: {got[key]!r} != reference {ref[key]!r}")
    for key in ("mean_regret", "stderr", "bounds"):
        pairs = [(a, b) for ra, rb in zip(got[key], ref[key]) for a, b in zip(ra, rb)]
        if len(pairs) != sum(len(r) for r in ref[key]):
            problems.append(f"{key} has the wrong shape")
            continue
        worst = max(_rel_err(a, b) for a, b in pairs)
        if worst > REGRET_REL_TOL:
            problems.append(f"{key} differs from the reference by {worst:.3g} relative")
    tg, tr = got["telemetry"], ref["telemetry"]
    if sorted(tg) != sorted(tr):
        problems.append(f"telemetry keys {sorted(tg)} != reference {sorted(tr)}")
        return problems
    for key, b in tr.items():
        a = tg[key]
        if isinstance(b, float) and isinstance(a, (int, float)) and not isinstance(a, bool):
            ok = _rel_err(a, b) <= COUNT_REL_TOL
        else:
            ok = a == b and type(a) is type(b)
        if not ok:
            problems.append(f"telemetry {key}: {a!r} != reference {b!r}")
    return problems


def load_reference(name: str, seed: int) -> list | None:
    """Stored summaries of the first calls of a run at DEFAULT_SEED."""
    if seed != DEFAULT_SEED:
        return None
    data = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    if data["bench_seed"] != DEFAULT_SEED:
        raise ValueError(f"{REFERENCE_FILE} holds seed {data['bench_seed']}, not {DEFAULT_SEED}")
    return data[name]


# --- CLI run with a trace -------------------------------------------------


class RunTrace:
    """`housebandits run ... --trace trace.csv --snapshots players.json`
    on the README market, called in process as cli.main([...])."""

    op_size = 1
    unit = "seed-rounds"
    min_ops = 1

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.seeds_run: list[int] = []
        self.first_final: tuple | None = None  # (seed, pseudo, realized) from the first CSV
        self.telemetry = {"episodes": 0, "entered_phase2": 0, "commitments_to_core": 0}

    def setup(self) -> None:
        self.instance = readme_market()
        self.instance_path = self.workdir / "market.json"
        market.save_instance(self.instance, self.instance_path)
        self.trace_path = self.workdir / "trace.csv"
        self.snapshot_path = self.workdir / "players.json"
        self.argv = ["run", "--instance", str(self.instance_path), "--algo", "decentralized-etc",
                     "--horizon", str(HORIZON), "--seeds", "", "--trace", str(self.trace_path),
                     "--snapshots", str(self.snapshot_path)]
        self.seed_slot = self.argv.index("--seeds") + 1

    def run(self, k: int) -> OpResult:
        seed = episode_seed(self.seed, k)
        argv = list(self.argv)
        argv[self.seed_slot] = str(seed)
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        seconds = time.perf_counter() - start
        self.seeds_run.append(seed)
        try:
            if code != 0:
                raise CheckFailed(f"cli.main exited {code}")
            pseudo, realized = self._check_outputs(out.getvalue())
        finally:
            self.trace_path.unlink(missing_ok=True)
            self.snapshot_path.unlink(missing_ok=True)
        if self.first_final is None:
            self.first_final = (seed, pseudo, realized)
        return OpResult(units=HORIZON, seconds=seconds)

    def _check_outputs(self, stdout: str) -> tuple[list[float], list[float]]:
        n = self.instance.n
        rows, header, tail = count_csv(self.trace_path, n)
        if header != TRACE_HEADER:
            raise CheckFailed(f"trace header {header!r} is not the documented one")
        if rows != n * HORIZON:
            raise CheckFailed(f"trace has {rows} rows, expected {n * HORIZON}")
        cells = [line.split(",") for line in tail]
        if [(c[0], c[1]) for c in cells] != [(str(HORIZON), str(i + 1)) for i in range(n)]:
            raise CheckFailed("the trace does not end with round T for players 1..n")
        pseudo = [float(c[6]) for c in cells]
        realized = [float(c[7]) for c in cells]
        printed = [line for line in stdout.splitlines() if line.startswith("player ")]
        if len(printed) != n:
            raise CheckFailed(f"cli printed {len(printed)} player lines, expected {n}")
        for i, line in enumerate(printed):
            fields = dict(part.split("=") for part in line.split()[2:])
            for key, value in (("pseudo_regret", pseudo[i]), ("realized_regret", realized[i])):
                if _rel_err(float(fields[key]), value) > PRINTED_REL_TOL:
                    raise CheckFailed(f"player {i + 1} {key} {fields[key]} != trace {value!r}")
        stats_lines = [line for line in stdout.splitlines() if line.startswith("stats: ")]
        if len(stats_lines) != 1:
            raise CheckFailed("cli printed no stats line")
        stats = json.loads(stats_lines[0][len("stats: "):])
        self.telemetry["episodes"] += 1
        self.telemetry["entered_phase2"] += stats["entry_round"] is not None
        self.telemetry["commitments_to_core"] += sum(stats["committed_is_core"])
        if stats["entry_round"] is None or not all(stats["committed_is_core"]):
            raise CheckFailed(f"episode did not commit every player to the core: {stats}")
        snapshots = json.loads(self.snapshot_path.read_text(encoding="utf-8"))["players"]
        if [s["player"] for s in snapshots] != list(range(1, n + 1)):
            raise CheckFailed("snapshot file does not list players 1..n")
        return pseudo, realized

    def finish(self) -> None:
        """The first call's final trace rows must equal the final regrets
        of the same episode played without a trace."""
        if self.first_final is None:
            return
        seed, pseudo, realized = self.first_final
        config = harness.ExperimentConfig(instance=self.instance, algorithm="decentralized-etc",
                                          horizon=HORIZON, seeds=(seed,))
        episode = harness.run_episode(config, seed)
        if list(episode.final_pseudo) != pseudo or list(episode.final_realized) != realized:
            raise CheckFailed(f"seed {seed}: the trace's final regrets differ from the episode's")

    def manifest(self) -> dict:
        return {"algorithm": "decentralized-etc", "horizon": HORIZON,
                "episode_seeds": self.seeds_run, "telemetry": self.telemetry}


def count_csv(path: Path, n: int) -> tuple[int, str, list[str]]:
    """Data rows, header line and last n lines of a CSV, read in
    blocks so a large trace costs no memory."""
    lines = 0
    with open(path, "rb") as fh:
        header = fh.readline().decode("utf-8").rstrip("\n")
        while block := fh.read(1 << 20):
            lines += block.count(b"\n")
        fh.seek(max(0, fh.tell() - 4096))
        tail = fh.read().decode("utf-8").splitlines()[-n:]
    return lines, header, tail


# --- offline core verification --------------------------------------------


class VerifyCorpus:
    """ttc, yrmh_igyt, the brute-force core oracle and two blocking
    searches on every market of a seeded random corpus, the path of
    `housebandits mechanisms` and of AC-1/AC-2."""

    op_size = 1
    unit = "instances"
    min_ops = MIN_VERIFY_SAMPLES

    def __init__(self, name: str, seed: int, workdir: Path, tracer=None):
        self.name = name
        self.seed = seed
        self.tracer = tracer
        self.checked = dict.fromkeys(CORPUS_SIZES, 0)

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        # sizes interleave, so any prefix of the corpus has an even mix
        self.corpus = [
            (inst, market.Matching(tuple(range(inst.n))))
            for _ in range(CORPUS_ROUNDS)
            for inst in (instances.random_instance(n, CORPUS_GAP, rng) for n in CORPUS_SIZES)
        ]

    def run(self, k: int) -> OpResult:
        inst, identity = self.corpus[k % len(self.corpus)]
        span = self.tracer.span(f"verify.n{inst.n}") if self.tracer else contextlib.nullcontext()
        with span:
            start = time.perf_counter()
            matching = market.ttc(inst.rankings)
            serial = market.yrmh_igyt(inst.rankings)
            oracle = market.core_oracle_bruteforce(inst.utilities)
            on_core = market.find_blocking_coalition(inst.utilities, matching)
            on_identity = market.find_blocking_coalition(inst.utilities, identity)
            seconds = time.perf_counter() - start
        self.checked[inst.n] += 1
        problems = check_verify(inst, identity, matching, serial, oracle, on_core, on_identity)
        if problems:
            raise CheckFailed(f"corpus instance {k % len(self.corpus)}: " + "; ".join(problems))
        return OpResult(units=1, seconds=seconds)

    def finish(self) -> None:
        pass

    def manifest(self) -> dict:
        return {"corpus_seed": self.seed, "corpus_size": len(self.corpus),
                "delta_floor": CORPUS_GAP, "instances_checked_per_n": self.checked}


def check_verify(inst, identity, matching, serial, oracle, on_core, on_identity) -> list[str]:
    problems = []
    if serial.matching != matching:
        problems.append("yrmh_igyt disagrees with ttc")
    if oracle != matching:
        problems.append("the brute-force oracle disagrees with ttc")
    if on_core is not None:
        problems.append(f"the core is blocked by {on_core}")
    if identity == matching:
        if on_identity is not None:
            problems.append("the identity matching is the core but was reported blocked")
    elif on_identity is None:
        problems.append("no blocking coalition found on the non-core identity matching")
    else:
        problems += check_coalition(inst.utilities, identity, on_identity)
    return problems


def check_coalition(utilities, matching, coalition) -> list[str]:
    """A valid objection: members trade only their own endowments, no
    member is worse off and at least one is strictly better off."""
    members = set(coalition.members)
    takers = [p for p, _ in coalition.reallocation]
    arms = [a for _, a in coalition.reallocation]
    if sorted(takers) != sorted(members) or sorted(arms) != sorted(members):
        return [f"coalition {coalition} does not trade its own endowments"]
    gains = [utilities[p][a] - utilities[p][matching.arm_of(p)] for p, a in coalition.reallocation]
    if any(g < 0 for g in gains) or not any(g > 0 for g in gains):
        return [f"coalition {coalition} does not improve on the matching"]
    return []


def make(name: str, seed: int, workdir: Path, tracer=None):
    if name in ("mc-centralized", "mc-decentralized"):
        return MonteCarlo(name, seed, workdir, load_reference(name, seed))
    if name == "run-trace":
        return RunTrace(name, seed, workdir)
    if name == "verify-corpus":
        return VerifyCorpus(name, seed, workdir, tracer)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


@contextlib.contextmanager
def scratch_dir(parent: Path):
    """A private directory inside the checkout, removed afterwards."""
    path = parent / f"work-{os.getpid()}-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
