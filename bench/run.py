"""Benchmark of the housebandits package.

    python3 bench/run.py --workload mc-centralized --seed 0 --seconds 20 --trace 0

Runs one workload (see workloads.py and README.md) for about --seconds
seconds in this process and prints, as the last line of standard
output, one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end ones, measured
untraced; set-up time is the median over separate processes that only
set up, before and after the measurement. With --trace 1 the first half of the run is untraced and the
second half traced, and the metrics are the per-layer ones plus the
traced and untraced work rates. A result file with the run manifest
(machine, commit, seeds, run length, tracing) goes to .bench_out/.
"""

from __future__ import annotations

import os

# the package is single-threaded; keep numpy's thread pools idle too
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402

OUT_DIR = workloads.ROOT / ".bench_out"
# set-up processes before and after the measurement; the machine's
# speed drifts over seconds, so one burst of samples would not do
SETUP_SAMPLES_EACH_SIDE = 4
# an operation shorter than this many probe samples is normalized by
# the slowness over that many samples around it
MIN_OP_PROBES = 10
READY = "ready"

# norm_* are timings at the reference machine speed (see speed.py)
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "norm_work_per_s": "1/s",
    "norm_op_ms_p50": "ms",
    "norm_op_ms_p99": "ms",
}


class SetupFailed(RuntimeError):
    """A set-up process did not report readiness."""


@dataclass
class Phase:
    attempted: int = 0
    failed: int = 0
    units: int = 0
    op_seconds: list[float] = field(default_factory=list)
    op_slowness: list[float] = field(default_factory=list)  # see speed.py
    wall_s: float = 0.0
    slowness: float = 1.0

    @property
    def norm_op_seconds(self) -> list[float]:
        return [s / f for s, f in zip(self.op_seconds, self.op_slowness)]

    @property
    def work_per_s(self) -> float:
        busy = sum(self.op_seconds)
        return self.units / busy if busy else 0.0

    @property
    def norm_work_per_s(self) -> float:
        busy = sum(self.norm_op_seconds)
        return self.units / busy if busy else 0.0


def measure(w, seconds: float) -> Phase:
    """Run operations until the time is up and w.min_ops are done."""
    phase = Phase()
    start = time.perf_counter()
    k = 0
    windows = []
    with SpeedProbe() as probe:
        # stop at the operation that ends nearest the deadline
        while k < w.min_ops or time.perf_counter() - start + _mean_op(phase) / 2 < seconds:
            phase.attempted += w.op_size
            first = len(probe.samples)
            try:
                result = w.run(k)
            except Exception as exc:  # a failed operation is counted, not fatal
                phase.failed += w.op_size
                print(f"{w.name}: operation {k} failed: {exc!r}", file=sys.stderr)
            else:
                phase.units += result.units
                phase.op_seconds.append(result.seconds)
                windows.append((first, len(probe.samples)))
            k += 1
            phase.wall_s = time.perf_counter() - start
    phase.slowness = probe.slowness()
    total = len(probe.samples)
    for a, b in windows:
        if b - a < MIN_OP_PROBES:
            a = max(0, min((a + b - MIN_OP_PROBES) // 2, total - MIN_OP_PROBES))
            b = a + MIN_OP_PROBES
        phase.op_slowness.append(probe.slowness(a, b))
    return phase


def _mean_op(phase: Phase) -> float:
    return phase.wall_s / max(1, len(phase.op_seconds))


def finish(w, phase: Phase) -> None:
    """End-of-run checks; a failure there fails one more operation."""
    try:
        w.finish()
    except workloads.CheckFailed as exc:
        phase.failed += 1
        print(f"{w.name}: final check failed: {exc}", file=sys.stderr)


def time_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to the end of set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=workloads.ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != READY or code != 0:
        raise SetupFailed(f"set-up of {workload} exited {code} without readiness")
    return elapsed


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; the maximum when there are few samples."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def peak_rss_mib() -> float:
    """High-water resident set of this process since it started."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def machine() -> dict:
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": workloads.np.__version__,
    }


def git_commit() -> str | None:
    # the checkout may not be a repository; never look above it
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(workloads.ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=workloads.ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(workloads.SRC.rglob("*.py")):
        digest.update(str(path.relative_to(workloads.SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def phase_record(phase: Phase, traced: bool) -> dict:
    return {"traced": traced, "attempted": phase.attempted, "failed": phase.failed,
            "operations_timed": len(phase.op_seconds), "busy_s": sum(phase.op_seconds),
            "wall_s": phase.wall_s, "work_per_s": phase.work_per_s,
            "slowness": phase.slowness, "norm_work_per_s": phase.norm_work_per_s,
            "op_seconds": phase.op_seconds, "op_slowness": phase.op_slowness}


def run_untraced(args, workdir: Path) -> tuple[dict, list[Phase], dict]:
    setup_s = [time_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES_EACH_SIDE)]
    w = workloads.make(args.workload, args.seed, workdir)
    w.setup()
    phase = measure(w, args.seconds)
    finish(w, phase)
    setup_s += [time_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES_EACH_SIDE)]
    norm_ms = [s * 1e3 for s in phase.norm_op_seconds] or [0.0]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mib(),
        "norm_work_per_s": phase.norm_work_per_s,
        "norm_op_ms_p50": statistics.median(norm_ms),
        "norm_op_ms_p99": percentile(norm_ms, 99),
    }
    details = {"setup_samples_s": setup_s, "workload": w.manifest(),
               "work_unit": w.unit, "phases": [phase_record(phase, False)]}
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, [phase], details


def run_traced(args, workdir: Path) -> tuple[dict, list[Phase], dict]:
    import layers
    from tracer import Tracer

    w = workloads.make(args.workload, args.seed, workdir)
    w.setup()
    untraced = measure(w, args.seconds / 2)
    finish(w, untraced)
    tracer = Tracer()
    tracer.install(layers.targets())
    try:
        traced_w = workloads.make(args.workload, args.seed, workdir, tracer)
        traced_w.setup()
        traced = measure(traced_w, args.seconds / 2)
    finally:
        tracer.uninstall()
    finish(traced_w, traced)
    metrics = layers.layer_metrics(tracer)
    metrics["trace.norm_work_per_s"] = traced.norm_work_per_s
    metrics["trace.untraced_norm_work_per_s"] = untraced.norm_work_per_s
    metrics["trace.overhead_frac"] = (
        1 - traced.norm_work_per_s / untraced.norm_work_per_s if untraced.norm_work_per_s
        else 0.0)
    layers.check_required(args.workload, metrics)
    details = {"workload": traced_w.manifest(), "work_unit": w.unit,
               "phases": [phase_record(untraced, False), phase_record(traced, True)],
               "aggregates": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                              for k, v in sorted(tracer.aggregates.items())},
               "counters": tracer.counters, "spans": tracer.spans}
    return {k: (v, layers.UNITS[k]) for k, v in metrics.items()}, [untraced, traced], details


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)
    with workloads.scratch_dir(OUT_DIR) as workdir:
        if args.setup_only:
            workloads.make(args.workload, args.seed, workdir).setup()
            print(READY, flush=True)
            return 0
        started = time.time()
        runner = run_traced if args.trace else run_untraced
        metrics, phases, details = runner(args, workdir)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    spans = details.pop("spans", None)
    manifest = {
        "machine": machine(),
        "run": {
            "workload": args.workload,
            "bench_seed": args.seed,
            "seconds": args.seconds,
            "tracing": bool(args.trace),
            "started_unix": started,
            "git_commit": git_commit(),
            "source_sha256": source_digest(),
            "package_version": workloads.cli.__version__,
            **details,
        },
    }
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"manifest": manifest, "result": result, "spans": spans}, fh, indent=1)
        fh.write("\n")
    print(f"{args.workload}: {attempted - failed}/{attempted} ok, manifest in {out_path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
