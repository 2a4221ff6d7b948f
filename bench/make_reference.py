"""Regenerate reference.json, the report summaries that the Monte Carlo
workloads are checked against when run at the default seed.

    python3 bench/make_reference.py

Run it only when a change is meant to alter simulation results; a
change that only speeds the package up must pass against the stored
file.
"""

from __future__ import annotations

import json

import workloads

CALLS = 8  # more Monte Carlo calls than a default-length run makes


def main() -> None:
    data = {"bench_seed": workloads.DEFAULT_SEED}
    with workloads.scratch_dir(workloads.ROOT / ".bench_out") as workdir:
        for name in ("mc-centralized", "mc-decentralized"):
            w = workloads.MonteCarlo(name, workloads.DEFAULT_SEED, workdir)
            w.setup()
            for k in range(CALLS):
                w.run(k)
            data[name] = w.summaries
            print(f"{name}: {CALLS} calls", flush=True)
    with open(workloads.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
