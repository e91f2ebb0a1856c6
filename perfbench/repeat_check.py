"""Exact-repeat check: two traced runs with one seed must give equal counts.

    python3 perfbench/repeat_check.py [--seed N] [--seconds S] [WORKLOAD ...]

Runs ``run.py --trace 1`` twice per workload in separate processes and
compares the exact counts ``particle.events``, ``pde.rk_steps``,
``grid.convolve_calls`` and ``final_density.iterations``. The particle
simulator promises bit-reproducibility from (seed, config), so any
difference is a defect. Defaults to the held-out seed. Exits 1 on a
mismatch or a failed run.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import HELD_OUT_SEED  # noqa: E402

COUNTS = ("particle.events", "pde.rk_steps", "grid.convolve_calls",
          "final_density.iterations")
WORKLOADS = ("meanfield-critical", "local-hydro", "inverse-batch")


def traced_counts(workload: str, seed: int, seconds: int) -> dict | None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: int(metrics[name]["value"]) for name in COUNTS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", default=WORKLOADS)
    parser.add_argument("--seed", type=int, default=HELD_OUT_SEED)
    parser.add_argument("--seconds", type=int, default=1)
    args = parser.parse_args()
    ok = True
    for workload in args.workloads:
        first = traced_counts(workload, args.seed, args.seconds)
        second = traced_counts(workload, args.seed, args.seconds)
        same = first is not None and first == second
        ok = ok and same
        print(f"{workload} seed {args.seed}: {'identical' if same else 'DIFFERENT'} "
              f"{json.dumps(first)} / {json.dumps(second)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
