"""Run one workload over several seeds and report each end-to-end metric's
median and quartile spread (the distance between the first and third
quartiles as a share of the median), next to the metric's bound.

    python3 bench/spread.py --workload kap --seeds 1-10 [--json out.json]

Runs are sequential, one process at a time, with the run length from
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    p.add_argument("--json", help="write the per-seed values here")
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    first, last = map(int, args.seeds.split("-"))
    values: dict[str, list[float]] = {}
    for seed in range(first, last + 1):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        if not out["correct"]:
            print(f"seed {seed}: {out['failed']} failed jobs", file=sys.stderr)
        for name, m in out["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k} {v['value']:.4g}" for k, v in out["metrics"].items()),
            flush=True)
    for m in spec["end_to_end"]:
        xs = values[m["name"]]
        q = statistics.quantiles(xs, n=4)
        med = statistics.median(xs)
        print(f"{m['name']:<14} median {med:12.5g}  spread "
              f"{(q[2] - q[0]) / med:.4f}  bound {m['bound']}")
    if args.json:
        Path(args.json).write_text(json.dumps(values, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
