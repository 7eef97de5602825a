"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 bench/repeat.py [--seeds 1-10] [--seconds 16] [workload ...]

Runs bench/run.py once per (workload, seed), one run at a time, and prints
per workload and metric the median, the quartiles (statistics.quantiles,
n=4), the spread (q3 - q1) / median, and the share of failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", default="16")
    args = ap.parse_args(argv)
    for wl in args.workloads:
        values, shares = {}, set()
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed",
                 str(seed), "--seconds", args.seconds, "--trace", "0"],
                capture_output=True, text=True, cwd=HERE.parent)
            if proc.returncode != 0:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            report = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"{wl} seed {seed}: {json.dumps(report)}", flush=True)
            shares.add((report["failed"], report["attempted"], report["correct"]))
            for name, m in report["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        ratios = sorted({f / a for f, a, _ in shares})
        print(f"== {wl}: {len(args.seeds)} runs, failed share {ratios}, "
              f"correct {sorted({c for *_, c in shares})}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"   {name:20s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {(q3 - q1) / med:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
