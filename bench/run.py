"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout.  Every measurement happens in a
fresh worker process (bench/worker.py), so the package's caches start cold.
With --trace 0 the last line of standard output is one JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics from the
spans recorded around the package's public functions, and the spans are
written to bench/out/.

setup_s is the median over SETUP_SAMPLES set-up-only workers plus the
measuring worker, each timed from its start to its ``ready`` line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("nonsquare-traces", "square-traces", "kloosterman-series", "inner-products")
SETUP_SAMPLES = 4
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def run_worker(argv, deadline):
    """Start a worker; return (seconds to its ready line, its last stdout line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    watchdog = threading.Timer(max(1.0, deadline - time.perf_counter()), proc.kill)
    watchdog.start()
    try:
        ready = None
        last = None
        for line in proc.stdout:
            if ready is None and line.strip() == "ready":
                ready = time.perf_counter() - t0
            elif line.strip():
                last = line.strip()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise BenchError(f"worker {argv} exited with code {code}")
    return ready, last


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="maasslab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "maasslab" / "__init__.py").is_file():
        print("bench: no src/maasslab beside bench/; run from a source checkout",
              file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                setups.append(run_worker(common + ["--setup-only"], deadline)[0])
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            out_dir = HERE / "out"
            out_dir.mkdir(exist_ok=True)
            extra += ["--spans-out",
                      str(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")]
        ready, last = run_worker(common + extra, deadline)
        setups.append(ready)
        report = json.loads(last)
    except (BenchError, TypeError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    metrics = report["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                   **metrics}
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
