"""One benchmark process: set up, run whole rounds of one workload, check.

Started by run.py, never by hand.  It prints ``ready`` once set-up is done
(imports, references, inputs), then, unless ``--setup-only``, one JSON line
with the raw measurements.  Caches are cleared before every round so each
round starts cold, as a fresh session would.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODULES = ("bqf", "classnum", "context", "exact", "harmonic", "innerprod",
           "matrices", "modforms", "qseries", "special", "spectral", "traces")

# (metric prefix, module, attribute): the public functions whose spans the
# traced run records; QSeries.__mul__ is reported as qseries.QSeries.mul
TRACED = [
    ("bqf.enumerate_classes", "bqf", "enumerate_classes"),
    ("traces.trace_cm", "traces", "trace_cm"),
    ("traces.trace_cycle", "traces", "trace_cycle"),
    ("traces.cycle_integral", "traces", "cycle_integral"),
    ("traces.trace_square", "traces", "trace_square"),
    ("traces.damped_ray_integral", "traces", "damped_ray_integral"),
    ("modforms.f_eval", "modforms", "f_eval"),
    ("modforms.gd_construct", "modforms", "gd_construct"),
    ("modforms.hd_construct", "modforms", "hd_construct"),
    ("exact.kloosterman_table", "exact", "kloosterman_table"),
    ("spectral.coeff_a", "spectral", "coeff_a"),
    ("spectral.pole_residue", "spectral", "pole_residue"),
    ("spectral.pole_finite_part", "spectral", "pole_finite_part"),
    ("spectral.assemble_H", "spectral", "assemble_H"),
    ("spectral.modularity_residual", "spectral", "modularity_residual"),
    ("qseries.QSeries.mul", "qseries", "QSeries.__mul__"),
    ("qseries.QSeries.inverse", "qseries", "QSeries.inverse"),
    ("special.alpha", "special", "alpha"),
    ("special.beta_k", "special", "beta_k"),
    ("harmonic.HarmonicExpansion.eval", "harmonic", "HarmonicExpansion.eval"),
    ("harmonic.HarmonicExpansion.mode_value", "harmonic", "HarmonicExpansion.mode_value"),
    ("harmonic.pair_on_horizontal", "harmonic", "pair_on_horizontal"),
    ("classnum.hstar", "classnum", "hstar"),
    ("innerprod.ip_level1", "innerprod", "ip_level1"),
    ("innerprod.ip_level1_numeric", "innerprod", "ip_level1_numeric"),
    ("innerprod.ip_level4", "innerprod", "ip_level4"),
    ("innerprod.ip_level4_numeric", "innerprod", "ip_level4_numeric"),
]
CACHED = ("exact.kloosterman_table", "modforms.gd_construct")


def load_refs():
    refs = {}
    for group in ("cm", "cycle", "square", "closed"):
        refs[group] = json.loads((HERE / "refs" / f"{group}.json").read_text())
    return refs


def lru_caches(modules):
    """Every functools cache held by the package modules, once each."""
    return list({id(v): v for mod in modules for v in vars(mod).values()
                 if hasattr(v, "cache_clear") and hasattr(v, "cache_info")}.values())


class Tally:
    """Check verdicts summed over rounds."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.digits = []
        self.failures = {}
        self.unexpected = set()

    def add(self, wl, outcomes, inp, refs):
        import workloads
        for op, result, error in outcomes:
            self.attempted += 1
            if error is not None:
                verdict = workloads.Verdict(True, None, [error])
            else:
                verdict = wl.check(op, result, inp, refs)
            if verdict.digits is not None:
                self.digits.append(verdict.digits)
            if verdict.failed:
                self.failed += 1
                key = f"{op.kind}({op.arg})"
                self.failures.setdefault(key, "; ".join(verdict.notes))
                if (op.kind, op.arg) not in wl.known_failures:
                    self.unexpected.add(key)


def per_layer(rec, rounds, cache_stats, import_s, solve_s):
    summ = rec.summary()
    calls, self_s, total, nested = (summ["calls"], summ["self_s"],
                                    summ["total_s"], summ["nested"])

    def per_round(x):
        return x / rounds

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for prefix, _, _ in TRACED:
        put(f"{prefix}.calls", per_round(calls[prefix]), "count")
        put(f"{prefix}.self_s", per_round(self_s[prefix]), "s")
    put("modforms.f_eval.ms_per_call",
        1e3 * total["modforms.f_eval"] / calls["modforms.f_eval"]
        if calls["modforms.f_eval"] else 0.0, "ms")
    for outer in ("traces.cycle_integral", "traces.damped_ray_integral"):
        n = calls[outer]
        put(f"{outer}.f_evals_per_call",
            nested[(outer, "modforms.f_eval")] / n if n else 0.0, "count")
    for name in CACHED:
        hits, misses = cache_stats[name]
        put(f"{name}.hit_ratio", hits / (hits + misses) if hits + misses else 0.0, "ratio")
        put(f"{name}.lookups", per_round(hits + misses), "count")
    entries = sum(args[0] * len(args[1]) for args in rec.misses["exact.kloosterman_table"])
    put("exact.kloosterman_table.entries", per_round(entries), "count")
    put("setup.import_s", import_s, "s")
    put("trace.solve_s", solve_s, "s")
    put("trace.top_spans_s", per_round(summ["top_s"]), "s")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    mods = [importlib.import_module(f"maasslab.{m}") for m in MODULES]
    import_s = time.perf_counter() - t0

    from mpmath import mp
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    refs = load_refs()
    inp = wl.inputs(args.seed, refs)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    caches = lru_caches(mods)
    names = {}
    rec = None
    if args.trace:
        from spans import SpanRecorder
        rec = SpanRecorder()
        for prefix, home, attr in TRACED:
            if prefix in CACHED:
                names[id(getattr(sys.modules[f"maasslab.{home}"], attr))] = prefix
        rec.install(mods, [(p, f"maasslab.{h}", a) for p, h, a in TRACED])
    cache_stats = {name: [0, 0] for name in CACHED}

    def drain_caches():
        """Add the traced caches' hits and misses to cache_stats; clear every cache."""
        for cache in caches:
            if id(cache) in names:
                info = cache.cache_info()
                cache_stats[names[id(cache)]][0] += info.hits
                cache_stats[names[id(cache)]][1] += info.misses
            cache.cache_clear()

    tally = Tally()
    round_s = []
    start = time.perf_counter()
    while True:
        drain_caches()
        mp.dps = 15
        ops = wl.ops(inp, refs)
        outcomes = []      # (op, result or None, error text or None)
        r0 = time.perf_counter()
        for op in ops:
            try:
                with rec.span(f"op.{op.kind}") if rec else nullcontext():
                    result = op.call()
                outcomes.append((op, result, None))
            except Exception as exc:        # an operation that raises counts as failed
                outcomes.append((op, None, f"{type(exc).__name__}: {exc}"))
        round_s.append(time.perf_counter() - r0)
        # checks run outside the timed round; results are dropped once checked
        # so memory does not grow with the number of rounds
        mp.dps = workloads.REF_DPS
        tally.add(wl, outcomes, inp, refs)
        del outcomes
        if time.perf_counter() - start + statistics.median(round_s) > args.seconds:
            break
    drain_caches()
    if rec:
        rec.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for key, why in tally.failures.items():
        print(f"failed: {key}: {why}", file=sys.stderr)

    solve_s = statistics.median(round_s)
    if rec:
        metrics = per_layer(rec, len(round_s), cache_stats, import_s, solve_s)
        if args.spans_out:
            rec.write(args.spans_out)
    else:
        metrics = {
            "solve_s": {"value": solve_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "min_correct_digits": {"value": min(tally.digits), "unit": "digits"},
        }
    # correct: every operation that failed is one of the workload's known faults
    print(json.dumps({"correct": not tally.unexpected, "attempted": tally.attempted,
                      "failed": tally.failed, "round_s": round_s,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
