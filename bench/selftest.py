"""Self-test of the benchmark's checks.

    python3 bench/selftest.py

Runs a reduced input of every workload and requires each result to pass
its check, then feeds every checker one deliberately perturbed result,
which it must count as failed.  Exits 1 if any expectation is not met.
"""

from __future__ import annotations

import copy
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from mpmath import mp  # noqa: E402

import workloads as W  # noqa: E402
from worker import load_refs  # noqa: E402

problems = []


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        problems.append(what)


def run_reduced(wl, refs, seed=1):
    inp = wl.inputs(seed, refs)
    mp.dps = 15
    results = [(op, op.call()) for op in wl.ops(inp, refs)]
    mp.dps = W.REF_DPS
    return inp, results


def passes(wl, op, result, inp, refs):
    verdict = wl.check(op, result, inp, refs)
    expect(not verdict.failed,
           f"{wl.name}: {op.kind}({op.arg}) passes" + "".join(f"; {n}" for n in verdict.notes))


def fails(wl, op, result, inp, refs, how):
    expect(wl.check(op, result, inp, refs).failed,
           f"{wl.name}: {op.kind}({op.arg}) with {how} counts as failed")


def nonsquare(refs):
    # two CM traces; the cycle checker gets made-up results (a real cycle
    # trace takes half a minute and is left to the benchmark)
    wl = W.NonsquareTraces()
    wl.n_cm, wl.cycles = 2, ()
    inp, results = run_reduced(wl, refs)
    for op, r in results:
        passes(wl, op, r, inp, refs)
        fails(wl, op, replace(r, value=r.value + mp.mpf("1e-12")), inp, refs,
              "value + 1e-12")
    from maasslab.traces import TraceValue
    op = W.Op("trace_cycle", 145, None)
    exact = W.ref_mpf(refs["cycle"]["145"]["value"])
    passes(wl, op, TraceValue(145, exact, "cycle", mp.mpf("1e-40")), inp, refs)
    fails(wl, op, TraceValue(145, exact + mp.mpf("1e-25"), "cycle", mp.mpf("1e-30")),
          inp, refs, "an error above its err_est")


def square(refs):
    wl = W.SquareTraces()
    wl.squares = (1,)
    inp, results = run_reduced(wl, refs)
    for op, r in results:
        passes(wl, op, r, inp, refs)
        fails(wl, op, replace(r, value=r.value + mp.mpf("1e-12")), inp, refs,
              "value + 1e-12")


def kloosterman(refs):
    wl = W.KloostermanSeries()
    wl.c_max, wl.coeff_ns, wl.pole_ns = 600, (-23,), (25,)
    inp, results = run_reduced(wl, refs)
    by_kind = {op.kind: (op, r) for op, r in results}
    op, table = by_kind["kloosterman_table"]
    passes(wl, op, table, inp, refs)
    c, m = inp["samples"][0]
    bad = copy.deepcopy(table)
    bad[m][c] += 1e-6
    fails(wl, op, bad, inp, refs, f"A_{c}({m}) + 1e-6")
    bad = copy.deepcopy(table)
    bad[m][7] = 3.0 * 2 * 7 ** 0.5
    fails(wl, op, bad, inp, refs, "an entry above the Lehmer bound")
    op, r = by_kind["coeff_a"]
    fails(wl, op, replace(r, value=r.value + mp.mpf("0.1")), inp, refs, "value + 0.1")
    for kind, delta in (("pole_residue", "1e-6"), ("pole_finite_part", "0.1")):
        op, (value, spread) = by_kind[kind]
        fails(wl, op, (value + mp.mpf(delta), spread), inp, refs, f"value + {delta}")


def inner_products(refs):
    wl = W.InnerProducts()
    wl.level4_ds, wl.level1_ds, wl.n_points = (1, 5), (25, 73), 1
    inp, results = run_reduced(wl, refs)
    for op, r in results:
        passes(wl, op, r, inp, refs)
        if op.kind in ("ip_level4", "ip_level1"):
            fails(wl, op, replace(r, numeric=r.numeric + mp.mpf("1e-6")), inp, refs,
                  "numeric + 1e-6")
            fails(wl, op, replace(r, closed=r.closed + mp.mpf("1e-15")), inp, refs,
                  "closed + 1e-15")
        elif op.kind == "assemble_H":
            bad = copy.deepcopy(r)
            bad.terms[25].hol += mp.mpf("1e-15")
            fails(wl, op, bad, inp, refs, "the q^(25/24) coefficient + 1e-15")
        else:
            fails(wl, op, mp.mpf("1e-3"), inp, refs, "residual 1e-3")


def main() -> int:
    refs = load_refs()
    for part in (nonsquare, square, kloosterman, inner_products):
        part(refs)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
