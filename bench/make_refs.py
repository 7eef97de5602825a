"""Make the benchmark's references anew, by routes apart from the timed ones.

    python3 bench/make_refs.py [group ...]

Groups: cm, cycle, square, closed (default: all, in that order).  Each group
is written to bench/refs/<group>.json; 'closed' reads the cycle and square
files.  Values are decimal strings carrying more digits than any workload
asks for; each entry records how it was made.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from mpmath import mp  # noqa: E402

import refmath  # noqa: E402
import spec  # noqa: E402

REF_DIR = HERE / "refs"
OUT_DIGITS = 50


def s(x) -> str:
    return mp.nstr(x, OUT_DIGITS, strip_zeros=False)


def make_cm():
    out = {}
    for n in spec.CM_POOL:
        v = refmath.cm_trace(n)
        out[str(n)] = {"value": f"{v.numerator}/{v.denominator}",
                       "how": "12 s((1-n)/24), partitions enumerated"}
    return out


def make_cycle():
    from maasslab.bqf import enumerate_classes
    out = {}
    mp.dps = 55
    for n in spec.CYCLE_REFS:
        t0 = time.time()
        reps = [Q.as_tuple() for Q in enumerate_classes(n).reps]
        val, err, nodes = refmath.cycle_trace(n, reps, mp.mpf(10) ** -40)
        out[str(n)] = {"value": s(val), "err": mp.nstr(err, 3),
                       "how": f"periodic trapezoid over 2 log eps_+, 55 digits, "
                              f"nodes per class {nodes}",
                       "seconds": round(time.time() - t0, 1)}
        print("cycle", n, out[str(n)], flush=True)
    return out


def _sigmas(bp: int, c: int):
    from maasslab.bqf import BQF, geodesic_data
    from maasslab.matrices import atkin_lehner
    geo = geodesic_data(BQF(0, bp, c))
    out = []
    for r, g in geo.cusp_normalizers:
        m = g @ atkin_lehner(r)
        out.append((refmath.MU[r], (m.a, m.b, m.c, m.d)))
    return out


def make_square():
    out = {}
    mp.dps = 42
    y_cut = mp.mpf("14.5")      # 77 e^{-2 pi y_cut} < 1e-37
    for n in spec.SQUARE_REFS:
        t0 = time.time()
        b = math.isqrt(n)
        total = mp.mpf(0)
        for c in range(b):
            bp, cp, v = refmath.square_bookkeeping(b, c)
            y0 = 1 / (bp * mp.sqrt(6))
            r1 = refmath.damped_ray(mp.mpf(-cp) / bp, y0, _sigmas(bp, cp), y_cut)
            r2 = refmath.damped_ray(mp.mpf(v) / bp, y0, _sigmas(bp, -v), y_cut)
            total += (r1 + r2) / b
        val = refmath.chi12(b) * total / (2 * mp.pi)
        out[str(n)] = {"value": s(val),
                       "how": "tanh-sinh on the dampened integrand to y = 14.5, "
                              "42 digits plus the cancellation depth",
                       "seconds": round(time.time() - t0, 1)}
        print("square", n, out[str(n)], flush=True)
    return out


def _load(group):
    return json.loads((REF_DIR / f"{group}.json").read_text())


def make_closed():
    """Closed forms from class numbers, regulators and the trace references."""
    mp.dps = 45
    traces = {int(k): mp.mpf(v["value"]) for k, v in _load("cycle").items()}
    traces.update({int(k): mp.mpf(v["value"]) for k, v in _load("square").items()})
    out = {"hstar": {}, "ip_level4": {}, "ip_level1": {}, "coeff_a": {},
           "pole_residue": {}, "pole_finite_part": {}}
    ds = sorted(set(spec.LEVEL4_DS) | set(spec.SQUARE_REFS) | {1})
    hs = {d: refmath.hstar(d) for d in ds}
    out["hstar"] = {str(d): s(v) for d, v in hs.items()}
    Y4 = spec.LEVEL4_Y
    for d in spec.LEVEL4_DS:
        closed = -hs[d] / mp.sqrt(d)
        numeric = closed
        if math.isqrt(d) ** 2 == d:
            closed += (mp.euler - mp.log(4 * mp.pi)) / (2 * mp.pi)
            # the boundary pairing at height Y keeps the decaying 2 alpha(dY)
            numeric = closed - 2 * refmath.alpha(d * Y4)
        out["ip_level4"][str(d)] = {"closed": s(closed), "numeric": s(numeric)}
    Y1 = spec.LEVEL1_Y
    for d in spec.LEVEL1_DS:
        m = math.isqrt(d)
        chi = refmath.chi12(m) if m * m == d else 0
        closed = mp.mpc(-traces[d])
        numeric = closed
        if chi:
            closed += chi * (traces[1] - 12 * hs[d] / m - mp.mpc(0, 1))
            # -sqrt(24) chi (alpha(dY/6) - alpha(Y/6)) survives at height Y
            numeric = closed - 24 * chi * (refmath.alpha(mp.mpf(d) * Y1 / 6)
                                           - refmath.alpha(mp.mpf(Y1) / 6))
        closed /= mp.sqrt(24)
        numeric = numeric / mp.sqrt(24) if chi else closed
        out["ip_level1"][str(d)] = {"closed": [s(closed.real), s(closed.imag)],
                                    "numeric": [s(mp.re(numeric)), s(mp.im(numeric))]}
    for n in spec.COEFF_NS:
        if n < 0:
            v = refmath.cm_trace(n)
            val = mp.mpf(v.numerator) / v.denominator / (2 * mp.sqrt(-n))
        else:
            val = mp.sqrt(mp.pi) / 2 * traces[n]
        out["coeff_a"][str(n)] = s(val)
    for n in spec.POLE_NS:
        m = math.isqrt(n)
        chi = refmath.chi12(m)
        out["pole_residue"][str(n)] = s(mp.mpf(chi))
        out["pole_finite_part"][str(n)] = s(2 * mp.pi / m * chi * hs[n]
                                            + mp.pi / 6 * traces[n])
    return out


MAKERS = {"cm": make_cm, "cycle": make_cycle, "square": make_square,
          "closed": make_closed}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("groups", nargs="*", help=f"any of {', '.join(MAKERS)}")
    args = ap.parse_args(argv)
    unknown = set(args.groups) - set(MAKERS)
    if unknown:
        ap.error(f"unknown groups {sorted(unknown)}")
    REF_DIR.mkdir(exist_ok=True)
    for group in args.groups or list(MAKERS):
        data = MAKERS[group]()
        (REF_DIR / f"{group}.json").write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
