"""Batch command-line interface.

Every invocation prints a single JSON document (or CSV rows) on stdout:
{"command", "inputs", "values", "err_est", "config", "elapsed_ms"}.
Numeric values with more than 15 significant digits are emitted as decimal
strings.  Exit codes: 0 success, 2 invalid input, 3 convergence failure.
Progress/diagnostics go to stderr only.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from fractions import Fraction

from mpmath import mp

from . import __version__
from .context import PrecisionContext, _default_digits
from .exact import (chi12, chi12_sqrt, dedekind_sum, eta_multiplier,
                    is_square, kloosterman_A, lehmer_ratios, partial_sum_S,
                    s_coeff, spt, trace_cm_exact)
from .classnum import hstar, hurwitz_H
from .bqf import enumerate_classes
from .matrices import S_MAT
from .modforms import (F_expansion, eta_eval, f_eval, f_qexp, gd_construct,
                       hd_construct)
from .qseries import eta_series
from .spectral import (assemble_H, assemble_Z, build_trace_table, coeff_a,
                       delta_op, finite_part_prediction,
                       modularity_residual, pole_finite_part, pole_residue,
                       xi_op)
from .innerprod import ip_level1, ip_level4, plain_reg_closed
from .traces import trace


def _enc(v, digits=25):
    """JSON-safe encoding; long numerics as decimal strings."""
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (bool, int)) or v is None:
        return v
    if isinstance(v, str):
        return v
    if isinstance(v, float):
        return v
    if isinstance(v, complex):
        return mp.nstr(mp.mpc(v), digits)
    try:
        return mp.nstr(v, digits)
    except Exception:
        return str(v)


def _emit(args, command, inputs, values, err_est=None, exit_code=0):
    digits = max(args.digits // 2, 25)
    doc = {
        "command": command,
        "inputs": {k: _enc(v) for k, v in inputs.items()},
        "values": {k: _enc(v, digits) for k, v in values.items()},
        "err_est": _enc(err_est, 6) if err_est is not None else None,
        "config": {"digits": args.digits, "c_max": args.c_max,
                   "Y": args.Y, "n_max": args.n_max,
                   "version": __version__},
    }
    if args.timing:
        doc["elapsed_ms"] = int((time.monotonic() - args._t0) * 1000)
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["key", "value"])
        for k, v in values.items():
            w.writerow([k, _enc(v, digits)])
        sys.stdout.write(buf.getvalue())
    elif args.format == "text":
        for k, v in values.items():
            print(f"{k} = {_enc(v, digits)}")
    else:
        print(json.dumps(doc, sort_keys=True))
    return exit_code


def _ctx(args) -> PrecisionContext:
    return PrecisionContext(digits=args.digits)


def _build_H(args, ctx):
    """The depth-3/2 expansion H up to --n-max, its traces from
    traces.trace at --digits (build_trace_table)."""
    traces = build_trace_table(args.n_max, ctx)
    return assemble_H(args.n_max, traces=traces, ctx=ctx)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_hurwitz(args):
    return _emit(args, "hurwitz", {"n": args.n}, {"H": hurwitz_H(args.n)},
                 err_est=0)


def cmd_hstar(args):
    ctx = _ctx(args)
    return _emit(args, "hstar", {"d": args.d}, {"hstar": hstar(args.d, ctx)},
                 err_est=ctx.eps * 100)


def cmd_spt(args):
    return _emit(args, "spt", {"n": args.n}, {"spt": spt(args.n)}, err_est=0)


def cmd_s(args):
    return _emit(args, "s", {"n": args.n}, {"s": s_coeff(args.n)}, err_est=0)


def cmd_dedekind(args):
    return _emit(args, "dedekind", {"d": args.d, "c": args.c},
                 {"s": dedekind_sum(args.d, args.c)}, err_est=0)


def cmd_kloosterman(args):
    ctx = _ctx(args)
    val = kloosterman_A(args.c, args.m, ctx)
    return _emit(args, "kloosterman", {"c": args.c, "m": args.m},
                 {"A": val}, err_est=ctx.eps * args.c)


def cmd_classes(args):
    cs = enumerate_classes(args.n)
    values = {"count": len(cs.reps), "regime": cs.regime,
              "reps": json.dumps([q.as_tuple() for q in cs.reps])}
    return _emit(args, "classes", {"n": args.n}, values, err_est=0)


def cmd_trace(args):
    ctx = _ctx(args)
    tv = trace(args.n, ctx)
    code = 0 if tv.err_est < mp.mpf("1e-6") else 3
    return _emit(args, "trace", {"n": args.n},
                 {"value": tv.value, "regime": tv.regime},
                 err_est=tv.err_est, exit_code=code)


def cmd_coeff(args):
    ctx = _ctx(args)
    res = coeff_a(args.n, mp.mpf(args.s), args.c_max, ctx,
                  pole_subtracted=args.pole_subtracted)
    return _emit(args, "coeff", {"n": args.n, "s": args.s},
                 {"a": res.value, "pole_subtracted": res.pole_subtracted},
                 err_est=res.err_est)


def cmd_qexp(args):
    which = args.family
    trunc = args.trunc
    if which == "f":
        series = f_qexp(trunc)
    elif which == "eta":
        series = eta_series(24 * trunc + 1)
    elif which == "hd":
        series = hd_construct(args.d, trunc24=trunc * 24 - 1)
    elif which == "gd":
        series = gd_construct(args.d, trunc=trunc)
    else:
        raise ValueError(f"unknown family {which}")
    return _emit(args, f"qexp {which}", {"d": args.d, "trunc": trunc},
                 {"qexp": series.to_json()}, err_est=0)


def cmd_assemble(args):
    ctx = _ctx(args)
    hx = _build_H(args, ctx) if args.family == "H" else assemble_Z(args.n_max, ctx)
    return _emit(args, f"assemble {args.family}", {"n_max": args.n_max},
                 {"expansion": hx.to_json()})


def cmd_eval(args):
    ctx = _ctx(args)
    tau = mp.mpc(args.x, args.y)
    which = args.family
    if which == "eta":
        val = eta_eval(tau, ctx)
    elif which == "f":
        val = f_eval(tau, ctx)
    elif which == "F":
        val = F_expansion(24 * (args.n_max // 24 + 1)).eval(tau, ctx)
    elif which == "H":
        val = _build_H(args, ctx).eval(tau, ctx)
    elif which == "Z":
        val = assemble_Z(args.n_max, ctx).eval(tau, ctx)
    else:
        raise ValueError(f"unknown family {which}")
    return _emit(args, f"eval {which}", {"x": args.x, "y": args.y},
                 {"value": val}, err_est=ctx.eps * 1000)


def cmd_innerprod(args):
    ctx = _ctx(args)
    if args.level == "level1":
        traces = build_trace_table(args.d, ctx)
        res = ip_level1(args.d, Y=args.Y, ctx=ctx, traces=traces)
    else:
        res = ip_level4(args.d, Y=args.Y, ctx=ctx)
    values = {"closed": res.closed, "numeric": res.numeric,
              "discrepancy": res.discrepancy}
    if args.level == "level4" and not is_square(args.d):
        values["plain_reg"] = plain_reg_closed(args.d, ctx)
    return _emit(args, f"innerprod {args.level}", {"d": args.d, "Y": args.Y},
                 values, err_est=res.discrepancy)


def cmd_verify(args):
    ctx = _ctx(args)
    which = args.check
    rows = []
    ok = True
    if which == "spt-identity":
        n = -23
        while n >= -args.n_max:
            tv = trace(n, ctx)
            target = trace_cm_exact(n)
            err = abs(tv.value - mp.mpf(target.numerator) / target.denominator)
            good = err < mp.mpf("1e-8")
            ok &= good
            rows.append({"n": n, "trace": _enc(tv.value), "exact": str(target),
                         "abs_err": _enc(err, 4), "pass": good})
            n -= 24
    elif which == "lehmer":
        ms = tuple(range(-5, 6))
        ratios = lehmer_ratios(args.c_max_scan, ms)
        worst = float(ratios.max())
        ok = worst <= 1 + 1e-9
        rows.append({"c_max": args.c_max_scan, "max_ratio": worst, "pass": ok})
    elif which == "snx":
        x = float(args.c_max_scan)
        S = partial_sum_S(args.n, x)
        main = (chi12(math.isqrt(args.n)) * 12 * math.sqrt(3) / math.pi ** 2
                * math.sqrt(x))
        ratio = S / main if main else float("nan")
        ok = 0.8 <= ratio <= 1.2 if main else abs(S) < 10 * x ** 0.25
        rows.append({"n": args.n, "x": x, "S": S, "main": main,
                     "ratio": ratio, "pass": ok})
    elif which == "modularity":
        hx = _build_H(args, ctx)
        for tau in (mp.mpc("0.05", "1.02"), mp.mpc("-0.31", "1.1")):
            r = modularity_residual(lambda t: hx.eval(t, ctx), S_MAT,
                                    mp.mpf(1) / 2, eta_multiplier(S_MAT), tau, ctx)
            good = r < mp.mpf("1e-4")
            ok &= good
            rows.append({"gamma": "S", "tau": _enc(tau), "residual": _enc(r, 4),
                         "pass": good})
    elif which in ("xi", "delta"):
        hx = _build_H(args, ctx)
        Fx = F_expansion(24 * 9)
        tau = mp.mpc("0.2", "1.4")
        if which == "xi":
            r = abs(xi_op(lambda t: hx.eval(t, ctx), mp.mpf(1) / 2, tau, ctx=ctx)
                    + 2 * mp.sqrt(6) * Fx.eval(tau, ctx))
            tol = mp.mpf("1e-4")
        else:
            r = abs(delta_op(lambda t: hx.eval(t, ctx), mp.mpf(1) / 2, tau, ctx=ctx)
                    + 3 / mp.pi * eta_eval(tau, ctx))
            tol = mp.mpf("1e-4")
        ok = r < tol
        rows.append({"tau": _enc(tau), "residual": _enc(r, 4), "pass": bool(ok)})
    elif which == "prop51":
        res, spread = pole_residue(args.n, args.c_max, ctx)
        fp, fspread = pole_finite_part(args.n, args.c_max, ctx)
        pred = finite_part_prediction(args.n, ctx)
        ok = (abs(res - chi12_sqrt(args.n)) < mp.mpf("1e-3")
              and abs(fp - pred) < mp.mpf("1e-2"))
        rows.append({"n": args.n, "residue": _enc(res, 10),
                     "residue_spread": _enc(spread, 4),
                     "finite_part": _enc(fp, 10), "predicted": _enc(pred, 10),
                     "pass": bool(ok)})
    else:
        raise ValueError(f"unknown verify target {which}")
    return _emit(args, f"verify {which}", {"check": which},
                 {"rows": json.dumps(rows), "all_pass": bool(ok)},
                 exit_code=0 if ok else 3)


# ---------------------------------------------------------------------------

def build_parser():
    # shared options may be given before or after the subcommand; SUPPRESS
    # keeps the subparser from clobbering values parsed at the top level
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument("--digits", type=int, default=argparse.SUPPRESS,
                        help="working precision (default 60 or MAASSLAB_DIGITS)")
    common.add_argument("--c-max", type=int, default=argparse.SUPPRESS,
                        help="Kloosterman cutoff of coeff and verify prop51 "
                             "(default 10000)")
    common.add_argument("--n-max", type=int, default=argparse.SUPPRESS)
    common.add_argument("--Y", type=float, default=argparse.SUPPRESS)
    common.add_argument("--format", choices=["json", "csv", "text"],
                        default=argparse.SUPPRESS)
    common.add_argument("--no-timing", dest="timing", action="store_false",
                        default=argparse.SUPPRESS,
                        help="omit elapsed_ms for byte-identical reruns")
    p = argparse.ArgumentParser(
        prog="maasslab", allow_abbrev=False, parents=[common],
        description="Class numbers, Kloosterman sums, quadratic-form traces, "
                    "depth-3/2 expansions, and regularized inner products.")
    sub = p.add_subparsers(dest="cmd", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, allow_abbrev=False, parents=[common])
        sp.set_defaults(func=fn)
        return sp

    sp = add("hurwitz", cmd_hurwitz); sp.add_argument("--n", type=int, required=True)
    sp = add("hstar", cmd_hstar); sp.add_argument("--d", type=int, required=True)
    sp = add("spt", cmd_spt); sp.add_argument("--n", type=int, required=True)
    sp = add("s", cmd_s); sp.add_argument("--n", type=int, required=True)
    sp = add("dedekind", cmd_dedekind)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--c", type=int, required=True)
    sp = add("kloosterman", cmd_kloosterman)
    sp.add_argument("--c", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp = add("classes", cmd_classes); sp.add_argument("--n", type=int, required=True)
    sp = add("trace", cmd_trace); sp.add_argument("--n", type=int, required=True)
    sp = add("coeff", cmd_coeff)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--s", type=str, default="0.75")
    sp.add_argument("--pole-subtracted", action="store_true")
    sp = add("qexp", cmd_qexp)
    sp.add_argument("family", choices=["f", "eta", "hd", "gd"])
    sp.add_argument("--d", type=int, default=25)
    sp.add_argument("--trunc", type=int, default=24)
    sp = add("assemble", cmd_assemble)
    sp.add_argument("family", choices=["H", "Z"])
    sp = add("eval", cmd_eval)
    sp.add_argument("family", choices=["H", "Z", "F", "eta", "f"])
    sp.add_argument("--x", type=str, required=True)
    sp.add_argument("--y", type=str, required=True)
    sp = add("verify", cmd_verify)
    sp.add_argument("check", choices=["spt-identity", "modularity", "xi",
                                      "delta", "lehmer", "snx", "prop51"])
    sp.add_argument("--n", type=int, default=25)
    sp.add_argument("--c-max-scan", type=int, default=2000)
    sp = add("innerprod", cmd_innerprod)
    sp.add_argument("level", choices=["level1", "level4"])
    sp.add_argument("--d", type=int, required=True)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    defaults = {"digits": None, "c_max": 10_000, "n_max": 121, "Y": 8.0,
                "format": "json", "timing": True}
    for key, val in defaults.items():
        if not hasattr(args, key):
            setattr(args, key, val)
    if args.digits is None:
        args.digits = _default_digits()
    args._t0 = time.monotonic()
    try:
        with mp.workdps(args.digits + 10):
            return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(json.dumps({"command": args.cmd, "error": str(exc)}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
