"""Command-line front end.

Exit codes: 0 success, 1 usage/parse error, 2 mathematical obstruction
(failed twist coprimality, sigma-zero obstruction), 3 ``verify`` found a
residual above the noise threshold, 4 internal numerical failure (any
other library error, such as a Hensel step that did not raise the defect
order or a root iteration that did not settle).  Output is deterministic:
fixed flags give byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from mpmath import mp

from . import scalar
from .errors import (MathObstruction, Obstruction, SkewError, TwistCoprimeFailure,
                     UsageError)
from .factorizer import (FactorConfig, Factorization, _target_k, newton_puiseux_factor,
                         sigma_zero, sigma_zero_quadratic, verify_factorization)
from .hensel import hensel_lift
from .parsing import (parse_poly, parse_scalar, parse_series, poly_to_str,
                      series_to_str)
from .scalar import INF, Alpha, fmt_exponent
from .skewpoly import ConjSeriesRing, SkewPoly, puiseux_ring

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_OBSTRUCTION = 2
EXIT_VERIFY_FAILED = 3
EXIT_NUMERICAL = 4


def _add_common(sp, base_choice=False):
    sp.add_argument("--alpha", help="twist multiplier (rational or complex literal)",
                    required=False)
    sp.add_argument("--prec", default="16",
                    help="target series order (rational, default 16)")
    sp.add_argument("--bits", type=int, default=None,
                    help=f"scalar precision in bits, at least {scalar.MIN_BITS} "
                         "(default 128 or $SKEWPUISEUX_BITS)")
    sp.add_argument("--json", action="store_true", help="JSON output")
    if base_choice:
        sp.add_argument("--base", choices=["puiseux", "conj-series"],
                        default="puiseux",
                        help="coefficient ring (conj-series = C[[x,rho]], central t)")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="skewpuiseux",
        description="Skew polynomial arithmetic over Puiseux series: "
                    "factorization, sigma-zeros, Hensel lifting.",
        epilog=f"exit codes: {EXIT_OK} success, {EXIT_USAGE} usage or parse "
               f"error, {EXIT_OBSTRUCTION} mathematical obstruction, "
               f"{EXIT_VERIFY_FAILED} verify found a residual above the noise "
               f"threshold, {EXIT_NUMERICAL} internal numerical failure")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("factor", help="factor a monic polynomial into linear factors")
    sp.add_argument("poly")
    _add_common(sp)

    sp = sub.add_parser("sigma-zero", help="compute one sigma-zero")
    sp.add_argument("poly")
    _add_common(sp)

    sp = sub.add_parser("eval", help="(sigma,delta)-substitution f(a)")
    sp.add_argument("poly")
    sp.add_argument("value")
    _add_common(sp, base_choice=True)

    sp = sub.add_parser("mul", help="product of two skew polynomials")
    sp.add_argument("left")
    sp.add_argument("right")
    _add_common(sp, base_choice=True)

    sp = sub.add_parser("divmod", help="left division with remainder")
    sp.add_argument("poly")
    sp.add_argument("divisor")
    _add_common(sp, base_choice=True)

    sp = sub.add_parser("hensel", help="skew Hensel lift: f from g, h")
    sp.add_argument("f")
    sp.add_argument("g")
    sp.add_argument("h")
    _add_common(sp, base_choice=True)

    sp = sub.add_parser(
        "verify", help="check a factorization f = (t-z1)...(t-zd)",
        description="Check a factorization f = unit*(t-z1)...(t-zd) to the "
                    "target order.  It is ok when the residual is at most the "
                    "noise threshold 2^(-bits/2) times max(1, |f|).  Exit "
                    "code 0 when ok, "
                    f"{EXIT_VERIFY_FAILED} when not.")
    sp.add_argument("poly")
    sp.add_argument("zeros", nargs="+")
    sp.add_argument("--unit", default=None, help="left unit series")
    _add_common(sp)
    return p


def _read_arg(text: str) -> str:
    if text == "-":
        return sys.stdin.read().strip()
    return text


def _alpha_from(args, allow_complex_cmds=("sigma-zero", "eval")) -> Alpha:
    if not args.alpha:
        raise UsageError("--alpha is required for this command")
    g = parse_scalar(args.alpha)
    if g.im == 0:
        return Alpha(g.re)
    if args.command not in allow_complex_cmds:
        raise UsageError("complex --alpha is only valid with sigma-zero and eval")
    return Alpha(scalar.to_mpc(g), allow_complex=True)


def _config(args) -> FactorConfig:
    bits_ = args.bits
    if bits_ is None:
        env = os.environ.get("SKEWPUISEUX_BITS", "128")
        try:
            bits_ = int(env)
        except ValueError:
            raise UsageError(f"SKEWPUISEUX_BITS must be an integer, not {env!r}") from None
    try:
        prec = Fraction(args.prec)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"--prec must be a rational number, not {args.prec!r}") from None
    return FactorConfig(target_order=prec, bits=bits_)


def _ring_for(args, alpha=None):
    if getattr(args, "base", "puiseux") == "conj-series":
        return ConjSeriesRing()
    if alpha is None:
        alpha = _alpha_from(args)
    return puiseux_ring(alpha)


def _ord_str(o) -> str:
    return "inf" if o == INF else fmt_exponent(Fraction(o)).strip("()")


def _emit(args, payload: dict, text_lines=None) -> None:
    """Print payload as JSON with --json, else text_lines, by default one
    ``key: value`` line per field (a bool in lower case)."""
    if args.json:
        print(json.dumps(payload, sort_keys=True, separators=(", ", ": ")))
    elif text_lines is None:
        for k, v in payload.items():
            print(f"{k}: {str(v).lower() if isinstance(v, bool) else v}")
    else:
        for line in text_lines:
            print(line)


def _factor_payload(fac: Factorization) -> dict:
    factors = []
    for z in fac.zeros:
        ring = puiseux_ring(Alpha(1), z.L)
        factors.append(poly_to_str(SkewPoly.t_minus(ring, z)))
    payload = {
        "factors": factors,
        "residual": mp.nstr(mp.mpf(fac.residual), 8),
        "order": _ord_str(fac.achieved_order),
        "ramification": fac.ramification,
    }
    if fac.unit is not None:
        payload["unit"] = series_to_str(fac.unit)
    return payload


def run(args) -> int:
    cfg = _config(args)
    with scalar.bits(cfg.bits):
        return _dispatch(args, cfg)


def _dispatch(args, cfg: FactorConfig) -> int:
    cmd = args.command
    if cmd == "factor":
        alpha = _alpha_from(args, allow_complex_cmds=())
        ring = puiseux_ring(alpha)
        f = parse_poly(_read_arg(args.poly), ring)
        fac = newton_puiseux_factor(f, cfg)
        payload = _factor_payload(fac)
        lines = [f"f = {poly_to_str(f)}"]
        if fac.unit is not None:
            lines.append(f"unit: {payload['unit']}")
        lines += [f"factor: {s}" for s in payload["factors"]]
        lines.append(f"residual: {payload['residual']}  order: {payload['order']}"
                     f"  ramification: {payload['ramification']}")
        _emit(args, payload, lines)
        return EXIT_OK

    if cmd == "sigma-zero":
        alpha = _alpha_from(args)
        ring = puiseux_ring(alpha)
        f = parse_poly(_read_arg(args.poly), ring)
        if alpha.allow_complex:
            z = sigma_zero_quadratic(f, cfg)
        else:
            z = sigma_zero(f, cfg)
        payload = {"zero": series_to_str(z), "check_ord": _ord_str(f.evaluate(z).ord())}
        _emit(args, payload)
        return EXIT_OK

    if cmd == "eval":
        ring = _ring_for(args)
        f = parse_poly(_read_arg(args.poly), ring)
        out = f.evaluate(parse_series(_read_arg(args.value)))
        payload = {"value": series_to_str(out)}
        _emit(args, payload, [payload["value"]])
        return EXIT_OK

    if cmd == "mul":
        ring = _ring_for(args)
        a = parse_poly(_read_arg(args.left), ring)
        b = parse_poly(_read_arg(args.right), ring)
        payload = {"product": poly_to_str(a * b)}
        _emit(args, payload, [payload["product"]])
        return EXIT_OK

    if cmd == "divmod":
        ring = _ring_for(args)
        f = parse_poly(_read_arg(args.poly), ring)
        p = parse_poly(_read_arg(args.divisor), ring)
        q, r = f.left_divmod(p)
        payload = {"quotient": poly_to_str(q), "remainder": poly_to_str(r)}
        _emit(args, payload)
        return EXIT_OK

    if cmd == "hensel":
        ring = _ring_for(args)
        f = parse_poly(_read_arg(args.f), ring)
        g = parse_poly(_read_arg(args.g), ring)
        h = parse_poly(_read_arg(args.h), ring)
        L = getattr(f.ring, "L", 1)
        gh, hh, achieved = hensel_lift(f, g, h, _target_k(cfg.target_order, L))
        payload = {
            "g_hat": poly_to_str(gh),
            "h_hat": poly_to_str(hh),
            "achieved_order": _ord_str(Fraction(achieved, L)),
        }
        _emit(args, payload)
        return EXIT_OK

    if cmd == "verify":
        alpha = _alpha_from(args, allow_complex_cmds=())
        ring = puiseux_ring(alpha)
        f = parse_poly(_read_arg(args.poly), ring)
        zeros = [parse_series(z) for z in args.zeros]
        unit = parse_series(args.unit) if args.unit else None
        report = verify_factorization(f, zeros, unit, order=cfg.target_order)
        payload = {
            "residual": mp.nstr(mp.mpf(report["residual"]), 8),
            "eval_ord": _ord_str(report["eval_ord"]),
            "ok": bool(report["ok"]),
        }
        _emit(args, payload)
        return EXIT_OK if payload["ok"] else EXIT_VERIFY_FAILED

    raise UsageError(f"unknown command {cmd!r}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return run(args)
    except MathObstruction as e:
        _emit(args, _obstruction_payload(e), [])
        if not args.json:
            print(f"obstruction: {e}", file=sys.stderr)
        return EXIT_OBSTRUCTION
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except SkewError as e:
        _emit(args, {"error": "numerical", "kind": type(e).__name__,
                     "message": str(e)}, [])
        if not args.json:
            print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


def _obstruction_payload(e) -> dict:
    if isinstance(e, TwistCoprimeFailure):
        out = {"error": "twist_coprime_failed", "n": e.n}
        if e.witness is not None:
            out["witness"] = str(e.witness)
        return out
    if isinstance(e, Obstruction):
        return {"error": "obstruction", "q": str(e.q)}
    return {"error": "obstruction"}


if __name__ == "__main__":
    sys.exit(main())
