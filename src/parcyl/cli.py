"""Command-line front end.

One binary, subcommand style; all numerics live in the library.  Output is
JSON (default) or CSV with a fixed column set, 17-significant-digit
decimal serialization so values round-trip bit-exactly.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys

from . import inhom, lg, plane, tp
from .coeffs import get_tables
from .errors import (ArgumentError, DomainError, OrderError, ParcylError,
                     check_inputs)

FUNCTIONS = ("U+", "U+'", "U-", "V-", "U+i", "U-i", "W+x", "W-x",
             "W0", "W3", "UR", "WR")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _result_payload(cv) -> dict:
    v = cv.value
    return {
        "value_mantissa_re": _fmt(v.mantissa.real),
        "value_mantissa_im": _fmt(v.mantissa.imag),
        "log_scale": _fmt(v.log_scale),
        "rel_bound": _fmt(cv.rel_bound),
        "order": cv.order,
        "noncertified_terms": list(cv.noncertified),
    }


def _oracle_payload(ov) -> dict:
    v = ov.value
    return {
        "value_mantissa_re": _fmt(v.mantissa.real),
        "value_mantissa_im": _fmt(v.mantissa.imag),
        "log_scale": _fmt(v.log_scale),
        "est_acc": _fmt(ov.est_acc),
        "method": ov.method,
    }


def _error_exit(exc: ParcylError) -> int:
    print(json.dumps({"error": exc.code, "detail": str(exc)}))
    return 2


def _parameter(u: float) -> float:
    check_inputs(u)
    return u


def _complex(arg: str | float) -> complex:
    try:
        z = complex(arg)
    except ValueError:
        raise ArgumentError(f"malformed complex number {arg!r}") from None
    if not cmath.isfinite(z):
        raise ArgumentError(f"z={arg} is not finite")
    return z


def _point(args) -> complex:
    """The --z argument, or --x on the real axis; not both."""
    if args.z is not None and args.x is not None:
        raise ArgumentError("give one of --z and --x, not both")
    arg = args.z if args.z is not None else args.x
    if arg is None:
        raise ArgumentError("one of --z or --x is required")
    return _complex(arg)


def _dispatch(args, u: float, z: complex) -> object:
    order = args.order
    fn = args.function
    if fn == "U+":
        return lg.pcf_U_pos(u, z, order, "+z")
    if fn == "U+'":
        return lg.pcf_Uprime_pos(u, z, order, "+z")
    if fn == "U-":
        return tp.pcf_U_neg(u, z, order)
    if fn == "V-":
        return tp.pcf_V_neg(u, z, order)
    if fn == "U+i":
        return tp.pcf_U_rotated(u, z, order, "+i")
    if fn == "U-i":
        return tp.pcf_U_rotated(u, z, order, "-i")
    if fn in ("W+x", "W-x"):
        if z.imag != 0.0:
            raise ArgumentError(f"{fn} takes a real argument, not z={z}")
        return tp.weber_W_real(u, z.real, order, "+x" if fn == "W+x" else "-x")
    if fn == "W0":
        return lg.weber_neg_Wj(u, z, order, 0)
    if fn == "W3":
        return lg.weber_neg_Wj(u, z, order, 3)
    if fn == "UR":
        pair = _parse_pair(args.pair)
        return inhom.inhom_series(u, z, order, args.R, "plus", pair)
    if fn == "WR":
        pair = _parse_pair(args.pair)
        return inhom.inhom_series(u, z, order, args.R, "weber-", pair)
    raise ValueError(f"unknown function {fn}")


def _parse_pair(text: str) -> tuple[int, int]:
    try:
        j, k = (int(p) for p in text.split(","))
    except ValueError:
        raise ArgumentError(f"malformed pair {text!r}") from None
    return (j, k)


def cmd_eval(args) -> int:
    u, z = _parameter(args.u), _point(args)
    cv = _dispatch(args, u, z)
    if args.format == "csv":
        v = cv.value
        print("u,re_z,im_z,order,mantissa_re,mantissa_im,log_scale,bound")
        print(",".join(_fmt(t) for t in
                       (args.u, z.real, z.imag)) +
              f",{cv.order}," +
              ",".join(_fmt(t) for t in
                       (v.mantissa.real, v.mantissa.imag, v.log_scale,
                        cv.rel_bound)))
    else:
        print(json.dumps(_result_payload(cv)))
    return 0


def cmd_oracle(args) -> int:
    from . import oracle  # lazily, so that `parcyl eval` never loads it
    u, z = _parameter(args.u), _point(args)
    a, Z = u / 2.0, math.sqrt(2.0 * u) * z
    fn = args.function
    if fn == "U+":
        ov = oracle.oracle_U(a, Z)
    elif fn == "U+'":
        ov = oracle.oracle_U_prime(a, Z)
    elif fn == "U-":
        ov = oracle.oracle_U(-a, Z)
    elif fn == "V-":
        ov = oracle.oracle_V_neg(a, Z)
    elif fn == "U+i":
        ov = oracle.oracle_U(a, 1j * Z)
    elif fn == "U-i":
        ov = oracle.oracle_U(a, -1j * Z)
    elif fn == "UR":
        ov = oracle.oracle_inhom(a, Z, args.R, _parse_pair(args.pair))
    else:
        raise DomainError(f"no oracle route for {fn}")
    print(json.dumps(_oracle_payload(ov)))
    return 0


def cmd_map(args) -> int:
    """Accuracy map over a grid: asymptotic vs oracle vs certified bound."""
    from . import oracle
    u = _parameter(args.u)
    re0, re1, nre = args.grid_re
    im0, im1, nim = args.grid_im
    if nre < 1 or nim < 1:
        raise ArgumentError("each grid needs at least one point")
    print("u,re_z,im_z,order,mantissa_re,mantissa_im,log_scale,bound,actual_err,ok")
    bad = 0
    for i in range(nre):
        for j in range(nim):
            z = complex(re0 + (re1 - re0) * i / max(nre - 1, 1),
                        im0 + (im1 - im0) * j / max(nim - 1, 1))
            try:
                cv = lg.pcf_U_pos(u, z, args.order, "+z")
                ov = oracle.oracle_U(u / 2.0, math.sqrt(2 * u) * z)
            except ParcylError:
                continue
            try:
                actual = abs((cv.value / ov.value).to_complex() - 1.0)
            except OverflowError:
                # the ratio exceeds the float range: a miss like any other
                actual = math.inf
            v = cv.value
            ok = actual <= cv.rel_bound
            bad += (not ok)
            print(",".join(_fmt(t) for t in (args.u, z.real, z.imag)) +
                  f",{cv.order}," +
                  ",".join(_fmt(t) for t in (v.mantissa.real, v.mantissa.imag,
                                             v.log_scale, cv.rel_bound, actual))
                  + f",{int(ok)}")
    return 0 if bad == 0 else 1


def cmd_domain(args) -> int:
    d = plane.DomainId(args.tag)
    z = _complex(args.z)
    print(json.dumps({"tag": args.tag, "z": [z.real, z.imag],
                      "contains": plane.domain_contains(z, d)}))
    return 0


def cmd_coeff_dump(args) -> int:
    t = get_tables()
    fam = {"Ebar": t.Ebar, "Etilde": t.Etilde, "E": t.E}.get(args.family)
    if fam is not None:
        out = []
        for s in range(1, min(args.smax, t.s_max) + 1):
            out.append({"family": args.family, "s": s,
                        "coefficients": [str(c) for c in fam[s].coeffs]})
        print(json.dumps(out))
        return 0
    if args.family == "airy":
        out = [{"family": "a", "coefficients": [str(c) for c in t.airy.a[1:]]},
               {"family": "a_tilde",
                "coefficients": [str(c) for c in t.airy.a_tilde[1:]]}]
        print(json.dumps(out))
        return 0
    if args.family == "G":
        g = t.G(args.R, "plus" if args.variant == "plus" else "minus")
        out = [{"family": "G", "s": s, "R": args.R,
                "pole_power": g[s].pole_power,
                "numerator": [str(c) for c in g[s].numerator.coeffs]}
               for s in range(min(args.smax, len(g) - 1) + 1)]
        print(json.dumps(out))
        return 0
    raise OrderError(f"unknown family {args.family}")


def _grid(text: str) -> tuple[float, float, float]:
    a, b, n = text.split(":")
    return (float(a), float(b), int(n))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="parcyl",
                                description="parabolic cylinder / Weber "
                                            "special-function engine")
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("--function", required=True, choices=FUNCTIONS)
        sp.add_argument("--u", type=float, required=True)
        sp.add_argument("--z", type=str, default=None,
                        help="complex argument, e.g. '1.5+0.5j'")
        sp.add_argument("--x", type=float, default=None)
        sp.add_argument("--order", type=int, default=3)
        sp.add_argument("--R", type=int, default=0)
        sp.add_argument("--pair", type=str, default="0,2")
        sp.add_argument("--format", choices=("json", "csv"), default="json")

    se = sub.add_parser("eval", help="evaluate an expansion with its bound")
    common(se)
    se.set_defaults(func=cmd_eval)

    so = sub.add_parser("oracle", help="independent reference value")
    common(so)
    so.set_defaults(func=cmd_oracle)

    sm = sub.add_parser("map", help="accuracy map over a grid (CSV)")
    sm.add_argument("--u", type=float, required=True)
    sm.add_argument("--order", type=int, default=3)
    sm.add_argument("--grid-re", type=_grid, default=(0.5, 3.0, 6))
    sm.add_argument("--grid-im", type=_grid, default=(0.0, 0.0, 1))
    sm.set_defaults(func=cmd_map)

    sd = sub.add_parser("domain", help="validity-domain membership")
    sd.add_argument("--tag", required=True, choices=plane.DOMAIN_TAGS)
    sd.add_argument("--z", type=str, required=True)
    sd.set_defaults(func=cmd_domain)

    sc = sub.add_parser("coeff-dump", help="emit coefficient tables as JSON")
    sc.add_argument("--family", required=True,
                    choices=("Ebar", "Etilde", "E", "airy", "G"))
    sc.add_argument("--smax", type=int, default=6)
    sc.add_argument("--R", type=int, default=0)
    sc.add_argument("--variant", choices=("plus", "minus"), default="plus")
    sc.set_defaults(func=cmd_coeff_dump)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParcylError as exc:
        return _error_exit(exc)


if __name__ == "__main__":
    sys.exit(main())
