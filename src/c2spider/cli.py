"""Command-line surface: JSON in, JSON out, deterministic byte-for-byte.

Subcommands mirror the library layers:

    web eval|rules           closed-web evaluation; relation table audit
    clasp expand|trace|theta single-strand clasps (n, 0): expansions, traces
                             and theta networks
    cat simples|fusion|smatrix|tmatrix   category data at a level
    tqft dim|torus           state-space dimensions, torus representation
    faithful certify|torus   detection certificates and the twist table
    cache gc                 drop cache entries from stale relation tables

Scalars serialize as {"num": [[exp, num, den] ...], "den": [...]} (exact
Laurent data); cyclotomic numbers as {"order": N, "coeffs": [[num, den]...]}.
A display-only decimal rendering is available via --precision; the core never
computes in floating point.  Domain errors, malformed input files among
them, exit 1 with a structured report; usage errors exit 2.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys

from . import cat, engine, faithful, tqft
from . import clasp as clasp_mod
from . import web
from .cache import ClaspCache, cache_gc, default_cache_dir
from .ring import CycNumber, RationalFunction
from .rules import default_table


def _emit(args, payload) -> int:
    if getattr(args, "format", "json") == "text" and isinstance(payload, str):
        sys.stdout.write(payload + "\n")
    else:
        sys.stdout.write(json.dumps(payload, sort_keys=True,
                                    separators=(",", ":")) + "\n")
    return 0


def _rf_json(x: RationalFunction, args):
    out = x.to_json()
    digits = getattr(args, "precision", None)
    if digits:
        out["display_at_q1"] = _approx_at_one(x, digits)
    return out


def _approx_at_one(x: RationalFunction, digits):
    try:
        num = sum(float(c) for c in x.num.terms.values())
        den = sum(float(c) for c in x.den.terms.values())
        if den == 0:
            return None
        return round(num / den, digits)
    except OverflowError:
        return None


def _cyc_json(x: CycNumber, args):
    out = x.to_json()
    digits = getattr(args, "precision", None)
    if digits:
        z = complex(0)
        root = cmath.exp(2j * cmath.pi / x.order)
        for e, c in enumerate(x.coeffs):
            z += float(c) * root ** e
        out["display"] = [round(z.real, digits), round(z.imag, digits)]
    return out


def _ctx(args) -> clasp_mod.ClaspContext:
    table = default_table()
    cache = ClaspCache(root=getattr(args, "cache_dir", None),
                       table_hash=table.table_hash(),
                       enabled=not getattr(args, "no_cache", False))
    return clasp_mod.ClaspContext(table, cache)


# -- subcommand handlers -------------------------------------------------------


def cmd_web_eval(args):
    with open(args.web) as fh:
        w = web.Web.from_json(json.load(fh))
    bad = w.validate()
    if bad:
        raise ValueError(f"invalid web: {bad.kind}: {bad.detail}")
    val = engine.eval_closed(w)
    return _emit(args, {"schema": "c2spider/scalar/1",
                        "scalar": _rf_json(val, args)})


def cmd_web_rules(args):
    table = default_table()
    if args.format == "text":
        return _emit(args, table.pretty())
    return _emit(args, table.to_json())


def cmd_clasp_expand(args):
    ws = clasp_mod.clasp_expand(args.n, ctx=_ctx(args))
    return _emit(args, {"schema": "c2spider/websum/1",
                        "terms": [{"coeff": _rf_json(c, args), "web": w.to_json()}
                                  for c, w in ws]})


def cmd_clasp_trace(args):
    val = clasp_mod.clasp_trace((args.a, 0), _ctx(args))
    return _emit(args, {"schema": "c2spider/scalar/1",
                        "weight": [args.a, 0],
                        "scalar": _rf_json(val, args)})


def cmd_clasp_theta(args):
    val = clasp_mod.theta_net(args.a, args.b, args.c, _ctx(args))
    return _emit(args, {"schema": "c2spider/scalar/1",
                        "labels": [args.a, args.b, args.c],
                        "scalar": _rf_json(val, args)})


def cmd_cat_simples(args):
    return _emit(args, {"schema": "c2spider/simples/1", "level": args.level,
                        "q_order": cat.q_order(args.level),
                        "simples": [list(w) for w in cat.simples(args.level)]})


def cmd_cat_fusion(args):
    lam = tuple(int(x) for x in args.lhs.split(","))
    mu = tuple(int(x) for x in args.rhs.split(","))
    level = None if args.generic else args.level
    if not args.generic and args.level is None:
        raise ValueError("provide --level k or --generic")
    out = cat.fusion_dict(lam, mu, level)
    return _emit(args, {"schema": "c2spider/fusion/1",
                        "lhs": list(lam), "rhs": list(mu),
                        "level": level,
                        "decomposition": [[list(w), m] for w, m in sorted(out.items())]})


def cmd_cat_smatrix(args):
    md = cat.modular_data(args.level)
    return _emit(args, {"schema": "c2spider/matrix/1", "level": args.level,
                        "q_order": md.order,
                        "simples": [list(w) for w in md.simples],
                        "normalization": "unnormalized; S S+ = norm_sq * id",
                        "norm_sq": _cyc_json(md.s_norm_sq, args),
                        "rows": [[_cyc_json(x, args) for x in row]
                                 for row in md.s_tilde]})


def cmd_cat_tmatrix(args):
    md = cat.modular_data(args.level)
    return _emit(args, {"schema": "c2spider/matrix/1", "level": args.level,
                        "q_order": md.order,
                        "simples": [list(w) for w in md.simples],
                        "diagonal": [_cyc_json(x, args) for x in md.t_diag]})


def cmd_tqft_dim(args):
    with open(args.spine) as fh:
        spine = tqft.Spine.from_json(json.load(fh))
    dim = tqft.statespace_dim(spine, args.level)
    out = {"schema": "c2spider/dimension/1", "level": args.level,
           "genus": spine.genus(), "dimension": dim}
    if args.verlinde:
        out["verlinde"] = tqft.verlinde_dim(spine.genus(), args.level)
    return _emit(args, out)


def cmd_tqft_torus(args):
    md = cat.modular_data(args.level)
    return _emit(args, {
        "schema": "c2spider/torus-rep/1", "level": args.level,
        "q_order": md.order,
        "simples": [list(w) for w in md.simples],
        "s_move": [[_cyc_json(x, args) for x in row] for row in md.s_tilde],
        "twist": [_cyc_json(x, args) for x in md.t_diag],
        "note": "matrices are unnormalized/projective; the twist carries an "
                "untracked global framing phase"})


def cmd_faithful_certify(args):
    with open(args.spine) as fh:
        spine = tqft.Spine.from_json(json.load(fh))
    with open(args.walk) as fh:
        walk = faithful.CurveWalk.from_json(json.load(fh), spine)
    cert = faithful.certify_detection(walk, args.level, numeric=args.numeric,
                                      ctx=_ctx(args) if args.numeric else None)
    return _emit(args, cert.to_json())


def cmd_faithful_torus(args):
    table = []
    for n in range(1, args.max_n + 1):
        table.append({"twist_power": n,
                      "min_level": faithful.min_detect_level(n)})
    return _emit(args, {"schema": "c2spider/torus-detection/1",
                        "max_n": args.max_n, "table": table})


def cmd_cache_gc(args):
    root = args.cache_dir or default_cache_dir()
    report = cache_gc(root, default_table().table_hash())
    return _emit(args, {"schema": "c2spider/cache-gc/1", **report})


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="c2spider",
        description="exact computations in the rank-2 symplectic web calculus")
    ap.add_argument("--format", choices=("json", "text"), default="json")
    ap.add_argument("--precision", type=int, default=None,
                    help="display-only decimal rendering (never used in computation)")
    ap.add_argument("--cache-dir", default=None,
                    help="projector cache directory (or set C2SPIDER_CACHE)")
    ap.add_argument("--no-cache", action="store_true")
    sub = ap.add_subparsers(dest="group", required=True)

    g_web = sub.add_parser("web").add_subparsers(dest="cmd", required=True)
    p = g_web.add_parser("eval", help="evaluate a closed web file")
    p.add_argument("--web", required=True)
    p.set_defaults(func=cmd_web_eval)
    p = g_web.add_parser("rules", help="print the relation table for audit")
    p.set_defaults(func=cmd_web_rules)

    g_clasp = sub.add_parser("clasp").add_subparsers(dest="cmd", required=True)
    p = g_clasp.add_parser("expand")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_clasp_expand)
    p = g_clasp.add_parser("trace")
    p.add_argument("--a", type=int, required=True)
    p.set_defaults(func=cmd_clasp_trace)
    p = g_clasp.add_parser("theta")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.set_defaults(func=cmd_clasp_theta)

    g_cat = sub.add_parser("cat").add_subparsers(dest="cmd", required=True)
    p = g_cat.add_parser("simples")
    p.add_argument("--level", type=int, required=True)
    p.set_defaults(func=cmd_cat_simples)
    p = g_cat.add_parser("fusion")
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--generic", action="store_true")
    p.add_argument("--lhs", required=True, help="weight as 'a,b'")
    p.add_argument("--rhs", required=True, help="weight as 'a,b'")
    p.set_defaults(func=cmd_cat_fusion)
    p = g_cat.add_parser("smatrix")
    p.add_argument("--level", type=int, required=True)
    p.set_defaults(func=cmd_cat_smatrix)
    p = g_cat.add_parser("tmatrix")
    p.add_argument("--level", type=int, required=True)
    p.set_defaults(func=cmd_cat_tmatrix)

    g_tqft = sub.add_parser("tqft").add_subparsers(dest="cmd", required=True)
    p = g_tqft.add_parser("dim")
    p.add_argument("--spine", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--verlinde", action="store_true",
                   help="also compute the Verlinde cross-check")
    p.set_defaults(func=cmd_tqft_dim)
    p = g_tqft.add_parser("torus")
    p.add_argument("--level", type=int, required=True)
    p.set_defaults(func=cmd_tqft_torus)

    g_f = sub.add_parser("faithful").add_subparsers(dest="cmd", required=True)
    p = g_f.add_parser("certify")
    p.add_argument("--spine", required=True)
    p.add_argument("--walk", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--numeric", action="store_true",
                   help="check every vertex theta at order 4k+12 through the web engine")
    p.set_defaults(func=cmd_faithful_certify)
    p = g_f.add_parser("torus")
    p.add_argument("--max-n", type=int, default=50)
    p.set_defaults(func=cmd_faithful_torus)

    g_cache = sub.add_parser("cache").add_subparsers(dest="cmd", required=True)
    p = g_cache.add_parser("gc")
    p.set_defaults(func=cmd_cache_gc)
    return ap


_DOMAIN_ERRORS = (ValueError, ArithmeticError, RuntimeError,
                  NotImplementedError, OSError)


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except _DOMAIN_ERRORS as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)},
            sort_keys=True) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
