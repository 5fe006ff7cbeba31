"""Command-line front end.

Every subcommand is deterministic for fixed flags.  Every subcommand
accepts --seed (default 0), but only `factor --oracle-check` reads it: it
seeds the oracle's randomized splitting.  Output is a human-readable
report, or a stable JSON document with --json.  Exit codes: 0 success,
1 usage error, 2 for any domain error or failed invariant.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import classes as cl
from . import gf, grouporbit as go, invariants as inv, moebius as mo
from . import structfactor as sf
from . import upoly, verify
from .errors import AlgebraError, CtxMismatchError, UsageError

SCHEMA = "orbitfactor/1"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors must exit 1, not argparse's 2
        raise UsageError(message)


def _field_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=int, required=True, help="field characteristic (prime)")
    sub.add_argument("--m", type=int, default=1, help="extension degree; q = p^m")
    sub.add_argument("--json", action="store_true", help="emit a JSON document")
    sub.add_argument("--seed", type=int, default=0, help="seed for randomized splitting")


def build_parser() -> _Parser:
    parser = _Parser(prog="orbitfactor",
                     description="orbit polynomials, invariant rational functions, and "
                                 "structured factorization over finite fields")
    subs = parser.add_subparsers(dest="command", required=True)

    p_factor = subs.add_parser("factor", help="factor c*T^(q^k+1)+d*T^(q^k)-a*T-b for s")
    _field_args(p_factor)
    p_factor.add_argument("--s", required=True, help='transformation, e.g. "(3x-1)/(x+3)"')
    p_factor.add_argument("--k", type=int, default=1, help="Frobenius power (default 1)")
    p_factor.add_argument("--oracle-check", action="store_true",
                          help="cross-check against the general-purpose oracle")

    p_orbit = subs.add_parser("orbit-poly", help="orbit polynomial of a generated subgroup")
    _field_args(p_orbit)
    p_orbit.add_argument("--gens", nargs="+", required=True, help="generator list")

    p_inv = subs.add_parser("invariant", help="generator of the invariant function field")
    _field_args(p_inv)
    group = p_inv.add_mutually_exclusive_group(required=True)
    group.add_argument("--pgl", action="store_true", help="closed form for the full group")
    group.add_argument("--gens", nargs="+", help="generator list for a subgroup")

    p_orbits = subs.add_parser("orbits", help="orbit decomposition on P^1(F_{q^k})")
    _field_args(p_orbits)
    p_orbits.add_argument("--gens", nargs="+", required=True, help="generator list")
    p_orbits.add_argument("--ext", type=int, default=1, help="extension degree k")

    p_classes = subs.add_parser("classes", help="conjugacy classes and their labels")
    _field_args(p_classes)
    p_classes.add_argument("--lambda", dest="lam", default=None,
                           help='invariant value: an element, or "inf"')

    p_lambda = subs.add_parser("lambda-report", help="factor degrees across all lambda")
    _field_args(p_lambda)
    p_lambda.add_argument("--s", required=True, help="element of order exactly q+1")

    p_lang = subs.add_parser("lang", help="solve s = sigma(t)^(-1) t")
    _field_args(p_lang)
    p_lang.add_argument("--s", required=True, help="transformation")

    p_verify = subs.add_parser("verify", help="replay the built-in check suites")
    p_verify.add_argument("--suite", choices=("paper-examples", "lemmas"), required=True)
    p_verify.add_argument("--p", type=int, default=None, help="only checks at q = p^m")
    p_verify.add_argument("--m", type=int, default=1,
                          help="with --p: extension degree; q = p^m (default 1)")
    p_verify.add_argument("--json", action="store_true")
    p_verify.add_argument("--seed", type=int, default=0)

    return parser


def _emit(doc: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _poly_doc(f: upoly.Poly) -> str:
    return upoly.format_poly(f)


def _parsed(parse, ctx: gf.FieldCtx, text: str):
    """parse(ctx, text), with malformed text, or element text in another
    field's format, reported as a usage error."""
    try:
        return parse(ctx, text)
    except (ValueError, CtxMismatchError) as exc:
        raise UsageError(str(exc)) from exc


def _require_positive(flag: str, value: int) -> None:
    if value < 1:
        raise UsageError(f"{flag} must be at least 1, got {value}")


def _cmd_factor(args) -> int:
    _require_positive("--k", args.k)
    ctx = gf.field_create(args.p, args.m)
    raw, s = _parsed(mo.parse_moebius_raw, ctx, args.s)
    res = sf.factor_general_k(s, args.k)
    # the caller's coefficients: raw and normalized differ by a unit, and
    # every factor is monic, so the unit is the raw leading coefficient
    input_poly = sf.companion_poly(ctx, raw, args.k)
    if input_poly.monic() != res.input.monic():
        raise AlgebraError("raw companion is not proportional to the normalized one")
    unit = input_poly.lc()
    structured = res.inner
    lines = [f"input: {_poly_doc(input_poly)}",
             f"unit: {gf.format_elem(unit)}",
             f"order of s: {structured.degree_r}"]
    doc = {
        "schema": SCHEMA,
        "command": "factor",
        "q": ctx.order,
        "k": args.k,
        "s": mo.format_moebius(s),
        "input": _poly_doc(input_poly),
        "unit": gf.format_elem(unit),
        "degree": structured.degree_r,
        "factors": [],
        "family": inv.family_text(structured.family),
        "reconstructed": True,
    }
    if args.k == 1:
        if structured.removed_linear:
            lines.append("removed linear factors:")
            for lin in structured.removed_linear:
                lines.append(f"  {_poly_doc(lin)}")
                doc["factors"].append({"factor": _poly_doc(lin), "lambda": None,
                                       "minimal_check": True})
        lines.append("factors (factor, lambda):")
        for entry in structured.factors:
            lines.append(f"  {_poly_doc(entry.poly)}   lambda = {entry.lam}")
            doc["factors"].append({"factor": _poly_doc(entry.poly),
                                   "lambda": str(entry.lam),
                                   "minimal_check": True})
        lines.append(f"family: {inv.family_text(structured.family)}")
    else:
        lines.append("factors over the ground field:")
        for factor in res.factors:
            lines.append(f"  {_poly_doc(factor)}")
            doc["factors"].append({"factor": _poly_doc(factor), "lambda": None,
                                   "minimal_check": True})
    if args.oracle_check:
        oracle = upoly.factorize(input_poly, args.seed)
        theirs = sorted([p for p, mult in oracle.factors for _ in range(mult)],
                        key=lambda f: f.key())
        ok = list(res.factors) == theirs
        doc["oracle_check"] = ok
        lines.append(f"oracle check: {'PASS' if ok else 'FAIL'}")
        if not ok:
            raise AlgebraError("structured factorization disagrees with the oracle")
    lines.append("reconstruction: PASS")
    _emit(doc, args.json, lines)
    return 0


def _cmd_orbit_poly(args) -> int:
    ctx = gf.field_create(args.p, args.m)
    gens = [_parsed(mo.parse_moebius, ctx, text) for text in args.gens]
    G = go.generate(ctx, gens)
    P = inv.orbit_polynomial(G)
    lines = [f"group order: {len(G)}",
             f"family: {P.family_text()}",
             f"parameter t = {P.parameter!r} (coefficient of T^{P.param_index})"]
    coeff_docs = []
    for i, coeff in enumerate(P.coeffs):
        a, b = P.family[i]
        coeff_docs.append({"power": i, "value": repr(coeff),
                           "family": [gf.format_elem(a), gf.format_elem(b)]})
        lines.append(f"  coeff of T^{i}: {coeff!r}")
    doc = {"schema": SCHEMA, "command": "orbit-poly", "q": ctx.order,
           "order": len(G), "family": P.family_text(),
           "param_index": P.param_index, "coefficients": coeff_docs}
    _emit(doc, args.json, lines)
    return 0


def _cmd_invariant(args) -> int:
    ctx = gf.field_create(args.p, args.m)
    if args.pgl:
        phi = inv.pgl_generator(ctx)
        source = "closed-form"
    else:
        G = go.generate(ctx, [_parsed(mo.parse_moebius, ctx, t) for t in args.gens])
        phi = inv.invariant_generator(G)
        source = f"subgroup of order {len(G)}"
    f, g = phi.monic_pair()
    lines = [f"source: {source}",
             f"numerator: {upoly.format_poly(f, 'x')}",
             f"denominator: {upoly.format_poly(g, 'x')}",
             f"degree: {phi.degree}"]
    doc = {"schema": SCHEMA, "command": "invariant", "q": ctx.order,
           "source": source, "numerator": upoly.format_poly(f, "x"),
           "denominator": upoly.format_poly(g, "x"), "degree": phi.degree}
    _emit(doc, args.json, lines)
    return 0


def _cmd_orbits(args) -> int:
    _require_positive("--ext", args.ext)
    ctx = gf.field_create(args.p, args.m)
    G = go.generate(ctx, [_parsed(mo.parse_moebius, ctx, t) for t in args.gens])
    report = go.orbit_decomposition(G, args.ext)
    lines = [f"group order: {len(G)}; points: {report.ext.order + 1}"]
    orbit_docs = []
    for orbit in report.orbits:
        kind = "regular" if orbit.regular else "non-regular"
        lines.append(f"  size {orbit.size:>4}  stabilizer {len(orbit.stabilizer):>3}  "
                     f"{kind}  least point {orbit.points[0]}")
        orbit_docs.append({"size": orbit.size, "stabilizer": len(orbit.stabilizer),
                           "regular": orbit.regular, "least": str(orbit.points[0])})
    audit = go.riemann_hurwitz_audit(G)
    lines.append(f"ramification audit: sum {audit.sum_differents} vs 2|G|-2 = "
                 f"{audit.target} -> {'PASS' if audit.passed else 'FAIL'}")
    doc = {"schema": SCHEMA, "command": "orbits", "q": ctx.order, "k": args.ext,
           "order": len(G), "orbits": orbit_docs,
           "audit": {"sum": audit.sum_differents, "target": audit.target,
                     "passed": audit.passed}}
    _emit(doc, args.json, lines)
    return 0


def _cmd_classes(args) -> int:
    ctx = gf.field_create(args.p, args.m)
    labels = cl.conjugacy_classes(ctx)
    doc = {"schema": SCHEMA, "command": "classes", "q": ctx.order,
           "count": len(labels), "classes": [], "mu": None, "lambda": None}
    lines = [f"PGL(2,{ctx.order}): {len(labels)} conjugacy classes"]
    for label in labels:
        lines.append(f"  {label.describe():<24} size {label.size:>4}  "
                     f"centralizer {label.centralizer_order:>4}  rep {label.representative}")
        doc["classes"].append({"kind": label.describe(), "size": label.size,
                               "centralizer": label.centralizer_order,
                               "representative": mo.format_moebius(label.representative)})
    mu = cl.quadratic_orbit_value(ctx)
    doc["mu"] = gf.format_elem(mu)
    lines.append(f"quadratic-orbit value mu = {gf.format_elem(mu)}")
    if args.lam is not None:
        lam = mo.INFINITY if args.lam in ("inf", "infinity") \
            else mo.ProjPoint(_parsed(gf.parse_elem, ctx, args.lam))
        result = cl.class_of_lambda(ctx, lam)
        if isinstance(result, cl.AmbiguousInvolutions):
            text = ("both involution classes (odd q): "
                    f"{result.split_class.describe()} and {result.nonsplit_class.describe()}")
            doc["lambda"] = {"value": str(lam), "class": None, "ambiguous": True}
        else:
            text = result.describe()
            doc["lambda"] = {"value": str(lam), "class": text, "ambiguous": False}
        lines.append(f"lambda = {lam} -> {text}")
    _emit(doc, args.json, lines)
    return 0


def _cmd_lambda_report(args) -> int:
    ctx = gf.field_create(args.p, args.m)
    s = _parsed(mo.parse_moebius, ctx, args.s)
    report = sf.lambda_family_report(s)
    lines = [f"degrees across lambda in F_{ctx.order} "
             f"(count, Euler-phi prediction):"]
    for r in sorted(report.counts):
        count, predicted = report.counts[r]
        lines.append(f"  degree {r:>3}: {count} lambda values (phi = {predicted})")
    lines.append(f"total: {report.total} = q")
    doc = {"schema": SCHEMA, "command": "lambda-report", "q": ctx.order,
           "s": mo.format_moebius(s),
           "counts": {str(r): {"count": c, "phi": e}
                      for r, (c, e) in report.counts.items()},
           "total": report.total}
    _emit(doc, args.json, lines)
    return 0


def _cmd_lang(args) -> int:
    ctx = gf.field_create(args.p, args.m)
    s = _parsed(mo.parse_moebius, ctx, args.s)
    sol = cl.lang_solve(s)
    lines = [f"s = {mo.format_moebius(s)} (order {s.order()})",
             f"t = {mo.format_moebius(sol.t)} over GF({ctx.order}^{max(sol.ext.degree,1)})"
             if sol.ext is not ctx else f"t = {mo.format_moebius(sol.t)} over the base field",
             f"finite solutions of s(z) = z^q: {sol.finite_count}",
             "verified: s = sigma(t)^(-1) t and X_s = t^(-1)(P^1(F_q))"]
    doc = {"schema": SCHEMA, "command": "lang", "q": ctx.order,
           "s": mo.format_moebius(s), "t": mo.format_moebius(sol.t),
           "solution_field_order": sol.ext.order,
           "finite_solutions": sol.finite_count,
           "points": [str(z) for z in sol.solution_points]}
    _emit(doc, args.json, lines)
    return 0


def _cmd_verify(args) -> int:
    _require_positive("--m", args.m)
    results = verify.run_suite(args.suite, None if args.p is None else args.p ** args.m)
    lines = []
    ok_all = True
    for res in results:
        mark = "PASS" if res.ok else "FAIL"
        ok_all = ok_all and res.ok
        lines.append(f"[{mark}] {res.name}" + (f": {res.detail}" if res.detail else ""))
    lines.append(f"{sum(r.ok for r in results)}/{len(results)} checks passed")
    doc = {"schema": SCHEMA, "command": "verify", "suite": args.suite,
           "results": [{"name": r.name, "ok": r.ok, "detail": r.detail}
                       for r in results],
           "passed": sum(r.ok for r in results), "total": len(results)}
    _emit(doc, args.json, lines)
    return 0 if ok_all and results else 2


_COMMANDS = {
    "factor": _cmd_factor,
    "orbit-poly": _cmd_orbit_poly,
    "invariant": _cmd_invariant,
    "orbits": _cmd_orbits,
    "classes": _cmd_classes,
    "lambda-report": _cmd_lambda_report,
    "lang": _cmd_lang,
    "verify": _cmd_verify,
}


def run(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except AlgebraError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
