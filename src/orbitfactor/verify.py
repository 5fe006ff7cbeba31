"""Built-in check suites for the command line.

The "paper-examples" suite replays the worked examples this package was
built around (specific fields, named transformations, exact factor lists);
the "lemmas" suite runs the structural facts on exhaustively enumerable
instances.  Each check returns quietly or raises, and the runner reports
one line per check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from . import classes as cl
from . import gf, grouporbit as go, invariants as inv, moebius as mo
from . import structfactor as sf
from . import upoly


@dataclass(frozen=True)
class CheckResult:
    name: str
    q: int
    ok: bool
    detail: str


_REGISTRY: dict[str, list] = {"paper-examples": [], "lemmas": []}


def _check(suite: str, name: str, q: int):
    def wrap(fn: Callable[[], str]):
        _REGISTRY[suite].append((name, q, fn))
        return fn
    return wrap


def run_suite(suite: str, q_filter: Optional[int] = None) -> list[CheckResult]:
    results = []
    for name, q, fn in _REGISTRY[suite]:
        if q_filter is not None and q != q_filter:
            continue
        try:
            detail = fn() or ""
            results.append(CheckResult(name, q, True, detail))
        except Exception as exc:  # report, never abort the suite
            results.append(CheckResult(name, q, False, f"{type(exc).__name__}: {exc}"))
    return results


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(message)


# -- paper-examples ------------------------------------------------------------------


@_check("paper-examples", "degree-20 factorization over GF(19) gives five quartics", 19)
def _ex_q19_factors() -> str:
    ctx = gf.prime_field(19)
    s = mo.parse_moebius(ctx, "(-x-1)/(x-1)")
    res = sf.factor_by_orbit(s)
    factors = res.monic_factors()
    _expect(len(factors) == 5 and res.degree_r == 4, "expected five quartics")
    listed = {upoly.Poly.from_ints(ctx, [1, a, -6, -a, 1]) for a in (-6, -9, -12, -14, -15)}
    _expect(set(factors) == listed, "quartic list differs")
    for e in res.factors:
        lam = e.lam.value
        _expect(lam is not None, "every quartic has a finite family value")
        expected = upoly.Poly(ctx, (ctx.one(), lam, ctx.elem(-6), -lam, ctx.one()))
        _expect(e.poly == expected, "factor leaves the one-parameter family")
    return "T^4-aT^3-6T^2+aT+1 for a in {-6,-9,-12,-14,-15}"


@_check("paper-examples", "order-3 subgroup of PGL(2,17): orbit polynomial and factors", 17)
def _ex_q17() -> str:
    ctx = gf.prime_field(17)
    raw, s = mo.parse_moebius_raw(ctx, "(14x+13)/(6x+2)")
    _expect(s.order() == 3, "order is 3")
    G = go.generate(ctx, [s])
    P = inv.orbit_polynomial(G)
    t_paper = inv.RatFunc(upoly.Poly.from_ints(ctx, [8, 0, 15, 2]),
                          upoly.Poly.from_ints(ctx, [3, 15, 1]))
    _expect(P.coeffs[1] == t_paper, "T-coefficient differs from the listed generator")
    # the listed family T^3 + (8t-1)T^2 + tT + (7t+4) against the stored one
    pairs = {i: (a, b) for i, (a, b) in enumerate(P.family)}
    # rewrite stored family (affine in parameter t0) in terms of t = coeffs[1]
    a1, b1 = pairs[1]
    _expect(bool(a1), "parameter coefficient must be nonconstant")
    for i, (want_a, want_b) in ((3, (0, 1)), (2, (8, -1)), (1, (1, 0)), (0, (7, 4))):
        a_i, b_i = pairs[i]
        got_a = a_i / a1
        got_b = b_i - a_i / a1 * b1
        _expect(got_a == ctx.elem(want_a) and got_b == ctx.elem(want_b),
                f"family pair at T^{i} differs")
    companion = sf.companion_poly(ctx, raw)
    _expect(companion == upoly.Poly.from_ints(ctx, [-13, -14] + [0] * 15 + [2, 6]),
            "companion is 6T^18 + 2T^17 - 14T - 13")
    fac = upoly.factorize(companion)
    _expect(fac.unit == ctx.elem(6), "unit should be 6")
    listed = [[7, 15, 0, 1], [16, 9, 3, 1], [2, 7, 4, 1],
              [8, 3, 6, 1], [9, 8, 12, 1], [1, 2, 15, 1]]
    want = {upoly.Poly.from_ints(ctx, c) for c in listed}
    _expect({p for p, _ in fac.factors} == want, "cubic list differs")
    _expect(all(mult == 1 for _, mult in fac.factors), "the cubics are simple")
    mine = sf.factor_by_orbit(s)
    _expect(set(mine.monic_factors()) == want, "structured factors differ")
    return "unit 6, six cubics incl. T^3+15T+7"


@_check("paper-examples", "order-8 subgroup of PGL(2,7): counts follow Euler phi", 7)
def _ex_q7_lambda() -> str:
    ctx = gf.prime_field(7)
    s = mo.parse_moebius(ctx, "(3x-1)/(x+3)")
    _expect(s.order() == 8, "order is 8")
    report = sf.lambda_family_report(s)
    _expect(report.counts == {2: (1, 1), 4: (2, 2), 8: (4, 4)}, "counts differ")
    _expect(report.total == 7, "counts must sum to q")
    phi = inv.invariant_generator(go.generate(ctx, [s]))
    f, g = phi.monic_pair()
    xqx = upoly.Poly.x_pow(ctx, 7) - upoly.Poly.x(ctx)
    _expect(g.monic() == xqx, "denominator is x^7 - x")
    diff = f - (upoly.Poly.x_pow(ctx, 8) + upoly.Poly.one(ctx))
    _expect((not diff) or (diff % xqx == upoly.Poly.zero(ctx) and (diff // xqx).deg <= 0),
            "numerator is x^8+1 up to the affine change")
    return "{2:1, 4:2, 8:4}, sum 7"


@_check("paper-examples", "PGL(2,3): specializations of the full invariant", 3)
def _ex_q3_full_group() -> str:
    ctx = gf.prime_field(3)
    G = go.full_pgl(ctx)
    _expect(len(G) == 24, "PGL(2,3) has order 24")
    one = ctx.one()
    res1 = sf.factor_f_lambda(G, one)
    _expect(res1.regular and res1.degree == 3 and res1.count() == 8,
            "f - g should give eight cubics")
    all_cubics = set(upoly.monic_irreducibles(ctx, 3))
    _expect({p for p, _ in res1.factors} == all_cubics, "not the full set of cubics")
    res2 = sf.factor_f_lambda(G, -one)
    _expect(not res2.regular and res2.degree == 2 and res2.multiplicity == 4
            and len(res2.factors) == 3, "f + g should give three quadratics^4")
    res0 = sf.factor_f_lambda(G, ctx.zero())
    _expect(res0.regular and res0.degree == 4 and res0.count() == 6,
            "f should give six quartics")
    return "1 -> 8 cubics; -1 -> 3 quadratics^4; 0 -> 6 quartics"


@_check("paper-examples", "ramification audit for the icosahedral groups", 4)
def _ex_audits() -> str:
    F4 = gf.field_create(2, 2)
    A5 = go.full_pgl(F4)
    _expect(go.nonregular_census(A5) == [(5, 12), (12, 5)],
            "census should be 5 points fixed by 12, 12 by 5")
    audit = go.riemann_hurwitz_audit(A5)
    _expect(audit.passed and audit.sum_differents == 118 == 2 * len(A5) - 2,
            "wild audit is 118 = 2*60 - 2")
    F11 = gf.prime_field(11)
    B = go.a5_subgroup(F11)
    _expect(go.nonregular_census(B) == [(12, 5), (20, 3), (30, 2)],
            "census should be 12, 20, 30 points with stabilizers 5, 3, 2")
    audit_b = go.riemann_hurwitz_audit(B)
    _expect(audit_b.passed and audit_b.tame_sum == 118, "tame audit is 118")
    return "12*4+5*14 = 118 = 12*4+20*2+30*1"


@_check("paper-examples", "class counts and the involution dichotomy", 3)
def _ex_class_counts() -> str:
    for p, m in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)):
        ctx = gf.field_create(p, m)
        q = ctx.order
        labels = cl.conjugacy_classes(ctx)
        invs = [c for c in labels if c.order == 2]
        if p == 2:
            _expect(len(labels) == q + 1 and len(invs) == 1,
                    f"q={q}: q+1 classes, one of them involutions")
            continue
        _expect(len(labels) == q + 2, f"wrong class count at q={q}")
        _expect(len(invs) == 2 and {c.kind for c in invs} == {
            cl.ClassKind.SPLIT_INVOLUTION, cl.ClassKind.NONSPLIT_INVOLUTION},
            "odd q must have two involution classes")
        for c in invs:
            fixed = (len(c.representative.fixed_points(1)),
                     len(c.representative.fixed_points(2)))
            if c.kind is cl.ClassKind.SPLIT_INVOLUTION:
                _expect(fixed[0] == 2, "a split involution fixes two rational points")
            else:
                _expect(fixed == (0, 2), "a nonsplit involution fixes two points off F_q")
    return "q+1 classes for even q, q+2 for odd q"


@_check("paper-examples", "points of the rational line label the classes (q=4)", 4)
def _ex_q4_correspondence() -> str:
    ctx = gf.field_create(2, 2)
    ident = cl.class_of_lambda(ctx, mo.INFINITY)
    _expect(ident.kind is cl.ClassKind.IDENTITY, "infinity labels the identity class")
    _expect(len(cl.conjugacy_classes(ctx)) == 5, "PGL(2,4) has five classes")
    mu = cl.quadratic_orbit_value(ctx)
    G = go.full_pgl(ctx)
    seen = {(ident.kind, ident.representative.key())}
    for v in ctx.elements():
        label = cl.class_of_lambda(ctx, mo.ProjPoint(v))
        _expect(isinstance(label, cl.ClassLabel), "even q never ambiguous")
        actual = sf.factor_f_lambda(G, v)
        if v == mu:
            _expect(label.order == 2, "mu labels the involution class")
        else:
            _expect(label == cl.class_of(ctx, actual.witness),
                    "the class of the element moving a root to its q-th power")
        pattern = cl.factor_pattern_of_class(ctx, v)
        _expect((actual.degree, actual.multiplicity, len(actual.factors))
                == (pattern.degree, pattern.multiplicity, pattern.count),
                "the class predicts the factor pattern")
        _expect(actual.input.deg == pattern.degree * pattern.count * pattern.multiplicity,
                "the predicted pattern accounts for the whole degree")
        seen.add((label.kind, label.representative.key()))
    _expect(len(seen) == 5, "infinity and the four finite values hit five distinct classes")
    return "bijection onto the 5 classes, infinity -> identity"


@_check("paper-examples", "infinity conventions and the composition table", 19)
def _ex_action_conventions() -> str:
    ctx = gf.prime_field(19)
    s = mo.parse_moebius(ctx, "(-x-1)/(x-1)")
    _expect(s.apply(mo.INFINITY) == mo.ProjPoint(ctx.elem(-1)), "s(inf) = a/c")
    _expect(s.apply(mo.ProjPoint(ctx.zero())) == mo.ProjPoint(ctx.one()), "s(0) = 1")
    F5 = gf.prime_field(5)
    st = mo.parse_moebius(F5, "-x").compose(mo.parse_moebius(F5, "(1)/(x)"))
    _expect(st == mo.parse_moebius(F5, "(-1)/(x)"), "(-x) after (1/x) is -1/x")
    group = go.generate(F5, [mo.parse_moebius(F5, "-x"), mo.parse_moebius(F5, "(1)/(x)")])
    _expect(len(group) == 4 and not group.is_cyclic(), "elementary abelian of order 4")
    _expect(len(go.nonregular_census(group)) == 3, "three non-regular orbits")
    return "conventions check out"


@_check("paper-examples", "element orders in the named examples", 7)
def _ex_orders() -> str:
    checks = [(19, "(-x-1)/(x-1)", 4), (17, "(14x+13)/(6x+2)", 3), (7, "(3x-1)/(x+3)", 8)]
    for p, text, want in checks:
        ctx = gf.prime_field(p)
        _expect(mo.parse_moebius(ctx, text).order() == want, f"order of {text} is {want}")
    return "orders 4, 3, 8"


@_check("paper-examples", "order exactly q+1 means an irreducible companion", 5)
def _ex_order_q1_irreducible() -> str:
    ctx = gf.prime_field(5)
    q = ctx.order
    G = go.full_pgl(ctx)
    for s in G.elements:
        if s.is_identity():
            continue
        ps = sf.frobenius_companion(s)
        irreducible_full = ps.deg == q + 1 and upoly.is_irreducible(ps)
        _expect((s.order() == q + 1) == irreducible_full,
                "irreducible at degree q+1 exactly for order q+1")
    return "checked all of PGL(2,5)"


@_check("paper-examples", "PGL(2,q) orbits over the quadratic extension", 7)
def _ex_pgl_orbits() -> str:
    ctx = gf.prime_field(7)
    G = go.full_pgl(ctx)
    report = go.orbit_decomposition(G, 1)
    _expect(len(report.orbits) == 1 and report.orbits[0].size == 8,
            "one orbit on the rational line")
    report2 = go.orbit_decomposition(G, 2)
    stats = sorted((o.size, len(o.stabilizer)) for o in report2.orbits)
    _expect(stats == [(8, 42), (42, 8)], "stabilizers of orders q(q-1) and q+1")
    return "orbit sizes 8 and 42 with stabilizers 42 and 8"


@_check("paper-examples", "centralizers: cyclic q+1 for nonsplit, order q for unipotent", 5)
def _ex_centralizers() -> str:
    ctx = gf.prime_field(5)
    G = go.full_pgl(ctx)
    s6 = next(s for s in G.elements if s.order() == 6)
    C = go.centralizer(G, s6)
    _expect(len(C) == 6 and C.is_cyclic(), "cyclic of order q+1")
    u = mo.parse_moebius(ctx, "x+1")
    Cu = go.centralizer(G, u)
    _expect(len(Cu) == 5, "order q for unipotent")
    ident = mo.Moebius.identity(ctx)
    _expect(go.centralizer(G, ident) == G, "identity is central")
    return "orders 6 and 5"


@_check("paper-examples", "closed-form full-group invariant", 2)
def _ex_pgl_generator() -> str:
    for p, m in ((2, 1), (3, 1)):
        ctx = gf.field_create(p, m)
        phi = inv.pgl_generator(ctx)
        for s in go.full_pgl(ctx).elements:
            _expect(phi.compose_moebius(s) == phi, "not invariant under the full group")
    return "invariant under all of PGL(2,2) and PGL(2,3)"


@_check("paper-examples", "solution counts and the involution characterization", 3)
def _ex_involution_solutions() -> str:
    for p in (2, 3):
        ctx = gf.prime_field(p)
        q = ctx.order
        G = go.full_pgl(ctx)
        for s in G.elements:
            if s.is_identity():
                continue
            ps = sf.frobenius_companion(s)
            count = ps.deg  # squarefree, so the number of finite solutions
            _expect(upoly.gcd(ps, ps.derivative()).deg == 0, "companion not squarefree")
            _expect(count in (q, q + 1), "solution count is q or q+1")
            quadratics = [h for h, _ in upoly.factorize(ps).factors if h.deg == 2]
            if s.order() == 2:
                _expect(quadratics, "an involution must move some quadratic point")
            for h in quadratics:
                witness = sf.frobenius_element(G, h)
                _expect(witness.order() == 2, "only involutions act there")
    return "counts in {q, q+1}; quadratic solutions pin involutions"


@_check("paper-examples", "degree-3 elements give all cubics at once", 3)
def _ex_all_cubics() -> str:
    for p, count in ((2, 2), (3, 8)):
        ctx = gf.prime_field(p)
        cubics = list(upoly.monic_irreducibles(ctx, 3))
        _expect(len(cubics) == count, "cubic counts differ")
        _expect(sf.all_cubics_product(ctx) == math.prod(cubics, start=upoly.Poly.one(ctx)),
                "not the product of every cubic")
    return "2 cubics over GF(2), 8 over GF(3)"


@_check("paper-examples", "Lang equation solved across PGL(2,q), q in {2,3}", 2)
def _ex_lang() -> str:
    for p in (2, 3):
        ctx = gf.prime_field(p)
        q = ctx.order
        for s in go.full_pgl(ctx).elements:
            sol = cl.lang_solve(s)
            _expect(sol.finite_count in (q, q + 1), "bad solution count")
            sigma_t = mo.Moebius(*(e ** q for e in sol.t.entries()))
            _expect(sigma_t.inverse().compose(sol.t) == s.lift_to(sol.ext),
                    "s differs from sigma(t)^(-1) t")
            t_inv = sol.t.inverse()
            image = {t_inv.apply(mo.ProjPoint(gf.embed(v, sol.ext))) for v in ctx.elements()}
            image.add(t_inv.apply(mo.INFINITY))
            _expect(image == set(sol.solution_points), "X_s differs from t^(-1)(P^1(F_q))")
    return "all elements expressible as sigma(t)^(-1) t"


# -- lemmas ---------------------------------------------------------------------------


@_check("lemmas", "fixed-point counts over the closure", 5)
def _lm_two_fixed() -> str:
    for p, m in ((2, 1), (3, 1), (5, 1), (2, 2)):
        ctx = gf.field_create(p, m)
        for s in go.full_pgl(ctx).elements:
            if s.is_identity():
                continue
            fixed = s.fixed_points(2)
            want = 1 if s.classify() is mo.MoebiusClass.UNIPOTENT else 2
            _expect(len(fixed) == want, "wrong fixed-point count")
    return "1 for unipotent, 2 otherwise"


@_check("lemmas", "powers share fixed points", 5)
def _lm_powersfix() -> str:
    ctx = gf.prime_field(5)
    for s in go.full_pgl(ctx).elements:
        if s.is_identity():
            continue
        for r in range(2, s.order()):
            sr = s.power(r)
            if sr.is_identity():
                continue
            _expect(sr.fixed_points(2) == s.fixed_points(2), "powers moved a fixed point")
    return "fixed points stable under nonvanishing powers"


@_check("lemmas", "fixed-point-free cyclic actions on the rational line", 7)
def _lm_nofixed() -> str:
    for p in (3, 5, 7):
        ctx = gf.prime_field(p)
        q = ctx.order
        G = go.full_pgl(ctx)
        seen = set()
        for s in G.elements:
            r = s.order()
            if r <= 2 or (q + 1) % r:
                continue
            H = go.Subgroup(ctx, s.powers())
            if H in seen:
                continue
            seen.add(H)
            for h in H.elements:
                if h.is_identity():
                    continue
                _expect(not h.fixed_points(1), "unexpected rational fixed point")
            census = go.nonregular_census(H)
            _expect(census == [(1, r), (1, r)], "two singleton orbits over the closure")
            report = go.orbit_decomposition(H, 1)
            _expect(all(o.regular for o in report.orbits), "regular on the rational line")
    return "regular on P^1(F_q) with two closure fixed points"


@_check("lemmas", "at most three non-regular orbits; two when p divides the order", 7)
def _lm_census_bounds() -> str:
    for p in (3, 4, 5, 7):
        ctx = gf.field_create(2, 2) if p == 4 else gf.prime_field(p)
        G = go.full_pgl(ctx)
        seen = set()
        for s in G.elements:
            if s.is_identity():
                continue
            H = go.Subgroup(ctx, s.powers())
            if H in seen:
                continue
            seen.add(H)
            census = go.nonregular_census(H)
            _expect(len(census) <= 3, "more than three non-regular orbits")
            if len(H) % ctx.p == 0:
                _expect(len(census) <= 2, "p divides |G| but three orbits")
                _expect((len(census) == 1) == (len(H) == ctx.p),
                        "single orbit iff a p-group here")
    return "bounds hold for all cyclic subgroups"


@_check("lemmas", "centralizer orders are multiples of q-1, q, or q+1", 7)
def _lm_centralizer_estimate() -> str:
    for p in (3, 5, 7):
        ctx = gf.prime_field(p)
        q = ctx.order
        for label in cl.conjugacy_classes(ctx):
            if label.kind is cl.ClassKind.IDENTITY:
                continue
            n = label.centralizer_order
            _expect(n % (q - 1) == 0 or n % q == 0 or n % (q + 1) == 0,
                    "centralizer order misses the divisibility")
            _expect(n >= q - 1, "centralizer too small")
    return "orders at least q-1"


@_check("lemmas", "commuting actions force equal-size Frobenius orbits", 3)
def _lm_comm_action() -> str:
    ctx = gf.prime_field(3)
    G = go.full_pgl(ctx)
    for v in ctx.elements():
        res = sf.factor_f_lambda(G, v)
        if res.regular:
            degrees = {poly.deg for poly, _ in res.factors}
            _expect(len(degrees) == 1, "mixed Frobenius orbit sizes in one group orbit")
    return "all factors share one degree per specialization"


@_check("lemmas", "non-proportional numerator and denominator lines", 7)
def _lm_distinct_lines() -> str:
    ctx = gf.prime_field(7)
    s = mo.parse_moebius(ctx, "(3x-1)/(x+3)")
    inv.orbit_polynomial(go.generate(ctx, [s]))  # raises if lines collide
    return "verified during assembly"


@_check("lemmas", "Frobenius commutes with the rational action", 3)
def _lm_frobenius_equivariance() -> str:
    for p, m, k in ((2, 1, 3), (3, 1, 2)):
        ctx = gf.field_create(p, m)
        ext = gf.extension_of(ctx, k)
        pts = [mo.INFINITY] + [mo.ProjPoint(v) for v in ext.elements()]
        for s in go.full_pgl(ctx).elements:
            lifted = s.lift_to(ext)
            for z in pts:
                _expect(mo.frobenius_point(lifted.apply(z)) ==
                        lifted.apply(mo.frobenius_point(z)), "equivariance failed")
    return "sigma(s(z)) = s(sigma(z))"


@_check("lemmas", "Sylow count of elements of order p", 3)
def _lm_sylow_count() -> str:
    for p in (2, 3, 5):
        ctx = gf.prime_field(p)
        G = go.full_pgl(ctx)
        M = sum(1 for s in G.elements if s.order() == ctx.p)
        _expect(M % ctx.p == ctx.p - 1, "count of order-p elements is -1 mod p")
    return "M = -1 mod p"


@_check("lemmas", "conjugating the rational group into the solution frame", 2)
def _lm_lang_conjugation() -> str:
    ctx = gf.prime_field(2)
    q = ctx.order
    G = go.full_pgl(ctx)
    for s in G.elements:
        sol = cl.lang_solve(s)
        ext = sol.ext
        t_inv = sol.t.inverse()
        s_ext = s.lift_to(ext)
        for g in G.elements:
            h = t_inv.compose(g.lift_to(ext)).compose(sol.t)
            sigma_h = mo.Moebius(*(e ** q for e in h.entries()))
            _expect(sigma_h == s_ext.compose(h).compose(s_ext.inverse()),
                    "conjugation does not twist by s as required")
    return "sigma acts on t^(-1) PGL(2,q) t by conjugation with s"
