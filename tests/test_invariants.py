import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from orbitfactor import gf, grouporbit as go, invariants as inv, moebius as mo, upoly
from orbitfactor.errors import InvariantViolation, PoleError, TrivialGroupError


def P(ctx, *ints):
    return upoly.Poly.from_ints(ctx, list(ints))


def RF(ctx, num, den):
    return inv.RatFunc(P(ctx, *num), P(ctx, *den))


def test_ratfunc_reduction(F7):
    r = RF(F7, (0, 2, 2), (0, 2))  # (2x^2+2x)/(2x) -> (x+1)/1
    assert r.num == P(F7, 1, 1) and r.den == upoly.Poly.one(F7)
    assert RF(F7, (0,), (0, 5)).num == upoly.Poly.zero(F7)


def test_ratfunc_den_monic(F7):
    r = RF(F7, (1, 1), (0, 3))
    assert r.den.is_monic()
    assert r == RF(F7, (5, 5), (0, 1))


def test_ratfunc_field_ops(F7):
    a = RF(F7, (1, 1), (0, 1))   # (x+1)/x
    b = RF(F7, (2,), (1, 1))     # 2/(x+1)
    assert a * b == RF(F7, (2,), (0, 1))
    assert (a + b) - b == a
    assert (a / b) * b == a


def test_eval_points(F7):
    r = RF(F7, (1, 0, 1), (0, 1))  # (x^2+1)/x
    assert r.eval_point(mo.ProjPoint(F7.elem(2))) == mo.ProjPoint(F7.elem(5) / F7.elem(2))
    assert r.eval_point(mo.ProjPoint(F7.zero())) == mo.INFINITY
    assert r.eval_point(mo.INFINITY) == mo.INFINITY  # deg num > deg den
    s = RF(F7, (1,), (0, 1))
    assert s.eval_point(mo.INFINITY) == mo.ProjPoint(F7.zero())
    t = RF(F7, (1, 3), (2, 1))
    assert t.eval_point(mo.INFINITY) == mo.ProjPoint(F7.elem(3))


def test_eval_identity_function(F7):
    ident = inv.RatFunc.x(F7)
    for v in F7.elements():
        assert ident.eval_point(mo.ProjPoint(v)) == mo.ProjPoint(v)


def test_compose_with_group_element_fixes_invariant(F7):
    s = mo.parse_moebius(F7, "(3x-1)/(x+3)")
    G = go.generate(F7, [s])
    phi = inv.invariant_generator(G)
    for g in G:
        assert phi.compose_moebius(g) == phi


def test_orbit_polynomial_identity_group(F7):
    G = go.generate(F7, [])
    Pg = inv.orbit_polynomial(G)
    assert len(Pg.coeffs) == 2
    assert Pg.coeffs[1] == inv.RatFunc.constant(F7.one())
    assert Pg.coeffs[0] == inv.RatFunc(P(F7, 0, -1), upoly.Poly.one(F7))  # -x


def test_orbit_polynomial_order_four_example(F19):
    s = mo.parse_moebius(F19, "(-x-1)/(x-1)")
    Pg = inv.orbit_polynomial(go.generate(F19, [s]))
    t = inv.RatFunc(P(F19, 1, 0, -6, 0, 1), P(F19, 0, -1, 0, 1))
    assert Pg.coeffs[1] == t
    assert Pg.coeffs[3] == inv.RatFunc.constant(F19.zero()) - t
    assert Pg.coeffs[2] == inv.RatFunc.constant(F19.elem(-6))
    assert Pg.coeffs[0] == inv.RatFunc.constant(F19.one())


def test_orbit_polynomial_order_three_example():
    F17 = gf.prime_field(17)
    s = mo.parse_moebius(F17, "(14x+13)/(6x+2)")
    Pg = inv.orbit_polynomial(go.generate(F17, [s]))
    den = P(F17, 3, 15, 1)
    assert Pg.coeffs[2] == inv.RatFunc(P(F17, 10, 2, 0, 16), den)
    assert Pg.coeffs[1] == inv.RatFunc(P(F17, 8, 0, 15, 2), den)
    assert Pg.coeffs[0] == inv.RatFunc(P(F17, 0, 9, 7, 14), den)


def test_orbit_polynomial_degrees_and_common_denominator(F5):
    G = go.full_pgl(F5)
    Pg = inv.orbit_polynomial(G)
    m = len(G)
    dens = set()
    for coeff in Pg.coeffs:
        if coeff.is_constant():
            continue
        assert coeff.num.deg == m
        assert coeff.den.deg < m
        dens.add(coeff.den)
    assert len(dens) == 1
    A = dens.pop()
    roots = upoly.roots_in(A, F5)
    total = sum(1 for root in roots)
    # splits completely: degree equals the number of distinct roots with multiplicity
    prod = upoly.Poly.one(F5)
    for root in roots:
        lin = P(F5, 1) * upoly.Poly(F5, (-root, F5.one()))
        while (A % lin) == upoly.Poly.zero(F5):
            A = A // lin
            prod = prod * lin
    assert A.deg == 0


def test_orbit_polynomial_has_x_as_root(F7):
    s = mo.parse_moebius(F7, "(3x-1)/(x+3)")
    Pg = inv.orbit_polynomial(go.generate(F7, [s.power(4)]))  # order 2
    x = inv.RatFunc.x(F7)
    acc = inv.RatFunc.constant(F7.zero())
    xpow = inv.RatFunc.constant(F7.one())
    for coeff in Pg.coeffs:
        acc = acc + coeff * xpow
        xpow = xpow * x
    assert acc == inv.RatFunc.constant(F7.zero())


def test_family_reconstruction(F19, F7):
    for ctx, text in ((F19, "(-x-1)/(x-1)"), (F7, "(3x-1)/(x+3)")):
        s = mo.parse_moebius(ctx, text)
        Pg = inv.orbit_polynomial(go.generate(ctx, [s]))
        t = Pg.parameter
        for coeff, (a, b) in zip(Pg.coeffs, Pg.family):
            assert coeff == t * inv.RatFunc.constant(a) + inv.RatFunc.constant(b)


def test_invariant_generator_rescaled_monic(F7):
    s = mo.parse_moebius(F7, "(3x-1)/(x+3)")
    phi = inv.invariant_generator(go.generate(F7, [s]))
    f, g = phi.monic_pair()
    assert f.is_monic() and f.deg == 8
    assert g.deg < 8
    assert phi.degree == 8
    # known form: numerator x^8+1 up to the affine ambiguity, denominator x^7-x
    xqx = upoly.Poly.x_pow(F7, 7) - upoly.Poly.x(F7)
    assert g.monic() == xqx
    diff = f - (upoly.Poly.x_pow(F7, 8) + upoly.Poly.one(F7))
    assert not diff or (diff % xqx == upoly.Poly.zero(F7) and (diff // xqx).deg <= 0)


def test_invariant_generator_trivial_group(F7):
    with pytest.raises(TrivialGroupError):
        inv.invariant_generator(go.generate(F7, []))


def test_generator_denominator_for_full_cycle(F5):
    # order q+1 cyclic: denominator is a scalar multiple of x^q - x
    G5 = go.full_pgl(F5)
    s = next(t for t in G5 if t.order() == 6)
    phi = inv.invariant_generator(go.generate(F5, [s]))
    assert phi.den.monic() == upoly.Poly.x_pow(F5, 5) - upoly.Poly.x(F5)


@pytest.mark.parametrize("p", [2, 3])
def test_pgl_generator_invariance(p):
    ctx = gf.prime_field(p)
    phi = inv.pgl_generator(ctx)
    assert phi.degree == ctx.order ** 3 - ctx.order
    for s in go.full_pgl(ctx):
        assert phi.compose_moebius(s) == phi


def test_pgl_generator_translation_invariance(F5):
    phi = inv.pgl_generator(F5)
    assert phi.compose_moebius(mo.parse_moebius(F5, "x+1")) == phi


def test_specialize_regular_orbit(F19):
    s = mo.parse_moebius(F19, "(-x-1)/(x-1)")
    G = go.generate(F19, [s])
    Pg = inv.orbit_polynomial(G)
    h = gf.least_irreducible(F19, 4)
    ext = gf.extend(F19, h)
    alpha = ext.gen()
    f = Pg.specialize(alpha)
    assert f.deg == 4 and f.is_monic()
    assert upoly.gcd(f, f.derivative()).deg == 0  # squarefree
    assert f(alpha) == ext.zero()


def test_specialize_nonregular_orbit(F7):
    s = mo.parse_moebius(F7, "(3x-1)/(x+3)")
    s2 = s.power(2)  # order 4 | q+1
    G = go.generate(F7, [s2])
    fixed = s2.fixed_points(2)
    alpha = next(z.value for z in fixed if z.value is not None)
    Pg = inv.orbit_polynomial(G)
    ext = alpha.ctx
    lin = upoly.Poly(ext, (-alpha, ext.one()))
    assert Pg.specialize(alpha) == lin.pow(4)


def test_specialize_headline_quartics(F19):
    s = mo.parse_moebius(F19, "(-x-1)/(x-1)")
    G = go.generate(F19, [s])
    Pg = inv.orbit_polynomial(G)
    coeffs = [0] * 21
    coeffs[20], coeffs[19], coeffs[1], coeffs[0] = 1, -1, 1, 1
    big = upoly.Poly.from_ints(F19, coeffs)
    h = upoly.least_degree_factor(big)
    ext = gf.extend(F19, h)
    alpha = ext.gen()
    special = Pg.specialize(alpha)
    down = upoly.Poly(F19, tuple(gf.down_cast(c, F19) for c in special.coeffs))
    assert down == h


def test_specialize_pole(F7):
    s = mo.parse_moebius(F7, "(3x-1)/(x+3)")
    G = go.generate(F7, [s])
    Pg = inv.orbit_polynomial(G)
    pole = upoly.roots_in(Pg.parameter.den, F7)[0]
    with pytest.raises(PoleError):
        Pg.specialize(pole)


def _specialize_coefficientwise(P, alpha):
    """The orbit polynomial with each coefficient num/den evaluated at alpha."""
    out = []
    for coeff in P.coeffs:
        den = coeff.den(alpha)
        if not den:
            raise PoleError(f"coefficient denominator vanishes at {alpha}")
        out.append(coeff.num(alpha) / den)
    return upoly.Poly(alpha.ctx, out)


@pytest.mark.parametrize("p,m,gens", [
    (7, 1, ["(3x-1)/(x+3)"]),        # cyclic of order q+1
    (5, 1, ["-x", "(1)/(x)"]),       # Klein four-group
    (3, 1, None),                    # PGL(2,3)
    (2, 2, None),                    # PGL(2,4), the A5 of characteristic 2
])
def test_specialize_matches_coefficientwise_evaluation(p, m, gens):
    ctx = gf.field_create(p, m)
    G = (go.full_pgl(ctx) if gens is None
         else go.generate(ctx, [mo.parse_moebius(ctx, g) for g in gens]))
    P = inv.orbit_polynomial(G)
    ext = gf.extension_of(ctx, 2)
    for alpha in list(ctx.elements()) + list(ext.elements()):
        try:
            want = _specialize_coefficientwise(P, alpha)
        except PoleError:
            with pytest.raises(PoleError):
                P.specialize(alpha)
        else:
            assert P.specialize(alpha) == want
    a_hat = upoly.Poly(ctx, [a for a, _ in P.family])
    poles = upoly.roots_in(a_hat, ext)
    assert poles
    for alpha in poles:
        with pytest.raises(PoleError):
            P.specialize(alpha)


@pytest.mark.parametrize("power", [1, 2])
def test_pole_orbit_is_one_regular_orbit(F7, power):
    # for cyclic order r > 2 dividing q+1, the denominator roots plus infinity
    # form a single regular orbit, exactly where the generator evaluates to it
    s = mo.parse_moebius(F7, "(3x-1)/(x+3)").power(power)
    G = go.generate(F7, [s])
    phi = inv.invariant_generator(G)
    pole_points = {mo.INFINITY} | {mo.ProjPoint(r)
                                   for r in upoly.roots_in(phi.den, F7)}
    assert len(pole_points) == len(G)
    report = go.orbit_decomposition(G, 1)
    matching = [o for o in report.orbits if set(o.points) == pole_points]
    assert len(matching) == 1 and matching[0].regular
    for z in mo.projective_line(F7):
        value = phi.eval_point(z)
        assert (value == mo.INFINITY) == (z in pole_points)


def test_phi_orbit_test_partitions(F7):
    s = mo.parse_moebius(F7, "(3x-1)/(x+3)")
    s2 = s.power(2)
    G = go.generate(F7, [s2])
    phi = inv.invariant_generator(G)
    report = go.orbit_decomposition(G, 1)
    orbits = [o.points for o in report.orbits]
    assert len(orbits) == 2
    a0, a1 = orbits[0][0], orbits[0][1]
    b0, b1 = orbits[1][0], orbits[1][1]
    assert phi.eval_point(a0) == phi.eval_point(a1)
    assert phi.eval_point(a0) != phi.eval_point(b0)
    assert phi.eval_point(b0) == phi.eval_point(b1)


def test_phi_same_value_on_quadratic_layer_full_group(F3):
    # all points of the quadratic layer share one invariant value
    G = go.full_pgl(F3)
    phi = inv.invariant_generator(G)
    ext = gf.extension_of(F3, 2)
    values = {phi.eval_point(mo.ProjPoint(v))
              for v in ext.elements() if not gf.in_subfield(v, F3)}
    assert len(values) == 1
    val = values.pop()
    assert val.value is not None and gf.in_subfield(val.value, F3)


@pytest.mark.parametrize("p", [2, 3])
def test_phi_rational_on_small_layers(p):
    # degree-2 and degree-3 points all take rational invariant values
    ctx = gf.prime_field(p)
    G = go.full_pgl(ctx)
    phi = inv.invariant_generator(G)
    for k in (2, 3):
        ext = gf.extension_of(ctx, k)
        for v in ext.elements():
            value = phi.eval_point(mo.ProjPoint(v))
            assert value.value is None or gf.in_subfield(value.value, ctx)


def test_orbit_polynomial_cache_is_bounded():
    ctx = gf.prime_field(11)
    involutions = [s for s in go.full_pgl(ctx) if s.order() == 2]
    groups = [go.generate(ctx, [s]) for s in involutions[:65]]
    for G in groups:
        inv.orbit_polynomial(G)
    assert inv.orbit_polynomial.cache_info().currsize == 64
    misses = inv.orbit_polynomial.cache_info().misses
    inv.orbit_polynomial(groups[-1])
    assert inv.orbit_polynomial.cache_info().misses == misses
    inv.orbit_polynomial(groups[0])  # the oldest entry was evicted
    assert inv.orbit_polynomial.cache_info().misses == misses + 1


# -- the family from two orbits ----------------------------------------------------

FAMILY_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1),
                 (2, 4), (17, 1), (5, 2), (31, 1)]


def _expanded(G):
    """(coeffs, family, param_index) of the orbit polynomial by the O(|G|^3)
    expansion: the product of (c_g*x + d_g)*T - (a_g*x + b_g) over G in
    F_q[x][T], each T-coefficient reduced over the leading one, and the
    family read off the reduced coefficients.  A reference only."""
    ctx = G.ctx
    acc = [upoly.Poly.one(ctx)]
    for s in G:
        u, v = upoly.Poly(ctx, (s.b, s.a)), upoly.Poly(ctx, (s.d, s.c))
        nxt = [upoly.Poly.zero(ctx)] * (len(acc) + 1)
        for i, coeff in enumerate(acc):
            nxt[i + 1] = nxt[i + 1] + coeff * v
            nxt[i] = nxt[i] - coeff * u
        acc = nxt
    coeffs = tuple(inv.RatFunc(B, acc[-1]) for B in acc)
    param_index = next(i for i, c in enumerate(coeffs) if not c.is_constant())
    t = coeffs[param_index]
    family = []
    for coeff in coeffs:
        if coeff.is_constant():  # num/1, as the denominator is monic
            family.append((ctx.zero(), coeff.num.coeffs[0] if coeff.num else ctx.zero()))
            continue
        lam = coeff.num.lc() / t.num.lc()
        quotient, rem = divmod(coeff.num - t.num.scale(lam), t.den)
        assert not rem and quotient.deg <= 0
        family.append((lam, quotient.coeffs[0] if quotient else ctx.zero()))
    return coeffs, tuple(family), param_index


def _assert_matches_the_expansion(G):
    Pg = inv.orbit_polynomial(G)
    coeffs, family, param_index = _expanded(G)
    assert (Pg.coeffs, Pg.family, Pg.param_index) == (coeffs, family, param_index)
    assert inv.orbit_family(G) == (family, param_index)
    assert all(a.ctx == G.ctx and b.ctx == G.ctx for a, b in family)


def _closure(ctx, gens, limit=130):
    """<gens> by breadth-first closure, or None once it has more than limit elements."""
    seen = {mo.Moebius.identity(ctx)}
    frontier = list(seen)
    while frontier and len(seen) <= limit:
        nxt = []
        for s in frontier:
            for g in gens:
                t = g.compose(s)
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return go.Subgroup(ctx, seen) if len(seen) <= limit else None


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.sampled_from(FAMILY_FIELDS),
       st.lists(st.lists(st.integers(min_value=0, max_value=30), min_size=4, max_size=4),
                min_size=1, max_size=2))
def test_orbit_family_matches_the_expansion(field, generators):
    ctx = gf.field_create(*field)
    gens = []
    for entries in generators:
        a, b, c, d = (ctx.decode(v % ctx.order) for v in entries)
        assume(a * d - b * c)
        gens.append(mo.Moebius(a, b, c, d))
    G = _closure(ctx, gens)
    assume(G is not None)
    assert G == go.generate(ctx, gens)
    if len(gens) == 1:
        assert go.Subgroup(ctx, gens[0].powers()) == G
    _assert_matches_the_expansion(G)


# the transitive groups that are not the nonsplit torus need z from F_{q^2};
# the torus reads its constants off a companion polynomial, and the others
# find z in F_q
@pytest.mark.parametrize("field, text", [
    ((7, 1), "(3x-1)/(x+3)"),   # nonsplit of order q+1: transitive on P^1(F_7)
    ((2, 2), "(1)/(x+[0,1])"),  # nonsplit of order q+1 = 5 over F_4
    ((5, 1), "x+1"),            # unipotent: G(inf) = {inf}
    ((2, 1), "x+1"),
    ((3, 1), "(2x+1)/(x+1)"),   # two orbits of order (q+1)/2, one of them G(inf)
    ((7, 1), "(3x-1)/(x+3) (1)/(x)"),  # dihedral of order 16, transitive
    ((3, 1), "(-1)/(x) (x+1)/(x-1)"),  # Klein four, regular on P^1(F_3): not a torus
    ((11, 1), "(1)/(6x) (x+1)/(8x+1)"),  # A4 of order q+1, regular on P^1(F_11): not a torus
])
def test_orbit_family_from_the_quadratic_extension(monkeypatch, field, text):
    ctx = gf.field_create(*field)
    G = go.generate(ctx, [mo.parse_moebius(ctx, gen) for gen in text.split()])
    transitive = len({g.apply(mo.INFINITY) for g in G}) == ctx.order + 1
    torus = transitive and G.is_cyclic() and len(G) == ctx.order + 1
    built, extension_of = [], gf.extension_of

    def recording(base, k, cap=None):
        built.append((base, k))
        return extension_of(base, k, cap=cap)

    monkeypatch.setattr(gf, "extension_of", recording)
    inv.orbit_family(G)
    assert built == ([(ctx, 2)] if transitive and not torus else [])
    _assert_matches_the_expansion(G)


def _family_from_the_quadratic_extension(G):
    """(family, param_index) with the constants read off the first two
    orbits on F_{q^2} outside P^1(F_q), as orbit_family did for every
    transitive group before the torus read them off a companion
    polynomial.  A reference only."""
    ctx = G.ctx
    m = len(G)
    entries = [s.key() for s in G.elements]
    at_inf = [ctx.mul(a, ctx.inv(c)) for a, _, c, _ in entries if c]
    A = inv._expand_roots(ctx, at_inf)
    j = next(i for i, a in enumerate(A) if a)
    a_vec = [ctx.mul(a, ctx.inv(A[j])) for a in A] + [0] * (m - len(at_inf))
    F = gf.extension_of(ctx, 2, cap=max(gf.size_cap(), ctx.order ** 2))
    seen, fibres = set(range(ctx.order)), []
    for z in range(ctx.order, F.order):
        if len(fibres) == 2:
            break
        if z not in seen:
            images = [mo.image(F, key, z) for key in entries]
            fibres.append(inv._expand_roots(F, images))
            seen.update(images)
    c, c2 = fibres
    b_vec = F.addmul(c, F.neg(c[j]), a_vec)
    assert F.addmul(b_vec, c2[j], a_vec) == c2
    return tuple((ctx.decode(a), ctx.decode(b)) for a, b in zip(a_vec, b_vec)), j


@pytest.mark.parametrize("field", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                                   (11, 1), (13, 1), (2, 4), (17, 1)])
def test_torus_family_matches_the_quadratic_extension(field):
    # every element of order q+1 generates one of these tori
    ctx = gf.field_create(*field)
    q = ctx.order
    elements = (mo.Moebius.from_key(ctx, key) for key in go.pgl_keys(ctx))
    tori = {go.Subgroup(ctx, s.powers()) for s in elements if s.order() == q + 1}
    assert len(tori) == q * (q - 1) // 2
    for G in tori:
        assert inv.orbit_family(G) == _family_from_the_quadratic_extension(G)


def test_orbit_family_of_groups_with_few_orbits(F3, F4, F5):
    groups = [go.full_pgl(ctx) for ctx in (gf.prime_field(2), F3, F4, F5)]
    groups.append(go.a5_subgroup(gf.prime_field(11)))
    # dihedral: order 4 over F_3 and F_5, 16 over F_7 (a nonsplit rotation of
    # order 8, transitive on P^1(F_7)) and 10 over F_11 (a split one of order 5)
    for p, rotation in ((3, "-x"), (5, "-x"), (7, "(3x-1)/(x+3)"), (11, "3x")):
        ctx = gf.prime_field(p)
        groups.append(go.generate(ctx, [mo.parse_moebius(ctx, rotation),
                                        mo.parse_moebius(ctx, "(1)/(x)")]))
    # over the tower F_4 -> F_16, a torus of order 17
    F16 = gf.extension_of(F4, 2)
    s = next(s for s in go.full_pgl(F16) if s.order() == 17)
    groups.append(go.Subgroup(s.ctx, s.powers()))
    for G in groups:
        _assert_matches_the_expansion(G)


def _lines_collide_pairwise(G):
    """The former O(r^2) line-collision test, as a reference."""
    def proportional(f, g):
        return f.deg == g.deg and f.monic() == g.monic()

    lines = [(upoly.Poly(G.ctx, (s.b, s.a)), upoly.Poly(G.ctx, (s.d, s.c))) for s in G]
    return any(proportional(u1, u2) or proportional(v1, v2)
               for (u1, v1), (u2, v2) in itertools.combinations(lines, 2))


def test_line_check_raises_exactly_on_proportional_lines(monkeypatch):
    # every cyclic subgroup of order m > 2 dividing q+1 has distinct lines,
    # and the family builder raises for none of them
    checked = 0
    for field in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]:
        ctx = gf.field_create(*field)
        q = ctx.order
        elements = (mo.Moebius.from_key(ctx, key) for key in go.pgl_keys(ctx))
        cyclic = {go.Subgroup(ctx, s.powers()) for s in elements}
        for G in cyclic:
            if len(G) > 2 and (q + 1) % len(G) == 0:
                assert not _lines_collide_pairwise(G)
                inv.orbit_family(G)
                inv.cyclic_family(G.generator())
                checked += 1
    assert checked > 100
    # the Klein four-group <-x, 1/x> over F_3 (4 divides q+1): x and -x
    # share the numerator line; claimed cyclic, it fails the line check
    F3 = gf.prime_field(3)
    G = go.generate(F3, [mo.parse_moebius(F3, t) for t in ("-x", "(1)/(x)")])
    assert len(G) == 4 and _lines_collide_pairwise(G)
    inv.orbit_family(G)
    monkeypatch.setattr(go.Subgroup, "generator", lambda H: H.elements[-1])
    with pytest.raises(InvariantViolation, match="proportional numerator or denominator"):
        inv.orbit_family(G)


def test_line_check_asks_cyclicity_only_when_a_line_repeats(F5, F7, monkeypatch):
    generator_calls, generator = [], go.Subgroup.generator

    def recording(G):
        generator_calls.append(len(G))
        return generator(G)

    monkeypatch.setattr(go.Subgroup, "generator", recording)
    # the torus <s>, s = (3x-1)/(x+3), of order q+1 = 8: asked once, for
    # the companion of a generator; its lines are distinct
    s = mo.parse_moebius(F7, "(3x-1)/(x+3)")
    inv.orbit_family(go.Subgroup(F7, s.powers()))
    assert generator_calls == [8]
    # <s^2> of order 4 and PGL(2,5): neither the torus nor a repeated line
    generator_calls.clear()
    inv.orbit_family(go.Subgroup(F7, s.compose(s).powers()))
    inv.orbit_family(go.full_pgl(F5))
    assert generator_calls == []
    # a Klein four-group over F_3 (4 divides q+1): x and -x share the
    # numerator line, but G is not cyclic, so nothing is raised
    F3 = gf.prime_field(3)
    G = go.generate(F3, [mo.parse_moebius(F3, t) for t in ("-x", "(1)/(x)")])
    assert len(G) == 4 and _lines_collide_pairwise(G)
    inv.orbit_family(G)
    assert generator_calls == [4]


def test_orbit_family_checks_a_third_orbit(monkeypatch):
    # <3x> over F_13 has order 3 and fixes infinity: the fixed point 0 gives
    # the constants, and the orbit of 1 is a third orbit
    F13 = gf.prime_field(13)
    s = mo.parse_moebius(F13, "3x")
    G = go.Subgroup(F13, s.powers())
    expand = inv._expand_roots
    calls = []

    def bent_third(field, roots):
        out = expand(field, roots)
        calls.append(sorted(roots))
        if len(calls) == 3:
            out[1] = field.add(out[1], 1)  # c_1(z2) off the family
        return out

    monkeypatch.setattr(inv, "_expand_roots", bent_third)
    with pytest.raises(InvariantViolation, match="not affine"):
        inv.orbit_family(G)
    assert calls == [[], [0, 0, 0], [1, 3, 9]]  # A(T), c(0), c(1)


def test_orbit_family_checks_the_stabilizer_at_infinity(F5):
    # the dihedral group {x, -x, 1/x, -1/x} has G(inf) = {inf, 0} and
    # G_inf = {x, -x}; without -x the count at infinity is bent
    G = go.generate(F5, [mo.parse_moebius(F5, "-x"), mo.parse_moebius(F5, "(1)/(x)")])
    inv.orbit_family(G)
    bent = go.Subgroup(F5, [g for g in G if g != mo.parse_moebius(F5, "-x")])
    with pytest.raises(InvariantViolation, match="orbit-stabilizer"):
        inv.orbit_family(bent)


def test_orbit_family_checks_the_stabilizer_on_every_orbit():
    # {x, 3x, 9x, x+1} passes at infinity (one point, four maps fix it), but
    # its maps send 0 to {0, 1} while three of them fix 0
    F13 = gf.prime_field(13)
    G = go.Subgroup(F13, [mo.parse_moebius(F13, t) for t in ("x", "3x", "9x", "x+1")])
    assert len(G) == 4
    with pytest.raises(InvariantViolation, match="orbit-stabilizer identity fails on the orbit of 0"):
        inv.orbit_family(G)


def _assert_cyclic_family_matches(s):
    """cyclic_family(s), decoded, against orbit_family on the powers of s."""
    ctx = s.ctx
    a_vec, b_vec, j = inv.cyclic_family(s)
    family = tuple((ctx.decode(a), ctx.decode(b)) for a, b in zip(a_vec, b_vec))
    assert (family, j) == inv.orbit_family(go.Subgroup(ctx, s.powers()))


@pytest.mark.parametrize("field", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                                   (11, 1), (13, 1), (2, 4)])
def test_cyclic_family_matches_orbit_family_on_every_element(field):
    ctx = gf.field_create(*field)
    count = 0
    for key in go.pgl_keys(ctx):
        s = mo.Moebius.from_key(ctx, key)
        if not s.is_identity():
            _assert_cyclic_family_matches(s)
            count += 1
    assert count == ctx.order ** 3 - ctx.order - 1


@pytest.mark.parametrize("field", [(263, 1), (5, 4), (2, 10)])
def test_cyclic_family_matches_orbit_family_on_small_orders(field):
    # s^(o/r) for r <= 40 dividing the order o of seeded random elements:
    # F_263 in the computed tier, F_625 and F_1024 in the log tier
    ctx = gf.field_create(*field)
    rng = random.Random(f"cyclic family {field}")
    orders = set()
    for _ in range(12):
        a, b, c, d = (rng.randrange(ctx.order) for _ in range(4))
        if ctx.mul(a, d) == ctx.mul(b, c):
            continue
        s = mo.Moebius.from_key(ctx, (a, b, c, d))
        o = s.order()
        for r in range(2, 41):
            if o % r == 0:
                _assert_cyclic_family_matches(s.power(o // r))
                orders.add(r)
    assert len(orders) >= 4


@pytest.mark.parametrize("p, m, k", [(2, 1, 3), (3, 1, 2), (2, 2, 2), (5, 1, 2), (2, 3, 2)])
def test_cyclic_family_matches_orbit_family_on_lifts(p, m, k):
    # the family over F_{q^k} of s lifted from F_q, as factor_general_k uses it
    ctx = gf.field_create(p, m)
    ext = gf.extension_of(ctx, k)
    elements = [s for s in go.full_pgl(ctx) if not s.is_identity()]
    for s in random.Random(f"lift {p},{m},{k}").sample(elements, min(20, len(elements))):
        _assert_cyclic_family_matches(s.lift_to(ext))


@pytest.mark.parametrize("field, text, order", [
    ((7, 1), "(3x-1)/(x+3)", 9),  # the walk from infinity, of length 8, does not divide 9
    ((7, 1), "(3x-1)/(x+3)", 7),  # ... nor closes within 7 steps
    ((13, 1), "3x", 4),           # the walk from 1, of length 3, does not divide 4
])
def test_cyclic_family_checks_each_walk_length(monkeypatch, field, text, order):
    ctx = gf.field_create(*field)
    s = mo.parse_moebius(ctx, text)
    inv.cyclic_family(s)
    monkeypatch.setattr(mo.Moebius, "order", lambda t: order)
    with pytest.raises(InvariantViolation, match="orbit-stabilizer"):
        inv.cyclic_family(s)


@pytest.mark.parametrize("point", [0, -1])
def test_cyclic_family_checks_the_stabilizers_of_zero_and_infinity(monkeypatch, F7, point):
    # an element of order 4, dividing q+1 = 8, with 0 and infinity in its
    # two orbits of length 4; the walk from one of them cut to length 2, a
    # stabilizer of order 2, fails the line check
    walk = inv._orbit_walk
    s = next(t for t in go.full_pgl(F7) if t.order() == 4 and 0 not in walk(F7, t.key(), -1, 4))
    inv.cyclic_family(s)
    monkeypatch.setattr(inv, "_orbit_walk", lambda F, key, x, r:
                        walk(F, key, x, r)[:2] if x == point else walk(F, key, x, r))
    with pytest.raises(InvariantViolation, match="proportional numerator or denominator"):
        inv.cyclic_family(s)


def test_cyclic_family_checks_the_second_torus_fibre(monkeypatch, F7):
    # the companion of s^2 is the third fibre of the torus <s> of order 8
    s = mo.parse_moebius(F7, "(3x-1)/(x+3)")
    companion, calls = inv.monic_companion, []

    def bent_second(ctx, key):
        out = companion(ctx, key)
        calls.append(key)
        if len(calls) == 2:
            out[2] = ctx.add(out[2], 1)
        return out

    monkeypatch.setattr(inv, "monic_companion", bent_second)
    with pytest.raises(InvariantViolation, match="not affine"):
        inv.cyclic_family(s)
    assert calls == [s.key(), s.compose(s).key()]


def test_cyclic_family_checks_a_third_orbit(monkeypatch):
    # <3x> over F_13 has order 3 and fixes infinity: the fixed point 0 gives
    # the constants, and the orbit of 1 is a third orbit
    F13 = gf.prime_field(13)
    s = mo.parse_moebius(F13, "3x")
    expand = inv._expand_roots
    calls = []

    def bent_third(field, roots):
        out = expand(field, roots)
        calls.append(roots)
        if len(calls) == 3:
            out[1] = field.add(out[1], 1)  # c_1(1) off the family
        return out

    monkeypatch.setattr(inv, "_expand_roots", bent_third)
    with pytest.raises(InvariantViolation, match="not affine"):
        inv.cyclic_family(s)
    assert calls == [[], [0, 0, 0], [1, 3, 9]]  # A(T), c(0), c(1)
