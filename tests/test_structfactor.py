import dataclasses
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from orbitfactor import classes as cl
from orbitfactor import gf, grouporbit as go, invariants as inv, moebius as mo, upoly
from orbitfactor import structfactor as sf
from orbitfactor.errors import IdentityInputError, InvariantViolation, WrongOrderError


def P(ctx, *ints):
    return upoly.Poly.from_ints(ctx, list(ints))


def test_companion_headline(F19):
    raw, s = mo.parse_moebius_raw(F19, "(-x-1)/(x-1)")
    poly = sf.companion_poly(F19, raw)
    coeffs = [0] * 21
    coeffs[20], coeffs[19], coeffs[1], coeffs[0] = 1, -1, 1, 1
    assert poly == upoly.Poly.from_ints(F19, coeffs)
    # the normalized companion differs only by a unit
    ps = sf.frobenius_companion(s)
    assert ps.monic() == poly.monic()


def test_companion_seventeen():
    F17 = gf.prime_field(17)
    raw, _ = mo.parse_moebius_raw(F17, "(14x+13)/(6x+2)")
    poly = sf.companion_poly(F17, raw)
    coeffs = [0] * 19
    coeffs[18], coeffs[17], coeffs[1], coeffs[0] = 6, 2, -14, -13
    assert poly == upoly.Poly.from_ints(F17, coeffs)


def test_companion_identity_is_field_polynomial(F7):
    s = mo.Moebius.identity(F7)
    assert sf.frobenius_companion(s) == upoly.Poly.x_pow(F7, 7) - upoly.Poly.x(F7)


def test_frobenius_element_quadratic_gives_involution(F7):
    G = go.full_pgl(F7)
    ext = gf.extension_of(F7, 2)
    alpha = next(v for v in ext.elements() if not gf.in_subfield(v, F7))
    s = sf.frobenius_element(G, gf.minimal_poly(alpha, F7))
    assert s.order() == 2
    assert s.apply(mo.ProjPoint(alpha)) == mo.ProjPoint(alpha ** 7)


def test_frobenius_element_cubic_gives_order_three(F5):
    G = go.full_pgl(F5)
    ext = gf.extension_of(F5, 3)
    alpha = ext.gen()
    s = sf.frobenius_element(G, gf.minimal_poly(alpha, F5))
    assert s.order() == 3
    assert s.apply(mo.ProjPoint(alpha)) == mo.ProjPoint(alpha ** 5)


def test_frobenius_element_recovers_witness(F19):
    s = mo.parse_moebius(F19, "(-x-1)/(x-1)")
    res = sf.factor_by_orbit(s)
    G = go.generate(F19, [s])
    alpha = gf.extend(F19, res.factors[0].poly).gen()
    assert sf.frobenius_element(G, gf.minimal_poly(alpha, F19)) == s


def test_frobenius_element_missing_from_the_group(F5):
    # the roots of a cubic are moved to their q-th powers by elements of
    # order 3, and a subgroup of order 2 has none
    G = go.generate(F5, [mo.parse_moebius(F5, "-x")])
    assert len(G) == 2
    cubic = next(upoly.monic_irreducibles(F5, 3))
    with pytest.raises(InvariantViolation):
        sf.frobenius_element(G, cubic)


def test_factor_by_orbit_headline(F19):
    s = mo.parse_moebius(F19, "(-x-1)/(x-1)")
    res = sf.factor_by_orbit(s)
    assert res.degree_r == 4 and len(res.factors) == 5 and not res.removed_linear
    lams = sorted(e.lam.value.rep for e in res.factors)
    assert lams == sorted((-v) % 19 for v in (6, 9, 12, 14, 15))
    for e in res.factors:
        lam = e.lam.value
        assert e.poly == upoly.Poly(F19, (F19.one(), lam, F19.elem(-6), -lam, F19.one()))


def test_factor_by_orbit_seventeen_list():
    F17 = gf.prime_field(17)
    s = mo.parse_moebius(F17, "(14x+13)/(6x+2)")
    res = sf.factor_by_orbit(s)
    listed = [[7, 15, 0, 1], [16, 9, 3, 1], [2, 7, 4, 1],
              [8, 3, 6, 1], [9, 8, 12, 1], [1, 2, 15, 1]]
    assert set(res.monic_factors()) == {P(F17, *c) for c in listed}


def test_factor_by_orbit_order_q_plus_one_is_irreducible(F5):
    s = next(t for t in go.full_pgl(F5) if t.order() == 6)
    res = sf.factor_by_orbit(s)
    assert len(res.factors) == 1 and res.factors[0].poly.deg == 6
    assert upoly.is_irreducible(res.factors[0].poly)


def test_factor_by_orbit_rejects_identity(F7):
    with pytest.raises(IdentityInputError):
        sf.factor_by_orbit(mo.Moebius.identity(F7))


@pytest.mark.parametrize("p,m", [(3, 1), (4, None), (5, 1), (7, 1)])
def test_factor_by_orbit_matches_oracle_everywhere(p, m):
    ctx = gf.field_create(2, 2) if p == 4 else gf.prime_field(p)
    G = go.full_pgl(ctx)
    for s in G:
        if s.is_identity():
            continue
        res = sf.factor_by_orbit(s)
        oracle = upoly.factorize(res.input)
        assert res.as_multiset() == oracle.as_multiset()
        assert res.unit == oracle.unit
        assert res.reconstruct() == res.input


@settings(derandomize=True, max_examples=50, deadline=None)
@given(st.sampled_from([(17, 1), (19, 1), (23, 1), (29, 1), (31, 1), (2, 4), (5, 2), (3, 3)]),
       st.lists(st.integers(min_value=0, max_value=30), min_size=4, max_size=4))
def test_factor_by_orbit_sweep_matches_oracle(field, entries):
    ctx = gf.field_create(*field)
    a, b, c, d = (ctx.decode(v % ctx.order) for v in entries)
    assume(a * d - b * c)
    s = mo.Moebius(a, b, c, d)
    assume(not s.is_identity())
    res = sf.factor_by_orbit(s)
    oracle = upoly.factorize(res.input)
    assert res.unit == oracle.unit
    assert res.as_multiset() == oracle.as_multiset()
    param_index = next(i for i, (lin, _) in enumerate(res.family) if lin)  # the pair (1, 0)
    for entry in res.factors:
        assert entry.lam.value == entry.poly.coeffs[param_index]


def _no_extension(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("no extension field may be built")

    monkeypatch.setattr(gf, "extend", forbidden)


def test_factor_by_orbit_builds_no_extension_field(monkeypatch):
    fields = [gf.field_create(p, m) for p, m in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                                 (2, 3), (3, 2), (11, 1))]
    _no_extension(monkeypatch)
    count = 0
    for ctx in fields:
        for key in go.pgl_keys(ctx):
            s = mo.Moebius.from_key(ctx, key)
            if not s.is_identity():
                assert sf.factor_by_orbit(s).reconstruct() == sf.frobenius_companion(s)
                count += 1
    assert count == 3082


@pytest.mark.parametrize("q", [7, 17, 19])
def test_order_q_plus_one_needs_no_extension_field(monkeypatch, q):
    ctx = gf.prime_field(q)
    elements = (mo.Moebius.from_key(ctx, key) for key in go.pgl_keys(ctx))
    chosen = [s for s in elements if s.order() == q + 1][:4]
    _no_extension(monkeypatch)
    for s in chosen:
        res = sf.factor_by_orbit(s)
        assert len(res.factors) == 1 and res.factors[0].poly == res.input.monic()
        assert sf.lambda_family_report(s).total == q
        P = inv.orbit_polynomial.__wrapped__(go.Subgroup(ctx, s.powers()))
        assert P.family == res.family and len(P.coeffs) == q + 2


RESIDUE = "not a constant times a power of A"
REMAINDER = "nonzero final remainder"


@pytest.mark.parametrize("field, text", [((7, 1), "(3x-1)/(x+3)"), ((19, 1), "(-x-1)/(x-1)"),
                                         ((17, 1), "(14x+13)/(6x+2)"), ((5, 1), "2x")])
def test_factor_by_orbit_rejects_a_bent_family(monkeypatch, field, text):
    ctx = gf.field_create(*field)
    s = mo.parse_moebius(ctx, text)
    a_vec, b_vec, j = inv.cyclic_family(s)
    # bend a constant b_i where a_i = 0: no member of the bent family is a
    # member of the true one, so the expansion fails: at a residue when the
    # companion has several factors, and at the last, linear term when it
    # has one
    message = RESIDUE if len(sf.factor_by_orbit(s).factors) > 1 else REMAINDER
    i = next(i for i, a in enumerate(a_vec) if not a)
    bent = list(b_vec)
    bent[i] = ctx.add(bent[i], 1)
    monkeypatch.setattr(inv, "_cyclic_family", lambda t, r: (a_vec, bent, j))
    with pytest.raises(InvariantViolation, match=message):
        sf.factor_by_orbit(s)


@pytest.mark.parametrize("p,m", [(7, 1), (2, 3)])
def test_factor_by_orbit_builds_no_powers_and_no_subgroup(monkeypatch, p, m):
    # the family of <s> comes from orbit walks of s; for order q+1 no orbit
    # product is expanded either
    ctx = gf.field_create(p, m)
    elements = [mo.Moebius.from_key(ctx, key) for key in go.pgl_keys(ctx)]
    expected = {s: sf.factor_by_orbit(s) for s in elements if not s.is_identity()}

    def forbidden(*args, **kwargs):
        raise AssertionError("factor_by_orbit must not call this")

    monkeypatch.setattr(mo.Moebius, "powers", forbidden)
    monkeypatch.setattr(go.Subgroup, "__init__", forbidden)
    monkeypatch.setattr(inv, "orbit_family", forbidden)
    expand = inv._expand_roots
    tori = 0
    for s, res in expected.items():
        torus = s.order() == ctx.order + 1
        monkeypatch.setattr(inv, "_expand_roots", forbidden if torus else expand)
        assert sf.factor_by_orbit(s) == res
        tori += torus
    assert tori == ctx.order * (ctx.order - 1) // 2 * sf._euler_phi(ctx.order + 1)


def _reference_factor_by_orbit(s):
    """factor_by_orbit as it ran on Poly objects before the sweep moved to
    encoded lists: the reference for the encoded sweep."""
    ctx = s.ctx
    ps = sf.frobenius_companion(s)
    unit = ps.lc()
    work = ps.monic()
    one = ctx.one()
    removed = []
    for z in s.fixed_points(1):
        if z.value is None:
            continue
        lin = upoly.Poly(ctx, (-z.value, one))
        work, rem = divmod(work, lin)
        assert not rem
        removed.append(lin)
    G = go.Subgroup(ctx, s.powers())
    r = len(G)
    assert work.deg % r == 0
    family, j = inv.orbit_family(G)
    assert len(family) == r + 1
    factors = []
    for lam in ctx.elements():
        if work.deg <= r:
            break
        candidate = inv.family_member(ctx, family, lam)
        quotient, rem = divmod(work, candidate)
        if not rem:
            work = quotient
            factors.append(sf.FactorEntry(candidate, mo.ProjPoint(lam)))
    if work.deg:
        lam = work.coeffs[j]
        assert work.deg == r and inv.family_member(ctx, family, lam) == work
        factors.append(sf.FactorEntry(work, mo.ProjPoint(lam)))
    factors.sort(key=lambda e: e.poly.key())
    result = sf.StructuredFactorization(ps, unit, tuple(removed), tuple(factors), r, family)
    assert result.reconstruct() == ps
    return result


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_factor_by_orbit_matches_the_poly_reference(p, m):
    ctx = gf.field_create(p, m)
    kinds = set()
    for key in go.pgl_keys(ctx):
        s = mo.Moebius.from_key(ctx, key)
        if s.is_identity():
            continue
        assert sf.factor_by_orbit(s) == _reference_factor_by_orbit(s)
        kinds.add((s.classify(), key[2] == 0))
    assert ctx.order == 2 or {(mo.MoebiusClass.SPLIT, True), (mo.MoebiusClass.UNIPOTENT, True),
            (mo.MoebiusClass.SPLIT, False), (mo.MoebiusClass.UNIPOTENT, False),
            (mo.MoebiusClass.NONSPLIT, False)} <= kinds


def _small_order_powers(ctx):
    """s^(o/r) for 1 < r <= 40 dividing the order o of x+1, of the first
    x/d of order q-1 and of the first 1/(cx+d) of order q+1."""
    q = ctx.order
    split = next(s for s in (mo.Moebius.from_key(ctx, (1, 0, 0, d)) for d in range(2, q))
                 if s.order() == q - 1)
    nonsplit = next(s for s in (mo.Moebius.from_key(ctx, (0, 1, c, d))
                                for c in range(1, q) for d in range(q))
                    if s.order() == q + 1)
    for s in (mo.Moebius.from_key(ctx, (1, 1, 0, 1)), split, nonsplit):
        o = s.order()
        for r in range(2, 41):
            if o % r == 0:
                yield s.power(o // r)


@pytest.mark.parametrize("p,m", [(263, 1), (7, 3), (2, 9), (5, 4)])
def test_factor_by_orbit_matches_the_poly_reference_on_small_orders(p, m):
    ctx = gf.field_create(p, m)
    count = 0
    for s in _small_order_powers(ctx):
        assert sf.factor_by_orbit(s) == _reference_factor_by_orbit(s)
        count += 1
    assert count >= 6


def test_factor_by_orbit_rejects_a_fixed_point_that_is_not_a_root(monkeypatch, F7):
    s = mo.parse_moebius(F7, "(3x-1)/(x+3)")
    moved = next(x for x in range(7) if mo.image(F7, s.key(), x) != x)
    solve = mo.Moebius.fixed_encodings
    monkeypatch.setattr(mo.Moebius, "fixed_encodings",
                        lambda t, ext: solve(t, ext) + (moved,))
    with pytest.raises(InvariantViolation, match="is not a root of the companion"):
        sf.factor_by_orbit(s)


def test_factor_by_orbit_rejects_a_degree_off_the_order(monkeypatch, F7):
    # 2x fixes infinity and 0; without 0 stripped, T(4T^6 - 1) keeps degree
    # 7, not a multiple of the order 3
    s = mo.parse_moebius(F7, "2x")
    assert s.order() == 3 and s.fixed_encodings(F7) == (-1, 0)
    monkeypatch.setattr(mo.Moebius, "fixed_encodings", lambda t, ext: (-1,))
    with pytest.raises(InvariantViolation, match="not a multiple of the order"):
        sf.factor_by_orbit(s)


def test_factor_by_orbit_rejects_a_family_of_the_wrong_length(monkeypatch, F7):
    s = mo.parse_moebius(F7, "(3x-1)/(x+3)")
    a_vec, b_vec, j = inv.cyclic_family(s)
    monkeypatch.setattr(inv, "_cyclic_family", lambda t, r: (a_vec + [0], b_vec + [1], j))
    with pytest.raises(InvariantViolation, match="degree differs from the order"):
        sf.factor_by_orbit(s)


@pytest.mark.parametrize("text", ["(3x-1)/(x+3)", "2x", "x+1", "(1)/(x)"])
def test_factor_by_orbit_checks_the_reconstruction(monkeypatch, F7, text):
    # the expansion multiplies too, so only the last product, the one that
    # completes the reconstruction, is moved off by one
    s = mo.parse_moebius(F7, text)
    product, calls = upoly.encoded_mul, []

    def counted(ctx, a, b):
        calls.append(None)
        return product(ctx, a, b)

    monkeypatch.setattr(upoly, "encoded_mul", counted)
    sf.factor_by_orbit(s)
    last = len(calls)

    def off_by_one(ctx, a, b):
        out = counted(ctx, a, b)
        if len(calls) == 2 * last:
            out[0] = ctx.add(out[0], 1)
        return out

    monkeypatch.setattr(upoly, "encoded_mul", off_by_one)
    with pytest.raises(InvariantViolation, match="do not reconstruct the input"):
        sf.factor_by_orbit(s)


def test_factor_by_orbit_finds_the_order_once(monkeypatch, F7):
    order, calls = mo.Moebius.order, []

    def counted(t):
        calls.append(t)
        return order(t)

    elements = [t for t in go.full_pgl(F7) if not t.is_identity()]
    monkeypatch.setattr(mo.Moebius, "order", counted)
    for t in elements:
        sf.factor_by_orbit(t)
    assert calls == elements


def _patched_companion(monkeypatch, ctx, text, build):
    """s = text over ctx, with its monic companion replaced by the encoded
    build(a_vec, b_vec) of its family.  For x+1 over F_7 the family is not
    read off companions, so only the factorization sees the patch."""
    s = mo.parse_moebius(ctx, text)
    a_vec, b_vec, _ = inv.cyclic_family(s)
    W = build(a_vec, b_vec)
    monkeypatch.setattr(inv, "monic_companion", lambda field, key: list(W))
    return s


def test_factor_by_orbit_rejects_a_residue_off_the_powers_of_a(monkeypatch, F7):
    # T^14 is monic of degree 2r, and T^14 mod B = T^2 is no constant times A^2 = 1
    s = _patched_companion(monkeypatch, F7, "x+1", lambda a_vec, b_vec: [0] * 14 + [1])
    with pytest.raises(InvariantViolation, match=RESIDUE):
        sf.factor_by_orbit(s)


def test_factor_by_orbit_rejects_a_nonzero_final_remainder(monkeypatch, F7):
    # 2*F_3 expands as 2*B + 6*A: the residue passes, and 2 is left over
    s = _patched_companion(monkeypatch, F7, "x+1",
                           lambda a_vec, b_vec: F7.addmul([0] * 8, 2, F7.addmul(b_vec, 3, a_vec)))
    with pytest.raises(InvariantViolation, match=REMAINDER):
        sf.factor_by_orbit(s)


def test_factor_by_orbit_rejects_a_repeated_root(monkeypatch, F7):
    # F_3^2 expands fully, but P(Y) = (Y + 3)^2 has one root, not two
    s = _patched_companion(monkeypatch, F7, "x+1", lambda a_vec, b_vec: upoly.encoded_mul(
        F7, F7.addmul(b_vec, 3, a_vec), F7.addmul(b_vec, 3, a_vec)))
    with pytest.raises(InvariantViolation, match="P has 1 distinct roots in F_\\(q\\^k\\), not 2"):
        sf.factor_by_orbit(s)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_split_involution_vs_nonsplit_involution(p):
    # split: two rational fixed points -> stripped linears then quadratics
    G = go.full_pgl(gf.prime_field(p))
    for s in G:
        if s.order() != 2:
            continue
        res = sf.factor_by_orbit(s)
        if s.classify() is mo.MoebiusClass.SPLIT:
            assert len(res.removed_linear) == (2 if s.c else 1)
        else:
            assert not res.removed_linear
        assert all(e.poly.deg == 2 for e in res.factors)


def test_lambda_report_seven(F7):
    s = mo.parse_moebius(F7, "(3x-1)/(x+3)")
    report = sf.lambda_family_report(s)
    assert report.counts == {2: (1, 1), 4: (2, 2), 8: (4, 4)}
    assert report.total == 7


def test_lambda_report_two(F2):
    s = next(t for t in go.full_pgl(F2) if t.order() == 3)
    report = sf.lambda_family_report(s)
    assert report.counts == {3: (2, 2)}
    assert report.total == 2


@pytest.mark.parametrize("text", ["x+1", "3x"])
def test_lambda_report_wrong_order(F7, text):
    with pytest.raises(WrongOrderError):
        sf.lambda_family_report(mo.parse_moebius(F7, text))


def test_lambda_report_checks_the_order_first(monkeypatch, F7):
    def forbidden(*args, **kwargs):
        raise AssertionError("no work before the order check")

    monkeypatch.setattr(mo.Moebius, "powers", forbidden)
    monkeypatch.setattr(inv, "cyclic_family", forbidden)
    with pytest.raises(WrongOrderError):
        sf.lambda_family_report(mo.parse_moebius(F7, "(x+1)/(x+3)"))


@pytest.mark.parametrize("p", [3, 5])
def test_lambda_report_top_count(p):
    ctx = gf.prime_field(p)
    s = next(t for t in go.full_pgl(ctx) if t.order() == p + 1)
    report = sf.lambda_family_report(s)
    count, predicted = report.counts[p + 1]
    assert count == predicted == sf._euler_phi(p + 1)


# The paths the Frobenius-element test replaced, kept as references: the
# factor degree of f - lambda*g by factoring it, and the witness by scanning
# G at a root y of h in the extension field F_q[y]/(h).


def _degree_by_factoring(h):
    fac = upoly.factorize(h)
    degrees = {poly.deg for poly, _ in fac.factors}
    assert len(degrees) == 1 and all(mult == 1 for _, mult in fac.factors)
    return degrees.pop()


def _witness_by_root_scan(G, h):
    alpha = gf.extend(G.ctx, h).gen()
    target = mo.ProjPoint(alpha ** G.ctx.order)
    return next(s for s in G.elements if s.apply(mo.ProjPoint(alpha)) == target)


def _element_of_order_q_plus_1(ctx):
    one, zero = ctx.one(), ctx.zero()
    return next(s for a in ctx.elements() for b in ctx.elements() if b
                for s in [mo.Moebius(a, b, one, zero)] if s.order() == ctx.order + 1)


# every q <= 31 but 29 (left out to keep the test near 4 s): even and odd,
# prime and not
@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                                 (11, 1), (13, 1), (2, 4), (17, 1), (19, 1), (23, 1),
                                 (5, 2), (3, 3), (31, 1)])
def test_lambda_report_matches_factoring_reference(p, m):
    ctx = gf.field_create(p, m)
    s = _element_of_order_q_plus_1(ctx)
    G = go.Subgroup(ctx, s.powers())
    f, g = inv.invariant_generator(G).monic_pair()
    counts = {}
    for lam in ctx.elements():
        h = f - g.scale(lam)
        d = _degree_by_factoring(h)
        assert sf.frobenius_element(G, h).order() == d
        counts[d] = counts.get(d, 0) + 1
    report = sf.lambda_family_report(s)
    assert {r: c for r, (c, _) in report.counts.items() if c} == counts
    assert report.total == ctx.order


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1)])
def test_lambda_report_every_element_of_order_q_plus_1(p, m):
    ctx = gf.field_create(p, m)
    checked = 0
    for s in go.full_pgl(ctx):
        if s.order() != ctx.order + 1:
            continue
        G = go.Subgroup(ctx, s.powers())
        f, g = inv.invariant_generator(G).monic_pair()
        counts = {}
        for lam in ctx.elements():
            d = _degree_by_factoring(f - g.scale(lam))
            counts[d] = counts.get(d, 0) + 1
        report = sf.lambda_family_report(s)
        assert {r: c for r, (c, _) in report.counts.items() if c} == counts
        checked += 1
    assert checked == ctx.order * (ctx.order - 1) // 2 * sf._euler_phi(ctx.order + 1)


def test_lambda_report_needs_no_powmod_or_factoring(monkeypatch, F7):
    s = mo.parse_moebius(F7, "(3x-1)/(x+3)")

    def forbidden(*args, **kwargs):
        raise AssertionError("the lambda report must not call this")

    monkeypatch.setattr(upoly, "powmod", forbidden)
    monkeypatch.setattr(upoly, "factorize", forbidden)
    monkeypatch.setattr(sf, "frobenius_element", forbidden)
    report = sf.lambda_family_report(s)
    assert report.counts == {2: (1, 1), 4: (2, 2), 8: (4, 4)}


def _frozen_family(monkeypatch, s, perturb=None):
    """Make inv.cyclic_family return the family of <s> computed now, with
    perturb applied to its encoded constants b_i, so that later patches
    reach only the report."""
    a_vec, b_vec, j = inv.cyclic_family(s)
    if perturb is not None:
        perturb(b_vec)
    monkeypatch.setattr(inv, "cyclic_family", lambda t: (a_vec, b_vec, j))


def test_lambda_report_checks_the_companion_identity(monkeypatch, F7):
    # the comparison of F_lambda with the companion of w is given w*s instead
    s = mo.parse_moebius(F7, "(3x-1)/(x+3)")
    _frozen_family(monkeypatch, s)
    companion, calls = inv.monic_companion, []

    def wrong_element(ctx, key):
        calls.append(key)
        return companion(ctx, mo.Moebius.from_key(ctx, key).compose(s).key())

    monkeypatch.setattr(inv, "monic_companion", wrong_element)
    with pytest.raises(InvariantViolation, match="companion of M \\+ nu"):
        sf.lambda_family_report(s)
    assert calls


@pytest.mark.parametrize("i", range(9))
def test_lambda_report_rejects_a_perturbed_family(monkeypatch, F7, i):
    # one b_i of the family, at each of the q + 2 = 9 places, moved by one
    s = mo.parse_moebius(F7, "(3x-1)/(x+3)")

    def perturb(b_vec):
        b_vec[i] = F7.add(b_vec[i], 1)

    _frozen_family(monkeypatch, s, perturb)
    with pytest.raises(InvariantViolation):
        sf.lambda_family_report(s)


def test_lambda_report_on_a_frozen_family_passes(monkeypatch, F7):
    # the control for the two mutations above
    s = mo.parse_moebius(F7, "(3x-1)/(x+3)")
    _frozen_family(monkeypatch, s)
    assert sf.lambda_family_report(s).counts == {2: (1, 1), 4: (2, 2), 8: (4, 4)}


# The generator before it was read off the family, kept as a reference: the
# orbit polynomial's parameter with its numerator made monic, reduced again
# by a gcd.


def _generator_by_reduction(G):
    return inv.RatFunc(*inv.orbit_polynomial(G).parameter.monic_pair())


# every cyclic subgroup of PGL(2,q), and the whole group, for q <= 13
@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                                 (11, 1), (13, 1)])
def test_family_member_is_f_minus_lambda_g(p, m):
    ctx = gf.field_create(p, m)
    full = go.full_pgl(ctx)
    groups = {go.Subgroup(ctx, s.powers()) for s in full if not s.is_identity()}
    groups.add(full)
    for G in groups:
        phi = _generator_by_reduction(G)
        assert inv.invariant_generator(G) == phi
        f, g = phi.monic_pair()
        family = inv.orbit_polynomial(G).family
        for lam in ctx.elements():
            assert inv.family_member(ctx, family, lam) == f - g.scale(lam)


def test_generator_and_lambda_report_need_no_gcd(monkeypatch, F7):
    s = mo.parse_moebius(F7, "(3x-1)/(x+3)")

    def forbidden(*args, **kwargs):
        raise AssertionError("the generator is read off the family, not reduced")

    monkeypatch.setattr(upoly, "gcd", forbidden)
    inv.orbit_polynomial.cache_clear()
    phi = inv.invariant_generator(go.generate(F7, [s]))
    assert phi.degree == 8 and phi.den.monic() == upoly.Poly.x_pow(F7, 7) - upoly.Poly.x(F7)
    report = sf.lambda_family_report(s)
    assert report.counts == {2: (1, 1), 4: (2, 2), 8: (4, 4)}


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_factor_f_lambda_witness_matches_root_scan(p, m):
    ctx = gf.field_create(p, m)
    groups = [go.full_pgl(ctx)] + [go.generate(ctx, [label.representative])
                                   for label in cl.conjugacy_classes(ctx) if label.order > 1]
    checked = 0
    for G in groups:
        for lam in ctx.elements():
            res = sf.factor_f_lambda(G, lam)
            if res.regular and res.degree > 1:
                assert res.witness == _witness_by_root_scan(G, res.factors[0][0])
                checked += 1
    assert checked >= ctx.order


def test_factor_f_lambda_pgl3(F3):
    G = go.full_pgl(F3)
    res1 = sf.factor_f_lambda(G, F3.one())
    assert res1.regular and res1.degree == 3 and res1.count() == 8
    assert {p for p, _ in res1.factors} == set(upoly.monic_irreducibles(F3, 3))
    assert res1.witness is not None and res1.witness.order() == 3

    res2 = sf.factor_f_lambda(G, F3.elem(-1))
    assert not res2.regular
    assert res2.degree == 2 and res2.multiplicity == 4 and len(res2.factors) == 3

    res0 = sf.factor_f_lambda(G, F3.zero())
    assert res0.regular and res0.degree == 4 and res0.count() == 6
    assert res0.witness.order() == 4


def test_factor_f_lambda_small_group_linears(F7):
    # cyclic of order 4 dividing q+1 is regular on the rational line, so some
    # lambda values split completely into linears with the identity witness
    s = mo.parse_moebius(F7, "(3x-1)/(x+3)").power(2)
    G = go.generate(F7, [s])
    degrees = set()
    for lam in F7.elements():
        res = sf.factor_f_lambda(G, lam)
        degrees.add(res.degree)
        if res.degree == 1:
            assert res.witness.is_identity()
        else:
            assert res.witness is None or res.witness.order() == res.degree
    assert 1 in degrees


@pytest.mark.parametrize("p,count", [(2, 2), (3, 8), (5, 40)])
def test_all_cubics_product(p, count):
    ctx = gf.prime_field(p)
    cubics = list(upoly.monic_irreducibles(ctx, 3))
    assert len(cubics) == count
    assert sf.all_cubics_product(ctx) == math.prod(cubics, start=upoly.Poly.one(ctx))


def test_factor_general_k_is_factor_by_orbit_at_one(F7):
    s = mo.parse_moebius(F7, "(3x-1)/(x+3)")
    res = sf.factor_general_k(s, 1)
    assert res.factors == tuple(sorted(
        [e.poly for e in res.inner.factors] + list(res.inner.removed_linear),
        key=lambda f: f.key()))
    assert res.reconstruct() == res.input


def test_factor_general_k_checks_every_factor_at_one(monkeypatch, F7):
    s = mo.parse_moebius(F7, "(3x-1)/(x+3)")
    monkeypatch.setattr(upoly, "is_irreducible", lambda f: False)
    with pytest.raises(InvariantViolation, match="reducible"):
        sf.factor_general_k(s, 1)


def _oracle_factors(poly):
    oracle = upoly.factorize(poly)
    return tuple(sorted([p for p, mult in oracle.factors for _ in range(mult)],
                        key=lambda f: f.key()))


def test_factor_general_k_two(F2):
    # q=2, k=2: s of order 3 acts through PGL(2,4); merging Galois conjugates
    # recovers the rational factorization of the degree-5 companion
    s = next(t for t in go.full_pgl(F2) if t.order() == 3)
    res = sf.factor_general_k(s, 2)
    assert res.input.deg in (4, 5)
    assert res.factors == _oracle_factors(res.input)


@pytest.mark.parametrize("k", [2, 3])
def test_factor_general_k_all_of_pgl2(F2, k):
    for s in go.full_pgl(F2):
        if s.is_identity():
            continue
        res = sf.factor_general_k(s, k)
        assert res.factors == _oracle_factors(res.input)
        # rational factor degrees are Galois merges of the ground-field ones
        inner_degs = {e.poly.deg for e in res.inner.factors}
        inner_degs |= {lin.deg for lin in res.inner.removed_linear}
        for f in res.factors:
            assert any(f.deg % d == 0 for d in inner_degs)


def test_factor_general_k_nonprime_ground(F4):
    # over a non-prime q the ground field F_{q^k} is the tower F_2 -> F_4 -> F_16
    s = next(t for t in go.full_pgl(F4) if t.order() == 5)
    res = sf.factor_general_k(s, 2)
    assert res.ground == gf.extension_of(F4, 2) and res.ground.base == F4
    assert res.factors == _oracle_factors(res.input)


def test_factor_general_k_over_a_tower_ground(F4):
    # q = 16 is itself the tower F_4 -> F_16, so F_{q^2} is a three-step tower
    F16 = gf.extension_of(F4, 2)
    pgl = go.full_pgl(F16)
    for order in (5, 3):
        s = next(t for t in pgl if t.order() == order)
        res = sf.factor_general_k(s, 2)
        assert res.ground == gf.extension_of(F16, 2) and res.ground.tower_degree() == 8
        assert res.factors == _oracle_factors(res.input)


@pytest.mark.parametrize("p, m, k", [(2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 2, 3),
                                     (3, 2, 2), (2, 3, 2)])
def test_factor_general_k_lifts_the_ground_family(p, m, k):
    # the family over F_{q^k} is the family over F_q, embedded
    ctx = gf.field_create(p, m)
    ground = gf.extension_of(ctx, k)
    elements = [s for s in go.full_pgl(ctx) if not s.is_identity()]
    for s in random.Random(f"{p},{m},{k}").sample(elements, min(16, len(elements))):
        res = sf.factor_general_k(s, k)
        assert res.ground == ground
        family, _ = inv.orbit_family(go.Subgroup(ctx, s.powers()))
        assert res.inner.family == tuple((gf.embed(a, ground), gf.embed(b, ground))
                                         for a, b in family)


def _reference_factor_general_k(s, k):
    """factor_general_k as it ran before the expansion: the sweep of
    factor_by_orbit on s lifted to F_{q^k}, then each factor multiplied by
    its conjugates under the coefficient-wise Frobenius."""
    ctx = s.ctx
    q = ctx.order
    input_poly = sf.companion_poly(ctx, s.entries(), k)
    ground = gf.extension_of(ctx, k)
    inner = _reference_factor_by_orbit(s.lift_to(ground))

    def descend(poly):
        assert all(gf.in_subfield(c, ctx) for c in poly.coeffs)
        return upoly.Poly(ctx, [gf.down_cast(c, ctx) for c in poly.coeffs])

    def frob_poly(poly):
        return upoly.Poly(ground, tuple(c ** q for c in poly.coeffs))

    pending = {p: None for p in list(inner.removed_linear) + [e.poly for e in inner.factors]}
    merged = []
    while pending:
        poly = next(iter(pending))
        orbit = [poly]
        nxt = frob_poly(poly)
        while nxt != poly:
            assert nxt in pending
            orbit.append(nxt)
            nxt = frob_poly(nxt)
        for member in orbit:
            pending.pop(member)
        merged.append(descend(math.prod(orbit, start=upoly.Poly.one(ground))))
    assert all(upoly.is_irreducible(f) for f in merged)
    merged.sort(key=lambda f: f.key())
    result = sf.GeneralKFactorization(input_poly, k, ground, inner, tuple(merged),
                                      gf.down_cast(inner.unit, ctx))
    assert result.reconstruct() == input_poly
    return result


@pytest.mark.parametrize("p, m, k, sample", [
    (2, 1, 2, None), (2, 1, 3, None), (2, 1, 4, None), (3, 1, 2, None), (3, 1, 3, None),
    (2, 2, 2, None), (5, 1, 2, None), (7, 1, 3, 4), (3, 2, 2, 8), (17, 1, 2, 4)])
def test_factor_general_k_matches_the_lift_reference(p, m, k, sample):
    ctx = gf.field_create(p, m)
    elements = [mo.Moebius.from_key(ctx, key) for key in go.pgl_keys(ctx)
                if key != mo.IDENTITY_KEY]
    if sample is not None:
        elements = random.Random(f"{p},{m},{k}").sample(elements, sample)
    for s in elements:
        assert sf.factor_general_k(s, k) == _reference_factor_general_k(s, k)


def test_factor_general_k_lifts_nothing(monkeypatch, F2, F4, F7, F19):
    def forbidden(*args, **kwargs):
        raise AssertionError("factor_general_k must not lift s")

    cases = [(mo.parse_moebius(F19, "(-x-1)/(x-1)"), 2), (mo.parse_moebius(F7, "x+1"), 2),
             (mo.parse_moebius(F7, "(3x-1)/(x+3)"), 3)]
    cases += [(t, k) for t in go.full_pgl(F2) if not t.is_identity() for k in (2, 3)]
    cases += [(next(t for t in go.full_pgl(F4) if t.order() == 5), 2)]
    expected = [sf.factor_general_k(t, k) for t, k in cases]
    monkeypatch.setattr(mo.Moebius, "lift_to", forbidden)
    assert [sf.factor_general_k(t, k) for t, k in cases] == expected


def test_factor_general_k_rejects_an_irrational_stripped_companion(monkeypatch, F19):
    # the fixed points of (-x-1)/(x-1) are the conjugates +-i of F_361; with
    # one of them stripped the quotient does not lie over F_19
    s = mo.parse_moebius(F19, "(-x-1)/(x-1)")
    solve = mo.Moebius.fixed_encodings
    assert min(solve(s, gf.extension_of(F19, 2))) >= 19
    monkeypatch.setattr(mo.Moebius, "fixed_encodings", lambda t, ext: solve(t, ext)[:1])
    with pytest.raises(InvariantViolation, match="stripped companion is not rational"):
        sf.factor_general_k(s, 2)


def _edited_inner(monkeypatch, edit):
    """Make sf._structured return its result with the factor entries edited."""
    structured = sf._structured

    def edited(t, k):
        inner = structured(t, k)
        return dataclasses.replace(inner, factors=tuple(edit(list(inner.factors), t.ctx)))

    monkeypatch.setattr(sf, "_structured", edited)


def test_factor_general_k_checks_the_merged_reconstruction(monkeypatch, F7):
    # every entry merges as it should, but the unit is off by one
    structured = sf._structured
    monkeypatch.setattr(sf, "_structured", lambda t, k: dataclasses.replace(
        structured(t, k), unit=structured(t, k).unit + 1))
    with pytest.raises(InvariantViolation, match="merged factors do not reconstruct"):
        sf.factor_general_k(mo.parse_moebius(F7, "(3x-1)/(x+3)"), 2)


def _irrational(entries, ctx):
    return [i for i, e in enumerate(entries) if e.lam.value.rep >= ctx.order]


def test_factor_general_k_rejects_a_missing_conjugate(monkeypatch, F19):
    def drop(entries, ctx):
        del entries[_irrational(entries, ctx)[0]]
        return entries

    _edited_inner(monkeypatch, drop)
    with pytest.raises(InvariantViolation, match="conjugate is missing"):
        sf.factor_general_k(mo.parse_moebius(F19, "(-x-1)/(x-1)"), 2)


def test_factor_general_k_rejects_an_irrational_merged_factor(monkeypatch, F19):
    # the fibre of a lambda outside F_19 takes the polynomial of a lambda off
    # its Frobenius orbit, so that orbit multiplies to a product off F_19
    def swap(entries, ctx):
        i = _irrational(entries, ctx)[0]
        lam = entries[i].lam.value
        j = next(j for j, e in enumerate(entries) if e.lam.value not in (lam, lam ** ctx.order))
        entries[i] = sf.FactorEntry(entries[j].poly, entries[i].lam)
        return entries

    _edited_inner(monkeypatch, swap)
    with pytest.raises(InvariantViolation, match="merged factor coefficient is not rational"):
        sf.factor_general_k(mo.parse_moebius(F19, "(-x-1)/(x-1)"), 2)


def test_solution_counts(F3):
    # the companion polynomial is squarefree of degree q or q+1
    for ctx in (gf.prime_field(2), gf.prime_field(3), gf.field_create(2, 2)):
        q = ctx.order
        for s in go.full_pgl(ctx):
            if s.is_identity():
                continue
            ps = sf.frobenius_companion(s)
            assert ps.deg in (q, q + 1)
            assert upoly.gcd(ps, ps.derivative()).deg == 0


def test_bootstrap_power_compatibility(F19):
    s = mo.parse_moebius(F19, "(-x-1)/(x-1)")
    res = sf.factor_by_orbit(s)
    ext = gf.extend(F19, res.factors[0].poly)
    alpha = ext.gen()
    s_ext = s.lift_to(ext)
    z = mo.ProjPoint(alpha)
    for i in range(1, 5):
        z = s_ext.apply(z)
        assert z.value == alpha ** (19 ** i)


def test_family_coherence_constant_coefficients(F19):
    # constant family coefficients take the same value in every factor
    s = mo.parse_moebius(F19, "(-x-1)/(x-1)")
    res = sf.factor_by_orbit(s)
    for i, (a, b) in enumerate(res.family):
        if not a and i < res.degree_r:
            for e in res.factors:
                coeff = e.poly.coeffs[i] if i <= e.poly.deg else F19.zero()
                assert coeff == b
