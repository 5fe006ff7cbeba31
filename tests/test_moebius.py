import itertools
import random

import pytest

from orbitfactor import gf, grouporbit as go, moebius as mo, upoly
from orbitfactor.errors import CtxMismatchError, IdentityInputError, InvariantViolation


def test_normalization_and_equality(F19):
    s = mo.Moebius.from_ints(F19, -1, -1, 1, -1)
    t = mo.Moebius.from_ints(F19, 1, 1, -1, 1)  # same map, scaled by -1
    assert s == t
    assert s.entries()[0] == F19.one()


def test_singular_matrix_rejected(F5):
    with pytest.raises(InvariantViolation):
        mo.Moebius.from_ints(F5, 1, 2, 2, 4)


def test_entries_over_different_fields_rejected(F5, F7, F4):
    with pytest.raises(CtxMismatchError):
        mo.Moebius(F5.one(), F7.one(), F5.zero(), F5.one())
    with pytest.raises(CtxMismatchError):
        mo.Moebius(F4.gen(), F4.one(), gf.prime_field(2).one(), F4.zero())


def test_lift_to_a_field_without_the_base_rejected(F4, F9):
    s = mo.parse_moebius(F4, "(1)/(x+[0,1])")
    for other in (F9, gf.field_create(2, 3), gf.prime_field(2)):
        with pytest.raises(CtxMismatchError):
            s.lift_to(other)
    assert s.lift_to(gf.extension_of(F4, 2)).key() == s.key()


def test_apply_to_a_point_outside_the_extensions_rejected(F4, F9):
    s = mo.parse_moebius(F4, "(1)/(x+[0,1])")
    for other in (F9, gf.field_create(2, 3)):
        with pytest.raises(CtxMismatchError):
            s.apply(mo.ProjPoint(other.gen()))
        with pytest.raises(CtxMismatchError):
            s.fixed_encodings(other)


def test_apply_conventions(F19):
    s = mo.parse_moebius(F19, "(-x-1)/(x-1)")
    assert s.apply(mo.INFINITY) == mo.ProjPoint(F19.elem(-1))     # a/c
    assert s.apply(mo.ProjPoint(F19.one())) == mo.INFINITY        # pole
    assert s.apply(mo.ProjPoint(F19.zero())) == mo.ProjPoint(F19.one())
    affine = mo.parse_moebius(F19, "2x+3")
    assert affine.apply(mo.INFINITY) == mo.INFINITY               # c = 0


def test_identity_applies_trivially(F7):
    e = mo.Moebius.identity(F7)
    for z in mo.projective_line(F7):
        assert e.apply(z) == z


def test_compose_is_action(F5):
    G = go.full_pgl(F5)
    pts = mo.projective_line(F5)
    import random
    rng = random.Random(0)
    for _ in range(50):
        s = G.elements[rng.randrange(len(G))]
        t = G.elements[rng.randrange(len(G))]
        z = pts[rng.randrange(len(pts))]
        assert s.compose(t).apply(z) == s.apply(t.apply(z))


def test_compose_inverse(F7):
    s = mo.parse_moebius(F7, "(3x-1)/(x+3)")
    assert s.compose(s.inverse()) == mo.Moebius.identity(F7)
    assert mo.Moebius.identity(F7).inverse() == mo.Moebius.identity(F7)


def test_negation_inversion_compose(F5):
    st = mo.parse_moebius(F5, "-x").compose(mo.parse_moebius(F5, "(1)/(x)"))
    assert st == mo.parse_moebius(F5, "(-1)/(x)")


@pytest.mark.parametrize("p,text,order", [
    (19, "(-x-1)/(x-1)", 4),
    (17, "(14x+13)/(6x+2)", 3),
    (7, "(3x-1)/(x+3)", 8),
    (7, "x+1", 7),
    (7, "3x", 6),
])
def test_orders(p, text, order):
    ctx = gf.prime_field(p)
    assert mo.parse_moebius(ctx, text).order() == order


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1),
                                  (2, 2), (2, 3), (3, 2)])
def test_order_divides_q_minus_p_plus(p, m):
    ctx = gf.field_create(p, m)
    q = ctx.order
    allowed = {d for d in range(1, q) if (q - 1) % d == 0}
    allowed |= {d for d in range(1, q + 2) if (q + 1) % d == 0}
    allowed.add(ctx.p)
    for s in go.full_pgl(ctx):
        assert s.order() in allowed
        powers = s.powers()
        assert len(powers) == s.order() and powers[0] == s and powers[-1].is_identity()


def test_fixed_points_translation(F7):
    s = mo.parse_moebius(F7, "x+2")
    for k in (1, 2):
        assert s.fixed_points(k) == (mo.INFINITY,)


def test_fixed_points_scaling(F7):
    s = mo.parse_moebius(F7, "3x")
    assert set(s.fixed_points(1)) == {mo.INFINITY, mo.ProjPoint(F7.zero())}


def test_fixed_points_nonsplit_empty_over_base(F7):
    s = mo.parse_moebius(F7, "(3x-1)/(x+3)")
    s4 = s.power(2)  # order 4 divides q+1
    assert s4.order() == 4
    assert s4.fixed_points(1) == ()
    assert len(s4.fixed_points(2)) == 2


def test_fixed_points_identity_rejected(F7):
    with pytest.raises(IdentityInputError):
        mo.Moebius.identity(F7).fixed_points(1)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
def test_unipotent_iff_one_fixed_point_over_closure(p, m):
    ctx = gf.field_create(p, m)
    for s in go.full_pgl(ctx):
        if s.is_identity():
            continue
        count = len(s.fixed_points(2))
        if s.classify() is mo.MoebiusClass.UNIPOTENT:
            assert count == 1
        else:
            assert count == 2


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3)])
def test_classify_matches_order(p, m):
    ctx = gf.field_create(p, m)
    q = ctx.order
    for s in go.full_pgl(ctx):
        kind = s.classify()
        r = s.order()
        if kind is mo.MoebiusClass.IDENTITY:
            assert r == 1
        elif kind is mo.MoebiusClass.SPLIT:
            assert (q - 1) % r == 0 and r > 1
        elif kind is mo.MoebiusClass.UNIPOTENT:
            assert r == ctx.p
        else:
            assert (q + 1) % r == 0 and r > 1 and (r == 2 or (q - 1) % r != 0)


def test_powers_share_fixed_points(F7):
    G = go.full_pgl(F7)
    for s in list(G)[::7]:
        if s.is_identity():
            continue
        fixed = s.fixed_points(2)
        for r in range(2, s.order()):
            sr = s.power(r)
            if not sr.is_identity():
                assert sr.fixed_points(2) == fixed


def _order_by_composition(s):
    current, n = s, 1
    while not current.is_identity():
        current, n = current * s, n + 1
    return n


def _fixed_points_by_factoring(s, ext):
    quad = upoly.Poly(s.ctx, (-s.b, s.d - s.a, s.c))
    out = [mo.INFINITY] if not s.c else []
    if quad.deg >= 1:
        out.extend(mo.ProjPoint(r) for r in upoly.roots_in(quad, ext))
    return tuple(sorted(out, key=lambda z: z.key()))


def _assert_matches_references(s, ks):
    assert s.order() == _order_by_composition(s)
    if s.is_identity():
        return
    for k in ks:
        assert s.fixed_points(k) == _fixed_points_by_factoring(s, gf.extension_of(s.ctx, k))


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_order_and_fixed_points_match_references_on_all_of_pgl(p, m):
    for s in go.full_pgl(gf.field_create(p, m)):
        _assert_matches_references(s, (1, 2, 3))


def _random_moebius(ctx, rng):
    while True:
        a, b, c, d = (ctx.decode(rng.randrange(ctx.order)) for _ in range(4))
        if a * d - b * c:
            return mo.Moebius(a, b, c, d)


@pytest.mark.parametrize("make,ks,count", [
    (lambda: gf.extension_of(gf.field_create(2, 2), 2), (2,), 40),
    (lambda: gf.field_create(17, 2), (1, 2), 12),
    (lambda: gf.field_create(2, 9), (1, 2), 12),
    (lambda: gf.field_create(3, 5), (1, 2), 20),
    (lambda: gf.prime_field(31), (1, 2, 3), 40),
], ids=["F16/F4", "F289", "F512", "F243", "F31"])
def test_order_and_fixed_points_match_references_on_samples(make, ks, count):
    ctx = make()
    rng = random.Random(repr(ctx))
    for _ in range(count):
        _assert_matches_references(_random_moebius(ctx, rng), ks)


@pytest.mark.parametrize("p,m,text", [(7, 1, "(3x-1)/(x+3)"), (2, 2, "(1)/(x+[0,1])"),
                                       (3, 2, "([0,1]x+1)/(x+1)")])
def test_order_and_fixed_points_use_field_arithmetic_only(monkeypatch, p, m, text):
    s = mo.parse_moebius(gf.field_create(p, m), text)
    gf.extension_of(s.ctx, 2)  # builds F_{q^2}, then no Moebius is built

    def forbidden(*args, **kwargs):
        raise AssertionError("order and fixed points need no polynomial or map arithmetic")

    monkeypatch.setattr(upoly, "roots_in", forbidden)
    monkeypatch.setattr(upoly, "factorize", forbidden)
    monkeypatch.setattr(mo.Moebius, "__init__", forbidden)
    monkeypatch.setattr(mo, "_of", forbidden)
    assert s.order() > 1
    assert len(s.fixed_points(2)) == 2


@pytest.mark.parametrize("p,m,k", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (3, 2, 2)])
def test_frobenius_equivariance(p, m, k):
    ctx = gf.field_create(p, m)
    ext = gf.extension_of(ctx, k)
    points = [mo.INFINITY] + [mo.ProjPoint(v) for v in ext.elements()]
    for s in itertools.islice(go.full_pgl(ctx), 0, None, 3):
        lifted = s.lift_to(ext)
        for z in points:
            assert mo.frobenius_point(lifted.apply(z)) == lifted.apply(mo.frobenius_point(z))


def test_parse_format_round_trip(F7, F9):
    for text in ["(3x-1)/(x+3)", "x+1", "x", "-x", "(1)/(x)", "2x"]:
        s = mo.parse_moebius(F7, text)
        assert mo.parse_moebius(F7, mo.format_moebius(s)) == s
    s9 = mo.Moebius(F9.from_coeffs([0, 1]), F9.one(), F9.zero(), F9.one())
    assert mo.parse_moebius(F9, mo.format_moebius(s9)) == s9
    raw, parsed = mo.parse_moebius_raw(F7, "(14x+13)/(6x+2)")
    assert parsed == mo.Moebius(*raw)


def test_parse_vector_coefficients(F4):
    y = F4.from_coeffs([0, 1])
    s = mo.parse_moebius(F4, "([0,1]x+1)/(x+[0,1])")
    z = mo.ProjPoint(F4.one())
    expected = (y + F4.one()) / (F4.one() + y)
    assert s.apply(z) == mo.ProjPoint(expected)
    assert mo.parse_moebius(F4, mo.format_moebius(s)) == s


def test_projective_point_keys(F7):
    pts = mo.projective_line(F7)
    assert pts[0] is mo.INFINITY
    keys = [z.key() for z in pts]
    assert keys == sorted(keys)
