import itertools
import random

import pytest

from orbitfactor import gf, upoly
from orbitfactor.errors import (
    CtxMismatchError,
    NonPrimeError,
    NotIrreducibleError,
    SizeCapError,
)


def test_prime_field_basics(F7):
    assert F7.order == 7 and F7.base is None
    a, b = F7.elem(3), F7.elem(5)
    assert (a * b).rep == 1
    assert (a + b).rep == 1
    assert (a - b).rep == 5
    assert a.inverse().rep == 5
    assert (a / b) * b == a
    assert F7.elem(1).inverse() == F7.one()


def test_field_create_least_modulus(F9, F4):
    # least monic irreducible quadratic over GF(3), comparing c0 then c1
    assert tuple(c.rep for c in F9.modulus.coeffs) == (1, 0, 1)
    # the only irreducible quadratic over GF(2)
    assert tuple(c.rep for c in F4.modulus.coeffs) == (1, 1, 1)
    i = F9.gen()
    assert i * i == F9.elem(-1)


def test_field_create_deterministic():
    a = gf.field_create(5, 3)
    b = gf.field_create(5, 3)
    assert a is b
    assert a.modulus == b.modulus


def test_field_create_rejects_composite():
    with pytest.raises(NonPrimeError):
        gf.field_create(4, 1)
    with pytest.raises(NonPrimeError):
        gf.prime_field(1)


def test_size_cap():
    with pytest.raises(SizeCapError):
        gf.field_create(2, 40)
    with pytest.raises(SizeCapError):
        gf.field_create(2, 5, cap=16)
    assert gf.field_create(2, 5, cap=32).order == 32


def test_power_exceeds_agrees_with_the_power():
    for base in range(0, 6):
        for exponent in range(-2 if base else 0, 12):
            for cap in (-3, 0, 1, 2, 7, 8, 9, 31, 32, 33, 1 << 20):
                assert gf.power_exceeds(base, exponent, cap) == (base ** exponent > cap)


def test_power_exceeds_forms_no_huge_power():
    # 3^(10^9) would take minutes and gigabytes to form
    assert gf.power_exceeds(3, 10 ** 9, gf.DEFAULT_SIZE_CAP)
    assert not gf.power_exceeds(1, 10 ** 9, gf.DEFAULT_SIZE_CAP)


def test_extend_and_gen(F3):
    h = upoly.Poly.from_ints(F3, [1, 0, 1])  # y^2 + 1
    F9 = gf.extend(F3, h)
    i = F9.gen()
    assert i * i == F9.elem(-1)
    assert h(i) == F9.zero()


def test_extend_degree_one_returns_base(F7):
    h = upoly.Poly.from_ints(F7, [-3, 1])
    assert gf.extend(F7, h) is F7


def test_extend_rejects_reducible(F5):
    with pytest.raises(NotIrreducibleError):
        gf.extend(F5, upoly.Poly.from_ints(F5, [-1, 0, 1]))  # y^2 - 1


def test_extension_of_tests_its_modulus_once(monkeypatch):
    # least_irreducible proves the modulus irreducible, and extend does not
    # test it again; a modulus the caller supplies is still tested
    monkeypatch.setattr(gf, "_extend_cache", {})
    base = gf.FieldCtx(5, None, None)  # an F_5 with no irreducible found yet
    tested, is_irreducible = [], upoly.is_irreducible

    def recording(f):
        tested.append(f)
        return is_irreducible(f)

    monkeypatch.setattr(upoly, "is_irreducible", recording)
    assert gf.extension_of(base, 3).order == 125
    h = gf.least_irreducible(base, 3)
    assert tested[-1] == h and len(tested) == len(set(tested))
    other = next(f for f in upoly.monic_irreducibles(base, 3) if f != h)
    tested.clear()
    gf.extend(base, other)
    assert tested == [other]


def test_extend_over_a_two_step_tower(F9):
    F81 = gf.extension_of(F9, 2)
    h = gf.least_irreducible(F81, 2)
    F6561 = gf.extend(F81, h)
    assert F6561.tower_degree() == 8 and F6561.order == 3 ** 8
    for v in F9.elements():
        up = gf.embed(v, F6561)
        assert up.encode() == v.encode() and gf.down_cast(up, F9) == v
    assert h(F6561.gen()) == F6561.zero()
    xs = [F6561.decode(i) for i in (0, 1, 2, 80, 81, 3000, 6560)] + [F6561.gen()]
    for x in xs:
        assert gf.parse_elem(F6561, gf.format_elem(x)) == x
        assert x ** 6561 == x


def test_multiplicative_order(F9):
    one = F9.one()
    for x in F9.elements():
        if x:
            assert x ** 8 == one


def test_pow_and_inverse_of_zero(F7):
    with pytest.raises(ZeroDivisionError):
        F7.zero().inverse()
    with pytest.raises(ZeroDivisionError):
        F7.zero() ** -1
    assert F7.elem(3) ** -1 == F7.elem(5)


def test_ctx_mismatch(F5, F7):
    with pytest.raises(CtxMismatchError):
        F5.elem(1) + F7.elem(1)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (5, 1),
                                  (2, 4), (3, 4), (7, 1)])
def test_frobenius_is_base_power(p, m):
    ctx = gf.field_create(p, m)
    q = gf.frobenius_base_order(ctx)
    for x in ctx.elements():
        assert gf.frobenius(x, 1) == x ** q
    # iterating degree-many times is the identity
    for x in ctx.elements():
        assert gf.frobenius(x, ctx.degree) == x


def test_frobenius_fixes_base(F9):
    F81 = gf.extension_of(F9, 2)
    for v in F9.elements():
        assert gf.frobenius(gf.embed(v, F81), 1) == gf.embed(v, F81)
    moved = [a for a in F81.elements() if gf.frobenius(a, 1) != a]
    assert moved  # the extension is not fixed pointwise
    for a in moved[:10]:
        assert gf.frobenius(gf.frobenius(a, 1), 1) == a


def test_frobenius_permutes_roots(F7):
    h = gf.least_irreducible(F7, 3)
    ext = gf.extend(F7, h)
    alpha = ext.gen()
    conj = gf.frobenius(alpha, 1)
    assert conj != alpha
    assert h(conj) == ext.zero()


def test_minimal_poly_degree_one(F7):
    ext = gf.extension_of(F7, 2)
    v = gf.embed(F7.elem(4), ext)
    mp = gf.minimal_poly(v, F7)
    assert mp == upoly.Poly.from_ints(F7, [-4, 1])


def test_minimal_poly_quadratic(F3, F9):
    i = F9.gen()
    assert gf.minimal_poly(i, F3) == upoly.Poly.from_ints(F3, [1, 0, 1])


def test_minimal_poly_divides_field_polynomial(F5):
    ext = gf.extension_of(F5, 3)
    for idx in (5, 17, 60):
        alpha = ext.decode(idx)
        mp = gf.minimal_poly(alpha, F5)
        k = mp.deg
        field_poly = upoly.powmod(upoly.Poly.x(F5), 5 ** k, mp) - upoly.Poly.x(F5)
        assert field_poly % mp == upoly.Poly.zero(F5)
        assert upoly.is_irreducible(mp)


def test_embed_down_cast_round_trip(F7):
    ext = gf.extension_of(F7, 2)
    for v in F7.elements():
        up = gf.embed(v, ext)
        assert gf.down_cast(up, F7) == v
    alpha = ext.gen()
    with pytest.raises(CtxMismatchError):
        gf.down_cast(alpha, F7)


def test_element_text_round_trip(F7, F9):
    assert gf.format_elem(F7.elem(5)) == "5"
    assert gf.parse_elem(F7, "5") == F7.elem(5)
    x = F9.from_coeffs([1, 2])
    assert gf.format_elem(x) == "[1,2]"
    assert gf.parse_elem(F9, "[1,2]") == x


def test_encode_decode_bijection(F9):
    seen = {x.encode() for x in F9.elements()}
    assert seen == set(range(9))
    for i in range(9):
        assert F9.decode(i).encode() == i


def _lexicographic_least_irreducible(ctx, d):
    # constant term most significant, as in gf.least_irreducible
    for tail in itertools.product(range(ctx.order), repeat=d):
        poly = upoly.Poly(ctx, tuple(ctx.decode(c) for c in tail) + (ctx.one(),))
        if upoly.is_irreducible(poly):
            return poly


@pytest.mark.parametrize("p,m,max_d", [(2, 1, 6), (3, 1, 4), (2, 2, 3), (5, 1, 3)])
def test_least_irreducible_matches_lexicographic_search(p, m, max_d):
    ctx = gf.field_create(p, m)
    for d in range(1, max_d + 1):
        assert gf.least_irreducible(ctx, d) == _lexicographic_least_irreducible(ctx, d)


# (p, m, d, key) of the least irreducible of degree d over F_{p^m}: every
# modulus, and so every encoding and every golden output, rests on these
LEAST_IRREDUCIBLE_KEYS = [
    (2, 1, 2, (2, (1, 1, 1))),
    (2, 1, 3, (3, (1, 0, 1, 1))),
    (2, 1, 5, (5, (1, 0, 0, 1, 0, 1))),
    (2, 1, 8, (8, (1, 0, 0, 0, 1, 1, 0, 1, 1))),
    (3, 1, 2, (2, (1, 0, 1))),
    (3, 1, 3, (3, (1, 0, 2, 1))),
    (3, 1, 5, (5, (1, 0, 0, 0, 2, 1))),
    (2, 2, 2, (2, (1, 2, 1))),
    (2, 2, 3, (3, (1, 0, 1, 1))),
    (5, 1, 2, (2, (1, 1, 1))),
    (5, 1, 3, (3, (1, 0, 1, 1))),
    (5, 1, 4, (4, (1, 0, 1, 1, 1))),
    (7, 1, 2, (2, (1, 0, 1))),
    (7, 1, 3, (3, (1, 0, 1, 1))),
    (2, 3, 2, (2, (1, 1, 1))),
    (3, 2, 2, (2, (1, 4, 1))),
    (3, 2, 3, (3, (1, 0, 2, 1))),
    (13, 1, 2, (2, (1, 3, 1))),
    (2, 4, 2, (2, (1, 3, 1))),
    (17, 1, 3, (3, (1, 0, 3, 1))),
    (5, 2, 2, (2, (1, 7, 1))),
    (3, 3, 2, (2, (1, 0, 1))),
]


@pytest.mark.parametrize("p,m,d,key", LEAST_IRREDUCIBLE_KEYS)
def test_least_irreducible_keys_are_pinned(p, m, d, key):
    assert gf.least_irreducible(gf.field_create(p, m), d).key() == key


def test_least_irreducible_degree_seven_over_f7(F7):
    h = gf.least_irreducible(F7, 7)
    assert h.deg == 7 and h.is_monic() and upoly.is_irreducible(h)


def _tower_f16():
    return gf.extension_of(gf.field_create(2, 2), 2)


def _sample(ctx, n, seed):
    rng = random.Random(seed)
    return [ctx.decode(rng.randrange(ctx.order)) for _ in range(n)]


# every element of F_9, F_25, F_16 (over F_4), F_256 and F_243, and samples of
# the computed fields F_289 and F_512
QUADRATIC_CASES = [
    ("F9", lambda: gf.field_create(3, 2), None),
    ("F25", lambda: gf.field_create(5, 2), None),
    ("F16/F4", _tower_f16, None),
    ("F256", lambda: gf.field_create(2, 8), None),
    ("F243", lambda: gf.field_create(3, 5), None),
    ("F289", lambda: gf.field_create(17, 2), 150),
    ("F512", lambda: gf.field_create(2, 9), 150),
]


@pytest.mark.parametrize("make,samples", [c[1:] for c in QUADRATIC_CASES],
                         ids=[c[0] for c in QUADRATIC_CASES])
def test_square_roots_and_artin_schreier_roots(make, samples):
    ctx = make()
    xs = list(ctx.elements()) if samples is None else _sample(ctx, samples, repr(ctx))
    Q = ctx.order
    for x in xs:
        euler = ctx.p == 2 or not x or x ** ((Q - 1) // 2) == ctx.one()
        assert gf.is_square(x) == euler
        r = gf.sqrt(x)
        assert (r is not None) == euler
        if r is not None:
            assert r * r == x
        if ctx.p == 2:
            trace, y = x, x
            for _ in range(ctx.tower_degree() - 1):
                y = y * y
                trace = trace + y
            assert gf.absolute_trace(x) == trace.rep
            u = gf.artin_schreier_root(x)
            assert (u is not None) == (not trace)
            if u is not None:
                assert u * u + u == x
    if samples is None:
        squares = {y * y for y in ctx.elements()}
        assert {x for x in xs if gf.sqrt(x) is not None} == squares
        if ctx.p == 2:
            images = {u * u + u for u in ctx.elements()}
            assert {x for x in xs if gf.artin_schreier_root(x) is not None} == images


@pytest.mark.parametrize("make", [lambda: gf.field_create(5, 2), _tower_f16,
                                  lambda: gf.field_create(3, 1)], ids=["F25", "F16/F4", "F3"])
def test_quadratic_roots_match_a_search(make):
    ctx = make()
    for beta, gamma in itertools.product(ctx.elements(), repeat=2):
        want = tuple(t for t in ctx.elements() if t * t + beta * t + gamma == ctx.zero())
        assert gf.quadratic_roots(beta, gamma) == want


def test_artin_schreier_needs_characteristic_two(F7):
    with pytest.raises(CtxMismatchError):
        gf.artin_schreier_root(F7.one())


# -- the int quadratic kernel against a brute-force root search -----------------


def _roots_by_search(ctx, squares, beta, gammas):
    """For each gamma, the t with t^2 + beta*t + gamma = 0, from one list of
    the values t^2 + beta*t."""
    values = ctx.addmul(squares, beta, range(ctx.order))
    roots = {}
    for t, v in enumerate(values):
        roots.setdefault(v, []).append(t)
    return [tuple(roots.get(ctx.neg(gamma), ())) for gamma in gammas]


@pytest.mark.parametrize("p,m", [(3, 1), (2, 2), (3, 2), (2, 4)])
def test_int_quadratic_roots_match_a_search_everywhere(p, m):
    ctx = gf.field_create(p, m)
    squares = [ctx.mul(t, t) for t in range(ctx.order)]
    for beta in range(ctx.order):
        want = _roots_by_search(ctx, squares, beta, range(ctx.order))
        assert [ctx.quadratic_roots(beta, gamma) for gamma in range(ctx.order)] == want


# F_625 and F_1024 answer from logs, F_{2^13} computes; beta = 0 is the
# square-root branch, and half the gammas are made to have a root
@pytest.mark.parametrize("p,m,betas", [(5, 4, 4), (2, 10, 4), (2, 13, 1)],
                         ids=["F625", "F1024", "F8192"])
def test_int_quadratic_roots_match_a_search_on_samples(p, m, betas):
    ctx = gf.field_create(p, m)
    assert 256 < ctx.order and (ctx.order <= 4096) == (m < 13)
    rng = random.Random(f"quadratic/{ctx.order}")
    squares = [ctx.mul(t, t) for t in range(ctx.order)]
    for beta in [0] + [rng.randrange(1, ctx.order) for _ in range(betas)]:
        gammas = [rng.randrange(ctx.order) for _ in range(6)]
        gammas += [ctx.neg(ctx.add(squares[t], ctx.mul(beta, t)))
                   for t in (rng.randrange(ctx.order) for _ in range(6))]
        want = _roots_by_search(ctx, squares, beta, gammas)
        assert [ctx.quadratic_roots(beta, gamma) for gamma in gammas] == want
        assert any(want) and (p == 2 or not all(want))


# -- the 2-D tables against the list-comprehension builder ----------------------


def _reference_log_tables(p, exp, log, zech):
    """The 2-D tables built element by element from the log arrays."""
    order = len(log)
    n = order - 1
    logs = log[1:]
    exp2 = exp + exp
    add_t = [list(range(order))] + [None] * n
    mul_t = [[0] * order] + [None] * n
    for i, a in enumerate(exp):
        mul_t[a] = [0] + [exp2[i + l] for l in logs]
        add_t[a] = [a] + [exp2[i + z] if (z := zech[l - i]) >= 0 else 0 for l in logs]
    neg_t = list(range(order)) if p == 2 else [0] + [exp2[l + n // 2] for l in logs]
    inv_t = [0] + [exp2[n - l] for l in logs]
    return add_t, mul_t, neg_t, inv_t


def _table_fields():
    """Every field of at most 256 elements from field_create, and the
    extension_of towers over F_4, F_8, F_16 and F_9 that stay that small."""
    fields = []
    for p in filter(gf.is_prime, range(2, 257)):
        m = 1
        while p ** m <= 256:
            fields.append(gf.field_create(p, m))
            m += 1
    F4, F8, F9 = gf.field_create(2, 2), gf.field_create(2, 3), gf.field_create(3, 2)
    F16 = gf.extension_of(F4, 2)
    return fields + [F16, gf.extension_of(F16, 2), gf.extension_of(F4, 3),
                     gf.extension_of(F8, 2), gf.extension_of(F9, 2)]


def test_log_tables_match_the_element_by_element_builder():
    fields = _table_fields()
    assert {F.order for F in fields} >= {2, 3, 4, 16, 256}
    for F in fields:
        if F.base is None:
            ops = gf._residue_ops(F.p)
        else:
            ops = gf._vector_ops(F.base, tuple(c.rep for c in F.modulus.coeffs))
        arrays = gf._log_arrays(F.p, F.order, ops[0], ops[3])
        assert F.tables() == _reference_log_tables(F.p, *arrays), F


def test_negative_exponents(F7):
    f = upoly.Poly.from_ints(F7, [1, 1])
    with pytest.raises(ValueError, match="negative exponent"):
        f.pow(-1)
    with pytest.raises(ValueError, match="negative exponent"):
        upoly.powmod(f, -1, upoly.Poly.from_ints(F7, [1, 0, 1]))
    # field elements and Moebius maps invert first
    x = F7.elem(3)
    assert x ** -1 == x.inverse() and x ** -3 == x.inverse() ** 3
    F9 = gf.field_create(3, 2)
    assert F9.gen() ** -2 == (F9.gen() * F9.gen()).inverse()
