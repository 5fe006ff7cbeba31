import random

import pytest
from hypothesis import given, settings, strategies as st

from orbitfactor import gf, upoly
from orbitfactor.errors import ConstantInputError


def P(ctx, *ints):
    return upoly.Poly.from_ints(ctx, list(ints))


def test_ring_basics(F7):
    f = P(F7, 1, 2, 3)
    g = P(F7, 4, 5)
    assert f + g == P(F7, 5, 0, 3)
    assert f - f == upoly.Poly.zero(F7)
    assert (f * g).deg == 3
    q, r = divmod(f, g)
    assert q * g + r == f and r.deg < g.deg


def test_divrem_examples(F7):
    t3 = upoly.Poly.x_pow(F7, 3)
    t = upoly.Poly.x(F7)
    q, r = divmod(t3, t)
    assert q == upoly.Poly.x_pow(F7, 2) and not r


def test_gcd_with_zero(F7):
    f = P(F7, 2, 0, 4)
    assert upoly.gcd(f, upoly.Poly.zero(F7)) == f.monic()
    assert upoly.gcd(upoly.Poly.zero(F7), f) == f.monic()


def test_eval_at_extension_root(F9):
    f = upoly.Poly.from_ints(gf.prime_field(3), [1, 0, 1])
    i = F9.gen()
    assert f(i) == F9.zero()


def test_derivative(F5):
    f = P(F5, 1, 2, 3, 4)  # 4x^3+3x^2+2x+1
    assert f.derivative() == P(F5, 2, 6, 12)


def test_powmod(F7):
    x = upoly.Poly.x(F7)
    mod = P(F7, 1, 0, 1)
    direct = (x * x * x * x) % mod
    assert upoly.powmod(x, 4, mod) == direct


def test_powmod_is_pow_reduced(F7, F4):
    for ctx in (F7, F4):
        rng = random.Random(str(ctx))
        f = upoly.Poly(ctx, [ctx.decode(rng.randrange(ctx.order)) for _ in range(5)])
        mod = upoly.Poly(ctx, [ctx.decode(rng.randrange(ctx.order)) for _ in range(4)]
                         + [ctx.one()])
        power = upoly.Poly.one(ctx)
        for e in range(41):
            assert f.pow(e) == power
            assert upoly.powmod(f, e, mod) == power % mod
            power = power * f


@pytest.mark.parametrize("ints,expected", [
    ([1, 0, 1], True),    # T^2+1 over GF(3)
    ([1, 1, 1], False),   # T^2+T+1 = (T-1)^2 over GF(3)
    ([-1, 1], True),      # linear
])
def test_is_irreducible_gf3(F3, ints, expected):
    assert upoly.is_irreducible(P(F3, *ints)) is expected


def test_is_irreducible_gf5(F5):
    assert not upoly.is_irreducible(P(F5, 1, 0, 1))  # 2^2 = -1 mod 5


def test_is_irreducible_rejects_constants(F5):
    with pytest.raises(ConstantInputError):
        upoly.is_irreducible(upoly.Poly.one(F5))


def test_factorize_headline_example(F19):
    coeffs = [0] * 21
    coeffs[20], coeffs[19], coeffs[1], coeffs[0] = 1, -1, 1, 1
    f = upoly.Poly.from_ints(F19, coeffs)
    fac = upoly.factorize(f)
    assert fac.unit == F19.one()
    assert all(mult == 1 and poly.deg == 4 for poly, mult in fac.factors)
    assert len(fac.factors) == 5
    listed = P(F19, 1, 13, -6, 6, 1)  # T^4+6T^3-6T^2+13T+1
    assert listed in {poly for poly, _ in fac.factors}


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
def test_factorize_field_polynomial_splits(p, m):
    ctx = gf.field_create(p, m)
    q = ctx.order
    f = upoly.Poly.x_pow(ctx, q) - upoly.Poly.x(ctx)
    fac = upoly.factorize(f)
    assert fac.unit == ctx.one()
    assert len(fac.factors) == q and all(poly.deg == 1 for poly, _ in fac.factors)


def test_factorize_quadratic_splitting_lambda(F7):
    # x^8 + 1 - lambda*(x^7 - x) splits into four quadratics for exactly one lambda
    base = upoly.Poly.x_pow(F7, 8) + upoly.Poly.one(F7)
    xqx = upoly.Poly.x_pow(F7, 7) - upoly.Poly.x(F7)
    quad_lambdas = []
    for lam in F7.elements():
        fac = upoly.factorize(base - xqx.scale(lam))
        degrees = sorted(poly.deg for poly, _ in fac.factors)
        if degrees == [2, 2, 2, 2]:
            quad_lambdas.append(lam)
    assert len(quad_lambdas) == 1


def test_factorize_seed_independent_multiset(F7):
    f = P(F7, 3, 1, 4, 1, 5, 0, 2, 1)
    a = upoly.factorize(f, seed=0)
    b = upoly.factorize(f, seed=12345)
    assert a.as_multiset() == b.as_multiset()
    assert a.factors == b.factors  # same sorted order too


def test_factorize_with_multiplicities(F5):
    f = P(F5, 1, 1) * P(F5, 1, 1) * P(F5, 2, 0, 1) * P(F5, 2, 0, 1) * P(F5, 2, 0, 1)
    fac = upoly.factorize(f.scale(F5.elem(3)))
    assert fac.unit == F5.elem(3)
    assert sorted(m for _, m in fac.factors) == [2, 3]
    assert fac.value() == f.scale(F5.elem(3))


def test_factorize_inseparable_power(F3):
    # (x^3 - x - 1) is irreducible; cube it via x -> x^3 substitution pattern
    g = P(F3, -1, -1, 0, 1)
    f = g.pow(3)
    fac = upoly.factorize(f)
    assert fac.factors == ((g.monic(), 3),)


def test_least_degree_factor(F7):
    f = P(F7, 1, 1) * P(F7, 3, 1, 1)
    h = upoly.least_degree_factor(f)
    assert h == P(F7, 1, 1).monic()


def test_roots_in(F3, F9):
    f = P(F3, 1, 0, 1)
    roots = upoly.roots_in(f, F9)
    i = F9.gen()
    assert set(roots) == {i, -i}
    cubic = gf.least_irreducible(F3, 3)
    assert upoly.roots_in(cubic, F9) == ()
    lin = P(F3, -2, 1)
    assert upoly.roots_in(lin, F3) == (F3.elem(2),)


def _roots_by_factorize(f, ext):
    """The former roots_in: every linear factor of gcd(f, T^Q - T) from a
    full factorization."""
    fe = f.map_ctx(ext) if ext != f.ctx else f
    x = upoly.Poly.x(ext)
    linear_part = upoly.gcd(fe, upoly.powmod(x, ext.order, fe) - x)
    if linear_part.deg < 1:
        return ()
    roots = [-g.coeffs[0] for g, _ in upoly.factorize(linear_part).factors]
    return tuple(sorted(roots, key=lambda r: r.encode()))


def test_roots_in_needs_only_equal_degree_splitting(monkeypatch, F3, F4, F5, F7):
    # repeated roots, an inseparable p-th power and roots outside the ground field
    cases = [
        (P(F3, 0, -1, 0, 1).pow(2) * P(F3, 1, 0, 1), gf.extension_of(F3, 2)),
        (P(F5, -1, 1).pow(5) * P(F5, 2, 0, 1) * P(F5, 0, 1), F5),
        (P(F5, -1, 1).pow(5) * P(F5, 2, 0, 1) * P(F5, 0, 1), gf.extension_of(F5, 2)),
        (P(F7, *([0, -1] + [0] * 6 + [1])), F7),
        (upoly.Poly(F4, (F4.gen(), F4.one(), F4.one())).pow(2) * P(F4, 1, 1),
         gf.extension_of(F4, 2)),
        (gf.least_irreducible(F7, 3), gf.extension_of(F7, 3)),
    ]
    expected = [_roots_by_factorize(f, ext) for f, ext in cases]
    assert all(expected)

    def boom(*args):
        raise AssertionError("roots_in must not redo squarefree or distinct-degree work")

    monkeypatch.setattr(upoly, "_distinct_degree", boom)
    monkeypatch.setattr(upoly, "_squarefree_decomposition", boom)
    assert [upoly.roots_in(f, ext) for f, ext in cases] == expected


def test_monic_irreducible_count(F5):
    # (q^3 - q)/3 cubics
    assert sum(1 for _ in upoly.monic_irreducibles(F5, 3)) == 40


def test_format_poly(F7):
    assert upoly.format_poly(P(F7, 1, 0, 3)) == "3*T^2 + 1"
    assert upoly.format_poly(upoly.Poly.zero(F7)) == "0"
    assert upoly.format_poly(upoly.Poly.x(F7), var="x") == "x"


# -- property-based checks ----------------------------------------------------------

_small_fields = [gf.prime_field(2), gf.prime_field(3), gf.prime_field(5),
                 gf.prime_field(7), gf.field_create(3, 2)]


@st.composite
def poly_over_small_field(draw, min_deg=1, max_deg=8):
    ctx = draw(st.sampled_from(_small_fields))
    deg = draw(st.integers(min_value=min_deg, max_value=max_deg))
    ints = draw(st.lists(st.integers(min_value=0, max_value=ctx.order - 1),
                         min_size=deg + 1, max_size=deg + 1))
    lead = draw(st.integers(min_value=1, max_value=ctx.order - 1))
    coeffs = tuple(ctx.decode(i) for i in ints[:-1]) + (ctx.decode(lead),)
    return upoly.Poly(ctx, coeffs)


@settings(max_examples=60, deadline=None)
@given(poly_over_small_field())
def test_factorization_reconstructs_input(f):
    fac = upoly.factorize(f)
    assert fac.value() == f
    for poly, _ in fac.factors:
        assert poly.is_monic()
        assert upoly.is_irreducible(poly)


@settings(max_examples=40, deadline=None)
@given(poly_over_small_field(max_deg=5), poly_over_small_field(max_deg=5))
def test_gcd_divides_both(f, g):
    if f.ctx != g.ctx:
        g = upoly.Poly(f.ctx, tuple(f.ctx.decode(c.encode() % f.ctx.order)
                                    for c in g.coeffs))
    d = upoly.gcd(f, g)
    assert f % d == upoly.Poly.zero(f.ctx)
    assert g % d == upoly.Poly.zero(f.ctx)


_irreducible_pools: dict = {}


def _pool(ctx, d):
    key = (ctx, d)
    if key not in _irreducible_pools:
        _irreducible_pools[key] = list(upoly.monic_irreducibles(ctx, d))
    return _irreducible_pools[key]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_multiply_then_refactor(data):
    ctx = data.draw(st.sampled_from(_small_fields))
    degrees = data.draw(st.lists(st.integers(min_value=1, max_value=3),
                                 min_size=1, max_size=3))
    chosen = [data.draw(st.sampled_from(_pool(ctx, d))) for d in degrees]
    distinct = {}
    for poly in chosen:
        distinct[poly] = distinct.get(poly, 0) + 1
    product = upoly.Poly.one(ctx)
    for poly, mult in distinct.items():
        product = product * poly.pow(mult)
    fac = upoly.factorize(product)
    assert dict(fac.factors) == distinct


@settings(max_examples=30, deadline=None)
@given(poly_over_small_field(min_deg=2, max_deg=6))
def test_irreducibility_matches_factor_count(f):
    fac = upoly.factorize(f)
    single = len(fac.factors) == 1 and fac.factors[0][1] == 1
    assert upoly.is_irreducible(f) == single


# -- the encoded kernels against a schoolbook on FieldElems -------------------------

KERNEL_FIELDS = [(7, 1), (2, 2), (2, 8),   # 2-D tables
                 (5, 4), (2, 10),          # log arrays
                 (263, 1), (2, 13)]        # computed


def _school_mul(ctx, a, b):
    out = [ctx.zero()] * max(len(a) + len(b) - 1, 0)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return out


def _school_divmod(ctx, num, den):
    num = list(num)
    quo = [ctx.zero()] * max(len(num) - len(den) + 1, 0)
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1] / den[-1]
        quo[i] = c
        for j, dj in enumerate(den):
            num[i + j] = num[i + j] - c * dj
    return quo, num[:len(den) - 1]


def _trimmed(ctx, elems):
    out = [x.rep for x in elems]
    while out and not out[-1]:
        out.pop()
    return out


def _random_encoded(ctx, rng, length, monic=False):
    """length coefficients, with a nonzero (or, if monic, unit) lead; [] for 0."""
    if not length:
        return []
    lead = 1 if monic else rng.randrange(1, ctx.order)
    return [rng.randrange(ctx.order) for _ in range(length - 1)] + [lead]


@pytest.mark.parametrize("p,m", KERNEL_FIELDS)
def test_encoded_mul_matches_the_schoolbook(p, m):
    ctx = gf.field_create(p, m)
    rng = random.Random(f"mul/{ctx.order}")
    cases = [([], []), ([], [1]), ([1], [])]  # zero operands
    cases += [(_random_encoded(ctx, rng, rng.randrange(1, 9)),
               _random_encoded(ctx, rng, rng.randrange(1, 9))) for _ in range(40)]
    cases += [([0, 0, 1], [0, 1]), ([1], _random_encoded(ctx, rng, 6))]
    for a, b in cases:
        want = _school_mul(ctx, [ctx.decode(x) for x in a], [ctx.decode(x) for x in b])
        assert upoly.encoded_mul(ctx, a, b) == _trimmed(ctx, want)


@pytest.mark.parametrize("p,m", KERNEL_FIELDS)
def test_encoded_divmod_matches_the_schoolbook(p, m):
    ctx = gf.field_create(p, m)
    rng = random.Random(f"divmod/{ctx.order}")
    cases = []
    for _ in range(40):  # non-monic divisors, numerators of any length
        cases.append((_random_encoded(ctx, rng, rng.randrange(0, 12)),
                      _random_encoded(ctx, rng, rng.randrange(1, 6))))
    for _ in range(10):  # exact division by monic and non-monic divisors
        den = _random_encoded(ctx, rng, rng.randrange(1, 5), monic=rng.random() < 0.5)
        cases.append((upoly.encoded_mul(ctx, _random_encoded(ctx, rng, rng.randrange(1, 6)),
                                        den), den))
    cases += [([], [1]), ([], _random_encoded(ctx, rng, 3)),             # zero numerator
              (_random_encoded(ctx, rng, 2), _random_encoded(ctx, rng, 4)),  # shorter
              (_random_encoded(ctx, rng, 5), [rng.randrange(1, ctx.order)])]  # constant
    exact = 0
    for num, den in cases:
        want_q, want_r = _school_divmod(ctx, [ctx.decode(x) for x in num],
                                        [ctx.decode(x) for x in den])
        snapshot = (list(num), list(den))
        quo, rem = upoly.encoded_divmod(ctx, num, den)
        assert (quo, rem) == (_trimmed(ctx, want_q), _trimmed(ctx, want_r))
        assert (num, den) == snapshot  # the inputs are not changed
        exact += bool(num) and not rem
    assert exact >= 10
