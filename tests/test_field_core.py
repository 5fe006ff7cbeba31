"""Field arithmetic in each of the three tiers of ``gf``.

TABULATED fields (at most 256 elements) answer from 2-D lookup tables, LOGS
fields (extension fields of 257 to 4096 elements) from exp/log/Zech arrays,
and COMPUTED fields (prime fields above 256, extension fields above 4096)
compute on residues or coordinate vectors.  Every field is checked against an
independent reference: prime fields against Python ints mod p, extension
fields against polynomial arithmetic over the base modulo the defining
polynomial.  The LOGS fields are also checked against the computed ops of
``gf._vector_ops`` on every element.
"""

import random

import pytest

from orbitfactor import gf, upoly
from orbitfactor.errors import CtxMismatchError, SizeCapError


def _tower_16():
    F4 = gf.field_create(2, 2)
    return gf.extend(F4, gf.least_irreducible(F4, 2))


def _tower_over_16(k):
    """F_4 -> F_16 -> F_{16^k}, a three-step tower over the prime field."""
    F16 = _tower_16()
    return gf.extend(F16, gf.least_irreducible(F16, k))


TABULATED = {
    "F13": lambda: gf.prime_field(13),
    "F251": lambda: gf.prime_field(251),
    "F169": lambda: gf.field_create(13, 2),
    "F256": lambda: gf.field_create(2, 8),
    "F4^2": _tower_16,
    "F4^2^2": lambda: _tower_over_16(2),
}
LOGS = {
    "F289": lambda: gf.field_create(17, 2),
    "F343": lambda: gf.field_create(7, 3),
    "F512": lambda: gf.field_create(2, 9),
    "F625": lambda: gf.field_create(5, 4),
    "F4^5": lambda: gf.extension_of(gf.field_create(2, 2), 5),
    "F3^7": lambda: gf.field_create(3, 7),
    "F4^2^3": lambda: _tower_over_16(3),
}
COMPUTED = {
    "F257": lambda: gf.prime_field(257),
    "F289^2": lambda: gf.extension_of(gf.field_create(17, 2), 2),
    "F2^13": lambda: gf.field_create(2, 13),
    "F4^2^4": lambda: _tower_over_16(4),
}
FIELDS = {**TABULATED, **LOGS, **COMPUTED}
EXTENSIONS = ["F169", "F256", "F4^2", "F289", "F343", "F512", "F625", "F4^5", "F3^7", "F289^2",
              "F4^2^2", "F4^2^3", "F2^13", "F4^2^4"]


def _sample(ctx, n=24, seed=0):
    rng = random.Random(f"{ctx}/{seed}")
    picks = [0, 1, ctx.order - 1] + [rng.randrange(ctx.order) for _ in range(n)]
    return [ctx.decode(i) for i in picks]


def _as_poly(x):
    return upoly.Poly(x.ctx.base, x.coeffs())


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_tables_exactly_up_to_256(name):
    ctx = FIELDS[name]()
    assert (ctx.tables() is None) == (ctx.order > 256)
    assert (ctx.tables() is None) == (name not in TABULATED)


@pytest.mark.parametrize("name", ["F13", "F251", "F257"])
def test_prime_field_matches_int_residues(name):
    ctx = FIELDS[name]()
    p = ctx.p
    xs = _sample(ctx)
    for a in xs:
        assert (-a).rep == -a.rep % p
        for e in (0, 1, 2, 5, p - 1, p + 3):
            assert (a ** e).rep == pow(a.rep, e, p)
        if a:
            assert a.inverse().rep == pow(a.rep, p - 2, p)
            assert (a ** -3).rep == pow(a.rep, -3, p)
        for b in xs:
            assert (a + b).rep == (a.rep + b.rep) % p
            assert (a - b).rep == (a.rep - b.rep) % p
            assert (a * b).rep == a.rep * b.rep % p
            if b:
                assert (a / b).rep == a.rep * pow(b.rep, p - 2, p) % p


@pytest.mark.parametrize("name", EXTENSIONS)
def test_extension_matches_polynomials_mod_modulus(name):
    ctx = FIELDS[name]()
    mod = ctx.modulus
    xs = _sample(ctx, n=12)
    one = ctx.one()
    for a in xs:
        pa = _as_poly(a)
        assert _as_poly(-a) == -pa
        if a:
            assert a * a.inverse() == one
            assert a ** -1 == a.inverse()
            assert a ** (ctx.order - 1) == one
        assert a ** 0 == one
        assert a ** 5 == a * a * a * a * a
        assert _as_poly(a ** 3) == pa.pow(3) % mod
        for b in xs:
            pb = _as_poly(b)
            assert _as_poly(a + b) == pa + pb
            assert _as_poly(a - b) == pa - pb
            assert _as_poly(a * b) == (pa * pb) % mod


@pytest.mark.parametrize("name", EXTENSIONS)
def test_embed_down_cast_round_trips(name):
    ctx = FIELDS[name]()
    chain = []
    sub = ctx.base
    while sub is not None:
        chain.append(sub)
        sub = sub.base
    for sub in chain:
        for v in _sample(sub, n=8):
            up = gf.embed(v, ctx)
            assert up.ctx is ctx and up.encode() == v.encode()
            assert gf.down_cast(up, sub) == v
            assert gf.in_subfield(up, sub)
    alpha = ctx.gen()
    for sub in chain:
        with pytest.raises(CtxMismatchError):
            gf.down_cast(alpha, sub)
    with pytest.raises(CtxMismatchError):
        gf.embed(alpha, ctx.base)


@pytest.mark.parametrize("name", sorted(LOGS))
def test_log_tier_matches_computed_ops_on_the_whole_field(name):
    ctx = FIELDS[name]()
    add, sub, neg, mul, inv, addmul = gf._vector_ops(ctx.base, tuple(c.rep for c in ctx._mod))
    everything = list(range(ctx.order))
    others = [x.rep for x in _sample(ctx, n=5, seed=1)]
    for x in everything:
        assert ctx.neg(x) == neg(x)
        if x:
            assert ctx.inv(x) == inv(x)
        for y in others:
            assert ctx.add(x, y) == add(x, y) and ctx.add(y, x) == add(y, x)
            assert ctx.sub(x, y) == sub(x, y) and ctx.sub(y, x) == sub(y, x)
            assert ctx.mul(x, y) == mul(x, y)
    shifted = everything[1:] + everything[:1]
    for a in others:
        assert ctx.addmul(shifted, a, everything) == addmul(shifted, a, everything)


@pytest.mark.parametrize("name", sorted(LOGS))
def test_log_tier_needs_no_digit_split(monkeypatch, name):
    ctx = FIELDS[name]()
    xs = _sample(ctx, n=8)

    def split(*args):
        raise AssertionError("log-tier arithmetic split an encoding")

    monkeypatch.setattr(gf, "_number", split)
    monkeypatch.setattr(gf, "_digits", split)
    one = ctx.one()
    for a in xs:
        assert a ** (ctx.order - 1) == (one if a else ctx.zero())
        if a:
            assert a * a.inverse() == one
        for b in xs:
            assert (a + b) - b == a and (a - b) + b == a and -(a - b) == b - a
            assert (a + b) * (a - b) == a * a - b * b
    f = upoly.Poly(ctx, xs[3:])
    g = upoly.Poly(ctx, xs[:4] + [one])
    q, r = divmod(f * g + g.derivative(), g)
    assert q == f and r == g.derivative()


def _least_generator(p, order, mul):
    """The least encoding of multiplicative order order - 1, found by
    stepping through its powers from encoding 1.  A reference only."""
    for g in range(1, order):
        x, n = g, 1
        while x != 1:
            x, n = mul(x, g), n + 1
        if n == order - 1:
            return g


@pytest.mark.parametrize("name", ["F169", "F256", "F4^2", "F289", "F512", "F4^5", "F4^2^3"])
def test_primitive_element_search_skips_the_prime_field(monkeypatch, name):
    ctx = FIELDS[name]()
    add, _, _, mul, _, _ = gf._vector_ops(ctx.base, tuple(c.rep for c in ctx._mod))
    arrays = gf._log_arrays(ctx.p, ctx.order, add, mul)
    assert arrays[0][1] >= ctx.p  # no element of F_p generates the group
    monkeypatch.setattr(gf, "_primitive_element", _least_generator)
    assert gf._log_arrays(ctx.p, ctx.order, add, mul) == arrays


def test_encoding_is_little_endian_over_the_base():
    ctx = FIELDS["F289^2"]()
    x = ctx.from_coeffs([ctx.base.decode(200), ctx.base.decode(7)])
    assert x.encode() == 200 + 7 * 289
    assert gf.parse_elem(ctx, gf.format_elem(x)) == x
    assert gf.format_elem(x) == "[[13,11],[7,0]]"


@pytest.mark.parametrize("name", ["F257", "F289"])
def test_divmod_identity_computed_fields(name):
    ctx = FIELDS[name]()
    rng = random.Random(name)

    def poly(deg):
        return upoly.Poly(ctx, [ctx.decode(rng.randrange(ctx.order)) for _ in range(deg)]
                          + [ctx.decode(rng.randrange(1, ctx.order))])

    for fd, gd in [(0, 0), (3, 5), (12, 4), (30, 7), (9, 9)]:
        f, g = poly(fd), poly(gd)
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.deg < g.deg


def test_extend_is_memoized_and_bounded(monkeypatch):
    F3 = gf.prime_field(3)
    h = upoly.Poly.from_ints(F3, [1, 0, 1])
    assert gf.extend(F3, h) is gf.extend(F3, h)
    with pytest.raises(SizeCapError):
        gf.extend(F3, h, cap=8)  # the cap holds even when the field is cached
    F7 = gf.prime_field(7)
    assert gf.extension_of(F7, 2) is gf.extend(F7, gf.least_irreducible(F7, 2))
    with pytest.raises(SizeCapError):
        gf.extension_of(F7, 2, cap=48)

    monkeypatch.setattr(gf, "_extend_cache", {})
    monkeypatch.setattr(gf, "_CACHE_LIMIT", 3)
    F5 = gf.prime_field(5)
    moduli = list(upoly.monic_irreducibles(F5, 2))[:5]
    fields = [gf.extend(F5, h) for h in moduli]
    assert len(gf._extend_cache) == 3
    assert gf.extend(F5, moduli[-1]) is fields[-1]
    rebuilt = gf.extend(F5, moduli[0])  # the oldest was evicted
    assert rebuilt is not fields[0] and rebuilt == fields[0]
    assert len(gf._extend_cache) == 3


def test_field_create_reads_the_cap_before_its_cache(monkeypatch):
    F9 = gf.field_create(3, 2)
    assert gf.field_create(3, 2) is F9
    monkeypatch.setenv("ORBITFACTOR_SIZE_CAP", "8")
    with pytest.raises(SizeCapError):
        gf.field_create(3, 2)
    with pytest.raises(SizeCapError):
        gf.field_create(3, 2, cap=8)
    monkeypatch.setenv("ORBITFACTOR_SIZE_CAP", "9")
    assert gf.field_create(3, 2) is F9


def test_field_create_is_the_extension_of_its_prime_field():
    # one context per field, whichever constructor asks for it
    for p, m in [(2, 2), (3, 2), (2, 3), (5, 1)]:
        assert gf.field_create(p, m) is gf.extension_of(gf.prime_field(p), m)


@pytest.mark.parametrize("make, cache, key_of", [
    (gf.prime_field, "_prime_cache", lambda p: p),
])
def test_field_caches_are_bounded(monkeypatch, make, cache, key_of):
    monkeypatch.setattr(gf, "_prime_cache", {})
    primes = [p for p in range(257, 2000) if gf.is_prime(p)][:65]  # above the table limit
    fields = [make(p) for p in primes]
    held = getattr(gf, cache)
    assert len(held) == 64 and key_of(primes[0]) not in held
    assert make(primes[-1]) is fields[-1]
    rebuilt = make(primes[0])  # the oldest entry was evicted
    assert rebuilt is not fields[0] and rebuilt == fields[0]
    assert gf.prime_field(primes[0]).one() + fields[0].one() == rebuilt.elem(2)
    assert len(held) == 64


def test_field_create_256_builds_its_tables_quickly():
    import time

    gf._extend_cache.pop(gf.least_irreducible(gf.prime_field(2), 8), None)
    start = time.perf_counter()
    tables = gf.field_create(2, 8).tables()
    elapsed = time.perf_counter() - start
    assert tables is not None
    assert elapsed < 0.5, f"field_create(2, 8) took {elapsed:.3f}s"
