"""Encoded Moebius maps and one-pass orbits against field-element references.

`RefMoebius` holds its entries as `FieldElem`s and computes with their
operators, as `moebius.Moebius` did before it held encodings;
`ref_orbits` finds each orbit and its least point's stabilizer in two
passes over the group.  Both are references only.
"""

import random

import pytest

from orbitfactor import gf, grouporbit as go, moebius as mo
from orbitfactor.errors import CtxMismatchError, InvariantViolation


class RefMoebius:
    """x -> (ax+b)/(cx+d), entries scaled so the first nonzero one is 1."""

    def __init__(self, a, b, c, d):
        ctx = a.ctx
        if not a * d - b * c:
            raise InvariantViolation("singular coefficient matrix for a Moebius map")
        first = next(e for e in (a, b, c, d) if e)
        if first != ctx.one():
            inv = first.inverse()
            a, b, c, d = a * inv, b * inv, c * inv, d * inv
        self.ctx = ctx
        self.a, self.b, self.c, self.d = a, b, c, d

    def key(self):
        return (self.a.encode(), self.b.encode(), self.c.encode(), self.d.encode())

    def is_identity(self):
        one = self.ctx.one()
        return self.a == one and not self.b and not self.c and self.d == one

    def compose(self, other):
        if self.ctx != other.ctx:
            raise CtxMismatchError("transformations over different fields")
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = other.a, other.b, other.c, other.d
        return RefMoebius(a1 * a2 + b1 * c2, a1 * b2 + b1 * d2,
                          c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)

    def inverse(self):
        return RefMoebius(self.d, -self.b, -self.c, self.a)

    def order(self):
        """The least n with U_n = 0 for U_0 = 0, U_1 = 1,
        U_(n+1) = tr*U_n - det*U_(n-1) (Cayley–Hamilton)."""
        if self.is_identity():
            return 1
        tr, det = self.a + self.d, self.a * self.d - self.b * self.c
        prev, cur, n = self.ctx.zero(), self.ctx.one(), 1
        while cur:
            prev, cur, n = cur, tr * cur - det * prev, n + 1
        return n

    def lift_to(self, ext):
        if ext == self.ctx:
            return self
        return RefMoebius(*(gf.embed(e, ext) for e in (self.a, self.b, self.c, self.d)))

    def apply(self, z):
        if z.value is None:
            return mo.INFINITY if not self.c else mo.ProjPoint(self.a / self.c)
        v = z.value
        if v.ctx != self.ctx:
            if not gf.is_subctx(self.ctx, v.ctx):
                raise CtxMismatchError("point does not lie over the transformation's field")
            return self.lift_to(v.ctx).apply(z)
        den = self.c * v + self.d
        return mo.INFINITY if not den else mo.ProjPoint((self.a * v + self.b) / den)

    def fixed_points(self, k):
        lifted = self.lift_to(gf.extension_of(self.ctx, k))
        a, b, c, d = lifted.a, lifted.b, lifted.c, lifted.d
        if not c:
            out = [mo.INFINITY] + ([mo.ProjPoint(b / (d - a))] if d != a else [])
        else:
            out = [mo.ProjPoint(r) for r in gf.quadratic_roots((d - a) / c, -b / c)]
        assert all(lifted.apply(z) == z for z in out)
        return tuple(sorted(out, key=lambda z: z.key()))


def ref(s):
    return RefMoebius(*s.entries())


def _assert_same_map(s, r):
    assert s.key() == r.key() and s.ctx == r.ctx


def _assert_matches(raw, raw_t, points, ks):
    """The maps with entries raw and raw_t against their references on
    normalization, compose, inverse, apply at the points, order and fixed
    points over F_{q^k}."""
    s, r = mo.Moebius(*raw), RefMoebius(*raw)
    _assert_same_map(s, r)
    _assert_same_map(s.compose(mo.Moebius(*raw_t)), r.compose(RefMoebius(*raw_t)))
    _assert_same_map(s.inverse(), r.inverse())
    for z in points:
        assert s.apply(z) == r.apply(z)
    assert s.order() == r.order()
    if not s.is_identity():
        for k in ks:
            assert s.fixed_points(k) == r.fixed_points(k)


def _random_entries(ctx, rng):
    while True:
        a, b, c, d = (ctx.decode(rng.randrange(ctx.order)) for _ in range(4))
        if a * d - b * c:
            return a, b, c, d


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_every_element_of_pgl_matches_the_reference(p, m):
    ctx = gf.field_create(p, m)
    elements = go.full_pgl(ctx).elements
    line = mo.projective_line(ctx)
    rng = random.Random(f"pgl/{ctx.order}")
    for i, s in enumerate(elements):
        scale = ctx.decode(rng.randrange(1, ctx.order))
        raw = tuple(scale * e for e in s.entries())
        partner = elements[(7 * i + 3) % len(elements)].entries()
        _assert_matches(raw, partner, line, (1, 2))


# an order over F_{2^13} takes thousands of computed products, hence 3 samples
@pytest.mark.parametrize("make,count", [
    (lambda: gf.extension_of(gf.field_create(2, 2), 5), 8),   # F_{4^5}: log tier
    (lambda: gf.field_create(2, 13), 3),                      # F_{2^13}: computed tier
], ids=["F4^5", "F2^13"])
def test_seeded_elements_match_the_reference_on_a_large_field(make, count):
    ext = make()
    base = ext.base
    rng = random.Random(repr(ext))
    points = [mo.INFINITY] + [mo.ProjPoint(ext.decode(rng.randrange(ext.order)))
                              for _ in range(12)]
    ks = (1, 2) if ext.order ** 2 <= gf.size_cap() else (1,)
    for _ in range(count):
        _assert_matches(_random_entries(ext, rng), _random_entries(ext, rng), points, ks)
        # a map over the base field acts on points of ext
        raw = _random_entries(base, rng)
        _assert_matches(raw, _random_entries(base, rng), points, (1, 2))
        assert mo.Moebius(*raw).lift_to(ext).key() == RefMoebius(*raw).lift_to(ext).key()


# -- orbits: the two-pass reference ---------------------------------------------------


def ref_orbit_of(G, z, ext):
    return tuple(sorted({ref(s).lift_to(ext).apply(z) for s in G}, key=lambda w: w.key()))


def ref_stabilizer_of(G, z, ext):
    return go.Subgroup(G.ctx, (s for s in G if ref(s).lift_to(ext).apply(z) == z))


def ref_orbits(G, points, ext):
    orbits, assigned = [], set()
    for z in points:
        if z in assigned:
            continue
        pts = ref_orbit_of(G, z, ext)
        assigned.update(pts)
        stab = ref_stabilizer_of(G, pts[0], ext)
        orbits.append(go.Orbit(pts, stab, len(pts) == len(G)))
    orbits.sort(key=lambda o: (o.size, o.points[0].key()))
    return tuple(orbits)


def ref_nonregular_orbits(G):
    if len(G) == 1:
        return ()
    ext = gf.extension_of(G.ctx, 2)
    candidates = set()
    for s in G:
        if not s.is_identity():
            candidates.update(ref(s).fixed_points(2))
    return ref_orbits(G, sorted(candidates, key=lambda z: z.key()), ext)


def _cyclic(ctx, text):
    return go.Subgroup(ctx, mo.parse_moebius(ctx, text).powers())


@pytest.mark.parametrize("make,ks", [
    (lambda: go.full_pgl(gf.prime_field(2)), (1, 2)),
    (lambda: go.full_pgl(gf.prime_field(3)), (1, 2)),
    (lambda: go.full_pgl(gf.field_create(2, 2)), (1, 2)),
    (lambda: go.full_pgl(gf.prime_field(5)), (1, 2)),
    (lambda: go.a5_subgroup(gf.prime_field(11)), (1, 2)),
    (lambda: _cyclic(gf.prime_field(7), "(3x-1)/(x+3)"), (1, 2, 3)),
    (lambda: _cyclic(gf.field_create(2, 2), "(1)/(x+[0,1])"), (1, 2, 3)),
    (lambda: _cyclic(gf.prime_field(5), "x+1"), (1, 2, 3)),
], ids=["PGL2", "PGL3", "PGL4", "PGL5", "A5<PGL(2,11)", "C8<PGL(2,7)", "C5<PGL(2,4)",
        "C5<PGL(2,5)"])
def test_orbits_match_the_two_pass_reference(make, ks):
    G = make()
    for k in ks:
        report = go.orbit_decomposition(G, k)
        assert report.orbits == ref_orbits(G, mo.projective_line(report.ext), report.ext)
    assert go.nonregular_orbits(G) == ref_nonregular_orbits(G)
