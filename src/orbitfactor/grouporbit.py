"""Finite subgroups of PGL(2,q): generation, orbits, stabilizers, ramification.

Non-regular orbits are found from the fixed points of group elements.  Those
of a non-identity element are infinity or the roots of a quadratic read off
its matrix, so they all lie on P^1(F_{q^2}) and come from the quadratic
formula, without scanning any extension, once per fixed-point equation,
since elements with the same equation share their fixed points; they are
the basis of the ramification audit.  Element orders come from the matrix
too (see :meth:`moebius.Moebius.order`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from . import gf, moebius as mo
from .errors import (
    CtxMismatchError,
    InvariantViolation,
    NotInGroupError,
    SizeCapError,
)

# enumeration guards, independent of the field-size cap
MAX_GROUP_ORDER = 1 << 16
MAX_POINTS = 1 << 20


class Subgroup:
    """A subgroup of PGL(2,q), stored as a canonically ordered element tuple."""

    __slots__ = ("ctx", "elements", "_set", "_hash")

    def __init__(self, ctx: gf.FieldCtx, elements: Iterable[mo.Moebius]):
        elems = sorted(set(elements), key=lambda s: s.key())
        self.ctx = ctx
        self.elements = tuple(elems)
        self._set = frozenset(elems)
        self._hash = hash((ctx, self.elements))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[mo.Moebius]:
        return iter(self.elements)

    def __contains__(self, s: mo.Moebius) -> bool:
        return s in self._set

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.ctx == other.ctx and self.elements == other.elements

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Subgroup(order={len(self)}, over {self.ctx})"

    @property
    def order(self) -> int:
        return len(self.elements)

    def generator(self) -> mo.Moebius | None:
        """The first element, in key order, whose order is |G|, or None when
        G is not cyclic."""
        n = len(self)
        return next((s for s in self.elements if s.order() == n), None)

    def is_cyclic(self) -> bool:
        return self.generator() is not None


@dataclass(frozen=True)
class Orbit:
    points: tuple[mo.ProjPoint, ...]
    stabilizer: Subgroup
    regular: bool

    @property
    def size(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class OrbitReport:
    k: int
    ext: gf.FieldCtx
    orbits: tuple[Orbit, ...]


def generate(ctx: gf.FieldCtx, gens: Iterable[mo.Moebius]) -> Subgroup:
    """Closure of the generators under composition and inverse."""
    gens = list(gens)
    for g in gens:
        if g.ctx != ctx:
            raise CtxMismatchError("generator over the wrong field")
    limit = ctx.order ** 3 - ctx.order if ctx.order > 1 else 1
    identity = mo.Moebius.identity(ctx)
    seen = {identity}
    frontier = [identity]
    gens_and_inverses = []
    for g in gens:
        gens_and_inverses.append(g)
        gens_and_inverses.append(g.inverse())
    while frontier:
        nxt = []
        for s in frontier:
            for g in gens_and_inverses:
                t = g.compose(s)
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        if len(seen) > limit:
            raise InvariantViolation("closure exceeded |PGL(2,q)|; bad input")
        frontier = nxt
    return Subgroup(ctx, seen)


def pgl_keys(ctx: gf.FieldCtx) -> Iterator[tuple[int, int, int, int]]:
    """`Moebius.key()` of every element of PGL(2,q), in increasing order.

    A key is the normalized entries (a, b, c, d) as encodings: first
    (0, 1, c, d) with c != 0, then (1, b, c, d) with d != bc.  No Moebius
    is built.  Raises SizeCapError, on the first step, when q^3 - q exceeds
    MAX_GROUP_ORDER.
    """
    q = ctx.order
    if q ** 3 - q > MAX_GROUP_ORDER:
        raise SizeCapError(f"PGL(2,{q}) has order {q**3 - q}, beyond the enumeration cap")
    mul = ctx.mul
    for c in range(1, q):
        for d in range(q):
            yield (0, 1, c, d)
    for b in range(q):
        for c in range(q):
            bc = mul(b, c)
            for d in range(q):
                if d != bc:
                    yield (1, b, c, d)


def full_pgl(ctx: gf.FieldCtx) -> Subgroup:
    """All of PGL(2,q), order q^3 - q, built from :func:`pgl_keys`."""
    group = Subgroup(ctx, (mo.Moebius.from_key(ctx, k) for k in pgl_keys(ctx)))
    q = ctx.order
    if len(group) != q ** 3 - q:
        raise InvariantViolation("PGL enumeration produced the wrong order")
    return group


def orbit_images(F: gf.FieldCtx, keys: list, z: int) -> list[int]:
    """The images of the point z of P^1(F), an encoding or -1 for infinity,
    under the maps with the given keys (over F or a subfield), in their
    order; raises unless the distinct images times the maps that fix z
    number len(keys), the orbit-stabilizer identity when the keys form a
    group."""
    image = mo.image
    images = [image(F, k, z) for k in keys]
    if len(set(images)) * images.count(z) != len(keys):
        raise InvariantViolation(f"orbit-stabilizer identity fails on the orbit of "
                                 f"{mo.point_of(F, z)}")
    return images


def _orbits(G: Subgroup, candidates: Iterable[int], ext: gf.FieldCtx) -> list[Orbit]:
    """The G-orbits through the candidates, points of P^1(ext) given as
    encodings in increasing order (-1 for infinity), each with its stabilizer
    and checked by :func:`orbit_images`, sorted by size and then least point.

    The first candidate not yet in an orbit is the least point of its own
    orbit, since every smaller point is already placed; one pass of its
    images over G gives both the orbit and the stabilizer of that point.
    Points are built only for the returned orbits.
    """
    elements = G.elements
    keys = [s.key() for s in elements]
    n = len(elements)
    found = []
    assigned: set[int] = set()
    for z in candidates:
        if z in assigned:
            continue
        images = orbit_images(ext, keys, z)
        pts = set(images)
        stab = [s for s, w in zip(elements, images) if w == z]
        assigned |= pts
        found.append((sorted(pts), stab))
    found.sort(key=lambda o: (len(o[0]), o[0][0]))
    return [Orbit(tuple(mo.point_of(ext, x) for x in pts), Subgroup(G.ctx, stab), len(pts) == n)
            for pts, stab in found]


def orbit_decomposition(G: Subgroup, k: int) -> OrbitReport:
    """Partition of P^1(F_{q^k}) into G-orbits with stabilizers."""
    q = G.ctx.order
    if gf.power_exceeds(q, k, MAX_POINTS):
        raise SizeCapError(f"{q}^{k} points exceed the enumeration cap")
    ext = gf.extension_of(G.ctx, k)
    report = OrbitReport(k, ext, tuple(_orbits(G, range(-1, ext.order), ext)))
    if sum(o.size for o in report.orbits) != ext.order + 1:
        raise InvariantViolation("orbits do not partition the projective line")
    return report


def nonregular_orbits(G: Subgroup) -> tuple[Orbit, ...]:
    """The non-regular orbits of G on the projective line over the closure.

    Every point with a nontrivial stabilizer is a fixed point of some
    non-identity element, hence lies on P^1(F_{q^2}); it suffices to decompose
    the union of those fixed points, found as encodings over one F_{q^2}.
    Elements with the same :func:`moebius.fixed_point_equation` fix the same
    points (at most two over the closure, one when unipotent), so the
    equation is solved once, by the first element of G's order that has it;
    each point found is then checked to be fixed by every other element with
    that equation, one image each.
    """
    if len(G) == 1:
        return ()
    ctx = G.ctx
    ext = gf.extension_of(ctx, 2)
    image, equation = mo.image, mo.fixed_point_equation
    fixed_by: dict[tuple, tuple[int, ...]] = {}
    candidates: set[int] = set()
    for s in G:
        key = s.key()
        if key == mo.IDENTITY_KEY:
            continue
        eq = equation(ctx, key)
        points = fixed_by.get(eq)
        if points is None:
            # solved and checked by fixed_encodings
            points = fixed_by[eq] = s.fixed_encodings(ext)
            candidates.update(points)
            continue
        for x in points:
            if image(ext, key, x) != x:
                raise InvariantViolation(f"{s} moves the fixed point {mo.point_of(ext, x)} "
                                         "of its fixed-point equation")
    orbits = _orbits(G, sorted(candidates), ext)
    for orbit in orbits:
        if not candidates.issuperset(-1 if z.value is None else z.value.rep
                                     for z in orbit.points):
            raise InvariantViolation("orbit of a fixed point left the fixed-point set")
        if orbit.regular:
            raise InvariantViolation("bad stabilizer for a non-regular orbit")
    return tuple(orbits)


def nonregular_census(G: Subgroup) -> list[tuple[int, int]]:
    """(orbit size, stabilizer order) for each non-regular orbit over the closure.

    At most three entries; at most two when p divides |G|, and exactly one
    if and only if G is a nontrivial p-group.
    """
    census = [(o.size, len(o.stabilizer)) for o in nonregular_orbits(G)]
    if len(census) > 3:
        raise InvariantViolation("more than three non-regular orbits")
    if len(G) % G.ctx.p == 0 and len(census) > 2:
        raise InvariantViolation("p divides |G| but there are three non-regular orbits")
    return census


def _p_part(n: int, p: int) -> int:
    out = 1
    while n % p == 0:
        out *= p
        n //= p
    return out


@dataclass(frozen=True)
class RamificationAudit:
    sum_differents: int
    target: int           # 2|G| - 2
    tame_sum: int         # sum of (e_P - 1), equals sum_differents when tame
    passed: bool


def riemann_hurwitz_audit(G: Subgroup) -> RamificationAudit:
    """Genus-0 ramification audit: 2|G|-2 must equal the sum of differents.

    For each non-regular point, e_P is the stabilizer order; the different is
    e_P - 1 at tame points and e_P + q_P - 2 at wild ones, with q_P the p-part
    of e_P.
    """
    p = G.ctx.p
    total = 0
    tame = 0
    for orbit in nonregular_orbits(G):
        e = len(orbit.stabilizer)
        delta = (e - 1) if e % p else (e + _p_part(e, p) - 2)
        total += orbit.size * delta
        tame += orbit.size * (e - 1)
    target = 2 * len(G) - 2
    return RamificationAudit(total, target, tame, total == target)


def centralizer(G: Subgroup, s: mo.Moebius) -> Subgroup:
    """Brute-force centralizer of s within G."""
    if s not in G:
        raise NotInGroupError(f"{s} is not in the subgroup")
    return Subgroup(G.ctx, (g for g in G if g.compose(s) == s.compose(g)))


def conjugates(G: Subgroup, s: mo.Moebius) -> tuple[mo.Moebius, ...]:
    """The G-conjugacy class of s, canonically sorted."""
    if s not in G:
        raise NotInGroupError(f"{s} is not in the subgroup")
    out = {g.compose(s).compose(g.inverse()) for g in G}
    return tuple(sorted(out, key=lambda t: t.key()))


def a5_subgroup(ctx: gf.FieldCtx) -> Subgroup:
    """A subgroup of order 60 with the icosahedral presentation.

    Searches for a of order 5 and b of order 2 with a*b of order 3 whose
    closure has order 60.  Deterministic: first hit in canonical order wins.
    The candidates come from one pass over :func:`pgl_keys`; a non-identity
    element's order is fixed by its :func:`moebius.kappa`, so it is computed
    once per kappa, and only elements of order 5 and 2 become Moebius maps.
    """
    order_of_kappa: dict = {}
    fives, involutions = [], []
    for k in pgl_keys(ctx):
        if k == mo.IDENTITY_KEY:
            continue
        kappa = mo.kappa(ctx, *k)
        r = order_of_kappa.get(kappa)
        if r is None:
            r = order_of_kappa[kappa] = mo.Moebius.from_key(ctx, k).order()
        if r == 5:
            fives.append(mo.Moebius.from_key(ctx, k))
        elif r == 2:
            involutions.append(mo.Moebius.from_key(ctx, k))
    if not fives:
        raise InvariantViolation(f"PGL(2,{ctx.order}) has no elements of order 5")
    for a in fives:
        for b in involutions:
            if a.compose(b).order() != 3:
                continue
            H = generate(ctx, [a, b])
            if len(H) == 60:
                return H
    raise InvariantViolation(f"no icosahedral subgroup found in PGL(2,{ctx.order})")
