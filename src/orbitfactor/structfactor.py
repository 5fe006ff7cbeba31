"""Structured factorization of c*T^(q+1) + d*T^q - a*T - b and its relatives.

The roots of this polynomial are exactly the points moved to their q-th power
by s(x) = (ax+b)/(cx+d).  After the rational fixed points of s are stripped,
every irreducible factor is the orbit polynomial of the cyclic group
generated by s, specialized in its linear one-parameter family at some
lambda in F_q.  That family is read off two fibres of its parameter, the
orbit of infinity and one more, each walked under s alone (see
:func:`invariants.cyclic_family`), without the powers of s and without
expanding the orbit polynomial over F_q(x).  The factors are found by
sweeping lambda over F_q, using only F_q arithmetic on encoded coefficient
lists (for s of order q+1 the slopes are T^q - T and the fibres companion
polynomials, so no extension field is built and no orbit product is
expanded), and the result is cross-checked against exact reconstruction of
the input.

The family is also the invariant: the generator of the invariant field of
G is f/g = -B/Ahat, read off the family (see
:func:`invariants.invariant_generator`), so every f - lambda*g is the family
member F_lambda = sum of (a_i*lambda + b_i) T^i, one ``ctx.addmul`` of the
encoded b_i and a_i (:func:`invariants.family_member` returns it as a
polynomial).  For s of order exactly q+1, every F_lambda is, up to a unit,
the companion polynomial of one element s + nu of <s> (the matrix of s plus
nu times the identity), so :func:`lambda_family_report` reads each factor
degree off that element's order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from . import gf, grouporbit as go, invariants as inv, moebius as mo, upoly
from .errors import (
    IdentityInputError,
    InvariantViolation,
    SizeCapError,
    TrivialGroupError,
    WrongOrderError,
)


def frobenius_companion(s: mo.Moebius) -> upoly.Poly:
    """c*T^(q+1) + d*T^q - a*T - b for the normalized entries of s.

    Its roots are the finite solutions of s(z) = z^q; degree q+1 when c is
    nonzero and q otherwise.
    """
    return companion_poly(s.ctx, s.entries())


def companion_poly(ctx: gf.FieldCtx, entries: tuple, k: int = 1) -> upoly.Poly:
    """c*T^(q^k+1) + d*T^(q^k) - a*T - b from explicit (a, b, c, d)."""
    a, b, c, d = entries
    q = ctx.order
    n = q ** k + 1
    coeffs = [ctx.zero()] * (n + 1)
    coeffs[n] = c
    coeffs[n - 1] = d
    coeffs[1] = coeffs[1] - a
    coeffs[0] = coeffs[0] - b
    return upoly.Poly(ctx, coeffs)


def frobenius_element(G: go.Subgroup, h: upoly.Poly) -> mo.Moebius:
    """The first g = (a, b, c, d) in G whose companion polynomial h divides.

    h | c*T^(q+1) + d*T^q - a*T - b says g(z) = z^q at every root z of h.
    With X = T^q mod h the test is c*(T*X mod h) + d*X == a*T + b in
    F_q[T]/(h), so no extension field is built.  On a regular orbit the
    element is unique; raises when G has none.
    """
    ctx = G.ctx
    t = upoly.Poly.x(ctx) % h
    x = upoly.powmod(t, ctx.order, h)
    tx = (t * x) % h
    for g in G.elements:
        if tx.scale(g.c) + x.scale(g.d) == t.scale(g.a) + g.b:
            return g
    raise InvariantViolation("no group element moves a root of h to its q-th power")


@dataclass(frozen=True)
class FactorEntry:
    poly: upoly.Poly          # monic irreducible over F_q
    lam: mo.ProjPoint         # value of the family parameter on this factor


@dataclass(frozen=True)
class StructuredFactorization:
    input: upoly.Poly
    unit: gf.FieldElem
    removed_linear: tuple[upoly.Poly, ...]
    factors: tuple[FactorEntry, ...]
    degree_r: int
    family: tuple[tuple[gf.FieldElem, gf.FieldElem], ...]  # (a_i, b_i) of <s>

    def reconstruct(self) -> upoly.Poly:
        return math.prod(self.removed_linear + self.monic_factors(),
                         start=upoly.Poly.constant(self.unit))

    def monic_factors(self) -> tuple[upoly.Poly, ...]:
        return tuple(entry.poly for entry in self.factors)

    def as_multiset(self) -> tuple:
        polys = sorted(list(self.removed_linear) + [e.poly for e in self.factors],
                       key=lambda f: f.key())
        return tuple((f.key(), 1) for f in polys)


def factor_by_orbit(s: mo.Moebius) -> StructuredFactorization:
    """Factor the companion polynomial of s by orbit-polynomial specialization.

    Finite fixed points of s on P^1(F_q) are stripped as linear factors
    (this is the whole adjustment needed in the split and unipotent cases).
    Every remaining irreducible factor has degree r = order(s) and is the
    orbit polynomial of <s> specialized at one of its roots, i.e. the member
    F_lambda of the linear one-parameter family at some lambda in F_q (the
    poles of the parameter are rational, so lambda is never infinite).  The
    family comes from :func:`invariants.cyclic_family`, encoded, from orbit
    walks of s in F_q arithmetic only, with no powers of s and no Subgroup:
    the orbit of infinity gives its slopes and one more fibre its
    constants, checked at a third fibre when there is one; it is decoded
    once, for the result.
    The factors are the F_lambda that divide the remainder, found by
    sweeping lambda over F_q; a degree-r divisor of a squarefree product of
    degree-r irreducibles is one of them.  Once the remainder has degree r
    it is the last factor, and its lambda is its coefficient at the
    parameter index j (a_j = 1 and b_j = 0), checked by rebuilding
    F_lambda; so a single factor, as for order q+1, tries no lambda.

    The sweep runs on encoded coefficient lists, from
    :func:`invariants.monic_companion` through the stripping, each F_lambda
    (one ``addmul``) and the check that unit times the product of the
    factors is the companion, with the kernels :func:`upoly.encoded_divmod`
    and :func:`upoly.encoded_mul`; polynomials are built for the result only.
    """
    if s.is_identity():
        raise IdentityInputError("companion of the identity is T^q - T; nothing structured")
    ctx = s.ctx
    work = inv.monic_companion(ctx, s.key())

    removed = []
    for z in s.fixed_encodings(ctx):
        if z < 0:
            continue
        lin = [ctx.neg(z), 1]
        work, rem = upoly.encoded_divmod(ctx, work, lin)
        if rem:
            raise InvariantViolation("finite fixed point is not a root of the companion")
        removed.append(lin)

    r = s.order()
    if (len(work) - 1) % r:
        raise InvariantViolation("stripped degree is not a multiple of the order")

    a_vec, b_vec, j = inv.cyclic_family(s)
    if len(a_vec) != r + 1:
        raise InvariantViolation("orbit polynomial degree differs from the order")
    addmul = ctx.addmul
    found = []
    for lam in range(ctx.order):
        if len(work) <= r + 1:
            break
        candidate = addmul(b_vec, lam, a_vec)  # F_lambda, encoded
        quotient, rem = upoly.encoded_divmod(ctx, work, candidate)
        if not rem:
            work = quotient
            found.append((candidate, lam))
    if len(work) > 1:
        # the last factor is the remainder: a_j = 1 and b_j = 0, so its
        # lambda is its coefficient at j
        if len(work) != r + 1 or addmul(b_vec, work[j], a_vec) != work:
            raise InvariantViolation("the family does not exhaust the remainder")
        found.append((work, work[j]))
    found.sort()  # all of degree r, so this is the order of Poly.key()

    ps = frobenius_companion(s)
    unit = ps.lc()
    product = [unit.rep]
    for f in removed + [f for f, _ in found]:
        product = upoly.encoded_mul(ctx, f, product)
    if product != [c.rep for c in ps.coeffs]:
        raise InvariantViolation("structured factors do not reconstruct the input")
    decode = ctx.decode
    linears = tuple(upoly.Poly(ctx, list(map(decode, f))) for f in removed)
    factors = tuple(FactorEntry(upoly.Poly(ctx, list(map(decode, f))),
                                mo.ProjPoint(decode(lam))) for f, lam in found)
    family = tuple((decode(a_i), decode(b_i)) for a_i, b_i in zip(a_vec, b_vec))
    return StructuredFactorization(ps, unit, linears, factors, r, family)


# -- families over all lambda ----------------------------------------------------


def _euler_phi(n: int) -> int:
    out = n
    d = 2
    m = n
    while d * d <= m:
        if m % d == 0:
            out -= out // d
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out -= out // m
    return out


def divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


@dataclass(frozen=True)
class LambdaFamilyReport:
    """Per-degree counts of lambda values, against the Euler-phi prediction."""

    counts: dict
    total: int

    def passed(self) -> bool:
        return all(count == expected for count, expected in self.counts.values())


def lambda_family_report(s: mo.Moebius) -> LambdaFamilyReport:
    """For s of order exactly q+1: the factor degree of f - lambda*g, the
    family member F_lambda of G = <s>, for every lambda in F_q.

    Every orbit-polynomial coefficient has numerator mu*(companion of s) +
    nu*(x^q - x), and adding nu*(T^q - T) to the companion of s, with matrix
    M = (a, b; c, d), gives the companion of M + nu*I.  So each
    h = F_lambda is, up to the unit c, the companion of the element
    w = (a+nu, b, c, d+nu) of G = <s> with nu = c*h[T^q] - d; that identity
    (on encodings, against :func:`invariants.monic_companion` of w), w in G,
    w not the identity and a different w for each lambda are checked on
    every lambda.  No root of h is fixed by s (it would be rational, and s
    is nonsplit), so every factor of h has degree order(w), which is
    (q+1)/gcd(k, q+1) for w = s^k.  The degree r appears for exactly phi(r)
    values of lambda, for each divisor r > 1 of q+1, and the counts sum
    to q.

    The order is checked first.  The family comes from
    :func:`invariants.cyclic_family`, encoded; the powers of s serve only
    to look up the exponent k of each w.
    """
    ctx = s.ctx
    q = ctx.order
    if s.order() != q + 1:
        raise WrongOrderError(f"order must be exactly q+1 = {q + 1}")
    a_vec, b_vec, _ = inv.cyclic_family(s)
    exponent = {t.key(): k for k, t in enumerate(s.powers(), 1)}  # t = s^k
    a, b, c, d = s.key()
    mul, add, sub = ctx.mul, ctx.add, ctx.sub
    seen = set()
    counts: dict[int, int] = {}
    for lam in range(q):
        h = ctx.addmul(b_vec, lam, a_vec)  # F_lambda, encoded
        nu = sub(mul(c, h[q]), d)
        w = mo.Moebius.from_key(ctx, (add(a, nu), b, c, add(d, nu))).key()
        k = exponent.get(w)
        if w == mo.IDENTITY_KEY or k is None or w in seen:
            raise InvariantViolation("f - lambda*g is not the companion of a new "
                                     "non-identity element of <s>")
        if not w[2] or inv.monic_companion(ctx, w) != h:
            raise InvariantViolation("f - lambda*g is not the companion of M + nu*I")
        seen.add(w)
        r = (q + 1) // math.gcd(k, q + 1)
        counts[r] = counts.get(r, 0) + 1
    report = {r: (counts.get(r, 0), _euler_phi(r))
              for r in divisors(q + 1) if r > 1}
    total = sum(n for n, _ in report.values())
    result = LambdaFamilyReport(report, total)
    if not result.passed() or total != q:
        raise InvariantViolation("lambda counts do not match the phi(r) law")
    return result


# -- arbitrary subgroups: f - lambda*g ----------------------------------------------


@dataclass(frozen=True)
class SpecializationFactors:
    """Factorization of f - lambda*g, the family member F_lambda, for the
    canonical generator f/g of G."""

    input: upoly.Poly
    lam: gf.FieldElem
    regular: bool
    factors: tuple[tuple[upoly.Poly, int], ...]
    degree: int
    multiplicity: int
    witness: Optional[mo.Moebius]   # element of order = degree, regular case only

    def count(self) -> int:
        return sum(m for _, m in self.factors)


def factor_f_lambda(G: go.Subgroup, lam: gf.FieldElem) -> SpecializationFactors:
    """Factor f(T) - lambda*g(T) and witness the common factor degree.

    When G acts regularly on the roots all irreducible factors share one
    degree r, the order of the element moving a root to its q-th power; the
    non-regular case instead carries one uniform multiplicity equal to the
    stabilizer order.
    """
    ctx = G.ctx
    if len(G) < 2:
        raise TrivialGroupError("the trivial group fixes everything")
    target = inv.family_member(ctx, inv.orbit_polynomial(G).family, lam)
    fac = upoly.factorize(target)
    degrees = {poly.deg for poly, _ in fac.factors}
    mults = {mult for _, mult in fac.factors}
    if len(degrees) != 1 or len(mults) != 1:
        raise InvariantViolation("specialization has mixed degrees or multiplicities")
    d = degrees.pop()
    e = mults.pop()
    if e > 1:
        return SpecializationFactors(target, lam, False, fac.factors, d, e, None)
    if d == 1:
        return SpecializationFactors(target, lam, True, fac.factors, d, 1,
                                     mo.Moebius.identity(ctx))
    witness = frobenius_element(G, fac.factors[0][0])
    if witness.order() != d:
        raise InvariantViolation("witness order does not equal the factor degree")
    return SpecializationFactors(target, lam, True, fac.factors, d, 1, witness)


def all_cubics_product(ctx: gf.FieldCtx) -> upoly.Poly:
    """f - phi(alpha)*g for alpha of degree 3 equals the product of every
    monic irreducible cubic; returns that product."""
    G = go.full_pgl(ctx)
    phi = inv.invariant_generator(G)
    ext3 = gf.extension_of(ctx, 3, cap=max(gf.size_cap(), ctx.order ** 3))
    alpha = ext3.gen()
    value = phi.eval_point(mo.ProjPoint(alpha))
    if value.value is None:
        raise InvariantViolation("phi has a pole at a degree-3 element")
    target = inv.family_member(ctx, inv.orbit_polynomial(G).family,
                               gf.down_cast(value.value, ctx))
    cubics = list(upoly.monic_irreducibles(ctx, 3))
    product = math.prod(cubics, start=upoly.Poly.one(ctx))
    if len(cubics) != (ctx.order ** 3 - ctx.order) // 3:
        raise InvariantViolation("wrong number of monic irreducible cubics")
    if target != product:
        raise InvariantViolation("specialization is not the product of all cubics")
    return product


# -- general exponents q^k -------------------------------------------------------


@dataclass(frozen=True)
class GeneralKFactorization:
    input: upoly.Poly                       # over F_q
    k: int
    ground: gf.FieldCtx                     # F_{q^k}
    inner: StructuredFactorization          # factorization over F_{q^k}
    factors: tuple[upoly.Poly, ...]         # monic irreducible over F_q
    unit: gf.FieldElem

    def reconstruct(self) -> upoly.Poly:
        return math.prod(self.factors, start=upoly.Poly.constant(self.unit))


def factor_general_k(s: mo.Moebius, k: int) -> GeneralKFactorization:
    """Factor c*T^(q^k+1) + d*T^(q^k) - a*T - b over F_q.

    The polynomial is first factored structurally over F_{q^k}; multiplying
    each factor by its full orbit under the q-power Frobenius yields the
    irreducible factors over F_q, each checked irreducible.  For k = 1 every
    orbit is a single factor.
    """
    ctx = s.ctx
    q = ctx.order
    if q ** k > gf.size_cap():
        raise SizeCapError(f"{q}^{k} exceeds the size cap")
    input_poly = companion_poly(ctx, s.entries(), k)
    ground = gf.extension_of(ctx, k)
    inner = factor_by_orbit(s.lift_to(ground))

    def rational(c: gf.FieldElem, what: str) -> gf.FieldElem:
        if not gf.in_subfield(c, ctx):
            raise InvariantViolation(f"{what} is not rational")
        return gf.down_cast(c, ctx)

    def descend(poly: upoly.Poly) -> upoly.Poly:
        return upoly.Poly(ctx, [rational(c, "merged factor coefficient") for c in poly.coeffs])

    def frob_poly(poly: upoly.Poly) -> upoly.Poly:
        return upoly.Poly(ground, tuple(c ** q for c in poly.coeffs))

    pending = list(inner.removed_linear) + [e.poly for e in inner.factors]
    pending_set = {p: None for p in pending}
    merged = []
    while pending_set:
        poly = next(iter(pending_set))
        orbit = [poly]
        nxt = frob_poly(poly)
        while nxt != poly:
            if nxt not in pending_set:
                raise InvariantViolation("Frobenius conjugate is missing from the factors")
            orbit.append(nxt)
            nxt = frob_poly(nxt)
        for member in orbit:
            pending_set.pop(member)
        merged.append(descend(math.prod(orbit, start=upoly.Poly.one(ground))))
    for factor in merged:
        if not upoly.is_irreducible(factor):
            raise InvariantViolation("merged factor is reducible over the ground field")
    merged.sort(key=lambda f: f.key())
    unit = rational(inner.unit, "unit")
    result = GeneralKFactorization(input_poly, k, ground, inner, tuple(merged), unit)
    if result.reconstruct() != input_poly:
        raise InvariantViolation("merged factors do not reconstruct the input")
    return result
