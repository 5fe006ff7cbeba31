"""Structured factorization of c*T^(q+1) + d*T^q - a*T - b and its relatives.

The roots of this polynomial are the points moved to their q-th power by
s(x) = (ax+b)/(cx+d).  Past the rational fixed points of s, every irreducible
factor is a fibre F_lambda = B + lambda*A of the invariant t = -B/A of <s>:
the member at lambda of the linear family of its orbit polynomial, read off
orbit walks of s alone (:func:`invariants.cyclic_family`).  So the factors
come from expanding the companion in A and B in F_q arithmetic, with no
lambda tried; :func:`factor_general_k` does the same for degree q^k + 1.
Each result is checked by exact reconstruction of the input.

For f/g = -B/A, the generator of the invariant field, every f - lambda*g is
F_lambda, one ``ctx.addmul`` of the encoded b_i and a_i.  For s of order q+1
each F_lambda is, up to a unit, the companion polynomial of an element
s + nu of <s>, so :func:`lambda_family_report` reads its degree off an order.
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
    coeffs[n], coeffs[n - 1], coeffs[1], coeffs[0] = c, d, -a, -b
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
    poly: upoly.Poly          # monic irreducible over the field of the factorization
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
    """Factor the companion polynomial of s by expanding it in the family of <s>.

    The finite fixed points of s are stripped as linear factors.  Every other
    root lies on a regular orbit of <s>, so the rest W is a product of m
    fibres F_lambda = B + lambda*A, r = order(s), with B = sum of b_i T^i
    monic of degree r, A = sum of a_i T^i of smaller degree and lambda finite
    (the poles of t are rational): W = sum of E_i A^i B^(m-i), E_0 = 1.  Mod B
    only E_m A^m is left, and (W - E_m A^m)/B has the same form with m - 1;
    at m = 1, E_1 is W's coefficient at j (a_j = 1, b_j = 0).  That is
    O(deg(W)^2) operations in F_q on encoded lists, whatever r is.  Then
    P(Y) = sum of E_i Y^(m-i) = product of (Y + lambda) has m roots in F_q.
    """
    return _structured(s, 1)


def _structured(s: mo.Moebius, k: int) -> StructuredFactorization:
    """c*T^(q^k+1) + d*T^(q^k) - a*T - b over F_{q^k}: see :func:`factor_general_k`."""
    if s.is_identity():
        raise IdentityInputError("companion of the identity is T^q - T; nothing structured")
    ctx, key, q = s.ctx, s.key(), s.ctx.order
    ground = gf.extension_of(ctx, k)
    work = inv.monic_companion(ground, key)
    removed = []
    for z in s.fixed_encodings(ground):
        if z < 0:
            continue
        lin = [ground.neg(z), 1]
        work, rem = upoly.encoded_divmod(ground, work, lin)
        if rem:
            raise InvariantViolation("finite fixed point is not a root of the companion")
        removed.append(lin)
    if max(work) >= q:
        raise InvariantViolation("stripped companion is not rational over F_q")
    r = s.order()
    if (len(work) - 1) % r:
        raise InvariantViolation("stripped degree is not a multiple of the order")
    a_vec, b_vec, j = inv._cyclic_family(s, r)
    if len(a_vec) != r + 1:
        raise InvariantViolation("orbit polynomial degree differs from the order")
    # work = sum of E_i A^i B^(m-i): E_m, ..., E_2 off mod B, then E_1 = work[j]
    mul, neg, addmul = ctx.mul, ctx.neg, ctx.addmul
    A = a_vec[:r]  # a_r = 0
    m = (len(work) - 1) // r
    powers = [A]
    for _ in range(m - 1):
        powers.append(upoly.encoded_mul(ctx, powers[-1], A))
    P = [1]  # 1, E_1, ..., E_m: P(Y) from the top
    for power in reversed(powers[1:]):
        high, low = upoly.encoded_divmod(ctx, power, b_vec)
        work, res = upoly.encoded_divmod(ctx, work, b_vec)
        e = mul(res[-1], ctx.inv(low[-1])) if res and len(res) == len(low) else 0
        if res and (not e or any(addmul(res, neg(e), low))):
            raise InvariantViolation("a residue mod B is not a constant times a power of A")
        work[:len(high)] = addmul(work[:len(high)], neg(e), high)
        P.insert(1, e)
    if addmul(b_vec, work[j], a_vec) != work:
        raise InvariantViolation("the expansion in the family leaves a nonzero final remainder")
    P.insert(1, work[j])
    # each root y of P is divided out; once P is linear, Y + lambda, lambda is read off
    gmul, gadd, lams, y = ground.mul, ground.add, [], 0
    while len(P) > 2 and y < ground.order:
        quo = [1]  # P = (Y - y)*quo + P(y), by synthetic division
        for e in P[1:]:
            quo.append(gadd(gmul(quo[-1], y), e))
        if not quo.pop():
            P = quo
            lams.append(ground.neg(y))
        y += 1
    if len(P) == 2:
        lams.append(P[1])
    if len(set(lams)) != m:
        raise InvariantViolation(f"P has {len(set(lams))} distinct roots in F_(q^k), not {m}")
    found = sorted((ground.addmul(b_vec, lam, a_vec), lam) for lam in lams)
    ps = companion_poly(ground, tuple(map(ground.decode, key)))
    product = [ps.lc().rep]
    for f in removed + [f for f, _ in found]:
        product = upoly.encoded_mul(ground, f, product)
    if product != [c.rep for c in ps.coeffs]:
        raise InvariantViolation("structured factors do not reconstruct the input")
    decode = ground.decode
    linears = tuple(upoly.Poly(ground, list(map(decode, f))) for f in removed)
    factors = tuple(FactorEntry(upoly.Poly(ground, list(map(decode, f))),
                                mo.ProjPoint(decode(lam))) for f, lam in found)
    family = tuple((decode(a_i), decode(b_i)) for a_i, b_i in zip(a_vec, b_vec))
    return StructuredFactorization(ps, ps.lc(), linears, factors, r, family)


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

    Its roots are the z with z^(q^k) = s(z).  ``inner`` factors it over
    F_{q^k} as :func:`factor_by_orbit` does over F_q, except that the fixed
    points and the lambdas are found in F_{q^k}; the stripped rest must lie
    over F_q.  As the family does, z -> z^q maps the fibre over lambda to the
    one over lambda^q, and a fixed point z to z^q; each Frobenius orbit of
    entries is multiplied into one factor, checked to be rational and
    irreducible, and the factors to reconstruct the input.  Each is
    irreducible: over a lambda-orbit of size e, z -> z^q permutes the e
    fibres cyclically, and its k-th power, s, is transitive on each fibre, a
    regular orbit of <s>; so the Frobenius is transitive on the e*r roots.
    """
    ctx, q = s.ctx, s.ctx.order
    if gf.power_exceeds(q, k, gf.size_cap()):
        raise SizeCapError(f"{q}^{k} exceeds the size cap")
    input_poly = companion_poly(ctx, s.entries(), k)
    inner = _structured(s, k)
    ground = inner.input.ctx
    # (0, z) labels the linear factor T - z, (1, lambda) the fibre F_lambda
    pending = {(0, ground.neg(lin.coeffs[0].rep)): lin for lin in inner.removed_linear}
    pending.update(((1, e.lam.value.rep), e.poly) for e in inner.factors)
    merged = []
    while pending:
        (kind, label), poly = pending.popitem()
        product = [c.rep for c in poly.coeffs]
        nxt = ground.power(label, q)
        while nxt != label:
            conjugate = pending.pop((kind, nxt), None)
            if conjugate is None:
                raise InvariantViolation("Frobenius conjugate is missing from the factors")
            product = upoly.encoded_mul(ground, product, [c.rep for c in conjugate.coeffs])
            nxt = ground.power(nxt, q)
        if max(product) >= q:
            raise InvariantViolation("merged factor coefficient is not rational")
        merged.append(upoly.Poly(ctx, list(map(ctx.decode, product))))
        if not upoly.is_irreducible(merged[-1]):
            raise InvariantViolation("merged factor is reducible over the ground field")
    merged.sort(key=lambda f: f.key())
    result = GeneralKFactorization(input_poly, k, ground, inner, tuple(merged),
                                   gf.down_cast(inner.unit, ctx))
    if result.reconstruct() != input_poly:
        raise InvariantViolation("merged factors do not reconstruct the input")
    return result
