"""Rational invariants of subgroups of PGL(2,q) and their orbit polynomial.

The orbit polynomial of G is the monic degree-|G| polynomial in T whose roots
are the images of x under G; its nonconstant coefficients share a single
denominator A(x) and any one of them generates the invariant function field.
All coefficients are affine in the first nonconstant one, t, which yields
the linear one-parameter family attached to G.  One builder reads the
family off two fibres of t: the orbit of infinity, where t has its poles,
gives the slopes, and one more orbit gives the constants, each a product of
|G| linear factors, O(|G|^2) operations in F_q, or in F_{q^2} for a
transitive group other than the nonsplit torus.  The torus needs no orbit
product: its slopes are T^q - T and its fibres companion polynomials over
F_q, O(q).  :func:`orbit_family` lists each orbit as the images of a point
under every element of G, and :func:`cyclic_family` walks it under one
generator s, on encodings, O(r) images for r = order(s).
:func:`orbit_polynomial` builds the rational-function coefficients from the
family in closed form, without a gcd, and the generator of the invariant
field is its parameter t = -B/Ahat as it stands (Ahat = sum of a_i x^i,
B = sum of b_i x^i), so each f - lambda*g for that generator f/g is the
family member sum of (a_i*lambda + b_i) T^i.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import gf, grouporbit as go, moebius as mo, upoly
from .errors import (
    CtxMismatchError,
    InvariantViolation,
    PoleError,
    TrivialGroupError,
)


class RatFunc:
    """Reduced fraction num/den over F_q with a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: upoly.Poly, den: upoly.Poly):
        if num.ctx != den.ctx:
            raise CtxMismatchError("numerator and denominator over different fields")
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            self.num = num
            self.den = upoly.Poly.one(den.ctx)
            return
        g = upoly.gcd(num, den)
        if g.deg > 0:
            num, den = num // g, den // g
        lead = den.lc()
        if lead != den.ctx.one():
            inv = lead.inverse()
            num, den = num.scale(inv), den.scale(inv)
        self.num = num
        self.den = den

    @classmethod
    def coprime(cls, num: upoly.Poly, den: upoly.Poly) -> "RatFunc":
        """num/den for coprime num and monic den (den = 1 when num = 0), as
        given: no gcd is taken."""
        out = cls.__new__(cls)
        out.num, out.den = num, den
        return out

    @classmethod
    def from_poly(cls, f: upoly.Poly) -> "RatFunc":
        return cls(f, upoly.Poly.one(f.ctx))

    @classmethod
    def x(cls, ctx: gf.FieldCtx) -> "RatFunc":
        return cls.from_poly(upoly.Poly.x(ctx))

    @classmethod
    def constant(cls, c: gf.FieldElem) -> "RatFunc":
        return cls.from_poly(upoly.Poly.constant(c))

    @property
    def ctx(self) -> gf.FieldCtx:
        return self.num.ctx

    @property
    def degree(self) -> int:
        """max(deg num, deg den); the field-extension degree it defines."""
        return max(self.num.deg, self.den.deg)

    def is_constant(self) -> bool:
        return self.num.deg <= 0 and self.den.deg == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        if self.den.deg == 0:
            return f"({upoly.format_poly(self.num, 'x')})"
        return f"({upoly.format_poly(self.num, 'x')})/({upoly.format_poly(self.den, 'x')})"

    # -- field operations -------------------------------------------------------

    def __add__(self, other) -> "RatFunc":
        other = self._coerce(other)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other) -> "RatFunc":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "RatFunc":
        return (-self) + other

    def __mul__(self, other) -> "RatFunc":
        other = self._coerce(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        other = self._coerce(other)
        if not other.num:
            raise ZeroDivisionError("division by the zero function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def _coerce(self, other) -> "RatFunc":
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, upoly.Poly):
            return RatFunc.from_poly(other)
        if isinstance(other, (int, gf.FieldElem)):
            return RatFunc.constant(self.ctx.elem(other) if isinstance(other, int) else other)
        raise TypeError(f"cannot combine RatFunc with {type(other).__name__}")

    # -- composition and evaluation -----------------------------------------------

    def compose_moebius(self, s: mo.Moebius) -> "RatFunc":
        """The function x -> self(s(x)), reduced."""
        ctx = self.ctx
        if s.ctx != ctx:
            raise CtxMismatchError("transformation over a different field")
        n = self.degree
        u = upoly.Poly(ctx, (s.b, s.a))  # numerator of s
        v = upoly.Poly(ctx, (s.d, s.c))  # denominator of s
        u_pows = [upoly.Poly.one(ctx)]
        v_pows = [upoly.Poly.one(ctx)]
        for _ in range(n):
            u_pows.append(u_pows[-1] * u)
            v_pows.append(v_pows[-1] * v)

        def substituted(f: upoly.Poly) -> upoly.Poly:
            out = upoly.Poly.zero(ctx)
            for i, c in enumerate(f.coeffs):
                if c:
                    out = out + (u_pows[i] * v_pows[n - i]).scale(c)
            return out

        return RatFunc(substituted(self.num), substituted(self.den))

    def eval_point(self, z: mo.ProjPoint) -> mo.ProjPoint:
        """Projective evaluation; poles map to infinity.

        At infinity the value is determined by comparing numerator and
        denominator degrees, with the ratio of leading coefficients in the
        balanced case.
        """
        if z.value is None:
            dn, dd = self.num.deg, self.den.deg
            if dn > dd:
                return mo.INFINITY
            ctx = self.ctx
            if dn < dd:
                return mo.ProjPoint(ctx.zero())
            return mo.ProjPoint(self.num.lc() / self.den.lc())
        v = z.value
        den_val = self.den(v)
        if not den_val:
            return mo.INFINITY
        return mo.ProjPoint(self.num(v) / den_val)

    def __call__(self, z: mo.ProjPoint) -> mo.ProjPoint:
        return self.eval_point(z)

    def monic_pair(self) -> tuple[upoly.Poly, upoly.Poly]:
        """(f, g) with f monic and f/g equal to this function."""
        lead = self.num.lc()
        if lead == self.ctx.one():
            return self.num, self.den
        inv = lead.inverse()
        return self.num.scale(inv), self.den.scale(inv)


@dataclass(frozen=True)
class OrbitPolynomial:
    """Monic polynomial in T with RatFunc coefficients, plus its affine family.

    coeffs[i] is the coefficient of T^i (length |G|+1, leading 1).  Every
    coefficient equals a_i * t + b_i where t is the coefficient at
    param_index; that pair list is the linear one-parameter family.
    """

    group: go.Subgroup
    coeffs: tuple[RatFunc, ...]
    family: tuple[tuple[gf.FieldElem, gf.FieldElem], ...]
    param_index: int

    @property
    def parameter(self) -> RatFunc:
        return self.coeffs[self.param_index]

    def specialize(self, alpha: gf.FieldElem) -> upoly.Poly:
        """Replace x by alpha, a point of F_q or an extension: the family
        member at lambda = t(alpha) over the field of alpha, which is the
        product over s in G of (T - s(alpha)), with stabilizer-order
        multiplicities.  Raises PoleError where t(alpha) is infinite."""
        lam = self.parameter.eval_point(mo.ProjPoint(alpha)).value
        if lam is None:
            raise PoleError(f"the parameter has a pole at {alpha}")
        return family_member(alpha.ctx, self.family, lam)

    def family_text(self) -> str:
        return family_text(self.family)


def family_member(ctx: gf.FieldCtx, family: tuple, lam: gf.FieldElem) -> upoly.Poly:
    """F_lambda = sum of (a_i*lambda + b_i) T^i over ctx for the pairs
    (a_i, b_i) of an orbit-polynomial family, which keep their encodings in
    ctx: monic, and f - lambda*g for the invariant generator f/g of the
    group."""
    ys = ctx.addmul([b.rep for _, b in family], ctx.elem(lam).rep, [a.rep for a, _ in family])
    return upoly.Poly(ctx, list(map(ctx.decode, ys)))


def family_text(family: tuple) -> str:
    """Human form "T^n + (a*t+b)T^(n-1) + ..." of a family of pairs (a_i, b_i)."""
    n = len(family) - 1
    parts = []
    for i in range(n, -1, -1):
        a, b = family[i]
        if not a and not b:
            continue
        if not a:
            coeff = gf.format_elem(b)
        else:
            at = "t" if a == a.ctx.one() else f"{gf.format_elem(a)}*t"
            coeff = at if not b else f"{at}+{gf.format_elem(b)}"
            coeff = f"({coeff})"
        if i == 0:
            parts.append(coeff)
        elif i == n and coeff == "1":
            parts.append(f"T^{n}")
        else:
            term = "T" if i == 1 else f"T^{i}"
            parts.append(term if coeff == "1" else f"{coeff}*{term}")
    return " + ".join(parts)


@functools.lru_cache(maxsize=64)
def orbit_polynomial(G: go.Subgroup) -> OrbitPolynomial:
    """The product over g in G of (T - g(x)), built from its family.

    With (a_i, b_i) from :func:`orbit_family`, every coefficient is
    c_i = a_i*t + b_i, and x is a root, so t*Ahat(x) + B(x) = 0 for
    Ahat = sum of a_i x^i and B = sum of b_i x^i: t = -B/Ahat, and
    c_i = (b_i*Ahat - a_i*B)/Ahat.  The roots of Ahat are the finite points w
    of G(inf), where B(w) = prod over g of (w - g(z)) is nonzero for the z of
    the family; so each fraction is reduced as it stands and no gcd is
    taken.  O(|G|^2) operations in F_q beyond the family.
    """
    family, param_index = orbit_family(G)
    ctx = G.ctx
    mul, neg, addmul, decode = ctx.mul, ctx.neg, ctx.addmul, ctx.decode
    a_vec = [a.rep for a, _ in family]
    neg_b = [neg(b.rep) for _, b in family]
    lead = ctx.inv(next(a for a in reversed(a_vec) if a))
    den_vec = [mul(a, lead) for a in a_vec]  # Ahat / lc(Ahat), padded to |G|+1
    den, one = upoly.Poly(ctx, list(map(decode, den_vec))), upoly.Poly.one(ctx)
    zeros = [0] * len(den_vec)

    def numerator(a: int, b: int) -> upoly.Poly:
        """b*den - a*lead*B, two addmul passes on encodings."""
        return upoly.Poly(ctx, list(map(decode, addmul(addmul(zeros, b, den_vec),
                                                       mul(a, lead), neg_b))))

    coeffs = tuple(RatFunc.coprime(numerator(a.rep, b.rep), den) if a
                   else RatFunc.coprime(upoly.Poly(ctx, (b,)), one)
                   for a, b in family)
    return OrbitPolynomial(G, coeffs, family, param_index)


def orbit_family(G: go.Subgroup) -> tuple[tuple, int]:
    """(family, param_index) of the orbit polynomial of G: the pairs
    (a_i, b_i) with c_i = a_i*t + b_i for its coefficients c_i and the
    parameter t = c_j, j = param_index.  Read by :func:`_family` off orbits
    of G, each the images of a point under every element, checked by
    :func:`grouporbit.orbit_images`; constants read off F_{q^2} are brought
    back to F_q.
    """
    ctx = G.ctx
    keys = [s.key() for s in G.elements]
    a_vec, b_vec, j, field = _family(
        ctx, len(G), lambda F, x: list(dict.fromkeys(go.orbit_images(F, keys, x))),
        G.generator)
    family = tuple((ctx.decode(a), gf.down_cast(field.decode(b), ctx))
                   for a, b in zip(a_vec, b_vec))
    return family, j


def cyclic_family(s: mo.Moebius) -> tuple[list, list, int]:
    """(a_vec, b_vec, j): the family of <s>, as :func:`orbit_family` gives
    it for G = <s>, on encodings.  Read by :func:`_family` off orbit walks
    of s alone (:func:`_orbit_walk`), one :func:`moebius.image` per step,
    with no list of powers and no Subgroup: O(r) images for r = order(s),
    plus O(r^2) for the orbit products, or O(q) when <s> is the torus.
    """
    return _cyclic_family(s, s.order())


def _cyclic_family(s: mo.Moebius, r: int) -> tuple[list, list, int]:
    """:func:`cyclic_family` of s, whose order r the caller has found."""
    ctx, key = s.ctx, s.key()
    a_vec, b_vec, j, _ = _family(ctx, r, lambda F, x: _orbit_walk(F, key, x, r), lambda: s)
    return a_vec, b_vec, j


def _family(ctx: gf.FieldCtx, m: int, orbit, generator) -> tuple[list, list, int, gf.FieldCtx]:
    """(a_vec, b_vec, j, field): the encoded family of a group G of order m
    over F_q = ctx, its constants encoded in `field`, F_q or F_{q^2}.
    orbit(F, x) lists the distinct points of the G-orbit of the point x of
    P^1(F), an encoding or -1 for infinity, checked against the
    orbit-stabilizer identity; generator() returns an element of order m,
    or None when G is not cyclic, and is asked only by the torus and line
    tests below.

    A point z whose orbit has length l has a stabilizer of order m/l, so
    its fibre, the product over g in G of (T - g(z)), is the product over
    its orbit raised to m/l.  As x tends to infinity, P(T)/t tends to a
    multiple of A(T), the fibre of infinity without its factors at
    infinity; so a_i = A_i/A_j, where j is the first i with A_i != 0.  At a
    point z outside G(inf) every c_i is finite and P specializes to the
    fibre c(T) of z, so b_i = c_i(z) - a_i*c_j(z).  z is the first point of
    F_q, in encoding order, outside G(inf); the next orbit outside both, if
    any, is a third fibre, checked to lie on the family.  Each orbit
    product costs O(m^2) operations.

    When G(inf) is all of P^1(F_q) and G is cyclic of order q+1, G is the
    nonsplit torus: A = T^q - T in closed form, so j = 1, and the fibres
    are the companions of a generator g and of g^2, O(q) work over F_q.
    Every non-identity element of the torus fixes no point of P^1(F_q) and
    shares its two fixed points in F_{q^2} with all of G, so the q+1 roots
    of the companion c*T^(q+1) + d*T^q - a*T - b of g, the z with
    g(z) = z^q, form one free G-orbit, and the companion divided by c is
    its fibre.  Any other transitive G (PGL(2,q), A5, a transitive dihedral
    group, a regular group of order q+1 that is not cyclic) takes z from
    F_{q^2} = ``gf.extension_of(F_q, 2)``, whose first q encodings are F_q.

    For cyclic G of order m > 2 dividing q+1 the numerators ax+b and the
    denominators cx+d of its elements are pairwise non-proportional lines,
    a consequence of fixed-point-freeness.  g's numerator vanishes at
    g^-1(0) and its denominator at g^-1(inf), so that holds exactly when
    the orbits of 0 and of infinity both have length m.  0 lies on the
    orbit of infinity or is the first fibre point, so the check lists no
    further orbit.
    """
    q = ctx.order
    at_inf = orbit(ctx, -1)
    field = ctx
    g = generator() if len(at_inf) == q + 1 == m else None
    if g is not None:
        a_vec = [0] * (m + 1)
        a_vec[1], a_vec[q] = 1, ctx.neg(1)  # (T^q - T)/(-1)
        j = 1
        fibres = [monic_companion(ctx, g.key()), monic_companion(ctx, g.compose(g).key())]
        at_zero = at_inf
    else:
        A = _expand_roots(ctx, [w for w in at_inf if w >= 0] * (m // len(at_inf)))
        j = next(i for i, a in enumerate(A) if a)
        scale = ctx.inv(A[j])
        a_vec = [ctx.mul(a, scale) for a in A] + [0] * (m + 1 - len(A))
        if len(at_inf) == q + 1:
            field = gf.extension_of(ctx, 2, cap=max(gf.size_cap(), q ** 2))
        seen, orbits = set(at_inf), []
        for z in range(field.order):
            if len(orbits) == 2:
                break
            if z not in seen:
                orbits.append(orbit(field, z))
                seen.update(orbits[-1])
        fibres = [_expand_roots(field, o * (m // len(o))) for o in orbits]
        at_zero = at_inf if 0 in at_inf else orbits[0]
    if (m > 2 and (q + 1) % m == 0 and not len(at_inf) == len(at_zero) == m
            and generator() is not None):
        raise InvariantViolation("proportional numerator or denominator lines "
                                 "in a fixed-point-free cyclic group")
    return a_vec, _affine_constants(field, a_vec, j, fibres), j, field


def _affine_constants(field: gf.FieldCtx, a_vec: list, j: int, fibres: list) -> list:
    """The encoded constants b_i = c_i - c_j*a_i of the first fibre c of a
    family with encoded slopes a_i and parameter index j; every further
    fibre is checked to lie on the family."""
    c, *rest = fibres
    b_vec = field.addmul(c, field.neg(c[j]), a_vec)
    for c2 in rest:
        if field.addmul(b_vec, c2[j], a_vec) != c2:
            raise InvariantViolation("orbit polynomial coefficients not affine in the parameter")
    return b_vec


def _orbit_walk(F: gf.FieldCtx, key: tuple, x: int, r: int) -> list:
    """The orbit x, s(x), s^2(x), ... of the point x of P^1(F), an encoding
    or -1 for infinity, under the map s with key `key` and order r; raises
    unless its length divides r."""
    orbit = [x]
    y = mo.image(F, key, x)
    while y != x and len(orbit) < r:
        orbit.append(y)
        y = mo.image(F, key, y)
    if y != x or r % len(orbit):
        raise InvariantViolation(f"orbit-stabilizer identity fails on the orbit of "
                                 f"{mo.point_of(F, x)}")
    return orbit


def monic_companion(ctx: gf.FieldCtx, key: tuple) -> list:
    """Encoded coefficients, low to high, of c*T^(q+1) + d*T^q - a*T - b for
    encoded entries (a, b, c, d) over F_q, divided by its leading
    coefficient: c, or d when c = 0, where the degree is q."""
    a, b, c, d = key
    mul, inv_lead = ctx.mul, ctx.inv(c or d)
    q = ctx.order
    out = [0] * (q + 2 if c else q + 1)
    out[0], out[1] = ctx.neg(mul(b, inv_lead)), ctx.neg(mul(a, inv_lead))
    out[q], out[-1] = mul(d, inv_lead), 1
    return out


def _expand_roots(field: gf.FieldCtx, roots: list) -> list:
    """Encoded coefficients, low to high, of the product of (T - w) over roots."""
    neg, addmul = field.neg, field.addmul
    acc = [1]
    for w in roots:
        acc = addmul([0] + acc, neg(w), acc + [0])  # T*acc - w*acc
    return acc


def invariant_generator(G: go.Subgroup) -> RatFunc:
    """Canonical generator of the invariant function field of G.

    The parameter t = c_j of the orbit polynomial, read off its family:
    a_j = 1 and b_j = 0, so t = -B/Ahat for Ahat = sum of a_i x^i and
    B = sum of b_i x^i, already reduced (see :func:`orbit_polynomial`).  B is
    monic of degree |G| and Ahat has smaller degree, so with f = B and
    g = -Ahat every f - lambda*g is the family member sum of
    (a_i*lambda + b_i) T^i.
    """
    if len(G) < 2:
        raise TrivialGroupError("the trivial group fixes everything")
    phi = orbit_polynomial(G).parameter
    if phi.degree != len(G):
        raise InvariantViolation("generator degree does not match the group order")
    return phi


def pgl_generator(ctx: gf.FieldCtx) -> RatFunc:
    """The closed-form invariant generator of the full group PGL(2,q):
    (1 + (x^q - x)^(q-1))^(q+1) / (x^q - x)^(q^2 - q), always checked for
    its degree and for invariance under x + 1, 1/x and alpha*x."""
    q = ctx.order
    u = upoly.Poly.x_pow(ctx, q) - upoly.Poly.x(ctx)
    w = u.pow(q - 1)
    num = (w + upoly.Poly.one(ctx)).pow(q + 1)
    den = w.pow(q)
    phi = RatFunc(num, den)
    if phi.degree != q ** 3 - q:
        raise InvariantViolation("closed-form generator has the wrong degree")
    samples = [mo.Moebius.from_ints(ctx, 1, 1, 0, 1),
               mo.Moebius.from_ints(ctx, 0, 1, 1, 0)]
    if q > 2:
        alpha = next(v for v in ctx.elements() if v and v != ctx.one())
        samples.append(mo.Moebius(alpha, ctx.zero(), ctx.zero(), ctx.one()))
    if phi.degree <= 130:
        for s in samples:
            if phi.compose_moebius(s) != phi:
                raise InvariantViolation("closed-form generator is not invariant")
    else:
        # symbolic composition is quadratic in the degree; spot-check values
        ext = gf.extension_of(ctx, 2)
        points = [mo.ProjPoint(v) for v in list(ext.elements())[: 3 * q]]
        for s in samples:
            for z in points:
                if phi.eval_point(s.apply(z)) != phi.eval_point(z):
                    raise InvariantViolation("closed-form generator is not invariant")
    return phi
