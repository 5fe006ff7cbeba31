"""Rational invariants of subgroups of PGL(2,q) and their orbit polynomial.

The orbit polynomial of G is the monic degree-|G| polynomial in T whose roots
are the images of x under G; its nonconstant coefficients share a single
denominator A(x) and any one of them generates the invariant function field.
All nonconstant coefficients are affine in any fixed one, which yields the
linear one-parameter family attached to G.  :func:`orbit_polynomial` expands
the coefficients as rational functions; :func:`orbit_family` reads only the
family off two specializations of the polynomial at points of P^1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

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

    def constant_value(self) -> gf.FieldElem:
        if not self.is_constant():
            raise InvariantViolation("not a constant rational function")
        return self.num.coeffs[0] if self.num else self.ctx.zero()

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
        """Replace x by alpha; the result is the product over s in G of
        (T - s(alpha)), with stabilizer-order multiplicities."""
        target = alpha.ctx
        if not gf.is_subctx(self.group.ctx, target):
            raise CtxMismatchError("alpha must lie over the group's field")
        out = []
        for coeff in self.coeffs:
            den_val = coeff.den(alpha)
            if not den_val:
                raise PoleError(f"coefficient denominator vanishes at {alpha}")
            out.append(coeff.num(alpha) / den_val)
        return upoly.Poly(target, out)

    def family_text(self) -> str:
        return family_text(self.family)


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
    """Expand the product over s in G of (T - s(x)) with exact arithmetic.

    Computed in F_q[x][T] via the product of ((c_s x + d_s) T - (a_s x + b_s))
    and division of every T-coefficient by A(x), the product of the
    denominators.  The lines of the elements are checked by
    :func:`_check_distinct_lines`.
    """
    ctx = G.ctx
    m = len(G)
    zero_poly = upoly.Poly.zero(ctx)
    # product over s of (v_s(x) * T - u_s(x)), tracked as T-coefficients in F_q[x]
    acc = [upoly.Poly.one(ctx)]
    for s in G.elements:
        u = upoly.Poly(ctx, (s.b, s.a))
        v = upoly.Poly(ctx, (s.d, s.c))
        nxt = [zero_poly] * (len(acc) + 1)
        for i, coeff in enumerate(acc):
            if coeff:
                nxt[i + 1] = nxt[i + 1] + coeff * v
                nxt[i] = nxt[i] - coeff * u
        acc = nxt
    _check_distinct_lines(G)
    A = acc[m]
    coeffs = tuple(RatFunc(B, A) for B in acc)
    if coeffs[m] != RatFunc.constant(ctx.one()):
        raise InvariantViolation("orbit polynomial is not monic")
    common_den: Optional[upoly.Poly] = None
    for coeff in coeffs:
        if coeff.is_constant():
            continue
        if coeff.num.deg != m or coeff.den.deg >= m:
            raise InvariantViolation("nonconstant coefficient with wrong degrees")
        if common_den is None:
            common_den = coeff.den
        elif coeff.den != common_den:
            raise InvariantViolation("nonconstant coefficients disagree on denominator")
    return OrbitPolynomial(G, coeffs, _extract_family(coeffs), _param_index(coeffs))


def _param_index(coeffs: tuple[RatFunc, ...]) -> int:
    for i, coeff in enumerate(coeffs):
        if not coeff.is_constant():
            return i
    raise InvariantViolation("all orbit-polynomial coefficients are constant")


def _extract_family(coeffs: tuple[RatFunc, ...]) -> tuple:
    """Affine pairs (a_i, b_i) with coeff_i = a_i * t + b_i for the parameter t."""
    ctx = coeffs[0].ctx
    idx = _param_index(coeffs)
    t = coeffs[idx]
    B_t, A = t.num, t.den
    zero, one = ctx.zero(), ctx.one()
    out = []
    for coeff in coeffs:
        if coeff.is_constant():
            out.append((zero, coeff.constant_value()))
            continue
        lam = coeff.num.lc() / B_t.lc()
        residual = coeff.num - B_t.scale(lam)
        if not residual:
            mu = zero
        else:
            quotient, rem = divmod(residual, A)
            if rem or quotient.deg > 0:
                raise InvariantViolation("coefficient is not affine in the parameter")
            mu = quotient.coeffs[0]
        out.append((lam, mu))
    return tuple(out)


def _check_distinct_lines(G: go.Subgroup) -> None:
    """Pairwise non-proportional numerators ax+b and denominators cx+d for
    cyclic G of order r > 2 dividing q+1 (a fixed-point-freeness
    consequence)."""
    m = len(G)
    q = G.ctx.order
    if m <= 2 or (q + 1) % m or not G.is_cyclic():
        return

    def monic(u: gf.FieldElem, v: gf.FieldElem) -> tuple:
        """The line ux+v up to a scalar, as encodings of its monic form."""
        return (1, (v / u).rep) if u else (0, 1)

    numerators = {monic(s.a, s.b) for s in G.elements}
    denominators = {monic(s.c, s.d) for s in G.elements}
    if len(numerators) < m or len(denominators) < m:
        raise InvariantViolation("proportional numerator or denominator lines "
                                 "in a fixed-point-free cyclic group")


def orbit_family(G: go.Subgroup) -> tuple[tuple, int]:
    """(family, param_index) of the orbit polynomial of G, without expanding it.

    At a point z outside the orbit of infinity every coefficient c_i is
    finite, and the orbit polynomial specializes to c(z) = prod over g in G
    of (T - g(z)), O(|G|^2) field operations.  The parameter t separates
    G-orbits, so at points z0, z1 in different orbits c_i(z0) = c_i(z1)
    exactly for the constant coefficients: param_index is the first i where
    they differ, and c_i = a_i*t + b_i gives
    a_i = (c_i(z0) - c_i(z1)) / (t(z0) - t(z1)) and b_i = c_i(z0) - a_i*t(z0).
    When the field has a point z2 in a third orbit, c(z2) is checked to lie
    on the family.  The points come from F_q, or else from F_{q^2}, whose
    pairs are brought back to F_q.  A group without two such orbits on
    P^1(F_{q^2}), such as PGL(2,q) itself, gets the family of
    :func:`orbit_polynomial`.  The lines of the elements are checked by
    :func:`_check_distinct_lines`.
    """
    _check_distinct_lines(G)
    ctx = G.ctx
    field, images = ctx, _orbit_points(G, ctx)
    if len(images) < 2 and (ctx.base is None or ctx.base.base is None):
        field = gf.extension_of(ctx, 2, cap=max(gf.size_cap(), ctx.order ** 2))
        images = _orbit_points(G, field)
    if len(images) < 2:
        P = orbit_polynomial(G)
        return P.family, P.param_index
    c0, c1, *rest = (_expand_roots(field, roots) for roots in images)
    param_index = next((i for i, (u, v) in enumerate(zip(c0, c1)) if u != v), None)
    if param_index is None:
        raise InvariantViolation("the orbit polynomial takes one value at two orbits")
    sub, mul = field.sub, field.mul
    scale = field.inv(sub(c0[param_index], c1[param_index]))
    a_vec = [mul(sub(u, v), scale) for u, v in zip(c0, c1)]
    b_vec = [sub(u, mul(a, c0[param_index])) for u, a in zip(c0, a_vec)]
    for c2 in rest:
        if field.addmul(b_vec, c2[param_index], a_vec) != c2:
            raise InvariantViolation("orbit polynomial coefficients not affine in the parameter")
    family = tuple((gf.down_cast(field.decode(a), ctx), gf.down_cast(field.decode(b), ctx))
                   for a, b in zip(a_vec, b_vec))
    return family, param_index


def _orbit_points(G: go.Subgroup, field: gf.FieldCtx) -> list[list]:
    """[g(z) for g in G] for the first three points z of field, in encoding
    order, that lie outside the orbit of infinity and in different G-orbits;
    fewer when field has fewer such points.  Works on encodings, which an
    element of F_q keeps in every field above it."""
    add, mul, inv = field.add, field.mul, field.inv
    entries = [(s.a.rep, s.b.rep, s.c.rep, s.d.rep) for s in G.elements]
    seen = {mul(a, inv(c)) for a, _, c, _ in entries if c}  # finite part of G(inf)
    found = []
    for z in range(field.order):
        if len(found) == 3:
            break
        if z in seen:
            continue
        images = [mul(add(mul(a, z), b), inv(add(mul(c, z), d))) for a, b, c, d in entries]
        found.append(images)
        seen.update(images)
    return found


def _expand_roots(field: gf.FieldCtx, roots: list) -> list:
    """Encoded coefficients, low to high, of the product of (T - w) over roots."""
    neg, addmul = field.neg, field.addmul
    acc = [1]
    for w in roots:
        acc = addmul([0] + acc, neg(w), acc + [0])  # T*acc - w*acc
    return acc


def invariant_generator(G: go.Subgroup) -> RatFunc:
    """Canonical generator of the invariant function field of G.

    The lowest-index nonconstant coefficient of the orbit polynomial,
    rescaled so the numerator is monic of degree |G|; the denominator is the
    common denominator A(x) and has smaller degree.
    """
    if len(G) < 2:
        raise TrivialGroupError("the trivial group fixes everything")
    P = orbit_polynomial(G)
    t = P.parameter
    f, g = t.monic_pair()
    phi = RatFunc(f, g)
    if phi.degree != len(G):
        raise InvariantViolation("generator degree does not match the group order")
    return phi


def pgl_generator(ctx: gf.FieldCtx, validate: bool = True) -> RatFunc:
    """The closed-form invariant generator of the full group PGL(2,q):
    (1 + (x^q - x)^(q-1))^(q+1) / (x^q - x)^(q^2 - q)."""
    q = ctx.order
    u = upoly.Poly.x_pow(ctx, q) - upoly.Poly.x(ctx)
    w = u.pow(q - 1)
    num = (w + upoly.Poly.one(ctx)).pow(q + 1)
    den = w.pow(q)
    phi = RatFunc(num, den)
    if phi.degree != q ** 3 - q:
        raise InvariantViolation("closed-form generator has the wrong degree")
    if validate:
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


def phi_orbit_test(G: go.Subgroup, phi: RatFunc, alpha: mo.ProjPoint,
                   beta: mo.ProjPoint) -> bool:
    """Whether phi takes the same value at alpha and beta.

    For a generator phi of the invariant field this equals the predicate
    "alpha and beta lie in the same G-orbit"."""
    return phi.eval_point(alpha) == phi.eval_point(beta)
