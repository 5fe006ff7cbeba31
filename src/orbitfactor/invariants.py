"""Rational invariants of subgroups of PGL(2,q) and their orbit polynomial.

The orbit polynomial of G is the monic degree-|G| polynomial in T whose roots
are the images of x under G; its nonconstant coefficients share a single
denominator A(x) and any one of them generates the invariant function field.
All coefficients are affine in the first nonconstant one, t, which yields
the linear one-parameter family attached to G.  :func:`orbit_family` reads
the family off two fibres of t: the orbit of infinity, where t has its
poles, gives the slopes, and one more orbit gives the constants, each a
product of |G| linear factors, O(|G|^2) operations in F_q, or in F_{q^2}
for a transitive group other than the nonsplit torus, whose second fibre
is a companion polynomial over F_q.
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
    a_hat = upoly.Poly(ctx, [a for a, _ in family])
    B = upoly.Poly(ctx, [b for _, b in family])
    lead = a_hat.lc().inverse()
    den, one = a_hat.scale(lead), upoly.Poly.one(ctx)
    coeffs = tuple(RatFunc.coprime(den.scale(b) - B.scale(a * lead), den) if a
                   else RatFunc.coprime(upoly.Poly(ctx, (b,)), one)
                   for a, b in family)
    return OrbitPolynomial(G, coeffs, family, param_index)


def _check_distinct_lines(G: go.Subgroup) -> None:
    """Pairwise non-proportional numerators ax+b and denominators cx+d for
    cyclic G of order r > 2 dividing q+1 (a fixed-point-freeness
    consequence)."""
    ctx = G.ctx
    m = len(G)
    if m <= 2 or (ctx.order + 1) % m or not G.is_cyclic():
        return

    def monic(u: int, v: int) -> tuple:
        """The line ux+v, u and v encoded, up to a scalar: its monic form."""
        return (1, ctx.mul(v, ctx.inv(u))) if u else (0, 1)

    keys = [s.key() for s in G.elements]
    numerators = {monic(a, b) for a, b, _, _ in keys}
    denominators = {monic(c, d) for _, _, c, d in keys}
    if len(numerators) < m or len(denominators) < m:
        raise InvariantViolation("proportional numerator or denominator lines "
                                 "in a fixed-point-free cyclic group")


def orbit_family(G: go.Subgroup) -> tuple[tuple, int]:
    """(family, param_index) of the orbit polynomial of G: the pairs
    (a_i, b_i) with c_i = a_i*t + b_i for its coefficients c_i and the
    parameter t = c_j, j = param_index.

    Read off two fibres of t.  As x tends to infinity, P(T)/t tends to a
    multiple of A(T) = prod over the g with g(inf) != inf of (T - g(inf)), a
    polynomial over F_q of degree |G| - |G_inf|; so a_i = A_i/A_j, where j is
    the first i with A_i != 0.  At a point z outside G(inf) every c_i is
    finite and P specializes to c(T) = prod over g in G of (T - g(z)), so
    b_i = c_i(z) - a_i*c_j(z).  z is the first point of F_q, in encoding
    order, outside G(inf).  When G(inf) is all of P^1(F_q) and G is the
    nonsplit torus of order q+1 (see :func:`_torus_fibres`), c(T) is instead
    the companion polynomial of an element of G, over F_q, with no root
    taken.  Any other transitive G (PGL(2,q), A5, a transitive dihedral
    group) takes z from F_{q^2} = ``gf.extension_of(F_q, 2)``, where one
    exists because G(inf) lies in P^1(F_q), and the b_i are brought back to
    F_q.  A third fibre, when there is one (a third orbit in the same field,
    or the companion of a second torus element), is checked to lie on the
    family, and the orbit-stabilizer identity |G(inf)|*|G_inf| = |G| is
    checked at infinity.  Each orbit product costs O(|G|^2) operations in
    F_q or F_{q^2}; a torus companion costs O(q).  The lines of the elements
    are checked by :func:`_check_distinct_lines`.
    """
    _check_distinct_lines(G)
    ctx = G.ctx
    m = len(G)
    entries = [s.key() for s in G.elements]
    at_inf = [ctx.mul(a, ctx.inv(c)) for a, _, c, _ in entries if c]  # the g(inf) != inf
    seen = set(at_inf)
    if (len(seen) + 1) * (m - len(at_inf)) != m:
        raise InvariantViolation("orbit-stabilizer identity fails at infinity")
    A = _expand_roots(ctx, at_inf)
    j = next(i for i, a in enumerate(A) if a)
    scale = ctx.inv(A[j])
    a_vec = [ctx.mul(a, scale) for a in A] + [0] * (m - len(at_inf))
    field, fibres = ctx, None
    if len(seen) == ctx.order:  # G(inf) is all of P^1(F_q)
        if m == ctx.order + 1:
            fibres = _torus_fibres(ctx, entries)
        if fibres is None:
            field = gf.extension_of(ctx, 2, cap=max(gf.size_cap(), ctx.order ** 2))
    if fibres is None:
        fibres = _orbit_fibres(field, entries, seen)
    c, *rest = fibres
    b_vec = field.addmul(c, field.neg(c[j]), a_vec)
    for c2 in rest:
        if field.addmul(b_vec, c2[j], a_vec) != c2:
            raise InvariantViolation("orbit polynomial coefficients not affine in the parameter")
    family = tuple((ctx.decode(a), gf.down_cast(field.decode(b), ctx))
                   for a, b in zip(a_vec, b_vec))
    return family, j


def _torus_fibres(ctx: gf.FieldCtx, entries: list) -> list | None:
    """The encoded companion polynomials, divided by c, of the first two
    non-identity keys (a, b, c, d) when G is the nonsplit torus of order
    q+1, else None.

    G is that torus when every non-identity g has c_g != 0 and all share
    b_g/c_g and (d_g - a_g)/c_g: then every g is N + nu*I up to a scalar for
    one matrix N = (0, b/c; 1, (d-a)/c), so G lies in F_q[N]*/F_q*, which
    holds a group of order q+1 only when it is the torus F_{q^2}*/F_q*.
    There each non-identity g fixes no point of P^1(F_q) and shares its two
    fixed points in F_{q^2} with all of G, so the q+1 roots of
    c*T^(q+1) + d*T^q - a*T - b, the z with g(z) = z^q, form one free
    G-orbit, and the companion divided by c is the fibre prod over G of
    (T - h(z)).  An O(|G|) test and O(q) work, all in F_q.
    """
    mul, inv, sub, neg = ctx.mul, ctx.inv, ctx.sub, ctx.neg
    q = ctx.order
    shapes, fibres = set(), []
    for key in entries:
        if key == mo.IDENTITY_KEY:
            continue
        a, b, c, d = key
        if not c:
            return None
        inv_c = inv(c)
        shapes.add((mul(b, inv_c), mul(sub(d, a), inv_c)))
        if len(shapes) > 1:
            return None
        if len(fibres) < 2:
            fibre = [0] * (q + 2)
            fibre[0], fibre[1] = neg(mul(b, inv_c)), neg(mul(a, inv_c))
            fibre[q], fibre[q + 1] = mul(d, inv_c), 1
            fibres.append(fibre)
    return fibres


def _orbit_fibres(field: gf.FieldCtx, entries: list, seen: set) -> list:
    """The encoded products of (T - g(z)) over G for the first two orbits
    of points z of `field`, in encoding order, outside `seen` (G(inf)); the
    encodings of F_q come first, and keep their value."""
    add, mul, inv = field.add, field.mul, field.inv
    seen = set(seen)
    fibres = []
    for z in range(field.order):
        if len(fibres) == 2:
            break
        if z not in seen:
            images = [mul(add(mul(a, z), b), inv(add(mul(c, z), d))) for a, b, c, d in entries]
            fibres.append(_expand_roots(field, images))
            seen.update(images)
    return fibres


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
