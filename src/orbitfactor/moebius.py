"""Elements of PGL(2,q) as normalized linear fractional transformations.

A transformation x -> (ax+b)/(cx+d) is held as its key: the encodings of
the unique scalar multiple of (a,b,c,d) whose first nonzero entry is 1, so
equality and hashing compare four ints.  Composition, inverse, order, the
action and fixed points run on the field's int arithmetic; the entries are
decoded to field elements only when asked for.  An element keeps its
encoding in every extension, so the action extends to the projective line
over any extension field, with the usual conventions at infinity, without
converting the key.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

from . import gf
from .errors import CtxMismatchError, IdentityInputError, InvariantViolation


class ProjPoint:
    """A point of P^1: a field element, or the point at infinity."""

    __slots__ = ("value",)

    def __init__(self, value: Optional[gf.FieldElem]):
        self.value = value

    @property
    def is_infinity(self) -> bool:
        return self.value is None

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProjPoint):
            return NotImplemented
        if self.value is None or other.value is None:
            return self.value is None and other.value is None
        return self.value == other.value

    def __hash__(self) -> int:
        return hash(None) if self.value is None else hash(self.value)

    def key(self) -> tuple:
        """Sort key; infinity precedes all finite points."""
        if self.value is None:
            return (0, 0)
        return (1, self.value.encode())

    def __repr__(self) -> str:
        return "inf" if self.value is None else gf.format_elem(self.value)


INFINITY = ProjPoint(None)


def point(value: gf.FieldElem) -> ProjPoint:
    return ProjPoint(value)


def projective_line(ctx: gf.FieldCtx) -> list[ProjPoint]:
    """All q+1 points of P^1(ctx), infinity first."""
    return [INFINITY] + [ProjPoint(v) for v in ctx.elements()]


def point_of(F: gf.FieldCtx, x: int) -> ProjPoint:
    """The point of P^1(F) with encoding x, -1 for infinity."""
    return INFINITY if x < 0 else ProjPoint(F.decode(x))


def frobenius_point(z: ProjPoint, e: int = 1) -> ProjPoint:
    """Coordinate Frobenius on P^1; fixes infinity."""
    if z.value is None:
        return z
    return ProjPoint(gf.frobenius(z.value, e))


class MoebiusClass(Enum):
    """Eigenvalue trichotomy of a matrix pre-image."""

    IDENTITY = "identity"
    SPLIT = "split"          # distinct eigenvalues in F_q; order divides q-1
    UNIPOTENT = "unipotent"  # repeated eigenvalue; order p
    NONSPLIT = "nonsplit"    # irreducible characteristic polynomial; order divides q+1


# Moebius.key() of the identity in every field: encodings 1 and 0 are one and zero
IDENTITY_KEY = (1, 0, 0, 1)


def kappa(ctx: gf.FieldCtx, a: int, b: int, c: int, d: int) -> int:
    """tr^2/det, encoded, of the matrix with encoded entries a, b, c, d.

    Scaling and conjugation leave it unchanged, so it is constant on each
    conjugacy class of PGL(2,q); it is rho + 2 + 1/rho for the eigenvalue
    ratio rho, which fixes the order of every non-identity element.
    """
    mul = ctx.mul
    tr = ctx.add(a, d)
    return mul(mul(tr, tr), ctx.inv(ctx.sub(mul(a, d), mul(b, c))))


def _normalized(ctx: gf.FieldCtx, a: int, b: int, c: int, d: int) -> tuple:
    """The key of (a, b, c, d): the scalar multiple, on encodings, whose first
    nonzero entry is 1.  With ad - bc != 0, a = 0 forces b != 0."""
    first = a or b
    if first == 1:
        return (a, b, c, d)
    mul, inv = ctx.mul, ctx.inv(first)
    return (mul(a, inv), mul(b, inv), mul(c, inv), mul(d, inv))


def _checked(ctx: gf.FieldCtx, a: int, b: int, c: int, d: int) -> tuple:
    """The key of entries from outside, which must not be singular."""
    if ctx.mul(a, d) == ctx.mul(b, c):
        raise InvariantViolation("singular coefficient matrix for a Moebius map")
    return _normalized(ctx, a, b, c, d)


def image(F: gf.FieldCtx, key: tuple, x: int) -> int:
    """The image of the point x of P^1(F), an encoding or -1 for infinity,
    under the map with key `key` over a subfield of F (or F itself)."""
    a, b, c, d = key
    if x < 0:
        return F.mul(a, F.inv(c)) if c else -1
    mul, add = F.mul, F.add
    den = add(mul(c, x), d)
    if not den:
        return -1
    return mul(add(mul(a, x), b), F.inv(den))


class Moebius:
    """x -> (ax+b)/(cx+d) with ad - bc != 0, held as its normalized key.

    The key is the four entries as encodings, scaled so that the first
    nonzero one is 1; every operation works on it with the field's int
    arithmetic.  The entries a, b, c, d are decoded on access.
    """

    __slots__ = ("ctx", "_key")

    def __init__(self, a: gf.FieldElem, b: gf.FieldElem, c: gf.FieldElem, d: gf.FieldElem):
        ctx = a.ctx
        for e in (b, c, d):
            if e.ctx is not ctx and e.ctx != ctx:
                raise CtxMismatchError(f"entries over {ctx} and {e.ctx} cannot be combined")
        self.ctx = ctx
        self._key = _checked(ctx, a.rep, b.rep, c.rep, d.rep)

    @classmethod
    def from_key(cls, ctx: gf.FieldCtx, entries: tuple) -> "Moebius":
        """The map with entries (a, b, c, d) given as encodings over ctx;
        they are normalized, so `key()` round-trips."""
        return _of(ctx, _checked(ctx, *entries))

    @classmethod
    def from_ints(cls, ctx: gf.FieldCtx, a: int, b: int, c: int, d: int) -> "Moebius":
        return cls(ctx.elem(a), ctx.elem(b), ctx.elem(c), ctx.elem(d))

    @classmethod
    def identity(cls, ctx: gf.FieldCtx) -> "Moebius":
        return _of(ctx, IDENTITY_KEY)

    @property
    def a(self) -> gf.FieldElem:
        return self.ctx.decode(self._key[0])

    @property
    def b(self) -> gf.FieldElem:
        return self.ctx.decode(self._key[1])

    @property
    def c(self) -> gf.FieldElem:
        return self.ctx.decode(self._key[2])

    @property
    def d(self) -> gf.FieldElem:
        return self.ctx.decode(self._key[3])

    def entries(self) -> tuple:
        return tuple(map(self.ctx.decode, self._key))

    def is_identity(self) -> bool:
        return self._key == IDENTITY_KEY

    def __eq__(self, other) -> bool:
        if not isinstance(other, Moebius):
            return NotImplemented
        return self._key == other._key and (self.ctx is other.ctx or self.ctx == other.ctx)

    def __hash__(self) -> int:
        return hash(self._key)

    def key(self) -> tuple:
        return self._key

    def __repr__(self) -> str:
        return format_moebius(self)

    # -- group structure --------------------------------------------------------

    def compose(self, other: "Moebius") -> "Moebius":
        """self after other: (self.compose(other))(z) = self(other(z))."""
        ctx = self.ctx
        if other.ctx is not ctx and other.ctx != ctx:
            raise CtxMismatchError("transformations over different fields")
        mul, add = ctx.mul, ctx.add
        a1, b1, c1, d1 = self._key
        a2, b2, c2, d2 = other._key
        return _of(ctx, _normalized(
            ctx, add(mul(a1, a2), mul(b1, c2)), add(mul(a1, b2), mul(b1, d2)),
            add(mul(c1, a2), mul(d1, c2)), add(mul(c1, b2), mul(d1, d2))))

    def __mul__(self, other: "Moebius") -> "Moebius":
        return self.compose(other)

    def inverse(self) -> "Moebius":
        ctx = self.ctx
        a, b, c, d = self._key
        return _of(ctx, _normalized(ctx, d, ctx.neg(b), ctx.neg(c), a))

    def power(self, n: int) -> "Moebius":
        if n < 0:
            return self.inverse().power(-n)
        out = Moebius.identity(self.ctx)
        sq = self
        while n:
            if n & 1:
                out = out * sq
            n >>= 1
            if n:
                sq = sq * sq
        return out

    def order(self) -> int:
        """Least n >= 1 with s^n = identity (at most q+1), from the matrix.

        With t = a+d and D = ad-bc, Cayley–Hamilton gives
        M^n = U_n*M - D*U_(n-1)*I for the sequence U_0 = 0, U_1 = 1,
        U_(n+1) = t*U_n - D*U_(n-1).  M is not scalar, so M^n is scalar,
        the identity of PGL(2,q), exactly when U_n = 0.
        """
        if self._key == IDENTITY_KEY:
            return 1
        ctx = self.ctx
        mul, sub = ctx.mul, ctx.sub
        a, b, c, d = self._key
        tr, det = ctx.add(a, d), sub(mul(a, d), mul(b, c))
        prev, cur = 0, 1  # U_0, U_1
        for n in range(2, ctx.order + 2):
            prev, cur = cur, sub(mul(tr, cur), mul(det, prev))  # U_n
            if not cur:
                return n
        raise InvariantViolation("order exceeded q+1, impossible in PGL(2,q)")

    def powers(self) -> list["Moebius"]:
        """s, s^2, ..., s^n = identity for n = self.order(); the group <s>
        without a second pass to find n."""
        out = [self]
        while not out[-1].is_identity():
            if len(out) > self.ctx.order:
                raise InvariantViolation("order exceeded q+1, impossible in PGL(2,q)")
            out.append(out[-1] * self)
        return out

    # -- action ------------------------------------------------------------------

    def lift_to(self, ext: gf.FieldCtx) -> "Moebius":
        """The same transformation over an extension: an element keeps its
        encoding in every field above it, so the key does not change."""
        if ext is self.ctx or ext == self.ctx:
            return self
        if not gf.is_subctx(self.ctx, ext):
            raise CtxMismatchError(f"{self.ctx} does not embed into {ext}")
        return _of(ext, self._key)

    def apply(self, z: ProjPoint) -> ProjPoint:
        """Evaluate at a point of P^1 over the base field or an extension."""
        v = z.value
        if v is None:
            F, x = self.ctx, -1
        else:
            F, x = v.ctx, v.rep
            if F is not self.ctx and not gf.is_subctx(self.ctx, F):
                raise CtxMismatchError("point does not lie over the transformation's field")
        return point_of(F, image(F, self._key, x))

    def __call__(self, z: ProjPoint) -> ProjPoint:
        return self.apply(z)

    # -- structure of a single element ---------------------------------------------

    def classify(self) -> MoebiusClass:
        """Eigenvalue trichotomy of a pre-image matrix."""
        if self.is_identity():
            return MoebiusClass.IDENTITY
        ctx = self.ctx
        a, b, c, d = self.entries()
        if ctx.p == 2:
            if a == d:
                return MoebiusClass.UNIPOTENT
            # separable char. poly; split iff the absolute trace of det/tr^2 is 0
            w = (a * d - b * c) / ((a + d) * (a + d))
            return MoebiusClass.NONSPLIT if gf.absolute_trace(w) else MoebiusClass.SPLIT
        disc = (d - a) * (d - a) + 4 * b * c
        if not disc:
            return MoebiusClass.UNIPOTENT
        return MoebiusClass.SPLIT if gf.is_square(disc) else MoebiusClass.NONSPLIT

    def fixed_encodings(self, ext: gf.FieldCtx) -> tuple[int, ...]:
        """The fixed points on P^1(ext), for ext an extension of the field,
        as sorted encodings with -1 for infinity; at most two.

        z = (az+b)/(cz+d) in closed form: for c = 0 the points are infinity
        and b/(d-a) when d != a, otherwise the roots of T^2 + ((d-a)/c)T - b/c
        by :func:`gf.quadratic_roots`.  Each is checked to be fixed.
        """
        if self._key == IDENTITY_KEY:
            raise IdentityInputError("every point is fixed by the identity")
        ctx = self.ctx
        if ext is not ctx and not gf.is_subctx(ctx, ext):
            raise CtxMismatchError(f"{ctx} does not embed into {ext}")
        mul, sub = ctx.mul, ctx.sub
        a, b, c, d = key = self._key
        if not c:
            out = [-1]
            if d != a:
                out.append(mul(b, ctx.inv(sub(d, a))))
        else:
            inv_c = ctx.inv(c)
            roots = gf.quadratic_roots(ext.decode(mul(sub(d, a), inv_c)),
                                       ext.decode(ctx.neg(mul(b, inv_c))))
            out = [r.rep for r in roots]
        for x in out:
            if image(ext, key, x) != x:
                raise InvariantViolation(f"{self} moves its computed fixed point "
                                         f"{point_of(ext, x)}")
        out.sort()
        return tuple(out)

    def fixed_points(self, k: int = 1) -> tuple[ProjPoint, ...]:
        """All fixed points on P^1(F_{q^k}), sorted; at most two (see
        :meth:`fixed_encodings`).  Over the closure (k = 2 suffices) the
        count is 1 exactly for unipotent elements and 2 otherwise.
        """
        if self._key == IDENTITY_KEY:
            raise IdentityInputError("every point is fixed by the identity")
        ext = gf.extension_of(self.ctx, k)
        return tuple(point_of(ext, x) for x in self.fixed_encodings(ext))


_new = object.__new__


def _of(ctx: gf.FieldCtx, key: tuple) -> Moebius:
    """The map over ctx whose key is `key`, already normalized."""
    s = _new(Moebius)
    s.ctx = ctx
    s._key = key
    return s


# -- parsing and formatting ---------------------------------------------------------


def _fmt_linear(u: gf.FieldElem, v: gf.FieldElem) -> str:
    """u*x + v in the element text format."""
    one = u.ctx.one()
    parts = []
    if u:
        parts.append("x" if u == one else f"{gf.format_elem(u)}*x")
    if v or not parts:
        parts.append(gf.format_elem(v))
    return "+".join(parts)


def format_moebius(s: Moebius) -> str:
    num = _fmt_linear(s.a, s.b)
    if not s.c and s.d == s.ctx.one():
        return num
    return f"({num})/({_fmt_linear(s.c, s.d)})"


def _parse_linear(ctx: gf.FieldCtx, text: str) -> tuple[gf.FieldElem, gf.FieldElem]:
    """Parse "a*x+b" (with optional '*', signs, reordered terms)."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    text = text.replace(" ", "").replace("*", "")
    if not text:
        raise ValueError("empty linear form")
    # split into signed terms, respecting brackets
    terms, depth, cur = [], 0, ""
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch in "+-" and depth == 0 and cur not in ("", "+", "-"):
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    terms.append(cur)
    u, v = ctx.zero(), ctx.zero()
    for term in terms:
        sign = 1
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:]
        if term.endswith("x"):
            coeff_text = term[:-1]
            coeff = ctx.one() if not coeff_text else gf.parse_elem(ctx, coeff_text)
            u = u + (coeff if sign > 0 else -coeff)
        else:
            coeff = gf.parse_elem(ctx, term)
            v = v + (coeff if sign > 0 else -coeff)
    return u, v


def parse_moebius_raw(ctx: gf.FieldCtx, text: str) -> tuple:
    """Parse "(a*x+b)/(c*x+d)", "a*x+b" or "x"; returns ((a,b,c,d), Moebius).

    The raw tuple keeps the caller's scaling, which matters when building
    the degree-(q+1) companion polynomial with its original unit.  An
    unparseable number, an empty linear form and a singular transformation
    (ad - bc = 0) raise ValueError.
    """
    text = text.strip()
    depth = 0
    split_at = -1
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "/" and depth == 0:
            split_at = i
            break
    if split_at >= 0:
        a, b = _parse_linear(ctx, text[:split_at])
        c, d = _parse_linear(ctx, text[split_at + 1:])
    else:
        a, b = _parse_linear(ctx, text)
        c, d = ctx.zero(), ctx.one()
    if not a * d - b * c:
        raise ValueError(f"{text!r} is singular: ad - bc = 0")
    raw = (a, b, c, d)
    return raw, Moebius(a, b, c, d)


def parse_moebius(ctx: gf.FieldCtx, text: str) -> Moebius:
    return parse_moebius_raw(ctx, text)[1]
