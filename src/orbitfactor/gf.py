"""Exact arithmetic in F_p, F_q = F_{p^m}, and one further extension F_{q^k}.

A field is either a prime field or a quotient base[y]/(h) for a monic
irreducible h over the base.  Towers are at most prime -> F_q -> F_{q^k};
this covers a ground field plus the one extension needed to host roots.
All values are immutable and safe to share.
"""

from __future__ import annotations

import itertools
import os
from typing import Iterator, Optional, Sequence, Union

from .errors import (
    CtxMismatchError,
    NonPrimeError,
    NotIrreducibleError,
    SizeCapError,
    TowerDepthError,
)

DEFAULT_SIZE_CAP = 1 << 20
_ENV_CAP = "ORBITFACTOR_SIZE_CAP"

# contexts small enough to keep a full table of element objects
_ELEM_CACHE_LIMIT = 4096
# extension fields small enough for full arithmetic lookup tables
_TABLE_LIMIT = 256


def size_cap() -> int:
    """Configured cardinality cap (env ORBITFACTOR_SIZE_CAP, default 2^20)."""
    raw = os.environ.get(_ENV_CAP)
    if raw:
        return int(raw)
    return DEFAULT_SIZE_CAP


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class FieldCtx:
    """A finite field: F_p, or base[y]/(h) with h monic irreducible.

    Do not call the constructor directly; use :func:`prime_field`,
    :func:`field_create` or :func:`extend` so contexts are validated,
    cached and shared.
    """

    __slots__ = (
        "p",
        "base",
        "degree",
        "order",
        "_mod",
        "_red_rows",
        "_elems",
        "_hash",
        "_ext_cache",
        "_irr_cache",
        "_tables",
        "_red_enc",
    )

    def __init__(self, p: int, base: Optional["FieldCtx"], mod: Optional[tuple]):
        self.p = p
        self.base = base
        if base is None:
            self.degree = 1
            self.order = p
            self._mod = None
            self._red_rows = None
        else:
            assert mod is not None and len(mod) >= 3
            self.degree = len(mod) - 1
            self.order = base.order ** self.degree
            self._mod = mod
            self._red_rows = self._reduction_rows(mod)
        self._elems = None
        if self.order <= _ELEM_CACHE_LIMIT:
            self._elems = tuple(self._decode_uncached(i) for i in range(self.order))
        self._hash = hash((p, self.degree, None if base is None else hash(base),
                           None if mod is None else tuple(c.encode() for c in mod)))
        self._ext_cache: dict = {}
        self._irr_cache: dict = {}
        self._tables = None
        self._red_enc = None

    @staticmethod
    def _reduction_rows(mod: tuple) -> tuple:
        # rows[j] = coordinate vector of y^(k+j) modulo the modulus
        k = len(mod) - 1
        base_ctx = mod[0].ctx
        neg_tail = tuple(-c for c in mod[:k])
        rows = [neg_tail]
        zero = base_ctx.zero()
        for _ in range(k - 2):
            prev = rows[-1]
            shifted = (zero,) + prev[: k - 1]
            top = prev[k - 1]
            rows.append(tuple(shifted[i] + top * neg_tail[i] for i in range(k)))
        return tuple(rows)

    # -- identity / comparison ------------------------------------------------

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, FieldCtx):
            return NotImplemented
        if self.p != other.p or self.degree != other.degree or self.order != other.order:
            return False
        if self.base is None:
            return other.base is None
        if other.base is None or self.base != other.base:
            return False
        return all(a == b for a, b in zip(self._mod, other._mod))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.base is None:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.tower_degree()})"

    def tower_degree(self) -> int:
        """Extension degree over the prime field."""
        if self.base is None:
            return 1
        return self.base.tower_degree() * self.degree

    @property
    def is_prime_field(self) -> bool:
        return self.base is None

    @property
    def modulus(self):
        """The defining monic irreducible as a polynomial over the base field."""
        if self._mod is None:
            return None
        from . import upoly

        return upoly.Poly(self.base, self._mod)

    # -- element constructors -------------------------------------------------

    def zero(self) -> "FieldElem":
        return self.decode(0)

    def one(self) -> "FieldElem":
        return self.decode(1)

    def elem(self, value: Union[int, Sequence, "FieldElem"]) -> "FieldElem":
        """Coerce an int, coordinate sequence, or element into this field."""
        if isinstance(value, FieldElem):
            return embed(value, self)
        if isinstance(value, int):
            if self.base is None:
                return self.decode(value % self.p)
            return embed(prime_field(self.p).decode(value % self.p), self)
        return self.from_coeffs(value)

    def from_coeffs(self, coords: Sequence) -> "FieldElem":
        """Element from a little-endian coordinate vector over the base."""
        if self.base is None:
            raise CtxMismatchError("prime-field elements are plain residues, not vectors")
        if len(coords) > self.degree:
            raise CtxMismatchError(
                f"coordinate vector of length {len(coords)} in degree-{self.degree} extension")
        cs = [self.base.elem(c) for c in coords]
        cs.extend(self.base.zero() for _ in range(self.degree - len(cs)))
        return FieldElem(self, tuple(cs))

    def gen(self) -> "FieldElem":
        """The distinguished root of the modulus (the residue of y)."""
        if self.base is None:
            raise CtxMismatchError("a prime field has no distinguished generator")
        return self.from_coeffs([0, 1])

    # -- enumeration ----------------------------------------------------------

    def _decode_uncached(self, i: int) -> "FieldElem":
        if self.base is None:
            return FieldElem(self, i)
        b = self.base.order
        coords = []
        for _ in range(self.degree):
            coords.append(self.base.decode(i % b))
            i //= b
        return FieldElem(self, tuple(coords))

    def decode(self, i: int) -> "FieldElem":
        """Inverse of FieldElem.encode; index runs over 0..order-1."""
        if self._elems is not None:
            return self._elems[i]
        return self._decode_uncached(i)

    def elements(self) -> Iterator["FieldElem"]:
        """All elements in canonical (encoded) order."""
        if self._elems is not None:
            return iter(self._elems)
        return (self._decode_uncached(i) for i in range(self.order))

    def tables(self):
        """(add, mul, neg, inv) lookup tables on encoded values, for small
        extension fields; None when the field is too large to tabulate."""
        if self.order > _TABLE_LIMIT or self.base is None:
            return None
        if self._tables is None:
            elems = self._elems
            n = self.order
            add = [[(a + b).encode() for b in elems] for a in elems]
            mul = [[(a * b).encode() for b in elems] for a in elems]
            neg = [(-a).encode() for a in elems]
            inv = [0] + [elems[i].inverse().encode() for i in range(1, n)]
            self._tables = (add, mul, neg, inv)
        return self._tables


class FieldElem:
    """An element of a FieldCtx: an int residue, or a coordinate tuple."""

    __slots__ = ("ctx", "rep", "_enc")

    def __init__(self, ctx: FieldCtx, rep):
        self.ctx = ctx
        self.rep = rep
        self._enc = None

    # -- basics ---------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldElem):
            return NotImplemented
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            return False
        return self.rep == other.rep

    def __hash__(self) -> int:
        return hash((self.ctx._hash, self.encode()))

    def __bool__(self) -> bool:
        if self.ctx.base is None:
            return self.rep != 0
        return any(self.rep)

    def encode(self) -> int:
        """Canonical integer index of this element (0 is zero, 1 is one)."""
        if self._enc is None:
            if self.ctx.base is None:
                self._enc = self.rep
            else:
                b = self.ctx.base.order
                out = 0
                for c in reversed(self.rep):
                    out = out * b + c.encode()
                self._enc = out
        return self._enc

    def coeffs(self) -> tuple:
        """Little-endian coordinate vector over the base field."""
        if self.ctx.base is None:
            return (self.rep,)
        return self.rep

    def __repr__(self) -> str:
        return format_elem(self)

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other) -> "FieldElem":
        if isinstance(other, int):
            return self.ctx.elem(other)
        if not isinstance(other, FieldElem):
            raise TypeError(f"cannot combine FieldElem with {type(other).__name__}")
        if other.ctx is self.ctx or other.ctx == self.ctx:
            return other
        raise CtxMismatchError(f"elements of {self.ctx} and {other.ctx} cannot be combined")

    def __add__(self, other) -> "FieldElem":
        ctx = self.ctx
        if not (isinstance(other, FieldElem) and other.ctx is ctx):
            other = self._coerce(other)
        if ctx.base is None:
            return FieldElem(ctx, (self.rep + other.rep) % ctx.p)
        return FieldElem(ctx, tuple(a + b for a, b in zip(self.rep, other.rep)))

    __radd__ = __add__

    def __neg__(self) -> "FieldElem":
        ctx = self.ctx
        if ctx.base is None:
            return FieldElem(ctx, (-self.rep) % ctx.p)
        return FieldElem(ctx, tuple(-a for a in self.rep))

    def __sub__(self, other) -> "FieldElem":
        ctx = self.ctx
        if not (isinstance(other, FieldElem) and other.ctx is ctx):
            other = self._coerce(other)
        if ctx.base is None:
            return FieldElem(ctx, (self.rep - other.rep) % ctx.p)
        return FieldElem(ctx, tuple(a - b for a, b in zip(self.rep, other.rep)))

    def __rsub__(self, other) -> "FieldElem":
        return (-self) + other

    def __mul__(self, other) -> "FieldElem":
        ctx = self.ctx
        if not (isinstance(other, FieldElem) and other.ctx is ctx):
            other = self._coerce(other)
        if ctx.base is None:
            return FieldElem(ctx, (self.rep * other.rep) % ctx.p)
        return FieldElem(ctx, _tuple_mul(ctx, self.rep, other.rep))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElem":
        if not self:
            raise ZeroDivisionError("inverse of zero")
        ctx = self.ctx
        if ctx.base is None:
            return FieldElem(ctx, pow(self.rep, ctx.p - 2, ctx.p))
        return FieldElem(ctx, _tuple_inv(ctx, self.rep))

    def __truediv__(self, other) -> "FieldElem":
        other = self._coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other) -> "FieldElem":
        return self.inverse() * other

    def __pow__(self, e: int) -> "FieldElem":
        ctx = self.ctx
        if e < 0 and not self:
            raise ZeroDivisionError("inverse of zero")
        if ctx.base is None:
            return FieldElem(ctx, pow(self.rep, e, ctx.p))
        if e < 0:
            return self.inverse() ** (-e)
        result = ctx.one()
        square = self
        while e:
            if e & 1:
                result = result * square
            e >>= 1
            if e:
                square = square * square
        return result


# -- low-level tuple arithmetic for extension contexts ------------------------


def _red_rows_enc(ctx: FieldCtx) -> tuple:
    if ctx._red_enc is None:
        ctx._red_enc = tuple(tuple(c.encode() for c in row) for row in ctx._red_rows)
    return ctx._red_enc


def _tuple_mul(ctx: FieldCtx, a: tuple, b: tuple) -> tuple:
    k = ctx.degree
    base = ctx.base
    if base.base is None:
        # coordinates are prime-field residues; convolve as plain integers
        p = base.p
        conv = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            ar = ai.rep
            if ar:
                for j, bj in enumerate(b):
                    br = bj.rep
                    if br:
                        conv[i + j] += ar * br
        out = conv[:k]
        rows = _red_rows_enc(ctx)
        for j in range(k - 1):
            top = conv[k + j] % p
            if top:
                row = rows[j]
                for i in range(k):
                    out[i] += top * row[i]
        dec = base.decode
        return tuple(dec(v % p) for v in out)
    tables = base.tables()
    if tables is not None:
        add_t, mul_t = tables[0], tables[1]
        conv = [0] * (2 * k - 1)
        ae = [c.encode() for c in a]
        be = [c.encode() for c in b]
        for i, ai in enumerate(ae):
            if ai:
                row = mul_t[ai]
                for j, bj in enumerate(be):
                    if bj:
                        conv[i + j] = add_t[conv[i + j]][row[bj]]
        out = conv[:k]
        rows = _red_rows_enc(ctx)
        for j in range(k - 1):
            top = conv[k + j]
            if top:
                row_m = mul_t[top]
                red = rows[j]
                for i in range(k):
                    if red[i]:
                        out[i] = add_t[out[i]][row_m[red[i]]]
        dec = base.decode
        return tuple(dec(v) for v in out)
    zero = base.zero()
    conv = [zero] * (2 * k - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                conv[i + j] = conv[i + j] + ai * bj
    out = conv[:k]
    rows = ctx._red_rows
    for j in range(k - 1):
        top = conv[k + j]
        if top:
            row = rows[j]
            for i in range(k):
                out[i] = out[i] + top * row[i]
    return tuple(out)


def _base_ops(base: FieldCtx):
    """(add, sub, mul, inv) on encoded values of the base field."""
    if base.base is None:
        p = base.p
        return (lambda x, y: (x + y) % p, lambda x, y: (x - y) % p,
                lambda x, y: (x * y) % p, lambda x: pow(x, p - 2, p))
    tables = base.tables()
    if tables is not None:
        add_t, mul_t, neg_t, inv_t = tables
        return (lambda x, y: add_t[x][y], lambda x, y: add_t[x][neg_t[y]],
                lambda x, y: mul_t[x][y], lambda x: inv_t[x])
    return None


def _tuple_inv(ctx: FieldCtx, a: tuple) -> tuple:
    # extended Euclid in base[y] against the modulus
    base = ctx.base
    ops = _base_ops(base)
    if ops is not None:
        add, sub, mul, inv = ops
        dec = base.decode

        def trim(v):
            n = len(v)
            while n and not v[n - 1]:
                n -= 1
            return v[:n]

        def divmod_lists(num, den):
            num = num[:]
            dl = len(den)
            inv_lead = inv(den[-1])
            q = [0] * max(0, len(num) - dl + 1)
            for i in range(len(num) - dl, -1, -1):
                c = mul(num[i + dl - 1], inv_lead)
                if c:
                    q[i] = c
                    for j, dj in enumerate(den):
                        if dj:
                            num[i + j] = sub(num[i + j], mul(c, dj))
            return q, trim(num)

        r0 = [c.encode() for c in ctx._mod]
        r1 = trim([c.encode() for c in a])
        s0, s1 = [], [1]
        while r1:
            q, r = divmod_lists(r0, r1)
            qs = [0] * (len(q) + len(s1) - 1) if q and s1 else []
            for i, qi in enumerate(q):
                if qi:
                    for j, sj in enumerate(s1):
                        if sj:
                            qs[i + j] = add(qs[i + j], mul(qi, sj))
            ln = max(len(s0), len(qs))
            s_next = [sub(s0[i] if i < len(s0) else 0, qs[i] if i < len(qs) else 0)
                      for i in range(ln)]
            r0, r1 = r1, r
            s0, s1 = s1, trim(s_next)
        scale = inv(r0[-1])
        out = [mul(c, scale) for c in s0]
        out.extend(0 for _ in range(ctx.degree - len(out)))
        return tuple(dec(v) for v in out[: ctx.degree])

    zero, one = base.zero(), base.one()

    def trim_e(v):
        n = len(v)
        while n and not v[n - 1]:
            n -= 1
        return v[:n]

    def divmod_elems(num, den):
        num = num[:]
        dl = len(den)
        inv_lead = den[-1].inverse()
        q = [zero] * max(0, len(num) - dl + 1)
        for i in range(len(num) - dl, -1, -1):
            c = num[i + dl - 1] * inv_lead
            if c:
                q[i] = c
                for j, dj in enumerate(den):
                    num[i + j] = num[i + j] - c * dj
        return q, trim_e(num)

    r0 = list(ctx._mod)
    r1 = trim_e(list(a))
    s0, s1 = [], [one]
    while r1:
        q, r = divmod_elems(r0, r1)
        qs = [zero] * (len(q) + len(s1) - 1) if q and s1 else []
        for i, qi in enumerate(q):
            if qi:
                for j, sj in enumerate(s1):
                    qs[i + j] = qs[i + j] + qi * sj
        ln = max(len(s0), len(qs))
        s_next = [(s0[i] if i < len(s0) else zero) - (qs[i] if i < len(qs) else zero)
                  for i in range(ln)]
        r0, r1 = r1, r
        s0, s1 = s1, trim_e(s_next)
    scale = r0[-1].inverse()
    s0 = [c * scale for c in s0]
    s0.extend(zero for _ in range(ctx.degree - len(s0)))
    return tuple(s0[: ctx.degree])


# -- context constructors ------------------------------------------------------

_prime_cache: dict = {}
_create_cache: dict = {}


def prime_field(p: int) -> FieldCtx:
    """The prime field F_p."""
    ctx = _prime_cache.get(p)
    if ctx is None:
        if not is_prime(p):
            raise NonPrimeError(f"{p} is not prime")
        ctx = FieldCtx(p, None, None)
        _prime_cache[p] = ctx
    return ctx


def field_create(p: int, m: int, cap: Optional[int] = None) -> FieldCtx:
    """F_{p^m} with the lexicographically least monic irreducible modulus.

    Coefficient vectors (c_0, ..., c_{m-1}) are compared low-to-high as
    integers, so the result is deterministic across runs.
    """
    if m < 1:
        raise SizeCapError("extension degree must be at least 1")
    key = (p, m)
    ctx = _create_cache.get(key)
    if ctx is not None:
        return ctx
    base = prime_field(p)
    limit = size_cap() if cap is None else cap
    if p ** m > limit:
        raise SizeCapError(f"{p}^{m} exceeds the size cap {limit}")
    if m == 1:
        ctx = base
    else:
        h = least_irreducible(base, m)
        ctx = FieldCtx(p, base, tuple(h.coeffs))
    _create_cache[key] = ctx
    return ctx


def extend(base: FieldCtx, h, cap: Optional[int] = None) -> FieldCtx:
    """base[y]/(h) for h monic irreducible over base; degree 1 returns base."""
    from . import upoly

    if not isinstance(h, upoly.Poly) or h.ctx != base:
        raise CtxMismatchError("modulus must be a polynomial over the base field")
    if h.deg == 1:
        return base  # degree-1 extension is the base itself
    if base.base is not None and base.base.base is not None:
        raise TowerDepthError("towers deeper than prime -> F_q -> F_{q^k} are not supported")
    if not h.is_monic():
        raise NotIrreducibleError("modulus must be monic")
    if not upoly.is_irreducible(h):
        raise NotIrreducibleError(f"modulus {h} is reducible over {base}")
    limit = size_cap() if cap is None else cap
    if base.order ** h.deg > limit:
        raise SizeCapError(f"|{base}|^{h.deg} exceeds the size cap {limit}")
    return FieldCtx(base.p, base, tuple(h.coeffs))


def extension_of(ctx: FieldCtx, k: int, cap: Optional[int] = None) -> FieldCtx:
    """The canonical degree-k extension of ctx (cached per ctx)."""
    if k == 1:
        return ctx
    cached = ctx._ext_cache.get(k)
    if cached is None:
        cached = extend(ctx, least_irreducible(ctx, k), cap=cap)
        ctx._ext_cache[k] = cached
    return cached


def least_irreducible(ctx: FieldCtx, d: int):
    """Lexicographically least monic irreducible of degree d over ctx."""
    from . import upoly

    cached = ctx._irr_cache.get(d)
    if cached is not None:
        return cached
    if d == 1:
        poly = upoly.Poly(ctx, (ctx.zero(), ctx.one()))
        ctx._irr_cache[d] = poly
        return poly
    one = ctx.one()
    # the constant term varies slowest; starting it at 1 skips only multiples of T
    q = ctx.order
    for tail in itertools.product(range(1, q), *[range(q)] * (d - 1)):
        coeffs = tuple(ctx.decode(c) for c in tail) + (one,)
        poly = upoly.Poly(ctx, coeffs)
        if upoly.is_irreducible(poly):
            ctx._irr_cache[d] = poly
            return poly
    raise AssertionError("unreachable: irreducibles of every degree exist")


# -- tower navigation ----------------------------------------------------------


def is_subctx(sub: FieldCtx, sup: FieldCtx) -> bool:
    """True if sub appears in sup's base chain (or equals it)."""
    c: Optional[FieldCtx] = sup
    while c is not None:
        if c is sub or c == sub:
            return True
        c = c.base
    return False


def embed(x: FieldElem, ctx: FieldCtx) -> FieldElem:
    """Map x into ctx along the base chain."""
    if x.ctx is ctx or x.ctx == ctx:
        return x
    if ctx.base is None:
        raise CtxMismatchError(f"{x.ctx} does not embed into {ctx}")
    inner = embed(x, ctx.base)
    coords = (inner,) + tuple(ctx.base.zero() for _ in range(ctx.degree - 1))
    return FieldElem(ctx, coords)


def down_cast(x: FieldElem, sub: FieldCtx) -> FieldElem:
    """Inverse of embed; raises CtxMismatchError if x is not in the subfield."""
    if x.ctx is sub or x.ctx == sub:
        return x
    if x.ctx.base is None:
        raise CtxMismatchError(f"{x} does not lie in {sub}")
    if any(x.rep[1:]):
        raise CtxMismatchError(f"{x} does not lie in {sub}")
    return down_cast(x.rep[0], sub)


def in_subfield(x: FieldElem, sub: FieldCtx) -> bool:
    try:
        down_cast(x, sub)
        return True
    except CtxMismatchError:
        return False


# -- Frobenius and minimal polynomials -----------------------------------------


def frobenius_base_order(ctx: FieldCtx) -> int:
    """Cardinality q of the designated base of ctx's tower."""
    return ctx.order if ctx.base is None else ctx.base.order


def frobenius(x: FieldElem, e: int = 1) -> FieldElem:
    """x^(q^e) where q is the cardinality of the base of x's tower.

    Acts trivially on base field elements; iterating degree-many times is
    the identity on the whole extension.
    """
    q = frobenius_base_order(x.ctx)
    k = x.ctx.degree
    e %= k
    if e == 0:
        return x
    return x ** (q ** e)


def minimal_poly(alpha: FieldElem, over: FieldCtx):
    """Monic minimal polynomial of alpha over a designated subfield.

    Computed as the product of the distinct conjugates alpha^(|over|^i);
    the coefficients are verified to land in the subfield.
    """
    from . import upoly

    if not is_subctx(over, alpha.ctx):
        raise CtxMismatchError(f"{over} is not a subfield of {alpha.ctx}")
    q = over.order
    conjugates = [alpha]
    current = alpha ** q
    while current != alpha:
        conjugates.append(current)
        current = current ** q
    prod = upoly.Poly.one(alpha.ctx)
    for c in conjugates:
        prod = prod * upoly.Poly(alpha.ctx, (-c, alpha.ctx.one()))
    coeffs = tuple(down_cast(c, over) for c in prod.coeffs)
    return upoly.Poly(over, coeffs)


# -- text format ----------------------------------------------------------------


def format_elem(x: FieldElem) -> str:
    """Prime-field residues print as integers, others as "[c0,c1,...]"."""
    if x.ctx.base is None:
        return str(x.rep)
    return "[" + ",".join(format_elem(c) for c in x.rep) + "]"


def parse_elem(ctx: FieldCtx, text: str) -> FieldElem:
    """Parse the textual element format for this field."""
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]") or ctx.base is None:
            raise CtxMismatchError(f"cannot parse {text!r} as an element of {ctx}")
        inner = text[1:-1]
        parts = _split_top_level(inner)
        return ctx.from_coeffs([parse_elem(ctx.base, part) for part in parts])
    return ctx.elem(int(text))


def _split_top_level(text: str) -> list:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur or parts:
        parts.append("".join(cur))
    return parts
