"""Exact arithmetic in F_p, F_q = F_{p^m}, and any extension built over them.

A field is either a prime field or a quotient base[y]/(h) for a monic
irreducible h over the base, which may itself be any such field: a tower
F_p -> F_q -> F_{q^k} -> ... has any depth, and every extension of a field
is :func:`extend` or :func:`extension_of` over that field.

Every element is an encoded int: a residue mod p, or sum(c_i * |base|^i)
over the encodings c_i of its coordinates over the base.  Arithmetic on
encodings comes in three tiers, chosen when the field is built:

* tables: a field of at most 256 elements (``_TABLE_LIMIT``) answers add,
  mul, neg and inv from 2-D lookup tables;
* logs: an extension field of 257 to 4096 elements (``_ELEM_CACHE_LIMIT``)
  answers from the 1-D exp, log and Zech-log arrays of a primitive element,
  and in characteristic 2 adds by XOR of encodings;
* computed: a prime field above 256 elements works on residues mod p, and
  an extension field above 4096 elements on coordinate vectors reduced by
  the modulus, with inverses by the extended Euclidean algorithm.

The first two tiers come from the same discrete-log arrays, built with the
field from about 2 * sqrt(order) computed products and one computed add per
element.

All values are immutable.
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
)

DEFAULT_SIZE_CAP = 1 << 20
_ENV_CAP = "ORBITFACTOR_SIZE_CAP"

# contexts small enough to keep a full table of element objects; extension
# fields of 257 up to this many elements answer from exp/log/Zech arrays
_ELEM_CACHE_LIMIT = 4096
# fields small enough for 2-D arithmetic lookup tables (the first tier)
_TABLE_LIMIT = 256
# contexts memoized by prime_field and extend, oldest evicted first
_CACHE_LIMIT = 64


def size_cap() -> int:
    """Configured cardinality cap (env ORBITFACTOR_SIZE_CAP, an integer;
    default 2^20)."""
    raw = os.environ.get(_ENV_CAP)
    if not raw:
        return DEFAULT_SIZE_CAP
    try:
        return int(raw)
    except ValueError:
        raise SizeCapError(f"{_ENV_CAP} must be an integer, got {raw!r}") from None


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

    Elements are encoded ints (see :meth:`FieldElem.encode`), and the context
    owns ``add``, ``sub``, ``neg``, ``mul`` and ``inv`` on them, plus
    ``addmul(ys, a, xs)``, the list ``ys + a*xs`` taken elementwise.  Fields
    of at most 256 elements answer from 2-D lookup tables, extension fields
    of 257 to 4096 elements from exp/log/Zech arrays, and larger fields (and
    prime fields above 256) compute.

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
        "_elems",
        "_hash",
        "_irr_cache",
        "_quad_const",
        "_tables",
        "add",
        "sub",
        "neg",
        "mul",
        "inv",
        "addmul",
    )

    def __init__(self, p: int, base: Optional["FieldCtx"], mod: Optional[tuple]):
        self.p = p
        self.base = base
        if base is None:
            self.degree = 1
            self.order = p
            self._mod = None
            ops = _residue_ops(p)
        else:
            assert mod is not None and len(mod) >= 3
            self.degree = len(mod) - 1
            self.order = base.order ** self.degree
            self._mod = mod
            ops = _vector_ops(base, tuple(c.rep for c in mod))
        # ops[0] and ops[3] are the computed add and mul
        self._tables = None
        if self.order <= _TABLE_LIMIT:
            self._tables = _log_tables(p, *_log_arrays(p, self.order, ops[0], ops[3]))
            ops = _table_ops(self._tables)
        elif base is not None and self.order <= _ELEM_CACHE_LIMIT:
            ops = _log_ops(p, *_log_arrays(p, self.order, ops[0], ops[3]))
        self.add, self.sub, self.neg, self.mul, self.inv, self.addmul = ops
        self._elems = None
        if self.order <= _ELEM_CACHE_LIMIT:
            self._elems = tuple(FieldElem(self, i) for i in range(self.order))
        self._hash = hash((p, self.degree, None if base is None else hash(base),
                           None if mod is None else tuple(c.encode() for c in mod)))
        self._irr_cache: dict = {}
        self._quad_const: Optional["FieldElem"] = None

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
            return self.decode(value % self.p)
        return self.from_coeffs(value)

    def from_coeffs(self, coords: Sequence) -> "FieldElem":
        """Element from a little-endian coordinate vector over the base."""
        if self.base is None:
            raise CtxMismatchError("prime-field elements are plain residues, not vectors")
        if len(coords) > self.degree:
            raise CtxMismatchError(
                f"coordinate vector of length {len(coords)} in degree-{self.degree} extension")
        return self.decode(_number([self.base.elem(c).rep for c in coords], self.base.order))

    def gen(self) -> "FieldElem":
        """The distinguished root of the modulus (the residue of y)."""
        if self.base is None:
            raise CtxMismatchError("a prime field has no distinguished generator")
        return self.from_coeffs([0, 1])

    # -- enumeration ----------------------------------------------------------

    def decode(self, i: int) -> "FieldElem":
        """Inverse of FieldElem.encode; index runs over 0..order-1."""
        elems = self._elems
        return elems[i] if elems is not None else FieldElem(self, i)

    def elements(self) -> Iterator["FieldElem"]:
        """All elements in canonical (encoded) order."""
        if self._elems is not None:
            return iter(self._elems)
        return (FieldElem(self, i) for i in range(self.order))

    def tables(self):
        """(add, mul, neg, inv) 2-D lookup tables on encoded values, built
        with the field; None when the field has more than 256 elements,
        including the 257..4096 extension fields that answer from logs."""
        return self._tables


class FieldElem:
    """An element of a FieldCtx, held as its encoded int ``rep``."""

    __slots__ = ("ctx", "rep")

    def __init__(self, ctx: FieldCtx, rep: int):
        self.ctx = ctx
        self.rep = rep

    # -- basics ---------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldElem):
            return NotImplemented
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            return False
        return self.rep == other.rep

    def __hash__(self) -> int:
        return hash((self.ctx._hash, self.rep))

    def __bool__(self) -> bool:
        return self.rep != 0

    def encode(self) -> int:
        """Canonical integer index of this element (0 is zero, 1 is one).

        A prime-field element is its residue; an extension element is
        sum(c_i * |base|^i) over the encodings c_i of its coordinates, so an
        element keeps its index in every field above it.
        """
        return self.rep

    def coeffs(self) -> tuple:
        """Little-endian coordinate vector over the base field."""
        ctx = self.ctx
        if ctx.base is None:
            return (self.rep,)
        return tuple(map(ctx.base.decode, _digits(self.rep, ctx.base.order, ctx.degree)))

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
        return ctx.decode(ctx.add(self.rep, other.rep))

    __radd__ = __add__

    def __neg__(self) -> "FieldElem":
        ctx = self.ctx
        return ctx.decode(ctx.neg(self.rep))

    def __sub__(self, other) -> "FieldElem":
        ctx = self.ctx
        if not (isinstance(other, FieldElem) and other.ctx is ctx):
            other = self._coerce(other)
        return ctx.decode(ctx.sub(self.rep, other.rep))

    def __rsub__(self, other) -> "FieldElem":
        return (-self) + other

    def __mul__(self, other) -> "FieldElem":
        ctx = self.ctx
        if not (isinstance(other, FieldElem) and other.ctx is ctx):
            other = self._coerce(other)
        return ctx.decode(ctx.mul(self.rep, other.rep))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElem":
        if not self.rep:
            raise ZeroDivisionError("inverse of zero")
        ctx = self.ctx
        return ctx.decode(ctx.inv(self.rep))

    def __truediv__(self, other) -> "FieldElem":
        other = self._coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other) -> "FieldElem":
        return self.inverse() * other

    def __pow__(self, e: int) -> "FieldElem":
        if e < 0:
            return self.inverse() ** (-e)
        ctx = self.ctx
        if ctx.base is None:
            return ctx.decode(pow(self.rep, e, ctx.p))
        return ctx.decode(_power(ctx.mul, self.rep, e))


# -- arithmetic on encodings ---------------------------------------------------


def _digits(x: int, b: int, k: int) -> list:
    """The k base-b digits of x, least significant first."""
    out = []
    for _ in range(k):
        x, d = divmod(x, b)
        out.append(d)
    return out


def _number(digits: Sequence[int], b: int) -> int:
    """Inverse of _digits."""
    x = 0
    for d in reversed(digits):
        x = x * b + d
    return x


def _power(mul, x: int, e: int) -> int:
    """x^e by square-and-multiply with the given multiplication."""
    result = 1
    while e:
        if e & 1:
            result = mul(result, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return result


def _residue_ops(p: int) -> tuple:
    """(add, sub, neg, mul, inv, addmul) on residues mod p."""

    def addmul(ys, a, xs):
        return [(y + a * x) % p for x, y in zip(xs, ys)]

    return (lambda x, y: (x + y) % p, lambda x, y: (x - y) % p, lambda x: -x % p,
            lambda x, y: x * y % p, lambda x: pow(x, p - 2, p), addmul)


def _vector_ops(base: FieldCtx, mod: tuple) -> tuple:
    """(add, sub, neg, mul, inv, addmul) on encodings of base[y]/(mod),
    computed on coordinate vectors over the base; mod holds the encoded
    coefficients."""
    k = len(mod) - 1
    b = base.order
    badd, bsub, bneg, bmul, binv, baddmul = (base.add, base.sub, base.neg, base.mul,
                                             base.inv, base.addmul)

    def digits(x):
        return _digits(x, b, k)

    # rows[j] = coordinate vector of y^(k+j) modulo mod
    rows = [[bneg(c) for c in mod[:k]]]
    for _ in range(k - 2):
        prev = rows[-1]
        rows.append(baddmul([0] + prev[:-1], prev[-1], rows[0]))

    if base.p == 2:
        # an encoding is the bit vector of its F_2 coordinates at every depth
        add = sub = int.__xor__

        def neg(x):
            return x
    else:
        def add(x, y):
            return _number(list(map(badd, digits(x), digits(y))), b)

        def sub(x, y):
            return _number(list(map(bsub, digits(x), digits(y))), b)

        def neg(x):
            return _number(list(map(bneg, digits(x))), b)

    if base.base is None:
        p = b

        def mul(x, y):
            # coordinates are residues: convolve as plain ints, reduce once
            if not x or not y:
                return 0
            ys = digits(y)
            conv = [0] * (2 * k - 1)
            for i, xi in enumerate(digits(x)):
                if xi:
                    for j, yj in enumerate(ys, i):
                        conv[j] += xi * yj
            out = conv[:k]
            for top, row in zip(conv[k:], rows):
                top %= p
                if top:
                    for i, r in enumerate(row):
                        out[i] += top * r
            return _number([o % p for o in out], b)
    else:
        def mul(x, y):
            if not x or not y:
                return 0
            ys = digits(y)
            conv = [0] * (2 * k - 1)
            for i, xi in enumerate(digits(x)):
                if xi:
                    conv[i:i + k] = baddmul(conv[i:i + k], xi, ys)
            out = conv[:k]
            for top, row in zip(conv[k:], rows):
                if top:
                    out = baddmul(out, top, row)
            return _number(out, b)

    def trim(v):
        n = len(v)
        while n and not v[n - 1]:
            n -= 1
        return list(v[:n])

    def inv(x):
        # extended Euclid in base[y] against the modulus
        r0, r1 = list(mod), trim(digits(x))
        s0, s1 = [], [1]
        while r1:
            # (q, r0) = divmod(r0, r1)
            n = len(r1)
            q = [0] * (len(r0) - n + 1)
            inv_lead = binv(r1[-1])
            for i in range(len(q) - 1, -1, -1):
                c = bmul(r0[i + n - 1], inv_lead)
                if c:
                    q[i] = c
                    r0[i:i + n] = baddmul(r0[i:i + n], bneg(c), r1)
            r0 = trim(r0)
            # s_next = s0 - q * s1
            s_next = s0 + [0] * (len(q) + len(s1) - 1 - len(s0))
            for i, qi in enumerate(q):
                if qi:
                    s_next[i:i + len(s1)] = baddmul(s_next[i:i + len(s1)], bneg(qi), s1)
            r0, r1 = r1, r0
            s0, s1 = s1, trim(s_next)
        scale = binv(r0[-1])
        return _number([bmul(c, scale) for c in s0], b)

    def addmul(ys, a, xs):
        return [add(y, mul(a, x)) if x else y for x, y in zip(xs, ys)]

    return add, sub, neg, mul, inv, addmul


def _primitive_element(p: int, order: int, mul) -> int:
    """The least encoding that generates the multiplicative group.

    In an extension field the encodings below p are F_p, which generates
    none, so the search starts at p."""
    n = order - 1
    primes = [r for r in range(2, n + 1) if n % r == 0 and is_prime(r)]
    for g in range(p if order > p else 1, order):
        if all(_power(mul, g, n // r) != 1 for r in primes):
            return g
    raise AssertionError("unreachable: the multiplicative group is cyclic")


def _log_arrays(p: int, order: int, add, mul) -> tuple:
    """(exp, log, zech) for the least primitive element g, n = order - 1.

    exp[i] = g^i for 0 <= i < n, log[exp[i]] = i (log[0] is unused), and
    zech[k] = log(1 + g^k), or -1 where 1 + g^k = 0.

    An encoding is the base-p digits of the F_p coordinates of its element,
    at every tower depth.  So for c a power of p, x is the sum of x % c and
    c * (x // c), and x * g is the sum of their products with g.  With those
    products listed (about 2 * sqrt(order) computed multiplications), each
    power of g costs one computed add, an XOR in characteristic 2.  Adding 1
    changes only the constant digit x % p, so zech costs no field operation.
    """
    n = order - 1
    g = _primitive_element(p, order, mul)
    c = p
    while c * c < order:
        c *= p
    low = [mul(x, g) for x in range(c)]
    high = [mul(c * x, g) for x in range(order // c)]
    exp = [1] * n
    for i in range(1, n):
        x = exp[i - 1]
        exp[i] = add(low[x % c], high[x // c])
    log = [0] * order
    for i, x in enumerate(exp):
        log[x] = i
    zech = [log[s] if (s := x - x % p + (x % p + 1) % p) else -1 for x in exp]
    return exp, log, zech


def _log_tables(p: int, exp: list, log: list, zech: list) -> tuple:
    """(add, mul, neg, inv) tables from the arrays of :func:`_log_arrays`.

    g^i * g^j = g^(i+j) and g^i + g^j = g^i * (1 + g^(j-i)); -1 is 1 in
    characteristic 2 and g^(n/2) otherwise.
    """
    order = len(log)
    n = order - 1
    logs = log[1:]
    exp2 = exp + exp
    # zech[l - i] wraps mod n
    add_t = [list(range(order))] + [None] * n
    mul_t = [[0] * order] + [None] * n
    for i, a in enumerate(exp):
        mul_t[a] = [0] + [exp2[i + l] for l in logs]
        add_t[a] = [a] + [exp2[i + z] if (z := zech[l - i]) >= 0 else 0 for l in logs]
    neg_t = list(range(order)) if p == 2 else [0] + [exp2[l + n // 2] for l in logs]
    inv_t = [0] + [exp2[n - l] for l in logs]
    return add_t, mul_t, neg_t, inv_t


def _table_ops(tables: tuple) -> tuple:
    """(add, sub, neg, mul, inv, addmul) as lookups in (add, mul, neg, inv)
    tables."""
    add_t, mul_t, neg_t, inv_t = tables

    def addmul(ys, a, xs):
        row = mul_t[a]
        return [add_t[y][row[x]] for x, y in zip(xs, ys)]

    return (lambda x, y: add_t[x][y], lambda x, y: add_t[x][neg_t[y]], neg_t.__getitem__,
            lambda x, y: mul_t[x][y], inv_t.__getitem__, addmul)


def _log_ops(p: int, exp: list, log: list, zech: list) -> tuple:
    """(add, sub, neg, mul, inv, addmul) on the arrays of :func:`_log_arrays`.

    x * y = g^(log x + log y) and 1/x = g^(n - log x).  In characteristic 2
    an encoding is the bit vector of its F_2 coordinates, so x + y = x ^ y
    and -x = x; otherwise x + y = g^(log x + zech[log y - log x]) and
    -x = g^(log x + n/2).  Setting log 0 = 2n, past two periods of exp and
    into a run of zeros, makes a zero factor need no test.
    """
    n = len(exp)
    log[0] = 2 * n
    E = exp + exp + [0] * (2 * n + 1)

    def mul(x, y):
        return E[log[x] + log[y]]

    def inv(x):
        return E[n - log[x]]

    if p == 2:
        def addmul(ys, a, xs):
            la = log[a]
            return [y ^ E[la + log[x]] for x, y in zip(xs, ys)]

        return int.__xor__, int.__xor__, lambda x: x, mul, inv, addmul

    h = n // 2
    # two periods, so that an index in (-n, 2n) needs no reduction; the k with
    # 1 + g^k = 0 points into the zeros of E
    Z = [z if z >= 0 else 2 * n for z in zech] * 2

    def add(x, y):
        if not x:
            return y
        if not y:
            return x
        lx = log[x]
        return E[lx + Z[log[y] - lx]]

    def sub(x, y):
        if not y:
            return x
        if not x:
            return E[log[y] + h]
        lx = log[x]
        return E[lx + Z[log[y] + h - lx]]

    def neg(x):
        return E[log[x] + h]

    def addmul(ys, a, xs):
        # one log per row: a * x = g^(la + log x)
        if not a:
            return list(ys)
        la = log[a]
        return [(E[ly + Z[la + log[x] - ly]] if (ly := log[y]) < n else E[la + log[x]])
                if x else y for x, y in zip(xs, ys)]

    return add, sub, neg, mul, inv, addmul


# -- context constructors ------------------------------------------------------

_prime_cache: dict = {}
_extend_cache: dict = {}


def _remember(cache: dict, key, ctx: FieldCtx) -> None:
    """cache[key] = ctx, evicting the oldest entry beyond _CACHE_LIMIT.

    Eviction is safe: a rebuilt context equals the evicted one, and
    FieldCtx equality compares structure, not identity."""
    if len(cache) >= _CACHE_LIMIT:
        del cache[next(iter(cache))]
    cache[key] = ctx


def prime_field(p: int) -> FieldCtx:
    """The prime field F_p."""
    ctx = _prime_cache.get(p)
    if ctx is None:
        if not is_prime(p):
            raise NonPrimeError(f"{p} is not prime")
        ctx = FieldCtx(p, None, None)
        _remember(_prime_cache, p, ctx)
    return ctx


def field_create(p: int, m: int, cap: Optional[int] = None) -> FieldCtx:
    """F_{p^m} with the lexicographically least monic irreducible modulus.

    Coefficient vectors (c_0, ..., c_{m-1}) are compared low-to-high as
    integers, so the result is deterministic across runs.
    """
    if m < 1:
        raise SizeCapError("extension degree must be at least 1")
    base = prime_field(p)
    # the cap is read before the cache, as in extend
    limit = size_cap() if cap is None else cap
    if p ** m > limit:
        raise SizeCapError(f"{p}^{m} exceeds the size cap {limit}")
    return extension_of(base, m, cap=limit)


def extend(base: FieldCtx, h, cap: Optional[int] = None) -> FieldCtx:
    """base[y]/(h) for h monic irreducible over base; degree 1 returns base.

    Memoized on h (which carries its base field): one context per modulus.
    """
    from . import upoly

    if not isinstance(h, upoly.Poly) or h.ctx != base:
        raise CtxMismatchError("modulus must be a polynomial over the base field")
    if h.deg == 1:
        return base  # degree-1 extension is the base itself
    limit = size_cap() if cap is None else cap
    if base.order ** h.deg > limit:
        raise SizeCapError(f"|{base}|^{h.deg} exceeds the size cap {limit}")
    ctx = _extend_cache.get(h)
    if ctx is None:
        if not h.is_monic():
            raise NotIrreducibleError("modulus must be monic")
        if not upoly.is_irreducible(h):
            raise NotIrreducibleError(f"modulus {h} is reducible over {base}")
        ctx = FieldCtx(base.p, base, tuple(h.coeffs))
        _remember(_extend_cache, h, ctx)
    return ctx


def extension_of(ctx: FieldCtx, k: int, cap: Optional[int] = None) -> FieldCtx:
    """The canonical degree-k extension of ctx (memoized through extend)."""
    if k == 1:
        return ctx
    return extend(ctx, least_irreducible(ctx, k), cap=cap)


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
    """Map x into ctx along the base chain; x keeps its encoding."""
    if x.ctx is ctx or x.ctx == ctx:
        return x
    if not is_subctx(x.ctx, ctx):
        raise CtxMismatchError(f"{x.ctx} does not embed into {ctx}")
    return ctx.decode(x.rep)


def down_cast(x: FieldElem, sub: FieldCtx) -> FieldElem:
    """Inverse of embed; raises CtxMismatchError if x is not in the subfield."""
    if x.ctx is sub or x.ctx == sub:
        return x
    if not is_subctx(sub, x.ctx) or x.rep >= sub.order:
        raise CtxMismatchError(f"{x} does not lie in {sub}")
    return sub.decode(x.rep)


def in_subfield(x: FieldElem, sub: FieldCtx) -> bool:
    try:
        down_cast(x, sub)
        return True
    except CtxMismatchError:
        return False


# -- Frobenius and minimal polynomials -----------------------------------------


def frobenius_base_order(ctx: FieldCtx) -> int:
    """Cardinality q of ctx's base field (of ctx itself when it is prime)."""
    return ctx.order if ctx.base is None else ctx.base.order


def frobenius(x: FieldElem, e: int = 1) -> FieldElem:
    """x^(q^e) where q is the cardinality of the base field of x's field.

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


# -- square roots and quadratic equations ----------------------------------------


def absolute_trace(x: FieldElem) -> int:
    """x + x^p + ... + x^(p^(n-1)), n the degree over F_p: the trace of x
    down to the prime field, as a residue mod p."""
    p = x.ctx.p
    y = t = x
    for _ in range(x.ctx.tower_degree() - 1):
        y = y ** p
        t = t + y
    return t.rep


def is_square(x: FieldElem) -> bool:
    """Euler's criterion: x is 0 or x^((Q-1)/2) = 1.  In characteristic 2
    every element is a square."""
    ctx = x.ctx
    return ctx.p == 2 or not x or x ** ((ctx.order - 1) // 2) == ctx.one()


def _quadratic_constant(ctx: FieldCtx) -> FieldElem:
    """A non-square of ctx for odd p, an element of absolute trace 1 for p = 2.

    Found by a scan in encoding order, which passes every element of a
    subfield first, so the result is kept on the context.
    """
    c = ctx._quad_const
    if c is None:
        if ctx.p == 2:
            c = next(x for x in ctx.elements() if absolute_trace(x))
        else:
            c = next(x for x in ctx.elements() if not is_square(x))
        ctx._quad_const = c
    return c


def sqrt(x: FieldElem) -> Optional[FieldElem]:
    """A square root of x, or None when x is not a square.

    In characteristic 2 the root is x^(Q/2), for Q the order of the field.
    For odd p it is found by Tonelli–Shanks: write Q - 1 = 2^e * r with r
    odd, start from x^((r+1)/2), whose square is x times x^r, and cancel the
    2-power part of x^r with powers of z^r, for z the field's non-square.
    """
    ctx = x.ctx
    if ctx.p == 2:
        return x ** (ctx.order // 2)
    if not x:
        return x
    if not is_square(x):
        return None
    r, e = ctx.order - 1, 0
    while not r & 1:
        r >>= 1
        e += 1
    one = ctx.one()
    root = x ** ((r + 1) // 2)
    t = x ** r  # root^2 = x * t throughout
    c = _quadratic_constant(ctx) ** r  # of order 2^e
    while t != one:
        i, u = 0, t  # t has order 2^i, with i < e
        while u != one:
            u = u * u
            i += 1
        b = c
        for _ in range(e - i - 1):
            b = b * b
        root = root * b
        c = b * b
        t = t * c
        e = i
    return root


def artin_schreier_root(w: FieldElem) -> Optional[FieldElem]:
    """A root u of u^2 + u = w in characteristic 2, or None when the absolute
    trace of w is 1.  The other root is u + 1.

    With theta of trace 1 and n the degree over F_2, the root is
    u = sum over 1 <= i < n of (theta + theta^2 + ... + theta^(2^(i-1))) * w^(2^i):
    then u^2 + u = w + theta * Tr(w).
    """
    ctx = w.ctx
    if ctx.p != 2:
        raise CtxMismatchError(f"u^2 + u = w is an equation in characteristic 2, not over {ctx}")
    if absolute_trace(w):
        return None
    theta = partial = _quadratic_constant(ctx)
    u = ctx.zero()
    for _ in range(ctx.tower_degree() - 1):
        w = w * w
        u = u + partial * w
        theta = theta * theta
        partial = partial + theta
    return u


def quadratic_roots(beta: FieldElem, gamma: FieldElem) -> tuple[FieldElem, ...]:
    """The distinct roots of T^2 + beta*T + gamma in the field of beta,
    sorted by encoding.

    Odd p: (-beta +- sqrt(beta^2 - 4*gamma)) / 2.  Characteristic 2: the
    root sqrt(gamma) when beta = 0, else T = beta*u with u^2 + u = gamma/beta^2.
    """
    ctx = beta.ctx
    if ctx.p == 2:
        if not beta:
            return (sqrt(gamma),)
        u = artin_schreier_root(gamma / (beta * beta))
        if u is None:
            return ()
        roots = [beta * u, beta * u + beta]
    else:
        r = sqrt(beta * beta - 4 * gamma)
        if r is None:
            return ()
        half = ctx.elem(2).inverse()
        if not r:
            return (-beta * half,)
        roots = [(r - beta) * half, (-r - beta) * half]
    return tuple(sorted(roots, key=FieldElem.encode))


# -- text format ----------------------------------------------------------------


def format_elem(x: FieldElem) -> str:
    """Prime-field residues print as integers, others as "[c0,c1,...]"."""
    if x.ctx.base is None:
        return str(x.rep)
    return "[" + ",".join(format_elem(c) for c in x.coeffs()) + "]"


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
