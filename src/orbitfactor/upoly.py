"""Dense univariate polynomials over a FieldCtx, plus a factorization oracle.

Products and division with remainder run on encoded coefficient lists in
:func:`encoded_mul` and :func:`encoded_divmod`; ``Poly`` wraps them, and
callers that work on encodings call them directly.

The oracle is the standard pipeline: squarefree decomposition, distinct-degree
splitting, then randomized equal-degree splitting (trace-map variant in
characteristic 2).  Randomness is drawn from a generator seeded by the input
polynomial and a caller seed, so runs are reproducible.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from . import gf
from .errors import ConstantInputError, CtxMismatchError, InvariantViolation

_KEY_MOD = (1 << 64) - 59  # fold constant for stable per-input seeds


class Poly:
    """Polynomial with coefficient index = degree; zero is the empty tuple."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: gf.FieldCtx, coeffs: Sequence[gf.FieldElem]):
        n = len(coeffs)
        while n and not coeffs[n - 1]:
            n -= 1
        self.ctx = ctx
        self.coeffs = tuple(coeffs[:n])

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, ctx: gf.FieldCtx) -> "Poly":
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx: gf.FieldCtx) -> "Poly":
        return cls(ctx, (ctx.one(),))

    @classmethod
    def x(cls, ctx: gf.FieldCtx) -> "Poly":
        return cls(ctx, (ctx.zero(), ctx.one()))

    @classmethod
    def constant(cls, c: gf.FieldElem) -> "Poly":
        return cls(c.ctx, (c,))

    @classmethod
    def from_ints(cls, ctx: gf.FieldCtx, ints: Sequence[int]) -> "Poly":
        return cls(ctx, tuple(ctx.elem(i) for i in ints))

    @classmethod
    def x_pow(cls, ctx: gf.FieldCtx, n: int) -> "Poly":
        return cls(ctx, tuple(ctx.zero() for _ in range(n)) + (ctx.one(),))

    # -- basics ---------------------------------------------------------------

    @property
    def deg(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def lc(self) -> gf.FieldElem:
        if not self.coeffs:
            raise ZeroDivisionError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.ctx.one()

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = Poly(self.ctx, (self.ctx.elem(other),))
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ctx == other.ctx and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.ctx, self.coeffs))

    def key(self) -> tuple:
        """Sort key: (degree, coefficient vector low-to-high)."""
        return (self.deg, tuple(c.encode() for c in self.coeffs))

    def __repr__(self) -> str:
        return format_poly(self)

    def _check(self, other: "Poly") -> None:
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise CtxMismatchError("polynomials over different fields")

    # -- ring operations --------------------------------------------------------

    def __add__(self, other) -> "Poly":
        if isinstance(other, (int, gf.FieldElem)):
            other = Poly.constant(self.ctx.elem(other) if isinstance(other, int) else other)
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(self.ctx, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(self.ctx, tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "Poly":
        if isinstance(other, (int, gf.FieldElem)):
            other = Poly.constant(self.ctx.elem(other) if isinstance(other, int) else other)
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def scale(self, c: gf.FieldElem) -> "Poly":
        if not c:
            return Poly.zero(self.ctx)
        return Poly(self.ctx, tuple(a * c for a in self.coeffs))

    def __mul__(self, other) -> "Poly":
        if isinstance(other, gf.FieldElem):
            return self.scale(other)
        if isinstance(other, int):
            return self.scale(self.ctx.elem(other))
        self._check(other)
        ctx = self.ctx
        out = encoded_mul(ctx, [c.rep for c in self.coeffs], [c.rep for c in other.coeffs])
        return Poly(ctx, list(map(ctx.decode, out)))

    __rmul__ = __mul__

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check(other)
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        ctx = self.ctx
        quo, rem = encoded_divmod(ctx, [c.rep for c in self.coeffs],
                                  [c.rep for c in other.coeffs])
        decode = ctx.decode
        return Poly(ctx, list(map(decode, quo))), Poly(ctx, list(map(decode, rem)))

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if not self:
            return self
        if self.is_monic():
            return self
        return self.scale(self.coeffs[-1].inverse())

    def derivative(self) -> "Poly":
        ctx = self.ctx
        return Poly(ctx, tuple(c * ctx.elem(i) for i, c in enumerate(self.coeffs) if i)) \
            if self.deg >= 1 else Poly.zero(ctx)

    def __call__(self, x: gf.FieldElem) -> gf.FieldElem:
        """Evaluate by Horner on encodings in the field F of x, which may be
        an extension of the base: a coefficient keeps its encoding in F."""
        F = x.ctx
        if F is not self.ctx and not gf.is_subctx(self.ctx, F):
            raise CtxMismatchError(f"cannot evaluate {self.ctx} polynomial at {F} point")
        add, mul, v = F.add, F.mul, x.rep
        acc = 0
        for c in reversed(self.coeffs):
            acc = add(mul(acc, v), c.rep)
        return F.decode(acc)

    def map_ctx(self, target: gf.FieldCtx) -> "Poly":
        """Coefficient-wise embedding into an extension field."""
        return Poly(target, tuple(gf.embed(c, target) for c in self.coeffs))

    def pow(self, e: int) -> "Poly":
        return gf._power(Poly.__mul__, self, e, Poly.one(self.ctx))


# -- kernels on encoded coefficient lists --------------------------------------------
#
# A polynomial is a list of encodings over ctx, low to high, with no trailing
# zero; [] is zero.  Fields with 2-D tables look up each product and sum;
# log-array and computed fields take one ctx.addmul per row.


def encoded_mul(ctx: gf.FieldCtx, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product of a and b; [] when either is zero."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    tables = ctx.tables()
    if tables is not None:
        add_t, mul_t = tables[0], tables[1]
        for i, ai in enumerate(a):
            if ai:
                row = mul_t[ai]
                for k, bj in enumerate(b, i):
                    if bj:
                        out[k] = add_t[out[k]][row[bj]]
    else:
        addmul, n = ctx.addmul, len(b)
        for i, ai in enumerate(a):
            if ai:
                out[i:i + n] = addmul(out[i:i + n], ai, b)
    return out


def encoded_divmod(ctx: gf.FieldCtx, num: Sequence[int],
                   den: Sequence[int]) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of num by the nonzero den; the inputs are not
    changed."""
    dl = len(den)
    if len(num) < dl:
        return [], list(num)
    num = list(num)
    quo = [0] * (len(num) - dl + 1)
    # num[i + j] += (-c) * den[j] for each quotient coefficient c
    tables = ctx.tables()
    if tables is not None:
        add_t, mul_t, neg_t, inv_t = tables
        inv_lead = inv_t[den[-1]]
        for i in range(len(num) - dl, -1, -1):
            c = mul_t[num[i + dl - 1]][inv_lead]
            if c:
                quo[i] = c
                row = mul_t[neg_t[c]]
                for k, dj in enumerate(den, i):
                    if dj:
                        num[k] = add_t[num[k]][row[dj]]
    else:
        mul, neg, addmul = ctx.mul, ctx.neg, ctx.addmul
        inv_lead = ctx.inv(den[-1])
        for i in range(len(num) - dl, -1, -1):
            c = mul(num[i + dl - 1], inv_lead)
            if c:
                quo[i] = c
                num[i:i + dl] = addmul(num[i:i + dl], neg(c), den)
    rem = num[:dl - 1]
    while rem and not rem[-1]:
        rem.pop()
    return quo, rem


def gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor."""
    f._check(g)
    while g:
        f, g = g, f % g
    return f.monic()


def powmod(f: Poly, e: int, mod: Poly) -> Poly:
    """f^e modulo mod by square-and-multiply."""
    if not mod:
        raise ZeroDivisionError("powmod with zero modulus")
    return gf._power(lambda g, h: g * h % mod, f % mod, e, Poly.one(f.ctx))


# -- irreducibility --------------------------------------------------------------


def is_irreducible(f: Poly) -> bool:
    """Irreducibility by scanning for factors of each degree up to n/2:
    f has an irreducible factor of degree dividing i iff
    gcd(f, x^(Q^i) - x) is nonconstant.  Exits at the first hit."""
    n = f.deg
    if n < 1:
        raise ConstantInputError("irreducibility is defined for degree >= 1")
    if n == 1:
        return True
    q = f.ctx.order
    x = Poly.x(f.ctx)
    fm = f.monic()
    h = x
    for _ in range(n // 2):
        h = powmod(h, q, fm)
        if gcd(fm, h - x).deg != 0:
            return False
    return True


# -- factorization ----------------------------------------------------------------


@dataclass(frozen=True)
class Factorization:
    """unit * product(factor^multiplicity) over monic irreducible factors."""

    unit: gf.FieldElem
    factors: tuple[tuple[Poly, int], ...]

    def value(self) -> Poly:
        return math.prod((poly.pow(mult) for poly, mult in self.factors),
                         start=Poly.constant(self.unit))

    def as_multiset(self) -> tuple:
        return tuple((p.key(), m) for p, m in self.factors)

    def __iter__(self):
        return iter(self.factors)


def _seed_key(f: Poly, seed: int) -> int:
    key = seed & ((1 << 64) - 1)
    key = (key * 1000003 + f.ctx.order) % _KEY_MOD
    for c in f.coeffs:
        key = (key * 1000003 + c.encode() + 1) % _KEY_MOD
    return key


def _pth_root_coeff(c: gf.FieldElem) -> gf.FieldElem:
    # in F_Q the p-th root is c^(Q/p)
    return c ** (c.ctx.order // c.ctx.p)


def _squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """Monic f -> list of (monic squarefree, multiplicity), pairwise coprime."""
    ctx = f.ctx
    p = ctx.p
    out: list[tuple[Poly, int]] = []
    n = 1
    while f.deg > 0:
        fp = f.derivative()
        if fp:
            g = gcd(f, fp)
            h = f // g
            i = 1
            while h.deg > 0:
                gh = gcd(g, h)
                piece = h // gh
                if piece.deg > 0:
                    out.append((piece, i * n))
                g, h = g // gh, gh
                i += 1
            if g.deg == 0:
                break
            f = g
        # here every exponent in f is divisible by p: f = u(x^p)
        root = [ctx.zero()] * (f.deg // p + 1)
        for i, c in enumerate(f.coeffs):
            if c:
                if i % p:
                    raise InvariantViolation("inseparable part has a stray exponent")
                root[i // p] = _pth_root_coeff(c)
        f = Poly(ctx, root)
        n *= p
    return out


def _distinct_degree(f: Poly) -> list[tuple[Poly, int]]:
    """Monic squarefree f -> list of (product of degree-d factors, d)."""
    q = f.ctx.order
    x = Poly.x(f.ctx)
    out = []
    h = x
    g = f
    d = 0
    while g.deg >= 2 * (d + 1):
        d += 1
        h = powmod(h, q, g)
        piece = gcd(g, h - x)
        if piece.deg > 0:
            out.append((piece, d))
            g = g // piece
            h = h % g
    if g.deg > 0:
        out.append((g, g.deg))
    return out


def _random_poly(ctx: gf.FieldCtx, max_deg: int, rng: random.Random) -> Poly:
    return Poly(ctx, tuple(ctx.decode(rng.randrange(ctx.order)) for _ in range(max_deg + 1)))


def _edf_split(f: Poly, d: int, rng: random.Random) -> Optional[Poly]:
    """One splitting attempt; returns a proper factor or None."""
    ctx = f.ctx
    q = ctx.order
    r = _random_poly(ctx, f.deg - 1, rng)
    if r.deg < 1:
        return None
    if ctx.p == 2:
        # trace map of F_{Q^d} over F_2 applied to r
        m = d * ctx.tower_degree()
        v = r % f
        t = v
        for _ in range(m - 1):
            v = powmod(v, 2, f)
            t = t + v
        candidate = gcd(f, t)
    else:
        m = powmod(r, (q ** d - 1) // 2, f) - Poly.one(ctx)
        candidate = gcd(f, m)
    if 0 < candidate.deg < f.deg:
        return candidate
    return None


def _equal_degree(f: Poly, d: int, rng: random.Random) -> list[Poly]:
    """All monic irreducible factors of f given they all have degree d."""
    if f.deg == d:
        return [f]
    for _ in range(64 * (f.deg + 2)):
        part = _edf_split(f, d, rng)
        if part is not None:
            rest = f // part
            return _equal_degree(part.monic(), d, rng) + _equal_degree(rest.monic(), d, rng)
    raise InvariantViolation(f"equal-degree splitting failed on {f}")


def factorize(f: Poly, seed: int = 0) -> Factorization:
    """Complete factorization into monic irreducibles.

    Deterministic for a fixed seed; the factor multiset is independent of
    the seed.  Factors are sorted by (degree, coefficient vector).
    """
    if f.deg < 1:
        raise ConstantInputError("cannot factor a constant")
    rng = random.Random(_seed_key(f, seed))
    unit = f.lc()
    monic = f.monic()
    found: list[tuple[Poly, int]] = []
    for sqf, mult in _squarefree_decomposition(monic):
        for piece, d in _distinct_degree(sqf):
            for irr in _equal_degree(piece, d, rng):
                found.append((irr, mult))
    found.sort(key=lambda pm: pm[0].key())
    result = Factorization(unit, tuple(found))
    if result.value() != f:
        raise InvariantViolation("factorization does not reproduce its input")
    return result


def least_degree_factor(f: Poly, seed: int = 0) -> Poly:
    """One monic irreducible factor of minimal degree.

    Runs distinct-degree splitting until the first nontrivial piece, then
    extracts a single factor from it; cheaper than a full factorization.
    """
    if f.deg < 1:
        raise ConstantInputError("cannot factor a constant")
    rng = random.Random(_seed_key(f, seed) ^ 0x5EED)
    monic = f.monic()
    sqf_parts = sorted(_squarefree_decomposition(monic), key=lambda pm: pm[0].key())
    best: Optional[tuple[Poly, int]] = None
    for sqf, _mult in sqf_parts:
        for piece, d in _distinct_degree(sqf):
            if best is None or d < best[1]:
                best = (piece, d)
            break  # pieces arrive in increasing degree
    assert best is not None
    piece, d = best
    if piece.deg == d:
        return piece
    factors = _equal_degree(piece, d, rng)
    factors.sort(key=lambda g: g.key())
    return factors[0]


def roots_in(f: Poly, ext: gf.FieldCtx) -> tuple[gf.FieldElem, ...]:
    """All roots of f in ext (each reported once), sorted canonically.

    gcd(f, T^Q - T) is squarefree with only linear factors, so equal-degree
    splitting alone, seeded as :func:`factorize` seeds it, takes it apart.
    """
    if not gf.is_subctx(f.ctx, ext):
        raise CtxMismatchError(f"{ext} does not extend {f.ctx}")
    fe = f.map_ctx(ext) if ext != f.ctx else f
    if fe.deg < 1:
        return ()
    x = Poly.x(ext)
    linear_part = gcd(fe, powmod(x, ext.order, fe) - x)
    if linear_part.deg < 1:
        return ()
    linears = _equal_degree(linear_part, 1, random.Random(_seed_key(linear_part, 0)))
    if math.prod(linears, start=Poly.one(ext)) != linear_part:
        raise InvariantViolation("linear factors do not reproduce gcd(f, T^Q - T)")
    return tuple(sorted((-factor.coeffs[0] for factor in linears), key=lambda r: r.encode()))


def monic_irreducibles(ctx: gf.FieldCtx, d: int) -> Iterator[Poly]:
    """All monic irreducibles of degree d over ctx, in lexicographic order of
    the coefficients with the constant term most significant."""
    one = ctx.one()
    tails = [range(ctx.order)] * d
    if d > 1:  # a zero constant term makes a multiple of T
        tails[0] = range(1, ctx.order)
    for tail in itertools.product(*tails):
        poly = Poly(ctx, tuple(ctx.decode(c) for c in tail) + (one,))
        if is_irreducible(poly):
            yield poly


# -- text format -------------------------------------------------------------------


def format_poly(f: Poly, var: str = "T") -> str:
    """Render as "c_n*T^n + ... + c_0" with high powers first."""
    if not f.coeffs:
        return "0"
    parts = []
    for i in range(f.deg, -1, -1):
        c = f.coeffs[i]
        if not c:
            continue
        cs = gf.format_elem(c)
        if i == 0:
            parts.append(cs)
        else:
            head = "" if cs == "1" else f"{cs}*"
            parts.append(f"{head}{var}" if i == 1 else f"{head}{var}^{i}")
    return " + ".join(parts)
