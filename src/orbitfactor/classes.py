"""Conjugacy classes of PGL(2,q), their pairing with invariant values, and
the twisted-conjugacy (Lang equation) solver.

Classes are keyed by tr^2/det of a matrix pre-image, which scaling and
conjugation leave unchanged, plus a flag for the identity and, at trace zero
for odd q, for the square class of -det.  A scan of the group in key order
meets every class within its first O(q^2) elements, so the classes are read
off it without building PGL(2,q), and `class_of` is a key lookup.

An invariant value lambda of PGL(2,q) picks out the class of the element
sending a root alpha of f - lambda*g to alpha^q: the generator 2 - pgl_generator
takes at alpha the value lambda = 2 - tr^2/det of that element, equivalently
-(rho + 1/rho) for its eigenvalue ratio rho, so the class is the one keyed by
2 - lambda.  Infinity corresponds to the identity class and lambda = 2, the
value on the quadratic orbit, to the involutions, which form one class for
even q and two for odd q.

The Lang equation s = sigma(t)^(-1) t is solved from its solution line:
X_s = {z : s(z) = z^q} is t^(-1)(P^1(F_q)), so every cross-ratio of four
points of X_s lies in F_q, and the cross-ratio map sending the first three
points of X_s to infinity, 0 and 1 is a solution.  X_s itself comes from
Speiser's lemma (Hilbert 90 for GL_2): two Frobenius-twisted sums over
F_{q^r} give a map taking P^1(F_q) onto it, with no root finding.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Union

from . import gf, grouporbit as go, moebius as mo
from .errors import CtxMismatchError, InvariantViolation


class ClassKind(Enum):
    IDENTITY = "identity"
    SPLIT = "split"
    UNIPOTENT = "unipotent"
    NONSPLIT = "nonsplit"
    SPLIT_INVOLUTION = "split-involution"
    NONSPLIT_INVOLUTION = "nonsplit-involution"


@dataclass(frozen=True)
class ClassLabel:
    kind: ClassKind
    order: int
    representative: mo.Moebius
    size: int
    centralizer_order: int

    def describe(self) -> str:
        tag = self.kind.value
        if self.kind in (ClassKind.SPLIT, ClassKind.NONSPLIT):
            tag = f"{tag}(r={self.order})"
        return tag


@dataclass(frozen=True)
class AmbiguousInvolutions:
    """Both involution classes; the quadratic-orbit value cannot separate
    them when q is odd."""

    mu: gf.FieldElem
    split_class: ClassLabel
    nonsplit_class: ClassLabel


def _kind_of(s: mo.Moebius, q_odd: bool) -> tuple[ClassKind, int]:
    order = s.order()
    cls = s.classify()
    if cls is mo.MoebiusClass.IDENTITY:
        return ClassKind.IDENTITY, 1
    if cls is mo.MoebiusClass.UNIPOTENT:
        return ClassKind.UNIPOTENT, order
    if order == 2 and q_odd:
        if cls is mo.MoebiusClass.SPLIT:
            return ClassKind.SPLIT_INVOLUTION, 2
        return ClassKind.NONSPLIT_INVOLUTION, 2
    if cls is mo.MoebiusClass.SPLIT:
        return ClassKind.SPLIT, order
    return ClassKind.NONSPLIT, order


def _class_key(ctx: gf.FieldCtx, key: tuple[int, int, int, int]) -> tuple[int, bool]:
    """Conjugacy invariant of the element whose `Moebius.key()` is key:
    :func:`moebius.kappa`, tr^2/det of a matrix pre-image (encoded), and a
    refinement flag.

    tr^2/det fixes the class of every non-identity element except at trace
    zero for odd q, where the flag holds whether -det is a square (split or
    nonsplit involution).  For the identity the flag is True, which tells it
    from the unipotent class sharing its value (4, or 0 for even q).
    """
    kappa = mo.kappa(ctx, *key)
    if key == mo.IDENTITY_KEY:
        flag = True
    elif not kappa and ctx.p != 2:
        a, b, c, d = key
        flag = ctx.is_square(ctx.sub(ctx.mul(b, c), ctx.mul(a, d)))
    else:
        flag = False
    return kappa, flag


def _class_size(kind: ClassKind, q: int) -> int:
    """|G|/|C(s)| for the centralizer of an element of the kind: a split or
    nonsplit torus, its normalizer for the involutions, and the unipotent
    radical (order q) for the unipotent class."""
    return {
        ClassKind.IDENTITY: 1,
        ClassKind.UNIPOTENT: q * q - 1,
        ClassKind.SPLIT: q * (q + 1),
        ClassKind.NONSPLIT: q * (q - 1),
        ClassKind.SPLIT_INVOLUTION: q * (q + 1) // 2,
        ClassKind.NONSPLIT_INVOLUTION: q * (q - 1) // 2,
    }[kind]


@functools.lru_cache(maxsize=64)
def _classes_by_key(ctx: gf.FieldCtx) -> tuple[tuple[ClassLabel, ...], dict]:
    """The sorted class labels and the map from class key to label (cached).

    Walks :func:`grouporbit.pgl_keys` and stops once every class key has
    been seen; the keys arrive in `Moebius.key()` order, so the first
    element with a key is its class's least, and only those become Moebius
    maps.  Sizes follow from the kinds.
    """
    q = ctx.order
    q_odd = ctx.p != 2
    expected = q + 2 if q_odd else q + 1
    group_order = q ** 3 - q
    by_key: dict = {}
    for key in go.pgl_keys(ctx):
        k = _class_key(ctx, key)
        if k in by_key:
            continue
        rep = mo.Moebius.from_key(ctx, key)
        kind, order = _kind_of(rep, q_odd)
        size = _class_size(kind, q)
        by_key[k] = ClassLabel(kind, order, rep, size, group_order // size)
        if len(by_key) == expected:
            break
    labels = sorted(by_key.values(), key=lambda c: (c.size, c.representative.key()))
    if sum(c.size for c in labels) != group_order:
        raise InvariantViolation("class sizes do not sum to the group order")
    if len(labels) != expected:
        raise InvariantViolation(f"expected {expected} classes, found {len(labels)}")
    return tuple(labels), by_key


def conjugacy_classes(ctx: gf.FieldCtx) -> tuple[ClassLabel, ...]:
    """All conjugacy classes, sorted by (size, representative key).

    A scan of PGL(2,q) in `Moebius.key()` order reads each element's class
    key and stops once all are seen, after O(q^2) elements; each class's
    representative is its least element, and its size comes from its kind.
    There are q+1 classes for even q and q+2 for odd q; for odd q the
    involutions split into two classes told apart by where their fixed
    points live.  Raises SizeCapError where :func:`grouporbit.full_pgl`
    does.
    """
    return _classes_by_key(ctx)[0]


def class_of(ctx: gf.FieldCtx, s: mo.Moebius) -> ClassLabel:
    """The conjugacy class of s, by its class key."""
    if s.ctx != ctx:
        raise CtxMismatchError(f"{s} is not over {ctx}")
    return _classes_by_key(ctx)[1][_class_key(ctx, s.key())]


def quadratic_orbit_value(ctx: gf.FieldCtx) -> gf.FieldElem:
    """mu = 2 (0 in characteristic 2), the common invariant value of the
    quadratic orbit: the element sending a point of F_{q^2} outside F_q to
    its conjugate is an involution, and its trace is 0."""
    return ctx.elem(2)


def class_of_lambda(ctx: gf.FieldCtx, lam: mo.ProjPoint
                    ) -> Union[ClassLabel, AmbiguousInvolutions]:
    """The conjugacy class associated with one invariant value.

    A finite lambda is 2 - tr^2/det of the element sending a root of
    f - lambda*g to its q-th power, so its class is the one keyed by
    tr^2/det = 2 - lambda.  Infinity maps to the identity class.  At
    lambda = 2 (trace zero) that key names the single involution class for
    even q; for odd q both involution classes share it, and the answer is
    explicitly both.
    """
    classes, by_key = _classes_by_key(ctx)
    if lam.value is None:
        return next(c for c in classes if c.kind is ClassKind.IDENTITY)
    kappa = ctx.elem(2) - gf.down_cast(lam.value, ctx)
    if not kappa and ctx.p != 2:
        split = next(c for c in classes if c.kind is ClassKind.SPLIT_INVOLUTION)
        nonsplit = next(c for c in classes if c.kind is ClassKind.NONSPLIT_INVOLUTION)
        return AmbiguousInvolutions(quadratic_orbit_value(ctx), split, nonsplit)
    return by_key[(kappa.encode(), False)]


@dataclass(frozen=True)
class FactorPattern:
    degree: int
    count: int
    multiplicity: int


def factor_pattern_of_class(ctx: gf.FieldCtx, lam: gf.FieldElem) -> FactorPattern:
    """Predicted factor shape of f - lambda*g from the class correspondence:
    |G|/r irreducibles of degree r on regular orbits, and the quadratic
    pattern with multiplicity q+1 on the non-regular one."""
    q = ctx.order
    if lam == ctx.elem(2):
        return FactorPattern(2, (q * q - q) // 2, q + 1)
    label = class_of_lambda(ctx, mo.ProjPoint(lam))
    if isinstance(label, AmbiguousInvolutions):
        raise InvariantViolation("ambiguity away from the quadratic-orbit value")
    return FactorPattern(label.order, (q ** 3 - q) // label.order, 1)


# -- the Lang equation -------------------------------------------------------------


@dataclass(frozen=True)
class LangSolution:
    s: mo.Moebius
    t: mo.Moebius                       # over F_{q^r}; s = sigma(t)^(-1) t
    ext: gf.FieldCtx
    solution_points: tuple[mo.ProjPoint, ...]   # X_s, all of P^1 solutions
    finite_count: int


def _sigma_moebius(t: mo.Moebius, q: int) -> mo.Moebius:
    return mo.Moebius(*(e ** q for e in t.entries()))


def _mat_mul(m: tuple, n: tuple) -> tuple:
    """Product of 2x2 matrices held as (a, b, c, d), rows first."""
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _norm_preimage(ext: gf.FieldCtx, ctx: gf.FieldCtx, target: gf.FieldElem) -> gf.FieldElem:
    """Some nu in ext with norm nu^((Q-1)/(q-1)) = target, for target in ctx*.

    Walks ext* in encoding order and stops at the first x whose norm n has
    target among its powers n^k, k < q-1; then nu = x^k.
    """
    q, big_q = ctx.order, ext.order
    e = (big_q - 1) // (q - 1)
    for i in range(1, big_q):
        x = ext.decode(i)
        n = gf.down_cast(x ** e, ctx)
        nk = ctx.one()
        for k in range(q - 1):
            if nk == target:
                return x ** k
            nk = nk * n
    raise InvariantViolation("no element of the extension has the required norm")


def _speiser_map(s: mo.Moebius, r: int, ext: gf.FieldCtx) -> mo.Moebius:
    """The map t0^(-1) of lang_solve, over ext = F_{q^r}, with columns the
    first two independent twisted sums v (beta_0 = 1 and
    beta_(k+1) = beta_k / nu^(q^k)).  Every v satisfies sigma(v) = nu*S*v,
    so sigma(t0^(-1) u) = nu*S*t0^(-1) u for u in F_q^2, and the v over
    y = (alpha^m, 0), (0, alpha^m), m < r, span ext^2.
    """
    ctx = s.ctx
    q = ctx.order
    zero, one = ctx.zero(), ctx.one()
    a, b, c, d = s.entries()
    inv_det = (a * d - b * c).inverse()
    s_inv = (d * inv_det, -b * inv_det, -c * inv_det, a * inv_det)
    mats = [(one, zero, zero, one)]  # S^(-k) for k <= r
    for _ in range(r):
        mats.append(_mat_mul(mats[-1], s_inv))
    m00, m01, m10, m11 = mats.pop()
    if m01 or m10 or m00 != m11:
        raise InvariantViolation("S^r is not scalar")
    nu = _norm_preimage(ext, ctx, m00)  # S^(-r) = (1/mu) I
    betas, nu_k = [ext.one()], nu
    for _ in range(r - 1):
        betas.append(betas[-1] / nu_k)
        nu_k = nu_k ** q
    coeffs = [(beta, tuple(gf.embed(e, ext) for e in mat)) for beta, mat in zip(betas, mats)]

    sigma_alpha = [ext.gen()] if r > 1 else []  # sigma^k(alpha), k < r
    for _ in range(r - 1):
        sigma_alpha.append(sigma_alpha[-1] ** q)
    orbit = [ext.one()] * r  # sigma^k(alpha^m), k < r
    first = None
    for m in range(r):
        if m:
            orbit = [x * a for x, a in zip(orbit, sigma_alpha)]
        for j in (0, 1):  # y = alpha^m times the j-th unit vector
            v0 = v1 = ext.zero()
            for xk, (beta, mat) in zip(orbit, coeffs):
                u = beta * xk
                v0 += u * mat[j]
                v1 += u * mat[2 + j]
            if first is None:
                if v0 or v1:
                    first = (v0, v1)
            elif first[0] * v1 - first[1] * v0:
                return mo.Moebius(first[0], v0, first[1], v1)
    raise InvariantViolation("twisted sums found no two independent solution vectors")


def lang_solve(s: mo.Moebius) -> LangSolution:
    """Solve s = sigma(t)^(-1) * t with t over F_{q^r}, r = order(s).

    X_s, the solutions of s(z) = z^q on P^1(F_{q^r}), is t0^(-1)(P^1(F_q))
    for some solution t0, and Speiser's lemma builds t0^(-1) with no root
    finding: with S the matrix of s, S^r = mu*I and nu of norm 1/mu, each
    Frobenius-twisted sum v = sum_(k<r) beta_k S^(-k) sigma^k(y) solves
    sigma(v) = nu*S*v, and two independent such v, from y = (alpha^m, 0)
    and (0, alpha^m), are the columns of t0^(-1).  Here sigma is x -> x^q.

    With z0, z1, z2 the first three points of X_s in key order, t is the
    Moebius map sending them to infinity, 0 and 1.  Then t * t0^(-1) sends
    three points of P^1(F_q) to infinity, 0 and 1, so it is some g in
    PGL(2,q), and t = g * t0 solves the equation because sigma fixes g.
    Every other solution is h * t for h in PGL(2,q).

    Three checks raise InvariantViolation: every point of X_s satisfies
    s(z) = z^q and the q+1 points are distinct, which makes them all the
    roots of the degree-(q+1) companion (with infinity when c = 0); t
    satisfies the defining equation; and X_s = t^(-1)(P^1(F_q)).
    """
    ctx = s.ctx
    q = ctx.order
    r = s.order()
    # no F_{q^r} scan below, so the field size alone need not be capped
    ext = gf.extension_of(ctx, r, cap=max(gf.size_cap(), q ** r))

    line = [mo.ProjPoint(gf.embed(v, ext)) for v in ctx.elements()] + [mo.INFINITY]
    t0_inv = _speiser_map(s, r, ext)
    points = [t0_inv.apply(z) for z in line]
    s_ext = s.lift_to(ext)
    for z in points:
        if s_ext.apply(z) != (z if z.value is None else mo.ProjPoint(z.value ** q)):
            raise InvariantViolation("a point of X_s fails s(z) = z^q")
    if len(set(points)) != q + 1:
        raise InvariantViolation("X_s does not have q+1 distinct points")
    points.sort(key=lambda z: z.key())

    z0, z1, z2 = (z.value for z in points[:3])
    if z0 is None:  # t = (z - z1) / (z2 - z1)
        t = mo.Moebius(ext.one(), -z1, ext.zero(), z2 - z1)
    else:  # t = (z2 - z0)(z - z1) / ((z2 - z1)(z - z0))
        u, v = z2 - z0, z2 - z1
        t = mo.Moebius(u, -u * z1, v, -v * z0)

    if _sigma_moebius(t, q).inverse().compose(t) != s_ext:
        raise InvariantViolation("Lang solution fails its defining equation")
    t_inv = t.inverse()
    if {t_inv.apply(z) for z in line} != set(points):
        raise InvariantViolation("solution set is not the t-image of the rational line")
    finite_count = sum(z.value is not None for z in points)
    return LangSolution(s, t, ext, tuple(points), finite_count)
