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
points of X_s to infinity, 0 and 1 is a solution.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Union

from . import gf, grouporbit as go, moebius as mo
from . import structfactor as sf
from . import upoly
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
        flag = gf.is_square(ctx.decode(ctx.sub(ctx.mul(b, c), ctx.mul(a, d))))
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
        rep = mo.Moebius(*map(ctx.decode, key))
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


def lang_solve(s: mo.Moebius) -> LangSolution:
    """Solve s = sigma(t)^(-1) * t with t over F_{q^r}, r = order(s).

    X_s, the solutions of s(z) = z^q on P^1(F_{q^r}), is t0^(-1)(P^1(F_q))
    for some solution t0.  With z0, z1, z2 the first three points of X_s in
    key order, t is the Moebius map sending them to infinity, 0 and 1.  Then
    t * t0^(-1) sends three points of P^1(F_q) to infinity, 0 and 1, so it
    is some g in PGL(2,q), and t = g * t0 solves the equation because sigma
    fixes g.  Every other solution is h * t for h in PGL(2,q).  Both the
    defining equation and X_s = t^(-1)(P^1(F_q)) are checked.
    """
    ctx = s.ctx
    q = ctx.order
    r = s.order()
    # no F_{q^r} scan below, so the field size alone need not be capped
    ext = gf.extension_of(ctx, r, cap=max(gf.size_cap(), q ** r))

    finite = upoly.roots_in(sf.frobenius_companion(s), ext)
    points = [mo.ProjPoint(v) for v in finite]
    if not s.c:
        points.append(mo.INFINITY)
    points.sort(key=lambda z: z.key())

    z0, z1, z2 = (z.value for z in points[:3])
    if z0 is None:  # t = (z - z1) / (z2 - z1)
        t = mo.Moebius(ext.one(), -z1, ext.zero(), z2 - z1)
    else:  # t = (z2 - z0)(z - z1) / ((z2 - z1)(z - z0))
        u, v = z2 - z0, z2 - z1
        t = mo.Moebius(u, -u * z1, v, -v * z0)

    if _sigma_moebius(t, q).inverse().compose(t) != s.lift_to(ext):
        raise InvariantViolation("Lang solution fails its defining equation")
    t_inv = t.inverse()
    image = {t_inv.apply(mo.ProjPoint(gf.embed(v, ext))) for v in ctx.elements()}
    image.add(t_inv.apply(mo.INFINITY))
    if image != set(points):
        raise InvariantViolation("solution set is not the t-image of the rational line")
    return LangSolution(s, t, ext, tuple(points), len(finite))
