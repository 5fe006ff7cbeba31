"""Conjugacy classes of PGL(2,q), their pairing with invariant values, and
the twisted-conjugacy (Lang equation) solver.

Classes are keyed by tr^2/det of a matrix pre-image, which scaling and
conjugation leave unchanged, plus a flag for the identity and, at trace zero
for odd q, for the square class of -det; one pass over the group builds the
classes and `class_of` is a key lookup.

Each value of the degree-|G| invariant generator on a regular orbit picks out
one conjugacy class of elements of order > 2; infinity corresponds to the
identity class and the value on the quadratic orbit to the involutions, which
form one class for even q and two for odd q.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Union

from . import gf, grouporbit as go, invariants as inv, moebius as mo
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


def _class_key(s: mo.Moebius) -> tuple[int, bool]:
    """Conjugacy invariant of s: tr^2/det of a matrix pre-image (encoded) and
    a refinement flag.

    tr^2/det fixes the class of every non-identity element except at trace
    zero for odd q, where the flag holds whether -det is a square (split or
    nonsplit involution).  For the identity the flag is True, which tells it
    from the unipotent class sharing its value (4, or 0 for even q).
    """
    ctx = s.ctx
    a, b, c, d = s.entries()
    tr = a + d
    det = a * d - b * c
    if s.is_identity():
        flag = True
    elif not tr and ctx.p != 2:
        flag = (-det) ** ((ctx.order - 1) // 2) == ctx.one()
    else:
        flag = False
    return (tr * tr / det).encode(), flag


_classes_cache: dict = {}


def _classes_by_key(ctx: gf.FieldCtx) -> tuple[tuple[ClassLabel, ...], dict]:
    """The sorted class labels and the map from class key to label (cached)."""
    cached = _classes_cache.get(ctx)
    if cached is not None:
        return cached
    G = go.full_pgl(ctx)
    q = ctx.order
    q_odd = ctx.p != 2
    reps: dict = {}
    sizes: dict = {}
    for s in G.elements:  # sorted by key(), so each class's first is its least
        k = _class_key(s)
        reps.setdefault(k, s)
        sizes[k] = sizes.get(k, 0) + 1
    by_key = {}
    for k, s in reps.items():
        kind, order = _kind_of(s, q_odd)
        by_key[k] = ClassLabel(kind, order, s, sizes[k], len(G) // sizes[k])
    labels = sorted(by_key.values(), key=lambda c: (c.size, c.representative.key()))
    if sum(c.size for c in labels) != q ** 3 - q:
        raise InvariantViolation("class sizes do not sum to the group order")
    expected = q + 2 if q_odd else q + 1
    if len(labels) != expected:
        raise InvariantViolation(f"expected {expected} classes, found {len(labels)}")
    cached = (tuple(labels), by_key)
    _classes_cache[ctx] = cached
    return cached


def conjugacy_classes(ctx: gf.FieldCtx) -> tuple[ClassLabel, ...]:
    """All conjugacy classes, sorted by (size, representative key).

    One pass over PGL(2,q) groups the elements by their class key; each
    class's representative is its least element by `Moebius.key()`.  There
    are q+1 classes for even q and q+2 for odd q; for odd q the involutions
    split into two classes told apart by where their fixed points live.
    """
    return _classes_by_key(ctx)[0]


def class_of(ctx: gf.FieldCtx, s: mo.Moebius) -> ClassLabel:
    """The conjugacy class of s, by its class key."""
    if s.ctx != ctx:
        raise CtxMismatchError(f"{s} is not over {ctx}")
    return _classes_by_key(ctx)[1][_class_key(s)]


_mu_cache: dict = {}
_phi_cache: dict = {}


def canonical_generator(ctx: gf.FieldCtx) -> inv.RatFunc:
    """Invariant generator of the full group used for the correspondence."""
    phi = _phi_cache.get(ctx)
    if phi is None:
        phi = inv.invariant_generator(go.full_pgl(ctx))
        _phi_cache[ctx] = phi
    return phi


def quadratic_orbit_value(ctx: gf.FieldCtx) -> gf.FieldElem:
    """mu = phi(gamma) for the least gamma in F_{q^2} outside F_q; the common
    invariant value of the whole quadratic orbit."""
    mu = _mu_cache.get(ctx)
    if mu is None:
        phi = canonical_generator(ctx)
        ext2 = gf.extension_of(ctx, 2)
        gamma = next(v for v in ext2.elements() if not gf.in_subfield(v, ctx))
        value = phi.eval_point(mo.ProjPoint(gamma))
        if value.value is None:
            raise InvariantViolation("phi has a pole on the quadratic orbit")
        mu = gf.down_cast(value.value, ctx)
        _mu_cache[ctx] = mu
    return mu


def class_of_lambda(ctx: gf.FieldCtx, lam: mo.ProjPoint
                    ) -> Union[ClassLabel, AmbiguousInvolutions]:
    """The conjugacy class associated with one invariant value.

    Infinity maps to the identity class.  The quadratic-orbit value maps to
    the single involution class for even q, and for odd q to an explicit
    both-classes answer.  Every other value is realized on a regular orbit
    and picks the class of the element sending a root to its q-th power.
    """
    classes = conjugacy_classes(ctx)
    if lam.value is None:
        return next(c for c in classes if c.kind is ClassKind.IDENTITY)
    lam_val = gf.down_cast(lam.value, ctx)
    mu = quadratic_orbit_value(ctx)
    if lam_val == mu:
        if ctx.p == 2:
            return next(c for c in classes if c.order == 2)
        split = next(c for c in classes if c.kind is ClassKind.SPLIT_INVOLUTION)
        nonsplit = next(c for c in classes if c.kind is ClassKind.NONSPLIT_INVOLUTION)
        return AmbiguousInvolutions(mu, split, nonsplit)
    phi = canonical_generator(ctx)
    f, g = phi.monic_pair()
    target = f - g.scale(lam_val)
    h = upoly.least_degree_factor(target)
    ext, alpha = sf.root_extension(ctx, h)
    witness = sf.find_s_for_alpha(go.full_pgl(ctx), alpha, phi)
    return class_of(ctx, witness)


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
    if lam == quadratic_orbit_value(ctx):
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

    Works on matrix pre-images: S^r is a scalar c, a norm preimage mu of c
    twists the q-power map into an F_q-linear operator on 2x2 matrices over
    F_{q^r}, and any invertible fixed matrix projects to a valid t.  The
    returned t satisfies X_s = t^(-1)(P^1(F_q)) exactly.
    """
    ctx = s.ctx
    q = ctx.order
    r = s.order()
    # no F_{q^r} scan below, so the field size alone need not be capped
    ext = gf.extension_of(ctx, r, cap=max(gf.size_cap(), q ** r))
    deg = ext.degree  # r, except r == 1 where ext is ctx itself

    a, b, c, d = (gf.embed(e, ext) for e in s.entries())
    S = ((a, b), (c, d))

    def mat_mul(X, Y):
        return ((X[0][0] * Y[0][0] + X[0][1] * Y[1][0],
                 X[0][0] * Y[0][1] + X[0][1] * Y[1][1]),
                (X[1][0] * Y[0][0] + X[1][1] * Y[1][0],
                 X[1][0] * Y[0][1] + X[1][1] * Y[1][1]))

    power = ((ext.one(), ext.zero()), (ext.zero(), ext.one()))
    for _ in range(r):
        power = mat_mul(power, S)
    if power[0][1] or power[1][0] or power[0][0] != power[1][1]:
        raise InvariantViolation("s^order is not scalar on matrix pre-images")
    scalar = power[0][0]

    mu_inv = _norm_preimage(ctx, ext, scalar).inverse()

    # F_q-linear fixed-point problem: T = mu^(-1) sigma(T) S over M_2(F_{q^r})
    if ext is ctx:  # r == 1
        deg = 1
        basis_elems = [ext.one()]
        coords = lambda v: (v,)
    else:
        basis_elems = [ext.from_coeffs([0] * i + [1]) for i in range(deg)]
        coords = lambda v: v.coeffs()
    unknowns = []
    for pos in range(4):
        for be in basis_elems:
            entries = [ext.zero()] * 4
            entries[pos] = be
            unknowns.append(((entries[0], entries[1]), (entries[2], entries[3])))

    def operator(T):
        sig = ((T[0][0] ** q, T[0][1] ** q), (T[1][0] ** q, T[1][1] ** q))
        prod = mat_mul(sig, S)
        return ((mu_inv * prod[0][0] - T[0][0], mu_inv * prod[0][1] - T[0][1]),
                (mu_inv * prod[1][0] - T[1][0], mu_inv * prod[1][1] - T[1][1]))

    n = 4 * deg
    columns = []
    for T in unknowns:
        image = operator(T)
        col = []
        for row_pair in image:
            for entry in row_pair:
                col.extend(coords(entry))
        columns.append(col)
    # rows: n equations over F_q; kernel gives all solutions
    matrix = [[columns[j][i] for j in range(n)] for i in range(n)]
    kernel = _kernel_basis(ctx, matrix)
    if not kernel:
        raise InvariantViolation("Lang equation has no solutions; impossible")

    def to_matrix(vec):
        entries = []
        for pos in range(4):
            acc = ext.zero()
            for l, be in enumerate(basis_elems):
                coeff = vec[pos * deg + l]
                if coeff:
                    acc = acc + gf.embed(coeff, ext) * be
            entries.append(acc)
        return ((entries[0], entries[1]), (entries[2], entries[3]))

    t = None
    for combo in _small_combinations(ctx, len(kernel)):
        vec = [ctx.zero()] * n
        nonzero = False
        for coeff, basis_vec in zip(combo, kernel):
            if coeff:
                nonzero = True
                for i in range(n):
                    vec[i] = vec[i] + coeff * basis_vec[i]
        if not nonzero:
            continue
        T = to_matrix(vec)
        if T[0][0] * T[1][1] - T[0][1] * T[1][0]:
            t = mo.Moebius(T[0][0], T[0][1], T[1][0], T[1][1])
            break
    if t is None:
        raise InvariantViolation("no invertible solution of the Lang equation found")

    # verify s = sigma(t)^(-1) t
    sig_t = _sigma_moebius(t, q)
    if sig_t.inverse().compose(t) != s.lift_to(ext):
        raise InvariantViolation("Lang solution fails its defining equation")

    # X_s = t^(-1)(P^1(F_q))
    ps = sf.frobenius_companion(s)
    finite = upoly.roots_in(ps, ext)
    points = [mo.ProjPoint(v) for v in finite]
    if not s.c:
        points.append(mo.INFINITY)
    points.sort(key=lambda z: z.key())
    t_inv = t.inverse()
    image = {t_inv.apply(mo.ProjPoint(gf.embed(v, ext))) for v in ctx.elements()}
    image.add(t_inv.apply(mo.INFINITY))
    if image != set(points):
        raise InvariantViolation("solution set is not the t-image of the rational line")
    return LangSolution(s, t, ext, tuple(points), len(finite))


def _norm_preimage(ctx: gf.FieldCtx, ext: gf.FieldCtx, c: gf.FieldElem) -> gf.FieldElem:
    """mu in ext with norm N(mu) = mu^((|ext|-1)/(q-1)) equal to c in F_q^*.

    mu = g^e, where g is the least nonzero element (in encode order) whose
    norm generates F_q^* and e is the discrete log of c to base N(g); the
    norm is onto F_q^*, so g is found after a few candidates, and the log
    takes at most q-1 steps.
    """
    q = ctx.order
    norm_exp = (ext.order - 1) // (q - 1)
    cofactors = [(q - 1) // ell for ell in sf.divisors(q - 1) if gf.is_prime(ell)]
    one = ext.one()
    for g in ext.elements():
        if not g:
            continue
        base = g ** norm_exp
        if all(base ** k != one for k in cofactors):
            break
    power = one
    for e in range(q - 1):
        if power == c:
            return g ** e
        power = power * base
    raise InvariantViolation("no norm preimage for the scalar of s^order")


def _kernel_basis(ctx: gf.FieldCtx, matrix: list) -> list:
    """Kernel of a square matrix over the field, by Gaussian elimination."""
    n = len(matrix)
    rows = [list(row) for row in matrix]
    pivots: dict[int, int] = {}
    row_idx = 0
    for col in range(n):
        pivot = None
        for i in range(row_idx, n):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[row_idx], rows[pivot] = rows[pivot], rows[row_idx]
        inv_lead = rows[row_idx][col].inverse()
        rows[row_idx] = [e * inv_lead for e in rows[row_idx]]
        for i in range(n):
            if i != row_idx and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [e - factor * pe for e, pe in zip(rows[i], rows[row_idx])]
        pivots[col] = row_idx
        row_idx += 1
    free_cols = [c for c in range(n) if c not in pivots]
    basis = []
    zero, one = ctx.zero(), ctx.one()
    for fc in free_cols:
        vec = [zero] * n
        vec[fc] = one
        for col, ri in pivots.items():
            vec[col] = -rows[ri][fc]
        basis.append(vec)
    return basis


def _small_combinations(ctx: gf.FieldCtx, k: int):
    """Coefficient vectors over F_q in a deterministic small-first order."""
    elems = list(ctx.elements())
    # single basis vectors first
    for i in range(k):
        for e in elems[1:]:
            combo = [elems[0]] * k
            combo[i] = e
            yield combo
    for combo in itertools.product(elems, repeat=k):
        yield list(combo)
