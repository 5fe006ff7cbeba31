import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from orbitfactor import classes as cl
from orbitfactor import gf, grouporbit as go, invariants as inv, moebius as mo
from orbitfactor import structfactor as sf, upoly
from orbitfactor.errors import CtxMismatchError, SizeCapError


@pytest.mark.parametrize("p,m,count", [(2, 1, 3), (3, 1, 5), (2, 2, 5), (5, 1, 7)])
def test_class_counts(p, m, count):
    ctx = gf.field_create(p, m)
    labels = cl.conjugacy_classes(ctx)
    assert len(labels) == count
    assert sum(c.size for c in labels) == ctx.order ** 3 - ctx.order


def test_two_involution_classes_odd_q(F5):
    labels = cl.conjugacy_classes(F5)
    invs = [c for c in labels if c.order == 2]
    assert len(invs) == 2
    kinds = {c.kind for c in invs}
    assert kinds == {cl.ClassKind.SPLIT_INVOLUTION, cl.ClassKind.NONSPLIT_INVOLUTION}
    for c in invs:
        rational_fixed = c.representative.fixed_points(1)
        if c.kind is cl.ClassKind.SPLIT_INVOLUTION:
            assert len(rational_fixed) == 2
        else:
            assert len(rational_fixed) == 0
            assert len(c.representative.fixed_points(2)) == 2


def test_single_involution_class_even_q(F4):
    labels = cl.conjugacy_classes(F4)
    invs = [c for c in labels if c.order == 2]
    assert len(invs) == 1
    assert invs[0].kind is cl.ClassKind.UNIPOTENT


def test_class_of_membership(F3):
    labels = cl.conjugacy_classes(F3)
    for label in labels:
        for g in go.conjugates(go.full_pgl(F3), label.representative):
            assert cl.class_of(F3, g) == label


def _brute_force_classes(ctx):
    """Partition PGL(2,q) by explicit conjugation: the brute-force oracle.

    Kinds come from rational fixed points (2 split, 1 unipotent, 0
    nonsplit), independently of the eigenvalue classification."""
    G = go.full_pgl(ctx)
    assigned = set()
    labels = []
    for s in G.elements:
        if s in assigned:
            continue
        cls = go.conjugates(G, s)
        assigned.update(cls)
        order = s.order()
        rational = 0 if s.is_identity() else len(s.fixed_points(1))
        if s.is_identity():
            kind = cl.ClassKind.IDENTITY
        elif rational == 1:
            kind = cl.ClassKind.UNIPOTENT
        elif order == 2 and ctx.p != 2:
            kind = (cl.ClassKind.SPLIT_INVOLUTION if rational == 2
                    else cl.ClassKind.NONSPLIT_INVOLUTION)
        else:
            kind = cl.ClassKind.SPLIT if rational == 2 else cl.ClassKind.NONSPLIT
        labels.append(cl.ClassLabel(kind, order, s, len(cls), len(G) // len(cls)))
    labels.sort(key=lambda c: (c.size, c.representative.key()))
    return tuple(labels)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_classes_match_brute_force_partition(p, m):
    ctx = gf.field_create(p, m)
    assert cl.conjugacy_classes(ctx) == _brute_force_classes(ctx)


def _key_by_field_arithmetic(s):
    """The class key computed on field elements, apart from moebius.kappa."""
    a, b, c, d = s.entries()
    tr, det = a + d, a * d - b * c
    if s.is_identity():
        flag = True
    elif not tr and s.ctx.p != 2:
        flag = gf.is_square(-det)
    else:
        flag = False
    return (tr * tr / det).encode(), flag


def _classes_by_full_partition(ctx):
    """The former class partition: every element of PGL(2,q) grouped by its
    class key, sizes counted, each class represented by its least element."""
    G = go.full_pgl(ctx)
    reps, sizes = {}, {}
    for s in G.elements:
        k = _key_by_field_arithmetic(s)
        reps.setdefault(k, s)
        sizes[k] = sizes.get(k, 0) + 1
    by_key = {}
    for k, s in reps.items():
        kind, order = cl._kind_of(s, ctx.p != 2)
        by_key[k] = cl.ClassLabel(kind, order, s, sizes[k], len(G) // sizes[k])
    labels = sorted(by_key.values(), key=lambda c: (c.size, c.representative.key()))
    return tuple(labels), by_key


_PRIME_POWERS_TO_27 = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1),
                       (13, 1), (2, 4), (17, 1), (19, 1), (23, 1), (5, 2), (3, 3)]


@pytest.mark.parametrize("p,m", _PRIME_POWERS_TO_27)
def test_key_ordered_scan_matches_full_partition(p, m):
    ctx = gf.field_create(p, m)
    assert cl._classes_by_key(ctx) == _classes_by_full_partition(ctx)


def test_classes_never_build_the_group(monkeypatch):
    def boom(ctx):
        raise AssertionError("full_pgl called")

    monkeypatch.setattr(go, "full_pgl", boom)
    cl._classes_by_key.cache_clear()
    for p, m in [(3, 1), (2, 4), (13, 1)]:
        ctx = gf.field_create(p, m)
        labels = cl.conjugacy_classes(ctx)
        assert len(labels) == ctx.order + (2 if p != 2 else 1)
        s = mo.Moebius.from_ints(ctx, 1, 1, 0, 1)
        assert cl.class_of(ctx, s).kind is cl.ClassKind.UNIPOTENT
        assert cl.class_of_lambda(ctx, mo.INFINITY).kind is cl.ClassKind.IDENTITY
    assert len(go.a5_subgroup(gf.prime_field(11))) == 60


def test_beyond_the_group_order_cap_every_entry_raises_as_before():
    # PGL(2,41) has 68880 > MAX_GROUP_ORDER elements
    ctx = gf.prime_field(41)
    message = "PGL(2,41) has order 68880, beyond the enumeration cap"
    calls = [lambda: cl.conjugacy_classes(ctx),
             lambda: cl.class_of(ctx, mo.Moebius.from_ints(ctx, 1, 1, 0, 1)),
             lambda: cl.class_of_lambda(ctx, mo.ProjPoint(ctx.elem(3))),
             lambda: go.a5_subgroup(ctx)]
    start = time.perf_counter()
    for call in calls:
        with pytest.raises(SizeCapError) as err:
            call()
        assert str(err.value) == message
    assert time.perf_counter() - start < 1.0


def test_class_of_rejects_other_field(F3, F5):
    with pytest.raises(CtxMismatchError):
        cl.class_of(F5, mo.Moebius.identity(F3))
    with pytest.raises(CtxMismatchError):
        cl.class_of(F3, mo.parse_moebius(F5, "(x+1)/(x+2)"))


_FIELDS_UP_TO_17 = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                    (11, 1), (13, 1), (2, 4), (17, 1)]


def _moebius_from(ctx, entries):
    a, b, c, d = (ctx.decode(v % ctx.order) for v in entries)
    assume(a * d - b * c)
    return mo.Moebius(a, b, c, d)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(_FIELDS_UP_TO_17),
       st.lists(st.integers(min_value=0, max_value=16), min_size=4, max_size=4),
       st.lists(st.integers(min_value=0, max_value=16), min_size=4, max_size=4))
def test_class_of_is_a_conjugacy_invariant(field, s_entries, g_entries):
    ctx = gf.field_create(*field)
    s = _moebius_from(ctx, s_entries)
    g = _moebius_from(ctx, g_entries)
    label = cl.class_of(ctx, s)
    assert cl.class_of(ctx, g.compose(s).compose(g.inverse())) == label
    assert label.order == s.order()
    # rational fixed points: 2 split, 1 unipotent, 0 nonsplit
    rep = label.representative
    assert rep.is_identity() == s.is_identity()
    if not s.is_identity():
        assert len(rep.fixed_points(1)) == len(s.fixed_points(1))


@pytest.mark.parametrize("p,m", [(2, 4), (17, 1)])
def test_conjugacy_classes_time_budget(p, m):
    ctx = gf.field_create(p, m)
    cl._classes_by_key.cache_clear()
    limit_s = 10.0
    start = time.perf_counter()
    labels = cl.conjugacy_classes(ctx)
    elapsed = time.perf_counter() - start
    print(f"[conjugacy_classes q={ctx.order}] {elapsed:.2f}s / limit {limit_s:g}s")
    assert len(labels) == ctx.order + (2 if ctx.p != 2 else 1)
    assert elapsed < limit_s


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_canonical_generator_is_the_closed_form(p, m):
    # The full group's invariant generator is 2 minus Dickson's closed form,
    # computed apart from any orbit polynomial; class_of_lambda rests on it.
    ctx = gf.field_create(p, m)
    assert inv.invariant_generator(go.full_pgl(ctx)) == 2 - inv.pgl_generator(ctx, validate=False)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_class_of_lambda_matches_the_root_witness(p, m):
    # The paper's definition: the class of the element of PGL(2,q) sending a
    # root of f - lambda*g to its q-th power, found by factoring f - lambda*g.
    ctx = gf.field_create(p, m)
    G = go.full_pgl(ctx)
    two = ctx.elem(2)
    for v in ctx.elements():
        res = cl.class_of_lambda(ctx, mo.ProjPoint(v))
        if v != two:
            assert res == cl.class_of(ctx, sf.factor_f_lambda(G, v).witness)
        elif ctx.p != 2:
            assert isinstance(res, cl.AmbiguousInvolutions)
        else:
            assert isinstance(res, cl.ClassLabel) and res.order == 2


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2)])
def test_class_of_lambda_at_a_root_of_each_companion(p, m):
    # Beyond the factoring oracle's reach: the closed form evaluated at a
    # point of X_s outside F_q gives the invariant value of s's class.
    ctx = gf.field_create(p, m)
    q = ctx.order
    for label in cl.conjugacy_classes(ctx):
        if label.order <= 2:
            continue
        ext = gf.extension_of(ctx, label.order, cap=max(gf.size_cap(), q ** label.order))
        roots = upoly.roots_in(sf.frobenius_companion(label.representative), ext)
        alpha = next(z for z in roots if not gf.in_subfield(z, ctx))
        w = (alpha ** q - alpha) ** (q - 1)
        kappa = gf.down_cast((w + ext.one()) ** (q + 1) / w ** q, ctx)
        assert cl.class_of_lambda(ctx, mo.ProjPoint(ctx.elem(2) - kappa)) == label


def test_infinity_maps_to_identity(F3):
    label = cl.class_of_lambda(F3, mo.INFINITY)
    assert label.kind is cl.ClassKind.IDENTITY


def test_mu_is_ambiguous_for_odd_q(F3):
    mu = cl.quadratic_orbit_value(F3)
    res = cl.class_of_lambda(F3, mo.ProjPoint(mu))
    assert isinstance(res, cl.AmbiguousInvolutions)
    assert res.split_class.order == 2 and res.nonsplit_class.order == 2


def test_mu_unique_for_even_q(F4):
    mu = cl.quadratic_orbit_value(F4)
    res = cl.class_of_lambda(F4, mo.ProjPoint(mu))
    assert isinstance(res, cl.ClassLabel) and res.order == 2


def test_correspondence_bijection_q4(F4):
    labels = cl.conjugacy_classes(F4)
    hit = set()
    ident = cl.class_of_lambda(F4, mo.INFINITY)
    hit.add((ident.kind, ident.representative.key()))
    for v in F4.elements():
        res = cl.class_of_lambda(F4, mo.ProjPoint(v))
        assert isinstance(res, cl.ClassLabel)
        hit.add((res.kind, res.representative.key()))
    assert len(hit) == len(labels) == 5


def test_correspondence_regular_values_distinct_q3(F3):
    mu = cl.quadratic_orbit_value(F3)
    seen = set()
    for v in F3.elements():
        if v == mu:
            continue
        res = cl.class_of_lambda(F3, mo.ProjPoint(v))
        assert isinstance(res, cl.ClassLabel)
        assert res.order > 2
        seen.add((res.kind, res.order))
    # q - 1 = 2 regular values hit the order-3 and order-4 classes
    assert seen == {(cl.ClassKind.UNIPOTENT, 3), (cl.ClassKind.NONSPLIT, 4)}


# q = 4 is the paper-examples check "points of the rational line label the
# classes (q=4)", which makes the same comparisons
@pytest.mark.parametrize("p,m", [(2, 1), (3, 1)])
def test_factor_pattern_matches_oracle(p, m):
    ctx = gf.field_create(p, m)
    G = go.full_pgl(ctx)
    for v in ctx.elements():
        pattern = cl.factor_pattern_of_class(ctx, v)
        actual = sf.factor_f_lambda(G, v)
        assert actual.degree == pattern.degree
        assert actual.multiplicity == pattern.multiplicity
        assert len(actual.factors) == pattern.count
        assert actual.input.deg == pattern.degree * pattern.count * pattern.multiplicity


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (4, None)])
def test_lang_solve_everywhere(p, m):
    ctx = gf.field_create(2, 2) if p == 4 else gf.prime_field(p)
    q = ctx.order
    for s in go.full_pgl(ctx):
        sol = cl.lang_solve(s)
        assert sol.finite_count in (q, q + 1)
        assert len(sol.solution_points) == q + 1
        # defining equation and X_s = t^(-1)(P^1(F_q)), re-checked here
        ext = sol.ext
        sig = mo.Moebius(*(e ** q for e in sol.t.entries()))
        assert sig.inverse().compose(sol.t) == s.lift_to(ext)
        t_inv = sol.t.inverse()
        image = {t_inv.apply(mo.ProjPoint(gf.embed(v, ext))) for v in ctx.elements()}
        image.add(t_inv.apply(mo.INFINITY))
        assert image == set(sol.solution_points)


def test_lang_identity(F3):
    sol = cl.lang_solve(mo.Moebius.identity(F3))
    assert sol.finite_count == 3
    assert sol.ext is F3


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_lang_identity_solution_is_identity(p, m):
    ctx = gf.field_create(p, m)
    assert cl.lang_solve(mo.Moebius.identity(ctx)).t.is_identity()


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.sampled_from([(5, 1), (7, 1), (2, 3), (3, 2)]),
       st.lists(st.integers(min_value=0, max_value=16), min_size=4, max_size=4))
def test_lang_solution_sends_first_points_to_inf_0_1(field, s_entries):
    ctx = gf.field_create(*field)
    s = _moebius_from(ctx, s_entries)
    sol = cl.lang_solve(s)
    ext = sol.ext
    images = [sol.t.apply(z) for z in sol.solution_points[:3]]
    assert images == [mo.INFINITY, mo.ProjPoint(ext.zero()), mo.ProjPoint(ext.one())]
    sig = mo.Moebius(*(e ** ctx.order for e in sol.t.entries()))
    assert sig.inverse().compose(sol.t) == s.lift_to(ext)


def test_lang_solution_points_are_solutions(F3):
    s = next(t for t in go.full_pgl(F3) if t.order() == 4)
    sol = cl.lang_solve(s)
    q = F3.order
    s_ext = s.lift_to(sol.ext)
    for z in sol.solution_points:
        lhs = s_ext.apply(z)
        rhs = mo.frobenius_point(z) if z.value is not None else mo.INFINITY
        assert lhs == rhs


def test_lang_solve_over_a_tower_ground(F4):
    # over the tower F_4 -> F_16, F_{q^r} for r = 5 is a three-step tower
    F16 = gf.extension_of(F4, 2)
    s = next(t for t in go.full_pgl(F16) if t.order() == 5)
    sol = cl.lang_solve(s)
    assert sol.ext == gf.extension_of(F16, 5) and sol.ext.base == F16
    sig = mo.Moebius(*(e ** 16 for e in sol.t.entries()))
    assert sig.inverse().compose(sol.t) == s.lift_to(sol.ext)
    assert len(sol.solution_points) == 17


def test_lang_beyond_former_size_cap(F7):
    # 7^8 exceeds the default field-size cap; no F_{q^r} scan is made
    s = mo.parse_moebius(F7, "(3x-1)/(x+3)")
    sol = cl.lang_solve(s)
    q = F7.order
    assert sol.ext.order == q ** 8
    sig = mo.Moebius(*(e ** q for e in sol.t.entries()))
    assert sig.inverse().compose(sol.t) == s.lift_to(sol.ext)
    assert len(sol.solution_points) == q + 1


def _lang_solve_by_roots(s):
    """The former lang_solve: X_s as the roots of the companion over F_{q^r}
    (with infinity when c = 0), then t from its first three points."""
    ctx = s.ctx
    q = ctx.order
    r = s.order()
    ext = gf.extension_of(ctx, r, cap=max(gf.size_cap(), q ** r))
    finite = upoly.roots_in(sf.frobenius_companion(s), ext)
    points = [mo.ProjPoint(v) for v in finite]
    if not s.c:
        points.append(mo.INFINITY)
    points.sort(key=lambda z: z.key())
    z0, z1, z2 = (z.value for z in points[:3])
    if z0 is None:
        t = mo.Moebius(ext.one(), -z1, ext.zero(), z2 - z1)
    else:
        u, v = z2 - z0, z2 - z1
        t = mo.Moebius(u, -u * z1, v, -v * z0)
    return cl.LangSolution(s, t, ext, tuple(points), len(finite))


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_lang_solve_matches_root_finding_everywhere(p, m):
    for s in go.full_pgl(gf.field_create(p, m)):
        assert cl.lang_solve(s) == _lang_solve_by_roots(s)


@pytest.mark.parametrize("p,m", [(7, 1), (2, 3), (3, 2)])
def test_lang_solve_matches_root_finding_on_class_representatives(p, m):
    ctx = gf.field_create(p, m)
    reps = [label.representative for label in cl.conjugacy_classes(ctx)]
    for s in reps + [mo.Moebius.identity(ctx)]:
        assert cl.lang_solve(s) == _lang_solve_by_roots(s)


def test_lang_solve_needs_no_root_finding(monkeypatch, F4, F7):
    elements = list(go.full_pgl(F4)) + [mo.parse_moebius(F7, "(3x-1)/(x+3)")]
    for s in elements:  # choosing each modulus tests irreducibility
        gf.extension_of(s.ctx, s.order(), cap=max(gf.size_cap(), s.ctx.order ** s.order()))

    def forbidden(*args, **kwargs):
        raise AssertionError("the Speiser construction needs no polynomial root finding")

    for name in ("roots_in", "powmod", "gcd", "factorize"):
        monkeypatch.setattr(upoly, name, forbidden)
    for s in elements:
        sol = cl.lang_solve(s)
        assert len(sol.solution_points) == s.ctx.order + 1


def test_lang_solve_unipotent_at_31():
    # over F_{31^31}; the former root-finding path did not finish within 120 s
    s = mo.parse_moebius(gf.prime_field(31), "(x+0)/(x+1)")
    start = time.perf_counter()
    sol = cl.lang_solve(s)
    assert time.perf_counter() - start < 5
    assert sol.ext.order == 31 ** 31
    assert len(set(sol.solution_points)) == len(sol.solution_points) == 32
