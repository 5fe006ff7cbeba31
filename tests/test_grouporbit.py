import pytest

from orbitfactor import gf, grouporbit as go, moebius as mo
from orbitfactor.errors import InvariantViolation, NotInGroupError, SizeCapError


def test_generate_trivial(F7):
    G = go.generate(F7, [])
    assert len(G) == 1 and mo.Moebius.identity(F7) in G


def test_generate_elementary_abelian(F5):
    G = go.generate(F5, [mo.parse_moebius(F5, "-x"), mo.parse_moebius(F5, "(1)/(x)")])
    assert len(G) == 4
    assert not G.is_cyclic()
    assert all(s.order() in (1, 2) for s in G)


def test_generate_cyclic_eight(F7):
    G = go.generate(F7, [mo.parse_moebius(F7, "(3x-1)/(x+3)")])
    assert len(G) == 8 and G.is_cyclic()


@pytest.mark.parametrize("p,m,order", [(2, 1, 6), (3, 1, 24), (5, 1, 120), (2, 2, 60)])
def test_full_pgl_order(p, m, order):
    ctx = gf.field_create(p, m)
    assert len(go.full_pgl(ctx)) == order


def test_full_pgl_closed(F3):
    G = go.full_pgl(F3)
    elems = set(G.elements)
    for s in list(G)[:8]:
        assert s.inverse() in elems
        for t in list(G)[:8]:
            assert s.compose(t) in elems


def test_orbit_decomposition_triply_transitive(F5):
    G = go.full_pgl(F5)
    report = go.orbit_decomposition(G, 1)
    assert len(report.orbits) == 1
    assert report.orbits[0].size == 6
    assert len(report.orbits[0].stabilizer) == 20  # q(q-1)


def test_orbit_decomposition_quadratic_layer(F3):
    G = go.full_pgl(F3)
    report = go.orbit_decomposition(G, 2)
    stats = sorted((o.size, len(o.stabilizer), o.regular) for o in report.orbits)
    assert stats == [(4, 6, False), (6, 4, False)]


def test_orbit_stabilizer_identity_everywhere(F7):
    s = mo.parse_moebius(F7, "(3x-1)/(x+3)")
    G = go.generate(F7, [s.power(2)])  # cyclic of order 4
    for k in (1, 2):
        report = go.orbit_decomposition(G, k)
        for orbit in report.orbits:
            assert orbit.size * len(orbit.stabilizer) == len(G)


def test_cyclic_dividing_q_plus_one_acts_regularly(F7):
    s = mo.parse_moebius(F7, "(3x-1)/(x+3)")
    G4 = go.generate(F7, [s.power(2)])
    report = go.orbit_decomposition(G4, 1)
    assert [o.size for o in report.orbits] == [4, 4]
    assert all(o.regular for o in report.orbits)
    census = go.nonregular_census(G4)
    assert census == [(1, 4), (1, 4)]


def test_nonregular_orbits_over_a_tower_ground(F4):
    # the fixed points of s over F_16 = F_4[y]/(h) lie in F_{16^2}, a three-step tower
    F16 = gf.extension_of(F4, 2)
    F256 = gf.extension_of(F16, 2)
    s = next(t for t in go.full_pgl(F16) if t.order() == 5)
    fixed = s.fixed_points(2)
    assert len(fixed) == 2
    assert all(z.value.ctx == F256 and s.lift_to(F256).apply(z) == z for z in fixed)
    orbits = go.nonregular_orbits(go.Subgroup(F16, s.powers()))
    assert [o.points for o in orbits] == [(z,) for z in fixed]
    assert all(len(o.stabilizer) == 5 for o in orbits)


def test_census_p_group(F7):
    G = go.generate(F7, [mo.parse_moebius(F7, "x+1")])
    assert go.nonregular_census(G) == [(1, 7)]


def test_census_elementary_abelian(F5):
    G = go.generate(F5, [mo.parse_moebius(F5, "-x"), mo.parse_moebius(F5, "(1)/(x)")])
    assert go.nonregular_census(G) == [(2, 2), (2, 2), (2, 2)]


def test_census_pgl4_and_audit(F4):
    G = go.full_pgl(F4)
    census = go.nonregular_census(G)
    assert census == [(5, 12), (12, 5)]
    audit = go.riemann_hurwitz_audit(G)
    assert audit.passed
    assert audit.sum_differents == 118 == audit.target


def test_census_icosahedral_in_pgl11():
    ctx = gf.prime_field(11)
    G = go.a5_subgroup(ctx)
    assert len(G) == 60
    census = go.nonregular_census(G)
    assert census == [(12, 5), (20, 3), (30, 2)]
    audit = go.riemann_hurwitz_audit(G)
    assert audit.passed and audit.tame_sum == 118 == audit.target


def _a5_by_full_scan(ctx):
    """The former search: elements of order 5 and 2 picked from the whole
    group by Moebius.order, then the first icosahedral pair in key order."""
    G = go.full_pgl(ctx)
    fives = [s for s in G if s.order() == 5]
    involutions = [s for s in G if s.order() == 2]
    for a in fives:
        for b in involutions:
            if a.compose(b).order() == 3:
                H = go.generate(ctx, [a, b])
                if len(H) == 60:
                    return H
    raise AssertionError("no icosahedral subgroup")


@pytest.mark.parametrize("p,m", [(11, 1), (2, 4), (19, 1), (29, 1)])
def test_a5_subgroup_matches_full_scan(p, m):
    ctx = gf.field_create(p, m)
    assert go.a5_subgroup(ctx) == _a5_by_full_scan(ctx)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (11, 1)])
def test_pgl_keys_are_the_sorted_group(p, m):
    ctx = gf.field_create(p, m)
    keys = list(go.pgl_keys(ctx))
    assert keys == sorted(set(keys))
    assert keys == [s.key() for s in go.full_pgl(ctx)]
    assert len(keys) == ctx.order ** 3 - ctx.order


def test_audit_trivial_group(F7):
    G = go.generate(F7, [])
    audit = go.riemann_hurwitz_audit(G)
    assert audit.passed and audit.sum_differents == 0 and audit.target == 0


@pytest.mark.parametrize("p,m", [(3, 1), (2, 2), (5, 1), (7, 1)])
def test_census_bounds_all_cyclic(p, m):
    ctx = gf.field_create(p, m)
    G = go.full_pgl(ctx)
    seen = set()
    for s in G:
        if s.is_identity():
            continue
        H = go.generate(ctx, [s])
        if H in seen:
            continue
        seen.add(H)
        census = go.nonregular_census(H)
        assert len(census) <= 3
        if len(H) % ctx.p == 0:
            assert len(census) <= 2
            assert (len(census) == 1) == (len(H) == ctx.p)
        audit = go.riemann_hurwitz_audit(H)
        assert audit.passed, (s, census)


def test_centralizer_identity_is_group(F5):
    G = go.full_pgl(F5)
    assert go.centralizer(G, mo.Moebius.identity(F5)) == G


def test_centralizer_orders(F5):
    G = go.full_pgl(F5)
    s6 = next(s for s in G if s.order() == 6)
    C = go.centralizer(G, s6)
    assert len(C) == 6 and C.is_cyclic()
    u = mo.parse_moebius(F5, "x+1")
    assert len(go.centralizer(G, u)) == 5


def test_centralizer_requires_membership(F5):
    G = go.generate(F5, [mo.parse_moebius(F5, "x+1")])
    with pytest.raises(NotInGroupError):
        go.centralizer(G, mo.parse_moebius(F5, "2x"))


def test_conjugates_class_size(F3):
    G = go.full_pgl(F3)
    u = mo.parse_moebius(F3, "x+1")
    cls = go.conjugates(G, u)
    assert len(cls) == 8  # unipotent class of PGL(2,3)
    for t in cls:
        assert t.order() == 3


def test_enumeration_cap():
    ctx = gf.field_create(2, 7)
    with pytest.raises(SizeCapError):
        go.full_pgl(ctx)


def _nonregular_by_every_element(G):
    """The former search: the fixed points of every non-identity element,
    each solved on its own, decomposed into orbits."""
    ext = gf.extension_of(G.ctx, 2)
    candidates = set()
    for s in G:
        if not s.is_identity():
            candidates.update(s.fixed_encodings(ext))
    return tuple(go._orbits(G, sorted(candidates), ext)), candidates


def _generated(ctx, *gens):
    return go.generate(ctx, [mo.parse_moebius(ctx, g) for g in gens])


NONREGULAR_GROUPS = {
    **{f"PGL(2,{p ** m})": lambda p=p, m=m: go.full_pgl(gf.field_create(p, m))
       for p, m in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]},
    **{f"A5<PGL(2,{p})": lambda p=p: go.a5_subgroup(gf.prime_field(p)) for p in (11, 19)},
    "D10<PGL(2,11)": lambda: _generated(gf.prime_field(11), "3x", "(-1)/(x)"),
    "<x+1> in PGL(2,9)": lambda: _generated(gf.field_create(3, 2), "x+1"),
}


@pytest.mark.parametrize("name", list(NONREGULAR_GROUPS))
def test_nonregular_orbits_match_the_per_element_search(name):
    G = NONREGULAR_GROUPS[name]()
    orbits = go.nonregular_orbits(G)
    want, candidates = _nonregular_by_every_element(G)
    assert orbits == want
    assert {-1 if z.value is None else z.value.rep
            for o in orbits for z in o.points} == candidates
    if name.startswith("D10"):
        assert [(o.size, len(o.stabilizer)) for o in orbits] == [(2, 5), (5, 2), (5, 2)]
    if name.startswith("<x+1>"):
        assert [(o.size, len(o.stabilizer)) for o in orbits] == [(1, 3)]


def test_nonregular_orbits_check_every_element(monkeypatch, F7):
    # the points solved for a fixed-point equation are checked against every
    # other element with that equation: a wrong point, returned for the
    # first element with the equation (T^2 - 1 for 1/x), is caught
    G = go.full_pgl(F7)
    ext = gf.extension_of(F7, 2)
    target = mo.fixed_point_equation(F7, (0, 1, 1, 0))
    sharing = [s for s in G if not s.is_identity()
               and mo.fixed_point_equation(F7, s.key()) == target]
    assert len(sharing) > 1
    solve, calls = mo.Moebius.fixed_encodings, []

    def wrong_for_target(s, field):
        points = solve(s, field)
        if mo.fixed_point_equation(F7, s.key()) != target:
            return points
        calls.append(s)
        return points[:-1] + (next(x for x in range(ext.order) if x not in points),)

    monkeypatch.setattr(mo.Moebius, "fixed_encodings", wrong_for_target)
    with pytest.raises(InvariantViolation, match="moves the fixed point"):
        go.nonregular_orbits(G)
    assert calls == sharing[:1]


@pytest.mark.parametrize("p,m,sets", [(5, 1, 31), (3, 2, 91), (2, 3, 73)])
def test_nonregular_orbits_solve_each_fixed_point_set_once(monkeypatch, p, m, sets):
    ctx = gf.field_create(p, m)
    G = go.full_pgl(ctx)
    ext = gf.extension_of(ctx, 2)
    distinct = {s.fixed_encodings(ext) for s in G if not s.is_identity()}
    assert len(distinct) == sets
    solve, calls = mo.Moebius.fixed_encodings, []

    def counted(s, field):
        calls.append(s)
        return solve(s, field)

    monkeypatch.setattr(mo.Moebius, "fixed_encodings", counted)
    go.nonregular_orbits(G)
    assert len(calls) == sets
