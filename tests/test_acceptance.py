"""Acceptance criteria, one test per criterion.

Criteria 1-6 and 8-10 are the worked examples: each runs its check from
the `verify` "paper-examples" suite, the one place those examples are
checked, so `orbitfactor verify --suite paper-examples` makes the same
assertions.  Criterion 7 sweeps the structured factorization against the
oracle.  Each test prints a single PASS/FAIL line with its runtime (use -s
to see them); every expectation is exact.
"""

import time

from orbitfactor import gf, grouporbit as go, structfactor as sf, upoly, verify

# registry check name -> (criterion number, time budget in seconds)
CRITERIA = {
    "degree-20 factorization over GF(19) gives five quartics": (1, 1.0),
    "order-3 subgroup of PGL(2,17): orbit polynomial and factors": (2, 1.0),
    "order-8 subgroup of PGL(2,7): counts follow Euler phi": (3, 1.0),
    "PGL(2,3): specializations of the full invariant": (4, 5.0),
    "ramification audit for the icosahedral groups": (5, 30.0),
    "class counts and the involution dichotomy": (6, 60.0),
    "points of the rational line label the classes (q=4)": (8, 30.0),
    "Lang equation solved across PGL(2,q), q in {2,3}": (9, 60.0),
    "degree-3 elements give all cubics at once": (10, 10.0),
}
_CHECKS = {name: fn for name, _, fn in verify._REGISTRY["paper-examples"]}


class _Criterion:
    def __init__(self, number: int, description: str, limit_s: float):
        self.number = number
        self.description = description
        self.limit_s = limit_s
        self.start = None

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[criterion {self.number}] {status} ({elapsed:.2f}s / "
              f"limit {self.limit_s:g}s): {self.description}")
        if exc_type is None:
            assert elapsed < self.limit_s, (
                f"criterion {self.number} exceeded its {self.limit_s}s budget")
        return False


def _run_check(number: int) -> None:
    name, budget = next((name, budget) for name, (n, budget) in CRITERIA.items()
                        if n == number)
    with _Criterion(number, name, budget):
        _CHECKS[name]()


def test_every_criterion_names_a_registered_check():
    assert set(CRITERIA) <= set(_CHECKS)
    assert sorted(n for n, _ in CRITERIA.values()) == [1, 2, 3, 4, 5, 6, 8, 9, 10]


# one named test per criterion, so each criterion keeps its own test id
def test_criterion_1_headline_quartics():
    _run_check(1)


def test_criterion_2_order_three_over_gf17():
    _run_check(2)


def test_criterion_3_lambda_counts_gf7():
    _run_check(3)


def test_criterion_4_pgl3_specializations():
    _run_check(4)


def test_criterion_5_ramification_audits():
    _run_check(5)


def test_criterion_6_class_counts():
    _run_check(6)


def test_criterion_7_oracle_equivalence():
    with _Criterion(7, "structured factorization equals the oracle", 300.0):
        for p, m in ((5, 1), (7, 1), (3, 2), (11, 1), (13, 1)):
            ctx = gf.field_create(p, m)
            q = ctx.order
            checked = 0
            for s in go.full_pgl(ctx):
                r = s.order()
                if r <= 2 or (q + 1) % r:
                    continue
                res = sf.factor_by_orbit(s)
                oracle = upoly.factorize(res.input)
                assert res.as_multiset() == oracle.as_multiset()
                assert res.unit == oracle.unit
                checked += 1
            assert checked > 0


def test_criterion_8_correspondence_q4():
    _run_check(8)


def test_criterion_9_lang_solver():
    _run_check(9)


def test_criterion_10_all_cubics():
    _run_check(10)
