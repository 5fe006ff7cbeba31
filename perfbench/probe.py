"""Kernel probe for the gf and upoly layers, on seeded operands.

Element mul and inverse in each field kind (prime field, table-backed
extension, generic tower), and Poly mul, divmod and powmod at degree 200 over
F_13.  These move with a field-core rewrite before any end-to-end number
does.  Each figure is the median of several timed batches.
"""

from __future__ import annotations

import random
import statistics
import time

from orbitfactor import gf, structfactor as sf, upoly

from workloads import draw_elements

REPEATS = 5
POLY_DEGREE = 200
TOWER_PRIME = 31          # the tower is F_{31^32}, the root field of a nonsplit r = 32 op


def _median_time(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def tower_field(rng: random.Random) -> gf.FieldCtx:
    """F_{q^(q+1)} for q = TOWER_PRIME, built the way factor_by_orbit builds
    the root field of a nonsplit element of order q+1."""
    ctx = gf.prime_field(TOWER_PRIME)
    q = ctx.order
    s = draw_elements(ctx, {("nonsplit", q + 1): 1}, rng)[("nonsplit", q + 1)][0]
    h = upoly.least_degree_factor(sf.frobenius_companion(s).monic())
    return gf.extend(ctx, h, cap=q ** h.deg)


def _elements(ctx: gf.FieldCtx, n: int, rng: random.Random) -> list:
    out = []
    while len(out) < n:
        if ctx.base is None:
            x = ctx.decode(rng.randrange(ctx.order))
        else:
            x = ctx.from_coeffs([rng.randrange(ctx.base.order) for _ in range(ctx.degree)])
        if x:
            out.append(x)
    return out


def field_probe(rng: random.Random) -> dict:
    """Microseconds per element mul and per inverse in each field kind."""
    fields = {
        "prime": (gf.prime_field(13), 20000, 20000),
        "table": (gf.field_create(13, 2), 20000, 5000),
        "tower": (tower_field(rng), 500, 20),
    }
    out = {}
    for kind, (ctx, n_mul, n_inv) in fields.items():
        ctx.tables()  # build lazy tables before timing
        xs = _elements(ctx, 64, rng)
        pairs = [(xs[i % 64], xs[(7 * i + 3) % 64]) for i in range(n_mul)]
        singles = [xs[i % 64] for i in range(n_inv)]

        def mul():
            for a, b in pairs:
                a * b

        def inverse():
            for a in singles:
                a.inverse()

        out[f"gf.mul_us.{kind}"] = _median_time(mul) / n_mul * 1e6
        out[f"gf.inv_us.{kind}"] = _median_time(inverse) / n_inv * 1e6
    return out


def poly_probe(rng: random.Random) -> dict:
    """Milliseconds per Poly mul, divmod and powmod at degree 200 over F_13."""
    ctx = gf.prime_field(13)

    def poly(deg: int) -> upoly.Poly:
        return upoly.Poly(ctx, [ctx.decode(rng.randrange(13)) for _ in range(deg)]
                          + [ctx.one()])

    f, g, h = poly(POLY_DEGREE), poly(POLY_DEGREE), poly(2 * POLY_DEGREE)
    return {
        "upoly.mul_ms": _median_time(lambda: f * g) * 1e3,
        "upoly.divmod_ms": _median_time(lambda: divmod(h, f)) * 1e3,
        "upoly.powmod_ms": _median_time(lambda: upoly.powmod(g, ctx.order, f), 3) * 1e3,
    }


def run(seed: int) -> dict:
    rng = random.Random(f"probe/{seed}")
    return {**field_probe(rng), **poly_probe(rng)}


if __name__ == "__main__":
    for name, value in run(0).items():
        print(f"{name} {value:.4f}")
