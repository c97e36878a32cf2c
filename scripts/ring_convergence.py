"""Convergence of the one Cauchy ring about z = 1 in its node count and its
radius.

The ring (tp.RING_RADIUS, tp.CAUCHY_NODES) carries the coefficient
functions A, B near z = 1 and the Scorer contour integral.  The script
prints two tables.

  * The N curve, at the library radius: for each node count N, the
    acceptance criterion-4 figure (max |direct - cauchy| over the 16 annulus
    points at u = 300, m = 3, PCF-); the largest relative change of A, B
    and of the Scorer contour against N = 512 at u = 5, 10 and 300 (order
    4, both variants, points across the Cauchy zone |z-1| < 0.2 and the
    Scorer zone |z-1| <= 1.15); the time to build one ring geometry and to
    assemble A, B at one new u.
  * The radius table: for R in RADII at the library node count, the
    largest relative error against a reference of 4096 nodes on the ring
    of radius 1.0 (A, B) and 1.3 (Scorer).

The node count and radius are set, and the geometry cache cleared, in this
process only; the library constants are not changed.

Run:  python scripts/ring_convergence.py
"""

import cmath
import math
import time

import numpy as np

from parcyl import inhom, tp

NODE_COUNTS = (32, 64, 128, 256, 512)
RADII = (1.3, 1.4, 1.5)
US = (5.0, 10.0, 300.0)
ORDER = 4
VARIANTS = ("PCF-", "WEB+")
AB_POINTS = [1 + d * cmath.exp(1j * th) for d in (0.0, 0.1, 0.19)
             for th in (0.3, 1.9)]
SCORER_POINTS = [1 + d * cmath.exp(1j * th) for d in (0.0, 0.4, 0.75, 1.15)
                 for th in (0.3, 1.9)]


def use_ring(radius: float, nodes: int) -> None:
    tp.RING_RADIUS, tp.CAUCHY_NODES = radius, nodes
    tp._ring_geometry.cache_clear()


def criterion_4() -> float:
    u, m = 300.0, 3
    ths = np.linspace(0.2, 2 * math.pi - 0.2, 6)
    pts = [1 + r * cmath.exp(1j * th) for r in (0.16, 0.25, 0.34) for th in ths][:16]
    worst = 0.0
    for z in pts:
        zz = z if z.imag >= 0 else z.conjugate()
        d = tp._ab_direct(u, zz, m, "PCF-")
        if z.imag < 0:
            d = (d[0].conjugate(), d[1].conjugate())
        c = tp._ab_cauchy(u, z, m, "PCF-")
        worst = max(worst, abs(d[0] - c[0]), abs(d[1] - c[1]))
    return worst


def ab_values() -> dict:
    return {(v, u, z): tp._ab_cauchy(u, z, ORDER, v)
            for v in VARIANTS for u in US for z in AB_POINTS}


def scorer_values() -> dict:
    return {(v, u, z): (inhom._scorer_contour(u, z, ORDER, v),)
            for v in VARIANTS for u in US for z in SCORER_POINTS}


def worst_by_u(got: dict, ref: dict) -> list[float]:
    """The largest relative difference at each u of US."""
    return [max(abs(a - b) / abs(b) for k in ref if k[1] == u
                for a, b in zip(got[k], ref[k])) for u in US]


def timings() -> tuple[float, float]:
    tp._ring_geometry.cache_clear()
    t0 = time.perf_counter()
    tp._ring_geometry("PCF-")
    build = time.perf_counter() - t0
    reps = []
    for k in range(20):
        t0 = time.perf_counter()
        tp._ab_cauchy(20.0 + k, 1.05 + 0.05j, 3, "PCF-")
        reps.append(time.perf_counter() - t0)
    return build, float(np.median(reps))


def fmt(row: list[float]) -> str:
    return " ".join(f"{x:>9.1e}" for x in row)


def main():
    radius, nodes = tp.RING_RADIUS, tp.CAUCHY_NODES
    us = " ".join(f"{'u=' + format(u, 'g'):>9}" for u in US)

    rows = {}
    for n in NODE_COUNTS:
        use_ring(radius, n)
        rows[n] = (criterion_4(), ab_values(), scorer_values(), *timings())
    ref_ab, ref_sc = rows[NODE_COUNTS[-1]][1:3]
    print(f"N curve, ring radius {radius}; A, B and Scorer: relative change "
          f"against N = {NODE_COUNTS[-1]}, order {ORDER}")
    print(f"{'N':>5} {'crit4':>9} | A, B {us} | Scorer {us} | "
          f"{'build ms':>8} {'ab ms':>6}")
    for n, (c4, ab, sc, build, assembly) in rows.items():
        print(f"{n:>5} {c4:>9.2e} |      {fmt(worst_by_u(ab, ref_ab))} |"
              f"        {fmt(worst_by_u(sc, ref_sc))} | "
              f"{1e3 * build:>8.2f} {1e3 * assembly:>6.3f}")

    use_ring(1.0, 4096)
    ref_ab = ab_values()
    use_ring(1.3, 4096)
    ref_sc = scorer_values()
    print(f"\nradius, N = {nodes}: relative error against N = 4096 on radius "
          f"1.0 (A, B) and 1.3 (Scorer), order {ORDER}")
    print(f"{'R':>5} | A, B {us} | Scorer {us}")
    for r in RADII:
        use_ring(r, nodes)
        print(f"{r:>5} |      {fmt(worst_by_u(ab_values(), ref_ab))} |"
              f"        {fmt(worst_by_u(scorer_values(), ref_sc))}")
    use_ring(radius, nodes)


if __name__ == "__main__":
    main()
