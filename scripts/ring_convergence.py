"""Convergence of the trapezoidal rings in the node count CAUCHY_NODES.

For each node count N it prints

  * the acceptance criterion-4 figure: max |direct - cauchy| over the 16
    annulus points at u = 300, m = 3 (PCF-);
  * the largest relative change of the Scorer contour integral
    (inhom._scorer_contour) against N = 512, over points at several
    distances from z = 1 (hence several ring radii), u in {10, 300},
    m = 3, both variants;
  * the time to build one ring geometry and to assemble one Cauchy ring.

The node count is set, and the geometry cache cleared, in this process
only; the library constant is not changed.

Run:  python scripts/ring_convergence.py
"""

import cmath
import math
import time

import numpy as np

from parcyl import inhom, tp

NODE_COUNTS = (32, 64, 128, 256, 512)


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


def scorer_values() -> dict:
    out = {}
    for variant in ("PCF-", "WEB+"):
        for u in (10.0, 300.0):
            for d in (0.0, 0.15, 0.4, 0.75, 1.1):
                for th in (0.3, 1.9):
                    z = 1.0 + d * cmath.exp(1j * th)
                    out[variant, u, z] = inhom._scorer_contour(u, z, 3, variant)
    return out


def timings() -> tuple[float, float]:
    t0 = time.perf_counter()
    tp._ring_geometry("PCF-", 0.75)
    build = time.perf_counter() - t0
    reps = []
    for k in range(20):
        t0 = time.perf_counter()
        tp._cauchy_ring(20.0 + k, 3, "PCF-")
        reps.append(time.perf_counter() - t0)
    return build, float(np.median(reps))


def main():
    rows = {}
    for n in NODE_COUNTS:
        tp.CAUCHY_NODES = n
        tp._ring_geometry.cache_clear()
        rows[n] = (criterion_4(), scorer_values(), *timings())
    ref = rows[NODE_COUNTS[-1]][1]
    print(f"{'N':>5} {'crit4 |direct-cauchy|':>22} {'scorer rel change':>18} "
          f"{'build ms':>9} {'ring ms':>8}")
    for n, (c4, sc, build, ring) in rows.items():
        change = max(abs(sc[k] - ref[k]) / abs(ref[k]) for k in ref)
        print(f"{n:>5} {c4:>22.3e} {change:>18.3e} {1e3 * build:>9.2f} "
              f"{1e3 * ring:>8.3f}")


if __name__ == "__main__":
    main()
