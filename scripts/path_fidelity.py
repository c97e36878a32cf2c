"""Fidelity and cost of the traced level-curve arcs: fixed step against the
scale-relative step of plane.trace_level_curve.

For each of the 12 edge cells of the benchmark grid (cell centres; u = 20,
order 3) it prints, for the fixed step of 0.01 (the reference tracer kept in
tests/test_plane.py) and for the scale-relative step of
plane.trace_level_curve (0.01 * max(1, |z|), held to plane.CHORD_TOL at
chord midpoints):

  * the vertex count of the arc that the cell's paths trace (from z in the
    left half plane, from -z, by the mirror, in the right half);
  * the largest |Re xi_bar - c0| at the chord midpoints of that arc;
  * the time to trace it (best of 3);

and the largest relative shift of rel_bound of U+, U+' and UR (R = 0,
pair (0,2)) at the cell between the two tracers.  Right-half-plane U+ and
U+' paths are straight rays, so their shift reads 0.

The reference tracer is swapped in for this process only; the library is
not changed.

Run:  python scripts/path_fidelity.py
"""

import sys
import time
from pathlib import Path

from parcyl import inhom, lg, plane

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from test_plane import trace_fixed_step  # noqa: E402

EDGE_LEFT = ((-2.5, -2.5), (-2.5, 2.5), (-2.5, -1.5), (-2.5, 1.5),
             (-1.5, -1.5), (-1.5, 1.5))
EDGE_CELLS = tuple(complex(c, y) for x, y in EDGE_LEFT for c in (x, -x))
FAMILIES = {
    "U+": lambda z: lg.pcf_U_pos(20.0, z, 3, "+z"),
    "U+'": lambda z: lg.pcf_Uprime_pos(20.0, z, 3, "+z"),
    "UR": lambda z: inhom.inhom_series(20.0, z, 3, 0, "plus", (0, 2)),
}
TRACERS = (("fixed", trace_fixed_step), ("scaled", plane.trace_level_curve))


def arc_figures(z: complex, tracer) -> tuple[int, float, float]:
    start = z if z.real < 0 else -z
    direction = plane._arc_direction(start)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        verts = tracer(start, "PCF+", "re", direction=direction).vertices
        best = min(best, time.perf_counter() - t0)
    c0 = plane.xi_bar(start).real
    dev = max(abs(plane.xi_bar(0.5 * (a + b)).real - c0)
              for a, b in zip(verts[:-1], verts[1:]))
    return len(verts), dev, best


def bounds(z: complex, tracer) -> dict:
    library = plane.trace_level_curve
    plane.trace_level_curve = tracer
    try:
        return {name: f(z).rel_bound for name, f in FAMILIES.items()}
    finally:
        plane.trace_level_curve = library


def main():
    print(f"{'':>10} {'vertices':>13} {'chord-midpoint dev':>21} "
          f"{'trace ms':>15} {'rel_bound':>11}")
    print(f"{'cell':>10} {'fixed':>6} {'scaled':>6} {'fixed':>10} {'scaled':>10} "
          f"{'fixed':>7} {'scaled':>7} {'shift':>11}")
    for z in EDGE_CELLS:
        (nf, df, tf), (ns, ds, ts) = (arc_figures(z, tr) for _, tr in TRACERS)
        ref, new = (bounds(z, tr) for _, tr in TRACERS)
        shift = max(abs(new[k] - ref[k]) / ref[k] for k in FAMILIES)
        cell = f"{z.real:+.1f}{z.imag:+.1f}i"
        print(f"{cell:>10} {nf:>6} {ns:>6} {df:>10.2e} {ds:>10.2e} "
              f"{1e3 * tf:>7.1f} {1e3 * ts:>7.1f} {shift:>11.2e}")


if __name__ == "__main__":
    main()
