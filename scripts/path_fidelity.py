"""Fidelity and cost of the traced level-curve arcs: a fixed step against
the level solver of plane.trace_level_curve.

For each of the 12 edge cells of the benchmark grid (cell centres; u = 20,
order 3) it prints, for the fixed RK4 step of 0.01 (the reference tracer
kept in tests/test_plane.py) and for plane.trace_level_curve (each vertex
solved on the level by Newton, spaced so that every chord midpoint holds
the level to plane.CHORD_TOL):

  * the vertex count of the arc that the cell's paths trace (from z in the
    left half plane, from -z, by the mirror, in the right half), and the
    count of the scale-relative RK4 step (0.01 max(1, |z|)) that the level
    solver replaced;
  * the largest |Re xi_bar - c0| at the chord midpoints of that arc;
  * the time to trace it (best of 3);
  * the time of the omega/varpi bound integrals (order 4, the Ebar family)
    along the cell's fig. 2 path, a ray from the box to the arc's end and
    the arc back to z (best of 3): each chord carries one Gauss panel;

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
from parcyl.coeffs import get_tables

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from test_plane import trace_fixed_step  # noqa: E402

EDGE_LEFT = ((-2.5, -2.5), (-2.5, 2.5), (-2.5, -1.5), (-2.5, 1.5),
             (-1.5, -1.5), (-1.5, 1.5))
EDGE_CELLS = tuple(complex(c, y) for x, y in EDGE_LEFT for c in (x, -x))
#: vertices of each left-half-plane arc under the scale-relative RK4 step
RK4_VERTICES = {-2.5 - 2.5j: 591, -2.5 + 2.5j: 591, -2.5 - 1.5j: 425,
                -2.5 + 1.5j: 425, -1.5 - 1.5j: 574, -1.5 + 1.5j: 574}
FAMILIES = {
    "U+": lambda z: lg.pcf_U_pos(20.0, z, 3, "+z"),
    "U+'": lambda z: lg.pcf_Uprime_pos(20.0, z, 3, "+z"),
    "UR": lambda z: inhom.inhom_series(20.0, z, 3, 0, "plus", (0, 2)),
}
TRACERS = (("fixed", trace_fixed_step), ("solver", plane.trace_level_curve))


def best_of_3(f):
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        out = f()
        best = min(best, time.perf_counter() - t0)
    return out, best


def arc_figures(start: complex, tracer) -> tuple[int, float, float, float]:
    direction = plane._arc_direction(start)
    verts, trace_s = best_of_3(
        lambda: tracer(start, "PCF+", "re", direction=direction).vertices)
    c0 = plane.xi_bar(start).real
    dev = max(abs(plane.xi_bar(0.5 * (a + b)).real - c0)
              for a, b in zip(verts[:-1], verts[1:]))
    far = complex(plane.BOX_RADIUS, verts[-1].imag)
    path = plane.PathPolyline([far] + verts[::-1], "PCF+", "re")
    rows = get_tables().rows["Ebar_d"]
    _, bound_s = best_of_3(lambda: lg.omega_varpi(4, 20.0, lg._beta_image(path), rows))
    return len(verts), dev, trace_s, bound_s


def bounds(z: complex, tracer) -> dict:
    library = plane.trace_level_curve
    plane.trace_level_curve = tracer
    try:
        return {name: f(z).rel_bound for name, f in FAMILIES.items()}
    finally:
        plane.trace_level_curve = library


def main():
    print(f"{'':>10} {'vertices':>20} {'chord-midpoint dev':>21} "
          f"{'trace ms':>15} {'bound ms':>13} {'rel_bound':>11}")
    print(f"{'cell':>10} {'fixed':>6} {'RK4':>6} {'solver':>6} {'fixed':>10} "
          f"{'solver':>10} {'fixed':>7} {'solver':>7} {'fixed':>6} {'solver':>6} "
          f"{'shift':>11}")
    for z in EDGE_CELLS:
        start = z if z.real < 0 else -z
        (nf, df, tf, bf), (ns, ds, ts, bs) = (arc_figures(start, tr) for _, tr in TRACERS)
        ref, new = (bounds(z, tr) for _, tr in TRACERS)
        shift = max(abs(new[k] - ref[k]) / ref[k] for k in FAMILIES)
        cell = f"{z.real:+.1f}{z.imag:+.1f}i"
        print(f"{cell:>10} {nf:>6} {RK4_VERTICES[start]:>6} {ns:>6} {df:>10.2e} "
              f"{ds:>10.2e} {1e3 * tf:>7.1f} {1e3 * ts:>7.2f} {1e3 * bf:>6.1f} "
              f"{1e3 * bs:>6.2f} {shift:>11.2e}")


if __name__ == "__main__":
    main()
