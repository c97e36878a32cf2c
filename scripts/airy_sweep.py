"""Offline accuracy sweep fixing the Airy evaluation-layer radii.

Maps the worst relative error of each layer (Maclaurin series in extended
precision, the non-oscillatory integral representation, the Poincare
expansion) over circles of increasing radius, and reports the radii at
which each layer stops delivering ~1e-13, and the mean number of leaf
evaluations (any layer) per airy() call on each circle, for calls that ask
for both Ai_l and Bi and for calls that ask for Ai_l only.  The Maclaurin
series keeps the term count its tail bound gives at MACLAURIN_RADIUS, so
beyond that radius its column shows truncation as well as rounding.  The
Scorer section reports, per radius, the worst Hi error of the series and of
the quadrature layer, the worst Hi and Hi' errors of Hi as the library
evaluates it, the mean time of one Hi evaluation and the mean number of
quadrature panels per Hi call (0 outside the quadrature annulus).
The constants MACLAURIN_RADIUS, ASYMPTOTIC_RADIUS and HI_QUAD_RADIUS in
parcyl.airy are pinned from this sweep.

Run:  python scripts/airy_sweep.py
"""

import cmath
import importlib
import time

import mpmath
import numpy as np

pa = importlib.import_module("parcyl.airy")

mpmath.mp.dps = 40


def layer_error(fn, r, arg_max, nth=24):
    """Worst relative Ai error of one layer inside its valid sector."""
    worst = 0.0
    for th in np.linspace(-arg_max, arg_max, nth):
        z = r * cmath.exp(1j * th)
        try:
            mine = fn(z)[0]
        except Exception:
            return float("inf")
        ref = complex(mpmath.airyai(mpmath.mpc(z)))
        worst = max(worst, abs(mine - ref) / abs(ref))
    return worst


LEAVES = ("_maclaurin_sums", "_quad_pair", "_asym_pair")


def maclaurin_ai(z):
    """(Ai, Ai') from the Maclaurin layer's residue-class sums."""
    return pa._series_ai(pa._maclaurin_sums(z), 0)


def leaves_per_call(r, want="both", nth=24):
    """Mean leaf evaluations per airy(z, l, want) call on |z| = r, over nth
    angles and the three rotations l = 0, +-1."""
    originals = {name: getattr(pa, name) for name in LEAVES}
    count = [0]

    def counted(fn):
        def leaf(z):
            count[0] += 1
            return fn(z)
        return leaf

    try:
        for name, fn in originals.items():
            setattr(pa, name, counted(fn))
        for th in np.linspace(-np.pi, np.pi, nth, endpoint=False):
            for rotation in (0, 1, -1):
                pa.airy(r * cmath.exp(1j * th), rotation, want)
    finally:
        for name, fn in originals.items():
            setattr(pa, name, fn)
    return count[0] / (3 * nth)


def hi_layer_error(fn, r, nth=16):
    """Worst relative Hi error of one Hi layer on the circle |z| = r."""
    worst = 0.0
    for th in np.linspace(-np.pi + 0.1, np.pi - 0.1, nth):
        z = r * cmath.exp(1j * th)
        ref = complex(mpmath.scorerhi(mpmath.mpc(z)))
        worst = max(worst, abs(fn(z)[0] - ref) / abs(ref))
    return worst


def hi_error(r, nth=16):
    """Worst relative Hi and Hi' errors on the circle |z| = r, the mean
    time of one _hi_pair call there (each point is new, so none is cached)
    and the mean number of quadrature panels per call.  mpmath.scorerhi has
    no derivative option: Hi' is its numerical derivative."""
    worst = worst_p = elapsed = 0.0
    panels = 0
    for th in np.linspace(-np.pi + 0.1, np.pi - 0.1, nth):
        z = r * cmath.exp(1j * th)
        t0 = time.perf_counter()
        mine, mine_p = pa._hi_pair(z)
        elapsed += time.perf_counter() - t0
        if pa.MACLAURIN_RADIUS < abs(z) <= pa.HI_QUAD_RADIUS:
            panels += len(pa._hi_quad(z)[2][1]) - 1
        ref = complex(mpmath.scorerhi(mpmath.mpc(z)))
        ref_p = complex(mpmath.diff(mpmath.scorerhi, mpmath.mpc(z)))
        worst = max(worst, abs(mine - ref) / abs(ref))
        worst_p = max(worst_p, abs(mine_p - ref_p) / abs(ref_p))
    return worst, worst_p, elapsed / nth, panels / nth


def main():
    print("r      maclaurin    quadrature   asymptotic   leaves/airy()  "
          "leaves/airy(ai)")
    for r in (1.0, 2.0, 3.0, 4.0, 4.5, 5.0, 5.5, 6.0, 7.0, 8.0, 9.0, 9.5,
              10.0, 12.0):
        em = layer_error(maclaurin_ai, r, np.pi - 0.05)
        eq = layer_error(pa._quad_pair, r, 2.4) if r > 2.0 else float("nan")
        ea = layer_error(pa._asym_pair, r, 2 * np.pi / 3 + 0.15) \
            if r > 6.0 else float("nan")
        print(f"{r:5.1f}  {em:10.2e}  {eq:10.2e}  {ea:10.2e}  "
              f"{leaves_per_call(r):8.2f}  {leaves_per_call(r, 'ai'):8.2f}")
    print("\npinned: maclaurin <= %.1f, quadrature <= %.1f, asymptotic beyond"
          % (pa.MACLAURIN_RADIUS, pa.ASYMPTOTIC_RADIUS))
    print("\nScorer Hi: each layer and the library against the reference")
    print("r      series       quadrature   Hi           Hi'          "
          "ms/call  panels/call")
    for r in (1.0, 2.0, 4.0, 4.5, 6.0, 8.0, 15.0, 25.0, 30.0, 35.0):
        es = hi_layer_error(lambda z: pa._series_hi(pa._maclaurin_sums(z)), r) \
            if r <= 2.0 * pa.MACLAURIN_RADIUS else float("nan")
        eq = hi_layer_error(pa._hi_quad, r) if r > 2.0 else float("nan")
        e, ep, sec, panels = hi_error(r)
        print(f"{r:5.1f}  {es:10.2e}  {eq:10.2e}  {e:10.2e}  {ep:10.2e}  "
              f"{1e3 * sec:8.3f}  {panels:8.1f}")
    print("pinned: Hi series <= %.1f, quadrature <= %.1f, Poincare forms beyond"
          % (pa.MACLAURIN_RADIUS, pa.HI_QUAD_RADIUS))


if __name__ == "__main__":
    main()
