"""Liouville variables, domains and paths, checked against quadrature."""

import cmath
import math
import re

import numpy as np
import pytest

from parcyl import inhom, lg, plane, tp
from parcyl.errors import (CutError, DomainError, NoPath, OrderError, ParcylError,
                           TraceStalled)


def quad_path(f, pts, npanel=40, nnode=64):
    """Adaptive-grade composite Gauss quadrature along a polyline (oracle)."""
    x, w = np.polynomial.legendre.leggauss(nnode)
    total = 0j
    for a, b in zip(pts[:-1], pts[1:]):
        edges = np.linspace(0, 1, npanel + 1)
        for lo, hi in zip(edges[:-1], edges[1:]):
            t = 0.5 * (hi - lo) * x + 0.5 * (lo + hi)
            z = a + (b - a) * t
            total += np.sum(w * f(z)) * (b - a) * 0.5 * (hi - lo)
    return total


# ----------------------------------------------------------------------
# reference: the fixed-step tracer (step 0.01 everywhere on the arc) that
# the scale-relative step replaced
# ----------------------------------------------------------------------

def trace_fixed_step(start, variant, quantity="re", direction=+1, step=0.01,
                     max_steps=40000):
    xi_fn, fp_fn = plane._variant_xi(variant)
    start = complex(start)
    if direction == 0:
        return plane.PathPolyline([start], variant, quantity)
    tps = (1j, -1j) if variant in ("PCF+", "WEB-") else (1.0, -1.0)

    def tangent(z):
        d = fp_fn(z)
        if abs(d) < 1e-14:
            raise TraceStalled(f"vanishing xi' near {z}")
        t = 1j * d.conjugate() / abs(d) if quantity == "re" else d.conjugate() / abs(d)
        return direction * t

    def level(z):
        v = xi_fn(z)
        return v.real if quantity == "re" else v.imag

    c0 = level(start)
    pts = [start]
    z = start
    h = step
    for _ in range(max_steps):
        try:
            k1 = tangent(z)
            k2 = tangent(z + 0.5 * h * k1)
            k3 = tangent(z + 0.5 * h * k2)
            k4 = tangent(z + h * k3)
        except (CutError, ValueError):
            break
        znew = z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        for _ in range(4):
            try:
                d = fp_fn(znew)
                q = level(znew) - c0
            except CutError:
                break
            if abs(q) < 1e-12:
                break
            g = d.conjugate() if quantity == "re" else 1j * d.conjugate()
            znew = znew - q * g / abs(d) ** 2
        if min(abs(znew - tp) for tp in tps) < 10 * plane.TP_CLEARANCE:
            if h < 1e-8:
                raise TraceStalled(f"step collapsed near turning point at {znew}")
            h *= 0.5
            continue
        if abs(level(znew) - c0) > 1e-9 * max(1.0, abs(c0)):
            if h < 1e-8:
                raise TraceStalled("corrector failed to hold the level set")
            h *= 0.5
            continue
        z = znew
        pts.append(z)
        h = min(step, h * 1.6)
        if abs(z) >= plane.BOX_RADIUS:
            break
        if variant in ("PCF+", "WEB-") and abs(z.real) < 0.5 * h and abs(z.imag) > 1.0:
            break
    return plane.PathPolyline(pts, variant, quantity)


class TestXiBar:
    def test_zero(self):
        assert plane.xi_bar(0.0) == 0

    def test_closed_form_at_one(self):
        expect = math.sqrt(2) / 2 + math.log(1 + math.sqrt(2)) / 2
        assert plane.xi_bar(1.0).real == pytest.approx(expect, abs=1e-15)

    @pytest.mark.parametrize("z", [0.7, 2.0, -3.0, 1 + 1j, -2 + 0.5j,
                                   0.3 - 0.8j, 0.5j])
    def test_against_quadrature(self, z):
        ref = quad_path(lambda t: np.sqrt(t * t + 1.0), [0, complex(z)])
        assert abs(plane.xi_bar(z) - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_cut_continuation(self):
        # continued across the upper cut from the right = quadrature along a
        # right-side polyline
        ref = quad_path(lambda t: np.sqrt((t * t + 1.0).astype(complex)),
                        [0, 2.0, 2.0 + 2.0j, 1e-9 + 2.0j])
        val = plane.xi_bar(2.0j, side="right")
        assert abs(val - ref) < 1e-7
        with pytest.raises(CutError):
            plane.xi_bar(2.0j)

    def test_beta_relation(self):
        # xi_bar in terms of beta_bar
        for z in (0.7, 2.0, 1 + 1j, -2 + 0.5j, 0.4 - 0.3j):
            bb = plane.beta_map(z, "PCF+")
            rhs = bb / (2 * (1 - bb * bb)) + 0.25 * cmath.log((bb + 1) / (1 - bb))
            assert abs(rhs - plane.xi_bar(z)) < 1e-12


class TestXiZeta:
    def test_turning_point(self):
        xi, zeta = plane.xi_zeta(1.0)
        assert xi == 0 and zeta == 0

    def test_at_zero(self):
        _, zeta = plane.xi_zeta(0.0)
        assert -zeta.real == pytest.approx((3 * math.pi / 8) ** (2 / 3), rel=1e-13)

    def test_local_slope(self):
        h = 1e-7
        _, zeta = plane.xi_zeta(1.0 + h)
        assert zeta / h == pytest.approx(2 ** (1 / 3), rel=1e-6)
        xi, _ = plane.xi_zeta(1.0 + h)
        assert xi == pytest.approx(2 * math.sqrt(2) / 3 * h ** 1.5, rel=1e-6)

    def test_series_closed_agreement(self):
        worst = 0.0
        for r in (0.11, 0.18, 0.249):
            for th in np.linspace(0, 2 * np.pi, 37)[:-1]:
                z = 1 + r * cmath.exp(1j * th)
                if abs(z.imag) < 1e-14:
                    z = complex(z.real)
                try:
                    worst = max(worst, abs(plane.zeta_series(z) - plane.zeta_closed(z)))
                except CutError:
                    continue
        assert worst < 1e-11

    def test_xi_zeta_consistency(self):
        for x in (1.5, 3.0, 8.0):
            xi, zeta = plane.xi_zeta(x)
            assert abs(xi - (2 / 3) * zeta ** 1.5) < 1e-13 * max(1, abs(xi))

    def test_continuity_arcs(self):
        # the branch logic must be seam-free off the cuts
        for r in (0.6, 2.5, 6.0):
            th = np.linspace(-np.pi + 0.03, np.pi - 0.03, 720)
            vals = np.array([plane.zeta_closed(r * cmath.exp(1j * t)) if abs(
                r * cmath.exp(1j * t) - 1) > 0.26 else np.nan for t in th])
            d = np.abs(np.diff(vals))
            d = d[~np.isnan(d)]
            assert d.max() < 0.2  # smooth variation only

    def test_quadrature_oracle(self):
        # xi against direct integration of sqrt(t^2-1) from 1
        for z in (2.5, 1 + 2j, 0.5 + 1.5j):
            ref = quad_path(lambda t: np.sqrt((t - 1).astype(complex))
                            * np.sqrt((t + 1).astype(complex)),
                            [1.0, complex(z)])
            xi, _ = plane.xi_zeta(z)
            assert abs(xi - ref) < 1e-8


class TestBeta:
    def test_values(self):
        assert plane.beta_map(0.0, "PCF+") == 0
        assert plane.beta_map(1.0, "PCF+") == pytest.approx(1 / math.sqrt(2))
        assert plane.beta_map(2.0, "PCF-") == pytest.approx(2 / math.sqrt(3))

    def test_infinity_limit(self):
        for ang in (0.3, 1.2, 2.8, -2.0):
            z = 40 * cmath.exp(1j * ang)
            assert abs(plane.beta_map(z, "PCF-") - 1.0) < 1e-3

    def test_cut_errors(self):
        with pytest.raises(CutError):
            plane.beta_map(1.5j, "PCF+")
        with pytest.raises(CutError):
            plane.beta_map(1.0, "PCF-")


#: the rows of plane.REGIONS whose family answers at conj(z) where the
#: other's answers at z: sector 1 (+iinf) and sector 3 (-iinf) swap
CONJUGATE_ROWS = {("W0", None): ("W3", None), ("W3", None): ("W0", None),
                  ("UR", (0, 1)): ("UR", (0, 3)), ("UR", (0, 3)): ("UR", (0, 1)),
                  ("UR", (1, 2)): ("UR", (2, 3)), ("UR", (2, 3)): ("UR", (1, 2)),
                  ("UR-", (0, 1)): ("UR-", (-1, 0)), ("UR-", (-1, 0)): ("UR-", (0, 1))}


def _refusal(call, *args):
    """(type, message) of the ParcylError that call(*args) raises; () if
    it answers."""
    try:
        call(*args)
    except ParcylError as exc:
        return type(exc), str(exc)
    return ()


class TestDomains:
    def test_examples(self):
        assert plane.domain_contains(0.5, plane.DomainId("Z02"))
        assert not plane.domain_contains(-1.0, plane.DomainId("Z"))
        assert plane.domain_contains(1.0, plane.DomainId("Z"))

    def test_pair_13_unrepresentable(self):
        with pytest.raises(ValueError):
            plane.DomainId("Z13")

    def test_conjugation_symmetry(self):
        pts = [0.5 + 0.5j, 2 - 1j, -0.3 + 2j, 1.2 + 0.1j, -2 + 1.5j, -0.5 - 2.5j,
               0.1 + 1.05j, -1.5 + 0.3j, -2.49 - 1.99j]
        for z in pts:
            assert plane.domain_contains(z, plane.DomainId("Z")) == \
                plane.domain_contains(z.conjugate(), plane.DomainId("Z"))
            assert plane.domain_contains(z, plane.DomainId("Z01")) == \
                plane.domain_contains(z.conjugate(), plane.DomainId("Z03"))
            # every row of the region table: the row of the conjugate family
            # refuses at conj(z) as the row refuses at z
            for (family, pair), rows in plane.REGIONS.items():
                cfamily, cpair = CONJUGATE_ROWS.get((family, pair), (family, pair))
                for row in rows:
                    assert _refusal(plane.region, family, 20.0, z, pair, row.route)[:1] == \
                        _refusal(plane.region, cfamily, 20.0, z.conjugate(), cpair,
                                 row.route)[:1], (family, pair, row.route, z)

    def test_z_excludes_left_region(self):
        assert not plane.domain_contains(-5.0 + 0.5j, plane.DomainId("Z"))
        assert plane.domain_contains(-1.0 + 5j, plane.DomainId("Z"))

    def test_weber_neg_domain(self):
        d = plane.DomainId("Zb03")
        assert plane.domain_contains(1.0, d)
        assert plane.domain_contains(-3.0 + 0.1j, d)
        assert not plane.domain_contains(-2.0 + 2.0j, d)
        assert not plane.domain_contains(2.0j, d)

    # both sides of each boundary of the WEB+ domains: the cut (-inf, -1]
    # (Zb0 also leaves out [1, inf)), and the fourth-quadrant curve
    # Im xi = 0, Re xi < 0 from z = 1, crossed here at Re z = 0.5
    @pytest.mark.parametrize("z,zb,zb0", [
        (-2.0, False, False), (-2.0 + 1e-3j, True, True),
        (-2.0 - 1e-3j, True, True), (-1.0, False, False),
        (-0.5, True, True), (0.5, True, True),
        (1.0, True, False), (1.5, True, False),
        (1.5 + 1e-3j, True, True), (1.5 - 1e-3j, True, False),
        ("on", False, False), ("above", True, True), ("below", True, False)])
    def test_weber_plus_domains(self, z, zb, zb0):
        if isinstance(z, str):
            # bisect Im xi(0.5 + iy) = 0 between y = -1 and y = -1.5
            lo, hi = -1.0, -1.5
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if plane.xi_minus(0.5 + 1j * mid).imag > 0 \
                    else (lo, mid)
            assert plane.xi_minus(0.5 + 1j * lo).real < 0
            z = 0.5 + 1j * (lo + {"on": 0.0, "above": 1e-3, "below": -1e-3}[z])
        assert plane.domain_contains(z, plane.DomainId("Zb")) is zb
        assert plane.domain_contains(z, plane.DomainId("Zb0")) is zb0


#: every CLI family at u = 20, order 3, as its entry point is called, and
#: the (family, pair, route) of the row that entry point asks plane.region
CLI_REGIONS = {
    "U+": (lambda z: lg.pcf_U_pos(20.0, z, 3), ("U+", None, "direct")),
    "U+'": (lambda z: lg.pcf_Uprime_pos(20.0, z, 3), ("U+", None, "direct")),
    "U-": (lambda z: tp.pcf_U_neg(20.0, z, 3), ("U-", None, "direct")),
    "V-": (lambda z: tp.pcf_V_neg(20.0, z, 3), ("U-", None, "direct")),
    "U+i": (lambda z: tp.pcf_U_rotated(20.0, z, 3, "+i"), ("U-", None, "direct")),
    "U-i": (lambda z: tp.pcf_U_rotated(20.0, z, 3, "-i"), ("U-", None, "direct")),
    "W+x": (lambda z: tp.weber_W_real(20.0, z.real, 3, "+x"), ("Wx", None, None)),
    "W-x": (lambda z: tp.weber_W_real(20.0, z.real, 3, "-x"), ("Wx", None, None)),
    "W0": (lambda z: lg.weber_neg_Wj(20.0, z, 3, 0), ("W0", None, None)),
    "W3": (lambda z: lg.weber_neg_Wj(20.0, z, 3, 3), ("W3", None, None)),
    "UR": (lambda z: inhom.inhom_series(20.0, z, 3, 0, "plus", (0, 2)),
           ("UR", (0, 2), None)),
    "WR": (lambda z: inhom.inhom_series(20.0, z, 3, 0, "weber-", (0, 3)),
           ("WR", (0, 3), None)),
}
#: the 0.5-spaced lattice over [-3, 3]^2, and points by the boundaries:
#: both sides of the Stokes-side curve of domain Z, the region between a
#: critical curve and the cut, the insides of the discs about +-i
REGION_POINTS = [complex(a / 2, b / 2) for a in range(-6, 7) for b in range(-6, 7)] \
    + [-2.487 + 1.5j, -2.487 - 1.5j, -0.5 - 2.5j, -2.49 - 1.99j,
       1j + 0.149, 1j - 0.149, -1j + 0.149, -1j - 0.149]


@pytest.mark.parametrize("family", sorted(CLI_REGIONS))
def test_entry_points_refuse_where_their_row_refuses(family):
    # with the row's own error and message; the real families take the real
    # points
    entry, (key, pair, route) = CLI_REGIONS[family]
    refused = 0
    for z in REGION_POINTS:
        if family in ("W+x", "W-x") and z.imag != 0.0:
            continue
        expected = _refusal(plane.region, key, 20.0, z, pair, route)
        if expected:
            refused += 1
            assert _refusal(entry, z) == expected, z
    assert refused >= 3


#: the 0.25-spaced lattice over [-3, 3]^2 and the points by the boundaries
PATH_POINTS = [complex(a / 4, b / 4) for a in range(-12, 13) for b in range(-12, 13)] \
    + REGION_POINTS[169:] + [-0.01 + 1.5j, 0.01 - 1.5j, -0.3 + 1.2j, 0.3 - 1.2j]
#: the failures that only building a path finds: the level arc stalls or
#: misses the cut, or a vertex comes within TP_CLEARANCE of a turning point
CONSTRUCTION = "did not reach the cut|of turning point"


@pytest.mark.parametrize("u", [10.0, 20.0])
def test_every_admitted_point_builds_its_rows_paths(u):
    # the row decides every refusal that depends only on (u, z): at a point
    # it admits, each of its paths builds (at -z for a reflection row)
    built = {}
    for (family, pair), rows in plane.REGIONS.items():
        for row in rows:
            for z in PATH_POINTS:
                try:
                    plane.region(family, u, z, pair, row.route)
                except ParcylError:
                    continue
                w = -z if row.route == "reflection" else z
                for end in row.endpoints:
                    key = (w, end, row.variant)
                    if key not in built:
                        built[key] = _refusal(plane.monotone_path, *key)
                    exc = built[key]
                    assert not exc or exc[0] is TraceStalled or \
                        exc[0] is NoPath and re.search(CONSTRUCTION, exc[1]), \
                        (family, pair, row.route, z, end, exc)


#: every public entry point, called as f(20.0, z, 3, *args): u = 20, order
#: 3, and the series and Scorer forms at R = 1
ENTRIES = [
    *((f, s) for f in (lg.pcf_U_pos, lg.pcf_Uprime_pos) for s in ("+z", "-z")),
    (lg.lg_W, "W1"), (lg.lg_W, "W2"),
    *((lg.weber_neg_Wj, j, d) for j in (0, 3) for d in (False, True)),
    (tp.pcf_U_neg,), (tp.pcf_V_neg,), (tp.pcf_U_rotated, "+i"), (tp.pcf_U_rotated, "-i"),
    (tp.pcf_left_extension, "U"), (tp.pcf_left_extension, "V"),
    (tp.tp_coeff_funcs, "PCF-"), (tp.tp_coeff_funcs, "WEB+"),
    *((inhom.inhom_series, 1, "plus", p) for p in ((0, 1), (0, 2), (0, 3), (1, 2), (2, 3))),
    (inhom.inhom_series, 1, "minus", (0, 1)), (inhom.inhom_series, 1, "minus", (-1, 0)),
    (inhom.inhom_series, 1, "weber-", (0, 3)),
    *((inhom.inhom_scorer, 1, v, p) for v in ("PCF-", "WEB+")
      for p in ((-1, 1), (0, 1), (-1, 0))),
    (inhom.connect_inhom_pcfm, 1),
    *((f, s) for f in (tp.weber_W_real, lg.weber_neg_real) for s in ("+x", "-x")),
]
COUNT_POINTS = [1.5 + 0.5j, 1.5 - 0.5j, -1.5 + 0.5j, -1.5 - 0.5j, -2 + 1.5j, 0.5 + 2j,
                -0.5 - 2.5j, 1.05 + 0.05j, 0.9 - 0.1j, -0.3 + 0j, 0.1 + 1j, -0.1 - 1j]


@pytest.mark.parametrize("entry", ENTRIES,
                         ids=lambda e: " ".join(map(str, (e[0].__name__, *e[1:]))))
def test_each_entry_asks_its_region_once(monkeypatch, entry):
    # whether it answers or refuses; the public tp_coeff_funcs, which the
    # turning-point entries call, may ask its own "A,B" row once more.  The
    # real entries take the real points
    asks = []
    inner = plane.region

    def counting(family, *args, **kwargs):
        asks.append(family)
        return inner(family, *args, **kwargs)

    monkeypatch.setattr(plane, "region", counting)
    f, *args = entry
    real = f in (tp.weber_W_real, lg.weber_neg_real)
    for z in (1.5, 0.3, -0.5) if real else COUNT_POINTS:
        asks.clear()
        _refusal(f, 20.0, z, 3, *args)
        own = [a for a in asks if not a.startswith("A,B")] or asks[:1]
        assert len(own) == 1 and len(asks) - len(own) <= 1, (z, asks)


@pytest.mark.parametrize("entry", ENTRIES,
                         ids=lambda e: " ".join(map(str, (e[0].__name__, *e[1:]))))
def test_order_is_checked_before_the_region(entry):
    # inputs, then order, then region: wherever an entry refuses a point at
    # order 3, an order out of range is the error it gives there.  The cut
    # point -3 is for the WEB+ coefficient functions, which refuse only there
    f, *args = entry
    real = f in (tp.weber_W_real, lg.weber_neg_real)
    points = (1.5, 0.3, -0.5, -0.97) if real else COUNT_POINTS + [-3.0 + 0j]
    refused = [z for z in points
               if _refusal(f, 20.0, z, 3, *args)[:1] in ((DomainError,), (NoPath,))]
    assert refused
    for z in refused:
        with pytest.raises(OrderError):
            f(20.0, z, 99, *args)


@pytest.mark.parametrize("z", [1e8 * cmath.exp(1j * math.pi * k / 4) for k in range(8)]
                         + [-60 + 5j, -1000 - 2000j, -51 + 0.5j, -1e150 + 1e149j])
def test_xi_bar_far_out_matches_mpmath(z):
    # far out on the left xi_bar is -xi_bar(-z); z + sqrt(z^2+1)
    # rounds to 0 at 1e8 e^{3 pi i/4}
    import mpmath
    with mpmath.workdps(50):
        zm = mpmath.mpc(z.real, z.imag)
        ref = zm * mpmath.sqrt(zm * zm + 1) / 2 + mpmath.asinh(zm) / 2
        v = plane.xi_bar(z)
        assert float(abs(mpmath.mpc(v.real, v.imag) - ref) / abs(ref)) < 1e-15


class TestLevelCurves:
    def test_level_constancy_and_oracle(self):
        # traced curve keeps the level to 1e-9 and agrees with root-finding
        curve = plane.trace_level_curve(2.0, "PCF+", "re", direction=+1,
                                        max_steps=3000)
        c0 = plane.xi_bar(2.0).real
        for v in curve.vertices[::50]:
            assert abs(plane.xi_bar(v).real - c0) < 1e-9 * max(1, abs(c0))
        # root-finding oracle: on a horizontal line through a traced point,
        # solve Re xi_bar = c0 by bisection and compare
        zi = curve.vertices[len(curve.vertices) // 2]
        y = zi.imag
        f = lambda x: plane.xi_bar(complex(x, y)).real - c0
        lo, hi = zi.real - 0.2, zi.real + 0.2
        if f(lo) * f(hi) < 0:
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if f(lo) * f(mid) <= 0:
                    hi = mid
                else:
                    lo = mid
            assert abs(0.5 * (lo + hi) - zi.real) < 1e-6

    def test_degenerate(self):
        curve = plane.trace_level_curve(3.0, "PCF+", "re", direction=0)
        assert curve.vertices == [3.0 + 0j]

    def test_csv_export(self):
        out = plane.export_boundaries("PCF+")
        assert set(out) == {"upper_right", "upper_left",
                            "lower_right", "lower_left"}
        for csv in out.values():
            lines = csv.strip().splitlines()
            assert lines[0] == "re,im"
            assert len(lines) > 10

    def test_csv_export_pcf_minus(self):
        # the two critical curves from -1: each vertex on the level of its
        # first (|z + 1| = 0.05), to the rounding of xi at that vertex
        # (|xi| ~ |z|^2 / 2, up to 1,250 at the box), and out to |z| >= 5
        out = plane.export_boundaries("PCF-")
        assert set(out) == {"upper", "lower"}
        for name, csv in out.items():
            lines = csv.strip().splitlines()
            assert lines[0] == "re,im"
            verts = [complex(*map(float, line.split(","))) for line in lines[1:]]
            assert abs(abs(verts[0] + 1.0) - 0.05) < 1e-12
            assert abs(verts[-1]) >= 5.0
            assert all(v.imag > 0 if name == "upper" else v.imag < 0 for v in verts)
            c0 = plane.xi_minus(verts[0]).real
            for v in verts:
                xi = plane.xi_minus(v)
                assert abs(xi.real - c0) <= 16 * np.finfo(float).eps * max(1.0, abs(xi))


class TestScaleRelativeStep:
    # two box-edge arcs (lower and upper half plane) and three that end on
    # the cut, two of them high up where the step has grown to ~0.1-0.3;
    # each traced as the fig. 2 path from that point traces it
    ARCS = (-2.5 + 2.5j, -1.5 - 1.5j, -1 + 2j, -1 + 12j, -1 + 30j)

    @staticmethod
    def _arc(z, tracer=plane.trace_level_curve):
        return tracer(z, "PCF+", "re", direction=plane._arc_direction(z))

    @pytest.mark.parametrize("z", ARCS)
    def test_every_vertex_holds_the_level(self, z):
        c0 = plane.xi_bar(z).real
        for v in self._arc(z).vertices:
            assert abs(plane.xi_bar(v).real - c0) <= 1e-9 * max(1.0, abs(c0))

    @pytest.mark.parametrize("z", ARCS)
    def test_chords_stay_close_to_the_curve(self, z):
        c0 = plane.xi_bar(z).real
        verts = self._arc(z).vertices
        worst = max(abs(plane.xi_bar(0.5 * (a + b)).real - c0)
                    for a, b in zip(verts[:-1], verts[1:]))
        assert worst <= plane.CHORD_TOL == 1e-4

    @pytest.mark.parametrize("z", ARCS)
    def test_ends_where_the_fixed_step_ends(self, z):
        new, ref = self._arc(z).vertices, self._arc(z, trace_fixed_step).vertices
        if abs(ref[-1]) >= plane.BOX_RADIUS:
            assert plane.BOX_RADIUS <= abs(new[-1]) < plane.BOX_RADIUS + 1.0
        else:  # on the cut: same height, within the fixed step's half-step
            assert -0.005 < new[-1].real <= 0.0
            assert abs(new[-1].imag - ref[-1].imag) < 1e-3

    @pytest.mark.parametrize("z", [-1 + 12j, -1 + 30j, -0.5 + 45j, -0.5 - 17j,
                                   -4 + 20j, -0.05 + 40j])
    def test_high_cut_arcs_give_a_path(self, z):
        # the arc meets the cut at |Im z| ~ 12-45; its end on the axis must
        # not widen with the step there.  These points lie between the
        # critical curve and the cut, where `monotone_path` refuses, so the
        # arc is traced directly.
        end = self._arc(z).vertices[-1]
        assert abs(end.real) < 0.005
        assert abs(end) > 10.0

    def test_box_edge_arc_vertex_count(self):
        # a count, not a timing: the fixed step takes ~5,240 vertices here
        assert len(self._arc(-2.5 + 2.5j).vertices) < 1000
        assert len(self._arc(-2.5 + 2.5j, trace_fixed_step).vertices) > 5000

    # the left edge cells of the benchmark grid, whose U+, U+' and UR paths
    # are box-edge arcs, and one UR point whose -inf path mirrors such an arc
    EDGE_CELLS = (-2.5 - 2.5j, -2.5 + 2.5j, -2.5 - 1.5j, -2.5 + 1.5j,
                  -1.5 - 1.5j, -1.5 + 1.5j)
    FAMILIES = {
        "U+": lambda z: lg.pcf_U_pos(20.0, z, 3, "+z"),
        "U+'": lambda z: lg.pcf_Uprime_pos(20.0, z, 3, "+z"),
        "UR": lambda z: inhom.inhom_series(20.0, z, 3, 0, "plus", (0, 2)),
    }

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_bounds_match_the_fixed_step_paths(self, monkeypatch, family):
        cases = [(self.FAMILIES[family], z) for z in self.EDGE_CELLS]
        if family == "UR":
            cases.append((lambda z: inhom.inhom_series(20.0, z, 3, 2, "plus", (0, 2)),
                          2.496 - 1.512j))
        got = [f(z).rel_bound for f, z in cases]
        monkeypatch.setattr(plane, "trace_level_curve", trace_fixed_step)
        ref = [f(z).rel_bound for f, z in cases]
        for g, r in zip(got, ref):
            assert abs(g - r) <= 2e-3 * r

    # U+, U+' and UR values whose (mirrored) point lies between the left
    # critical curve and the cut: U+ and U+' were off by ~1 against mpmath,
    # and UR at 0.49-1.51i by ~1 against the oracle
    @pytest.mark.parametrize("family, z", [("U+", -0.49 - 2.52j),
                                           ("U+'", -1.49 - 2.52j),
                                           ("UR", 0.49 - 1.51j),
                                           ("UR", 1.49 + 2.49j)])
    def test_region_between_critical_curve_and_cut_refused(self, family, z):
        with pytest.raises(NoPath):
            self.FAMILIES[family](z)

    # the arcs of the 12 edge cells of the benchmark grid, each traced from
    # the left-half-plane cell or from the mirror -z of a right one, and the
    # vertex count of the scale-relative RK4 stepper the level solver replaced
    RK4_VERTICES = {-2.5 - 2.5j: 591, -2.5 + 2.5j: 591, -2.5 - 1.5j: 425,
                    -2.5 + 1.5j: 425, -1.5 - 1.5j: 574, -1.5 + 1.5j: 574}

    @pytest.mark.parametrize("cell", [complex(sx * z.real, z.imag)
                                      for z in RK4_VERTICES for sx in (1, -1)])
    def test_edge_cell_arc_holds_level_chords_and_count(self, cell):
        start = cell if cell.real < 0 else -cell
        verts = self._arc(start).vertices
        c0 = plane.xi_bar(start).real
        assert max(abs(plane.xi_bar(v).real - c0) for v in verts) \
            <= 1e-12 * max(1.0, abs(c0))
        assert max(abs(plane.xi_bar(0.5 * (a + b)).real - c0)
                   for a, b in zip(verts[:-1], verts[1:])) <= plane.CHORD_TOL
        assert len(verts) <= self.RK4_VERTICES[start]

    @pytest.mark.parametrize("z", [0.5 + 0.3j, -2.5 + 2.5j, -2.5 - 1.5j,
                                   -1.5 + 1.5j])
    def test_vertices_lie_on_the_fixed_step_polyline(self, z):
        # both polylines carry the same level arc.  A vertex holds the level
        # to lev (1e-9 max(1, |c0|) for the fixed step), and a chord whose
        # midpoint strays dev from the level lies within about dev / |xi'|
        # of the arc.  So every vertex of one polyline lies within
        # 2 (dev + lev_a + lev_b) / min |xi'| of the other (the factor 2 for
        # the second-order terms), where dev <= CHORD_TOL.  Compared inside
        # the box, where both end.
        direction = plane._arc_direction(z) if z.real < 0 else +1
        polys = [np.array(tr(z, "PCF+", "re", direction=direction).vertices)
                 for tr in (plane.trace_level_curve, trace_fixed_step)]
        c0 = plane.xi_bar(z).real
        slope = min(float(np.min(np.abs(np.sqrt(p * p + 1.0)))) for p in polys)
        tol = 2.0 * (plane.CHORD_TOL + 1e-9 * max(1.0, abs(c0))
                     + 1e-12 * max(1.0, abs(c0))) / slope
        for p, q in (polys, polys[::-1]):
            p = p[np.abs(p) <= plane.BOX_RADIUS]
            assert np.max(_distance_to_polyline(p, q)) <= tol


def _distance_to_polyline(points, verts):
    """Distance of each point to the polyline through `verts`, all on one
    Re xi_bar level arc: each point is set against the chords about its
    place along the arc, found by t = Im xi_bar, which is monotone there."""
    t = np.array([plane.xi_bar(complex(v)).imag for v in verts])
    sign = 1.0 if t[-1] >= t[0] else -1.0
    tp = np.array([plane.xi_bar(complex(v)).imag for v in points])
    k = np.searchsorted(sign * t, sign * tp) - 1
    best = np.full(len(points), np.inf)
    for j in (k - 1, k, k + 1):
        j = np.clip(j, 0, len(verts) - 2)
        a, b = verts[j], verts[j + 1]
        x = np.clip(((points - a) * np.conj(b - a)).real / np.abs(b - a) ** 2, 0.0, 1.0)
        best = np.minimum(best, np.abs(points - (a + x * (b - a))))
    return best


class TestMonotonePaths:
    @staticmethod
    def _check_monotone(path, quantity, fn):
        vals = []
        for zs, ze in path.segments():
            for t in np.linspace(0, 1, 12):
                v = fn(zs + (ze - zs) * t)
                vals.append(v.real if quantity == "re" else v.imag)
        diffs = np.diff(vals)
        # weakly monotone to tolerance
        assert (diffs >= -1e-10).all() or (diffs <= 1e-10).all()

    def test_real_axis_straight(self):
        p = plane.monotone_path(3.0, "+inf", "PCF+")
        assert len(p.vertices) == 2
        assert p.vertices[0].real == plane.BOX_RADIUS
        self._check_monotone(p, "re", plane.xi_bar)

    def test_fig2_arc(self):
        # second-quadrant point left of the critical curve: level arc + ray
        z = -2 + 1.5j
        p = plane.monotone_path(z, "+inf", "PCF+")
        assert p.vertices[-1] == z
        assert len(p.vertices) > 3

    @pytest.mark.parametrize("z", [-1 + 2j, -0.5 - 2.5j, -1.5 - 2.5j,
                                   -0.5 + 1.5j, -1 + 12j])
    def test_region_between_critical_curve_and_cut_refused(self, z):
        # there the arc to the cut puts U+ on the wrong sheet (err ~ 1
        # against mpmath), so the rows of the paths to +inf (at z) and -inf
        # (at -z) refuse z before any path is built
        assert plane.xi_bar(z).real > 0
        with pytest.raises(NoPath):
            plane.region("U+", 20.0, z, route="direct")
        with pytest.raises(NoPath):
            plane.region("U+", 20.0, -z, route="image")

    def test_excluded_boundary(self):
        # a point of the left critical curve from +i: the rows refuse it
        # (and -z) by their level test
        curve = plane.trace_level_curve(1j + 0.02 * cmath.exp(5j * math.pi / 6),
                                        "PCF+", "re", direction=+1,
                                        max_steps=2000)
        zbad = curve.vertices[min(len(curve.vertices) - 1, 200)]
        assert plane._on_pcfp_critical_curve(zbad)
        with pytest.raises(DomainError, match="excluded level curve"):
            plane.region("U+", 20.0, zbad, route="direct")
        with pytest.raises(DomainError, match="excluded level curve"):
            plane.region("U+", 20.0, -zbad, route="image")

    def test_vertical_path(self):
        p = plane.monotone_path(1.5 + 0.5j, "+iinf", "PCF+")
        self._check_monotone(p, "re", plane.xi_bar)

    def test_weber_path(self):
        p = plane.monotone_path(2.0, "e+ipi/4", "WEB-")
        self._check_monotone(p, "im", plane.xi_bar)

    def test_turning_point_clearance(self):
        with pytest.raises(NoPath):
            plane.PathPolyline([50.0 + 1j * 1.0, 1j * 1.0005], "PCF+", "re")


# every endpoint a variant's bound paths use; the images of the base
# endpoints +inf, +iinf (PCF+, PCF-) and e+ipi/4 (WEB-) under z -> -z,
# conj(z) and -conj(z)
VARIANT_ENDPOINTS = {"PCF+": ("+inf", "-inf", "+iinf", "-iinf"),
                     "PCF-": ("+inf", "+iinf", "-iinf"),
                     "WEB-": ("e+ipi/4", "e-ipi/4", "e+3ipi/4", "e-3ipi/4")}
IMAGES = [("PCF+", "-inf", "+inf", lambda z: -z),
          ("PCF+", "-iinf", "+iinf", lambda z: z.conjugate()),
          ("PCF-", "-iinf", "+iinf", lambda z: z.conjugate()),
          ("WEB-", "e-ipi/4", "e+ipi/4", lambda z: z.conjugate()),
          ("WEB-", "e+3ipi/4", "e+ipi/4", lambda z: -z.conjugate()),
          ("WEB-", "e-3ipi/4", "e+ipi/4", lambda z: -z)]
DIRECTIONS = {"+inf": 0.0, "-inf": math.pi, "+iinf": math.pi / 2,
              "-iinf": -math.pi / 2, "e+ipi/4": math.pi / 4,
              "e-ipi/4": -math.pi / 4, "e+3ipi/4": 3 * math.pi / 4,
              "e-3ipi/4": -3 * math.pi / 4}
# the 36 cell centres of [-3, 3]^2 and 6 real points, offset off the axes
# and the cuts; points on the axes, the cuts and at the turning points;
# traced-arc points; points whose path runs through a 0.35 or 0.5 detour
_CELLS = (-2.5, -1.5, -0.5, 0.5, 1.5, 2.5)
PATH_LATTICE = ([complex(x, y) + (0.013 + 0.007j) for x in _CELLS for y in _CELLS]
                + [complex(x + 0.013, 0.0) for x in _CELLS]
                + [complex(0.0, y) for y in _CELLS]
                + [0j, 1 + 0j, -1 + 0j, 2 + 0j, -2 + 0j, 1e-13 + 2j, -1e-13 - 2j,
                   -3 - 2j, 3 + 2j, -2 + 1.5j, -0.5 - 2.5j, 0.3 + 0.1j,
                   -0.7 - 0.2j, 1.2 + 0.05j, -1.2 - 0.05j, 4 - 0.9j,
                   -4 + 0.9j, 0.5 + 0.999j])


def _path_or_error(z, endpoint, variant):
    try:
        return plane.monotone_path(z, endpoint, variant).vertices
    except (NoPath, CutError, TraceStalled) as exc:
        return type(exc)


@pytest.mark.parametrize("variant,endpoint,base,sym", IMAGES,
                         ids=[f"{v}{e}" for v, e, _, _ in IMAGES])
def test_every_endpoint_is_its_base_endpoint_mapped(variant, endpoint, base, sym):
    # the image path at z is the base path at sym(z), mapped vertex by
    # vertex; a refusal is the same refusal
    paths = 0
    for z in PATH_LATTICE:
        image = _path_or_error(z, endpoint, variant)
        mapped = _path_or_error(sym(z), base, variant)
        if isinstance(mapped, list):
            mapped = [sym(v) for v in mapped]
            paths += 1
        assert image == mapped, z
    assert paths >= len(PATH_LATTICE) // 3


def test_every_path_starts_at_its_endpoint():
    # beyond 0.9 BOX_RADIUS, within 0.2 rad of the endpoint's direction; a
    # PCF+ path along a traced arc (more than 3 vertices) starts where the
    # arc leaves the box, up to 0.62 rad off, still inside the endpoint's
    # quarter plane
    for variant, endpoints in VARIANT_ENDPOINTS.items():
        for endpoint in endpoints:
            paths = 0
            for z in PATH_LATTICE:
                verts = _path_or_error(z, endpoint, variant)
                if not isinstance(verts, list):
                    continue
                paths += 1
                first = verts[0]
                off = abs(cmath.phase(first * cmath.exp(-1j * DIRECTIONS[endpoint])))
                assert abs(first) > 0.9 * plane.BOX_RADIUS, (variant, endpoint, z)
                limit = math.pi / 4 if len(verts) > 3 and variant == "PCF+" else 0.2
                assert off < limit, (variant, endpoint, z, first)
            assert paths >= len(PATH_LATTICE) // 3, (variant, endpoint)


def test_weber_plus_has_no_path():
    for endpoint in plane.ENDPOINTS:
        with pytest.raises(NoPath):
            plane.monotone_path(2.0 + 0.5j, endpoint, "WEB+")


class TestMinusVariantIdentities:
    def test_xi_beta_relation(self):
        # xi in terms of beta for the z^2-1 variant
        import cmath
        for z in (1.5, 3.0, 2 + 1j, 1.2 - 0.4j):
            beta = plane.beta_map(z, "PCF-")
            rhs = beta / (2 * (beta * beta - 1)) \
                + 0.25 * cmath.log((beta - 1) / (beta + 1))
            xi, _ = plane.xi_zeta(z)
            assert abs(rhs - xi) < 1e-12 * max(1.0, abs(xi))

    def test_minus_boundary_export(self):
        out = plane.export_boundaries("PCF-")
        assert set(out) == {"upper", "lower"}
        for csv in out.values():
            assert len(csv.strip().splitlines()) > 10


from hypothesis import given, settings, strategies as st


@settings(max_examples=60, deadline=None)
@given(st.complex_numbers(min_magnitude=0.05, max_magnitude=20.0,
                          allow_nan=False, allow_infinity=False))
def test_xi_bar_symmetries(z):
    # conjugation symmetry and oddness, off the cuts
    if abs(z.real) < 1e-3 and abs(z.imag) >= 0.999:
        return
    v = plane.xi_bar(z)
    assert plane.xi_bar(z.conjugate()) == pytest.approx(v.conjugate(), rel=1e-12)
    assert plane.xi_bar(-z) == pytest.approx(-v, rel=1e-12)


def test_array_evaluation_matches_the_point_loop():
    # Gauss nodes of the PCF- estimate paths, including real nodes on the
    # oscillatory interval and beyond z = 1
    z = np.concatenate([np.linspace(-0.9, 0.95, 7) + 0j,
                        np.linspace(1.3, 40.0, 7) + 0j,
                        0.15 + 1j * np.linspace(0.2, 50.0, 7),
                        -0.49 - 1.5j + np.linspace(0.0, 50.0, 7)])
    sq = plane.sqrt_zz_minus_1(z)
    assert np.array_equal(sq, [plane.sqrt_zz_minus_1(complex(v)) for v in z])
    xi = plane.xi_minus(z)
    assert xi == pytest.approx([plane.xi_minus(complex(v)) for v in z], rel=1e-15)
    with pytest.raises(CutError):
        plane.xi_minus(np.array([0.5 + 0j, -1.5 + 0j]))
