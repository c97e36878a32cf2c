"""Liouville variables, branch bookkeeping, level curves, domains and paths.

Four equation variants share this plumbing:

  PCF+  w'' = u^2 (z^2+1) w      turning points +-i,  variables xi_bar, beta_bar
  PCF-  w'' = u^2 (z^2-1) w      turning points +-1,  variables xi, zeta, beta
  WEB+  w'' = u^2 (1-z^2) w      turning points +-1,  xi -> i*xi, zeta -> -zeta
  WEB-  w'' = -u^2 (z^2+1) w     turning points +-i,  xi_bar -> i*xi_bar

Branch conventions: xi_bar and beta_bar are real on the real axis (cuts
z = +-iy, 1 <= y < inf); xi and zeta are >= 0 on [1, inf) with cuts
(-inf, 1] and (-inf, -1] respectively.  On the interval (-1, 1) the
oscillatory-side quantities are taken as limits from the upper half plane;
lower half-plane values follow by conjugation symmetry.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import CutError, DomainError, NoPath, PairError, TraceStalled

def canon(z: complex) -> complex:
    """Normalize signed zero: exactly-real points evaluate on the upper-side
    conventions, so -0.0 imaginary parts must not select the lower cut side.
    An array of points is normalized elementwise."""
    if isinstance(z, np.ndarray):
        return np.where(z.imag == 0.0, z.real + 0j, z)
    z = complex(z)
    return complex(z.real, 0.0) if z.imag == 0.0 else z

#: plane truncation box for traced curves and path tails
BOX_RADIUS = 50.0
#: minimum admissible distance of path vertices from turning points
TP_CLEARANCE = 1e-3
#: largest deviation from the traced level allowed at a chord midpoint
CHORD_TOL = 1e-4


# ----------------------------------------------------------------------
# variables for the z^2+1 variants
# ----------------------------------------------------------------------

def _on_cut(z: complex) -> bool:
    """Whether z lies within 1e-12 of a cut +-iy, y >= 1, of xi_bar."""
    return abs(z.real) < 1e-12 and abs(z.imag) >= 1.0 - 1e-12


def xi_bar(z: complex, side: str | None = None) -> complex:
    """xi_bar = int_0^z sqrt(t^2+1) dt, real and sign-matching on the real axis.

    `side` ("left"/"right") selects the continuation for points on the cuts
    z = +-iy, y >= 1; without it such points raise CutError.  In the left
    half plane z + sqrt(z^2+1) cancels, to exactly 0 from |z| ~ 1e8, so
    beyond twice the box radius (clear of every traced arc, which ends
    within CHORD_TOL of the box) it is -xi_bar(-z): asinh is odd.
    """
    z = canon(z)
    if _on_cut(z):
        if side is None:
            raise CutError(f"z={z} lies on a branch cut of xi_bar")
        eps = 1e-300 if side == "right" else -1e-300
        z = complex(eps, z.imag)
    elif z.real < 0.0 and abs(z) > 2.0 * BOX_RADIUS:
        return -xi_bar(-z)
    w = _sqrt_zz_plus_1(z)
    return 0.5 * z * w + 0.5 * cmath.log(z + w)


def _sqrt_zz_plus_1(z: complex) -> complex:
    # principal sqrt(z^2+1) is analytic exactly off the xi_bar cuts
    return cmath.sqrt(z * z + 1.0)


def beta_bar(z: complex) -> complex:
    """beta_bar = z / sqrt(z^2+1), real positive for real positive z."""
    z = canon(z)
    if _on_cut(z):
        raise CutError(f"z={z} lies on a branch cut of beta_bar")
    return z / _sqrt_zz_plus_1(z)


# ----------------------------------------------------------------------
# variables for the z^2-1 variants
# ----------------------------------------------------------------------

def sqrt_zz_minus_1(z: complex) -> complex:
    """sqrt(z^2-1) with cut (-inf, 1], positive for z > 1 (upper side on the
    oscillatory interval: +i sqrt(1-x^2)); elementwise on an array."""
    z = canon(z)
    if isinstance(z, np.ndarray):
        return _sqrt_zz_minus_1_nodes(z)
    return cmath.sqrt(z - 1.0) * cmath.sqrt(z + 1.0)


def _sqrt_zz_minus_1_nodes(z: np.ndarray) -> np.ndarray:
    """The scalar formula on an array of finite points off +-1, rounded as
    cmath.sqrt and Python's complex product round it.  np.sqrt and numpy's
    complex product can differ in the last bit, and the omega integrals of
    the turning-point estimates amplify a last-bit change of beta ~1e7-fold;
    this way a path's nodes get the values of a point-by-point loop."""
    # cmath.sqrt's formula for normal arguments, at z - 1 and z + 1 at once
    w = np.stack((z - 1.0, z + 1.0))
    ax = np.abs(w.real) / 8.0
    ay = np.abs(w.imag)
    s = 2.0 * np.sqrt(ax + np.hypot(ax, ay / 8.0))
    d = ay / (2.0 * s)
    right = w.real >= 0.0
    (ar, br), (ai, bi) = np.where(right, s, d), np.copysign(np.where(right, d, s), w.imag)
    out = np.empty_like(z)
    out.real = ar * br - ai * bi
    out.imag = ar * bi + ai * br
    return out


def xi_minus(z: complex) -> complex:
    """xi = int_1^z sqrt(t^2-1) dt, cut (-inf, 1], >= 0 on [1, inf).

    On the interval (-1, 1] real points are evaluated as upper-side limits
    (xi = -i nu with nu from the arccos form).  An array of points (the
    Gauss nodes of a path) is evaluated elementwise.
    """
    if isinstance(z, np.ndarray):
        return xi_minus_nodes(z, sqrt_zz_minus_1(z))
    z = canon(z)
    if z.imag == 0.0 and z.real <= 1.0:
        if z.real <= -1.0:
            raise CutError("z on the cut (-inf,-1] of zeta/xi")
        return -1j * nu_middle(z.real)
    s = sqrt_zz_minus_1(z)
    return 0.5 * z * s - 0.5 * cmath.log(z + s)


def xi_minus_nodes(z: np.ndarray, s: np.ndarray) -> np.ndarray:
    """xi_minus at an array of nodes z, where s = sqrt_zz_minus_1(z)."""
    z = canon(z)
    interval = (z.imag == 0.0) & (z.real <= 1.0)
    if np.any(z.real[interval] <= -1.0):
        raise CutError("z on the cut (-inf,-1] of zeta/xi")
    xi = 0.5 * z * s - 0.5 * np.log(z + s)
    xi[interval] = [-1j * nu_middle(x) for x in z.real[interval]]
    return xi


def nu_middle(z: complex) -> complex:
    """nu = (2/3)(-zeta)^{3/2} = arccos(z)/2 - z sqrt(1-z^2)/2 (cuts |x|>=1)."""
    z = canon(z)
    t = cmath.sqrt(1.0 - z) * cmath.sqrt(1.0 + z)
    ac = -1j * cmath.log(z + 1j * t)
    return 0.5 * ac - 0.5 * z * t


def beta_map(z: complex, variant: str) -> complex:
    """The rational Liouville variable for the requested variant.

    PCF+/WEB-: z/sqrt(z^2+1) (cuts +-i[1,inf)); PCF-/WEB+: z/sqrt(z^2-1)
    (cut [-1,1], -> 1 at infinity; upper-side limit on the cut).
    """
    z = canon(z)
    if variant in ("PCF+", "WEB-"):
        return beta_bar(z)
    if z.imag == 0.0 and abs(z.real) < 1.0:
        x = z.real
        return -1j * x / math.sqrt(1.0 - x * x)  # upper-side limit
    if z.imag == 0.0 and abs(z.real) == 1.0:
        raise CutError("beta unbounded at the turning points")
    return 1.0 / cmath.sqrt(1.0 - 1.0 / (z * z))


# -- zeta: analytic at z=1, cut (-inf,-1] --------------------------------

ZETA_SERIES_RADIUS = 0.25
_ZETA_SERIES_DEGREE = 12


@lru_cache(maxsize=1)
def _zeta_series_coeffs() -> tuple[float, ...]:
    """Taylor coefficients of zeta(z) in w = z-1, by exact series reversion
    of xi = (2/3) zeta^{3/2}; zeta = 2^{1/3} w (1 + d_1 w + ...)."""
    n = _ZETA_SERIES_DEGREE + 2
    # xi(1+w) = sqrt(2) w^{3/2} * h(w), h rational series: integrate the
    # binomial series of sqrt(1+s/2) termwise against s^{1/2}.
    binom = [Fraction(1)]
    for k in range(1, n):
        binom.append(binom[-1] * (Fraction(1, 2) - (k - 1)) / k * Fraction(1, 2))
    h = [c * Fraction(2, 2 * k + 3) * Fraction(3, 2) for k, c in enumerate(binom)]
    # h now holds coefficients of (3/2) xi / (sqrt2 w^{3/2}) = 1 + ...
    # zeta = 2^{1/3} w * h(w)^{2/3}: series exponentiation via log/exp.
    logh = _series_log(h, n)
    g = _series_exp([c * Fraction(2, 3) for c in logh], n)
    scale = 2.0 ** (1.0 / 3.0)
    return tuple(scale * float(c) for c in g[: _ZETA_SERIES_DEGREE + 1])


def _series_log(a: list[Fraction], n: int) -> list[Fraction]:
    # log(a), a[0] == 1: L' = a'/a
    out = [Fraction(0)] * n
    for k in range(1, n):
        acc = a[k] * k if k < len(a) else Fraction(0)
        for j in range(1, k):
            acc -= out[j] * j * (a[k - j] if k - j < len(a) else Fraction(0))
        out[k] = acc / k
    return out


def _series_exp(a: list[Fraction], n: int) -> list[Fraction]:
    # exp(a), a[0] == 0: E' = a' E
    out = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for k in range(1, n):
        acc = Fraction(0)
        for j in range(1, k + 1):
            if j < len(a):
                acc += a[j] * j * out[k - j]
        out[k] = acc / k
    return out


def zeta_over_w(z: complex) -> complex:
    """zeta(z) / (z - 1) by the local series (|z - 1| < ZETA_SERIES_RADIUS),
    elementwise on an array."""
    w = (z if isinstance(z, np.ndarray) else complex(z)) - 1.0
    v = 0j
    for c in reversed(_zeta_series_coeffs()):
        v = v * w + c
    return v


def zeta_series(z: complex) -> complex:
    return (complex(z) - 1.0) * zeta_over_w(z)


def zeta_closed(z: complex) -> complex:
    """zeta away from z=1 by branch-corrected 2/3 powers of xi."""
    z = canon(z)
    if z.imag == 0.0:
        x = z.real
        if x >= 1.0:
            return complex((1.5 * xi_minus(x).real) ** (2.0 / 3.0))
        if x > -1.0:
            return complex(-(1.5 * nu_middle(x).real) ** (2.0 / 3.0))
        raise CutError("z on the cut (-inf,-1] of zeta")
    if z.imag < 0:
        return zeta_closed(z.conjugate()).conjugate()
    xi = xi_minus(z)
    p = (1.5 * xi) ** (2.0 / 3.0)
    # continued arg(xi) exceeds pi exactly where the value crosses R^-
    if xi.imag > 0 or (xi.imag == 0 and xi.real > 0):
        return p
    return p * cmath.exp(4j * math.pi / 3.0)


def xi_zeta(z: complex) -> tuple[complex, complex]:
    """(xi, zeta) with zeta analytic at z = 1 (local series inside radius
    0.25) and xi reported as the upper-side limit on (-1, 1)."""
    z = complex(z)
    if abs(z - 1.0) < ZETA_SERIES_RADIUS:
        zeta = zeta_series(z)
        # xi from zeta^{3/2}: near 1 use principal power of the series value
        xi = (2.0 / 3.0) * zeta ** 1.5
        if z.imag == 0.0 and z.real < 1.0:
            xi = -1j * nu_middle(z.real)  # upper-side convention, exact phase
        return xi, zeta
    return xi_minus(z), zeta_closed(z)


# ----------------------------------------------------------------------
# level-curve tracing
# ----------------------------------------------------------------------

@dataclass
class PathPolyline:
    """Discretized progressive path: ordered vertices plus bookkeeping."""

    vertices: list[complex]
    variant: str
    monotone_quantity: str  # 're' or 'im' of the variant's base xi

    def __post_init__(self):
        tps = np.array((1j, -1j) if self.variant in ("PCF+", "WEB-") else (1.0, -1.0))
        near = np.abs(np.array(self.vertices, dtype=complex)[:, None] - tps) < TP_CLEARANCE
        if near.any():
            i, j = np.argwhere(near)[0]
            raise NoPath(f"path vertex {self.vertices[i]} within {TP_CLEARANCE} "
                         f"of turning point {tps[j]}")

    def segments(self):
        return zip(self.vertices[:-1], self.vertices[1:])

    def to_csv(self) -> str:
        lines = ["re,im"]
        lines += [f"{v.real:.17g},{v.imag:.17g}" for v in self.vertices]
        return "\n".join(lines) + "\n"


def _variant_xi(variant: str):
    if variant in ("PCF+", "WEB-"):
        return xi_bar, _sqrt_zz_plus_1
    return xi_minus, sqrt_zz_minus_1


def _xi_nodes(z: np.ndarray, variant: str) -> tuple[np.ndarray, np.ndarray]:
    """The variant's base xi and its derivative at an array of points off
    the cuts: the array form of `_variant_xi`."""
    if variant in ("PCF+", "WEB-"):
        w = np.sqrt(z * z + 1.0)
        return 0.5 * z * w + 0.5 * np.log(z + w), w
    s = _sqrt_zz_minus_1_nodes(z)
    return xi_minus_nodes(z, s), s


def trace_level_curve(start: complex, variant: str, quantity: str = "re",
                      direction: int = +1, max_steps: int = 40000) -> PathPolyline:
    """The arc of {Re xi = c0} (or {Im xi = c0}) from `start`, each vertex
    solved on the level.

    The arc is the preimage of the line xi = xi(start) + lead s, s >= 0,
    with lead = +-i (+-1 for an Im level) by `direction`.  A scalar
    continuation in s with large steps, each closed by Newton, finds where
    the arc ends: within CHORD_TOL past |z| = BOX_RADIUS, or within
    CHORD_TOL of a cut (PCF+, WEB-).  An arc that comes within
    10 TP_CLEARANCE of a turning point stalls, and so does one that would
    cross a cut of xi elsewhere.  The vertices are spaced in s by CHORD_TOL
    alone: at its midpoint a chord of length h in s strays from the level
    by about |Re(z / xi'^3)| h^2 / 8 (Im for an Im level).  One array pass
    places them on the cubic-Hermite interpolant of the continuation and
    corrects them all by Newton; a chord whose midpoint still strays more
    than CHORD_TOL is split.  The first max_steps + 1 vertices are kept;
    direction=0 returns the degenerate single-point polyline.
    """
    xi_fn, fp_fn = _variant_xi(variant)
    start = complex(start)
    if direction == 0:
        return PathPolyline([start], variant, quantity)
    tps = (1j, -1j) if variant in ("PCF+", "WEB-") else (1.0, -1.0)
    stop_at_cut = variant in ("PCF+", "WEB-")
    part = np.real if quantity == "re" else np.imag
    xi0 = xi_fn(start)
    c0 = float(part(xi0))
    lead = direction * (1j if quantity == "re" else 1.0)

    def on_level(z, s):
        """Newton from z onto the arc at s: (z, xi'(z)), or None."""
        for _ in range(8):
            try:
                d = fp_fn(z)
                dz = (xi_fn(z) - xi0 - lead * s) / d
            except (CutError, ValueError, ZeroDivisionError):
                return None
            z -= dz
            if abs(dz) <= 1e-8 * max(1.0, abs(z)):
                return z, d  # the next step would be below rounding
        return None

    # continuation: steps of at most a quarter of the distance to the
    # nearest turning point, aimed at half CHORD_TOL past the box, or short
    # of a cut, when they would pass it; z'' = -lead^2 z / xi'^4
    ss, zs, ds = [0.0], [start], [fp_fn(start)]
    s, z, h = 0.0, start, math.inf
    for _ in range(max_steps):
        if abs(z) >= BOX_RADIUS or (
                stop_at_cut and abs(z.imag) > 1.0 and abs(z.real) <= CHORD_TOL):
            break
        dzds = lead / ds[-1]
        speed = abs(dzds)
        h = min(h, 0.25 * min(abs(z - tps[0]), abs(z - tps[1])) / speed)
        rate = (z.conjugate() * dzds).real / abs(z) if z else 0.0
        if rate > 0.0:
            h = min(h, (BOX_RADIUS + 0.5 * CHORD_TOL - abs(z)) / rate)
        side = math.copysign(1.0, z.real)
        if stop_at_cut and abs(z.imag) > 1.0 and side * dzds.real < 0.0:
            h = min(h, (abs(z.real) - 0.5 * CHORD_TOL) / -(side * dzds.real))
        guess = z + h * dzds - h * h * lead * lead * z / (2.0 * ds[-1] ** 4)
        res = on_level(guess, s + h)
        ok = res is not None and abs(res[0] - guess) <= 0.5 * h * speed \
            and abs(res[0]) < BOX_RADIUS + CHORD_TOL
        if ok and stop_at_cut and res[0].real * side < 0.0:
            # crossed the imaginary axis: allowed below the cut only
            w = res[0]
            ok = abs(z.imag + (w.imag - z.imag) * z.real / (z.real - w.real)) < 1.0
        if not ok:
            h *= 0.5
            if h * speed < 1e-12 * max(1.0, abs(z)):
                raise TraceStalled("corrector failed to hold the level set")
            continue
        z, d = res
        if min(abs(z - tps[0]), abs(z - tps[1])) < 10 * TP_CLEARANCE:
            raise TraceStalled(f"arc runs into a turning point at {z}")
        s += h
        ss.append(s)
        zs.append(z)
        ds.append(d)
        h *= 2.0
    if len(ss) == 1:
        return PathPolyline([start], variant, quantity)

    knots, zk = np.array(ss), np.array(zs)
    slope = lead / np.array(ds)  # dz/ds at the knots

    def hermite(sv):
        k = np.clip(np.searchsorted(knots, sv, "right") - 1, 0, len(knots) - 2)
        hk = knots[k + 1] - knots[k]
        x = (sv - knots[k]) / hk
        x2, x3 = x * x, x * x * x
        return (2 * x3 - 3 * x2 + 1) * zk[k] + (x3 - 2 * x2 + x) * hk * slope[k] \
            + (3 * x2 - 2 * x3) * zk[k + 1] + (x3 - x2) * hk * slope[k + 1]

    def correct(z, sv):
        for _ in range(8):
            try:
                xi, d = _xi_nodes(z, variant)
            except CutError:
                break
            dz = (xi - xi0 - lead * sv) / d
            z = z - dz
            if np.all(np.abs(dz) <= 1e-8 * np.maximum(1.0, np.abs(z))):
                return z
        raise TraceStalled("corrector failed to hold the level set")

    # vertex density from the midpoint deviation, sampled 16 times a knot
    # interval on the interpolant; each chord aims at 0.96 CHORD_TOL, 2% of
    # slack in its length for the sampling, so that no chord needs a split
    frac = np.arange(16) / 16.0
    sf = np.append((knots[:-1, None] + np.diff(knots)[:, None] * frac).ravel(),
                   knots[-1])
    zf = hermite(sf)
    rho = np.sqrt(np.abs(part(zf / _xi_nodes(zf, variant)[1] ** 3))
                  / (8.0 * 0.96 * CHORD_TOL))
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (rho[1:] + rho[:-1]) * np.diff(sf))))
    n = max(1, math.ceil(cum[-1]))
    sv = np.interp(np.linspace(0.0, cum[-1], n + 1), cum, sf)
    zv = np.empty(n + 1, dtype=complex)
    zv[0], zv[-1] = start, zk[-1]
    zv[1:-1] = correct(hermite(sv[1:-1]), sv[1:-1])
    for _ in range(16):
        mid = 0.5 * (zv[:-1] + zv[1:])
        bad = np.flatnonzero(np.abs(part(_xi_nodes(mid, variant)[0]) - c0) > CHORD_TOL)
        if bad.size == 0:
            break
        sm = 0.5 * (sv[bad] + sv[bad + 1])
        sv = np.insert(sv, bad + 1, sm)
        zv = np.insert(zv, bad + 1, correct(mid[bad], sm))
    else:
        raise TraceStalled("chord strays from the level set")
    if np.min(np.abs(np.subtract.outer(zv, tps))) < 10 * TP_CLEARANCE:
        raise TraceStalled("arc runs into a turning point")
    return PathPolyline(zv[:max_steps + 1].tolist(), variant, quantity)


# ----------------------------------------------------------------------
# monotone progressive paths for the bound integrals
# ----------------------------------------------------------------------

ENDPOINTS = ("+inf", "-inf", "+iinf", "-iinf",
             "e+ipi/4", "e-ipi/4", "e+3ipi/4", "e-3ipi/4")

#: the endpoint of recession sector k (taken mod 4) of the variants whose
#: solutions and pair domains are labelled by sectors: the direction
#: e^{i k pi/2} for PCF+ and PCF-, e^{i (2k+1) pi/4} for WEB-
_SECTOR_ENDPOINTS = {"PCF+": ("+inf", "+iinf", "-inf", "-iinf"),
                     "PCF-": ("+inf", "+iinf", "-inf", "-iinf"),
                     "WEB-": ("e+ipi/4", "e+3ipi/4", "e-3ipi/4", "e-ipi/4")}


def monotone_path(z: complex, endpoint_id: str, variant: str) -> PathPolyline:
    """Progressive path from `endpoint_id` to z with the variant's monotone
    quantity monotone along it (fig. 2 recipe: level-curve arc plus an
    axis-parallel ray, rotated per variant).

    Each base endpoint has its recipe in `_RECIPES`; every other endpoint
    is the image of a base endpoint under z -> -z, conj(z) or -conj(z),
    applied here to the point and to every vertex.  The rows of `REGIONS`
    decide where z has a path; this builds it and fails only where building
    does: TraceStalled, NoPath off the cut, near a turning point, or for an
    endpoint the variant does not use.

    Vertices are ordered from the far endpoint towards z.
    """
    z = complex(z)
    if endpoint_id not in ENDPOINTS:
        raise ValueError(f"unknown endpoint {endpoint_id!r}")
    if variant not in ("PCF+", "PCF-", "WEB+", "WEB-"):
        raise ValueError(f"unknown variant {variant!r}")
    base, sym = _IMAGES.get((variant, endpoint_id), (endpoint_id, lambda z: z))
    if (variant, base) not in _RECIPES:
        raise NoPath(f"endpoint {endpoint_id} not used by variant {variant}")
    return PathPolyline([sym(v) for v in _RECIPES[variant, base](sym(z))], variant,
                        "im" if variant == "WEB-" else "re")


def _pcfp_inf(z: complex) -> list[complex]:
    if z.real >= 0 or abs(z.imag) < 1.0 - TP_CLEARANCE:
        return [complex(BOX_RADIUS, z.imag), z]
    # fig. 2: level-curve arc from z to the cut, then a horizontal ray
    arc = trace_level_curve(z, "PCF+", "re", direction=_arc_direction(z))
    cut_pt = arc.vertices[-1]
    if abs(cut_pt.real) > 0.05 and abs(cut_pt) < BOX_RADIUS - 1:
        raise NoPath(f"level-curve arc from {z} did not reach the cut")
    return [complex(BOX_RADIUS, cut_pt.imag)] + arc.vertices[::-1]


def _arc_direction(z: complex) -> int:
    # trace towards the imaginary axis: pick the direction whose tangent
    # initially points right
    d = _sqrt_zz_plus_1(z)
    t = 1j * d.conjugate() / abs(d)
    return +1 if t.real > 0 else -1


def _pcfm_inf(z: complex) -> list[complex]:
    # the PCF- paths support the turning-point error estimates; Re(xi)
    # monotone, segments kept clear of the turning point z = 1
    if abs(z.imag) >= 0.3 or z.real >= 1.3:
        return _dedupe([complex(BOX_RADIUS, z.imag), z])
    ymid = 0.35 if z.imag >= 0 else -0.35
    return _dedupe([complex(BOX_RADIUS, ymid), complex(z.real, ymid), z])


def _pcfm_iinf(z: complex) -> list[complex]:
    xv = max(z.real, 0.15)
    return _dedupe([complex(xv, BOX_RADIUS), complex(xv, z.imag), z])


def _webm_diag(z: complex) -> list[complex]:
    # WEB-: Im(xi_bar) monotone; the diagonal to e^{i pi/4} infinity
    if z.imag < 0:
        # climb vertically through the axis first, then take the diagonal
        x1, leg = z.real, [complex(z.real, 0.5), z]
    else:
        x1 = max(z.real + 1.0, 3.0)
        leg = [complex(x1, z.imag), z]
    t = BOX_RADIUS / math.sqrt(2.0)
    return _dedupe([complex(x1 + t, leg[0].imag + t)] + leg)


#: each base endpoint's recipe: the vertices of its path to z, far end first
_RECIPES = {
    ("PCF+", "+inf"): _pcfp_inf,
    # down the right side of the upper cut: the rows admit Re z > 0, x > 0
    ("PCF+", "+iinf"): lambda z: _dedupe([complex(z.real, BOX_RADIUS), z]),
    ("PCF-", "+inf"): _pcfm_inf,
    ("PCF-", "+iinf"): _pcfm_iinf,
    ("WEB-", "e+ipi/4"): _webm_diag,
}

#: every other endpoint a variant uses: its base endpoint and the map that
#: carries the base endpoint's paths onto it.  Negation and conjugation are
#: exact in floating point, so an image path is its base path mapped bit
#: for bit.
_IMAGES = {
    ("PCF+", "-inf"): ("+inf", complex.__neg__),
    ("PCF+", "-iinf"): ("+iinf", complex.conjugate),
    ("PCF-", "-iinf"): ("+iinf", complex.conjugate),
    ("WEB-", "e-ipi/4"): ("e+ipi/4", complex.conjugate),
    ("WEB-", "e+3ipi/4"): ("e+ipi/4", lambda z: -z.conjugate()),
    ("WEB-", "e-3ipi/4"): ("e+ipi/4", complex.__neg__),
}


def _dedupe(verts: list[complex]) -> list[complex]:
    out = [verts[0]]
    for v in verts[1:]:
        if abs(v - out[-1]) > 1e-13:
            out.append(v)
    return out


# ----------------------------------------------------------------------
# validity regions
# ----------------------------------------------------------------------

#: refusal radius around the turning points +-i of the z^2+1 equations: no
#: Airy variant covers them, and the LG bounds blow up inside the disc
TP_REFUSAL = 0.15

DOMAIN_TAGS = (
    "Z01", "Z02", "Z03", "Z12", "Z23",  # PCF+ inhomogeneous pair domains
    "Z",        # PCF- Airy domain (fig. 5)
    "Zb",       # WEB+ Airy domain (fig. 8)
    "Zb0",      # WEB+ LG domain for the first-quadrant-recessive solution
    "Zb03",     # WEB- inhomogeneous pair domain (fig. 11)
)

_CURVE_TOL = 1e-6


@dataclass(frozen=True)
class DomainId:
    tag: str

    def __post_init__(self):
        if self.tag not in DOMAIN_TAGS:
            raise ValueError(f"unknown domain tag {self.tag!r}; Z13 is empty "
                             f"and never representable")


def _on_pcfp_critical_curve(z: complex) -> bool:
    """Proximity test for the two Re(xi_bar)=0 curves of the left half plane
    off the cut; the right half plane's two are their images under -z."""
    if abs(z.imag) < 1.0 - 1e-9 or z.real > -1e-12:
        return False
    v = xi_bar(z)  # Re z <= -1e-12: off the cut
    return abs(v.real) <= _CURVE_TOL * max(1.0, abs(v))


def _in_z(z: complex) -> bool:
    """Domain Z (fig. 5): off -1, the cut and the region left of the level
    curves Re xi = 0 from z = -1."""
    if z.imag == 0.0 and z.real <= -1.0:
        return False
    w = complex(z.real, abs(z.imag))
    if w.real > -1.0 + 1e-12:
        return True
    xi = xi_minus(w)
    return not xi.real >= -_CURVE_TOL * max(1.0, abs(xi))


def _in_zb03(z: complex) -> bool:
    """Domain Zb03 (fig. 11): off the cuts, |Im xi_bar| < pi/4 for Re z < 0."""
    if _on_cut(z):
        return False
    return z.real >= 0 or not abs(xi_bar(z).imag) >= math.pi / 4.0 - _CURVE_TOL


def _in_pair(z: complex, j: int, k: int) -> bool:
    """Pair domain Zjk: off the cuts, reaching the endpoint of each sector
    of {0, 2, j, k}: off the critical curves, and for sectors 1 and 3 (paths
    down the right side of a cut) Re z > 0 or x > 0.  Z13 is empty by the
    monotone-path obstruction."""
    if (j, k) == (1, 3) or _on_cut(z) or {1, 3} & {j, k} and not (
            z.real > 1e-12 or z.imag == 0.0 and z.real > 0.0):
        return False
    return not (_on_pcfp_critical_curve(z) or _on_pcfp_critical_curve(-z))


def _between_curve_and_cut(z: complex) -> bool:
    """Whether z lies between a left critical curve Re xi_bar = 0 and the
    cut, where `_pcfp_inf`'s level arc would put the value on the wrong sheet."""
    return z.real < 0 and abs(z.imag) >= 1.0 - TP_CLEARANCE and xi_bar(z).real > 0


def domain_contains(z: complex, d: DomainId) -> bool:
    """Strict membership in the open validity domain (boundaries excluded):
    the test of the domain's rows of `REGIONS`.  Zjk is the paper's pair
    domain; the UR rows add the sheet refusal (NoPath between a critical
    curve and the cut) on top of it.  Zb and Zb0 have no row:
    off the cut (-inf, -1] (Zb0: and [1, inf)) and, below the axis, the curve
    Im xi = 0, Re xi < 0 from z = 1 (Zb0: the region Im xi <= 0)."""
    z, tag = complex(z), d.tag
    if tag[1:].isdigit():
        return _in_pair(z, int(tag[1]), int(tag[2]))
    if tag in ("Z", "Zb03"):
        return (_in_z if tag == "Z" else _in_zb03)(z)
    if z.imag == 0.0 and (z.real <= -1.0 or tag == "Zb0" and z.real >= 1.0):
        return False
    if z.imag >= 0:
        return True
    xi = xi_minus(z)
    tol = _CURVE_TOL * max(1.0, abs(xi))
    return not (xi.imag <= tol if tag == "Zb0" else abs(xi.imag) <= tol and xi.real < 0)


#: a row of `REGIONS`: its route ('direct'; 'image', the value at -z of a
#: companion function; 'reflection', a connection formula through values at
#: -z, whose tests see -z), its tests (refuses(u, z), error, message) in
#: order, its bound paths' variant and far endpoints in summation order, and
#: the half plane `where` that picks the route when the caller names none
Region = namedtuple("Region", "route tests variant endpoints where", defaults=(None,))

_DISC = (lambda u, z: abs(z - 1j) < TP_REFUSAL or abs(z + 1j) < TP_REFUSAL,
         DomainError, "z={z} within refusal radius of a turning point")
#: below u = 5 the turning-point expansions' figures run to 1e19 and more
_FLOOR = (lambda u, z: u < 5, DomainError, "parameter too small for the expansion (u >= 5)")
_Z = (lambda u, z: not _in_z(z), DomainError, "z={z} outside the turning-point domain")
_WEB_CUT = (lambda u, z: z.imag == 0.0 and z.real <= -1.0, DomainError, "on the cut (-inf,-1]")
_ZB03 = (lambda u, z: not _in_zb03(z), DomainError, "z outside the (0,3) validity domain")
_RIGHT_HALF = (lambda u, z: z.real < -1e-12, DomainError,
               "negative-parameter Weber expansions restricted to the right half plane")
_WEBM = (_DISC, _RIGHT_HALF)
_SCORER = (lambda u, z: abs(z - 1.0) > 1.15, DomainError,
           "Scorer form provided for |z-1| <= 1.15; use the elementary series farther out")
_UPPER = (lambda u, z: z.imag < -1e-12, DomainError, "pair (0,1) valid in the upper half plane")
_LOWER = (lambda u, z: z.imag > 1e-12, DomainError, "pair (-1,0) valid in the lower half plane")
#: the reach tests of the PCF+ paths to +inf and -inf
_LEVEL = (lambda u, z: _on_pcfp_critical_curve(z), DomainError,
          "z={z} on an excluded level curve")
_LEVEL_IMAGE = (lambda u, z: _on_pcfp_critical_curve(-z), *_LEVEL[1:])
#: the sheet refusal of the PCF+ paths to +inf and -inf, last in a row
_SHEETS = {end: (test, NoPath, f"z={{z}} between a {side} critical curve and the cut")
           for end, test, side in (("+inf", lambda u, z: _between_curve_and_cut(z), "left"),
                                   ("-inf", lambda u, z: _between_curve_and_cut(-z), "right"))}
#: the paths of the turning-point error estimate (-iinf below the axis)
_ESTIMATE = ("PCF-", ("+inf", "+iinf"))


def _pair(j: int, k: int) -> tuple:
    """The row of the PCF+ series of the pair (j, k): Zjk, then its sheet tests."""
    ends = tuple(_SECTOR_ENDPOINTS["PCF+"][i] for i in (j, k))
    return (Region("direct", ((lambda u, z: not _in_pair(z, j, k), DomainError,
                               f"z={{z}} outside the validity domain Z{j}{k}"),
                              *(_SHEETS[e] for e in ends if e in _SHEETS)),
                   "PCF+", ends),)


#: where each family answers, by (family, recession pair): one row per
#: route (README.md lists the entry points of each family)
REGIONS = {
    ("U+", None): (Region("direct", (_DISC, _LEVEL, _SHEETS["+inf"]), "PCF+", ("+inf",)),
                   Region("image", (_DISC, _LEVEL_IMAGE, _SHEETS["-inf"]), "PCF+", ("-inf",))),
    ("U-", None): (Region("direct", (_FLOOR, _Z), *_ESTIMATE),
                   Region("reflection", ((lambda u, z: z.real < -1e-12, DomainError,
                                          "left extension expects Re z <= 0"), _FLOOR, _Z),
                          *_ESTIMATE)),
    ("W0", None): (Region("direct", _WEBM, "WEB-", ("e+ipi/4",)),),
    ("W3", None): (Region("direct", _WEBM, "WEB-", ("e-ipi/4",)),),
    ("W(-a,x)", None): (Region("direct", ((lambda u, z: z.real < 0, DomainError,
                                           "x must be >= 0; use the sign argument"),),
                               "WEB-", ("e+ipi/4",)),),
    ("Wx", None): (Region("direct", (_FLOOR,), *_ESTIMATE, where=lambda z: z.real >= 0.0),
                   Region("image", (_FLOOR, _WEB_CUT, (
                       lambda u, z: z.real < -1.0 + 0.05, DomainError,
                       "x below the validity cutoff -1 + 0.05")), *_ESTIMATE)),
    ("A,B PCF-", None): (Region("direct", (_Z,), *_ESTIMATE),),
    ("A,B WEB+", None): (Region("direct", (_WEB_CUT,), *_ESTIMATE),),
    **{("UR", p): _pair(*p) for p in ((0, 1), (0, 2), (0, 3), (1, 2), (2, 3))},
    ("UR-", (0, 1)): (Region("direct", (_Z, _UPPER), "PCF-", ("+inf", "+iinf")),),
    ("UR-", (-1, 0)): (Region("direct", (_Z, _LOWER), "PCF-", ("-iinf", "+inf")),),
    ("WR", (0, 3)): (Region("direct", (_ZB03, _DISC), "WEB-", ("e+ipi/4", "e-ipi/4"),
                            where=lambda z: z.real >= -1e-12),
                     Region("reflection", (_ZB03, _DISC), "WEB-", ("e+ipi/4", "e-ipi/4"))),
    **{("Hi " + v, p): (Region("direct", (_FLOOR, test, _SCORER), *_ESTIMATE),)
       for v, test in (("PCF-", _Z), ("WEB+", _WEB_CUT)) for p in ((-1, 1), (0, 1), (-1, 0))},
}

#: the PairError of each family that takes a pair, for a pair with no row
_PAIR_ERRORS = {
    ("UR", (1, 3)): "the (1,3) recession pair has an empty domain",
    ("WR", (1, 3)): "the (1,3) recession pair has an empty domain",
    "UR": "unsupported pair {pair}", "UR-": "minus-variant series supports pairs (0,1), (-1,0)",
    "WR": "the negative-parameter Weber series is provided for the (0,3) pair",
    **dict.fromkeys(("Hi PCF-", "Hi WEB+"), "pair must be one of (-1,1), (0,1), (-1,0)"),
}


def region(family: str, u: float, z: complex, pair=None, route: str | None = None) -> Region:
    """The row of `REGIONS` by which `family` (with its recession pair, if
    it takes one) answers at (u, z): the `route` asked for, else the first
    whose half plane holds z.  PairError where the family has no row for
    the pair, else the error of the first test of the row that refuses."""
    pair = None if pair is None else tuple(pair)
    routes = REGIONS.get((family, pair))
    if routes is None:
        raise PairError(_PAIR_ERRORS.get((family, pair), _PAIR_ERRORS[family])
                        .format(pair=pair))
    row = next(r for r in routes if r.route == route
               or route is None and (r.where is None or r.where(z)))
    w = -z if row.route == "reflection" else z
    for refuses, error, message in row.tests:
        if refuses(u, w):
            raise error(message.format(z=w))
    return row


# ----------------------------------------------------------------------
# boundary export
# ----------------------------------------------------------------------

def export_boundaries(variant: str = "PCF+") -> dict[str, str]:
    """CSV polylines (columns re, im) of the traced critical level curves."""
    out = {}

    def trace_outward(seed: complex, var: str, tp: complex) -> PathPolyline:
        fp = _variant_xi(var)[1]
        d = fp(seed)
        t = 1j * d.conjugate() / abs(d)
        direction = +1 if ((seed - tp).conjugate() * t).real > 0 else -1
        try:
            curve = trace_level_curve(seed, var, "re", direction=direction)
        except TraceStalled:
            curve = trace_level_curve(seed, var, "re", direction=-direction)
        if abs(curve.vertices[-1]) < 5.0:
            curve = trace_level_curve(seed, var, "re", direction=-direction)
        return curve

    if variant == "PCF+":
        seeds = {
            "upper_right": (1j + 0.05 * cmath.exp(1j * math.pi / 6), 1j),
            "upper_left": (1j + 0.05 * cmath.exp(5j * math.pi / 6), 1j),
            "lower_right": (-1j + 0.05 * cmath.exp(-1j * math.pi / 6), -1j),
            "lower_left": (-1j + 0.05 * cmath.exp(-5j * math.pi / 6), -1j),
        }
        for name, (s, tp) in seeds.items():
            out[name] = trace_outward(s, "PCF+", tp).to_csv()
        return out
    if variant == "PCF-":
        for name, ang in (("upper", 2 * math.pi / 3), ("lower", -2 * math.pi / 3)):
            s = -1.0 + 0.05 * cmath.exp(1j * ang)
            out[name] = trace_outward(s, "PCF-", -1.0).to_csv()
        return out
    raise ValueError(f"no exported boundaries for variant {variant}")
