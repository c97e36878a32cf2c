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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import CutError, NoPath, TraceStalled

VARIANTS = ("PCF+", "PCF-", "WEB+", "WEB-")


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


# ----------------------------------------------------------------------
# variables for the z^2+1 variants
# ----------------------------------------------------------------------

def _near_upper_cut(z: complex, tol: float) -> bool:
    return abs(z.real) < tol and z.imag >= 1.0 - tol


def _near_lower_cut(z: complex, tol: float) -> bool:
    return abs(z.real) < tol and z.imag <= -1.0 + tol


def xi_bar(z: complex, side: str | None = None) -> complex:
    """xi_bar = int_0^z sqrt(t^2+1) dt, real and sign-matching on the real axis.

    `side` ("left"/"right") selects the continuation for points on the cuts
    z = +-iy, y >= 1; without it such points raise CutError.
    """
    z = canon(z)
    on_cut = _near_upper_cut(z, 1e-12) or _near_lower_cut(z, 1e-12)
    if on_cut:
        if side is None:
            raise CutError(f"z={z} lies on a branch cut of xi_bar")
        eps = 1e-300 if side == "right" else -1e-300
        z = complex(eps, z.imag)
    w = _sqrt_zz_plus_1(z)
    return 0.5 * z * w + 0.5 * cmath.log(z + w)


def _sqrt_zz_plus_1(z: complex) -> complex:
    # principal sqrt(z^2+1) is analytic exactly off the xi_bar cuts
    return cmath.sqrt(z * z + 1.0)


def beta_bar(z: complex) -> complex:
    """beta_bar = z / sqrt(z^2+1), real positive for real positive z."""
    z = canon(z)
    if _near_upper_cut(z, 1e-12) or _near_lower_cut(z, 1e-12):
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
    roots = []
    for w in (z - 1.0, z + 1.0):
        # cmath.sqrt's formula for normal arguments
        ax = np.abs(w.real) / 8.0
        ay = np.abs(w.imag)
        s = 2.0 * np.sqrt(ax + np.hypot(ax, ay / 8.0))
        d = ay / (2.0 * s)
        right = w.real >= 0.0
        roots.append((np.where(right, s, d), np.copysign(np.where(right, d, s), w.imag)))
    (ar, ai), (br, bi) = roots
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
        return _xi_minus_nodes(z)
    z = canon(z)
    if z.imag == 0.0 and z.real <= 1.0:
        if z.real <= -1.0:
            raise CutError("z on the cut (-inf,-1] of zeta/xi")
        return -1j * nu_middle(z.real)
    s = sqrt_zz_minus_1(z)
    return 0.5 * z * s - 0.5 * cmath.log(z + s)


def _xi_minus_nodes(z: np.ndarray) -> np.ndarray:
    z = canon(z)
    interval = (z.imag == 0.0) & (z.real <= 1.0)
    if np.any(z.real[interval] <= -1.0):
        raise CutError("z on the cut (-inf,-1] of zeta/xi")
    s = sqrt_zz_minus_1(z)
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
    """zeta(z) / (z - 1) by the local series (|z - 1| < ZETA_SERIES_RADIUS)."""
    w = complex(z) - 1.0
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
# domains
# ----------------------------------------------------------------------

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


def _on_pcfp_critical_curve(z: complex, which: str) -> bool:
    """Proximity test for the four Re(xi_bar)=0 curves off the imaginary axis.

    which: 'left' (second/third-quadrant pair), 'right', or 'any'.
    """
    z = complex(z)
    if abs(z.imag) < 1.0 - 1e-9:
        return False
    if abs(z.real) < 1e-12:  # the cut itself, not these curves
        return False
    if which == "left" and z.real > 0:
        return False
    if which == "right" and z.real < 0:
        return False
    try:
        v = xi_bar(z)
    except CutError:
        return False
    scale = max(1.0, abs(v))
    return abs(v.real) <= _CURVE_TOL * scale


def domain_contains(z: complex, d: DomainId) -> bool:
    """Strict membership in the open validity domain (boundaries excluded)."""
    z = complex(z)
    tag = d.tag

    if tag.startswith("Z") and len(tag) == 3 and tag[1:].isdigit():
        j, k = int(tag[1]), int(tag[2])
        return _pair_domain_contains(z, j, k)

    if tag == "Z":
        # fig. 5: excludes -1, the cut and the region left of the level
        # curves emanating from z = -1
        if z.imag == 0.0 and z.real <= -1.0:
            return False
        w = complex(z.real, abs(z.imag))
        if w.real <= -1.0 + 1e-12:
            xi = xi_minus(w)
            if xi.real >= -_CURVE_TOL * max(1.0, abs(xi)):
                return False
        return True

    if tag == "Zb":
        # whole plane minus the cut (-inf,-1] and the fourth-quadrant
        # Im(xi)=0 level curve emanating from z=1
        if z.imag == 0.0 and z.real <= -1.0:
            return False
        if z.imag < 0:
            xi = xi_minus(z)
            if abs(xi.imag) <= _CURVE_TOL * max(1.0, abs(xi)) and xi.real < 0:
                return False
        return True

    if tag == "Zb0":
        if z.imag == 0.0 and (z.real <= -1.0 or z.real >= 1.0):
            return False
        if z.imag < 0:
            xi = xi_minus(z)
            if xi.imag <= _CURVE_TOL * max(1.0, abs(xi)):
                return False
        return True

    if tag == "Zb03":
        if abs(z.real) < 1e-12 and abs(z.imag) >= 1.0 - 1e-12:
            return False
        if z.real < 0:
            try:
                xb = xi_bar(z)
            except CutError:
                return False
            if abs(xb.imag) >= math.pi / 4.0 - _CURVE_TOL:
                return False
        return True

    raise ValueError(tag)


def _pair_domain_contains(z: complex, j: int, k: int) -> bool:
    if (j, k) == (1, 3):
        return False  # empty by the monotone-path obstruction
    if _on_pcfp_critical_curve(z, "any"):
        return False
    if abs(z.real) < 1e-12 and abs(z.imag) >= 1.0 - 1e-12:
        return False  # points on the cuts are boundary points for all pairs
    ok = {0: _reach_plus_inf, 2: _reach_minus_inf,
          1: _reach_plus_i_inf, 3: _reach_minus_i_inf}
    return ok[j](z) and ok[k](z)


def _reach_plus_inf(z: complex) -> bool:
    return not _on_pcfp_critical_curve(z, "left")


def _reach_minus_inf(z: complex) -> bool:
    return not _on_pcfp_critical_curve(z, "right")


def _reach_plus_i_inf(z: complex) -> bool:
    # monotone chains into +i*inf descend along the right side of the upper
    # cut; they are reachable only from Re z > 0 (or the positive real axis)
    if z.real > 1e-12:
        return True
    return z.imag == 0.0 and z.real > 0.0


def _reach_minus_i_inf(z: complex) -> bool:
    return _reach_plus_i_inf(z.conjugate())


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
        tps = (1j, -1j) if self.variant in ("PCF+", "WEB-") else (1.0, -1.0)
        for v in self.vertices:
            for tp in tps:
                if abs(v - tp) < TP_CLEARANCE:
                    raise NoPath(f"path vertex {v} within {TP_CLEARANCE} of "
                                 f"turning point {tp}")

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


def trace_level_curve(start: complex, variant: str, quantity: str = "re",
                      direction: int = +1, step: float = 0.01,
                      max_steps: int = 40000) -> PathPolyline:
    """Predictor-corrector trace of {Re xi = const} or {Im xi = const}.

    RK4 predictor on dz/ds = +-i conj(xi') / |xi'|, Newton corrector back
    onto the level set.  Terminates at |z| = BOX_RADIUS or on a cut;
    direction=0 returns the degenerate single-point polyline.
    """
    xi_fn, fp_fn = _variant_xi(variant)
    start = complex(start)
    if direction == 0:
        return PathPolyline([start], variant, quantity)
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
        # Newton correction onto the level set
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
        if min(abs(znew - tp) for tp in tps) < 10 * TP_CLEARANCE:
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
        if abs(z) >= BOX_RADIUS:
            break
        if variant in ("PCF+", "WEB-") and abs(z.real) < 0.5 * h and abs(z.imag) > 1.0:
            break  # reached a cut
    return PathPolyline(pts, variant, quantity)


# ----------------------------------------------------------------------
# monotone progressive paths for the bound integrals
# ----------------------------------------------------------------------

ENDPOINTS = ("+inf", "-inf", "+iinf", "-iinf",
             "e+ipi/4", "e-ipi/4", "e+3ipi/4", "e-3ipi/4")


def monotone_path(z: complex, endpoint_id: str, variant: str) -> PathPolyline:
    """Progressive path from `endpoint_id` to z with the variant's monotone
    quantity monotone along it (fig. 2 recipe: level-curve arc plus an
    axis-parallel ray, rotated per variant).

    Vertices are ordered from the far endpoint towards z.
    """
    z = complex(z)
    if endpoint_id not in ENDPOINTS:
        raise ValueError(f"unknown endpoint {endpoint_id!r}")

    if variant == "PCF+":
        return _pcfp_path(z, endpoint_id)
    if variant == "PCF-":
        return _pcfm_path(z, endpoint_id)
    if variant == "WEB-":
        return _webm_path(z, endpoint_id)
    if variant == "WEB+":
        return _webp_path(z, endpoint_id)
    raise ValueError(variant)


def _pcfp_path(z: complex, endpoint: str) -> PathPolyline:
    if endpoint == "-inf":
        mirror = _pcfp_path(-z, "+inf")
        return PathPolyline([-v for v in mirror.vertices], "PCF+", "re")
    if endpoint == "+inf":
        if _on_pcfp_critical_curve(z, "left"):
            raise NoPath("point on an excluded left-half-plane level curve")
        if z.real >= 0 or abs(z.imag) < 1.0 - TP_CLEARANCE:
            far = complex(BOX_RADIUS, z.imag)
            return PathPolyline([far, z], "PCF+", "re")
        # fig. 2: level-curve arc from z to the cut, then a horizontal ray
        arc = trace_level_curve(z, "PCF+", "re", direction=_arc_direction(z))
        cut_pt = arc.vertices[-1]
        if abs(cut_pt.real) > 0.05 and abs(cut_pt) < BOX_RADIUS - 1:
            raise NoPath(f"level-curve arc from {z} did not reach the cut")
        far = complex(BOX_RADIUS, cut_pt.imag)
        verts = [far] + [v for v in reversed(arc.vertices)]
        return PathPolyline(verts, "PCF+", "re")
    if endpoint == "+iinf":
        if not _reach_plus_i_inf(z):
            raise NoPath("no monotone chain from this point to +i*inf")
        return PathPolyline(_dedupe([complex(z.real, BOX_RADIUS), z]), "PCF+", "re")
    if endpoint == "-iinf":
        mirror = _pcfp_path(z.conjugate(), "+iinf")
        return PathPolyline([v.conjugate() for v in mirror.vertices], "PCF+", "re")
    raise NoPath(f"endpoint {endpoint} not used by variant PCF+")


def _arc_direction(z: complex) -> int:
    # trace towards the imaginary axis: pick the direction whose tangent
    # initially points right
    d = _sqrt_zz_plus_1(z)
    t = 1j * d.conjugate() / abs(d)
    return +1 if t.real > 0 else -1


def _pcfm_path(z: complex, endpoint: str) -> PathPolyline:
    # paths supporting the turning-point error estimates; Re(xi) monotone,
    # segments kept clear of the turning point z = 1
    if endpoint == "+inf":
        if abs(z.imag) >= 0.3 or z.real >= 1.3:
            verts = [complex(BOX_RADIUS, z.imag), z]
        else:
            ymid = 0.35 if z.imag >= 0 else -0.35
            verts = [complex(BOX_RADIUS, ymid), complex(z.real, ymid), z]
        return PathPolyline(_dedupe(verts), "PCF-", "re")
    if endpoint in ("+iinf", "-iinf"):
        sgn = 1.0 if endpoint == "+iinf" else -1.0
        xv = max(z.real, 0.15)
        verts = [complex(xv, sgn * BOX_RADIUS), complex(xv, z.imag), z]
        return PathPolyline(_dedupe(verts), "PCF-", "re")
    raise NoPath(f"endpoint {endpoint} not used by variant PCF-")


def _webm_path(z: complex, endpoint: str) -> PathPolyline:
    # WEB-: Im(xi_bar) monotone; endpoints on the diagonals
    if endpoint not in ("e+ipi/4", "e-ipi/4", "e+3ipi/4", "e-3ipi/4"):
        raise NoPath(f"endpoint {endpoint} not used by variant WEB-")
    if endpoint in ("e+3ipi/4", "e-3ipi/4"):
        mirror = _webm_path(-z, "e-ipi/4" if endpoint == "e+3ipi/4" else "e+ipi/4")
        return PathPolyline([-v for v in mirror.vertices], "WEB-", "im")
    sgn = 1.0 if endpoint == "e+ipi/4" else -1.0
    if sgn * z.imag < 0:
        # climb vertically through the axis first, then take the diagonal
        mirror_leg = [complex(z.real, sgn * 0.5), z]
        x1 = z.real
    else:
        mirror_leg = [complex(max(z.real + 1.0, 3.0), z.imag), z]
        x1 = max(z.real + 1.0, 3.0)
    t = BOX_RADIUS / math.sqrt(2.0)
    far = complex(x1 + t, mirror_leg[0].imag + sgn * t)
    verts = [far] + mirror_leg
    return PathPolyline(_dedupe(verts), "WEB-", "im")


def _webp_path(z: complex, endpoint: str) -> PathPolyline:
    # WEB+: Im(xi) monotone; vertical ray plus diagonal, right half plane
    if endpoint not in ("e+ipi/4", "e-ipi/4", "e+3ipi/4", "e-3ipi/4"):
        raise NoPath(f"endpoint {endpoint} not used by variant WEB+")
    sgn = 1.0 if endpoint in ("e+ipi/4", "e+3ipi/4") else -1.0
    x0 = max(abs(z.real), 0.15) + 0.5
    t = BOX_RADIUS / math.sqrt(2.0)
    far = complex(x0 + t, sgn * (max(sgn * z.imag, 0.5) + t))
    verts = [far, complex(x0, sgn * max(sgn * z.imag, 0.5)),
             complex(x0, z.imag), z]
    return PathPolyline(_dedupe(verts), "WEB+", "im")


def _dedupe(verts: list[complex]) -> list[complex]:
    out = [verts[0]]
    for v in verts[1:]:
        if abs(v - out[-1]) > 1e-13:
            out.append(v)
    return out


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
