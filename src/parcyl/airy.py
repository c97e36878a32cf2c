"""Airy functions Ai, Bi (complex argument, rotations), Scorer Hi and the
bounded particular solutions Wi^{(j,k)} of w'' - z w = 1, plus envelopes.

Evaluation layers (radii from scripts/airy_sweep.py):
  |z| <= 4.5          Maclaurin series in extended precision,
  4.5 < |z| <= 9.5    non-oscillatory integral representation,
  |z| > 9.5           Poincare expansions (rotated into |arg| <= 2pi/3).

Bi is always assembled from the rotation connection
Bi(z) = e^{-i pi/6} Ai_1(z) + e^{i pi/6} Ai_{-1}(z), which is cancellation-
free in every direction.

Scorer Hi has two layers:
  |z| <= 30           Gauss panel quadrature of its integral on a ray
                      rotated towards the saddle,
  |z| > 30            Poincare forms, with Bi added in the dominant sector.

Both panel quadratures (Hi, and the integral layer of Ai) evaluate all
their panels in one array pass: a (panels x 48) node array, summed by row.
Values whose exponent leaves the double range raise DomainError.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, check_points
from .quadrature import gauss

MACLAURIN_RADIUS = 4.5
ASYMPTOTIC_RADIUS = 9.5
HI_QUAD_RADIUS = 30.0

# largest real exponent a value may carry before it leaves the double range
_EXP_LIMIT = 700.0

_OM = cmath.exp(2j * math.pi / 3.0)  # e^{2 pi i/3}

# Gamma(1/3), Gamma(2/3) to extended precision (series constants)
_GAMMA_13 = np.longdouble("2.67893853470774763365569294097467764413")
_GAMMA_23 = np.longdouble("1.35411793942640041694528802815451378551")
_C1 = np.longdouble(3.0) ** (np.longdouble(-2) / 3) / _GAMMA_23   # Ai(0)
_C2 = np.longdouble(3.0) ** (np.longdouble(-1) / 3) / _GAMMA_13   # -Ai'(0)


@dataclass(frozen=True)
class AiryValue:
    ai: complex
    ai_prime: complex
    bi: complex
    bi_prime: complex
    method: str  # 'maclaurin', 'quadrature' or 'asymptotic'


def _maclaurin_pair(z: complex) -> tuple[complex, complex]:
    """(Ai, Ai') by the power series, accumulated in clongdouble."""
    zl = np.clongdouble(z)
    z3 = zl * zl * zl
    f = np.clongdouble(1.0); fp = np.clongdouble(0.0)
    g = zl; gp = np.clongdouble(1.0)
    tf = np.clongdouble(1.0); tg = zl
    zsafe = zl if z != 0 else np.clongdouble(1.0)
    for k in range(1, 400):
        tf = tf * z3 / np.clongdouble((3 * k) * (3 * k - 1))
        tg = tg * z3 / np.clongdouble((3 * k + 1) * (3 * k))
        f += tf
        g += tg
        fp += tf * np.clongdouble(3 * k) / zsafe
        gp += tg * np.clongdouble(3 * k + 1) / zsafe
        if (abs(complex(tf)) < 1e-42 * (abs(complex(f)) + 1e-300)
                and abs(complex(tg)) < 1e-42 * (abs(complex(g)) + 1e-300)
                and k > 6):
            break
    ai = _C1 * f - _C2 * g
    aip = _C1 * fp - _C2 * gp
    return complex(ai), complex(aip)


def _quad_pair(z: complex) -> tuple[complex, complex]:
    """(Ai, Ai') from Ai(z) = e^{-xi}/pi * int_0^inf e^{-sqrt z t^2} cos(t^3/3) dt,
    valid |arg z| < pi; non-oscillatory, so plain panel quadrature suffices."""
    z = complex(z)
    sz = cmath.sqrt(z)
    xi = (2.0 / 3.0) * z * sz
    s = max(sz.real, 0.2)
    T = max(15.0 / math.sqrt(s), 5.0)
    x, w = gauss(48)
    edges = np.linspace(0.0, math.sqrt(T), 15) ** 2
    a, b = edges[:-1, None], edges[1:, None]
    t = (0.5 * (b - a) * x + 0.5 * (a + b)).ravel()
    ww = (0.5 * (b - a) * w).ravel()
    f = np.exp(-sz * t * t) * np.cos(t ** 3 / 3.0)
    I0 = complex(np.sum(ww * f))
    I2 = complex(np.sum(ww * t * t * f))
    ai = cmath.exp(-xi) / math.pi * I0
    aip = -sz * ai - cmath.exp(-xi) / (2.0 * sz * math.pi) * I2
    return ai, aip


@lru_cache(maxsize=1)
def _uk_vk(n: int = 40) -> tuple[tuple[float, ...], tuple[float, ...]]:
    u = [1.0]
    for k in range(1, n):
        u.append(u[-1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / ((2 * k - 1) * 216.0 * k))
    v = [1.0] + [-(6 * k + 1) / (6.0 * k - 1) * u[k] for k in range(1, n)]
    return tuple(u), tuple(v)


def _asym_pair(z: complex) -> tuple[complex, complex]:
    """Poincare expansion, |arg z| <= 2pi/3 + slack; optimal truncation."""
    z = complex(z)
    xi = (2.0 / 3.0) * z ** 1.5
    if -xi.real > _EXP_LIMIT:
        raise DomainError("Airy value exceeds double range")
    u, v = _uk_vk()
    # beyond this k, xi^k leaves the double range and the terms are below
    # e^-600 of the first, too small to change either sum
    nterms = min(len(u), int(_EXP_LIMIT / max(math.log(abs(xi)), 1.0)) + 1)
    sa = 0j
    sb = 0j
    prev = math.inf
    for k in range(nterms):
        t = u[k] * (-1) ** k / xi ** k
        if abs(t) > prev:
            break
        sa += t
        sb += v[k] * (-1) ** k / xi ** k
        prev = abs(t)
    pre = cmath.exp(-xi) / (2.0 * math.sqrt(math.pi) * z ** 0.25)
    return pre * sa, -cmath.exp(-xi) * z ** 0.25 / (2.0 * math.sqrt(math.pi)) * sb


def _ai_pair(z: complex) -> tuple[complex, complex]:
    z = complex(z)
    r = abs(z)
    if r <= MACLAURIN_RADIUS:
        return _maclaurin_pair(z)
    ang = cmath.phase(z)
    if r <= ASYMPTOTIC_RADIUS:
        if abs(ang) <= 2.4:
            return _quad_pair(z)
    else:
        # sector must reach past 2pi/3 so the rotation recursion terminates
        if abs(ang) <= 2.0 * math.pi / 3.0 + 0.15:
            return _asym_pair(z)
    # rotate into well-conditioned sectors:
    # Ai(z) = -e^{-2pi i/3} Ai(z e^{-2pi i/3}) - e^{2pi i/3} Ai(z e^{2pi i/3})
    am, amp = _ai_pair(z / _OM)
    ap, app = _ai_pair(z * _OM)
    ai = -am / _OM - ap * _OM
    aip = -amp / (_OM * _OM) - app * _OM * _OM
    return ai, aip


def airy(z: complex, rotation: int = 0) -> AiryValue:
    """Ai_l, Bi and derivatives; Ai_l(z) := Ai(z e^{-2 pi i l/3})."""
    check_points(z)
    z = complex(z)
    if rotation not in (0, 1, -1):
        raise ValueError("rotation must be 0 or +-1")
    zr = z * cmath.exp(-2j * math.pi * rotation / 3.0)
    r = abs(z)
    method = ("maclaurin" if r <= MACLAURIN_RADIUS
              else "quadrature" if r <= ASYMPTOTIC_RADIUS else "asymptotic")
    ai_r, aip_r = _ai_pair(zr)
    # report Ai_l and d/dz Ai_l(z) (chain rule on the rotation)
    rot = cmath.exp(-2j * math.pi * rotation / 3.0)
    ai, aip = ai_r, aip_r * rot
    a1, a1p = _ai_pair(z / _OM)
    am1, am1p = _ai_pair(z * _OM)
    bi = cmath.exp(-1j * math.pi / 6.0) * a1 + cmath.exp(1j * math.pi / 6.0) * am1
    bip = (cmath.exp(-1j * math.pi / 6.0) * a1p / _OM
           + cmath.exp(1j * math.pi / 6.0) * am1p * _OM)
    if z.imag == 0.0 and rotation == 0:
        ai, aip, bi, bip = (w.real + 0j for w in (ai, aip, bi, bip))
    return AiryValue(ai, aip, bi, bip, method)


# ----------------------------------------------------------------------
# Scorer function Hi and the Wi family
# ----------------------------------------------------------------------

def _hi_quad(z: complex) -> tuple[complex, complex]:
    """(Hi, Hi') by quadrature of (1/pi) int_0^inf exp(-t^3/3 + z t) dt.

    The ray is rotated towards the saddle direction arg(z)/2 (clamped inside
    the convergence sector), which removes the catastrophic cancellation
    near the anti-Stokes directions; panel widths track the local phase
    rate.  Each panel is summed at its own log-scale m, and the panel sums
    are combined with the weights exp(m - max m), so the dominant sector
    cannot overflow intermediate terms.
    """
    z = complex(z)
    phi = max(min(cmath.phase(z) / 2.0 if z != 0 else 0.0,
                  math.pi / 6.0 - 0.03), -(math.pi / 6.0 - 0.03))
    e1 = cmath.exp(1j * phi)
    e3 = e1 * e1 * e1
    c3 = max(e3.real, 0.08)
    zr = z * e1
    T = (3.0 * (760.0 + 2.0 * max(zr.real, 0.0) ** 1.5) / c3) ** (1.0 / 3.0)
    ends = [0.0]
    while ends[-1] < T:
        s_lo = ends[-1]
        rate = abs(e3.imag) * s_lo * s_lo + abs(zr.imag) + 1.0
        ds = min(max(T / 20.0, 0.3), 10.0 / rate + 0.05)
        ends.append(min(s_lo + ds, T))
    x, w = gauss(48)
    a, b = np.array(ends[:-1])[:, None], np.array(ends[1:])[:, None]
    t = 0.5 * (b - a) * x + 0.5 * (a + b)
    ww = 0.5 * (b - a) * w
    expo = -e3 * t ** 3 / 3.0 + zr * t
    # one log-scale per panel; panels below the double range are dropped
    m = expo.real.max(axis=1)
    keep = m > -745.0
    if not keep.any():
        return 0j, 0j
    t, ww, expo, m = t[keep], ww[keep], expo[keep], m[keep]
    mtop = float(m.max())
    if mtop >= _EXP_LIMIT:
        raise DomainError("Scorer value exceeds double range")
    g = np.exp(expo - m[:, None])
    r = np.exp(m - mtop)
    I0 = complex(r @ (ww * g).sum(axis=1))
    I1 = complex(r @ (ww * t * g).sum(axis=1))
    scale = cmath.exp(mtop)
    return I0 * e1 * scale / math.pi, I1 * e1 * e1 * scale / math.pi


def _hi_asym(z: complex) -> tuple[complex, complex]:
    """Poincare forms: -1/(pi z) sum (3k)!/(k! (3 z^3)^k) away from the
    anti-Stokes rays arg z = +-pi/3; Bi plus that series in the dominant
    sector; inside the anti-Stokes bands the rotation identity
    Hi(z) = e^{+-2pi i/3} Hi(z e^{+-2pi i/3}) + 2 e^{-+i pi/6} Ai(z e^{-+2pi i/3})
    maps the evaluation onto well-conditioned directions."""
    z = complex(z)
    ang = cmath.phase(z)
    if math.pi / 3.0 - 0.25 < abs(ang) < math.pi / 3.0 + 0.3:
        sgn = 1.0 if ang > 0 else -1.0
        rot = cmath.exp(sgn * 2j * math.pi / 3.0)
        ph = cmath.exp(-sgn * 1j * math.pi / 6.0)
        h, hp = _hi_pair(z * rot)
        ai, aip = _ai_pair(z / rot)
        return (rot * h + 2.0 * ph * ai,
                rot * rot * hp + 2.0 * ph * aip / rot)
    s0 = 0j
    s1 = 0j  # derivative series
    z3 = 3.0 * z ** 3
    t = 1.0 / z  # (3k)!/(k! (3 z^3)^k) / z, by its term ratio
    prev = math.inf
    k = 0
    while k < 40:
        if abs(t) > prev:
            break
        s0 += t
        s1 += (3 * k + 1) * t / z
        prev = abs(t)
        k += 1
        t = t * ((3 * k) * (3 * k - 1) * (3 * k - 2)) / (k * z3)
    hi = -s0 / math.pi
    hip = s1 / math.pi
    if abs(cmath.phase(-z)) <= 2.0 * math.pi / 3.0 - 0.25:
        return hi, hip
    v = airy(z)
    return v.bi + hi, v.bi_prime + hip


def scorer_hi(z: complex) -> complex:
    return _hi_pair(z)[0]


def scorer_hi_prime(z: complex) -> complex:
    return _hi_pair(z)[1]


@lru_cache(maxsize=1)
def _hi_pair(z: complex) -> tuple[complex, complex]:
    """(Hi, Hi') at z; the last pair is kept, because Wi and Wi' are asked
    for at the same point one after the other."""
    check_points(z)
    z = complex(z)
    if abs(z) <= HI_QUAD_RADIUS:
        hi, hip = _hi_quad(z)
    else:
        hi, hip = _hi_asym(z)
    if z.imag == 0.0:
        hi, hip = hi.real + 0j, hip.real + 0j
    return hi, hip


_WI_ROT = {(-1, 1): 0.0, (0, 1): -2.0 * math.pi / 3.0, (-1, 0): 2.0 * math.pi / 3.0}


def wi(z: complex, pair: tuple[int, int]) -> complex:
    """Wi^{(j,k)}(z): bounded particular solutions of w'' - z w = 1."""
    return _wi_pair(z, pair)[0]


def wi_prime(z: complex, pair: tuple[int, int]) -> complex:
    return _wi_pair(z, pair)[1]


def _wi_pair(z: complex, pair: tuple[int, int]) -> tuple[complex, complex]:
    if pair not in _WI_ROT:
        raise ValueError(f"pair must be one of {sorted(_WI_ROT)}")
    th = _WI_ROT[pair]
    rot = cmath.exp(1j * th)
    hi, hip = _hi_pair(complex(z) * rot)
    return math.pi * rot * hi, math.pi * rot * rot * hip


# ----------------------------------------------------------------------
# envelopes
# ----------------------------------------------------------------------

@lru_cache(maxsize=1)
def _env_crossing() -> float:
    """Abscissa c with Ai(c) = Bi(c) (the envelope splice point)."""
    lo, hi = -1.0, 0.0
    f = lambda x: (airy(x).ai - airy(x).bi).real
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo = mid
            flo = fm
        if hi - lo < 1e-15:
            break
    return 0.5 * (lo + hi)


def env_airy(x: float) -> tuple[float, float]:
    """(envAi, envBi): modulus envelope below the Ai-Bi crossing, sqrt(2)
    times the function above it."""
    x = float(x)
    v = airy(x)
    c = _env_crossing()
    if x <= c:
        m = math.hypot(v.ai.real, v.bi.real)
        return m, m
    return math.sqrt(2.0) * v.ai.real, math.sqrt(2.0) * v.bi.real
