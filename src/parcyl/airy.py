"""Airy functions Ai, Bi (complex argument, rotations), Scorer Hi and the
bounded particular solutions Wi^{(j,k)} of w'' - z w = 1, plus envelopes.

Evaluation layers (radii from scripts/airy_sweep.py):
  |z| <= 4.5          Maclaurin series in extended precision,
  4.5 < |z| <= 9.5    non-oscillatory integral representation,
  |z| > 9.5           Poincare expansions (rotated into |arg| <= 2pi/3).

Ai_l and Bi = e^{-i pi/6} Ai_1 + e^{i pi/6} Ai_{-1} (cancellation-free in
every direction) come from Ai at the three points p_k = z e^{-2 pi i k/3},
k = 0, +-1, each formed as a product.  They share a layer, and at most one
lies outside its sector; that one comes from the other two by DLMF 9.2.12
(`_rotated_ai`).  So a call evaluates each point at most once, and
airy(conj z) = conj airy(z) bit for bit.

Scorer Hi has two layers:
  |z| <= 30           Gauss panel quadrature of its integral on a ray
                      rotated towards the saddle,
  |z| > 30            Poincare forms in powers of 1/z, with Bi added in the
                      dominant sector.

The Hi ray ends where its omitted tail is certified below rounding: on the
ray the integrand's log-modulus is a cubic L(s), the ray is cut where L has
fallen about 40 + 2 ln(1 + |z|) below its peak (~23 panels a call), and
after the sum a closed-form bound on the tails of Hi and Hi' is checked
against the computed values, so cancellation in Hi is counted; near zeros
of Hi or Hi' the ray is extended and summed again, never beyond the end
that leaves a tail e^-760 below the peak.

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
from .quadrature import _panels

MACLAURIN_RADIUS = 4.5
ASYMPTOTIC_RADIUS = 9.5
HI_QUAD_RADIUS = 30.0

# largest real exponent a value may carry before it leaves the double range
_EXP_LIMIT = 700.0

_OM = cmath.exp(2j * math.pi / 3.0)  # w = e^{2 pi i/3}
# w^n by n mod 3; w^2 is the exact conjugate of w, so that every rotation
# commutes with conjugation
_W = (1.0 + 0j, _OM, _OM.conjugate())
_E6 = cmath.exp(1j * math.pi / 6.0)

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
    t, ww = _panels(np.linspace(0.0, math.sqrt(T), 15) ** 2, 48)
    t, ww = t.ravel(), ww.ravel()
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
    if 1.5 * math.log(abs(z)) > _EXP_LIMIT:
        # xi = (2/3) z^{3/2} would leave the double range, and so does
        # e^{-xi} unless it underflows to 0
        if math.cos(1.5 * cmath.phase(z)) < 0.0:
            raise DomainError("Airy value exceeds double range")
        return 0j, 0j
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


def _rotated_ai(z: complex, ks) -> dict[int, tuple[complex, complex]]:
    """Ai_k(z) = Ai(p_k) and d/dz Ai_k(z) for each k in `ks`, a subset of
    {0, 1, -1}, at the points p_k = z w^{-k}, w = e^{2pi i/3}.

    The three points share |z| and so a layer, and a layer's out-of-sector
    arc (|arg| > 2.4 for the quadrature, > 2pi/3 + 0.15 for the Poincare
    expansion) is narrower than their 2pi/3 spacing: at most one point lies
    outside its sector.  Where that point is asked for it comes from the
    other two through sum_k w^{-k} Ai_k(z) = 0 (DLMF 9.2.12), which holds
    for the z-derivatives as it stands.  Each leaf is evaluated at most once.
    """
    r = abs(z)
    if r <= MACLAURIN_RADIUS:
        leaf, arc = _maclaurin_pair, math.inf
    elif r <= ASYMPTOTIC_RADIUS:
        leaf, arc = _quad_pair, 2.4
    else:
        leaf, arc = _asym_pair, 2.0 * math.pi / 3.0 + 0.15
    pts = {k: z * _W[-k % 3] for k in (0, 1, -1)}
    out = [k for k, p in pts.items() if abs(cmath.phase(p)) > arc]
    bad = out[0] if out else None
    need = set(pts) if bad in ks else set(ks)
    vals = {}
    for k in need - {bad}:
        ai, aip = leaf(pts[k])
        vals[k] = (ai, aip * _W[-k % 3])  # chain rule on the rotation
    if bad in need:
        others = [k for k in (0, 1, -1) if k != bad]
        vals[bad] = tuple(-sum(_W[(bad - k) % 3] * vals[k][j] for k in others)
                          for j in (0, 1))
    return vals


def _checked(z: complex) -> complex:
    """z as a complex number; ArgumentError unless it is finite, and
    DomainError where its modulus leaves the double range."""
    check_points(z)
    z = complex(z)
    if math.hypot(z.real, z.imag) == math.inf:
        raise DomainError(f"|z| of z={z!r} exceeds double range")
    return z


def airy(z: complex, rotation: int = 0) -> AiryValue:
    """Ai_l, Bi and derivatives; Ai_l(z) := Ai(z e^{-2 pi i l/3})."""
    z = _checked(z)
    if rotation not in (0, 1, -1):
        raise ValueError("rotation must be 0 or +-1")
    r = abs(z)
    method = ("maclaurin" if r <= MACLAURIN_RADIUS
              else "quadrature" if r <= ASYMPTOTIC_RADIUS else "asymptotic")
    vals = _rotated_ai(z, (rotation, 1, -1))
    ai, aip = vals[rotation]
    e6 = _E6.conjugate()
    bi, bip = (e6 * a1 + _E6 * am1 for a1, am1 in zip(vals[1], vals[-1]))
    if z.imag == 0.0 and rotation == 0:
        ai, aip, bi, bip = (w.real + 0j for w in (ai, aip, bi, bip))
    return AiryValue(ai, aip, bi, bip, method)


# ----------------------------------------------------------------------
# Scorer function Hi and the Wi family
# ----------------------------------------------------------------------

# Hi's ray ends where its omitted tail is below this share of |Hi| and |Hi'|
_HI_TAIL_TOL = 0.25 * float(np.finfo(float).eps)


def _hi_ray(z: complex, drop: float) -> tuple[complex, np.ndarray, bool]:
    """The ray t = s e^{i phi} of Hi's integral and its panel ends on [0, T].

    phi is arg(z)/2, the saddle direction, clamped inside the convergence
    sector; this removes the catastrophic cancellation near the anti-Stokes
    directions.  On the ray the integrand's log-modulus is the cubic
    L(s) = -c s^3/3 + b s, with c = Re e^{3 i phi} >= sin 0.09 and
    b = Re(z e^{i phi}), whose peak is at sqrt(b/c) for b > 0 and at 0
    otherwise.  T is where L has fallen drop + ln(1 + T) below the peak,
    capped at the end that leaves a tail e^-760 below it.  Panel widths
    track the local phase rate.
    Returns (e^{i phi}, panel ends, whether T is at the cap).
    """
    phi = max(min(cmath.phase(z) / 2.0 if z != 0 else 0.0,
                  math.pi / 6.0 - 0.03), -(math.pi / 6.0 - 0.03))
    e1 = cmath.exp(1j * phi)
    e3 = e1 * e1 * e1
    zr = z * e1
    c, b = e3.real, zr.real
    T_max = (3.0 * (760.0 + 2.0 * max(b, 0.0) ** 1.5) / c) ** (1.0 / 3.0)
    floor = (2.0 / 3.0 * b * math.sqrt(b / c) if b > 0.0 else 0.0) - drop
    # Newton on g(T) = L(T) + ln(1 + T) - floor from T_max, right of its
    # root: g is concave, so every iterate stays right of the root
    T = T_max
    for _ in range(20):
        g = -c * T ** 3 / 3.0 + b * T + math.log1p(T) - floor
        if g >= 0.0:
            break
        step = g / (-c * T * T + b + 1.0 / (1.0 + T))
        T -= step
        if step < 1e-3:
            break
    ends = [0.0]
    while ends[-1] < T:
        s_lo = ends[-1]
        rate = abs(e3.imag) * s_lo * s_lo + abs(zr.imag) + 1.0
        ds = min(max(T / 20.0, 0.3), 10.0 / rate + 0.05)
        ends.append(min(s_lo + ds, T))
    return e1, np.array(ends), T == T_max


def _hi_tail_excess(c: float, b: float, T: float, mtop: float,
                    sums: tuple[complex, complex]) -> float:
    """ln of the largest ratio of an omitted tail int_T^inf s^j e^{L(s)} ds
    (j = 0: Hi, j = 1: Hi') to _HI_TAIL_TOL |I_j| e^mtop, where I_j are the
    sums at scale e^mtop; the tails are certified where this is <= 0.
    Beyond the peak L' + j/s decreases, so each tail is at most
    T^j e^{L(T)} / (|L'(T)| - j/T) when that divisor is positive."""
    L_T = -c * T ** 3 / 3.0 + b * T - mtop
    excess = -math.inf
    for j, I in enumerate(sums):
        kappa = c * T * T - b - j / T
        if kappa <= 0.0 or I == 0:
            return math.inf
        excess = max(excess, j * math.log(T) + L_T - math.log(kappa)
                     - math.log(_HI_TAIL_TOL * abs(I)))
    return excess


def _hi_quad(z: complex) -> tuple[complex, complex, tuple[complex, np.ndarray]]:
    """(Hi, Hi') by quadrature of (1/pi) int_0^inf exp(-t^3/3 + z t) dt, and
    the ray (e^{i phi}, panel ends) they were summed on (see _hi_ray).

    The ray ends where the omitted tail is certified below rounding.  It is
    first cut where L has fallen ln(1/_HI_TAIL_TOL) + 2 ln(1 + |z|) below its
    peak (the second term allows for |Hi'| ~ |z|^-2 of the peak on the
    recessive side).  After the sum both tails are checked against their
    closed-form bound relative to the computed sums (_hi_tail_excess), so
    cancellation in Hi itself is counted; where a check fails, near zeros
    of Hi or Hi', the ray is extended by the missing fall and summed again,
    up to the e^-760 end.  Each panel is summed at its own log-scale m, and
    the panel sums are combined with the weights exp(m - max m), so the
    dominant sector cannot overflow intermediate terms.
    """
    z = complex(z)
    drop = -math.log(_HI_TAIL_TOL) + 2.0 * math.log1p(abs(z))
    while True:
        e1, ends, capped = _hi_ray(z, drop)
        e3 = e1 * e1 * e1
        zr = z * e1
        t, ww = _panels(ends, 48)
        expo = -e3 * t ** 3 / 3.0 + zr * t
        # one log-scale per panel
        m = expo.real.max(axis=1)
        mtop = float(m.max())
        if mtop >= _EXP_LIMIT:
            raise DomainError("Scorer value exceeds double range")
        g = np.exp(expo - m[:, None])
        r = np.exp(m - mtop)
        I0 = complex(r @ (ww * g).sum(axis=1))
        I1 = complex(r @ (ww * t * g).sum(axis=1))
        excess = _hi_tail_excess(e3.real, zr.real, float(ends[-1]), mtop,
                                 (I0, I1))
        if excess <= 0.0 or capped:
            break
        drop += excess + 1.0
    scale = cmath.exp(mtop)
    return (I0 * e1 * scale / math.pi, I1 * e1 * e1 * scale / math.pi,
            (e1, ends))


def _hi_asym(z: complex) -> tuple[complex, complex]:
    """Poincare forms: -1/(pi z) sum (3k)!/(k! (3 z^3)^k) away from the
    anti-Stokes rays arg z = +-pi/3; Bi plus that series in the dominant
    sector; inside the anti-Stokes bands the rotation identity
    Hi(z) = e^{+-2pi i/3} Hi(z e^{+-2pi i/3}) + 2 e^{-+i pi/6} Ai(z e^{-+2pi i/3})
    maps the evaluation onto well-conditioned directions."""
    z = complex(z)
    ang = cmath.phase(z)
    if math.pi / 3.0 - 0.25 < abs(ang) < math.pi / 3.0 + 0.3:
        sgn = 1 if ang > 0 else -1
        rot = cmath.exp(sgn * 2j * math.pi / 3.0)
        ph = cmath.exp(-sgn * 1j * math.pi / 6.0)
        h, hp = _hi_pair(z * rot)
        ai, aip = _rotated_ai(z, (sgn,))[sgn]
        return (rot * h + 2.0 * ph * ai,
                rot * rot * hp + 2.0 * ph * aip)
    s0 = 0j
    s1 = 0j  # derivative series
    # in powers of 1/z, which stay in range where z^3 would overflow
    w = 1.0 / z
    w3 = w * w * w / 3.0
    t = w  # (3k)!/(k! (3 z^3)^k) / z, by its term ratio
    prev = math.inf
    k = 0
    while k < 40:
        if abs(t) > prev:
            break
        s0 += t
        s1 += (3 * k + 1) * t * w
        prev = abs(t)
        k += 1
        t = t * ((3 * k) * (3 * k - 1) * (3 * k - 2)) / k * w3
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
    z = _checked(z)
    if abs(z) <= HI_QUAD_RADIUS:
        hi, hip, _ = _hi_quad(z)
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

#: abscissa c with Ai(c) = Bi(c), the envelope splice point (the double
#: nearest the root, from mpmath at 40 digits; pinned in tests/test_airy.py)
ENV_CROSSING = -0.36604632808053505


def env_airy(x: float) -> tuple[float, float]:
    """(envAi, envBi): modulus envelope below the Ai-Bi crossing, sqrt(2)
    times the function above it."""
    x = float(x)
    return _envelope(x, airy(x))


def _envelope(x: float, v: AiryValue) -> tuple[float, float]:
    """env_airy(x) from the Airy value v at the real point x."""
    if x <= ENV_CROSSING:
        m = math.hypot(v.ai.real, v.bi.real)
        return m, m
    return math.sqrt(2.0) * v.ai.real, math.sqrt(2.0) * v.bi.real
