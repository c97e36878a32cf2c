"""Independent reference values.

Everything here is built only from the integral representations, the
variation-of-parameters formulas and gamma-function data at the origin;
none of the asymptotic machinery is used, so acceptance comparisons are
non-circular.

Methods: quadrature of the two integral representations of U on one
polyline helper (`_path_integral`): a ray turned against arg z for
Re z >= 0, and for Re z < 0 a leg from 0 to the saddle of the integrand
and a ray on from it (Gil, Segura & Temme, ACM TOMS 32, 2006, carried to
complex argument); renormalized Taylor-series sweeps (`_sweep`) of the
defining equations y'' = (q0 + q1 z + q2 z^2) y + z^R, whose local
coefficients follow from an exact three-term recurrence (Jorba & Zou,
Exp. Math. 14, 2005), run for two basis solutions at every step at once
and applied as per-step transition matrices (van der Hoeven, Theoret.
Comput. Sci. 210, 1999), always from the recessive towards the dominant
side, with each step's series kept as the dense output along a line; and
variation-of-parameters quadrature for the inhomogeneous solutions, whose
moment panels are the steps of the line sweeps.

Every value carries an accuracy estimate and is refused if it exceeds
ACC_LIMIT = 1e-8.  A quadrature's estimate is the larger of its distance
to a second resolution and its rounding floor, which counts the size of
every exponent and the cancellation int |f| / |int f|; a swept value's is
its distance to a second, independent sweep with another step length; a
sum of two oracle values (U' from U, U- off the axis and V- from U at
+-iz) takes sum |term_k| est_k / |sum term_k|, which sees their
cancellation.  The oracle needs numpy only: its lnGamma (`_log_gamma`) is
its own, math.lgamma on the real line and Stirling's series after an
upward shift off it (Hare, J. Algorithms 25, 1997).
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coeffs import check_forcing_degree
from .errors import AccuracyError, DomainError, StiffnessError
from .quadrature import _panels, gauss
from .scaled import ScaledComplex, sum_rel

ACC_LIMIT = 1e-8
EPS = sys.float_info.epsilon
_LN2 = math.log(2.0)

@dataclass(frozen=True)
class OracleValue:
    value: ScaledComplex
    est_acc: float
    method: str

    def to_complex(self) -> complex:
        return self.value.to_complex()


def _certify(best: ScaledComplex, other: ScaledComplex, method: str,
             floor: float = 0.0) -> OracleValue:
    """best, with the larger of its relative distance to a second
    resolution and the rounding floor as its estimate."""
    if best.is_zero() and other.is_zero():
        return _checked(best, floor, method)
    denom = max(best.abs().log_abs, other.abs().log_abs)
    diff = (best - other).abs()
    est = math.exp(min(diff.log_abs - denom, 50.0)) if not diff.is_zero() else 0.0
    return _checked(best, max(est, floor), method)


def _checked(value: ScaledComplex, est: float, method: str) -> OracleValue:
    """The value with its estimate, refused above ACC_LIMIT."""
    if est > ACC_LIMIT:
        raise AccuracyError(f"oracle self-estimate {est:.3g} above {ACC_LIMIT:.1g}")
    return OracleValue(value, est, method)


def _combine(terms, method: str) -> OracleValue:
    """The sum of (value, est_acc) terms with `sum_rel`'s figure, refused
    above ACC_LIMIT."""
    return _checked(*sum_rel(terms), method)


#: B_2m / (2m (2m-1)), m = 1..10: the first term of Stirling's series for
#: lnGamma(w) left out is far below eps |lnGamma(w)| for Re w >= 0 and
#: |w| >= _STIRLING_R
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360,
             1 / 156, -3617 / 122400, 43867 / 244188, -174611 / 125400)
_STIRLING_R = 10.0
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _log_gamma_ulps(z) -> tuple[complex, float]:
    """The principal branch of lnGamma(z), and a bound on its absolute
    error in units of eps.

    Real z: math.lgamma, with Im = -pi ceil(-z) below 0 (the sign of
    Gamma there, on the branch that lnGamma(z+1) = lnGamma(z) + log z
    continues), and +inf at the poles.  Complex z: shifted up to w = z + N
    with Re w >= _STIRLING_R, or only into Re w >= 0 where
    |Im z| >= _STIRLING_R, then lnGamma(z) = lnGamma(w) - sum log(z + k)
    with lnGamma(w) from Stirling's series.

    The bound is 3 (|lnGamma(z)| + S) + 8, S = sum |log(z + k)| over the
    shift: the series at w and math.lgamma are within 1.5 |lnGamma| eps,
    |lnGamma(w)| <= |lnGamma(z)| + S, and the logs and the final
    subtraction add S and |lnGamma(z)|; near its zeros at 1 and 2
    math.lgamma is off by up to 7 eps absolute."""
    z = complex(z)
    if z.imag == 0.0:
        x = z.real
        if x <= 0.0 and x == math.floor(x):
            return complex(math.inf), 0.0
        lg = complex(math.lgamma(x), 0.0 if x > 0.0 else -math.pi * math.ceil(-x))
        return lg, 3.0 * abs(lg) + 8.0
    if abs(z.imag) < _STIRLING_R:
        shift = max(math.ceil(_STIRLING_R - z.real), 0)
    else:
        shift = max(math.ceil(-z.real), 0)
    logs = [cmath.log(z + k) for k in range(shift)]
    w = z + shift
    r = 1.0 / (w * w)
    series = 0j
    for c in reversed(_STIRLING):
        series = series * r + c
    lg = ((w - 0.5) * cmath.log(w) - w + _HALF_LOG_2PI + series / w
          - complex(math.fsum(l.real for l in logs),
                    math.fsum(l.imag for l in logs)))
    return lg, 3.0 * (abs(lg) + sum(abs(l) for l in logs)) + 8.0


def _log_gamma(z) -> complex:
    return _log_gamma_ulps(z)[0]


# ----------------------------------------------------------------------
# quadrature: one polyline, on the panels of `quadrature._panels`
# ----------------------------------------------------------------------

def _path_integral(a, c: complex, ea: complex, s_max: float, n: int,
                   npanel: int, tail=()) -> tuple[ScaledComplex, float]:
    """int t^{a-1/2} e^{-t^2/2 + ct} dt on the polyline from 0 through
    ea s_max and then each vertex of `tail`.  The first leg is t = ea v^2,
    v^2 up to s_max (the substitution kills the endpoint singularity); each
    further leg gets npanel equal Gauss panels.  Every panel of every leg
    is one row of one array: each row is summed relative to its own peak,
    rows below e^-745 are dropped, and the rest are recombined on the
    largest peak.

    Returns the integral and its rounding error in units of eps, relative
    to it: each node's exponent is rounded to eps times the sum of its
    terms' sizes, Phi(t) = |(a-1/2) log t| + |t|^2/2 + |ct|, and its
    exponential to eps, so the sum is off by at most
    eps int |f| (Phi + 1) |dt|, which also counts any cancellation."""
    v, vw = _panels(np.linspace(0.0, s_max ** 0.25, npanel + 1) ** 2, n)
    # on the first leg log t = 2 log v + log ea and log dt = log(2 ea v) come
    # from the real log v; numpy's complex log is several times slower than
    # its parts, which the other legs take instead
    log_v, log_ea = np.log(v), cmath.log(ea)
    t, log_t, log_dt, ww = [ea * v * v], [2.0 * log_v + log_ea], \
        [log_v + (_LN2 + log_ea)], [vw]
    if tail:
        s, sw = _panels(np.linspace(0.0, 1.0, npanel + 1), n)
        start = ea * s_max
        for end in tail:
            leg = start + (end - start) * s
            t.append(leg)
            log_t.append(np.log(np.abs(leg)) + 1j * np.angle(leg))
            log_dt.append(np.full(s.shape, cmath.log(end - start)))
            ww.append(sw)
            start = end
    t, log_t, log_dt, ww = (np.concatenate(x) for x in (t, log_t, log_dt, ww))
    logf = (a - 0.5) * log_t - 0.5 * t * t + c * t + log_dt
    peak = np.max(logf.real, axis=1)
    keep = ~(peak < -745.0)
    if not keep.any():
        return ScaledComplex(0j, 0.0), math.inf
    t, log_t, logf, ww, peak = t[keep], log_t[keep], logf[keep], ww[keep], peak[keep]
    mtop = float(np.max(peak))
    scale = np.exp(logf - peak[:, None])
    abs_t = np.abs(t)
    size = abs(a - 0.5) * np.abs(log_t) + abs_t * (0.5 * abs_t + abs(c))
    rows = np.exp(peak - mtop)
    total = complex(np.sum(ww * scale, axis=1) @ rows)
    err = float(np.sum(ww * np.abs(scale) * (size + 1.0), axis=1) @ rows)
    return (ScaledComplex.from_complex(total) * ScaledComplex.from_log(mtop),
            err / abs(total) if total else math.inf)


# ----------------------------------------------------------------------
# U(a, z): quadrature of the integral representations
# ----------------------------------------------------------------------

def _u_pos_integral(a, Z: complex, n: int,
                    npanel: int) -> tuple[ScaledComplex, float]:
    """Gamma(a+1/2) e^{Z^2/4} U(a,Z) = int_0^inf t^{a-1/2} e^{-t^2/2 - Zt} dt
    on a ray turned against arg Z.  Well conditioned for Re Z >= 0."""
    Z = complex(Z)
    a = complex(a)
    alpha = -max(min(cmath.phase(Z) if Z != 0 else 0.0, 0.75), -0.75)
    ea = cmath.exp(1j * alpha)
    ca = math.cos(2 * alpha)
    b = (Z * ea).real
    c2 = max(a.real - 0.5, 0.25)
    s_peak = (-b + math.sqrt(b * b + 4.0 * ca * c2)) / (2.0 * ca)
    s_max = s_peak * 9.0 + 12.0 / max(b, 0.5) + 6.0
    return _path_integral(a, -Z, ea, s_max, n, npanel)


def _u_saddle_integral(a: complex, Z: complex, n: int,
                       npanel: int) -> tuple[ScaledComplex, float]:
    """The same integral for Re Z < 0, where a ray from 0 cancels: on the
    path from 0 to the saddle t_s of phi(t) = (a-1/2) log t - t^2/2 - Zt,
    the root of t^2 + Zt - (a-1/2) with the larger real part (so
    Re t_s > Re(-Z)/2 > 0), then on a ray into |arg t| < pi/4 long enough
    that Re phi has fallen 40 below its peak and is still falling."""
    root = cmath.sqrt(Z * Z + 4.0 * (a - 0.5))
    ts = max((-Z + root) / 2.0, (-Z - root) / 2.0, key=lambda t: t.real)
    # steepest descent: phi''(t_s) d^2 < 0, turned into the sector
    alpha = -0.5 * cmath.phase(1.0 + (a - 0.5) / (ts * ts))
    alpha = max(min(alpha, math.pi / 4.0 - 0.12), -(math.pi / 4.0 - 0.12))
    d = cmath.exp(1j * alpha)
    peak = ((a - 0.5) * cmath.log(ts) - 0.5 * ts * ts - Z * ts).real
    s = 0.5
    for _ in range(100):
        end = ts + s * d
        re_phi = ((a - 0.5) * cmath.log(end) - 0.5 * end * end - Z * end).real
        falling = (((a - 0.5) / end - end - Z) * d).real < 0.0
        if re_phi < peak - 40.0 and falling:
            break
        peak = max(peak, re_phi)
        s *= 1.25
    else:
        raise AccuracyError(f"no decaying ray from the saddle {ts}")
    return _path_integral(a, -Z, ts / abs(ts), abs(ts), n, npanel, (end,))


def _u_quad(a, Z: complex, n: int, npanel: int) -> tuple[ScaledComplex, float]:
    """U(a, Z) by quadrature, and its relative rounding floor."""
    a = complex(a)
    Z = complex(Z)
    if Z.real < 0:
        integral, err = _u_saddle_integral(a, Z, n, npanel)
    elif abs(a.imag) > 1e-12:
        integral, err = _u_integral_logvar(a, Z, n)
    else:
        integral, err = _u_pos_integral(a, Z, n, npanel)
    lg, lg_ulps = _log_gamma_ulps(a + 0.5)
    pref = ScaledComplex.from_log_complex(-Z * Z / 4.0 - lg)
    return pref * integral, _rounding_floor(Z, err, lg_ulps)


def _u_from_integral(a, Z: complex, n: int, npanel: int) -> ScaledComplex:
    return _u_quad(a, Z, n, npanel)[0]


def _rounding_floor(Z: complex, err: float, lg_ulps: float) -> float:
    """Relative rounding error of U(a, Z) = e^{-Z^2/4 - lnGamma(a+1/2)} I
    when the integral I is off by eps err relative: the prefactor's
    exponent carries the rounding of Z^2 and of the sum, and lnGamma's
    error of lg_ulps eps (`_log_gamma_ulps`)."""
    return EPS * (err + abs(Z) ** 2 / 2.0 + lg_ulps)


def _u_integral_logvar(a: complex, Z: complex,
                       n: int) -> tuple[ScaledComplex, float]:
    """int_0^inf t^{a-1/2} e^{-t^2/2 - Zt} dt for complex a (Re a > -1/2),
    and its rounding error as `_path_integral` counts it.

    Substituting t = e^{i alpha} e^w makes the t^{Im a} oscillation uniform
    in w; the head below w0 is summed analytically from the Taylor series of
    exp(-q^2/2 - Zq), panels above track the local phase."""
    Z = complex(Z)
    alpha = -max(min(cmath.phase(Z) if Z != 0 else 0.0, 0.63), -0.63)
    ea = cmath.exp(1j * alpha)
    Zr = Z * ea
    q0 = min(0.05 / max(abs(Z), 1.0), 0.02)
    w0 = math.log(q0)
    # analytic head: sum c_k q0^{a+1/2+k}/(a+1/2+k), f = exp(-Zr q - q^2 e^{2ia}/2)
    c = [1.0 + 0j, -Zr]
    for k in range(1, 40):
        c.append((-Zr * c[k] - ea * ea * c[k - 1]) / (k + 1))
    s = a + 0.5
    head = 0j
    qpow = q0 ** complex(s)
    head_abs = 0.0
    for k, ck in enumerate(c):
        head += ck * qpow / (s + k)
        head_abs += abs(ck * qpow / (s + k))
        qpow *= q0
        if abs(ck * qpow) < 1e-25 * max(abs(head), 1e-30) and k > 6:
            break
    # main panels: integrand g(w) = e^{s w} exp(-e^{2ia} e^{2w}/2 - Zr e^w),
    # panel width tied to the local phase rate
    ca = max(math.cos(2 * alpha), 0.15)
    wmax = 0.5 * math.log(2.0 * (800.0 + 20.0 * abs(s)) / ca)
    if Zr.real < 0:
        wmax = max(wmax, math.log(abs(Zr.real) / (0.5 * ca) + 1.0) + 2.0)
    edges = [w0]
    while edges[-1] < wmax:
        w_lo = edges[-1]
        phase_rate = abs(math.sin(2 * alpha)) * math.exp(2 * w_lo) \
            + abs(Zr.imag) * math.exp(w_lo) + abs(a.imag) + 1.0
        edges.append(min(w_lo + min(1.0, 12.0 / phase_rate), wmax))
    t, ww = _panels(edges, n)
    q = np.exp(t)
    g = ww * np.exp(s * t - (ea * ea) * q * q / 2.0 - Zr * q)
    acc = complex(np.sum(g))
    err = head_abs * (abs(s * w0) + 1.0) + float(np.sum(
        np.abs(g) * (np.abs(s * t) + 0.5 * q * q + abs(Zr) * q + 1.0)))
    return (ScaledComplex.from_complex(complex((head + acc) * ea ** s)),
            err / abs(head + acc) if head + acc else math.inf)


def _u_neg_integral(a: float, w: complex, n: int,
                    npanel: int) -> tuple[ScaledComplex, float]:
    """U(-a, w) from the cosine representation, split into the two complex
    exponentials and each rotated onto a damped ray; with its rounding
    error in units of eps, relative to it (near the turning point the two
    rays cancel)."""
    w = complex(w)

    def ray(sgn: int) -> tuple[ScaledComplex, float]:
        # rotate the ray so the exponent i sgn w t points as far into the
        # left half plane as the sector allows
        c = 1j * sgn * w
        ideal = math.pi - cmath.phase(c) if w != 0 else 0.0
        ideal = (ideal + math.pi) % (2.0 * math.pi) - math.pi
        alpha = max(min(ideal, math.pi / 4.0 - 0.12), -(math.pi / 4.0 - 0.12))
        ea = cmath.exp(1j * alpha)
        ca = math.cos(2 * alpha)
        b = -(c * ea).real
        c2 = max(a - 0.5, 0.25)
        disc = b * b + 4.0 * ca * c2
        s_peak = (-b + math.sqrt(disc)) / (2.0 * ca) if disc > 0 else 1.0
        s_max = max(s_peak * 9.0, 4.0) + 30.0 + 2.0 * abs(b) / ca
        return _path_integral(a, c, ea, s_max, n, npanel)

    phase = cmath.exp(1j * (math.pi / 4.0 - math.pi * a / 2.0))
    (up, e_up), (down, e_down) = ray(+1), ray(-1)
    comb, err = sum_rel([(up * (0.5 * phase), e_up),
                         (down * (0.5 * phase.conjugate()), e_down)])
    pref = ScaledComplex.from_log_complex(w * w / 4.0) * math.sqrt(2.0 / math.pi)
    # the prefactor's exponent carries the rounding of w^2
    return pref * comb, err + abs(w) ** 2 / 4.0 + 1.0


def _u_origin_data(a) -> tuple[ScaledComplex, ScaledComplex]:
    """U(a,0) and U'(a,0) from the gamma function."""
    a = complex(a)
    y0 = ScaledComplex.from_log_complex(
        0.5 * math.log(math.pi) - (0.5 * a + 0.25) * math.log(2.0)
        - _log_gamma(0.75 + 0.5 * a))
    d0 = -ScaledComplex.from_log_complex(
        0.5 * math.log(math.pi) - (0.5 * a - 0.25) * math.log(2.0)
        - _log_gamma(0.25 + 0.5 * a))
    return y0, d0


# ----------------------------------------------------------------------
# renormalized Taylor-series continuation
# ----------------------------------------------------------------------

#: degree of the local series.  A step of rho/sigma (sigma the local scale,
#: `_sweep`) keeps its last term below eps for rho <= 1.5 where q, q' or
#: q'' dominates
ORDER = 32

#: step lengths, in units of the local scale 1/sigma, of the two
#: independent sweeps whose distance is a swept value's estimate
RHOS = (1.0, 1.5)


def _basis_series(p0: np.ndarray, p1: np.ndarray, p2: complex,
                  forcing=None) -> np.ndarray:
    """c[k, i, j]: the coefficient of h^k at step j of the local series of
    the solution with (y, y') = (1, 0) (i = 0), (0, 1) (i = 1) and, given
    the forcing rows f_k (f_k[j] the coefficient of h^k at step j), the
    particular solution with (y, y') = (0, 0) (i = 2) of
    y'' = (p0 + p1 h + p2 h^2) y + sum f_k h^k, for every step at once by
    the exact recurrence
    (k+1)(k+2) c_{k+2} = p2 c_{k-2} + p1 c_{k-1} + p0 c_k + f_k."""
    # row k + 2 holds c_k, so that c_{-2} = c_{-1} = 0 lead
    c = np.zeros((ORDER + 3, 2 if forcing is None else 3, len(p0)), complex)
    c[2, 0] = c[3, 1] = 1.0
    w = np.empty((3, 1, len(p0)), complex)
    w[0], w[1, 0], w[2, 0] = p2, p1, p0
    for k in range(ORDER - 1):
        t = np.add.reduce(w * c[k:k + 3])
        if forcing is not None and k < len(forcing):
            t[2] += forcing[k]
        np.divide(t, (k + 1) * (k + 2), out=c[k + 4])
    return c[2:]


def _powers(h: np.ndarray) -> np.ndarray:
    """h^0 .. h^ORDER along a new first axis, by doubling blocks:
    h^(n+i) = h^i h^n."""
    p = np.empty((ORDER + 1,) + h.shape, complex)
    p[0] = 1.0
    p[1] = h
    n = 2
    while n <= ORDER:
        m = min(n, ORDER + 1 - n)
        np.multiply(p[:m], p[n - 1] * h, out=p[n:n + m])
        n *= 2
    return p


#: k = 1 .. ORDER: the slope of h^k is k h^(k-1)
_DEGREES = np.arange(1.0, ORDER + 1.0)[:, None, None]


def _sweep(q, R, z0: complex, z1: complex, y: ScaledComplex, d: ScaledComplex,
           rho: float, dense: bool = False):
    """Integrate y'' = (q0 + q1 z + q2 z^2) y + z^R (R None: no forcing)
    on the segment from z0 to z1 by local Taylor series, from (y, d) at
    z0; d is y' in z.

    Each step is rho/sigma long, with the local scale sigma at its start,
    so the steps are placed before the state is known.  One array pass
    then gives every step's local series of the two basis solutions, and
    of the particular solution of the unscaled forcing, and their values
    and slopes at the step's end: the step's 2x2 transition matrix and
    forcing vector.  The state passes through the steps in order, each
    ending with the state divided by the power of two just above its size
    max(|y|, |y'|), exactly, so the state never overflows and its log scale
    l is one rounding of base + k ln 2.  The forcing vector is scaled by
    r = e^-l, and a sweep whose e^-l is past the float range cannot carry it.

    Returns y and y' at z1, and with `dense` the arrays (z_c, l, c) of the
    steps, whose series sum c_k (z - z_c)^k e^l is y on the step."""
    q0, q1, q2 = q
    z0, z1 = complex(z0), complex(z1)
    length = abs(z1 - z0)
    e = (z1 - z0) / length if length else 1.0
    # sigma: the solutions of y'' = (p0 + p1 h + p2 h^2) y change by a
    # factor of about e^rho over |h| = rho/sigma
    sigma2 = abs(q2) ** 0.25
    zs = []
    s = 0.0
    while s < length:
        zc = z0 + e * s
        sigma = max(math.sqrt(abs(q0 + zc * (q1 + q2 * zc))),
                    abs(q1 + 2.0 * q2 * zc) ** (1.0 / 3.0), sigma2)
        h = min(rho / sigma, length - s)
        zs.append(zc)
        s = s + h if length - s > h else length
    zc = np.array(zs, complex)
    forcing = None
    if R is not None:
        forcing = [math.comb(R, k) * zc ** (R - k) for k in range(R + 1)]
    c = _basis_series(q0 + zc * (q1 + q2 * zc), q1 + 2.0 * q2 * zc, q2,
                      forcing)
    # each series' value and slope at the step's end, the next step's
    # start (the last's: z1), in one product with the powers of h: the
    # transition matrix's columns (y, y'), then the forcing vector's
    pw = _powers(np.diff(zc, append=z1))[:, None]
    ends = np.stack(((c * pw).sum(0), (c[1:] * (pw[:-1] * _DEGREES)).sum(0)),
                    axis=-1)
    steps = ends.transpose(1, 0, 2).reshape(len(zs), 2 * c.shape[1]).tolist()

    base = max(y.log_abs, d.log_abs)
    if not math.isfinite(base):
        base = 0.0
    yv = (y * ScaledComplex.from_log(-base)).to_complex()
    dv = (d * ScaledComplex.from_log(-base)).to_complex()
    k2 = 0  # the state is (y, y') e^-base 2^-k2
    start = []  # (y, y', k2) at each step's start
    for yy, yd, dy, dd, *f in steps:
        start.append((yv, dv, k2))
        yv, dv = yy * yv + dy * dv, yd * yv + dd * dv
        if f:
            try:
                r = math.exp(-(base + k2 * _LN2))
            except OverflowError:
                raise AccuracyError("forced sweep: the state is too small "
                                    "to carry the forcing term") from None
            yv, dv = yv + r * f[0], dv + r * f[1]
        ay, ad = abs(yv), abs(dv)
        size = ay if ay > ad else ad
        if not size < math.inf:
            raise StiffnessError(f"sweep overflowed at z = {zs[len(start) - 1]}")
        if size > 0.0:
            shift = math.frexp(size)[1]
            yv, dv = yv * 2.0 ** -shift, dv * 2.0 ** -shift
            k2 += shift
    scale = ScaledComplex.from_log(base + k2 * _LN2)
    out = (ScaledComplex.from_complex(yv) * scale,
           ScaledComplex.from_complex(dv) * scale)
    if not dense:
        return out + (None,)
    ys, ds, k2s = (np.array(v) for v in zip(*start))
    log = base + k2s * _LN2
    coef = c[:, 0] * ys + c[:, 1] * ds
    if forcing is not None:
        coef += c[:, 2] * np.exp(-log)
    return out + ((zc, log, coef.T),)


def ode_polyline(q, R, vertices, y0: ScaledComplex, d0: ScaledComplex,
                 rho: float = RHOS[0]) -> tuple[ScaledComplex, ScaledComplex]:
    """Integrate y'' = (q0 + q1 z + q2 z^2) y + z^R (R None: homogeneous)
    along a polyline; returns scaled (y, y') at the last vertex."""
    y, d = y0, d0
    for zs, ze in zip(vertices[:-1], vertices[1:]):
        y, d, _ = _sweep(q, R, zs, ze, y, d, rho)
    return y, d


#: q(z) = (q0, q1, q2) of y'' = q(z) y + z^R for the four equations
VARIANT_Q = {
    "PCF+": lambda a: (a, 0.0, 0.25),
    "PCF-": lambda a: (-a, 0.0, 0.25),
    "WEB+": lambda a: (a, 0.0, -0.25),
    "WEB-": lambda a: (-a, 0.0, -0.25),
}


def oracle_ode(variant: str, a: float, R, z_path,
               boundary_spec="origin") -> OracleValue:
    """Integrate the defining equation along a complex polyline.

    variant selects y'' = q(z) y + h(z) with q per the four equations (the
    unscaled argument); R is the monomial forcing degree or None for the
    homogeneous problem.  boundary_spec: "origin" seeds with the exact
    gamma-function data at z = 0 (first path vertex must be 0), or a tuple
    (y0, d0) of ScaledComplex values at the first vertex.  The accuracy
    estimate is the distance between the sweeps at the two step lengths
    RHOS.
    """
    if variant not in VARIANT_Q:
        raise ValueError(f"unknown variant {variant!r}")
    vertices = list(z_path.vertices) if hasattr(z_path, "vertices") else list(z_path)
    tps = (1j, -1j) if variant in ("PCF+", "WEB-") else (1.0, -1.0)
    for v in vertices:
        if min(abs(complex(v) - t) for t in tps) < 0.05:
            raise StiffnessError("path too close to a turning point")
    q = VARIANT_Q[variant](a)
    if boundary_spec == "origin":
        if abs(complex(vertices[0])) > 1e-12:
            raise ValueError("origin boundary data requires the path to "
                             "start at z = 0")
        if variant in ("PCF+", "PCF-"):
            y0, d0 = _u_origin_data(a if variant == "PCF+" else -a)
        else:
            W, Wp = weber_origin_data(a if variant == "WEB+" else -a)
            y0 = ScaledComplex.from_complex(W)
            d0 = ScaledComplex.from_complex(Wp)
    else:
        y0, d0 = boundary_spec
    v1, v2 = (ode_polyline(q, R, vertices, y0, d0, rho)[0] for rho in RHOS)
    return _certify(v1, v2, "ode")


def _u_neg_recessive(am: float, x: float, rho: float) -> ScaledComplex:
    """U(-am, x) for real x beyond the turning point 2 sqrt(am).

    Backward sweep: integrate y'' = (x^2/4 - am) y leftward from an
    arbitrary seed placed far enough out that the contamination by the
    dominant-rightward solution has died at the target, then normalize by
    the exact origin value.
    """
    q = VARIANT_Q["PCF-"](am)
    # integrating leftward amplifies the recessive-at-+inf direction; the
    # seed error decays like exp(-2 * [xi(seed)-xi(x)] * scaled units)
    x1 = x + max(3.0, 30.0 / max(math.sqrt(x * x / 4.0 - am), 1.0))
    seed_y = ScaledComplex.from_complex(1.0)
    seed_d = ScaledComplex.from_complex(-math.sqrt(x1 * x1 / 4.0 - am))
    y_at_x, d_at_x = ode_polyline(q, None, [x1, x], seed_y, seed_d, rho)
    y_at_0, _ = ode_polyline(q, None, [x, 0.0], y_at_x, d_at_x, rho)
    u0, _ = _u_origin_data(-am)
    return y_at_x * (u0 / y_at_0)


def oracle_U(a, z: complex, n: int = 64, npanel: int = 16) -> OracleValue:
    """U(a, z) for real a of either sign (complex a allowed when Re a > -1/2,
    as needed for the rotated-argument solutions)."""
    z = complex(z)
    ar = complex(a).real
    if ar <= -0.25:
        am = float(-complex(a).real)
        x0 = 2.0 * math.sqrt(am)
        on_axis = abs(z.imag) <= 1e-12
        # deep in the recessive zone of the real axis the cosine
        # representation cancels away; there, and where it fails just past
        # the turning point, the self-normalized backward sweep is used
        deep = on_axis and z.real > x0 + 0.5
        if abs(z.imag) <= 0.05 * abs(z) + 0.1 and not deep:
            try:
                v1, _ = _u_neg_integral(am, z, n, npanel)
                v2, err = _u_neg_integral(am, z, int(n * 1.5), npanel + 6)
                return _certify(v2, v1, "quadrature", floor=EPS * err)
            except AccuracyError:
                if not on_axis or z.real <= x0 + 0.25:
                    raise
        if on_axis:
            v1, v2 = (_u_neg_recessive(am, z.real, rho) for rho in RHOS)
            return _certify(v1, v2, "ode")
        # off the real axis the cosine representation cancels badly; use the
        # rotated-argument connection instead
        ph = cmath.exp(1j * math.pi * (0.5 * am - 0.25))
        pref = ScaledComplex.from_log_complex(_log_gamma(am + 0.5)) * \
            (1.0 / math.sqrt(2.0 * math.pi))
        return _combine([(pref * ov.value * p, ov.est_acc) for ov, p in (
            (oracle_U(am, 1j * z, n, npanel), ph),
            (oracle_U(am, -1j * z, n, npanel), ph.conjugate()))],
            "quadrature")
    v1, _ = _u_quad(a, z, n, npanel)
    v2, floor = _u_quad(a, z, int(n * 1.5), npanel + 6)
    return _certify(v2, v1, "quadrature", floor=floor)


def _u_pair_from_integral(a, Z: complex, n: int,
                          npanel: int) -> tuple[ScaledComplex, ScaledComplex]:
    """(U(a,z), U'(a,z)) from the quadratures of U(a,z) and U(a+1,z):
    U'(a,z) = -(z/2) U(a,z) - (a+1/2) U(a+1,z); differentiating the
    integral representation under the integral sign gives exactly this."""
    ua = _u_from_integral(a, Z, n, npanel)
    ub = _u_from_integral(complex(a) + 1.0, Z, n, npanel)
    return ua, ua * (-Z / 2.0) - ub * (complex(a) + 0.5)


def oracle_U_prime(a, z: complex, n: int = 64, npanel: int = 16) -> OracleValue:
    z = complex(z)
    if complex(a).real <= -0.25:
        raise AccuracyError("derivative oracle needs Re a > -1/4")
    # the identity of `_u_pair_from_integral` on two certified values
    return _combine([(ov.value * c, ov.est_acc) for ov, c in (
        (oracle_U(a, z, n, npanel), -z / 2.0),
        (oracle_U(complex(a) + 1.0, z, n, npanel), -(complex(a) + 0.5)))],
        "quadrature")


def oracle_V_neg(a: float, z: complex) -> OracleValue:
    """V(-a, z) assembled from rotated U values (their standard connection):
    V(-a,z) = (2 pi)^{-1/2} { e^{(a/2+1/4) pi i} U(a, iz) + conj-phase U(a,-iz) }."""
    ph = cmath.exp(1j * math.pi * (0.5 * a + 0.25)) / math.sqrt(2.0 * math.pi)
    return _combine([(ov.value * p, ov.est_acc) for ov, p in (
        (oracle_U(a, 1j * z, n=96, npanel=22), ph),
        (oracle_U(a, -1j * z, n=96, npanel=22), ph.conjugate()))],
        "quadrature")


# ----------------------------------------------------------------------
# U(+-a, .) along a horizontal line: one stable sweep, dense evaluation
# ----------------------------------------------------------------------

#: Gauss nodes per sweep step in a moment along a line: a step is at most
#: 1.5 local scales long, so 16 nodes leave an error far below eps
STEP_NODES = 16


class _SweptLine:
    """u(x) = U(., x + iy) on a horizontal line from one leftward `_sweep`
    from x = x0 to x = -T, times the constant `norm`.  Each step's stored
    series is the dense output on it, and each step is a moment panel."""

    def _sweep_line(self, q, x0: float, T: float, y: ScaledComplex,
                    d: ScaledComplex, rho: float) -> None:
        _, _, (z, log, coef) = _sweep(q, None, complex(x0, self.y),
                                      complex(-T, self.y), y, d, rho, dense=True)
        # increasing x: step k covers [x_{k-1}, x_k]
        self._x = z.real[::-1]
        self._log = log[::-1]
        self._coef = coef[::-1]
        self._lo = np.concatenate(([-T], self._x[:-1]))
        self.norm = ScaledComplex.from_complex(1.0)

    def _raw(self, x: float) -> ScaledComplex:
        k = min(max(int(np.searchsorted(self._lo, x, side="right")) - 1, 0),
                len(self._x) - 1)
        v = self._coef[k] @ _powers(np.array(complex(x - self._x[k])))
        return ScaledComplex.from_complex(complex(v)) * \
            ScaledComplex.from_log(self._log[k])

    def __call__(self, x: float) -> ScaledComplex:
        return self._raw(float(x)) * self.norm

    def moment(self, R: int, lo: float, hi: float) -> ScaledComplex:
        """int_lo^hi (x + iy)^R u(x) dx: STEP_NODES Gauss nodes on each part
        of a step in [lo, hi], every node's series summed in one Horner
        pass, and each step's sum taken relative to its scale e^l."""
        inner = self._x[(self._x > lo) & (self._x < hi)]
        edges = np.concatenate(([lo], inner, [hi]))
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        k = np.clip(np.searchsorted(self._lo, mid, side="right") - 1,
                    0, len(self._x) - 1)
        g, w = gauss(STEP_NODES)
        x = mid[:, None] + half[:, None] * g
        h = x - self._x[k][:, None]
        coef = self._coef[k]
        acc = np.zeros_like(h, dtype=complex)
        for j in range(coef.shape[1] - 1, -1, -1):
            acc = acc * h + coef[:, j][:, None]
        panel = (acc * (x + 1j * self.y) ** R) @ w * half
        top = float(np.max(self._log[k]))
        total = complex(np.sum(panel * np.exp(self._log[k] - top)))
        return ScaledComplex.from_complex(total) * ScaledComplex.from_log(top) \
            * self.norm


class UContour(_SweptLine):
    """U(a, t) for t on the line Im t = y, Re t in [-T, T]: one sweep from
    +T (the recessive side) leftwards, which is the stable direction,
    seeded by quadrature."""

    def __init__(self, a, y: float, T: float, rho: float = RHOS[0]):
        self.a = complex(a)
        self.y = float(y)
        self.T = float(T)
        seedz = complex(T, y)
        self._sweep_line(VARIANT_Q["PCF+"](self.a), self.T, self.T,
                         *_u_pair_from_integral(a, seedz, 96, 22), rho)


class UNegLine(_SweptLine):
    """U(-a, x + iy) for x in [-T, T] on a horizontal line: one backward
    sweep from an arbitrary far seed, normalized by an accurate anchor at
    x = 0 (stable: the sweep runs into the dominant direction, so the seed
    contamination decays)."""

    def __init__(self, am: float, T: float, y: float = 0.0,
                 rho: float = RHOS[0]):
        self.am = am
        self.T = float(T)
        self.y = float(y)
        q = VARIANT_Q["PCF-"](am)
        x1 = self.T + 4.0
        self._sweep_line(q, x1, self.T, ScaledComplex.from_complex(1.0),
                         ScaledComplex.from_complex(
                             -cmath.sqrt(complex(x1, self.y) ** 2 / 4.0 - am)),
                         rho)
        # the anchor U(-a, iy): the exact origin data swept up the
        # imaginary axis, where both solutions oscillate
        anchor, _, _ = _sweep(q, None, 0.0, 1j * self.y, *_u_origin_data(-am),
                              rho)
        self.norm = anchor / self._raw(0.0)


# the line sweeps shared between calls: keyed by the exact ordinate y,
# since a line at a nearby y would give the values of a slightly different
# point, and by the step length rho of the resolution
@lru_cache(maxsize=16)
def _u_contour_cached(a: float, y: float, T: float, rho: float) -> UContour:
    return UContour(a, y, T, rho)


@lru_cache(maxsize=8)
def _u_neg_line_cached(am: float, T: float, y: float, rho: float) -> UNegLine:
    return UNegLine(am, T, y, rho)


# ----------------------------------------------------------------------
# variation-of-parameters oracle
# ----------------------------------------------------------------------

def _tail_start(a: float, z: complex) -> float:
    t = max(abs(z) + 8.0, math.sqrt(max(4.0 * abs(a), 1.0)) + 10.0, 14.0)
    return 4.0 * math.ceil(t / 4.0)  # quantized so contour sweeps can be shared


#: the two resolutions of a variation-of-parameters value: the Gauss rule
#: (n, npanel) of its quadratures and the step length of its sweeps
VOP_RESOLUTIONS = ((48, 12, RHOS[1]), (72, 18, RHOS[0]))


def oracle_inhom(a: float, z: complex, R: int,
                 pair: tuple[int, int] = (0, 2)) -> OracleValue:
    """U_R^{(j,k)}(a, z) by variation of parameters (pairs (0,2) and (0,1);
    either sign of the parameter, passed as the signed value a)."""
    z = complex(z)
    if pair not in _VOP_ROUTES:
        raise DomainError(f"no oracle route for the pair {pair}; it has "
                          "(0,2) and (0,1)")
    # no table limit here, but t^R needs R a nonnegative integer
    check_forcing_degree(R, math.inf)
    pos, neg = _VOP_ROUTES[pair]
    f = neg if a < 0 else pos
    v1, v2 = (f(a, z, R, *res) for res in VOP_RESOLUTIONS)
    return _certify(v2, v1, "vop")


def _inhom_02_pos(a: float, z: complex, R: int, n: int, npanel: int,
                  rho: float) -> ScaledComplex:
    """-Gamma(a+1/2)/sqrt(2pi) [U(a,z) J- + U(a,-z) J+], J+- the half-line
    moments of U against t^R."""
    T = _tail_start(a, z)
    line = _u_contour_cached(a, z.imag, T, rho)
    # J- and U(a,-z) lie on the line Im t = -y, which mirrors this one:
    # U(a, conj t) = conj U(a, t) for real a
    jp = line.moment(R, z.real, T)
    jm = line.moment(R, -z.real, T).conj() * (-1) ** R
    uz = line(z.real)
    umz = line(-z.real).conj()
    pref = ScaledComplex.from_log_complex(_log_gamma(a + 0.5)) * \
        (-1.0 / math.sqrt(2.0 * math.pi))
    return pref * (uz * jm + umz * jp)


def _inhom_02_neg(a_signed: float, z: complex, R: int, n: int, npanel: int,
                  rho: float) -> ScaledComplex:
    """Negative-parameter variant, real z (one stable line sweep)."""
    if abs(z.imag) > 1e-12:
        raise AccuracyError("negative-parameter (0,2) oracle supports real z")
    am = -a_signed
    T = _tail_start(am, z)
    line = _u_neg_line_cached(am, T, 0.0, rho)
    jp = line.moment(R, z.real, T)
    jm = line.moment(R, -z.real, T) * (-1) ** R
    uz = line(z.real)
    umz = line(-z.real)
    pref = ScaledComplex.from_log_complex(_log_gamma(a_signed + 0.5)) * \
        (-1.0 / math.sqrt(2.0 * math.pi))
    return pref * (uz * jm + umz * jp)


def _inhom_01_pos(a: float, z: complex, R: int, n: int, npanel: int,
                  rho: float) -> ScaledComplex:
    """e^{i pi(a/2-1/4)} [U(-a,-iz) int_inf^z t^R U(a,t) dt
    - U(a,z) int_{i inf}^z t^R U(-a,-it) dt]."""
    T = _tail_start(a, z)
    line = _u_contour_cached(a, z.imag, T, rho)
    i1 = -line.moment(R, z.real, T)
    # on the vertical ray t = z + is, w = -it = x - i Re z walks the line
    # Im w = -Re z at x = Im z + s, and t^R = i^R (x - i Re z)^R
    wline = _u_neg_line_cached(a, T + abs(z.imag) + 2.0, -z.real, rho)
    i2 = -wline.moment(R, z.imag, z.imag + T) * 1j ** (R + 1)
    phase = cmath.exp(1j * math.pi * (0.5 * a - 0.25))
    um, _ = _u_neg_integral(a, -1j * z, max(n, 64), max(npanel, 16))
    uz = line(z.real)
    return (um * i1 - uz * i2) * phase


def _inhom_01_neg(a_signed: float, z: complex, R: int, n: int, npanel: int,
                  rho: float) -> ScaledComplex:
    """Pair (0,1) with parameter -a: U_0 = U(-a,z), U_1 = U(a,-iz),
    Wronskian e^{(a/2+1/4) pi i}.  Real z only (the acceptance identities
    are checked on the real axis)."""
    if abs(z.imag) > 1e-12:
        raise AccuracyError("negative-parameter (0,1) oracle supports real z")
    am = -a_signed
    T = _tail_start(am, z)
    line = _u_neg_line_cached(am, T, 0.0, rho)
    # int_{+inf}^z t^R U(-a,t) dt along the real axis
    j0 = -line.moment(R, z.real, T)
    # int_{i inf}^z t^R U(a,-it) dt on the vertical ray t = z + is, each
    # node a quadrature
    j1 = ScaledComplex(0j, 0.0)
    s, w = _panels(np.linspace(0.0, T, npanel + int(T) + 1), n)
    for si, wi in zip(s.ravel().tolist(), w.ravel().tolist()):
        t = z + 1j * si
        j1 = j1 - _u_from_integral(am, -1j * t, max(n // 2, 40),
                                   max(npanel - 2, 10)) * (1j * wi * t ** R)
    u0z = line(z.real)
    u1z = _u_from_integral(am, -1j * z, max(n, 56), max(npanel, 12))
    wr = cmath.exp(1j * math.pi * (0.5 * am + 0.25))
    return (u1z * j0 - u0z * j1) * (1.0 / wr)


_VOP_ROUTES = {(0, 2): (_inhom_02_pos, _inhom_02_neg),
               (0, 1): (_inhom_01_pos, _inhom_01_neg)}


# ----------------------------------------------------------------------
# Weber helpers: exact origin data and the real-axis ODE oracle
# ----------------------------------------------------------------------

def _k_stable(u: float) -> float:
    """k(u) = sqrt(1+e^{pi u}) - e^{pi u/2} in subtraction-safe form."""
    if u >= 0:
        x = math.exp(-math.pi * u / 2.0)
        return x / (math.sqrt(1.0 + x * x) + 1.0)
    return math.sqrt(1.0 + math.exp(math.pi * u)) - math.exp(math.pi * u / 2.0)


def weber_origin_data(a_signed: float) -> tuple[float, float]:
    """W(a,0) and W'(a,0), real, from the W_0 connection at the origin:

      W(a,0)  = Re-part solve of (k^{-1/2} + i k^{1/2}) W(a,0) = P W_0(a,0),
      W'(a,0) from (k^{-1/2} - i k^{1/2}) W'(a,0) = P W_0'(a,0),

    with P = sqrt(2) e^{pi a/4} e^{i rho(2a)}, W_0(a,x) = U(ia, x e^{-i pi/4})
    and U(ia,0), U'(ia,0) from the gamma function.  Valid for signed a.
    """
    u = 2.0 * a_signed
    k = _k_stable(u)
    rho = 0.5 * _log_gamma(0.5 + 0.5j * u).imag + math.pi / 8.0
    u0, u0p = _u_origin_data(1j * a_signed)
    w0 = u0.to_complex()
    w0p = u0p.to_complex() * cmath.exp(-1j * math.pi / 4.0)
    pre = math.sqrt(2.0) * math.exp(math.pi * a_signed / 4.0) * cmath.exp(1j * rho)
    W = (pre * w0 / complex(1.0 / math.sqrt(k), math.sqrt(k))).real
    Wp = (pre * w0p / complex(1.0 / math.sqrt(k), -math.sqrt(k))).real
    return W, Wp


def weber_quad_real(a_signed: float, x: float,
                    n: int = 96, npanel: int = 22) -> tuple[float, float]:
    """(W(a,x), W'(a,x)) for x >= 0 by quadrature through the connection
    W(a,x) = sqrt(2 k) e^{pi a/4} Re{ e^{i rho} U(ia, x e^{-i pi/4}) }."""
    u = 2.0 * a_signed
    k = _k_stable(u)
    rho = 0.5 * _log_gamma(0.5 + 0.5j * u).imag + math.pi / 8.0
    ia = 1j * a_signed
    Z = x * cmath.exp(-1j * math.pi / 4.0)
    pair = _u_pair_from_integral(ia, Z, n, npanel) if x > 0 else _u_origin_data(ia)
    uv, upv = (v.to_complex() for v in pair)
    pre = math.sqrt(2.0 * k) * math.exp(math.pi * a_signed / 4.0)
    ph = cmath.exp(1j * rho)
    W = pre * (ph * uv).real
    Wp = pre * (ph * cmath.exp(-1j * math.pi / 4.0) * upv).real
    return W, Wp


def weber_ode_real(a_signed: float, x_targets) -> dict:
    """W(a, x) on the real axis, integrating y'' = (a - x^2/4) y only in
    stable directions: leftward from the exact origin data (W grows towards
    -inf for a > 0), and inward from a quadrature seed placed beyond the
    turning point for the decaying positive side.  For a <= 0 the equation
    is oscillatory everywhere and origin seeding is stable both ways.
    Returns dict x -> (W, W')."""
    W0, W0p = weber_origin_data(a_signed)
    out = {0.0: (W0, W0p)}
    q = VARIANT_Q["WEB+"](a_signed)

    def sweep(x_from, seed, targets):
        y, d = (ScaledComplex.from_complex(v) for v in seed)
        xprev = x_from
        for xt in targets:
            if xt != xprev:
                y, d, _ = _sweep(q, None, xprev, xt, y, d, RHOS[0])
            out[xt] = (y.to_complex().real, d.to_complex().real)
            xprev = xt

    neg = sorted({float(t) for t in x_targets if t < 0}, key=abs)
    pos = sorted({float(t) for t in x_targets if t > 0})
    sweep(0.0, (W0, W0p), neg)
    if pos:
        if a_signed <= 0:
            sweep(0.0, (W0, W0p), pos)
        else:
            x_seed = max(2.0 * math.sqrt(a_signed) + 6.0, pos[-1] + 2.0)
            seed = weber_quad_real(a_signed, x_seed)
            sweep(x_seed, seed, sorted(pos, reverse=True))
    return out
