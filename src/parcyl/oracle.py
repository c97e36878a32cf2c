"""Independent reference values.

Everything here is built only from the integral representations, the
variation-of-parameters formulas and gamma-function data at the origin;
none of the asymptotic machinery is used, so acceptance comparisons are
non-circular.

Methods: quadrature of the two integral representations of U on one
polyline helper (`_path_integral`): a ray turned against arg z for
Re z >= 0, and for Re z < 0 a leg from 0 to the saddle of the integrand
and a ray on from it (Gil, Segura & Temme, ACM TOMS 32, 2006, carried to
complex argument); renormalized adaptive Runge-Kutta sweeps of the
defining equations (always run from the recessive towards the dominant
side) along lines; and variation-of-parameters quadrature for the
inhomogeneous solutions.

Every value carries an accuracy estimate and is refused if it exceeds
ACC_LIMIT = 1e-8.  A quadrature's estimate is the larger of its distance
to a second resolution and its rounding floor, which counts the size of
every exponent and the cancellation int |f| / |int f|; a sum of two
oracle values (U' from U, U- off the axis and V- from U at +-iz) takes
sum |term_k| est_k / |sum term_k|, which sees their cancellation.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import loggamma

from .coeffs import check_forcing_degree
from .errors import AccuracyError, DomainError, StiffnessError
from .quadrature import gauss
from .scaled import ScaledComplex, sum_rel

ACC_LIMIT = 1e-8
EPS = sys.float_info.epsilon

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


def _log_gamma(z) -> complex:
    return complex(loggamma(complex(z)))


# ----------------------------------------------------------------------
# quadrature: one panel rule, one polyline
# ----------------------------------------------------------------------

def _panels(edges, n: int):
    """Nodes and weights of the n-point Gauss rule on each panel [lo, hi]
    between consecutive edges."""
    x, w = gauss(n)
    for lo, hi in zip(edges[:-1], edges[1:]):
        yield 0.5 * (hi - lo) * x + 0.5 * (hi + lo), 0.5 * (hi - lo) * w


def _path_integral(a, c: complex, ea: complex, s_max: float, n: int,
                   npanel: int, tail=()) -> tuple[ScaledComplex, float]:
    """int t^{a-1/2} e^{-t^2/2 + ct} dt on the polyline from 0 through
    ea s_max and then each vertex of `tail`.  The first leg is t = ea v^2,
    v^2 up to s_max (the substitution kills the endpoint singularity); each
    further leg gets npanel equal Gauss panels.  Each panel is summed
    relative to its own peak, panels below e^-745 are dropped, and the rest
    are recombined on the largest peak.

    Returns the integral and its rounding error in units of eps, relative
    to it: each node's exponent is rounded to eps times the sum of its
    terms' sizes, Phi(t) = |(a-1/2) log t| + |t|^2/2 + |ct|, and its
    exponential to eps, so the sum is off by at most
    eps int |f| (Phi + 1) |dt|, which also counts any cancellation."""
    def legs():
        for v, ww in _panels(np.linspace(0.0, s_max ** 0.25, npanel + 1) ** 2, n):
            yield ea * v * v, ww, np.log(2.0 * v * ea)
        start = ea * s_max
        for end in tail:
            for s, ww in _panels(np.linspace(0.0, 1.0, npanel + 1), n):
                yield start + (end - start) * s, ww, cmath.log(end - start)
            start = end

    logs, vals, errs = [], [], []
    for t, ww, log_dt in legs():
        log_t = np.log(t)
        logf = (a - 0.5) * log_t - 0.5 * t * t + c * t + log_dt
        m = float(np.max(logf.real))
        if m < -745.0:
            continue
        vals.append(complex(np.sum(ww * np.exp(logf - m))))
        size = np.abs((a - 0.5) * log_t) + 0.5 * np.abs(t) ** 2 + np.abs(c * t)
        errs.append(float(np.sum(ww * np.exp(logf.real - m) * (size + 1.0))))
        logs.append(m)
    if not vals:
        return ScaledComplex(0j, 0.0), math.inf
    mtop = max(logs)
    total = sum(v * math.exp(l - mtop) for v, l in zip(vals, logs))
    err = sum(e * math.exp(l - mtop) for e, l in zip(errs, logs))
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
    """U(a, Z) by quadrature, and its integral's rounding error in units
    of eps, relative to it."""
    a = complex(a)
    Z = complex(Z)
    if Z.real < 0:
        integral, err = _u_saddle_integral(a, Z, n, npanel)
    elif abs(a.imag) > 1e-12:
        integral, err = _u_integral_logvar(a, Z, n)
    else:
        integral, err = _u_pos_integral(a, Z, n, npanel)
    pref = ScaledComplex.from_log_complex(-Z * Z / 4.0 - _log_gamma(a + 0.5))
    return pref * integral, err


def _u_from_integral(a, Z: complex, n: int, npanel: int) -> ScaledComplex:
    return _u_quad(a, Z, n, npanel)[0]


def _rounding_floor(a, Z: complex, err: float) -> float:
    """Relative rounding error of U(a, Z) = e^{-Z^2/4 - lnGamma(a+1/2)} I
    when the integral I is off by eps err relative: the prefactor's
    exponent carries the rounding of Z^2 and of the sum, and the ulp of
    lnGamma."""
    lg = abs(_log_gamma(complex(a) + 0.5))
    return EPS * (err + abs(Z) ** 2 / 2.0 + 2.0 * lg)


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
    acc = 0j
    err = head_abs * (abs(s * w0) + 1.0)
    for t, ww in _panels(edges, n):
        q = np.exp(t)
        g = np.exp(s * t - (ea * ea) * q * q / 2.0 - Zr * q)
        acc += np.sum(ww * g)
        err += float(np.sum(ww * np.abs(g) * (np.abs(s * t) + 0.5 * q * q
                                              + abs(Zr) * q + 1.0)))
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
# renormalized ODE continuation
# ----------------------------------------------------------------------

def _sweep(accel, edges, y: ScaledComplex, d: ScaledComplex, rtol: float,
           e: complex = 1.0, dense: bool = False):
    """Integrate y'' = accel(s, y, r) with DOP853 in the real parameter s,
    one chunk per pair of consecutive edges, from (y, d) at edges[0]; d is
    y' in z, and z moves by e ds.

    Each chunk starts from the state divided by its size e^l, l = log
    max(|y|, |y'|), so no chunk overflows; accel gets the divided y and
    r = e^-l, the factor a forcing term needs, or None where e^-l is past
    the float range.  Returns y and y' at edges[-1], and with `dense` the
    chunks (s0, s1, solution, l) that `_chunk_value` reads.
    """
    chunks = []
    for s0, s1 in zip(edges[:-1], edges[1:]):
        log0 = max(y.log_abs, d.log_abs)
        if not math.isfinite(log0):
            log0 = 0.0
        resc = ScaledComplex.from_log(-log0)
        yv = (y * resc).to_complex()
        pv = ((d * resc) * e).to_complex()
        try:
            r = math.exp(-log0)
        except OverflowError:
            r = None  # only a forcing term reads it

        # the state and time as Python floats: the same IEEE operations as
        # on numpy scalars, without their per-operation overhead
        def rhs(s, v):
            v0, v1, v2, v3 = v.tolist()
            dd = accel(float(s), v0 + 1j * v1, r)
            return [v2, v3, dd.real, dd.imag]

        sol = solve_ivp(rhs, (s0, s1), [yv.real, yv.imag, pv.real, pv.imag],
                        method="DOP853", rtol=rtol, atol=1e-18,
                        dense_output=dense)
        if not sol.success:
            raise StiffnessError(sol.message)
        if dense:
            chunks.append((s0, s1, sol, log0))
        f = sol.y[:, -1]
        scale = ScaledComplex.from_log(log0)
        y = ScaledComplex.from_complex(f[0] + 1j * f[1]) * scale
        d = (ScaledComplex.from_complex(f[2] + 1j * f[3]) / e) * scale
    return y, d, chunks


def _chunk_value(chunks, x: float) -> ScaledComplex:
    """y(x) from the dense chunks of a leftward `_sweep`."""
    x = float(x)
    for xr, xl, sol, log0 in chunks:
        if xl - 1e-12 <= x <= xr + 1e-12:
            v = sol.sol(min(max(x, xl), xr))
            return ScaledComplex.from_complex(v[0] + 1j * v[1]) * \
                ScaledComplex.from_log(log0)
    raise ValueError("outside the swept line")


def ode_polyline(q_fn, forcing_fn, vertices, y0: ScaledComplex, d0: ScaledComplex,
                 rtol: float = 1e-12) -> tuple[ScaledComplex, ScaledComplex]:
    """Integrate y'' = q(z) y + h(z) along a polyline; returns scaled
    (y, y') at the last vertex.  State is renormalized between chunks of
    length at most 4 on each segment."""
    y, d = y0, d0
    for zs, ze in zip(vertices[:-1], vertices[1:]):
        seg = ze - zs
        L = abs(seg)
        if L == 0:
            continue
        e = seg / L
        nchunk = max(1, int(L / 4.0))

        def accel(s, y1, r, zs=zs, e=e):
            z = zs + e * s
            if forcing_fn is not None and r is None:
                raise AccuracyError("forced sweep: the state is too small "
                                    "to carry the forcing term")
            f = forcing_fn(z) * r if forcing_fn is not None else 0.0
            return (q_fn(z) * y1 + f) * e * e

        y, d, _ = _sweep(accel, [L * i / nchunk for i in range(nchunk + 1)],
                         y, d, rtol, e)
    return y, d


VARIANT_Q = {
    "PCF+": lambda a: (lambda z: z * z / 4.0 + a),
    "PCF-": lambda a: (lambda z: z * z / 4.0 - a),
    "WEB+": lambda a: (lambda z: a - z * z / 4.0),
    "WEB-": lambda a: (lambda z: -(z * z / 4.0 + a)),
}


def oracle_ode(variant: str, a: float, R, z_path, boundary_spec="origin",
               rtol: float = 1e-12) -> OracleValue:
    """Integrate the defining equation along a complex polyline.

    variant selects y'' = q(z) y + h(z) with q per the four equations (the
    unscaled argument); R is the monomial forcing degree or None for the
    homogeneous problem.  boundary_spec: "origin" seeds with the exact
    gamma-function data at z = 0 (first path vertex must be 0), or a tuple
    (y0, d0) of ScaledComplex values at the first vertex.  The accuracy
    estimate comes from a second pass at loosened tolerance.
    """
    if variant not in VARIANT_Q:
        raise ValueError(f"unknown variant {variant!r}")
    vertices = list(z_path.vertices) if hasattr(z_path, "vertices") else list(z_path)
    tps = (1j, -1j) if variant in ("PCF+", "WEB-") else (1.0, -1.0)
    for v in vertices:
        if min(abs(complex(v) - t) for t in tps) < 0.05:
            raise StiffnessError("path too close to a turning point")
    q = VARIANT_Q[variant](a)
    forcing = None if R is None else (lambda z: z ** R)
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
    v1, _ = ode_polyline(q, forcing, vertices, y0, d0, rtol)
    v2, _ = ode_polyline(q, forcing, vertices, y0, d0, rtol * 100.0)
    return _certify(v1, v2, "ode")


def _u_neg_recessive(am: float, x: float, rtol: float) -> ScaledComplex:
    """U(-am, x) for real x beyond the turning point 2 sqrt(am).

    Backward sweep: integrate y'' = (x^2/4 - am) y leftward from an
    arbitrary seed placed far enough out that the contamination by the
    dominant-rightward solution has died at the target, then normalize by
    the exact origin value.
    """
    q = lambda z: z * z / 4.0 - am
    # integrating leftward amplifies the recessive-at-+inf direction; the
    # seed error decays like exp(-2 * [xi(seed)-xi(x)] * scaled units)
    x1 = x + max(3.0, 30.0 / max(math.sqrt(x * x / 4.0 - am), 1.0))
    seed_y = ScaledComplex.from_complex(1.0)
    seed_d = ScaledComplex.from_complex(-math.sqrt(x1 * x1 / 4.0 - am))
    y_at_x, d_at_x = ode_polyline(q, None, [x1, x], seed_y, seed_d, rtol)
    y_at_0, _ = ode_polyline(q, None, [x, 0.0], y_at_x, d_at_x, rtol)
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
            v1 = _u_neg_recessive(am, z.real, 1e-12)
            v2 = _u_neg_recessive(am, z.real, 1e-10)
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
    v2, err = _u_quad(a, z, int(n * 1.5), npanel + 6)
    return _certify(v2, v1, "quadrature", floor=_rounding_floor(a, z, err))


def _u_prime_from_integral(a, Z: complex, n: int, npanel: int) -> ScaledComplex:
    """U'(a,z) = -(z/2) U(a,z) - (a+1/2) U(a+1,z); differentiating the
    integral representation under the integral sign gives exactly this."""
    ua = _u_from_integral(a, Z, n, npanel)
    ub = _u_from_integral(complex(a) + 1.0, Z, n, npanel)
    return ua * (-Z / 2.0) - ub * (complex(a) + 0.5)


def oracle_U_prime(a, z: complex, n: int = 64, npanel: int = 16) -> OracleValue:
    z = complex(z)
    if complex(a).real <= -0.25:
        raise AccuracyError("derivative oracle needs Re a > -1/4")
    # the identity of `_u_prime_from_integral` on two certified values
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

class UContour:
    """U(a, t) for t on the line Im t = y, Re t in [-T, T].

    One renormalized sweep from +T (recessive side) leftwards, which is the
    stable direction; chunk-wise dense interpolants are kept so pointwise
    evaluation is cheap.
    """

    def __init__(self, a, y: float, T: float, rtol: float = 1e-12,
                 nchunks: int = 48):
        self.a = complex(a)
        self.y = float(y)
        self.T = float(T)
        seedz = complex(T, y)
        q = lambda x: ((x + 1j * self.y) ** 2 / 4.0 + self.a)
        _, _, self._chunks = _sweep(
            lambda x, u, r: q(x) * u, np.linspace(T, -T, nchunks + 1),
            _u_from_integral(a, seedz, 96, 22),
            _u_prime_from_integral(a, seedz, 96, 22), rtol, dense=True)

    def __call__(self, x: float) -> ScaledComplex:
        return _chunk_value(self._chunks, x)


class UNegLine:
    """U(-a, x + iy) for x in [-T, T] on a horizontal line: one backward
    sweep from an arbitrary far seed, normalized by an accurate anchor at
    x = 0 (stable: the sweep runs into the dominant direction, so the seed
    contamination decays)."""

    def __init__(self, am: float, T: float, y: float = 0.0,
                 rtol: float = 1e-12, nchunks: int = 64):
        self.am = am
        self.T = float(T)
        self.y = float(y)
        q = lambda x: (x + 1j * self.y) ** 2 / 4.0 - am
        x1 = self.T + 4.0
        _, _, self._chunks = _sweep(
            lambda x, u, r: q(x) * u, np.linspace(x1, -self.T, nchunks + 1),
            ScaledComplex.from_complex(1.0),
            ScaledComplex.from_complex(-cmath.sqrt(q(x1))), rtol, dense=True)
        if abs(self.y) < 1e-12:
            anchor, _ = _u_origin_data(-am)
        else:
            anchor, _ = _u_neg_integral(am, 1j * self.y, 96, 22)
        self._norm = anchor / _chunk_value(self._chunks, 0.0)

    def __call__(self, x: float) -> ScaledComplex:
        return _chunk_value(self._chunks, x) * self._norm


# the line sweeps shared between calls (and between the two resolutions of
# one call): keyed by the exact ordinate y, since a line at a nearby y
# would give the values of a slightly different point
@lru_cache(maxsize=64)
def _u_contour_cached(a: float, y: float, T: float) -> UContour:
    return UContour(a, y, T)


@lru_cache(maxsize=16)
def _u_neg_line_cached(am: float, T: float, y: float = 0.0) -> UNegLine:
    return UNegLine(am, T, y)


# ----------------------------------------------------------------------
# variation-of-parameters oracle
# ----------------------------------------------------------------------

def _tail_start(a: float, z: complex) -> float:
    t = max(abs(z) + 8.0, math.sqrt(max(4.0 * abs(a), 1.0)) + 10.0, 14.0)
    return 4.0 * math.ceil(t / 4.0)  # quantized so contour sweeps can be shared


def _gauss_line(term, lo: float, hi: float, n: int, npanel: int) -> ScaledComplex:
    """Sum of the scaled term(x, w) over the nodes x and weights w of
    npanel equal Gauss panels on [lo, hi]."""
    acc = ScaledComplex(0j, 0.0)
    for x, w in _panels(np.linspace(lo, hi, npanel + 1), n):
        for xi, wi in zip(x, w):
            acc = acc + term(float(xi), float(wi))
    return acc


def _moment(u_at, y: float, R: int, lo: float, hi: float, n: int,
            npanel: int) -> ScaledComplex:
    """int_lo^hi (x + iy)^R u_at(x) dx along the line Im t = y."""
    return _gauss_line(lambda x, w: u_at(x) * complex(x, y) ** R * w,
                       lo, hi, n, npanel)


def _vertical_moment(u_at, z: complex, R: int, T: float, n: int,
                     npanel: int) -> ScaledComplex:
    """int from z up to z + iT of t^R u_at(s) dt, t = z + is (the tail
    beyond is Gaussian)."""
    return _gauss_line(lambda s, w: u_at(s) * (1j * w * (z + 1j * s) ** R),
                       0.0, T, n, npanel)


def oracle_inhom(a: float, z: complex, R: int, pair: tuple[int, int] = (0, 2),
                 fast: bool = False) -> OracleValue:
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
    v1 = f(a, z, R, 48, 12)
    if fast:
        return OracleValue(v1, 1e-9, "vop")
    v2 = f(a, z, R, 72, 18)
    return _certify(v2, v1, "vop")


def _inhom_02_pos(a: float, z: complex, R: int, n: int, npanel: int) -> ScaledComplex:
    """-Gamma(a+1/2)/sqrt(2pi) [U(a,z) J- + U(a,-z) J+], J+- the half-line
    moments of U against t^R."""
    T = _tail_start(a, z)
    line = _u_contour_cached(a, z.imag, T)
    # the line Im t = -y mirrors it: U(a, conj t) = conj U(a, t) for real
    # a, and a sweep at -y gives the conjugate of this one float for float
    mline = line if z.imag == 0.0 else (lambda x: line(x).conj())
    jp = _moment(line, z.imag, R, z.real, T, n, npanel)
    jm = _moment(lambda x: mline(-x), z.imag, R, -T, z.real, n, npanel)
    uz = line(z.real)
    umz = mline(-z.real)
    pref = ScaledComplex.from_log_complex(_log_gamma(a + 0.5)) * \
        (-1.0 / math.sqrt(2.0 * math.pi))
    return pref * (uz * jm + umz * jp)


def _inhom_02_neg(a_signed: float, z: complex, R: int, n: int, npanel: int) -> ScaledComplex:
    """Negative-parameter variant, real z (one stable line sweep)."""
    if abs(z.imag) > 1e-12:
        raise AccuracyError("negative-parameter (0,2) oracle supports real z")
    am = -a_signed
    T = _tail_start(am, z)
    line = _u_neg_line_cached(am, T)
    jp = _moment(line, 0.0, R, z.real, T, n, npanel + int(T))
    jm = _moment(lambda x: line(-x), 0.0, R, -T, z.real, n, npanel + int(T))
    uz = line(z.real)
    umz = line(-z.real)
    pref = ScaledComplex.from_log_complex(_log_gamma(a_signed + 0.5)) * \
        (-1.0 / math.sqrt(2.0 * math.pi))
    return pref * (uz * jm + umz * jp)


def _inhom_01_pos(a: float, z: complex, R: int, n: int, npanel: int) -> ScaledComplex:
    """e^{i pi(a/2-1/4)} [U(-a,-iz) int_inf^z t^R U(a,t) dt
    - U(a,z) int_{i inf}^z t^R U(-a,-it) dt]."""
    T = _tail_start(a, z)
    line = _u_contour_cached(a, z.imag, T)
    i1 = -_moment(line, z.imag, R, z.real, T, n, npanel)
    # on the vertical ray w = -it walks the horizontal line Im w = -Re z,
    # whose values come from one stable backward sweep
    wline = _u_neg_line_cached(a, T + abs(z.imag) + 2.0, -z.real)
    i2 = -_vertical_moment(lambda s: wline(s + z.imag), z, R, T, n, npanel)
    phase = cmath.exp(1j * math.pi * (0.5 * a - 0.25))
    um, _ = _u_neg_integral(a, -1j * z, max(n, 64), max(npanel, 16))
    uz = line(z.real)
    return (um * i1 - uz * i2) * phase


def _inhom_01_neg(a_signed: float, z: complex, R: int, n: int, npanel: int) -> ScaledComplex:
    """Pair (0,1) with parameter -a: U_0 = U(-a,z), U_1 = U(a,-iz),
    Wronskian e^{(a/2+1/4) pi i}.  Real z only (the acceptance identities
    are checked on the real axis)."""
    if abs(z.imag) > 1e-12:
        raise AccuracyError("negative-parameter (0,1) oracle supports real z")
    am = -a_signed
    T = _tail_start(am, z)
    line = _u_neg_line_cached(am, T)
    # int_{+inf}^z t^R U(-a,t) dt along the real axis
    j0 = -_moment(line, z.imag, R, z.real, T, n, npanel + int(T))
    # int_{i inf}^z t^R U(a,-it) dt on the vertical ray
    j1 = -_vertical_moment(
        lambda s: _u_from_integral(am, -1j * (z + 1j * s), max(n // 2, 40),
                                   max(npanel - 2, 10)),
        z, R, T, n, npanel + int(T))
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
    if x > 0:
        uv = _u_from_integral(ia, Z, n, npanel).to_complex()
        upv = _u_prime_from_integral(ia, Z, n, npanel).to_complex()
    else:
        uv, upv = (v.to_complex() for v in _u_origin_data(ia))
    pre = math.sqrt(2.0 * k) * math.exp(math.pi * a_signed / 4.0)
    ph = cmath.exp(1j * rho)
    W = pre * (ph * uv).real
    Wp = pre * (ph * cmath.exp(-1j * math.pi / 4.0) * upv).real
    return W, Wp


def weber_ode_real(a_signed: float, x_targets, rtol: float = 1e-12) -> dict:
    """W(a, x) on the real axis, integrating y'' = (a - x^2/4) y only in
    stable directions: leftward from the exact origin data (W grows towards
    -inf for a > 0), and inward from a quadrature seed placed beyond the
    turning point for the decaying positive side.  For a <= 0 the equation
    is oscillatory everywhere and origin seeding is stable both ways.
    Returns dict x -> (W, W')."""
    W0, W0p = weber_origin_data(a_signed)
    out = {0.0: (W0, W0p)}

    def rhs(x, v):
        v0, v1 = v.tolist()
        x = float(x)
        return [v1, (a_signed - x * x / 4.0) * v0]

    def sweep(x_from, seed, targets):
        yv, dv = seed
        xprev = x_from
        for xt in targets:
            if xt != xprev:
                sol = solve_ivp(rhs, (xprev, xt), [yv, dv], method="DOP853",
                                rtol=rtol, atol=1e-16)
                if not sol.success:
                    raise StiffnessError(sol.message)
                yv, dv = float(sol.y[0, -1]), float(sol.y[1, -1])
            out[xt] = (yv, dv)
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
