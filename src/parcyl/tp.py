"""Airy-type turning-point expansions.

Slowly-varying coefficient functions A_{2m+2}, B_{2m+2} (evaluated directly
away from z = 1 and through a Cauchy circle integral near it), the
homogeneous solutions built on them for the z^2-1 equation, the rotated and
companion solutions, the connection constants, and the real Weber functions
(their elementary constants live in `constants`).

Conventions: everything is evaluated with upper-half-plane branch limits
and conjugated for Im z < 0 (the coefficient functions are real on the real
sections, so Schwarz reflection is exact).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import plane
from .airy import AiryValue, airy, env_airy
from .coeffs import check_order, evaluate, get_tables
from .constants import delta_n_pm, odd_sum_at_1
from .errors import DomainError, check_inputs, check_real
from .lg import CertifiedValue, _at_u, _family_moments, _omega_varpi_moments
# not called here; perfbench's tracing self-test checks that the wrapped
# omega_varpi is rebound in this namespace
from .lg import omega_varpi  # noqa: F401
from .quadrature import polyline_nodes
from .scaled import ScaledComplex

#: radius of the circle about z = 1 on which the Cauchy-zone error estimate
#: of A and B is taken (not the radius of the ring they are summed on)
CAUCHY_RADIUS = 0.5
#: radius of the one trapezoidal ring about z = 1 that carries every Cauchy
#: integral (A, B and the Scorer contour): it encloses the Scorer zone
#: |z-1| <= 1.15 and stays clear of the second turning point z = -1
RING_RADIUS = 1.4
#: trapezoidal nodes on the ring; even, so its upper half holds one node of
#: each conjugate pair
CAUCHY_NODES = 256
DIRECT_MIN_DIST = 0.2

#: largest |Re| of a sum's exponent that _exp_sums accepts; e^709.8 is
#: the largest float
_EXP_LIMIT = 700.0

#: points each per-point cache of u-free data keeps (_point_geometry,
#: _est_moments): a sweep in u over a few dozen fixed points always hits,
#: and an entry is a few kB
_POINT_CACHE_SIZE = 128

#: empirical margin absorbing the dropped scalar identification constants;
#: the u=10 worst case measured by scripts/calibration_sweep.py is 0.11
#: (on the Cauchy-resolved zone), pinned with a generous safety factor
EPS_CONST_MARGIN = 2.0


@dataclass(frozen=True)
class TPCoeffs:
    A: complex
    B: complex
    m: int
    method: str  # 'direct' or 'cauchy'
    est_err: float

    def conj(self) -> "TPCoeffs":
        """The coefficient functions at the conjugate point."""
        return TPCoeffs(self.A.conjugate(), self.B.conjugate(), self.m,
                        self.method, self.est_err)


# ----------------------------------------------------------------------
# branch-correct building blocks (upper half plane conventions)
# ----------------------------------------------------------------------

def _root_A(z: complex) -> complex:
    """(zeta/(z^2-1))^{1/4}, real positive on (-1, inf)."""
    z = plane.canon(z)
    if abs(z - 1.0) < plane.ZETA_SERIES_RADIUS:
        g = plane.zeta_over_w(z) / (z + 1.0)
    else:
        _, zeta = plane.xi_zeta(z)
        g = zeta / (z * z - 1.0)
    return g ** 0.25


def _root_B(z: complex, variant: str) -> complex:
    """{zeta (z^2-1)}^{1/4} with the variant's reality convention.

    All callers work in the closed upper half plane, where sqrt(1-z) equals
    -i sqrt(z-1); writing it that way keeps the exactly-real points x > 1 on
    the upper-side limit instead of the principal cut side.
    """
    z = plane.canon(z)
    ra = _root_A(z)
    if variant == "PCF-":
        return ra * cmath.sqrt(z - 1.0) * cmath.sqrt(z + 1.0)
    return ra * (-1j) * cmath.sqrt(z - 1.0) * cmath.sqrt(1.0 + z)


@dataclass(frozen=True)
class _Geometry:
    """The u-independent part of the coefficient functions at upper-side
    points (Im t >= 0): zeta, the two roots, and the modified-coefficient
    rows of the plain and the tilde sequence (columns s = 1, 2, ...)."""
    points: np.ndarray
    zeta: np.ndarray
    root_a: np.ndarray
    root_b: np.ndarray
    plain: np.ndarray
    tilde: np.ndarray


def _geometry(points, variant: str, s_top: int) -> _Geometry:
    """The one node loop: Liouville variables, roots and E_1..E_{s_top} at
    each upper-side point; then the coefficient rows

        E_s(beta) + (-1)^s seq_s xi^{-s} / s,   s = 1..s_top,

    for the plain sequence a_s and the tilde sequence (both families share
    the E_s polynomials), each column times (-i)^s for WEB+."""
    t = get_tables()
    points = np.array(points, dtype=complex)
    n = len(points)
    xi, zeta, ra, rb = (np.empty(n, dtype=complex) for _ in range(4))
    E = np.empty((n, s_top), dtype=complex)
    s = range(1, s_top + 1)
    for i, p in enumerate(points):
        p = plane.canon(complex(p))
        xi[i], zeta[i] = plane.xi_zeta(p)
        E[i] = evaluate(t.rows["E"], plane.beta_map(p, "PCF-"), 1, s_top + 1)
        ra[i] = _root_A(p)
        rb[i] = _root_B(p, variant)
    xi_s = xi[:, None] ** -np.arange(1, s_top + 1)
    fac = np.array([(-1j) ** k if variant == "WEB+" else 1.0 for k in s])

    def rows(seq) -> np.ndarray:
        return fac * (E + np.array([(-1) ** k * seq[k] / k for k in s]) * xi_s)

    g = _Geometry(points, zeta, ra, rb, rows(t.seq["a"]), rows(t.seq["a_tilde"]))
    # geometries are cached and shared: no caller may write into them
    for arr in vars(g).values():
        arr.setflags(write=False)
    return g


@lru_cache(maxsize=_POINT_CACHE_SIZE)
def _point_geometry(z: complex, variant: str, m: int) -> _Geometry:
    """The geometry of one point (Im z >= 0), with the rows order m needs.
    Kept per point: it does not depend on u."""
    return _geometry([z], variant, min(2 * m + 1, get_tables().s_max))


@lru_cache(maxsize=2)
def _ring_geometry(variant: str) -> _Geometry:
    """The upper half of the ring, with rows to the full table depth.  Built
    on first use and kept: it does not depend on u."""
    th = (np.arange(CAUCHY_NODES // 2) + 0.5) * (2.0 * math.pi / CAUCHY_NODES)
    return _geometry(1.0 + RING_RADIUS * np.exp(1j * th), variant,
                     get_tables().s_max)


def _cauchy(g: _Geometry, z: complex, *values: np.ndarray) -> tuple[complex, ...]:
    """(1/2 pi i) times the ring integral of f(t)/(t - z) dt for each array
    of values f at the upper-half nodes t of `g`: the trapezoidal sum over
    the upper half plus its Schwarz reflection f(conj t) = conj f(t),

        (v @ w + conj(v @ wbar)) / N,  w = (t-1)/(t-z), wbar = (t-1)/(t-conj z).
    """
    t = g.points
    w = (t - 1.0) / (t - z)
    wbar = (t - 1.0) / (t - z.conjugate())
    n = 2 * len(t)
    return tuple(complex(v @ w + np.conj(v @ wbar)) / n for v in values)


def _mod_sums(g: _Geometry, u: float, m: int):
    """The four truncated sums of modified coefficients at each point:

    (even_tilde, odd_tilde, even_plain, odd_plain), each one row-by-weight
    product with the weights u^{-s}, s = 1..2m+1, of one parity.
    """
    n = 2 * m + 1
    s = np.arange(1, n + 1)
    w = float(u) ** -s.astype(float)
    even = np.where(s % 2 == 0, w, 0.0)
    odd = w - even
    tilde, plain = g.tilde[:, :n], g.plain[:, :n]
    return tilde @ even, tilde @ odd, plain @ even, plain @ odd


def _check_tp_domain(z: complex, variant: str) -> None:
    if variant == "PCF-":
        if not plane.domain_contains(z, plane.DomainId("Z")):
            raise DomainError(f"z={z} outside the turning-point domain")
    else:
        if z.imag == 0.0 and z.real <= -1.0:
            raise DomainError("on the cut (-inf,-1]")


def _exp_sums(g: _Geometry, u: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """e^even cosh(odd) of the tilde sums and e^even sinh(odd) of the plain
    sums at each point of the geometry; DomainError where their exponents
    leave the float range."""
    even_t, odd_t, even_p, odd_p = _mod_sums(g, u, m)
    for even, odd in ((even_t, odd_t), (even_p, odd_p)):
        # e^even cosh(odd) and e^even sinh(odd) are at most e^{even+|odd|}
        big = np.abs(odd.real)
        if max(np.max(big), np.max(even.real + big)) > _EXP_LIMIT:
            raise DomainError("coefficient functions overflow: the turning-"
                              "point expansion does not hold here")
    return np.exp(even_t) * np.cosh(odd_t), np.exp(even_p) * np.sinh(odd_p)


def _ab(g: _Geometry, u: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """A_{2m+2} and B_{2m+2} at each point of the geometry."""
    cosh_t, sinh_p = _exp_sums(g, u, m)
    return g.root_a * cosh_t, sinh_p / (u ** (1.0 / 3.0) * g.root_b)


def _ab_direct(u: float, z: complex, m: int, variant: str) -> tuple[complex, complex]:
    """Direct assembly for |z-1| >= DIRECT_MIN_DIST, Im z >= 0."""
    A, B = _ab(_point_geometry(z, variant, m), u, m)
    return complex(A[0]), complex(B[0])


def tp_coeff_funcs(u: float, z: complex, m: int, variant: str = "PCF-") -> TPCoeffs:
    """A_{2m+2}(u,z), B_{2m+2}(u,z) (Weber variant when requested)."""
    check_inputs(u, z)
    check_order(m, 0, get_tables().s_max // 2 - 1)
    if variant not in ("PCF-", "WEB+"):
        raise ValueError("variant must be 'PCF-' or 'WEB+'")
    z = plane.canon(z)
    _check_tp_domain(z, variant)
    if z.imag < 0:
        return tp_coeff_funcs(u, z.conjugate(), m, variant).conj()
    if abs(z - 1.0) < DIRECT_MIN_DIST:
        A, B = _ab_cauchy(u, z, m, variant)
        method = "cauchy"
        est = _ab_est_err(u, complex(1.0 + CAUCHY_RADIUS), m) * \
            CAUCHY_RADIUS / (CAUCHY_RADIUS - abs(z - 1.0))
    else:
        A, B = _ab_direct(u, z, m, variant)
        method = "direct"
        est = _ab_est_err(u, z, m)
    if z.imag == 0.0 and z.real > -1.0:
        A, B = complex(A.real), complex(B.real)
    return TPCoeffs(A, B, m, method, est)


def _ab_cauchy(u: float, z: complex, m: int, variant: str) -> tuple[complex, complex]:
    g = _ring_geometry(variant)
    return _cauchy(g, z, *_ab(g, u, m))


# ----------------------------------------------------------------------
# error estimate machinery for the turning-point expansions
# ----------------------------------------------------------------------

def _beta_image_minus(path: plane.PathPolyline):
    """Continuous beta = z/sqrt(z^2-1) and xi images of a PCF- estimate
    path: lists of (beta, dbeta w) and (xi, dxi w) batches."""
    segs, xi_nodes = [], []
    for zn, dzw in polyline_nodes(path.vertices):
        sq = plane.sqrt_zz_minus_1(zn)
        segs.append((zn / sq, -dzw / sq ** 3))
        xi_nodes.append((plane.xi_minus(zn), dzw * sq))
    return segs, xi_nodes


def _gamma_beta_xi(n: int, xi_nodes, seq) -> tuple[tuple, tuple, float]:
    """omega/varpi moments of the scalar sequences in the xi variable, where
    the s-th exponent coefficient is (-1)^s a_s/(s xi^s), and the analytic
    tail that Gamma adds to the leading term beyond the truncated far
    endpoint."""
    coef = [(-1) ** (k + 1) * seq[k] for k in range(n + 1)]
    gam, bet = _omega_varpi_moments(
        n, xi_nodes,
        lambda xi: [c * xi ** (-k - 1) for k, c in enumerate(coef)],
        lambda xi: 1.0)
    # the first node of each segment lies nearest its far end
    xi_far = max(float(np.max(np.abs(xi[:, 0]))) for xi, _ in xi_nodes)
    return gam, bet, 2.0 * seq[n] / (n * xi_far ** n)


@lru_cache(maxsize=_POINT_CACHE_SIZE)
def _est_moments(z: complex, m: int) -> tuple[tuple, _Geometry]:
    """The u-free part of _ab_est_err at z: for each estimate path (to +inf,
    then to +-i inf on the side of z) the omega, varpi, Gamma and B moments
    and the Gamma tail; and the geometry of z for the envelope."""
    n = 2 * m + 2
    t = get_tables()
    paths = []
    for end in ("+inf", "+iinf" if z.imag >= 0 else "-iinf"):
        segs, xi_nodes = _beta_image_minus(plane.monotone_path(z, end, "PCF-"))
        paths.append((*_family_moments(n, segs, t.rows["E_d"]),
                      *_gamma_beta_xi(n, xi_nodes, t.seq["a"])))
    return tuple(paths), _point_geometry(z, "PCF-", m)


def _ab_est_err(u: float, z: complex, m: int) -> float:
    """Majorant for the dropped error terms of A and B, combined
    into one conservative relative figure; the scalar constants dropped in
    the identifications are absorbed by the calibrated parameter-decay
    margin.  DomainError where no estimate path leaves z (within
    plane.TP_CLEARANCE of -1)."""
    n = 2 * m + 2
    try:
        paths, g = _est_moments(z, m)
    except (plane.NoPath, ValueError) as exc:
        raise DomainError(f"no error estimate at z={z}: {exc}") from exc
    e_vals = []
    for (om, vp, gm, bt, tail), dlt in zip(paths, (0.0, delta_n_pm(u, n))):
        om, vp = _at_u(om, u), _at_u(vp, u)
        gm, bt = _at_u(gm, u) + tail, _at_u(bt, u)
        # the raw majorants blow up near the second turning point; the
        # clamp only ever loosens an already-useless estimate
        e = u ** n * dlt \
            + om * math.exp(min(vp / u + om * u ** (-n), 60.0)) \
            + gm * math.exp(min(bt / u + gm * u ** (-n), 60.0))
        e_vals.append(min(e, 1e30))
    re_sum = float(sum(abs(s[0]) for s in _mod_sums(g, u, m)))
    env = math.exp(min(re_sum, 50.0))
    e_j, e_k = e_vals
    bound = u ** (-n) * env * (
        e_j * (1.0 + e_j / (2.0 * u ** n)) ** 2
        + e_k * (1.0 + e_k / (2.0 * u ** n)) ** 2)
    return bound + EPS_CONST_MARGIN * u ** (-n)


# ----------------------------------------------------------------------
# homogeneous solutions through the turning point
# ----------------------------------------------------------------------

def _airy_at(u: float, zeta: complex, rotation: int = 0) -> AiryValue:
    return airy(u ** (2.0 / 3.0) * zeta, rotation)


def _w_ml(u: float, z: complex, co: TPCoeffs, l: int, variant: str = "PCF-",
          use_bi: bool = False) -> tuple[complex, float]:
    """w_{m,l} = Ai_l(u^{2/3} zeta) A + Ai_l'(u^{2/3} zeta) B (or the Bi
    companion) from the coefficient functions `co` at z; returns (value,
    relative error estimate)."""
    _, zeta = plane.xi_zeta(z)
    if variant == "WEB+":
        zeta = -zeta
    av = _airy_at(u, zeta, rotation=l)
    f, fp = (av.bi, av.bi_prime) if use_bi else (av.ai, av.ai_prime)
    val = f * co.A + fp * co.B
    est_abs = abs(f * co.A) * co.est_err + abs(fp * co.B) * co.est_err
    rel = est_abs / abs(val) if val != 0 else math.inf
    if not math.isfinite(rel):
        raise DomainError("no finite error estimate: the turning-point "
                          "expansion does not hold here")
    return val, rel


def _neg_coeffs(u: float, z: complex, m: int) -> TPCoeffs:
    """The checks of the PCF- entries (U-, V-, U+-i), then the coefficient
    functions at z."""
    check_inputs(u, z)
    if u < 5:
        raise DomainError("parameter too small for the expansion (u >= 5)")
    _check_tp_domain(z, "PCF-")
    return tp_coeff_funcs(u, z, m, "PCF-")


def pcf_U_neg(u: float, z: complex, m: int) -> CertifiedValue:
    """U(-u/2, sqrt(2u) z) for z in the turning-point domain."""
    z = complex(z)
    return _u_neg_from(u, z, m, _neg_coeffs(u, z, m))


def _u_neg_from(u: float, z: complex, m: int, co: TPCoeffs) -> CertifiedValue:
    """pcf_U_neg at a checked (u, z) from the coefficient functions `co`
    at z."""
    wm, rel = _w_ml(u, z, co, 0)
    odd1 = odd_sum_at_1(u, m)
    logpref = 0.5 * math.log(math.pi) + (0.75 - 0.25 * u) * math.log(2.0) \
        + (0.25 * u - 1.0 / 12.0) * math.log(u) - 0.25 * u + odd1
    val = ScaledComplex.from_log(logpref) * wm
    if z.imag == 0.0 and z.real > -1.0:
        val = ScaledComplex(complex(val.mantissa.real, 0.0), val.log_scale)
    return CertifiedValue(val, rel, m, noncertified=("eps_U",))


def pcf_U_rotated(u: float, z: complex, m: int, sign: str = "-i") -> CertifiedValue:
    """U(u/2, -i sqrt(2u) z) for sign='-i' (recessive at +i inf), and the
    conjugate-phase '+i' variant; both through the rotated Airy solutions."""
    if sign not in ("-i", "+i"):
        raise ValueError("sign must be '-i' or '+i'")
    z = complex(z)
    return _u_rot_from(u, z, m, _neg_coeffs(u, z, m), sign == "-i")


def _u_rot_from(u: float, z: complex, m: int, co: TPCoeffs,
                upper: bool) -> CertifiedValue:
    """pcf_U_rotated at a checked (u, z) from the coefficient functions
    `co` at z; `upper` selects sign '-i'."""
    wm, rel = _w_ml(u, z, co, 1 if upper else -1)
    odd1 = odd_sum_at_1(u, m)
    logpref = 0.5 * math.log(math.pi) + (0.75 + 0.25 * u) * math.log(2.0) \
        - (0.25 * u + 1.0 / 12.0) * math.log(u) + 0.25 * u - odd1
    phase = (0.25 * u + 1.0 / 12.0) * math.pi if upper else \
        -(0.25 * u + 1.0 / 12.0) * math.pi
    val = ScaledComplex.from_log(logpref, phase) * wm
    return CertifiedValue(val, rel, m, noncertified=("eps_pm1",))


def pcf_V_neg(u: float, z: complex, m: int) -> CertifiedValue:
    """V(-u/2, sqrt(2u) z) via the Bi-companion assembly."""
    z = complex(z)
    return _v_neg_from(u, z, m, _neg_coeffs(u, z, m))


def _v_neg_from(u: float, z: complex, m: int, co: TPCoeffs) -> CertifiedValue:
    """pcf_V_neg at a checked (u, z) from the coefficient functions `co`
    at z."""
    wm, rel = _w_ml(u, z, co, 0, use_bi=True)
    odd1 = odd_sum_at_1(u, m)
    logpref = (0.25 + 0.25 * u) * math.log(2.0) \
        - (0.25 * u + 1.0 / 12.0) * math.log(u) + 0.25 * u - odd1
    val = ScaledComplex.from_log(logpref) * wm
    if z.imag == 0.0 and z.real > -1.0:
        val = ScaledComplex(complex(val.mantissa.real, 0.0), val.log_scale)
    return CertifiedValue(val, rel, m, noncertified=("eps_V",))


def pcf_left_extension(u: float, z: complex, m: int, which: str = "U") -> CertifiedValue:
    """U(-u/2, sqrt(2u) z) or V(-u/2, sqrt(2u) z) for Re z <= 0 with -z in
    the turning-point domain, through the reflection connections."""
    z = complex(z)
    if z.real > 1e-12:
        raise DomainError("left extension expects Re z <= 0")
    if which not in ("U", "V"):
        raise ValueError("which must be 'U' or 'V'")
    w = -z
    a = u / 2.0
    lg = math.lgamma(a + 0.5)
    # one evaluation of the coefficient functions at w feeds both terms
    co = _neg_coeffs(u, w, m)
    uneg = _u_neg_from(u, w, m, co)
    if which == "U":
        upper = z.imag >= 0.0
        rot = _u_rot_from(u, w, m, co, not upper)
        ph1 = (-1j if upper else 1j) * cmath.exp((1j if upper else -1j) * math.pi * a)
        # 1/Gamma(1/2 - a) = cos(pi a) Gamma(a + 1/2) / pi
        gfac = math.cos(math.pi * a) / math.pi
        ph2 = cmath.exp((1j if upper else -1j) * math.pi * (0.5 * a + 0.25))
        term1 = uneg.value * ph1
        term2 = rot.value * (ScaledComplex.from_log(
            0.5 * math.log(2.0 * math.pi) + lg) * (gfac * ph2))
        val = term1 + term2
        lv = val.log_abs
        rel = uneg.rel_bound * math.exp(min(term1.log_abs - lv, 50.0)) + \
            rot.rel_bound * math.exp(min(term2.log_abs - lv, 50.0))
        return CertifiedValue(val, rel, m, noncertified=("eps_U", "eps_pm1"))
    vneg = _v_neg_from(u, w, m, co)
    term1 = uneg.value * math.cos(math.pi * a) * ScaledComplex.from_log(-lg)
    term2 = vneg.value * (-math.sin(math.pi * a))
    val = term1 + term2
    rel = max(uneg.rel_bound, vneg.rel_bound) * 3.0
    return CertifiedValue(val, rel, m, noncertified=("eps_U", "eps_V"))


# ----------------------------------------------------------------------
# real Weber functions
# ----------------------------------------------------------------------

def weber_W_real(u: float, x: float, m: int, sign: str = "+x") -> CertifiedValue:
    """W(u/2, +-sqrt(2u) x), uniformly valid for x >= -1 + 0.05.

    '+x' is the bounded oscillatory-side form (Bi-type), '-x' carries the
    e^{pi u/2} scale (Ai-type).  The certified figure is envelope-relative.
    """
    check_inputs(u, x)
    check_real(x)
    if u < 5:
        raise DomainError("u >= 5 required")
    if x < -1.0 + 0.05:
        raise DomainError("x below the validity cutoff -1 + 0.05")
    if sign not in ("+x", "-x"):
        raise ValueError("sign must be '+x' or '-x'")
    if x < 0:
        # reflect: the coefficient functions are then evaluated near the
        # right turning point, where the Cauchy circle keeps them accurate
        return weber_W_real(u, -x, m, "-x" if sign == "+x" else "+x")
    z = complex(x)
    _, zeta = plane.xi_zeta(z)
    co = tp_coeff_funcs(u, z, m, "WEB+")
    av = airy(-u ** (2.0 / 3.0) * zeta.real)
    logk = -math.pi * u / 2.0 - math.log(math.sqrt(1.0 + math.exp(-math.pi * u)) + 1.0)
    envai, envbi = env_airy(-u ** (2.0 / 3.0) * zeta.real)
    if sign == "+x":
        core = av.bi.real * co.A.real + av.bi_prime.real * co.B.real
        logpref = 0.25 * math.log(2.0) + 0.5 * (math.log(math.pi) + logk) \
            - math.log(u) / 12.0
        env = envbi
    else:
        core = av.ai.real * co.A.real + av.ai_prime.real * co.B.real
        logpref = 1.25 * math.log(2.0) + 0.5 * (math.log(math.pi) + logk) \
            - math.log(u) / 12.0 + math.pi * u / 2.0
        env = envai
    val = ScaledComplex.from_log(logpref) * core
    env_rel = (co.est_err + EPS_CONST_MARGIN * u ** (-2 * m - 2))
    rel = env_rel * env / abs(core) if core != 0 else math.inf
    return CertifiedValue(val, rel, m, noncertified=("eps_W", "env_term"))
