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
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import plane, quadrature
from .airy import _envelope, airy
from .coeffs import check_order, evaluate, get_tables
from .constants import delta_n_pm, odd_sum_at_1
from .errors import CutError, DomainError, check_inputs, check_real
from .lg import CertifiedValue, _at_u, _family_moments, _split_moments
# not called here; perfbench's tracing self-test checks that the wrapped
# omega_varpi is rebound in this namespace
from .lg import omega_varpi  # noqa: F401
from .scaled import ScaledComplex, sincospi, sum_rel

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

#: largest |Re| of a sum's exponent that _exp_sums accepts, and largest
#: log |xi|^(2m+2) that tp_coeff_funcs accepts; e^709.8 is the largest float
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
    #: the Airy argument u^{2/3} zeta(z) (WEB+: -u^{2/3} zeta(z))
    arg: complex

    def conj(self) -> "TPCoeffs":
        """The coefficient functions at the conjugate point."""
        return TPCoeffs(self.A.conjugate(), self.B.conjugate(), self.m,
                        self.method, self.est_err, self.arg.conjugate())


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

    def __post_init__(self):
        # geometries are cached and shared: no caller may write into them
        for arr in vars(self).values():
            arr.setflags(write=False)


def _geometry(points, variant: str, s_top: int) -> _Geometry:
    """Liouville variables, roots and E_1..E_{s_top} at upper-side points
    in one array pass, each by the scalar formula of its zone
    (plane.xi_zeta, plane.beta_map, _root_A, _root_B); then the coefficient
    rows

        E_s(beta) + (-1)^s seq_s xi^{-s} / s,   s = 1..s_top,

    for the plain sequence a_s and the tilde sequence (both families share
    the E_s polynomials).  The WEB+ geometry is the PCF- one with each
    column times (-i)^s and root_b times -i (`_web`)."""
    t = get_tables()
    # + 0.0 turns a -0.0 imaginary part into +0.0 (plane.canon)
    p = np.array(points, dtype=complex).reshape(-1) + 0.0
    # sqrt(z^2-1) = a b with the cut (-inf, 1] (upper-side limit on it)
    a, b = np.sqrt(p - 1.0), np.sqrt(p + 1.0)
    sq = a * b
    beta = p / sq
    xi = 0.5 * p * sq - 0.5 * np.log(p + sq)
    # zeta from the branch-corrected 2/3 power of xi
    zeta = (1.5 * xi) ** (2.0 / 3.0)
    zeta[(xi.imag < 0) | ((xi.imag == 0) & (xi.real <= 0))] *= cmath.exp(4j * math.pi / 3.0)
    axis = p.imag == 0.0
    if axis.any():
        # on the axis: real zeta, and xi = -i nu on (-1, 1)
        x = p.real
        if np.any(axis & ((x <= -1.0) | (x == 1.0))):
            raise CutError("z on the cut (-inf,-1] or at a turning point")
        mid = axis & (x < 1.0)
        xi[mid] = [-1j * plane.nu_middle(v) for v in x[mid]]
        zeta[mid] = -(1.5 * -xi.imag[mid]) ** (2.0 / 3.0)
        zeta[axis & ~mid] = (1.5 * xi.real[axis & ~mid]) ** (2.0 / 3.0)
    g = zeta / (p * p - 1.0)
    near = np.abs(p - 1.0) < plane.ZETA_SERIES_RADIUS
    if near.any():
        # near z = 1: the local series, and xi from it (off (-1, 1))
        zw = plane.zeta_over_w(p[near])
        zeta[near] = (p[near] - 1.0) * zw
        g[near] = zw / (p[near] + 1.0)
        series_xi = near & ~(axis & (p.real < 1.0))
        xi[series_xi] = (2.0 / 3.0) * zeta[series_xi] ** 1.5
    ra = g ** 0.25
    rb = ra * a * b
    # one point takes evaluate's scalar Horner: on one node the array
    # pass's numpy call per degree costs six times as much
    E = np.array(evaluate(t.rows["E"], complex(beta[0]) if len(p) == 1 else beta,
                          1, s_top + 1)).reshape(s_top, len(p)).T
    xi_s = xi[:, None] ** -np.arange(1, s_top + 1)
    s = range(1, s_top + 1)

    def rows(seq) -> np.ndarray:
        return E + np.array([(-1) ** k * seq[k] / k for k in s]) * xi_s

    geo = _Geometry(p, zeta, ra, rb, rows(t.seq["a"]), rows(t.seq["a_tilde"]))
    return _web(geo) if variant == "WEB+" else geo


def _web(g: _Geometry) -> _Geometry:
    """The WEB+ geometry of the points of a PCF- one: root_b times -i and
    column s of each row times (-i)^s, both exact."""
    fac = np.array([(-1j) ** k for k in range(1, g.plain.shape[1] + 1)])
    return _Geometry(g.points, g.zeta, g.root_a, -1j * g.root_b,
                     fac * g.plain, fac * g.tilde)


@lru_cache(maxsize=_POINT_CACHE_SIZE)
def _point_geometry(z: complex, m: int) -> _Geometry:
    """The PCF- geometry of one point (Im z >= 0), with the rows order m
    needs; WEB+ reads it through `_web`.  Kept per point: it does not
    depend on u."""
    return _geometry([z], "PCF-", min(2 * m + 1, get_tables().s_max))


@lru_cache(maxsize=2)
def _ring_geometry(variant: str) -> _Geometry:
    """The upper half of the ring, with rows to the full table depth (WEB+:
    `_web` of the PCF- ring).  Built on first use and kept: it does not
    depend on u."""
    if variant == "WEB+":
        return _web(_ring_geometry("PCF-"))
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


def _exp_sums(g: _Geometry, u: float, m: int,
              sums=None) -> tuple[np.ndarray, np.ndarray]:
    """e^even cosh(odd) of the tilde sums and e^even sinh(odd) of the plain
    sums at each point of the geometry (its `_mod_sums` at u, or `sums` if
    the caller has them); DomainError where their exponents leave the float
    range."""
    even_t, odd_t, even_p, odd_p = _mod_sums(g, u, m) if sums is None else sums
    for even, odd in ((even_t, odd_t), (even_p, odd_p)):
        # e^even cosh(odd) and e^even sinh(odd) are at most e^{even+|odd|}
        big = np.abs(odd.real)
        if max(np.max(big), np.max(even.real + big)) > _EXP_LIMIT:
            raise DomainError("coefficient functions overflow: the turning-"
                              "point expansion does not hold here")
    return np.exp(even_t) * np.cosh(odd_t), np.exp(even_p) * np.sinh(odd_p)


def _ab(g: _Geometry, u: float, m: int, sums=None) -> tuple[np.ndarray, np.ndarray]:
    """A_{2m+2} and B_{2m+2} at each point of the geometry."""
    cosh_t, sinh_p = _exp_sums(g, u, m, sums)
    return g.root_a * cosh_t, sinh_p / (u ** (1.0 / 3.0) * g.root_b)


def _ab_direct(u: float, z: complex, m: int, variant: str,
               sums=None) -> tuple[complex, complex]:
    """Direct assembly for |z-1| >= DIRECT_MIN_DIST, Im z >= 0, on the
    point's one geometry; `sums` are its `_mod_sums` at u if the caller has
    them (PCF- only: WEB+ sums its own rows)."""
    g = _point_geometry(z, m)
    A, B = _ab(_web(g), u, m) if variant == "WEB+" else _ab(g, u, m, sums)
    return complex(A[0]), complex(B[0])


def tp_coeff_funcs(u: float, z: complex, m: int, variant: str = "PCF-") -> TPCoeffs:
    """A_{2m+2}(u,z), B_{2m+2}(u,z) (Weber variant when requested)."""
    check_inputs(u, z)
    if variant not in ("PCF-", "WEB+"):
        raise ValueError("variant must be 'PCF-' or 'WEB+'")
    check_order(m, 0, get_tables().s_max // 2 - 1)
    z = plane.canon(z)
    plane.region("A,B " + variant, u, z)
    below = z.imag < 0
    z = z.conjugate() if below else z
    xi, zeta = plane.xi_zeta(z)
    # the rows divide by xi^s, s <= 2m+1, and the estimate's tail by xi^(2m+2)
    if not abs(xi) <= math.exp(_EXP_LIMIT / (2 * m + 2)):
        raise DomainError(f"xi^{2 * m + 2} leaves the double range at z={z}")
    arg = (-1.0 if variant == "WEB+" else 1.0) * u ** (2.0 / 3.0) * zeta
    if abs(z - 1.0) < DIRECT_MIN_DIST:
        A, B = _ab_cauchy(u, z, m, variant)
        method = "cauchy"
        est = _ab_est_err(u, complex(1.0 + CAUCHY_RADIUS), m) * \
            CAUCHY_RADIUS / (CAUCHY_RADIUS - abs(z - 1.0))
    else:
        # the PCF- sums serve A, B (PCF-) and the estimate's envelope
        sums = _mod_sums(_point_geometry(z, m), u, m)
        A, B = _ab_direct(u, z, m, variant, sums)
        method = "direct"
        est = _ab_est_err(u, z, m, sums)
    if z.imag == 0.0 and z.real > -1.0:
        A, B = complex(A.real), complex(B.real)
    co = TPCoeffs(A, B, m, method, est, arg)
    return co.conj() if below else co


def _ab_cauchy(u: float, z: complex, m: int, variant: str) -> tuple[complex, complex]:
    g = _ring_geometry(variant)
    return _cauchy(g, z, *_ab(g, u, m))


# ----------------------------------------------------------------------
# error estimate machinery for the turning-point expansions
# ----------------------------------------------------------------------

@lru_cache(maxsize=_POINT_CACHE_SIZE)
def _est_moments(z: complex, m: int) -> tuple[tuple, _Geometry]:
    """The u-free part of _ab_est_err at z: for each estimate path (to +inf,
    then to +-i inf on the side of z) the omega, varpi, Gamma and B moments
    and the Gamma tail beyond the truncated far endpoint; and the geometry
    of z for the envelope.  The nodes of both paths are mapped together to
    beta = z/sqrt(z^2-1) and xi.  Omega and varpi are the template of the
    rows E_k'(beta); Gamma and B that of the rows c_k xi^(-k-1), c_k =
    (-1)^(k+1) a_k, of the scalar sequence, in closed form: a cross sum is
    C_s xi^(-s-n-1), C_s = sum_{k=s}^{n-1} c_k c_{s+n-k-1}, its terms all of
    the sign (-1)^(s+n+1), so each moment is a constant times a path
    integral of |xi|^(-j) |dxi|, j = 2..2n."""
    n = 2 * m + 2
    t = get_tables()
    # a path that collapses to z (on the truncation box) is the zero-length
    # segment [z, z]: zero moments, and z is its far end
    paths = [[*v, z] if len(v) == 1 else v
             for v in (plane.monotone_path(z, end, "PCF-").vertices
                       for end in ("+inf", "+iinf" if z.imag >= 0 else "-iinf"))]
    c = np.array([(-1) ** (k + 1) * t.seq["a"][k] for k in range(n + 1)])
    # |c_1..c_n|, then |C_s| = |(c_0..c_{n-1} convolved with itself)[s+n-1]|
    consts = np.abs(np.concatenate((c[1:], np.convolve(c[:n], c[:n])[n:])))
    images, xi_moments, xi_far = [], np.zeros((2, 2 * n - 1)), [0.0, 0.0]
    for zn, dzw, spans in quadrature.path_nodes(paths):
        sq = plane.sqrt_zz_minus_1(zn)
        r = np.abs(plane.xi_minus_nodes(zn, sq))
        images.append((zn / sq, -dzw / sq ** 3, spans))
        powers = r ** -np.arange(2.0, 2 * n + 1)[:, None] * np.abs(dzw * sq)
        for i, a, b in spans:
            xi_moments[i] += powers[:, a:b].sum(axis=-1)
            # the first node of each segment lies nearest its far end
            xi_far[i] = max(xi_far[i], float(np.max(r[a:b:quadrature.SEGMENT_NODES])))
    return tuple((*fam, *_split_moments(n, (consts * seq).tolist()),
                  2.0 * t.seq["a"][n] / (n * far ** n))
                 for fam, seq, far in zip(_family_moments(n, images, t.rows["E_d"]),
                                          xi_moments, xi_far)), \
        _point_geometry(z, m)


def _ab_est_err(u: float, z: complex, m: int, sums=None) -> float:
    """Majorant for the dropped error terms of A and B, combined
    into one conservative relative figure; the scalar constants dropped in
    the identifications are absorbed by the calibrated parameter-decay
    margin.  `sums` are the `_mod_sums` of z's geometry at u if the caller
    has them.  DomainError where no estimate path leaves z (within
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
    if sums is None:
        sums = _mod_sums(g, u, m)
    re_sum = float(sum(abs(s[0]) for s in sums))
    env = math.exp(min(re_sum, 50.0))
    e_j, e_k = e_vals
    bound = u ** (-n) * env * (
        e_j * (1.0 + e_j / (2.0 * u ** n)) ** 2
        + e_k * (1.0 + e_k / (2.0 * u ** n)) ** 2)
    return bound + EPS_CONST_MARGIN * u ** (-n)


# ----------------------------------------------------------------------
# homogeneous solutions through the turning point
# ----------------------------------------------------------------------

#: the PCF- families: (rotation l of the Airy solution Ai_l, or None for Bi;
#: (log prefactor, phase) from u and odd_sum_at_1; real on (-1, inf)?; tag)
_NEG_FAMILIES = {
    "U-": (0, lambda u, odd1: (
        0.5 * math.log(math.pi) + (0.75 - 0.25 * u) * math.log(2.0)
        + (0.25 * u - 1.0 / 12.0) * math.log(u) - 0.25 * u + odd1, 0.0),
        True, "eps_U"),
    "V-": (None, lambda u, odd1: (
        (0.25 + 0.25 * u) * math.log(2.0)
        - (0.25 * u + 1.0 / 12.0) * math.log(u) + 0.25 * u - odd1, 0.0),
        True, "eps_V"),
    "U-i": (1, lambda u, odd1: (
        0.5 * math.log(math.pi) + (0.75 + 0.25 * u) * math.log(2.0)
        - (0.25 * u + 1.0 / 12.0) * math.log(u) + 0.25 * u - odd1,
        (0.25 * u + 1.0 / 12.0) * math.pi), False, "eps_pm1"),
    "U+i": (-1, lambda u, odd1: (
        0.5 * math.log(math.pi) + (0.75 + 0.25 * u) * math.log(2.0)
        - (0.25 * u + 1.0 / 12.0) * math.log(u) + 0.25 * u - odd1,
        -(0.25 * u + 1.0 / 12.0) * math.pi), False, "eps_pm1"),
}


def _neg_value(u: float, z: complex, m: int, co: TPCoeffs,
               family: str) -> CertifiedValue:
    """A `_NEG_FAMILIES` value at a checked (u, z) from the PCF- coefficient
    functions `co` at z: the prefactor times w = f(arg) A + f'(arg) B for
    the family's Airy solution f, with relative error estimate
    (|f A| + |f' B|) est_err / |w|, infinite where |w| is below the normal
    float range (its scaled form would overflow)."""
    rot, pref, real, tag = _NEG_FAMILIES[family]
    av = airy(co.arg, rot or 0, "bi" if rot is None else "ai")
    f, fp = (av.bi, av.bi_prime) if rot is None else (av.ai, av.ai_prime)
    wm = f * co.A + fp * co.B
    est_abs = abs(f * co.A) * co.est_err + abs(fp * co.B) * co.est_err
    rel = est_abs / abs(wm) if abs(wm) >= sys.float_info.min else math.inf
    if not math.isfinite(rel):
        raise DomainError("no finite error estimate: the turning-point "
                          "expansion does not hold here")
    val = ScaledComplex.from_log(*pref(u, odd_sum_at_1(u, m))) * wm
    if real and z.imag == 0.0 and z.real > -1.0:
        val = ScaledComplex(complex(val.mantissa.real, 0.0), val.log_scale)
    return CertifiedValue(val, rel, m, noncertified=(tag,))


def _neg_coeffs(u: float, z: complex, m: int) -> TPCoeffs:
    """The PCF- entries' checks, then the coefficient functions at z."""
    check_inputs(u, z)
    check_order(m, 0, get_tables().s_max // 2 - 1)
    plane.region("U-", u, z)
    return tp_coeff_funcs(u, z, m, "PCF-")


def pcf_U_neg(u: float, z: complex, m: int) -> CertifiedValue:
    """U(-u/2, sqrt(2u) z) for z in the turning-point domain."""
    z = complex(z)
    return _neg_value(u, z, m, _neg_coeffs(u, z, m), "U-")


def pcf_U_rotated(u: float, z: complex, m: int, sign: str = "-i") -> CertifiedValue:
    """U(u/2, -i sqrt(2u) z) for sign='-i' (recessive at +i inf), and the
    conjugate-phase '+i' variant; both through the rotated Airy solutions."""
    if sign not in ("-i", "+i"):
        raise ValueError("sign must be '-i' or '+i'")
    z = complex(z)
    return _neg_value(u, z, m, _neg_coeffs(u, z, m), "U" + sign)


def pcf_V_neg(u: float, z: complex, m: int) -> CertifiedValue:
    """V(-u/2, sqrt(2u) z) via the Bi-companion assembly."""
    z = complex(z)
    return _neg_value(u, z, m, _neg_coeffs(u, z, m), "V-")


def pcf_left_extension(u: float, z: complex, m: int, which: str = "U") -> CertifiedValue:
    """U(-u/2, sqrt(2u) z) or V(-u/2, sqrt(2u) z) for Re z <= 0 with -z in
    the turning-point domain, through the reflection connections, with
    cos(pi a) and sin(pi a) exact (`sincospi`) and bounded by `sum_rel`'s
    figure over the terms; DomainError where that figure is 1 or more."""
    check_inputs(u, z)
    if which not in ("U", "V"):
        raise ValueError("which must be 'U' or 'V'")
    check_order(m, 0, get_tables().s_max // 2 - 1)
    z = complex(z)
    plane.region("U-", u, z, route="reflection")
    w = -z
    a = u / 2.0
    sin_pa, cos_pa = sincospi(a)
    lg = math.lgamma(a + 0.5)
    # one evaluation of the coefficient functions at w feeds both terms
    co = tp_coeff_funcs(u, w, m, "PCF-")
    uneg = _neg_value(u, w, m, co, "U-")
    if which == "U":
        upper = z.imag >= 0.0
        rot = _neg_value(u, w, m, co, "U+i" if upper else "U-i")
        # -+i e^{+-i pi a}
        ph1 = complex(sin_pa, -cos_pa if upper else cos_pa)
        ph2 = cmath.exp((1j if upper else -1j) * math.pi * (0.5 * a + 0.25))
        # 1/Gamma(1/2 - a) = cos(pi a) Gamma(a + 1/2) / pi
        term2 = rot.value * (ScaledComplex.from_log(
            0.5 * math.log(2.0 * math.pi) + lg) * (cos_pa / math.pi * ph2))
        return _connected([(uneg.value * ph1, uneg.rel_bound),
                           (term2, rot.rel_bound)],
                          m, ("eps_U", "eps_pm1"))
    vneg = _neg_value(u, w, m, co, "V-")
    return _connected(
        [(uneg.value * cos_pa * ScaledComplex.from_log(-lg), uneg.rel_bound),
         (vneg.value * -sin_pa, vneg.rel_bound)],
        m, ("eps_U", "eps_V"))


def _connected(terms, m: int, noncertified: tuple[str, ...]) -> CertifiedValue:
    """The connection formula's sum of (value, relative error) terms,
    bounded by `sum_rel`'s figure; DomainError where it is not below 1."""
    val, rel = sum_rel(terms)
    if not rel < 1.0:
        raise DomainError(f"the connection's terms cancel: error figure {rel:.3g}")
    return CertifiedValue(val, rel, m, noncertified=noncertified)


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
    if sign not in ("+x", "-x"):
        raise ValueError("sign must be '+x' or '-x'")
    check_order(m, 0, get_tables().s_max // 2 - 1)
    if plane.region("Wx", u, complex(x)).route == "image":
        # W(a, +-x) = W(a, -+|x|): the coefficient functions are then taken
        # near the right turning point, where the Cauchy circle is accurate
        x, sign = -x, "-x" if sign == "+x" else "+x"
    co = tp_coeff_funcs(u, complex(x), m, "WEB+")
    w = co.arg.real
    av = airy(w)
    logk = -math.pi * u / 2.0 - math.log(math.sqrt(1.0 + math.exp(-math.pi * u)) + 1.0)
    envai, envbi = _envelope(w, av)
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
