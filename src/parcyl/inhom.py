"""Particular solutions of the inhomogeneous equations.

Elementary series away from the turning points with the certified error
majorant, Scorer-function expansions valid at the turning point, and the
connection constants Lambda_R, gamma_{m,R} (both kinds), alpha_R, c0, c3.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import plane
from .airy import wi, wi_prime
from .coeffs import (FloatRows, check_forcing_degree, check_order, evaluate,
                     get_tables)
from .errors import (DomainError, OrderError, PoleError, check_inputs,
                     check_points, check_real)
from .gamma import loggamma, rgamma
from .constants import chi_m, odd_sum_at_1
from .lg import BOUND_SAFETY, CertifiedValue, _weber_Wj
from .quadrature import path_nodes
from .scaled import ScaledComplex
from .tp import (TPCoeffs, _Geometry, _cauchy, _connected, _exp_sums,
                 _neg_value, _ring_geometry, tp_coeff_funcs)

#: empirical margin for the dropped contour-remainder of the Scorer
#: expansions; the u=10 worst case measured by scripts/calibration_sweep.py
#: is 0.028, pinned with a generous safety factor
SCORER_MARGIN = 0.5


@dataclass(frozen=True)
class ConnectionConstant:
    value: ScaledComplex
    kind: str


# ----------------------------------------------------------------------
# terminating scaled hypergeometric and the connection constants
# ----------------------------------------------------------------------

def hyp_terminating(R: int, c: complex) -> complex:
    """F(1/2 - R/2, -R/2; c; 1/2) / Gamma-normalized: exactly floor(R/2)+1
    nonzero terms; entire in c through the 1/Gamma(c+s) scaling."""
    check_forcing_degree(R)
    check_points(c)
    a = 0.5 - 0.5 * R
    b = -0.5 * R
    total = 0j
    poch = 1.0
    half = 1.0
    fact = 1.0
    for s in range(R // 2 + 1):
        if s > 0:
            poch *= (a + s - 1) * (b + s - 1)
            half *= 0.5
            fact *= s
        total += poch * half / fact * rgamma(complex(c) + s)
    return complex(total)


def lambda_R(a: float, R: int, sign: str = "+a") -> ConnectionConstant:
    """Lambda_R(a) or Lambda_R(-a); PoleError at the excluded parameters,
    which for Lambda_R(-a) are a = N + 1/2 exactly, with N - R even."""
    check_real(a)
    if sign not in ("+a", "-a"):
        raise ValueError("sign must be '+a' or '-a'")
    F = hyp_terminating(R, 0.5 * a - 0.5 * R + 0.75)
    if sign == "+a":
        if abs((a + 0.5) - round(a + 0.5)) < 1e-12 and round(a + 0.5) <= 0:
            raise PoleError("a + 1/2 at a nonpositive integer")
        # complex: on a < -1/2, Im ln Gamma carries the sign of Gamma
        lg = loggamma(complex(a + 0.5))
        logmag = (-0.5 * a + 1.5 * R + 0.25) * math.log(2.0) \
            + 0.5 * math.log(math.pi) + lg.real
        phase = math.pi * (0.5 * a + 0.5 * R - 0.75)
        val = ScaledComplex.from_log(logmag, phase) * cmath.exp(1j * lg.imag)
        return ConnectionConstant(val * F, "Lambda(+a)")
    # -a branch: with t = a - (N + 1/2), exact in binary, and
    # mu = (-1)^{R-N}, tan(pi a) + (-1)^R sec(pi a) = -(cos(pi t) + mu)/sin(pi t),
    # which is tan(pi t/2) for mu = -1 and -cot(pi t/2) for mu = +1
    N = round(a - 0.5)
    t = a - (N + 0.5)
    if (N - R) % 2:
        trig = math.tan(math.pi * t / 2.0)
    elif t == 0.0:
        raise PoleError("Lambda_R(-a) undefined at a = N + 1/2, N-R even")
    else:
        trig = -1.0 / math.tan(math.pi * t / 2.0)
    logmag = (-0.5 * a + 1.5 * R - 0.25) * math.log(2.0) + math.log(math.pi)
    val = ScaledComplex.from_log(logmag) * (-(trig + 1j))
    return ConnectionConstant(val * F, "Lambda(-a)")


def gamma_mR(u: float, m: int, R: int) -> ConnectionConstant:
    """The turning-point connection constant for the z^2-1 equation."""
    odd1 = odd_sum_at_1(u, m)
    F = hyp_terminating(R, 0.25 * u - 0.5 * R + 0.75)
    logmag = (-0.5 * u + R - 0.5) * math.log(2.0) \
        + (0.25 * u - 0.5 * R - 13.0 / 12.0) * math.log(u) \
        + 0.5 * math.log(math.pi) - 0.25 * u + odd1
    return ConnectionConstant(ScaledComplex.from_log(logmag) * F, "gamma_mR")


def gamma_W_mR(u: float, m: int, R: int) -> ConnectionConstant:
    """The Weber analogue, complex valued."""
    check_inputs(u)
    F = hyp_terminating(R, 0.75 - 0.5 * R + 0.25j * u)
    lg = loggamma(0.5 + 0.5j * u)
    logmag = (R - 1.0) * math.log(2.0) \
        + (-0.5 * R - 13.0 / 12.0) * math.log(u) + math.pi * u / 8.0 + lg.real
    phase = -0.25 * u * math.log(2.0) + chi_m(u, m) - 0.25 * math.pi * R \
        + math.pi / 8.0 + lg.imag
    return ConnectionConstant(ScaledComplex.from_log(logmag, phase) * F, "gamma_W")


def alpha_R(u: float, R: int) -> ConnectionConstant:
    """The left-half-plane Stokes constant of the negative-parameter Weber
    inhomogeneous solution."""
    check_inputs(u)
    F = hyp_terminating(R, 0.75 - 0.5 * R - 0.25j * u)
    lg = loggamma(0.5 - 0.5j * u)
    logmag = 0.5 * math.log(math.pi) - 0.25 * math.pi * u \
        + (1.5 * R + 0.25) * math.log(2.0) + lg.real
    phase = 0.25 * (1.0 - R) * math.pi + 0.25 * u * math.log(2.0) + lg.imag
    return ConnectionConstant(ScaledComplex.from_log(logmag, phase) * F, "alpha_R")


def c0_const(u: float) -> complex:
    check_inputs(u)
    return -1j * math.exp(-math.pi * u / 2.0)


def c3_const(u: float) -> ScaledComplex:
    check_inputs(u)
    lg = loggamma(0.5 - 0.5j * u)
    return ScaledComplex.from_log(
        0.5 * math.log(2.0 * math.pi) - math.pi * u / 4.0 - lg.real,
        math.pi / 4.0 - lg.imag)


# ----------------------------------------------------------------------
# elementary inhomogeneous series with certified bounds
# ----------------------------------------------------------------------

def _check_n_constraint(n: int, R: int) -> None:
    if not n > 0.25 * R - 0.375:
        raise OrderError(f"n={n} violates n > R/4 - 3/8 for R={R}")


def _series_sum(rows: FloatRows, u: float, z: complex, n: int,
                weber: bool) -> complex:
    """sum_{s<n} c_s F_s(z) / u^{2s+2} over the rows F_s of G or G*, with
    c_s = (-1)^{s+1} for the Weber equations and 1 otherwise."""
    vals = evaluate(rows, complex(z), 0, n)
    acc = 0j
    for s in range(n):
        term = vals[s] / u ** (2 * s)
        if weber:
            term *= (-1) ** (s + 1)
        acc += term
    return acc / u ** 2


def _bound_integrals(u: float, z: complex, n: int, R: int, variant: str,
                     row: plane.Region) -> float:
    """Certified error majorant along the two progressive paths of `row`."""
    gvariant = "minus" if variant == "minus" else "plus"
    sgn = -1.0 if variant == "minus" else 1.0  # z^2 - 1 vs z^2 + 1
    g, g_d = get_tables().G_rows(R, gvariant)

    legs = [plane.monotone_path(z, end, row.variant).vertices
            for end in row.endpoints]

    # first at z: its OverflowError refuses a point before the nodes do
    [gz] = evaluate(g, complex(z), n, n + 1)
    # both legs in one node array, summed batch by batch in path order
    I1 = I2 = sup_g = 0.0
    for zn, dzw, spans in path_nodes(legs):
        dz = np.abs(dzw)
        f = zn * zn + sgn
        base = np.abs(f)
        root = base ** 0.25
        [gv] = evaluate(g, zn, n, n + 1)
        [gdv] = evaluate(g_d, zn, n, n + 1)
        comb = np.abs(gdv + zn * gv / (2.0 * f))
        # 4 |Phi f^{1/2}|: numerator |2-3t^2| for the z^2+1 equations,
        # |3t^2+2| for the z^2-1 one
        phi_num = np.abs(3.0 * zn * zn + 2.0) if variant == "minus" \
            else np.abs(2.0 - 3.0 * zn * zn)
        i1 = root * comb * dz
        i2 = phi_num / base ** 2.5 * dz
        for _, a, b in spans:
            I1 += float(i1[a:b].sum())
            I2 += float(i2[a:b].sum())
        sup_g = max(sup_g, float(np.max(root * np.abs(gv))))

    wz = abs(z * z + sgn) ** 0.25
    Lbar = sup_g + 0.5 * I1
    denom = 1.0 - I2 / (8.0 * u)
    if denom <= 0:
        raise DomainError("bound integral too large: path passes too close "
                          "to a turning point")
    bound = u ** (-2 * n - 2) * (abs(gz) + I1 / (2.0 * wz)) \
        + Lbar / (8.0 * u ** (2 * n + 3) * wz) / denom * I2
    return bound * BOUND_SAFETY


#: the family of each inhom_series variant in plane.REGIONS
_SERIES_FAMILY = {"plus": "UR", "minus": "UR-", "weber-": "WR"}


def inhom_series(u: float, z: complex, n: int, R: int, variant: str = "plus",
                 pair: tuple[int, int] = (0, 2)) -> CertifiedValue:
    """Scaled particular solution (2u)^{R/2+1} w with the certified bound.

    variant 'plus': U_R^{(j,k)}(u/2, sqrt(2u) z); 'minus': the negative
    parameter analogue; 'weber-': W_R^{(0,3)}(-u/2, sqrt(2u) z) (through
    the reflection assembly for Re z < 0).
    """
    check_inputs(u, z)
    if variant not in _SERIES_FAMILY:
        raise ValueError(variant)
    check_order(n, 1, get_tables().s_max)
    z = complex(z)
    check_forcing_degree(R)
    _check_n_constraint(n, R)
    row = plane.region(_SERIES_FAMILY[variant], u, z, pair)
    if row.route == "reflection":
        return _weber_left_assembly(u, z, n, R, row)
    return _series(u, z, n, R, variant, row)


def _series(u: float, z: complex, n: int, R: int, variant: str, row) -> CertifiedValue:
    """inhom_series at a point that `row` admitted, bounded on its paths."""
    g = get_tables().G_rows(R, "minus" if variant == "minus" else "plus")[0]
    try:
        w = _series_sum(g, u, z, n, variant == "weber-")
        bound = _bound_integrals(u, z, n, R, variant, row) \
            if cmath.isfinite(w) else math.nan
    except OverflowError:
        bound = math.nan
    if not math.isfinite(bound):
        raise DomainError("the series or its bound leaves the double range "
                          f"at z={z}")
    scale = ScaledComplex.from_log((0.5 * R + 1.0) * math.log(2.0 * u))
    rel = bound / abs(w) if w != 0 else math.inf
    val = scale * w
    return CertifiedValue(val, rel, n)


def _weber_left_assembly(u: float, z: complex, n: int, R: int, row) -> CertifiedValue:
    """Sharper left-half-plane evaluation through the reflection connection:
    the series, W0 and W3 at -z, which the reflection `row` admitted."""
    zr = -z
    base = _series(u, zr, n, R, "weber-", row)
    al = alpha_R(u, R).value
    e = math.exp(-math.pi * u / 2.0)
    c_plus = ((-1) ** (R + 1) - 1j * e)
    c_minus = ((-1) ** (R + 1) + 1j * e)
    w0, w3 = (_weber_Wj(u, zr, min(n, 5), j, plane.REGIONS[f"W{j}", None][0])
              for j in (0, 3))
    return _connected([(base.value * float((-1) ** R), base.rel_bound),
                       (al * c_plus * w0.value, w0.rel_bound),
                       (al.conj() * c_minus * w3.value, w3.rel_bound)],
                      n, ("reflection_terms",))


# ----------------------------------------------------------------------
# Scorer-function expansions at the turning point
# ----------------------------------------------------------------------

def _scorer_factor(g: _Geometry, u: float, m: int, variant: str) -> np.ndarray:
    """The ring integrand factor J_m at each point of the geometry, built
    from the modified-coefficient sums and the factorial tails."""
    cosh_t, sinh_p = _exp_sums(g, u, m)
    zeta = g.zeta
    # (zeta_c)^{3/2}, zeta_c = -zeta for WEB+, continued from the upper side;
    # exactly-real points of (-1, 1) take the limit value
    on_interval = (g.points.imag == 0.0) & (np.abs(g.points.real) < 1.0)
    edge = np.abs(zeta.real) ** 1.5
    if variant == "WEB+":
        zc = -zeta
        z32 = np.where(on_interval, edge, 1j * zeta ** 1.5)
    else:
        zc = zeta
        z32 = np.where(on_interval, -1j * edge, zeta ** 1.5)
    k = np.arange(m + 1)
    powers = (3.0 * u * u * zc[:, None] ** 3) ** -k
    s1 = powers @ np.array([math.factorial(3 * j) / math.factorial(j) for j in k])
    s2 = powers @ np.array([math.factorial(3 * j + 1) / math.factorial(j) for j in k])
    return -cosh_t * s1 + sinh_p * s2 / (u * z32)


def _scorer_contour(u: float, z: complex, m: int, variant: str) -> complex:
    """(1/2 pi i) contour integral of root_A J_m / (zeta_c (t - z)) dt on
    the ring about the turning point, which encloses every |z-1| <= 1.15."""
    g = _ring_geometry(variant)
    zc = -g.zeta if variant == "WEB+" else g.zeta
    return _cauchy(g, z, g.root_a * _scorer_factor(g, u, m, variant) / zc)[0]


def inhom_scorer(u: float, z: complex, m: int, R: int, variant: str = "PCF-",
                 pair: tuple[int, int] = (-1, 1)) -> CertifiedValue:
    """Turning-point expansion of the scaled particular solution
    (2u)^{R/2+1} w_R^{(j,k)}; Scorer-function based, valid at z = 1.

    For variant 'WEB+' the assembly uses the Weber connection constant,
    the WEB+ coefficient functions at their Airy argument -u^{2/3} zeta, and
    the G* sum with alternating signs.
    """
    z = _check_scorer_inputs(u, z, m, R, variant, pair)
    return _scorer_values(u, z, m, R, variant, [pair])[0][0]


def _check_scorer_inputs(u: float, z: complex, m: int, R: int, variant: str,
                         pair: tuple[int, int]) -> complex:
    check_inputs(u, z)
    z = complex(z)
    if variant not in ("PCF-", "WEB+"):
        raise ValueError("variant must be 'PCF-' or 'WEB+'")
    check_order(m, 0, 4)
    check_forcing_degree(R)
    plane.region("Hi " + variant, u, z, pair)
    return z


def _scorer_values(u: float, z: complex, m: int, R: int, variant: str,
                   pairs: list[tuple[int, int]]
                   ) -> tuple[list[CertifiedValue], TPCoeffs]:
    """inhom_scorer at one point for each pair of `pairs`, with the
    coefficient functions, the Scorer contour and the G* sum evaluated once;
    also returns the coefficient functions at z."""
    if z.imag < 0:
        flipped = [{(-1, 1): (-1, 1), (0, 1): (-1, 0), (-1, 0): (0, 1)}[p]
                   for p in pairs]
        vals, co = _scorer_values(u, z.conjugate(), m, R, variant, flipped)
        return [CertifiedValue(v.value.conj(), v.rel_bound, m, v.noncertified)
                for v in vals], co.conj()

    weber = variant == "WEB+"
    gamma = (gamma_W_mR(u, m, R) if weber else gamma_mR(u, m, R)).value.to_complex()
    co = tp_coeff_funcs(u, z, m, variant)
    # the solution pair labels recession sectors (0 <-> +inf, +-1 <-> +-i inf
    # of the z plane); the bounded Scorer companion for sectors {0,1} is the
    # e^{+2 pi i/3}-rotated one (verified against the quadrature oracle)
    homs = []
    for pair in pairs:
        wi_key = {(0, 1): (-1, 0), (-1, 0): (0, 1), (-1, 1): (-1, 1)}[pair]
        homs.append(gamma * (wi(co.arg, wi_key) * co.A
                             + wi_prime(co.arg, wi_key) * co.B))
    contour = _scorer_contour(u, z, m, variant)
    g_part = _series_sum(get_tables().G_star_rows(R, m), u, z, m + 1, weber) \
        - gamma * contour / u ** (2.0 / 3.0)
    scale = ScaledComplex.from_log((0.5 * R + 1.0) * math.log(2.0 * u))
    est = SCORER_MARGIN * (10.0 / u) ** (2 * m + 4) + co.est_err
    rel = est  # envelope-relative figure
    return [CertifiedValue(scale * (hom + g_part), rel, m,
                           noncertified=("contour_remainder",))
            for hom in homs], co


# ----------------------------------------------------------------------
# assembled connections
# ----------------------------------------------------------------------

def connect_inhom_pcfm(u: float, z: complex, m: int, R: int) -> CertifiedValue:
    """U_R^{(0,2)}(-u/2, sqrt(2u) z) via the half-sum connection with the
    real part of Lambda_R(-a)."""
    z = _check_scorer_inputs(u, z, m, R, "PCF-", (0, 1))
    (u01, u03), co = _scorer_values(u, z, m, R, "PCF-", [(0, 1), (-1, 0)])
    lam = lambda_R(u / 2.0, R, "-a").value
    re_lam = ScaledComplex.from_complex(complex(lam.to_complex().real))
    uneg = _neg_value(u, z, m, co, "U-")
    return _connected([(u01.value * 0.5, u01.rel_bound),
                       (u03.value * 0.5, u03.rel_bound),
                       (re_lam * uneg.value, uneg.rel_bound)],
                      m, ("contour_remainder",))
