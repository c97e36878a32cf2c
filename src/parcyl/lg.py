"""Liouville-Green expansions with certified error bounds.

Homogeneous solutions of w'' = u^2 (z^2+1) w matched to the parabolic
cylinder function (positive parameter), and the negative-parameter real
Weber functions, all with computable truncation-error majorants: the error
factor (1 + eta) obeys

    |eta_{n,j}| <= u^{-n} omega exp{ u^{-1} varpi + u^{-n} omega },

with omega, varpi integrals of exact coefficient derivatives along the
monotone progressive path in the rational Liouville variable.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import plane
from .coeffs import FloatRows, check_order, evaluate, get_tables
from .constants import chi_m, weber_constants
from .errors import DomainError, OrderError, check_inputs, check_real
from .quadrature import polyline_nodes
from .scaled import ScaledComplex

#: discretized paths slightly shorten the true progressive chain
BOUND_SAFETY = 1.05

#: refusal radius around the turning points +-i (no Airy variant in scope
#: for the z^2+1 equations; the bounds blow up inside this disk)
TP_REFUSAL = 0.15

@dataclass(frozen=True)
class CertifiedValue:
    value: ScaledComplex
    rel_bound: float
    order: int
    domain_ok: bool = True
    noncertified: tuple[str, ...] = ()

    def to_complex(self) -> complex:
        return self.value.to_complex()


# ----------------------------------------------------------------------
# path mapping into the rational variable
# ----------------------------------------------------------------------

def _beta_image(path: plane.PathPolyline):
    """Gauss nodes of the continuous beta_bar image of a z-plane path.

    Yields (p, dp w) batches from the exact endpoint +-1 towards z, the
    first opening with the straight p-plane run from +-1 to the image of
    the truncated far vertex.  Tracks the sheet: a segment crossing a cut
    of beta_bar (imaginary axis beyond the turning points; at most once per
    segment for these paths) is split there, and each crossing flips the
    sign of the principal branch.
    """
    v = np.asarray(path.vertices, dtype=complex)
    zs, ze = v[:-1], v[1:]
    cross = (zs.real * ze.real < 0) & (np.minimum(abs(zs.imag), abs(ze.imag)) >= 1.0)
    sign = np.ones((len(zs), 1))
    if cross.any():
        # (-1)^(crossings before a segment); the part past a crossing flips
        at = np.flatnonzero(cross)
        sign = (-1.0) ** (np.cumsum(cross) - cross)
        sign = np.insert(sign, at + 1, -sign[at])[:, None]
        tc = zs.real[at] / (zs.real[at] - ze.real[at])
        v = np.insert(v, at + 1, zs[at] + (ze[at] - zs[at]) * tc)
    a = complex(path.vertices[0])
    first_p = a / np.sqrt(complex(a * a + 1.0))
    tail = next(polyline_nodes([1.0 if first_p.real >= 0 else -1.0, first_p]))
    for zn, dzw in polyline_nodes(v):
        sg, sign = sign[:len(zn)], sign[len(zn):]
        sq = np.sqrt(zn * zn + 1.0)
        batch = (sg * zn / sq, sg / sq ** 3 * dzw)
        if tail is not None:
            batch, tail = tuple(map(np.concatenate, zip(tail, batch))), None
        yield batch


def omega_varpi(n: int, u: float, batches, family_d) -> tuple[float, float]:
    """The two bound integrals along the mapped path.

    omega = 2 int |E_n'(p) dp|
          + sum_{s=1}^{n-1} u^{-s} int | sum_{k=s}^{n-1} W(p) E_k' E_{s+n-k-1}' dp |
    varpi = 4 sum_{s=0}^{n-2} u^{-s} int |E_{s+1}'(p) dp|

    batches: (p, dp w) arrays as _beta_image yields them; family_d: the
    float rows of the derivatives (index by subscript).
    """
    om, vp = _family_moments(n, batches, family_d)
    return _at_u(om, u), _at_u(vp, u)


def _family_moments(n: int, batches, family_d: FloatRows) -> tuple[tuple, tuple]:
    """The u-free moments of omega_varpi for a coefficient family."""
    if n >= len(family_d.coeffs):
        raise OrderError(f"order n={n} beyond generated tables")
    return _omega_varpi_moments(
        n, batches, lambda p: evaluate(family_d, p, 0, n + 1),
        lambda p: np.abs(1.0 - p * p) ** 2)


def _omega_varpi_moments(n: int, batches, derivs, weight) -> tuple[tuple, tuple]:
    """The coefficients of omega and varpi as polynomials in 1/u, from the
    exponent-coefficient derivatives at the quadrature nodes of a mapped
    path: omega = sum_s u^{-s} om[s], varpi = sum_s u^{-s} vp[s] with

        om[0] = 2 int |d_n|,  om[s] = int |sum_{k=s}^{n-1} d_k d_{s+n-k-1}| W,
        vp[s] = 4 int |d_{s+1}|,

    s = 1..n-1 for om and s = 0..n-2 for vp.  None of them depends on u.

    batches: (nodes, weighted path element) arrays, taken as they come;
    derivs(nodes): [d_0, ..., d_n], d_k the derivative of the k-th
    coefficient at the nodes (d_0 is not used); weight(nodes): the factor
    W of the cross terms.
    """
    om = [0.0] * n
    vp = [0.0] * (n - 1)
    for x, dxw in batches:
        d = derivs(x)
        absd = np.abs(dxw)
        wfac = weight(x)
        om[0] += 2.0 * float(np.sum(np.abs(d[n]) * absd))
        for s in range(1, n):
            inner = sum(d[k] * d[s + n - k - 1] for k in range(s, n))
            om[s] += float(np.sum(np.abs(inner) * wfac * absd))
        for s in range(n - 1):
            vp[s] += 4.0 * float(np.sum(np.abs(d[s + 1]) * absd))
    return tuple(om), tuple(vp)


def _at_u(moments, u: float) -> float:
    """sum_s u^{-s} moments[s], summed in order of s."""
    total = 0.0
    for s, c in enumerate(moments):
        total += u ** (-s) * c
    return total


def eta_bound(n: int, u: float, omega: float, varpi: float) -> float:
    return u ** (-n) * omega * math.exp(varpi / u + omega * u ** (-n)) * BOUND_SAFETY


def _lg_bound(u: float, z: complex, n: int, endpoint: str, variant: str,
              family_d) -> float:
    """eta bound of order n along the monotone path from z to the endpoint,
    for the coefficient family whose derivatives are family_d."""
    path = plane.monotone_path(z, endpoint, variant)
    om, vp = omega_varpi(n, u, _beta_image(path), family_d)
    return eta_bound(n, u, om, vp)


def _check_pcfp_domain(z: complex, which: str) -> None:
    if abs(z - 1j) < TP_REFUSAL or abs(z + 1j) < TP_REFUSAL:
        raise DomainError(f"z={z} within refusal radius of a turning point")
    side = "left" if which == "W2" else "right"
    if plane._on_pcfp_critical_curve(z, side):
        raise DomainError(f"z={z} on an excluded level curve")


# ----------------------------------------------------------------------
# homogeneous solutions, positive parameter
# ----------------------------------------------------------------------

def _pcfp_exponent(u: float, z: complex, n: int, which: str,
                   name: str) -> tuple[complex, float]:
    """Exponent of the W1 or W2 solution built on the coefficient family
    `name` (Ebar for w, Etilde for the derivative equation) and its eta
    bound."""
    check_inputs(u, z)
    t = get_tables()
    check_order(n, 1, t.s_max // 2)
    _check_pcfp_domain(z, which)
    ends = t.ends[name]
    xb = plane.xi_bar(z)
    e = evaluate(t.rows[name], plane.beta_bar(z), 0, n)
    expo = 0j
    if which == "W1":
        expo += u * xb
        for s in range(1, n):
            expo += (e[s] - ends[s][0]) / u ** s
        endpoint = "-inf"
    else:
        expo += -u * xb
        for s in range(1, n):
            expo += (-1) ** s * (e[s] - ends[s][1]) / u ** s
        endpoint = "+inf"
    return expo, _lg_bound(u, z, n, endpoint, "PCF+", t.rows[name + "_d"])


def lg_W(u: float, z: complex, n: int, which: str) -> CertifiedValue:
    """The two exponent-form solutions of w'' = u^2(z^2+1) w.

    W1 = exp{ u xi_bar + sum (Ebar_s(beta)-Ebar_s(-1))/u^s } (1+eta_1),
    W2 = exp{ -u xi_bar + sum (-1)^s (Ebar_s(beta)-Ebar_s(1))/u^s } (1+eta_2).
    """
    if which not in ("W1", "W2"):
        raise ValueError("which must be 'W1' or 'W2'")
    expo, bound = _pcfp_exponent(u, complex(z), n, which, "Ebar")
    return CertifiedValue(ScaledComplex.from_log_complex(expo), bound, n)


def _pcfp_prefactor(u: float, z: complex) -> ScaledComplex:
    # (2e/u)^{u/4} {2u(1+z^2)}^{-1/4}
    log_pref = (u / 4.0) * (math.log(2.0 / u) + 1.0)
    root = (2.0 * u * (1.0 + z * z)) ** 0.25
    return ScaledComplex.from_log(log_pref) * (1.0 / root)


def pcf_U_pos(u: float, z: complex, n: int, sign: str = "+z") -> CertifiedValue:
    """U(u/2, +-sqrt(2u) z) via the exponent-form expansions."""
    z = complex(z)
    if sign == "+z":
        w = lg_W(u, z, n, "W2")
    elif sign == "-z":
        w = lg_W(u, z, n, "W1")
    else:
        raise ValueError("sign must be '+z' or '-z'")
    val = _pcfp_prefactor(u, z) * w.value
    if z.imag == 0.0:
        val = ScaledComplex(complex(val.mantissa.real, 0.0), val.log_scale)
    return CertifiedValue(val, w.rel_bound, n)


def pcf_Uprime_pos(u: float, z: complex, n: int, sign: str = "+z") -> CertifiedValue:
    """U'(u/2, +-sqrt(2u) z): derivative-equation expansion with the tilde
    coefficient family and the inverted quarter-power weight."""
    if sign not in ("+z", "-z"):
        raise ValueError("sign must be '+z' or '-z'")
    z = complex(z)
    expo, bound = _pcfp_exponent(u, z, n, "W2" if sign == "+z" else "W1",
                                 "Etilde")
    log_pref = (u / 4.0) * (math.log(2.0 / u) + 1.0)
    root = (2.0 * u * (1.0 + z * z)) ** 0.25
    val = ScaledComplex.from_log(log_pref) * (-0.5 * root) * \
        ScaledComplex.from_log_complex(expo)
    if z.imag == 0.0:
        val = ScaledComplex(complex(val.mantissa.real, 0.0), val.log_scale)
    return CertifiedValue(val, bound, n)


# ----------------------------------------------------------------------
# negative-parameter Weber functions
# ----------------------------------------------------------------------

def _weber_sums(rows: FloatRows, bb, u: float, m: int) -> tuple:
    """The even and odd exponent sums of the Weber forms, sum_{s=1}^{m} and
    sum_{s=0}^{m} of (-1)^s F_{2s}(bb) u^{-2s} and (-1)^s F_{2s+1}(bb)
    u^{-2s-1}, for the family F whose float rows are `rows`."""
    e = evaluate(rows, bb, 0, 2 * m + 2)
    even = sum((-1) ** s * e[2 * s] / u ** (2 * s) for s in range(1, m + 1))
    odd = sum((-1) ** s * e[2 * s + 1] / u ** (2 * s + 1) for s in range(m + 1))
    return even, odd


def _check_webm_domain(z: complex) -> None:
    if abs(z - 1j) < TP_REFUSAL or abs(z + 1j) < TP_REFUSAL:
        raise DomainError(f"z={z} within refusal radius of a turning point")
    if z.real < -1e-12:
        raise DomainError("negative-parameter Weber expansions restricted to "
                          "the right half plane")


def weber_neg_Wj(u: float, z: complex, m: int, j: int,
                 derivative: bool = False) -> CertifiedValue:
    """W_j(-u/2, sqrt(2u) z) for j in {0, 3} (and the derivative variant)."""
    check_inputs(u, z)
    if j not in (0, 3):
        raise ValueError("j must be 0 or 3")
    z = complex(z)
    _check_webm_domain(z)
    t = get_tables()
    check_order(m, 0, t.s_max // 2 - 1)
    xb = plane.xi_bar(z)
    bb = plane.beta_bar(z)
    sgn = 1.0 if j == 0 else -1.0
    cm = chi_m(u, m)
    if derivative:
        fam = "Etilde"
        # chi-tilde equals chi termwise (exact identity on the tables)
        phase = -sgn * (cm - 5.0 * math.pi / 8.0)
        pref = ScaledComplex.from_log(math.pi * u / 8.0) * \
            (0.5 * (2.0 * u) ** 0.25 * (1.0 + z * z) ** 0.25)
    else:
        fam = "Ebar"
        phase = -sgn * (cm - math.pi / 8.0)
        pref = ScaledComplex.from_log(math.pi * u / 8.0) * \
            (1.0 / ((2.0 * u) ** 0.25 * (1.0 + z * z) ** 0.25))
    even, odd = _weber_sums(t.rows[fam], bb, u, m)
    expo = even + sgn * 1j * (u * xb) - sgn * 1j * odd
    val = pref * cmath.exp(1j * phase) * ScaledComplex.from_log_complex(expo)
    bound = _lg_bound(u, z, 2 * m + 2, "e+ipi/4" if j == 0 else "e-ipi/4",
                      "WEB-", t.rows[fam + "_d"])
    return CertifiedValue(val, bound, m)


def weber_neg_real(u: float, x: float, m: int, sign: str = "+x") -> CertifiedValue:
    """W(-u/2, +-sqrt(2u) x) for x >= 0: cosine/sine forms with the exact
    elementary phase constant; the residual phase of (1+eta) is folded into
    the certified envelope-relative bound."""
    check_inputs(u, x)
    check_real(x)
    if x < 0:
        raise DomainError("x must be >= 0; use the sign argument")
    if sign not in ("+x", "-x"):
        raise ValueError("sign must be '+x' or '-x'")
    t = get_tables()
    check_order(m, 0, t.s_max // 2 - 1)
    z = complex(x)
    xb = plane.xi_bar(z).real
    bb = plane.beta_bar(z).real
    kbar = math.sqrt(1.0 + math.exp(-math.pi * u)) - math.exp(-math.pi * u / 2.0)
    wc = weber_constants(u, m)
    even, odd = _weber_sums(t.rows["Ebar"], bb, u, m)
    theta = u * xb + math.pi / 4.0 - odd - wc.eps_m
    if sign == "+x":
        pref = (2.0 * kbar ** 2 / (u * (1.0 + x * x))) ** 0.25
        trig = math.cos(theta)
    else:
        pref = (2.0 / (u * kbar ** 2 * (1.0 + x * x))) ** 0.25
        trig = math.sin(theta)
    val = ScaledComplex.from_complex(pref * math.exp(even) * trig)
    eta = _lg_bound(u, z, 2 * m + 2, "e+ipi/4", "WEB-", t.rows["Ebar_d"])
    # dropped |1+eta| modulus and arg(1+eta) phase each contribute <= eta
    bound = 2.0 * eta
    return CertifiedValue(val, bound, m, noncertified=("eps_tilde_phase",))
