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
from .quadrature import STACKED_NODES, path_nodes
from .scaled import ScaledComplex

#: discretized paths slightly shorten the true progressive chain
BOUND_SAFETY = 1.05

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

def _beta_image(path: plane.PathPolyline) -> list[tuple]:
    """Gauss nodes of the beta_bar image of a z-plane path, on the principal
    branch: flat (p, dp w) pairs, a batch each, from the exact endpoint +-1
    towards z, opening with the straight p-plane run from +-1 to the image
    of the truncated far vertex.  A cut crossing flips the sign of p and
    dp, which omega and varpi do not see: every family has a parity in p.
    """
    a = complex(path.vertices[0])
    first_p = a / np.sqrt(complex(a * a + 1.0))
    tail = [1.0 if first_p.real >= 0 else -1.0, first_p]
    # sq ** 3 leaves the double range beyond |z| ~ 5e102; a path that goes
    # that far takes (1 / sq) ** 3, which underflows instead
    far = max(map(abs, path.vertices)) > 1e100
    pairs = []
    for p, dpw, spans in path_nodes([tail, path.vertices]):
        for i, lo, hi in spans:
            if i == 1:
                zn = p[lo:hi]
                sq = np.sqrt(zn * zn + 1.0)
                p[lo:hi] = zn / sq
                dpw[lo:hi] = ((1.0 / sq) ** 3 if far else 1.0 / sq ** 3) * dpw[lo:hi]
        pairs.append((p, dpw))
    return pairs


def omega_varpi(n: int, u: float, batches, family_d) -> tuple[float, float]:
    """The two bound integrals along the mapped path.

    omega = 2 int |E_n'(p) dp|
          + sum_{s=1}^{n-1} u^{-s} int | sum_{k=s}^{n-1} W(p) E_k' E_{s+n-k-1}' dp |
    varpi = 4 sum_{s=0}^{n-2} u^{-s} int |E_{s+1}'(p) dp|

    batches: the (p, dp w) pairs of _beta_image; family_d: the float rows
    of the derivatives (index by subscript).
    """
    [(om, vp)] = _family_moments(
        n, [(p, dpw, [(0, 0, p.size)]) for p, dpw in batches], family_d)
    return _at_u(om, u), _at_u(vp, u)


def _family_moments(n: int, batches, family_d: FloatRows) -> list[tuple]:
    """The u-free moments (om, vp) of omega_varpi for a coefficient family,
    one pair for each path: batches of flat (p, dp w) nodes with the spans
    (path index, start, stop) of each path, as `path_nodes` lists them."""
    if n >= len(family_d.coeffs):
        raise OrderError(f"order n={n} beyond generated tables")
    totals: dict[int, np.ndarray] = {}
    for p, dpw, spans in batches:
        sums = _moment_sums(n, evaluate(family_d, p, 0, n + 1), np.abs(dpw),
                            np.abs(1.0 - p * p) ** 2, spans)
        for (i, _, _), s in zip(spans, sums):
            totals[i] = totals.get(i, 0.0) + s
    return [_split_moments(n, totals[i].tolist()) for i in sorted(totals)]


def _moment_sums(n: int, d: np.ndarray, absd, wfac, spans) -> np.ndarray:
    """The coefficients of omega and varpi as polynomials in 1/u, from the
    exponent-coefficient derivatives at the quadrature nodes of a mapped
    path: omega = sum_s u^{-s} om[s], varpi = sum_s u^{-s} vp[s] with

        om[0] = 2 int |d_n|,  om[s] = int |sum_{k=s}^{n-1} d_k d_{s+n-k-1}| W,
        vp[s] = 4 int |d_{s+1}|,

    s = 1..n-1 for om and s = 0..n-2 for vp.  None of them depends on u.

    d: (n+1, N), d_k the derivative of the k-th coefficient at N nodes (d_0
    is not used); absd: |weighted path element| and wfac: the factor W of
    the cross terms, both (N,).  Returns the sums over each node span
    (path, a, b) of `spans`, (len(spans), 2n-1) in the layout of
    `_split_moments`.  Up to STACKED_NODES nodes all powers of 1/u go
    through numpy at once; each cross sum adds its terms in the order of k.
    """
    out = np.empty((len(spans), 2 * n - 1))
    block = n if d.shape[-1] <= STACKED_NODES else 1

    def reduce(rows: np.ndarray, first: int) -> None:
        for i, (_, a, b) in enumerate(spans):
            out[i, first:first + len(rows)] = rows[:, a:b].sum(axis=-1)

    for s in range(1, n + 1, block):
        rows = np.abs(d[s:s + block])
        rows *= absd
        reduce(rows, s - 1)
    for s in range(1, n, block):
        stop = min(s + block, n)
        inner = d[s:stop] * d[n - 1:n]
        for t in range(1, n - s):
            r = min(stop, n - t) - s
            inner[:r] += d[s + t:s + t + r] * d[n - 1 - t:n - t]
        rows = np.abs(inner)
        rows *= wfac
        rows *= absd
        reduce(rows, n + s - 1)
    return out


def _split_moments(n: int, total: list) -> tuple[tuple, tuple]:
    """(om, vp) from the summed integrands of `_moment_sums`, as
    floats: vp[0..n-2], om[0] and om[1..n-1], in this order."""
    return (2.0 * total[n - 1], *total[n:]), tuple(4.0 * v for v in total[:n - 1])


def _at_u(moments, u: float) -> float:
    """sum_s u^{-s} moments[s], summed in order of s."""
    total = 0.0
    for s, c in enumerate(moments):
        total += u ** (-s) * c
    return total


def eta_bound(n: int, u: float, omega: float, varpi: float) -> float:
    """u^{-n} omega exp{u^{-1} varpi + u^{-n} omega}, times BOUND_SAFETY;
    DomainError where it leaves the double range."""
    try:
        bound = u ** (-n) * omega * math.exp(varpi / u + omega * u ** (-n)) \
            * BOUND_SAFETY
    except OverflowError:
        bound = math.inf
    if not bound < math.inf:
        raise DomainError("the eta bound leaves the double range")
    return bound


def _lg_bound(u: float, z: complex, n: int, endpoint: str, variant: str,
              family_d) -> float:
    """eta bound of order n along the monotone path from z to the endpoint,
    for the coefficient family whose derivatives are family_d."""
    path = plane.monotone_path(z, endpoint, variant)
    om, vp = omega_varpi(n, u, _beta_image(path), family_d)
    return eta_bound(n, u, om, vp)


def _xi_bar(u: float, z: complex) -> complex:
    """xi_bar(z); DomainError where u xi_bar(z), the exponent of every LG
    form, leaves the double range."""
    xb = plane.xi_bar(z)
    if not cmath.isfinite(u * xb):
        raise DomainError(f"u xi_bar(z) leaves the double range at z={z}")
    return xb


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
    row = plane.region("U+", u, z, route="image" if which == "W1" else "direct")
    ends = t.ends[name]
    xb = _xi_bar(u, z)
    e = evaluate(t.rows[name], plane.beta_bar(z), 0, n)
    expo = 0j
    if which == "W1":
        expo += u * xb
        for s in range(1, n):
            expo += (e[s] - ends[s][0]) / u ** s
    else:
        expo += -u * xb
        for s in range(1, n):
            expo += (-1) ** s * (e[s] - ends[s][1]) / u ** s
    return expo, _lg_bound(u, z, n, *row.endpoints, row.variant, t.rows[name + "_d"])


def lg_W(u: float, z: complex, n: int, which: str) -> CertifiedValue:
    """The two exponent-form solutions of w'' = u^2(z^2+1) w.

    W1 = exp{ u xi_bar + sum (Ebar_s(beta)-Ebar_s(-1))/u^s } (1+eta_1),
    W2 = exp{ -u xi_bar + sum (-1)^s (Ebar_s(beta)-Ebar_s(1))/u^s } (1+eta_2).
    """
    if which not in ("W1", "W2"):
        raise ValueError("which must be 'W1' or 'W2'")
    expo, bound = _pcfp_exponent(u, complex(z), n, which, "Ebar")
    return CertifiedValue(ScaledComplex.from_log_complex(expo), bound, n)


def pcf_U_pos(u: float, z: complex, n: int, sign: str = "+z") -> CertifiedValue:
    """U(u/2, +-sqrt(2u) z) via the exponent-form expansions."""
    return _pcfp_value(u, z, n, sign, "Ebar")


def pcf_Uprime_pos(u: float, z: complex, n: int, sign: str = "+z") -> CertifiedValue:
    """U'(u/2, +-sqrt(2u) z): derivative-equation expansion with the tilde
    coefficient family and the inverted quarter-power weight."""
    return _pcfp_value(u, z, n, sign, "Etilde")


def _pcfp_value(u: float, z: complex, n: int, sign: str,
                name: str) -> CertifiedValue:
    """U (family Ebar) or U' (Etilde) at +-sqrt(2u) z: the prefactor
    (2e/u)^{u/4} {2u(1+z^2)}^{-1/4}, or -(1/2) (2e/u)^{u/4}
    {2u(1+z^2)}^{1/4} for U', times the W2 (sign '+z') or W1 exponential."""
    if sign not in ("+z", "-z"):
        raise ValueError("sign must be '+z' or '-z'")
    z = complex(z)
    expo, bound = _pcfp_exponent(u, z, n, "W2" if sign == "+z" else "W1", name)
    q = 2.0 * u * (1.0 + z * z)
    # u xi_bar ~ u z^2/2 is finite here, but q overflows from z ~ 2e153
    root = q ** 0.25 if cmath.isfinite(q) else \
        (2.0 * u) ** 0.25 * (1.0 + z * z) ** 0.25
    val = ScaledComplex.from_log((u / 4.0) * (math.log(2.0 / u) + 1.0)) * \
        (1.0 / root if name == "Ebar" else -0.5 * root) * \
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


def weber_neg_Wj(u: float, z: complex, m: int, j: int,
                 derivative: bool = False) -> CertifiedValue:
    """W_j(-u/2, sqrt(2u) z) for j in {0, 3} (and the derivative variant)."""
    check_inputs(u, z)
    if j not in (0, 3):
        raise ValueError("j must be 0 or 3")
    check_order(m, 0, get_tables().s_max // 2 - 1)
    z = complex(z)
    row = plane.region("W0" if j == 0 else "W3", u, z)
    return _weber_Wj(u, z, m, j, row, derivative)


def _weber_Wj(u: float, z: complex, m: int, j: int, row: plane.Region,
              derivative: bool = False) -> CertifiedValue:
    """weber_neg_Wj at a point that `row` admitted, bounded on its path."""
    t = get_tables()
    xb = _xi_bar(u, z)
    bb = plane.beta_bar(z)
    sgn = 1.0 if j == 0 else -1.0
    fam = "Etilde" if derivative else "Ebar"
    # chi-tilde equals chi termwise (exact identity on the tables)
    phase = -sgn * (chi_m(u, m) - (5.0 if derivative else 1.0) * math.pi / 8.0)
    root = (2.0 * u) ** 0.25 * (1.0 + z * z) ** 0.25
    pref = ScaledComplex.from_log(math.pi * u / 8.0) * (0.5 * root if derivative else 1.0 / root)
    even, odd = _weber_sums(t.rows[fam], bb, u, m)
    expo = even + sgn * 1j * (u * xb) - sgn * 1j * odd
    val = pref * cmath.exp(1j * phase) * ScaledComplex.from_log_complex(expo)
    bound = _lg_bound(u, z, 2 * m + 2, *row.endpoints, row.variant, t.rows[fam + "_d"])
    return CertifiedValue(val, bound, m)


def weber_neg_real(u: float, x: float, m: int, sign: str = "+x") -> CertifiedValue:
    """W(-u/2, +-sqrt(2u) x) for x >= 0: cosine/sine forms with the exact
    elementary phase constant; the residual phase of (1+eta) is folded into
    the certified envelope-relative bound."""
    check_inputs(u, x)
    check_real(x)
    if sign not in ("+x", "-x"):
        raise ValueError("sign must be '+x' or '-x'")
    t = get_tables()
    check_order(m, 0, t.s_max // 2 - 1)
    row = plane.region("W(-a,x)", u, complex(x))
    z = complex(x)
    xb = _xi_bar(u, z).real
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
    eta = _lg_bound(u, z, 2 * m + 2, *row.endpoints, row.variant, t.rows["Ebar_d"])
    # dropped |1+eta| modulus and arg(1+eta) phase each contribute <= eta
    bound = 2.0 * eta
    return CertifiedValue(val, bound, m, noncertified=("eps_tilde_phase",))
