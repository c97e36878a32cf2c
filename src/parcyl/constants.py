"""Elementary constants, functions of u alone: the Weber constants, the
turning-point normalization lambda_{+-1} and the odd sums at beta = 1."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .coeffs import check_order, get_tables
from .errors import check_inputs
from .gamma import binet, loggamma
from .scaled import ScaledComplex


@dataclass(frozen=True)
class WeberConstants:
    k: float
    rho: float
    phi2: float
    chi_m: float
    eps_m: float


def _odd_at_1(name: str, u: float, m: int) -> tuple[float, ...]:
    """The checked (u, m), then name_{2s+1}(1) for s = 0..m."""
    check_inputs(u)
    odd = get_tables().odd_at_1[name]
    check_order(m, 0, len(odd) - 1)
    return odd[:m + 1]


def odd_sum_at_1(u: float, m: int) -> float:
    """sum_{s=0}^{m} E_{2s+1}(1) / u^{2s+1}."""
    return sum(c / u ** (2 * s + 1) for s, c in enumerate(_odd_at_1("E", u, m)))


def chi_m(u: float, m: int) -> float:
    """(u/4) ln(2e/u) - sum (-1)^s Ebar_{2s+1}(1) u^{-2s-1}."""
    odd = _odd_at_1("Ebar", u, m)
    acc = (u / 4.0) * (math.log(2.0 / u) + 1.0)
    for s, c in enumerate(odd):
        acc -= (-1) ** s * c / u ** (2 * s + 1)
    return acc


def lambda_pm(u: float) -> ScaledComplex:
    """lambda_{+-1}(u) = (2e/u)^{u/2} Gamma(u/2 + 1/2) / sqrt(2 pi)."""
    check_inputs(u)
    return ScaledComplex.from_log(
        (u / 2.0) * (math.log(2.0 / u) + 1.0) + math.lgamma(u / 2.0 + 0.5)
        - 0.5 * math.log(2.0 * math.pi))


def delta_n_pm(u: float, n: int) -> float:
    """lambda exp{-2 sum_{s>=0} E_{2s+1}(1)/u^{2s+1}} - 1 = O(u^{-n})."""
    m_terms = min((n - 1) // 2 + 1, get_tables().s_max // 2)
    val = lambda_pm(u) * ScaledComplex.from_log(-2.0 * odd_sum_at_1(u, m_terms - 1))
    return abs(val.to_complex() - 1.0)


def _k_stable(u: float) -> float:
    """k(u) = sqrt(1 + e^{pi u}) - e^{pi u/2} (DLMF 12.14.5 with a = u/2),
    for u >= 0, in a form free of cancellation."""
    x = math.exp(-math.pi * u / 2.0)
    return x / (math.sqrt(1.0 + x * x) + 1.0)


def weber_constants(u: float, m: int) -> WeberConstants:
    """k, rho, phi2, chi_m and eps_m = phi2/2 + chi_m.

    With t = u/2 and x = 1/u^2, Stirling's formula for phi2 = Im ln Gamma(1/2
    + it) cancels the O(u ln u) part of chi_m exactly, leaving

        eps_m = (t/4) ln(1 + x) + Im mu(1/2 + it)/2
                - sum_{s<=m} (-1)^s Ebar_{2s+1}(1) u^{-2s-1}.

    Its three O(1/u) leading terms, t x/4, Im(1/(12(1/2 + it)))/2 and
    Ebar_1(1)/u = 1/(24u), sum to x/(24 t (1 + x)); that sum is taken
    exactly and the rest termwise, so no term of size 1/u is cancelled
    in rounding.
    """
    ebar = _odd_at_1("Ebar", u, m)
    t, x = 0.5 * u, 1.0 / (u * u)
    z = complex(0.5, t)
    phi2 = loggamma(z).imag
    if x < 0.25:
        # (t/4)(ln(1 + x) - x) from its Maclaurin series
        log_rest = -sum((-x) ** k / (k + 2) for k in range(30)) / (64.0 * t ** 3)
    else:
        log_rest = 0.25 * t * (math.log1p(x) - x)
    eps = log_rest + x / (24.0 * t * (1.0 + x)) + 0.5 * binet(z, 1).imag \
        - sum((-1) ** s * ebar[s] / u ** (2 * s + 1) for s in range(1, m + 1))
    return WeberConstants(
        k=_k_stable(u),
        rho=0.5 * phi2 + math.pi / 8.0,
        phi2=phi2,
        chi_m=chi_m(u, m),
        eps_m=eps,
    )
