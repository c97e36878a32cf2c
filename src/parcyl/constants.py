"""Elementary constants, functions of u alone: the Weber constants, the
turning-point normalization lambda_{+-1} and the odd sums at beta = 1."""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import loggamma

from .coeffs import get_tables
from .errors import DomainError
from .scaled import ScaledComplex


@dataclass(frozen=True)
class WeberConstants:
    k: float
    k_inv: float
    rho: float
    phi2: float
    chi_m: float
    eps_m: float


def odd_sum_at_1(u: float, m: int) -> float:
    """sum_{s=0}^{m} E_{2s+1}(1) / u^{2s+1}."""
    return sum(float(c) / u ** (2 * s + 1)
               for s, c in enumerate(get_tables().E_odd_at_1(m)))


def chi_m(u: float, m: int) -> float:
    """(u/4) ln(2e/u) - sum (-1)^s Ebar_{2s+1}(1) u^{-2s-1}."""
    t = get_tables()
    acc = (u / 4.0) * (math.log(2.0 / u) + 1.0)
    for s, c in enumerate(t.Ebar_odd_at_1(m)):
        acc -= (-1) ** s * float(c) / u ** (2 * s + 1)
    return acc


def lambda_pm(u: float) -> ScaledComplex:
    """lambda_{+-1}(u) = (2e/u)^{u/2} Gamma(u/2 + 1/2) / sqrt(2 pi)."""
    lg = complex(loggamma(u / 2.0 + 0.5)).real
    return ScaledComplex.from_log(
        (u / 2.0) * (math.log(2.0 / u) + 1.0) + lg - 0.5 * math.log(2.0 * math.pi))


def delta_n_pm(u: float, n: int) -> float:
    """lambda exp{-2 sum_{s>=0} E_{2s+1}(1)/u^{2s+1}} - 1 = O(u^{-n})."""
    m_terms = min((n - 1) // 2 + 1, get_tables().s_max // 2)
    val = lambda_pm(u) * ScaledComplex.from_log(-2.0 * odd_sum_at_1(u, m_terms - 1))
    return abs(val.to_complex() - 1.0)


def _k_stable(u: float) -> float:
    """k(u) = sqrt(1 + e^{-pi u}) - e^{-pi u/2}, for u >= 0."""
    x = math.exp(-math.pi * u / 2.0)
    return x / (math.sqrt(1.0 + x * x) + 1.0)


def _k_inv_stable(u: float) -> float:
    return math.exp(math.pi * u / 2.0) * (math.sqrt(1.0 + math.exp(-math.pi * u)) + 1.0)


def weber_constants(u: float, m: int) -> WeberConstants:
    """k, 1/k, rho, phi2, chi_m and eps_m = phi2/2 + chi_m."""
    if u <= 0:
        raise DomainError("u must be positive")
    phi2 = complex(loggamma(0.5 + 0.5j * u)).imag
    cm = chi_m(u, m)
    return WeberConstants(
        k=_k_stable(u),
        k_inv=_k_inv_stable(u),
        rho=0.5 * phi2 + math.pi / 8.0,
        phi2=phi2,
        chi_m=cm,
        eps_m=0.5 * phi2 + cm,
    )
