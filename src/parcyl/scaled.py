"""Overflow-safe complex scalars: normalized mantissa plus a real log-exponent.

Quantities like (2e/u)^{u/4} e^{u*xi} overflow double precision long before
the parameter ranges of interest are exhausted, so every assembled function
value is carried as ``mantissa * exp(log_scale)`` with |mantissa| in [1, e).
`sum_rel` and `sincospi` serve every connection formula.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

_LOG_HUGE = 700.0


@dataclass(frozen=True)
class ScaledComplex:
    mantissa: complex
    log_scale: float

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_complex(value: complex) -> "ScaledComplex":
        value = complex(value)
        if value == 0:
            return ScaledComplex(0j, 0.0)
        return ScaledComplex(value, 0.0).normalized()

    @staticmethod
    def from_log(log_magnitude: float, phase: float = 0.0) -> "ScaledComplex":
        """exp(log_magnitude + i*phase) without overflow."""
        return ScaledComplex(cmath.exp(1j * phase), float(log_magnitude)).normalized()

    @staticmethod
    def from_log_complex(w: complex) -> "ScaledComplex":
        """exp(w) for complex w with arbitrarily large real part."""
        w = complex(w)
        return ScaledComplex.from_log(w.real, w.imag)

    def normalized(self) -> "ScaledComplex":
        m, s = self.mantissa, self.log_scale
        if m == 0:
            return ScaledComplex(0j, 0.0)
        shift = math.floor(math.log(abs(m)))
        if shift != 0:
            m = m * math.exp(-shift)
            s = s + shift
        return ScaledComplex(m, s)

    # -- queries -----------------------------------------------------------

    def to_complex(self) -> complex:
        if self.mantissa == 0:
            return 0j
        if self.log_scale > _LOG_HUGE:
            raise OverflowError(f"value too large for complex: e^{self.log_scale:.3g}")
        if self.log_scale < -_LOG_HUGE:
            return 0j
        return self.mantissa * math.exp(self.log_scale)

    @property
    def log_abs(self) -> float:
        if self.mantissa == 0:
            return -math.inf
        return math.log(abs(self.mantissa)) + self.log_scale

    def abs(self) -> "ScaledComplex":
        return ScaledComplex(abs(self.mantissa), self.log_scale)

    def is_zero(self) -> bool:
        return self.mantissa == 0

    # -- arithmetic ----------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, ScaledComplex):
            return ScaledComplex(
                self.mantissa * other.mantissa, self.log_scale + other.log_scale
            ).normalized()
        return ScaledComplex(self.mantissa * complex(other), self.log_scale).normalized()

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, ScaledComplex):
            return ScaledComplex(
                self.mantissa / other.mantissa, self.log_scale - other.log_scale
            ).normalized()
        return ScaledComplex(self.mantissa / complex(other), self.log_scale).normalized()

    def __rtruediv__(self, other):
        return ScaledComplex.from_complex(complex(other)) / self

    def __add__(self, other):
        if not isinstance(other, ScaledComplex):
            other = ScaledComplex.from_complex(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        a, b = (self, other) if self.log_scale >= other.log_scale else (other, self)
        d = b.log_scale - a.log_scale
        if d < -_LOG_HUGE:
            return a
        return ScaledComplex(a.mantissa + b.mantissa * math.exp(d), a.log_scale).normalized()

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, ScaledComplex):
            other = ScaledComplex.from_complex(other)
        return self + ScaledComplex(-other.mantissa, other.log_scale)

    def __neg__(self):
        return ScaledComplex(-self.mantissa, self.log_scale)

    def conj(self) -> "ScaledComplex":
        return ScaledComplex(self.mantissa.conjugate(), self.log_scale)

    def __repr__(self):
        return f"ScaledComplex({self.mantissa!r}, e^{self.log_scale:.6g})"


def sum_rel(terms) -> tuple[ScaledComplex, float]:
    """The sum of (value, relative error) terms, added in order, and its
    relative error sum |v_k| rel_k / |sum v_k|, which sees their
    cancellation: inf where they cancel to zero or a ratio passes e^709."""
    total = ScaledComplex(0j, 0.0)
    for v, _ in terms:
        total = total + v
    logs = [(v.log_abs - total.log_abs, r) for v, r in terms if not v.is_zero()]
    if total.is_zero() or any(d > 709.0 for d, _ in logs):
        return total, math.inf
    return total, sum(math.exp(d) * r for d, r in logs)


def sincospi(x: float) -> tuple[float, float]:
    """(sin(pi x), cos(pi x)), with x reduced mod 2 and then to the nearest
    half-integer exactly, so only |t| <= 1/4 is multiplied by pi: exact 0
    and +-1 at integers and half-integers."""
    r = math.fmod(float(x), 2.0)
    q = round(2.0 * r)
    t = r - 0.5 * q
    s, c = math.sin(math.pi * t), math.cos(math.pi * t)
    return ((s, c), (c, -s), (-s, -c), (-c, s))[q % 4]
