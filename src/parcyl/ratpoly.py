"""Exact rational polynomials and rational functions.

All expansion coefficients are generated by repeated differentiation and
termwise integration; doing this in floating point compounds rounding, so
everything here is `fractions.Fraction` until the final evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence


def _trim(coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


@dataclass(frozen=True)
class RationalPoly:
    """Univariate polynomial, exact rational coefficients, ascending degree."""

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def make(coeffs: Sequence) -> "RationalPoly":
        return RationalPoly(_trim([Fraction(c) for c in coeffs]))

    @staticmethod
    def zero() -> "RationalPoly":
        return RationalPoly(())

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "RationalPoly") -> "RationalPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        out = [Fraction(0)] * n
        for i, c in enumerate(self.coeffs):
            out[i] += c
        for i, c in enumerate(other.coeffs):
            out[i] += c
        return RationalPoly(_trim(out))

    def __sub__(self, other: "RationalPoly") -> "RationalPoly":
        return self + other.scale(Fraction(-1))

    def __mul__(self, other: "RationalPoly") -> "RationalPoly":
        if self.is_zero() or other.is_zero():
            return RationalPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RationalPoly(_trim(out))

    def scale(self, k) -> "RationalPoly":
        k = Fraction(k)
        return RationalPoly(_trim([c * k for c in self.coeffs]))

    def deriv(self) -> "RationalPoly":
        return RationalPoly(_trim([c * i for i, c in enumerate(self.coeffs)][1:]))

    def antideriv(self) -> "RationalPoly":
        """Antiderivative with zero constant term."""
        return RationalPoly(
            _trim([Fraction(0)] + [c / (i + 1) for i, c in enumerate(self.coeffs)])
        )

    def shift_eval_series(self, a: Fraction, nterms: int) -> tuple[Fraction, ...]:
        """Taylor coefficients of self at x = a, up to order nterms-1."""
        out = []
        p = self
        fact = Fraction(1)
        for k in range(nterms):
            if k > 0:
                fact *= k
                p = p.deriv()
            if k == 0:
                out.append(self(a))
            else:
                out.append(p(a) / fact)
        return tuple(out)

    @cached_property
    def float_coeffs(self) -> tuple[float, ...]:
        """The coefficients rounded to float, converted on first use."""
        return tuple(float(c) for c in self.coeffs)

    def __call__(self, x):
        """Horner evaluation: exact for Fraction/int x; in floating point
        for float, complex and ndarray x."""
        if isinstance(x, (Fraction, int)):
            v = Fraction(0)
            for c in reversed(self.coeffs):
                v = v * x + c
            return v
        v = 0.0 * x
        for c in reversed(self.float_coeffs):
            v = v * x + c
        return v

    def parity(self) -> int | None:
        """0 if even, 1 if odd, None if mixed."""
        even = all(c == 0 for i, c in enumerate(self.coeffs) if i % 2 == 1)
        odd = all(c == 0 for i, c in enumerate(self.coeffs) if i % 2 == 0)
        if even and not self.is_zero():
            return 0
        if odd:
            return 1
        return None


@dataclass(frozen=True)
class RationalFunc:
    """numerator(z) / (z^2 + sign)^pole_power with sign = +1 or -1.

    Shape of every inhomogeneous-series coefficient G_{s,R}: the recursion
    G_{s+1} = G_s'' / (z^2 +- 1) raises the pole order by exactly 3.
    """

    numerator: RationalPoly
    pole_power: int
    sign: int  # +1 -> denominator (z^2+1)^k, -1 -> (z^2-1)^k

    def __post_init__(self):
        if self.sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")

    @property
    def _base(self) -> RationalPoly:
        return RationalPoly.make([self.sign, 0, 1])  # z^2 + sign

    def deriv(self) -> "RationalFunc":
        # d/dz [N / B^k] = (N' B - k B' N) / B^{k+1}
        n, k, base = self.numerator, self.pole_power, self._base
        num = n.deriv() * base - n * base.deriv().scale(k)
        return RationalFunc(num, k + 1, self.sign)

    def recurse(self) -> "RationalFunc":
        """G'' / (z^2 + sign): one step of the generation recursion."""
        g2 = self.deriv().deriv()
        return RationalFunc(g2.numerator, g2.pole_power + 1, self.sign)

    def __call__(self, z):
        base = z * z + self.sign
        return self.numerator(z) / base ** self.pole_power

    def decay_order(self) -> int:
        """Exponent d with f(z) = O(z^d) as z -> infinity."""
        return self.numerator.degree - 2 * self.pole_power
