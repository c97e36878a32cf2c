"""Exact rational polynomials and rational functions: build-time arithmetic.

All expansion coefficients are generated by repeated differentiation and
termwise integration; doing this in floating point compounds rounding, so
the tables are built exactly.  A polynomial is stored as a tuple of Python
``int`` numerators over one common ``int`` denominator, in lowest terms, so
the generating arithmetic runs on plain integers; ``coeffs`` gives the
coefficients as ``fractions.Fraction``.  Evaluation is exact too (at an int
or a Fraction); the float rows the expansions evaluate at run time are
``coeffs``'s float view of these tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence


def _canon(nums: list[int], den: int) -> tuple[tuple[int, ...], int]:
    """Trailing zeros dropped, then numerators and den > 0 divided by their gcd."""
    n = len(nums)
    while n and not nums[n - 1]:
        n -= 1
    if not n:
        return (), 1
    g = gcd(den, *nums[:n])
    if g == 1:
        return tuple(nums[:n]), den
    return tuple(c // g for c in nums[:n]), den // g


@dataclass(frozen=True)
class RationalPoly:
    """Univariate polynomial with exact rational coefficients, ascending
    degree: ``nums[i] / den`` is the coefficient of x^i.  The form is
    canonical (no trailing zero numerator, den > 0, gcd 1; the zero
    polynomial is ``((), 1)``), so equality and hashing are those of the
    polynomial."""

    nums: tuple[int, ...]
    den: int = 1

    @staticmethod
    def make(coeffs: Sequence) -> "RationalPoly":
        fr = [Fraction(c) for c in coeffs]
        den = lcm(1, *(c.denominator for c in fr))
        return RationalPoly._of([c.numerator * (den // c.denominator) for c in fr], den)

    @staticmethod
    def _of(nums: list[int], den: int) -> "RationalPoly":
        return RationalPoly(*_canon(nums, den))

    @staticmethod
    def zero() -> "RationalPoly":
        return RationalPoly(())

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The exact coefficients, built on each access."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    def is_zero(self) -> bool:
        return not self.nums

    def _combine(self, other: "RationalPoly", sign: int) -> "RationalPoly":
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        a, b = self.nums, other.nums
        if len(a) < len(b):
            a, b, fa, fb = b, a, fb, fa
        out = [c * fa for c in a]
        for i, c in enumerate(b):
            out[i] += c * fb
        return RationalPoly._of(out, den)

    def __add__(self, other: "RationalPoly") -> "RationalPoly":
        return self._combine(other, 1)

    def __sub__(self, other: "RationalPoly") -> "RationalPoly":
        return self._combine(other, -1)

    def __mul__(self, other: "RationalPoly") -> "RationalPoly":
        if self.is_zero() or other.is_zero():
            return RationalPoly.zero()
        b = other.nums
        out = [0] * (len(self.nums) + len(b) - 1)
        for i, a in enumerate(self.nums):
            if a:
                for j, c in enumerate(b):
                    out[i + j] += a * c
        return RationalPoly._of(out, self.den * other.den)

    def scale(self, k) -> "RationalPoly":
        k = Fraction(k)
        return RationalPoly._of([c * k.numerator for c in self.nums],
                                self.den * k.denominator)

    def deriv(self) -> "RationalPoly":
        return RationalPoly._of([c * i for i, c in enumerate(self.nums)][1:], self.den)

    def antideriv(self) -> "RationalPoly":
        """Antiderivative with zero constant term."""
        m = lcm(1, *range(1, len(self.nums) + 1))
        return RationalPoly._of(
            [0] + [c * (m // (i + 1)) for i, c in enumerate(self.nums)], self.den * m)

    def taylor_shift(self, a) -> "RationalPoly":
        """The polynomial t -> self(a + t), for rational a."""
        p, q = Fraction(a).as_integer_ratio()
        n = self.degree
        # C(x) = q^n self(x/q) has integer coefficients; shift it by p
        # (Ruffini-Horner), then self(p/q + t) = C(p + q t) / q^n
        c = [x * q ** (n - i) for i, x in enumerate(self.nums)]
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                c[j] += p * c[j + 1]
        return RationalPoly._of([x * q ** k for k, x in enumerate(c)],
                                self.den * q ** max(n, 0))

    def shift_eval_series(self, a: Fraction, nterms: int) -> tuple[Fraction, ...]:
        """Taylor coefficients of self at x = a, up to order nterms-1."""
        c = self.taylor_shift(a).coeffs
        return (c + (Fraction(0),) * nterms)[:nterms]

    def __call__(self, x) -> Fraction:
        """Exact Horner evaluation at an int or a Fraction; TypeError for
        anything else (float rows are ``coeffs.FloatRows``)."""
        if not isinstance(x, (Fraction, int)):
            raise TypeError(f"exact evaluation needs an int or a Fraction, "
                            f"not {type(x).__name__}")
        p, q = Fraction(x).as_integer_ratio()
        v, qk = 0, 1
        for c in reversed(self.nums):
            v = v * p + c * qk
            qk *= q
        # qk = q^(degree + 1); v carries q^degree
        return Fraction(v * q, self.den * qk)

    def parity(self) -> int | None:
        """0 if even, 1 if odd, None if mixed."""
        even = not any(self.nums[1::2])
        odd = not any(self.nums[0::2])
        if even and not self.is_zero():
            return 0
        if odd:
            return 1
        return None


@dataclass(frozen=True)
class RationalFunc:
    """numerator(z) / base(z)^pole_power.

    The shape of every inhomogeneous-series coefficient G_{s,R}, with base
    z^2 +- 1 (the recursion G_{s+1} = G_s'' / (z^2 +- 1) raises the pole
    order by exactly 3), and of its analytic part G*_{s,R} at z = 1, with
    base z + 1.
    """

    numerator: RationalPoly
    pole_power: int
    base: RationalPoly

    def deriv(self) -> "RationalFunc":
        # d/dz [N / B^k] = (N' B - k B' N) / B^{k+1}
        n, k, base = self.numerator, self.pole_power, self.base
        num = n.deriv() * base - n * base.deriv().scale(k)
        return RationalFunc(num, k + 1, base)

    def __call__(self, z) -> Fraction:
        """Exact value at an int or a Fraction z; TypeError otherwise."""
        return self.numerator(z) / self.base(z) ** self.pole_power

    def decay_order(self) -> int:
        """Exponent d with f(z) = O(z^d) as z -> infinity."""
        return self.numerator.degree - self.base.degree * self.pole_power
