"""Log-gamma and reciprocal gamma of a complex argument.

Both rest on Binet's function mu(z), the remainder of Stirling's formula

    ln Gamma(z) = (z - 1/2) ln z - z + ln(2 pi)/2 + mu(z)    (DLMF 5.11.1),

summed as its Bernoulli series once an upward shift has taken z to
|z| >= SHIFT_RADIUS in the closed right half-plane.  ln Gamma is the
principal branch, continuous off the negative real axis; on that axis its
imaginary part is -pi times the number of poles passed, so exp(i Im)
carries the sign of Gamma.  The shift takes at most SHIFT_LIMIT steps: a
non-finite argument is an ArgumentError, and an argument farther left or
a 1/Gamma beyond the float range a DomainError.
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError, check_points

#: |z| from which the Bernoulli series needs no shift; its first omitted
#: term, B_30 / (870 z^29), is below 1e-23 there
SHIFT_RADIUS = 10.0
#: B_{2k} / (2k (2k - 1)), k = 1..14
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360,
             1 / 156, -3617 / 122400, 43867 / 244188, -174611 / 125400,
             77683 / 5796, -236364091 / 1506960, 657931 / 300,
             -3392780147 / 93960)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
#: most unit steps of the upward shift: it reaches Re z >= -SHIFT_LIMIT +
#: SHIFT_RADIUS, far beyond the arguments of the expansions (a few dozen
#: steps at most); at that edge ln Gamma is still within 2e-16 relative
SHIFT_LIMIT = 1000


def _unshifted(z: complex) -> bool:
    return z.real >= 0.0 and abs(z) >= SHIFT_RADIUS


def _steps(z: complex) -> int:
    """The number of unit steps that take z to where the Bernoulli series
    needs no shift."""
    check_points(z)
    w = z
    for n in range(SHIFT_LIMIT + 1):
        if _unshifted(w):
            return n
        w += 1.0
    raise DomainError(f"Gamma argument z={z} lies too far left")


def _log1p_inv(z: complex) -> complex:
    """ln(1 + 1/z) to full relative accuracy in each part; on the real
    segment (-1, 0) it is the limit from the side of z's signed zero."""
    d = z.real * z.real + z.imag * z.imag
    x, y = z.real / d, -z.imag / d
    return complex(0.5 * math.log1p(x * (2.0 + x) + y * y), math.atan2(y, 1.0 + x))


def binet(z: complex, skip: int = 0) -> complex:
    """mu(z) = ln Gamma(z) - (z - 1/2) ln z + z - ln(2 pi)/2, less the first
    `skip` terms b_k z^{1-2k} of its Bernoulli series.

    Where no shift is needed the remaining terms are summed on their own,
    so a caller that cancels the leading terms analytically keeps the
    full relative accuracy of the remainder."""
    z = complex(z)
    if _unshifted(z):
        r = 1.0 / z
        r2 = r * r
        acc = 0j
        for c in reversed(_STIRLING[skip:]):
            acc = acc * r2 + c
        return acc * r ** (2 * skip + 1)
    mu, w = 0j, z
    for _ in range(_steps(z)):
        # mu(w) - mu(w + 1) = (w + 1/2) ln(1 + 1/w) - 1
        mu += (w + 0.5) * _log1p_inv(w) - 1.0
        w += 1.0
    return mu + binet(w) - sum(c * z ** (-1 - 2 * k)
                               for k, c in enumerate(_STIRLING[:skip]))


def loggamma(z: complex) -> complex:
    """Principal ln Gamma(z); z must not be 0 or a negative integer."""
    z = complex(z)
    return (z - 0.5) * cmath.log(z) - z + _HALF_LOG_2PI + binet(z)


def rgamma(z: complex) -> complex:
    """1/Gamma(z), entire: exactly 0 at z = 0, -1, -2, ..."""
    z0 = z = complex(z)
    prod = 1 + 0j
    for _ in range(_steps(z)):
        prod *= z
        z += 1.0
    try:
        val = prod * cmath.exp(-loggamma(z))
    except OverflowError:
        val = complex(math.inf)
    if not cmath.isfinite(val):
        raise DomainError(f"1/Gamma(z) is beyond the float range at z={z0}")
    return val
