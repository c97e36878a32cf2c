"""The far field: at every |z| a family answers with a finite value and
bound, or refuses with a typed error (ROADMAP item 19)."""

import cmath
import math
import warnings

import pytest

from parcyl import inhom, lg, tp
from parcyl.errors import ParcylError

#: the 12 CLI families and the two Scorer families at u = 20, order 3, with
#: the CLI's R = 0 and each family's default pair
FAMILIES = {
    "U+": lambda z: lg.pcf_U_pos(20.0, z, 3, "+z"),
    "U+'": lambda z: lg.pcf_Uprime_pos(20.0, z, 3, "+z"),
    "U-": lambda z: tp.pcf_U_neg(20.0, z, 3),
    "V-": lambda z: tp.pcf_V_neg(20.0, z, 3),
    "U+i": lambda z: tp.pcf_U_rotated(20.0, z, 3, "+i"),
    "U-i": lambda z: tp.pcf_U_rotated(20.0, z, 3, "-i"),
    "W+x": lambda z: tp.weber_W_real(20.0, z.real, 3, "+x"),
    "W-x": lambda z: tp.weber_W_real(20.0, z.real, 3, "-x"),
    "W0": lambda z: lg.weber_neg_Wj(20.0, z, 3, 0),
    "W3": lambda z: lg.weber_neg_Wj(20.0, z, 3, 3),
    "UR": lambda z: inhom.inhom_series(20.0, z, 3, 0, "plus", (0, 2)),
    "WR": lambda z: inhom.inhom_series(20.0, z, 3, 0, "weber-", (0, 3)),
    "inhom_scorer": lambda z: inhom.inhom_scorer(20.0, z, 3, 0, "PCF-", (-1, 1)),
    "connect_inhom_pcfm": lambda z: inhom.connect_inhom_pcfm(20.0, z, 3, 0),
}
REAL = ("W+x", "W-x")


def _ring(k: float, n: int) -> list[complex]:
    """n directions at |z| = 10^k, the real ones exactly real."""
    r = 10.0 ** k
    return [complex(r * math.cos(2 * math.pi * j / n),
                    0.0 if 2 * j % n == 0 else r * math.sin(2 * math.pi * j / n))
            for j in range(n)]


#: |z| = 10^k for k = 0.5..4 in quarter steps (64 directions) and for
#: k = 1..300 in steps of 7 (16 directions)
FAR_POINTS = [z for q in range(2, 17) for z in _ring(q / 4, 64)] \
    + [z for k in range(1, 301, 7) for z in _ring(k, 16)]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_far_field_answers_or_refuses(family):
    # with warnings as errors: no overflowed intermediate, no untyped error
    call = FAMILIES[family]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in FAR_POINTS:
            if family in REAL and z.imag != 0.0:
                continue
            try:
                cv = call(z)
            except ParcylError:
                continue
            assert cmath.isfinite(cv.value.mantissa) and math.isfinite(cv.value.log_scale) \
                and math.isfinite(cv.rel_bound), (family, z)
