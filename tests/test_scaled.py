import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from parcyl.errors import U_MAX
from parcyl.scaled import ScaledComplex, sincospi, sum_rel


finite = st.complex_numbers(min_magnitude=1e-8, max_magnitude=1e8,
                            allow_nan=False, allow_infinity=False)


@given(finite)
def test_roundtrip(z):
    s = ScaledComplex.from_complex(z)
    assert 1.0 <= abs(s.mantissa) < math.e + 1e-12
    assert s.to_complex() == pytest.approx(z, rel=1e-14)


@given(finite, finite)
def test_mul_add(a, b):
    sa, sb = ScaledComplex.from_complex(a), ScaledComplex.from_complex(b)
    assert (sa * sb).to_complex() == pytest.approx(a * b, rel=1e-12)
    assert (sa + sb).to_complex() == pytest.approx(a + b, rel=1e-10, abs=1e-10 * (abs(a) + abs(b)))


def test_huge_scales():
    big = ScaledComplex.from_log(5000.0, 1.0)
    tiny = ScaledComplex.from_log(-5000.0)
    prod = big * tiny
    assert prod.to_complex() == pytest.approx(cmath.exp(1j), rel=1e-12)
    assert (big + tiny).log_abs == pytest.approx(5000.0)


def test_from_log_complex():
    w = complex(-3000.0, 2.5)
    s = ScaledComplex.from_log_complex(w)
    assert s.log_abs == pytest.approx(-3000.0)
    assert cmath.phase(s.mantissa) == pytest.approx(2.5, abs=1e-12)


def test_division_and_ratio():
    a = ScaledComplex.from_log(300.0, 0.3)
    b = ScaledComplex.from_log(299.0, 0.1)
    assert (a / b).to_complex() == pytest.approx(cmath.exp(1 + 0.2j), rel=1e-12)


def test_zero_handling():
    z = ScaledComplex.from_complex(0)
    assert z.is_zero()
    assert (z + ScaledComplex.from_complex(2.0)).to_complex() == 2.0
    assert (z * ScaledComplex.from_complex(2.0)).is_zero()


def test_sum_rel_sees_cancellation():
    # 1 + 1e-3 and -1, each good to 1e-10: the sum 1e-3 is good to ~2e-7
    one = ScaledComplex.from_complex(1.0)
    val, rel = sum_rel([(one * (1.0 + 1e-3), 1e-10), (-one, 1e-10)])
    assert val.to_complex() == pytest.approx(1e-3, rel=1e-12)
    assert rel == pytest.approx((2.0 + 1e-3) * 1e-10 / 1e-3, rel=1e-12)
    # terms that add do not loosen the larger error
    val, rel = sum_rel([(one, 1e-10), (one * 3.0, 1e-12)])
    assert rel == pytest.approx((1e-10 + 3e-12) / 4.0, rel=1e-12)


def test_sum_rel_of_a_zero_total_is_inf():
    one = ScaledComplex.from_complex(2.5 - 1j)
    val, rel = sum_rel([(one, 1e-12), (-one, 1e-12)])
    assert val.is_zero() and rel == math.inf
    # zero terms add nothing to the figure
    val, rel = sum_rel([(ScaledComplex.from_complex(0.0), math.inf), (one, 1e-12)])
    assert val == one and rel == 1e-12


def test_sum_rel_past_e709_is_inf_without_a_warning():
    # |term| / |sum| = e^800 overflows a float: the figure is inf, with no
    # OverflowError and no RuntimeWarning
    big = ScaledComplex.from_log(1000.0, 0.3)
    rest = ScaledComplex.from_log(200.0, 1.1)
    val, rel = sum_rel([(big, 1e-16), (-big, 1e-16), (rest, 1e-16)])
    assert val.log_abs == pytest.approx(200.0, abs=1e-9)
    assert rel == math.inf


def test_sincospi_is_exact_at_integers_and_half_integers():
    half_max = U_MAX / 2.0
    for x in (0.0, 0.5, 1.0, 1.5, 2.0, 7.5, 10.0, 10.5, 21.0, 150.5,
              12345678.5, half_max - 0.5, half_max):
        for sx in (x, -x):
            k = round(2 * sx)   # sx = k/2 exactly
            s, c = sincospi(sx)
            expect = {0: (0.0, 1.0), 1: (1.0, 0.0), 2: (0.0, -1.0),
                      3: (-1.0, 0.0)}[k % 4]
            assert (s, c) == expect, sx


def test_sincospi_against_mpmath():
    rng = np.random.default_rng(7)
    xs = np.concatenate([rng.uniform(-4.0, 4.0, 200),
                         rng.uniform(-U_MAX / 2, U_MAX / 2, 100),
                         rng.integers(-1000, 1000, 50) * 0.5
                         + rng.uniform(-1e-6, 1e-6, 50)])
    with mpmath.workdps(40):
        for x in xs:
            s, c = sincospi(float(x))
            assert abs(s - float(mpmath.sinpi(float(x)))) <= 2e-16, x
            assert abs(c - float(mpmath.cospi(float(x)))) <= 2e-16, x
