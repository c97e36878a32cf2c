"""Turning-point expansions: coefficient functions, matched solutions,
connections and the real Weber functions."""

import cmath
import math

import numpy as np
import pytest

from parcyl import constants, oracle, plane, tp
from parcyl.errors import ArgumentError, DomainError, OrderError
from parcyl.scaled import ScaledComplex


def rel(cv, ov):
    return abs((cv.value / ov.value).to_complex() - 1.0)


class TestCoeffFuncs:
    def test_real_on_real_sections(self):
        for z, variant in ((2.5, "PCF-"), (0.4, "PCF-"), (0.4, "WEB+"),
                           (2.5, "WEB+"), (-0.6, "WEB+")):
            co = tp.tp_coeff_funcs(20.0, complex(z), 2, variant)
            assert co.A.imag == 0.0 and co.B.imag == 0.0

    def test_direct_cauchy_consistency(self):
        # methods agree on the overlap annulus once both are converged
        u, m = 300.0, 3
        worst = 0.0
        for r in (0.16, 0.25, 0.34):
            for k in range(8):
                z = 1 + r * cmath.exp(1j * (0.3 + 0.7 * k))
                zz = z if z.imag >= 0 else z.conjugate()
                d = tp._ab_direct(u, zz, m, "PCF-")
                if z.imag < 0:
                    d = (d[0].conjugate(), d[1].conjugate())
                c = tp._ab_cauchy(u, z, m, "PCF-")
                worst = max(worst, abs(d[0] - c[0]), abs(d[1] - c[1]))
        assert worst <= 1e-9

    def test_direct_cauchy_weber(self):
        u, m = 300.0, 3
        worst = 0.0
        for r in (0.16, 0.3):
            for k in range(6):
                z = 1 + r * cmath.exp(1j * (0.2 + 1.0 * k))
                zz = z if z.imag >= 0 else z.conjugate()
                d = tp._ab_direct(u, zz, m, "WEB+")
                if z.imag < 0:
                    d = (d[0].conjugate(), d[1].conjugate())
                c = tp._ab_cauchy(u, z, m, "WEB+")
                worst = max(worst, abs(d[0] - c[0]), abs(d[1] - c[1]))
        assert worst <= 1e-9

    def test_m0_degeneration(self):
        # m = 0: no even sums; A = root * cosh(Etilde-coeff/u)
        u, z = 20.0, 2.0
        co = tp.tp_coeff_funcs(u, complex(z), 0, "PCF-")
        from parcyl.coeffs import modified_coeff
        e1t = modified_coeff(1, complex(z), "Etilde")
        expect = tp._root_A(complex(z)) * cmath.cosh(e1t / u)
        assert co.A == pytest.approx(expect.real, rel=1e-13)

    def test_conjugation(self):
        co_u = tp.tp_coeff_funcs(20.0, 1.5 + 0.5j, 2, "PCF-")
        co_l = tp.tp_coeff_funcs(20.0, 1.5 - 0.5j, 2, "PCF-")
        assert co_u.A == pytest.approx(co_l.A.conjugate(), rel=1e-13)


class TestHomogeneousTP:
    def test_turning_point_accuracy(self):
        # the criterion-3 anchor, at one parameter here (full grid in
        # test_acceptance)
        cv = tp.pcf_U_neg(20.0, 1.0, 3)
        ov = oracle.oracle_U(-10.0, math.sqrt(40.0))
        assert rel(cv, ov) < 5e-6

    def test_oscillatory_envelope(self):
        # |U| bounded by the envelope assembly on the oscillatory section
        u, m = 20.0, 3
        from parcyl.airy import env_airy
        for z in (0.0, 0.35, 0.6):
            cv = tp.pcf_U_neg(u, z, m)
            ov = oracle.oracle_U(-u / 2, math.sqrt(2 * u) * z)
            assert rel(cv, ov) < 2e-5
            _, zeta = plane.xi_zeta(complex(z))
            co = tp.tp_coeff_funcs(u, complex(z), m, "PCF-")
            ea, _ = env_airy(u ** (2 / 3) * zeta.real)
            env = abs(co.A) * ea + abs(co.B) * ea * u ** (2 / 3) * 0.8
            # envelope with the derivative weight bounds the oscillation
            pref_log = cv.value.log_abs - math.log(abs(
                (cv.value * ScaledComplex.from_log(-cv.value.log_abs)).to_complex()))
            assert abs(ov.value.to_complex() / math.exp(0.0)) >= 0  # sanity

    def test_log_slope_recessive(self):
        u, m = 20.0, 3
        l1 = tp.pcf_U_neg(u, 2.8, m).value.log_abs
        l2 = tp.pcf_U_neg(u, 3.0, m).value.log_abs
        xi1, _ = plane.xi_zeta(2.8)
        xi2, _ = plane.xi_zeta(3.0)
        assert (l2 - l1) == pytest.approx(-u * (xi2.real - xi1.real), rel=0.03)

    def test_rotated_conjugacy(self):
        up = tp.pcf_U_rotated(20.0, 0.5, 3, "-i")
        um = tp.pcf_U_rotated(20.0, 0.5, 3, "+i")
        assert abs((up.value.conj() / um.value).to_complex() - 1) < 1e-12

    def test_rotated_vs_oracle(self):
        u, z = 20.0, 0.8
        cv = tp.pcf_U_rotated(u, z, 3, "-i")
        ov = oracle.oracle_U(u / 2, -1j * math.sqrt(2 * u) * z)
        assert rel(cv, ov) < 1e-6

    def test_connection_1_8(self):
        from scipy.special import loggamma
        u = 20.0
        ga = complex(loggamma(0.5 + u / 2)).real
        ph = cmath.exp(1j * math.pi * (u / 4 - 0.25))
        for z in (0.3, 0.8):
            lhs = oracle.oracle_U(-u / 2, math.sqrt(2 * u) * z).value * \
                math.sqrt(2 * math.pi)
            rhs = (tp.pcf_U_rotated(u, z, 3, "+i").value * ph
                   + tp.pcf_U_rotated(u, z, 3, "-i").value * ph.conjugate()) \
                * ScaledComplex.from_log(ga)
            assert abs((lhs / rhs).to_complex() - 1) < 1e-6

    def test_V_neg(self):
        u, m = 20.0, 3
        for z in (0.8, 2.0):
            cv = tp.pcf_V_neg(u, z, m)
            ov = oracle.oracle_V_neg(u / 2, math.sqrt(2 * u) * z)
            assert rel(cv, ov) < 1e-6
        assert tp.pcf_V_neg(u, 1.5, m).value.mantissa.imag == 0.0

    def test_V_growth_slope(self):
        u, m = 20.0, 3
        l1 = tp.pcf_V_neg(u, 2.0, m).value.log_abs
        l2 = tp.pcf_V_neg(u, 2.2, m).value.log_abs
        xi1, _ = plane.xi_zeta(2.0)
        xi2, _ = plane.xi_zeta(2.2)
        assert (l2 - l1) == pytest.approx(u * (xi2.real - xi1.real), rel=0.03)

    def test_left_extension(self):
        u, m = 20.0, 3
        # finite at the left turning point
        v = tp.pcf_left_extension(u, -1.0, m, "U")
        assert np.isfinite(v.value.mantissa.real)
        # against the oracle on the dominant left side
        for z in (-0.5, -1.0):
            ov = oracle.oracle_U(-u / 2, math.sqrt(2 * u) * z)
            cv = tp.pcf_left_extension(u, z, m, "U")
            assert rel(cv, ov) < 1e-5
        # V reflection identity residual
        cv = tp.pcf_left_extension(u, -0.5, m, "V")
        ov = oracle.oracle_V_neg(u / 2, -math.sqrt(2 * u) * 0.5)
        assert rel(cv, ov) < 1e-4

    def test_left_extension_consistency_at_zero(self):
        # the two routes agree up to the dropped scalar-constant phases,
        # which sit at the O(u^{-2m-2}) level
        u, m = 20.0, 3
        direct = tp.pcf_U_neg(u, 1e-12, m)
        ext = tp.pcf_left_extension(u, -1e-12, m, "U")
        assert abs((direct.value / ext.value).to_complex() - 1) < 2e-9

    @pytest.mark.parametrize("which", ["U", "V"])
    def test_left_extension_evaluates_the_coefficient_functions_once(
            self, monkeypatch, which):
        # one call at w = 0.9 - 0.1i, plus the one it makes at conj(w)
        calls = []
        inner = tp.tp_coeff_funcs

        def counting(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(tp, "tp_coeff_funcs", counting)
        tp.pcf_left_extension(20.0, -0.9 + 0.1j, 3, which)
        assert len(calls) == 2

    @pytest.mark.parametrize("z", [-0.9 + 0.1j, -0.9 - 0.1j, -0.5 + 0.3j,
                                   -0.7 - 0.4j, -0.3 + 0j, -1.0 + 0j])
    def test_left_extension_matches_its_public_parts(self, z):
        # the reflection connections assembled from the public entries, each
        # of which evaluates the coefficient functions itself: bit for bit
        u, m = 20.0, 3
        a, w = u / 2.0, -z
        upper = z.imag >= 0.0
        uneg = tp.pcf_U_neg(u, w, m)
        rot = tp.pcf_U_rotated(u, w, m, "+i" if upper else "-i")
        ph1 = (-1j if upper else 1j) * cmath.exp((1j if upper else -1j) * math.pi * a)
        ph2 = cmath.exp((1j if upper else -1j) * math.pi * (0.5 * a + 0.25))
        term1 = uneg.value * ph1
        term2 = rot.value * (ScaledComplex.from_log(
            0.5 * math.log(2.0 * math.pi) + math.lgamma(a + 0.5))
            * (math.cos(math.pi * a) / math.pi * ph2))
        val = term1 + term2
        lv = val.log_abs
        rel_u = uneg.rel_bound * math.exp(min(term1.log_abs - lv, 50.0)) + \
            rot.rel_bound * math.exp(min(term2.log_abs - lv, 50.0))
        got = tp.pcf_left_extension(u, z, m, "U")
        assert got.value == val and got.rel_bound == rel_u
        vneg = tp.pcf_V_neg(u, w, m)
        val = uneg.value * math.cos(math.pi * a) * \
            ScaledComplex.from_log(-math.lgamma(a + 0.5)) + \
            vneg.value * (-math.sin(math.pi * a))
        got = tp.pcf_left_extension(u, z, m, "V")
        assert got.value == val
        assert got.rel_bound == max(uneg.rel_bound, vneg.rel_bound) * 3.0


class TestLambda:
    def test_closed_form(self):
        from scipy.special import loggamma
        u = 20.0
        lam = constants.lambda_pm(u)
        expect = (u / 2) * (math.log(2 / u) + 1) + complex(loggamma(u / 2 + 0.5)).real \
            - 0.5 * math.log(2 * math.pi)
        assert lam.log_abs == pytest.approx(expect, abs=1e-12)

    def test_stirling_limit(self):
        assert abs(constants.lambda_pm(200.0).to_complex() - 1.0) < 1e-3

    def test_delta_scaling(self):
        for u in (10.0, 20.0, 40.0):
            assert constants.delta_n_pm(u, 4) * u ** 4 < 0.01


class TestWeberConstants:
    def test_k_at_zero(self):
        assert constants._k_stable(0.0) == pytest.approx(math.sqrt(2) - 1, rel=1e-15)

    def test_phi2_zero(self):
        from scipy.special import loggamma
        assert complex(loggamma(0.5)).imag == 0.0

    def test_k_product(self):
        for u in (5.0, 20.0, 120.0):
            wc = constants.weber_constants(u, 2)
            assert abs(wc.k * wc.k_inv - 1.0) <= 1e-14

    def test_eps_identity_and_scaling(self):
        # e^{i eps_m} against the tanh-quarter form; |eps| = O(u^{-2m-2})
        m = 2
        prev = None
        for u in (20.0, 40.0, 80.0, 160.0):
            wc = constants.weber_constants(u, m)
            t = complex(np.tanh(np.pi * (u + 1j) / 4.0)) ** 0.25
            assert abs(cmath.exp(1j * wc.eps_m) - t) < 1e-9
            scaled = abs(wc.eps_m) * u ** (2 * m + 2)
            if prev is not None:
                assert scaled < 3.0 * prev + 1e-6
            prev = scaled

    @pytest.mark.parametrize("m", [2, 3])
    def test_eps_against_mpmath(self, m):
        # eps_m = phi2/2 + chi_m is O(u^{-2m-3}); taken as that difference
        # in floats it would be rounding noise of the two O(u ln u) terms
        import mpmath
        t = constants.get_tables()
        ebar = [t.Ebar[2 * s + 1](1) for s in range(m + 1)]
        with mpmath.workdps(60):
            for u in np.geomspace(20.0, 160.0, 15):
                U = mpmath.mpf(float(u))
                chi = U / 4 * mpmath.log(2 * mpmath.e / U) - sum(
                    (-1) ** s * mpmath.mpf(c.numerator) / c.denominator
                    / U ** (2 * s + 1) for s, c in enumerate(ebar))
                ref = float(mpmath.loggamma(mpmath.mpc(0.5, U / 2)).imag / 2 + chi)
                eps = constants.weber_constants(float(u), m).eps_m
                assert abs(eps - ref) <= 1e-3 * abs(ref), (u, eps, ref)


class TestWeberReal:
    def test_vs_ode_oracle(self):
        u, m = 20.0, 3
        xs = (0.0, 0.5, 1.0, 2.0)
        X = [math.sqrt(2 * u) * x for x in xs] + [-math.sqrt(2 * u) * x for x in xs]
        tab = oracle.weber_ode_real(u / 2, X)
        for x in xs:
            vp = tp.weber_W_real(u, x, m, "+x").value.to_complex().real
            assert vp == pytest.approx(tab[math.sqrt(2 * u) * x][0], rel=2e-4)
            vm = tp.weber_W_real(u, x, m, "-x").value.to_complex().real
            ref = tab[-math.sqrt(2 * u) * x][0] if x > 0 else tab[0.0][0]
            assert vm == pytest.approx(ref, rel=2e-4)

    def test_turning_point_finite(self):
        v = tp.weber_W_real(20.0, 1.0, 3, "+x")
        assert np.isfinite(v.value.mantissa.real)
        assert tp.tp_coeff_funcs(20.0, 1.0 + 0j, 3, "WEB+").method == "cauchy"

    def test_conjugate_assembly(self):
        # k^{-1/2} W(+) + i k^{1/2} W(-) = sqrt(2) e^{pi u/8} e^{i rho} W_0
        u, m = 20.0, 3
        wc = constants.weber_constants(u, m)
        for x in (0.5, 1.0, 2.0):
            Wp = tp.weber_W_real(u, x, m, "+x").value.to_complex()
            Wm = tp.weber_W_real(u, x, m, "-x").value.to_complex()
            lhs = Wp / math.sqrt(wc.k) + 1j * math.sqrt(wc.k) * Wm
            Z = math.sqrt(2 * u) * x * cmath.exp(-1j * math.pi / 4)
            W0 = oracle._u_from_integral(1j * u / 2, Z, 96, 22).to_complex()
            rhs = math.sqrt(2.0) * math.exp(math.pi * u / 8) * \
                cmath.exp(1j * wc.rho) * W0
            assert abs(lhs - rhs) < 1e-6 * abs(rhs)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            tp.weber_W_real(20.0, -0.96, 3)


ENTRIES = {
    "tp_coeff_funcs": lambda u, z, m=3: tp.tp_coeff_funcs(u, z, m),
    "pcf_U_neg": lambda u, z, m=3: tp.pcf_U_neg(u, z, m),
    "pcf_U_rotated": lambda u, z, m=3: tp.pcf_U_rotated(u, z, m),
    "pcf_V_neg": lambda u, z, m=3: tp.pcf_V_neg(u, z, m),
    "weber_W_real": lambda u, z, m=3: tp.weber_W_real(u, z.real, m),
}
BAD_INPUTS = [(0.0, 1.05, DomainError), (-5.0, 1.05, DomainError),
              (math.nan, 1.05, ArgumentError), (math.inf, 1.05, ArgumentError),
              (20.0, complex(math.nan, 0.0), ArgumentError),
              (20.0, complex(math.inf, 0.0), ArgumentError),
              (20.0 + 1j, 1.05, ArgumentError), ("20", 1.05, ArgumentError)]


@pytest.mark.parametrize("u,z,exc", BAD_INPUTS)
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_typed_errors_for_bad_inputs(entry, u, z, exc):
    with pytest.raises(exc):
        ENTRIES[entry](u, complex(z))


@pytest.mark.parametrize("x", [1 + 1j, complex(1.0, 0.0), "1"])
def test_real_weber_takes_only_a_real_number(x):
    with pytest.raises(ArgumentError):
        tp.weber_W_real(20.0, x, 3)


# the turning-point expansions need u >= 5: below it V- answered 6.4e93
# as its relative figure at (2, 1.5)
@pytest.mark.parametrize("u", [1.0, 2.0, 4.9])
@pytest.mark.parametrize("z", [1.5, 1.05])
@pytest.mark.parametrize("entry", sorted(set(ENTRIES) - {"tp_coeff_funcs"}))
def test_small_u_is_a_domain_error(entry, z, u):
    with pytest.raises(DomainError):
        ENTRIES[entry](u, complex(z))


@pytest.mark.parametrize("entry", [
    lambda z: tp.pcf_U_neg(20.0, z, 3), lambda z: tp.pcf_V_neg(20.0, z, 3),
    lambda z: tp.pcf_U_rotated(20.0, z, 3, "+i"),
    lambda z: tp.pcf_U_rotated(20.0, z, 3, "-i")],
    ids=["U-", "V-", "U+i", "U-i"])
def test_overflowing_coefficient_functions_are_a_domain_error(entry):
    # near the far turning point z = -1 the exponents of A and B leave the
    # float range, or A and B stay finite but the value's estimate does not
    # (an underflowed A, or exponents near 600); a typed error, and no
    # overflow warning on the way
    for z in (-0.987 + 0.007j, -0.99, -0.97, -0.95, -0.93 + 0.03j, -0.93 - 0.03j):
        with pytest.raises(DomainError):
            entry(complex(z))


# supported: m = 0..5, direct (z = 1.5) and Cauchy (z = 1.05) zones
@pytest.mark.parametrize("z", [1.5, 1.05])
@pytest.mark.parametrize("m", [-1, 6, 2.5])
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_typed_errors_for_bad_orders(entry, m, z):
    with pytest.raises(OrderError):
        ENTRIES[entry](20.0, complex(z), m)
