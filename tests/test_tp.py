"""Turning-point expansions: coefficient functions, matched solutions,
connections and the real Weber functions."""

import cmath
import math
import sys

import mpmath
import numpy as np
import pytest

from parcyl import constants, inhom, lg, oracle, plane, tp
from parcyl.errors import (U_MAX, ArgumentError, DomainError, OrderError,
                           ParcylError)
from parcyl.scaled import ScaledComplex, sincospi, sum_rel


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

    @pytest.mark.parametrize("variant", ["PCF-", "WEB+"])
    @pytest.mark.parametrize("z, method", [
        (2.0 + 0.5j, "direct"), (2.0 - 0.5j, "direct"), (0.4 + 0j, "direct"),
        (3.0 + 0j, "direct"), (-0.5 + 1.5j, "direct"), (-0.5 - 1.5j, "direct"),
        (1.1 + 0.05j, "cauchy"), (1.1 - 0.05j, "cauchy"), (0.9 + 0j, "cauchy"),
        (1.0 + 0j, "cauchy")])
    def test_airy_argument_is_formed_once(self, variant, z, method):
        # the one Airy argument every turning-point value reads, in both
        # half planes (the lower one by conjugation) and in both zones
        u = 20.0
        co = tp.tp_coeff_funcs(u, z, 3, variant)
        sign = -1.0 if variant == "WEB+" else 1.0
        expect = sign * u ** (2.0 / 3.0) * plane.xi_zeta(z)[1]
        assert co.method == method
        assert (co.arg.real.hex(), co.arg.imag.hex()) == \
            (expect.real.hex(), expect.imag.hex())

    @pytest.mark.parametrize("z", [50.0, 1 + 50j, 0.15 + 50j, 1 - 50j])
    def test_an_estimate_path_collapsed_to_its_point(self, z):
        # on the truncation box the path to +inf or to +-i inf is z alone:
        # its moments vanish and z is its far end
        for variant in ("PCF-", "WEB+"):
            co = tp.tp_coeff_funcs(20.0, z, 3, variant)
            assert 0.0 < co.est_err < 1e-6


#: u at integer, generic, half-integer and near half-integer a = u/2
LEFT_U = (20.0, 20.3, 21.0, 21.0000001, 37.1, 40.0)
LEFT_Z = (-0.5, -1.0, -1.5, -2.0, -2.5, -3.0, -0.5 + 0.5j, -0.5 - 0.5j,
          -1.5 + 1j, -1.5 - 1j, -2.5 + 1.5j, -2.5 - 1.5j)


@pytest.fixture(scope="module")
def left_refs():
    """U(-u/2, sqrt(2u) z) at 50 digits and V at 90 on the LEFT_U x LEFT_Z
    lattice; a V is None where its 50- and 90-digit values disagree."""
    refs = {}
    for u in LEFT_U:
        a = mpmath.mpf(-u / 2)
        for z in LEFT_Z:
            with mpmath.workdps(50):
                x = mpmath.sqrt(2 * mpmath.mpf(u)) * mpmath.mpc(z)
                refs[u, z, "U"] = mpmath.pcfu(a, x)
                v50 = mpmath.pcfv(a, x)
            with mpmath.workdps(90):
                x = mpmath.sqrt(2 * mpmath.mpf(u)) * mpmath.mpc(z)
                v90 = mpmath.pcfv(a, x)
                agree = abs(v50 - v90) <= mpmath.mpf(10) ** -30 * abs(v90)
            refs[u, z, "V"] = v90 if agree else None
    return refs


class TestHomogeneousTP:
    def test_turning_point_accuracy(self):
        # the criterion-3 anchor, at one parameter here (full grid in
        # test_acceptance)
        cv = tp.pcf_U_neg(20.0, 1.0, 3)
        ov = oracle.oracle_U(-10.0, math.sqrt(40.0))
        assert rel(cv, ov) < 5e-6

    def test_oscillatory_envelope(self):
        # |U| bounded by the prefactor times the envelope assembly on the
        # oscillatory section
        u, m = 20.0, 3
        from parcyl.airy import airy, env_airy
        for z in (0.0, 0.35, 0.6):
            cv = tp.pcf_U_neg(u, z, m)
            ov = oracle.oracle_U(-u / 2, math.sqrt(2 * u) * z)
            assert rel(cv, ov) < 2e-5
            _, zeta = plane.xi_zeta(complex(z))
            co = tp.tp_coeff_funcs(u, complex(z), m, "PCF-")
            x = u ** (2 / 3) * zeta.real
            ea, _ = env_airy(x)
            env = abs(co.A) * ea + abs(co.B) * ea * u ** (2 / 3) * 0.8
            # the expansion is U = P w, w = Ai(x) A + Ai'(x) B, with the
            # prefactor P; below the Ai-Bi crossing ea = sqrt(Ai^2 + Bi^2)
            # >= |Ai(x)|, and |Ai'(x)| <= sqrt(Ai'^2 + Bi'^2) ~ sqrt(|x|) ea,
            # where sqrt(|x|) <= 2.9 (x >= -8.3 for 0 <= z), about half of
            # 0.8 u^{2/3} = 5.9; so |w| <= env
            av = airy(x)
            w = av.ai * co.A + av.ai_prime * co.B
            assert abs(w) <= env
            log_pref = cv.value.log_abs - math.log(abs(w))
            # margin: the check above gives |U| <= |P w| / (1 - 2e-5), and
            # |P w| <= P env
            assert ov.value.log_abs <= log_pref + math.log(env) - math.log1p(-2e-5)

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
        # left of Re z = -1 U- takes the reflection through -z: finite at
        # the left turning point, and against the oracle there
        u, m = 20.0, 3
        cv = tp.pcf_U_neg(u, -1.0, m)
        assert np.isfinite(cv.value.mantissa.real)
        ov = oracle.oracle_U(-u / 2, -math.sqrt(2 * u))
        assert rel(cv, ov) < 1e-5

    @pytest.mark.parametrize("entry", [
        lambda z: tp.pcf_U_neg(20.0, z, 3), lambda z: tp.pcf_V_neg(20.0, z, 3),
        lambda z: tp.pcf_U_rotated(20.0, z, 3, "+i"),
        lambda z: tp.pcf_U_rotated(20.0, z, 3, "-i")],
        ids=["U-", "V-", "U+i", "U-i"])
    def test_left_extension_evaluates_the_coefficient_functions_once(
            self, monkeypatch, entry):
        # one call at w = 1.5 - 0.1i, which conjugates without calling
        # itself again
        calls = []
        inner = tp.tp_coeff_funcs

        def counting(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(tp, "tp_coeff_funcs", counting)
        entry(-1.5 + 0.1j)
        assert len(calls) == 1 and calls[0][1] == 1.5 - 0.1j

    @pytest.mark.parametrize("z", [-1.9 + 0.1j, -1.9 - 0.1j, -1.5 + 0.3j,
                                   -1.7 - 0.4j, -1.3 + 0j, -1.0 + 0j])
    def test_left_extension_matches_its_public_parts(self, z):
        # the reflection connections assembled from the entries at w = -z,
        # each of which evaluates the coefficient functions itself, and
        # summed by sum_rel: bit for bit, with the real part alone on the
        # axis; and U+-i(z) = U-+i(w)
        u, m = 20.0, 3
        a, w = u / 2.0, -z
        sin_pa, cos_pa = sincospi(a)
        upper = z.imag >= 0.0

        def on_axis(val):
            return ScaledComplex(complex(val.mantissa.real, 0.0), val.log_scale) \
                if z.imag == 0.0 else val

        uneg = tp.pcf_U_neg(u, w, m)
        rot = tp.pcf_U_rotated(u, w, m, "+i" if upper else "-i")
        ph1 = complex(sin_pa, -cos_pa if upper else cos_pa)
        ph2 = cmath.exp((1j if upper else -1j) * math.pi * (0.5 * a + 0.25))
        term2 = rot.value * (ScaledComplex.from_log(
            0.5 * math.log(2.0 * math.pi) + math.lgamma(a + 0.5))
            * (cos_pa / math.pi * ph2))
        val, rel_u = sum_rel([(uneg.value * ph1, uneg.rel_bound),
                              (term2, rot.rel_bound)])
        got = tp.pcf_U_neg(u, z, m)
        assert got.value == on_axis(val) and got.rel_bound == rel_u
        vneg = tp.pcf_V_neg(u, w, m)
        val, rel_v = sum_rel([
            (uneg.value * cos_pa * ScaledComplex.from_log(-math.lgamma(a + 0.5)),
             uneg.rel_bound),
            (vneg.value * -sin_pa, vneg.rel_bound)])
        got = tp.pcf_V_neg(u, z, m)
        assert got.value == on_axis(val) and got.rel_bound == rel_v
        for sign, image in (("+i", "-i"), ("-i", "+i")):
            assert tp.pcf_U_rotated(u, z, m, sign) == tp.pcf_U_rotated(u, w, m, image)

    @pytest.mark.parametrize("which", ["U", "V"])
    @pytest.mark.parametrize("u", LEFT_U)
    def test_left_extension_bound_holds_against_mpmath(self, left_refs, u, which):
        # at integer and half-integer a = u/2 one of the reflection's factors
        # cos(pi a), sin(pi a) is exactly 0 and drops the dominant term; off
        # them the bound has to see the terms' cancellation
        entry = tp.pcf_U_neg if which == "U" else tp.pcf_V_neg
        for z in LEFT_Z:
            ref = left_refs[u, z, which]
            if ref is None:
                continue
            cv = entry(u, z, 3)
            with mpmath.workdps(30):
                got = mpmath.mpc(cv.value.mantissa) * mpmath.exp(cv.value.log_scale)
                err = float(abs(got - ref) / abs(ref))
            assert err <= cv.rel_bound, (z, err, cv.rel_bound)

    @pytest.mark.parametrize("u", [10.0, 20.0, 40.0])
    @pytest.mark.parametrize("x", [-1.0, -1.5, -3.0, -6.0])
    def test_real_on_the_negative_axis(self, u, x):
        # U(-a, x) and V(-a, x) are real there; the reflection's terms are
        # complex and leave a rounding residue in the imaginary part
        for entry in (tp.pcf_U_neg, tp.pcf_V_neg):
            cv = entry(u, x, 3)
            assert cv.value.mantissa.imag == 0.0 and cv.value.mantissa.real != 0.0


#: the 0.25-spaced lattice over Re z in [-3, -1], |Im z| <= 3 (the real
#: points -1, -1.5 and -3 among them) and the points where the expansion at
#: z missed its estimate worst
STOKES_Z = [complex(-1 - a / 4, b / 4) for a in range(9) for b in range(-12, 13)] \
    + [-2.65 + 2.15j, -2.05 + 1.55j, -2 - 1.5j, -1.49 - 0.99j, -1 + 0.5j]
STOKES_U = (10.0, 20.0, 40.0)
#: the U- family as functions of (a, x), a = u/2, x = sqrt(2u) z
STOKES_REF = {"U-": lambda a, x: mpmath.pcfu(-a, x),
              "V-": lambda a, x: mpmath.pcfv(-a, x),
              "U+i": lambda a, x: mpmath.pcfu(a, 1j * x),
              "U-i": lambda a, x: mpmath.pcfu(a, -1j * x)}


@pytest.fixture(scope="module")
def stokes_refs():
    """STOKES_REF at 80 digits on STOKES_U x STOKES_Z, from Im z >= 0: U-
    and V- are real on the real axis, and U+-i(conj z) = conj U-+i(z)."""
    refs = {}
    with mpmath.workdps(80):
        for u in STOKES_U:
            a = mpmath.mpf(u) / 2
            for z in STOKES_Z:
                if z.imag < 0 and z.conjugate() in STOKES_Z:
                    continue
                x = mpmath.sqrt(2 * mpmath.mpf(u)) * mpmath.mpc(z)
                for family, f in STOKES_REF.items():
                    refs[u, z, family] = f(a, x)
            for z in STOKES_Z:
                if (u, z, "U-") not in refs:
                    zc = z.conjugate()
                    for family, image in (("U-", "U-"), ("V-", "V-"),
                                          ("U+i", "U-i"), ("U-i", "U+i")):
                        refs[u, z, family] = mpmath.conj(refs[u, zc, image])
    return refs


@pytest.mark.parametrize("family", sorted(STOKES_REF))
@pytest.mark.parametrize("u", STOKES_U)
def test_left_of_minus_one_every_answer_is_within_its_estimate(stokes_refs, u, family):
    # the expansion at z misses by e^{2u Re xi(z)}, beyond all orders (0.34
    # against 8e-11 for U- at -2.65+2.15i, u = 20); the values at -z do not.
    # The estimate counts truncation, not rounding: the Airy argument's
    # rounding comes back times u |xi| in its exponent, and is allowed for
    # (U+-i at -3-+3i, u = 40: 3.31e-13 against 3.08e-13, as at 3+-3i)
    entry = {"U-": tp.pcf_U_neg, "V-": tp.pcf_V_neg,
             "U+i": lambda u, z, m: tp.pcf_U_rotated(u, z, m, "+i"),
             "U-i": lambda u, z, m: tp.pcf_U_rotated(u, z, m, "-i")}[family]
    answered = 0
    for z in STOKES_Z:
        try:
            cv = entry(u, z, 3)
        except DomainError:
            continue
        answered += 1
        ref = stokes_refs[u, z, family]
        with mpmath.workdps(30):
            got = mpmath.mpc(cv.value.mantissa) * mpmath.exp(cv.value.log_scale)
            err = float(abs(got - ref) / abs(ref))
        rounding = u * abs(plane.xi_zeta(-z)[0]) * sys.float_info.epsilon
        assert err <= cv.rel_bound + rounding, (z, err, cv.rel_bound)
    assert answered >= len(STOKES_Z) - 3


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
            W0 = oracle.oracle_U(1j * u / 2, Z).to_complex()
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


# weber_constants used to form 1/k = e^{pi u/2}(...) as well, which
# overflowed for every u above ~452
@pytest.mark.parametrize("u", [500.0, 2000.0])
@pytest.mark.parametrize("m", range(6))
def test_weber_neg_real_at_large_u(u, m):
    cv = lg.weber_neg_real(u, 1.5, m)
    assert math.isfinite(cv.value.log_scale) and math.isfinite(cv.rel_bound)


# each at its highest order
LARGE_U_ENTRIES = {
    "pcf_U_pos": lambda u: lg.pcf_U_pos(u, 1.5, 6),
    "pcf_U_neg": lambda u: tp.pcf_U_neg(u, 1.5, 5),
    "pcf_U_neg reflection": lambda u: tp.pcf_U_neg(u, -1.5, 5),
    "weber_W_real": lambda u: tp.weber_W_real(u, 1.5, 5),
    "inhom_scorer": lambda u: inhom.inhom_scorer(u, 1.1, 4, 0),
    "gamma_W_mR": lambda u: inhom.gamma_W_mR(u, 5, 0),
    "lambda_pm": lambda u: constants.lambda_pm(u),
    "delta_n_pm": lambda u: constants.delta_n_pm(u, 4),
}


@pytest.mark.parametrize("entry", sorted(LARGE_U_ENTRIES))
def test_parameter_up_to_u_max_gives_a_value_or_a_typed_error(entry):
    try:
        LARGE_U_ENTRIES[entry](U_MAX)
    except ParcylError:
        pass


@pytest.mark.parametrize("entry", sorted(LARGE_U_ENTRIES))
def test_parameter_above_u_max_is_a_domain_error(entry):
    with pytest.raises(DomainError):
        LARGE_U_ENTRIES[entry](1e308)


# far from the origin the Airy argument u^{2/3} zeta reaches |xi| ~ 1e8,
# where xi^k of the asymptotic series used to overflow below U_MAX
@pytest.mark.parametrize("u,z", [(1e4, 200.0), (1e6, 20 + 5j), (1e7, 5.0),
                                 (1e8, 2 + 0.5j)])
@pytest.mark.parametrize("entry", ["pcf_U_neg", "pcf_V_neg", "weber_W_real"])
def test_far_airy_arguments_give_a_value_or_a_typed_error(entry, u, z):
    try:
        ENTRIES[entry](u, z)
    except ParcylError:
        pass
