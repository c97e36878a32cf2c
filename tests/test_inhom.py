"""Inhomogeneous solutions: constants, series, Scorer forms, connections."""

import cmath
import math

import numpy as np
import pytest
from scipy.special import gamma, loggamma, rgamma

from parcyl import inhom, lg, oracle, plane, quadrature, tp
from parcyl.coeffs import evaluate
from parcyl.errors import (ArgumentError, DomainError, OrderError, PairError,
                           ParcylError, PoleError)
from parcyl.scaled import ScaledComplex


def rel(cv, ov):
    return abs((cv.value / ov.value).to_complex() - 1.0)


class TestHyp:
    def test_r0_r1(self):
        for R in (0, 1):
            assert inhom.hyp_terminating(R, 2.5) == pytest.approx(
                complex(rgamma(2.5)), rel=1e-14)

    def test_r2_two_terms(self):
        c = 1.7
        expect = complex(rgamma(c)) + 0.25 * complex(rgamma(c + 1.0))
        assert inhom.hyp_terminating(2, c) == pytest.approx(expect, rel=1e-14)

    def test_generic_hypergeometric_oracle(self):
        import mpmath
        mpmath.mp.dps = 30
        for R, c in ((4, 2.3), (5, 0.9), (6, 3.7 + 1.2j)):
            ref = complex(mpmath.hyp2f1(0.5 - 0.5 * R, -0.5 * R, c, 0.5)
                          / mpmath.gamma(c))
            assert inhom.hyp_terminating(R, c) == pytest.approx(ref, rel=1e-12)


class TestLambdaR:
    def test_imaginary_part_formula(self):
        # Im Lambda_R(-a) equals the closed form
        a, R = 10.3, 2
        lam = inhom.lambda_R(a, R, "-a").value.to_complex()
        F = inhom.hyp_terminating(R, 0.5 * a - 0.5 * R + 0.75).real
        expect = -2.0 ** (-0.5 * a + 1.5 * R - 0.25) * math.pi * F
        assert lam.imag == pytest.approx(expect, rel=1e-12)

    def test_pole_error(self):
        with pytest.raises(PoleError):
            inhom.lambda_R(10.5, 2, "-a")   # N=10, R=2: N-R even
        # N - R odd: finite limit exists
        v = inhom.lambda_R(10.5, 3, "-a").value.to_complex()
        assert np.isfinite(v.real) and np.isfinite(v.imag)

    @pytest.mark.parametrize("a", [-2.0, -1.3, -0.7, 0.7, 3.1])
    @pytest.mark.parametrize("R", [0, 1, 2])
    def test_plus_a_against_mpmath(self, a, R):
        # Gamma(a + 1/2) is negative for a + 1/2 in (-1, 0) and (-3, -2): the
        # sign rides on the phase, the log-scale stays finite
        import mpmath
        with mpmath.workdps(30):
            c = 0.5 * a - 0.5 * R + 0.75
            F = mpmath.hyp2f1(0.5 - 0.5 * R, -0.5 * R, c, 0.5) * mpmath.rgamma(c)
            ref = complex(2 ** mpmath.mpf(-0.5 * a + 1.5 * R + 0.25)
                          * mpmath.sqrt(mpmath.pi) * mpmath.gamma(a + 0.5)
                          * mpmath.expjpi(0.5 * a + 0.5 * R - 0.75) * F)
        lam = inhom.lambda_R(a, R, "+a").value
        assert math.isfinite(lam.log_scale)
        assert abs(lam.to_complex() - ref) <= 1e-13 * abs(ref)

    def test_plus_a_pole(self):
        for a in (-0.5, -1.5, -2.5):
            with pytest.raises(PoleError):
                inhom.lambda_R(a, 1, "+a")

    def test_defining_relation_oracle(self):
        # (0,2) = (0,1) + Lambda_R(a) U(a,.) at a real-axis point
        a, R, z = 10.0, 0, 0.5
        u02 = oracle.oracle_inhom(a, z, R, (0, 2)).value
        u01 = oracle.oracle_inhom(a, z, R, (0, 1)).value
        uval = oracle.oracle_U(a, z).value
        lam = inhom.lambda_R(a, R, "+a").value
        resid = (u02 - u01 - lam * uval).abs().to_complex().real
        scale = max(abs(u02.to_complex()), abs((lam * uval).to_complex()))
        assert resid < 1e-7 * scale


class TestSeries:
    def test_bound_soundness(self):
        for (u, R, n, z) in ((20.0, 0, 3, 1.0), (20.0, 2, 3, 1.5),
                             (10.0, 1, 2, 0.7), (40.0, 5, 3, 2.0)):
            cv = inhom.inhom_series(u, z, n, R, "plus", (0, 2))
            ov = oracle.oracle_inhom(u / 2, math.sqrt(2 * u) * z, R, (0, 2))
            assert rel(cv, ov) <= cv.rel_bound

    def test_parity(self):
        for R in (2, 3):
            v1 = inhom.inhom_series(20.0, 1.4, 3, R, "plus", (0, 2)).value
            v2 = inhom.inhom_series(20.0, -1.4, 3, R, "plus", (0, 2)).value
            assert abs((v2 * (-1.0) ** R / v1).to_complex() - 1) < 1e-14

    def test_leading_term_origin(self):
        # w(0) ~ -Gbar_{0,0}(0)/u^2 = 1/u^2 at leading order
        # leading term is +Gbar_{0,0}(0)/u^2 = -1/u^2 (the sign is fixed by
        # the origin identity of the variation-of-parameters solution, which
        # is negative there)
        u = 300.0
        cv = inhom.inhom_series(u, 0.0, 1, 0, "plus", (0, 2))
        w = cv.value.to_complex() / (2 * u) ** 1.0
        assert w == pytest.approx(-1.0 / u ** 2, rel=1e-10)

    def test_n_constraint(self):
        with pytest.raises(OrderError):
            inhom.inhom_series(20.0, 1.0, 3, 16, "plus", (0, 2))

    def test_pair_13(self):
        with pytest.raises(PairError):
            inhom.inhom_series(20.0, 1.0, 3, 0, "plus", (1, 3))

    def test_superposition(self):
        # forcing z^2 + 3: solution = (R=2) + 3 (R=0), same pair
        u, n, z = 20.0, 3, 1.2
        v2 = inhom.inhom_series(u, z, n, 2, "plus", (0, 2)).value.to_complex() \
            / (2 * u) ** 2
        v0 = inhom.inhom_series(u, z, n, 0, "plus", (0, 2)).value.to_complex() \
            / (2 * u)
        combined = v2 + 3 * v0
        # oracle check by linearity of the variation-of-parameters integrals
        o2 = oracle.oracle_inhom(u / 2, math.sqrt(2 * u) * z, 2, (0, 2)) \
            .to_complex() / (2 * u) ** 2
        o0 = oracle.oracle_inhom(u / 2, math.sqrt(2 * u) * z, 0, (0, 2)) \
            .to_complex() / (2 * u)
        assert combined == pytest.approx(o2 + 3 * o0, rel=1e-4)

    def test_domain_rejection(self):
        with pytest.raises(DomainError):
            # on a critical level curve neighborhood: points on the cuts
            inhom.inhom_series(20.0, 1.0001j * 1.2, 3, 0, "plus", (0, 2))

    def test_minus_variant_vs_oracle(self):
        for (u, R, n, z) in ((20.0, 0, 3, 2.0), (20.0, 1, 3, 1.8)):
            cv = inhom.inhom_series(u, z, n, R, "minus", (0, 1))
            ov = oracle.oracle_inhom(-u / 2, math.sqrt(2 * u) * z, R, (0, 1))
            assert rel(cv, ov) <= cv.rel_bound


class TestGamma:
    def test_remark_ratio(self):
        g = inhom.gamma_mR(100.0, 2, 0).value.to_complex().real
        assert 0.95 <= g / (2 ** -0.5 * 100.0 ** (-4.0 / 3.0)) <= 1.05

    def test_R0_factor(self):
        # the terminating sum at R=0 is 1/Gamma(u/4+3/4)
        u = 20.0
        g = inhom.gamma_mR(u, 2, 0).value
        g1 = inhom.gamma_mR(u, 2, 0)
        F = inhom.hyp_terminating(0, u / 4 + 0.75)
        assert F == pytest.approx(complex(rgamma(u / 4 + 0.75)), rel=1e-14)

    def test_connection_residual(self):
        # the three-term relation among the Scorer solutions at z = 2
        u, R, m = 20.0, 0, 2
        scale = (2 * u) ** (R / 2 + 1)
        w_m10 = inhom.inhom_scorer(u, 2.0, m, R, "PCF-", (-1, 0)).value.to_complex()
        w_01 = inhom.inhom_scorer(u, 2.0, m, R, "PCF-", (0, 1)).value.to_complex()
        gam = inhom.gamma_mR(u, m, R).value.to_complex()
        wm0, _ = tp._w_ml(u, 2.0, tp.tp_coeff_funcs(u, 2.0, m), 0)
        resid = (w_m10 - w_01) + scale * 2j * math.pi * gam * wm0
        assert abs(resid) < 1e-5 * abs(w_01)


class TestScorer:
    @pytest.mark.parametrize("R,m", [(0, 2), (1, 2), (0, 3), (2, 4)])
    def test_turning_point_vs_oracle(self, R, m):
        u = 20.0
        cv = inhom.inhom_scorer(u, 1.0, m, R, "PCF-", (0, 1))
        ov = oracle.oracle_inhom(-u / 2, math.sqrt(2 * u), R, (0, 1))
        assert rel(cv, ov) < 1e-4

    def test_away_from_tp(self):
        u = 20.0
        for z in (0.6, 1.6, 2.0):
            cv = inhom.inhom_scorer(u, z, 3, 0, "PCF-", (0, 1))
            ov = oracle.oracle_inhom(-u / 2, math.sqrt(2 * u) * z, 0, (0, 1))
            assert rel(cv, ov) < 1e-4

    def test_J0_degeneration(self):
        # m = 0: single factorial terms, empty even sums
        from parcyl.coeffs import modified_coeff
        u, z = 20.0, 2.0
        xi, zeta = plane.xi_zeta(complex(z))
        e1t = modified_coeff(1, complex(z), "Etilde")
        e1 = modified_coeff(1, complex(z), "E")
        expect = -cmath.cosh(e1t / u) + cmath.sinh(e1 / u) / (u * zeta ** 1.5)
        got = inhom._J_m(u, complex(z), 0, "PCF-")
        assert got == pytest.approx(expect, rel=1e-13)

    def test_conjugation_03(self):
        # the (0,3)-labelled solution is the conjugate of (0,1) on the axis
        u, R, m = 20.0, 1, 2
        v01 = inhom.inhom_scorer(u, 1.3, m, R, "PCF-", (0, 1)).value
        v03 = inhom.inhom_scorer(u, 1.3, m, R, "PCF-", (-1, 0)).value
        assert abs((v01.conj() / v03).to_complex() - 1) < 1e-12

    @pytest.mark.parametrize("z", [1.3 + 0.4j, 0.8 + 0.3j, 1.05 + 0.05j])
    def test_reflection_swaps_the_pair(self, z):
        # conjugation maps the sector +i inf onto -i inf: the (0,1)-labelled
        # solution at conj(z) is the conjugate of the (-1,0)-labelled one at z
        u, R, m = 20.0, 1, 2
        lo = inhom.inhom_scorer(u, z.conjugate(), m, R, "PCF-", (0, 1)).value
        up = inhom.inhom_scorer(u, z, m, R, "PCF-", (-1, 0)).value
        assert lo.mantissa == up.mantissa.conjugate()
        assert lo.log_scale == up.log_scale

    def test_weber_realness(self):
        for z in (0.5, 1.0, 1.8):
            v = inhom.inhom_scorer(20.0, z, 2, 0, "WEB+", (-1, 1)).value.to_complex()
            assert abs(v.imag) < 1e-8 * abs(v.real)

    def test_weber_vs_series_far(self):
        # away from the turning point the Scorer assembly must reproduce the
        # elementary series of the same equation
        u, R, m = 20.0, 0, 4
        z = 2.0
        scorer = inhom.inhom_scorer(u, z, m, R, "WEB+", (-1, 1)).value.to_complex()
        G = evaluate(inhom.get_tables().G_rows(R, "minus")[0], complex(z), 0, m + 2)
        # the formal series of w'' = u^2(1-z^2) w + z^R carries (-1)^{s+1}
        series = sum((-1) ** (s + 1) * G[s] / u ** (2 * s)
                     for s in range(m + 2)) / u ** 2
        series *= (2 * u) ** (R / 2 + 1)
        assert scorer == pytest.approx(series.real, rel=2e-6)


class TestConnections:
    def test_half_sum_assembly(self):
        for (R, z) in ((0, 0.5), (1, 0.8)):
            cv = inhom.connect_inhom_pcfm(20.0, z, 3, R)
            ov = oracle.oracle_inhom(-10.0, math.sqrt(40.0) * z, R, (0, 2))
            assert rel(cv, ov) < 1e-5

    @pytest.mark.parametrize("z", [1.05 + 0.05j, 1.05 - 0.05j, 0.7 - 0.3j, 1.3])
    def test_half_sum_is_assembled_from_the_public_parts(self, z):
        # the shared coefficient functions, contour and G* sum give the
        # same bits as the two inhom_scorer calls and pcf_U_neg
        u, m, R = 37.7, 3, 1
        cv = inhom.connect_inhom_pcfm(u, z, m, R)
        u01 = inhom.inhom_scorer(u, z, m, R, "PCF-", (0, 1))
        u03 = inhom.inhom_scorer(u, z, m, R, "PCF-", (-1, 0))
        uneg = tp.pcf_U_neg(u, z, m)
        lam = inhom.lambda_R(u / 2.0, R, "-a").value.to_complex().real
        val = (u01.value + u03.value) * 0.5 + \
            ScaledComplex.from_complex(complex(lam)) * uneg.value
        assert cv.value.mantissa == val.mantissa
        assert cv.value.log_scale == val.log_scale
        assert cv.rel_bound == 3.0 * max(u01.rel_bound, u03.rel_bound,
                                         uneg.rel_bound)

    def test_weber_left_real(self):
        # the reflection-assembled value is real on the real axis
        v = inhom.inhom_series(20.0, -1.5, 3, 1, "weber-", (0, 3)).value.to_complex()
        assert abs(v.imag) < 1e-10 * max(abs(v.real), 1e-30)

    def test_weber_left_parity_consistency(self):
        # at real z the reflection assembly differs from the direct series
        # only by the exponentially small Stokes terms
        u, R, n = 20.0, 0, 3
        right = inhom.inhom_series(u, 1.5, n, R, "weber-", (0, 3)).value.to_complex()
        left = inhom.inhom_series(u, -1.5, n, R, "weber-", (0, 3)).value.to_complex()
        assert left == pytest.approx(right, rel=1e-4)

    def test_stokes_dominance(self):
        # in the second-quadrant excluded region the reflected solution term
        # is exponentially dominated by the Stokes term
        u, R, n = 20.0, 0, 3
        z = -2.1 + 2.1j
        base = inhom.inhom_series(u, -z, n, R, "weber-", (0, 3)).value
        al = inhom.alpha_R(u, R).value
        w0 = lg.weber_neg_Wj(u, -z, 3, 0)
        stokes = al * ((-1) ** (R + 1) - 1j * math.exp(-math.pi * u / 2)) * w0.value
        assert stokes.log_abs - base.log_abs > 10.0

    def test_c_constants(self):
        u = 20.0
        assert inhom.c0_const(u) == pytest.approx(-1j * math.exp(-math.pi * u / 2))
        c3 = inhom.c3_const(u).to_complex()
        expect = math.sqrt(2 * math.pi) * cmath.exp(1j * math.pi / 4) * \
            math.exp(-math.pi * u / 4) / cmath.exp(complex(loggamma(0.5 - 0.5j * u)))
        assert c3 == pytest.approx(expect, rel=1e-12)

    def test_gamma_W_consistency(self):
        # the two Weber Scorer solutions differ by a multiple of a
        # homogeneous solution: second differences annihilate the forcing
        u, R, m = 20.0, 0, 2
        z = 1.4
        h = 1e-3
        f = lambda t: (inhom.inhom_scorer(u, t, m, R, "WEB+", (-1, 0)).value.to_complex()
                       - inhom.inhom_scorer(u, t, m, R, "WEB+", (0, 1)).value.to_complex())
        lap = (f(z + h) - 2 * f(z) + f(z - h)) / h ** 2
        assert abs(lap - u * u * (1 - z * z) * f(z)) < 1e-2 * max(abs(lap), 1.0)


def test_array_evaluation_of_G_matches_scalar_calls():
    g = lg.get_tables().G_rows(2, "plus")[0]
    z = np.array([0.5 + 0.3j, -1.2 + 2.0j, 2.5 - 0.7j])
    assert evaluate(g, z, 3, 4)[0] == pytest.approx(
        [evaluate(g, complex(v), 3, 4)[0] for v in z], rel=1e-14)


def test_bound_integrals_do_not_depend_on_the_batching(monkeypatch):
    # the two-segment PCF- estimate path of z = 0.5+0.1j then spans two
    # batches, as does every segment run of the traced inhom leg
    args = (20.0, -1.5 + 1.5j, 3, 1, "plus", (0, 2))
    est_args = (20.0, 0.5 + 0.1j, 3)
    whole = inhom._bound_integrals(*args), tp._ab_est_err(*est_args)
    monkeypatch.setattr(quadrature, "BATCH_SEGMENTS", 1)
    # the estimate's u-free moments are cached per point: rebuild them, and
    # leave no entry of the one-segment batching behind
    tp._est_moments.cache_clear()
    batched = inhom._bound_integrals(*args), tp._ab_est_err(*est_args)
    tp._est_moments.cache_clear()
    assert batched == pytest.approx(whole, rel=1e-13)


ENTRIES = {
    "inhom_scorer": lambda u, z, m=2, R=0: inhom.inhom_scorer(u, z, m, R),
    "connect_inhom_pcfm": lambda u, z, m=2, R=0: inhom.connect_inhom_pcfm(u, z, m, R),
    "inhom_series": lambda u, z, n=3, R=0: inhom.inhom_series(u, z, n, R),
}


@pytest.mark.parametrize("u,z,exc", [
    (0.0, 1.05, DomainError), (-5.0, 1.05, DomainError),
    (math.nan, 1.05, ArgumentError), (math.inf, 1.05, ArgumentError),
    (20.0, complex(math.nan, 0.0), ArgumentError),
    (20.0, complex(math.inf, 0.0), ArgumentError),
    (20.0 + 1j, 1.05, ArgumentError), ("20", 1.05, ArgumentError),
    (20.0, "1.05", ArgumentError)])
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_typed_errors_for_bad_inputs(entry, u, z, exc):
    with pytest.raises(exc):
        ENTRIES[entry](u, z)


# the Scorer forms need u >= 5: below it inhom_scorer answered 2.6e19 as
# its relative figure at (1, 2.1)
@pytest.mark.parametrize("u", [1.0, 2.0, 4.9])
@pytest.mark.parametrize("z", [1.05, 2.1])
@pytest.mark.parametrize("entry", ["inhom_scorer", "connect_inhom_pcfm"])
def test_small_u_is_a_domain_error(entry, z, u):
    with pytest.raises(DomainError):
        ENTRIES[entry](u, z)


# at large u the Airy and Scorer arguments u^{2/3} zeta grow until their
# exponentials leave the double range; there the entries refuse, typed
@pytest.mark.parametrize("u,z", [(3000.0, 1.5), (1e4, 1.5), (2000.0, 1 + 1j),
                                 (1e4, 1.1 + 0.1j), (1e5, 0.9)])
@pytest.mark.parametrize("entry", ["inhom_scorer", "connect_inhom_pcfm"])
def test_scorer_entries_at_large_u_give_a_value_or_a_typed_error(entry, u, z):
    _assert_value_or_typed_error(entry, u, z)


# at small u the exponents of the Scorer integrand on the ring can leave
# the double range; they are checked before they are used
@pytest.mark.parametrize("u,z", [(0.5, 2.1), (0.5, 1 + 0.9j), (1.0, 2.1),
                                 (1.0, 0.2j)])
@pytest.mark.parametrize("entry", ["inhom_scorer", "connect_inhom_pcfm"])
def test_scorer_entries_at_small_u_give_a_value_or_a_typed_error(entry, u, z):
    _assert_value_or_typed_error(entry, u, z)


def _assert_value_or_typed_error(entry, u, z):
    try:
        cv = ENTRIES[entry](u, z, 3)
    except ParcylError:
        return
    assert cmath.isfinite(cv.value.mantissa) and math.isfinite(cv.value.log_scale)
    assert math.isfinite(cv.rel_bound)


# supported: m = 0..4 for the Scorer forms, n = 1..12 for the series
@pytest.mark.parametrize("entry,order", [
    ("inhom_scorer", -1), ("inhom_scorer", 5), ("inhom_scorer", 2.5),
    ("connect_inhom_pcfm", -1), ("connect_inhom_pcfm", 5),
    ("connect_inhom_pcfm", 2.5),
    ("inhom_series", 0), ("inhom_series", 13), ("inhom_series", 99),
    ("inhom_series", 2.5)])
def test_typed_errors_for_bad_orders(entry, order):
    with pytest.raises(OrderError):
        ENTRIES[entry](20.0, 2.0 if entry == "inhom_series" else 1.05, order)


# supported: integer forcing degrees R = 0..R_MAX
@pytest.mark.parametrize("R", [-1, 1.5, 17])
@pytest.mark.parametrize("entry", [*sorted(ENTRIES), "hyp_terminating"])
def test_typed_errors_for_bad_forcing_degrees(entry, R):
    with pytest.raises(OrderError, match="forcing degree"):
        if entry == "hyp_terminating":
            inhom.hyp_terminating(R, 2.5)
        else:
            ENTRIES[entry](20.0, 2.0 if entry == "inhom_series" else 1.05, R=R)
