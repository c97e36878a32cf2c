"""Oracle self-consistency: Wronskians, defining ODEs, method agreement."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from parcyl import inhom, oracle
from parcyl.coeffs import R_MAX
from parcyl.errors import AccuracyError, DomainError, OrderError
from parcyl.scaled import ScaledComplex


class TestHomogeneous:
    def test_wronskian_reflection(self):
        # W{U(a,z), U(a,-z)} = sqrt(2 pi)/Gamma(a+1/2) at a=10, z=1
        a, z = 10.0, 1.0
        u_p = oracle.oracle_U(a, z).to_complex()
        du_p = oracle.oracle_U_prime(a, z).to_complex()
        u_m = oracle.oracle_U(a, -z).to_complex()
        # d/dX[U(a,-X)] = -U'(a,-X), U' by the exact ODE-side derivative
        g_prime = -oracle.oracle_U_prime(a, -z).to_complex()
        from scipy.special import gamma
        wr = u_p * g_prime - du_p * u_m
        assert abs(wr - math.sqrt(2 * math.pi) / gamma(a + 0.5)) < 1e-8

    def test_recessive_normalization(self):
        # U(a,z) z^{a+1/2} e^{z^2/4} -> 1 for large z
        a, z = 2.0, 30.0
        v = oracle.oracle_U(a, z).value
        scale = ScaledComplex.from_log((a + 0.5) * math.log(z) + z * z / 4.0)
        assert abs((v * scale).to_complex() - 1.0) < 0.01

    def test_rotation_wronskian(self):
        # W{U(a,z), U(-a,-iz)} = e^{-(a/2-1/4) pi i}
        a, z = 3.0, 0.7
        h = 1e-5
        u1 = oracle.oracle_U(a, z).to_complex()
        d1 = oracle.oracle_U_prime(a, z).to_complex()
        u2 = oracle.oracle_U(-a, -1j * z).to_complex()
        # Wronskian in z: the second solution is Y(z) = U(-a,-iz), so the
        # derivative needed is dY/dz (finite-differenced directly)
        d2 = (oracle.oracle_U(-a, -1j * (z + h)).value
              - oracle.oracle_U(-a, -1j * (z - h)).value).to_complex() / (2 * h)
        wr = u1 * d2 - d1 * u2
        assert wr == pytest.approx(cmath.exp(-(0.5 * a - 0.25) * 1j * math.pi),
                                   rel=1e-7)

    def test_ode_residual(self):
        a = 10.0
        h = 1e-3
        for z in (1.5, 3.0):
            vals = [oracle.oracle_U(a, z + k * h).to_complex() for k in (-1, 0, 1)]
            lap = (vals[0] - 2 * vals[1] + vals[2]) / (h * h)
            assert abs(lap - (z * z / 4 + a) * vals[1]) < 1e-6 * abs(lap)

    def test_quadrature_vs_ode_sweep(self):
        # the contour sweep (ODE) against direct quadrature at interior points
        line = oracle.UContour(10.0, 0.0, 16.0)
        for x in (12.0, 5.0, 1.0):
            direct = oracle.oracle_U(10.0, x).value
            swept = line(x)
            assert abs((swept / direct).to_complex() - 1) < 1e-7

    def test_linearity(self):
        q = oracle.VARIANT_Q["PCF+"](10.0)
        y0, d0 = oracle._u_origin_data(10.0)
        y1, _ = oracle.ode_polyline(q, None, [0.0, -2.0], y0, d0)
        y2, _ = oracle.ode_polyline(q, None, [0.0, -2.0], y0 * 2.0, d0 * 2.0)
        assert abs((y2 / y1).to_complex() - 2.0) < 1e-12


class TestInhomOracle:
    def test_origin_identity(self):
        # U_R^{(0,2)}(a,0) = -(1+(-1)^R) (2 pi)^{-1/2} Gamma(a+1/2) U(a,0) h_R(a)
        # with h_R from quadrature of the integral of t^R U(a,t)
        a, R = 10.0, 2
        v = oracle.oracle_inhom(a, 0.0, R, (0, 2)).to_complex()
        import numpy as np
        x, w = np.polynomial.legendre.leggauss(80)
        hr = 0.0
        for lo, hi in zip(np.linspace(0, 20, 21)[:-1], np.linspace(0, 20, 21)[1:]):
            t = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
            ww = 0.5 * (hi - lo) * w
            hr += sum(float(wi) * float(ti) ** R *
                      oracle.oracle_U(a, float(ti)).to_complex().real
                      for ti, wi in zip(t, ww))
        from scipy.special import gamma
        u0 = oracle.oracle_U(a, 0.0).to_complex().real
        expect = -(1 + (-1) ** R) / math.sqrt(2 * math.pi) * gamma(a + 0.5) * u0 * hr
        assert v.real == pytest.approx(expect, rel=1e-7)

    def test_odd_R_zero_at_origin(self):
        v = oracle.oracle_inhom(10.0, 0.0, 3, (0, 2)).to_complex()
        scale = abs(oracle.oracle_inhom(10.0, 0.5, 3, (0, 2)).to_complex())
        assert abs(v) < 1e-9 * scale

    @pytest.mark.parametrize("a, z, R, pair", [(10.0, 1.0, 1, (0, 2)),
                                               (-10.0, 1.5, 1, (0, 1)),
                                               (-3.0, 1.0, 0, (0, 1))])
    def test_inhom_ode_residual(self, a, z, R, pair):
        # the VoP value satisfies the forced equation via second differences;
        # their truncation error h^2 y''''/12 is 2e-6 |y| at a = -10
        h = 5e-4
        ovs = [oracle.oracle_inhom(a, z + k * h, R, pair) for k in (-1, 0, 1)]
        vals = [ov.to_complex() for ov in ovs]
        lap = (vals[0] - 2 * vals[1] + vals[2]) / (h * h)
        resid = lap - (z * z / 4 + a) * vals[1] - z ** R
        assert abs(resid) < 1e-5 * max(abs(vals[1]), 1.0)
        if pair == (0, 1):
            # both moments of the negative-parameter pair are line sweeps
            assert max(ov.est_acc for ov in ovs) <= 1e-12

    def test_vop_vs_ode_propagation(self):
        # propagate the forced equation between two VoP values (short leg,
        # so homogeneous contamination stays controlled)
        a, R = 10.0, 0
        z0, z1 = 0.6, 1.1
        v0 = oracle.oracle_inhom(a, z0, R, (0, 2)).value
        # derivative of (2.36) at z0: -Gamma/sqrt(2pi) [U' J- - U'(-z) J+]
        h = 1e-5
        d0 = (oracle.oracle_inhom(a, z0 + h, R, (0, 2)).value
              - oracle.oracle_inhom(a, z0 - h, R, (0, 2)).value) * (1 / (2 * h))
        q = oracle.VARIANT_Q["PCF+"](a)
        y1, _ = oracle.ode_polyline(q, R, [z0, z1], v0, d0)
        ref = oracle.oracle_inhom(a, z1, R, (0, 2)).value
        assert abs((y1 / ref).to_complex() - 1) < 1e-7


class TestWeberOracle:
    def test_origin_wronskian(self):
        # W{W(a,x), W(a,-x)} = 1 (DLMF normalization) -> -2 W(a,0) W'(a,0) = 1
        for a in (10.0, -10.0, 3.0):
            W, Wp = oracle.weber_origin_data(a)
            assert -2.0 * W * Wp == pytest.approx(1.0, rel=1e-12)

    def test_sweep_consistency(self):
        # the table past the turning point, swept inward from its seed,
        # against mpmath
        tab = oracle.weber_ode_real(10.0, [9.0, 14.0])
        with mpmath.workdps(60):
            for x in (9.0, 14.0):
                assert float(abs(tab[x][0] / mpmath.pcfw(10.0, x) - 1)) < 1e-13

    def test_refusal(self):
        with pytest.raises(AccuracyError):
            # cosine representation deep in the recessive zone, complex z
            oracle.oracle_U(-10.0, 12.0 + 0.4j)

    @pytest.mark.parametrize("a", [10.0, -10.0, 3.0])
    def test_real_axis_sweep_against_mpmath(self, a):
        # W and W' left of 0 and, for a <= 0, right of it come from the
        # exact origin data; for a > 0 the right side comes from a seed
        # of the swept route beyond the turning point
        xs = [-6.0, -2.5, 1.0, 4.0, 9.0]
        tab = oracle.weber_ode_real(a, xs)
        with mpmath.workdps(60):
            for x in xs:
                tol = 1e-13 if (a > 0 and x > 0) else 1e-12
                W, Wp = tab[x]
                ref = mpmath.pcfw(a, x)
                dref = mpmath.diff(lambda s: mpmath.pcfw(a, s), x)
                assert float(abs(W / ref - 1)) < tol
                assert float(abs(Wp / dref - 1)) < tol


class TestOdeOracle:
    def test_homogeneous_matches_quadrature(self):
        a, z = 3.0, 1.5
        ov = oracle.oracle_ode("PCF+", a, None, [0.0, z])
        ref = oracle.oracle_U(a, z)
        assert abs((ov.value / ref.value).to_complex() - 1) < 1e-9

    def test_weber_path_refinement(self):
        a, x = 5.0, 2.0
        v1 = oracle.oracle_ode("WEB+", a, None, [0.0, x])
        v2 = oracle.oracle_ode("WEB+", a, None, [0.0, 0.7, 1.3, x])
        assert abs((v1.value / v2.value).to_complex() - 1) < 1e-10

    def test_forced_equation(self):
        a, R, z = 10.0, 1, 1.0
        seed = oracle.oracle_inhom(a, 0.4, R, (0, 2)).value
        h = 1e-5
        d0 = (oracle.oracle_inhom(a, 0.4 + h, R, (0, 2)).value
              - oracle.oracle_inhom(a, 0.4 - h, R, (0, 2)).value) \
            * (1 / (2 * h))
        ov = oracle.oracle_ode("PCF+", a, R, [0.4, z], (seed, d0))
        ref = oracle.oracle_inhom(a, z, R, (0, 2))
        assert abs((ov.value / ref.value).to_complex() - 1) < 1e-7

    def test_turning_point_clearance(self):
        from parcyl.errors import StiffnessError
        with pytest.raises(StiffnessError):
            oracle.oracle_ode("PCF-", 10.0, None, [0.0, 0.99, 2.0],
                              (oracle._u_origin_data(-10.0)))


def _mp_line_err(line, x, ref_a):
    with mpmath.workdps(40):
        v = line(x)
        got = mpmath.mpc(v.mantissa.real, v.mantissa.imag) * \
            mpmath.exp(v.log_scale)
        return float(abs(got / mpmath.pcfu(ref_a, mpmath.mpc(x, line.y)) - 1))


class TestLineSweeps:
    # the lines of a (0,2) value at z on each line, T = _tail_start(a, 0)
    @pytest.mark.parametrize("a", [10.0, 150.0])
    @pytest.mark.parametrize("y", [0.0, 0.3, 1.9])
    def test_u_contour_against_mpmath(self, a, y):
        T = oracle._tail_start(a, 0.0)
        line = oracle.UContour(a, y, T)
        for x in (-0.9 * T, -0.5 * T, -3.3, 0.0, 1.7, 0.5 * T, 0.9 * T):
            assert _mp_line_err(line, x, a) < 1e-12, x

    @pytest.mark.parametrize("a", [10.0, 150.0])
    @pytest.mark.parametrize("y", [0.0, 0.3, 1.9])
    def test_u_neg_line_against_mpmath(self, a, y):
        # right of the anchor at x = 0 the sweep is stable.  Left of it,
        # off the axis, the two oscillatory solutions trade dominance and
        # rounding grows by about e^{2 |y| sqrt(a)}: only the axis is
        # checked there
        T = oracle._tail_start(a, 0.0)
        line = oracle.UNegLine(a, T, y)
        xs = [0.0, 1.7, 0.5 * T, 0.9 * T]
        if y == 0.0:
            xs += [-0.9 * T, -0.5 * T, -3.3]
        for x in xs:
            assert _mp_line_err(line, x, -a) < 1e-12, x

    def test_both_resolutions_sweep_independently(self):
        a, y, T = 10.0, 0.3, 20.0
        coarse, fine = (oracle.UContour(a, y, T, rho) for rho in oracle.RHOS)
        assert len(coarse._x) != len(fine._x)
        assert coarse(1.0).mantissa != fine(1.0).mantissa

    @pytest.mark.parametrize("a", [10.0, 100.0])
    @pytest.mark.parametrize("y", [0.5, 1.9])
    def test_each_resolution_within_the_estimate(self, a, y):
        # the estimate of a swept value is the distance between the two
        # resolutions; both start from one quadrature seed at T + iy, whose
        # rounding floor that distance cannot see, so it is added
        T = oracle._tail_start(a, 0.0)
        lines = [oracle.UContour(a, y, T, rho) for rho in oracle.RHOS]
        seed = max(oracle._u_quad(b, complex(T, y), 96, 22)[1]
                   for b in (a, a + 1.0))
        for x in (-0.8 * T, -0.4 * T, 0.0, 0.4 * T, 0.8 * T):
            values = [line(x) for line in lines]
            est = oracle._certify(*values, "ode").est_acc
            with mpmath.workdps(30):
                ref = mpmath.pcfu(a, mpmath.mpc(x, y))
                for v in values:
                    got = mpmath.mpc(v.mantissa) * mpmath.exp(v.log_scale)
                    assert abs(got / ref - 1) <= est + seed, x

    @pytest.mark.parametrize("a", [10.0, 100.0])
    def test_each_step_ends_where_the_next_begins(self, a):
        # each stored series, summed exactly at the next step's start (the
        # lines run leftwards) and rescaled by the exact power of two between
        # the two steps' scales, gives that step's (y, y') to 1e-15 of its
        # size max(|y|, |y'|)
        T = oracle._tail_start(a, 0.0)
        for rho in oracle.RHOS:
            line = oracle.UContour(a, 0.5, T, rho)
            with mpmath.workdps(30):
                for k in range(1, len(line._x)):
                    h = mpmath.mpf(line._x[k - 1] - line._x[k])
                    c = [mpmath.mpc(v) for v in line._coef[k].tolist()]
                    scale = mpmath.ldexp(1, round((line._log[k] - line._log[k - 1])
                                                  / math.log(2.0)))
                    y = mpmath.polyval(c[::-1], h) * scale
                    d = mpmath.polyval([j * c[j] for j in range(len(c) - 1, 0, -1)],
                                       h) * scale
                    y0, d0 = line._coef[k - 1][:2].tolist()
                    size = max(abs(y0), abs(d0))
                    assert max(abs(y - y0), abs(d - d0)) <= 1e-15 * size, (rho, k)


class TestMirroredLines:
    # (a, y, T); y = 15.76 and T = 32 are the line of a verify op at u = 20
    @pytest.mark.parametrize("a, y, T", [(10.0, 0.5, 16.0), (3.5, 2.3, 16.0),
                                         (10.0, 15.76, 32.0)])
    def test_line_at_minus_y_is_the_conjugate(self, a, y, T):
        up, down = oracle.UContour(a, y, T), oracle.UContour(a, -y, T)
        for x in (-T, -0.7 * T, -1.3, 0.0, 2.0 / 3.0, 0.45 * T, T):
            v, w = up(x), down(x)
            assert (w.mantissa, w.log_scale) == (v.mantissa.conjugate(),
                                                 v.log_scale)

    def test_one_sweep_per_mirrored_pair(self):
        # one sweep per resolution serves both lines Im t = +-y
        oracle._u_contour_cached.cache_clear()
        oracle.oracle_inhom(10.0, 1.0 + 0.3j, 2, (0, 2))
        assert oracle._u_contour_cached.cache_info().misses == len(
            oracle.VOP_RESOLUTIONS)


class TestOracleRefusals:
    def test_far_seed_does_not_overflow(self):
        # the sweep's seed at T = 60 is about e^-900, so e^-l is past the
        # float range; the homogeneous line sweep never needs it
        z = 8.0
        ov = oracle.oracle_inhom(10.0, math.sqrt(40.0) * z, 0, (0, 2))
        cv = inhom.inhom_series(20.0, z, 3, 0, "plus", (0, 2))
        err = abs((cv.value / ov.value).to_complex() - 1.0)
        assert err <= cv.rel_bound + ov.est_acc

    def test_forced_sweep_of_a_tiny_state(self):
        q = oracle.VARIANT_Q["PCF+"](10.0)
        y0 = ScaledComplex.from_log(-900.0)
        d0 = y0 * -3.0
        y, _ = oracle.ode_polyline(q, None, [0.0, 1.0], y0, d0)
        assert y.log_scale < -899.0
        with pytest.raises(AccuracyError):
            oracle.ode_polyline(q, 2, [0.0, 1.0], y0, d0)

    def test_ill_conditioned_line_is_refused(self):
        # a verify input (u = 20) on the anti-Stokes ray: the moments along
        # Im t = -15.76 cancel by many orders, and the two independent
        # sweeps of the two resolutions differ by O(1); a shared sweep gave
        # an estimate of 5e-14 and a value off by O(1)
        z = math.sqrt(40.0) * (-2.4845496989260685 - 2.491701913164304j)
        with pytest.raises(AccuracyError):
            oracle.oracle_inhom(10.0, z, 0, (0, 2))

    def test_unknown_pair(self):
        with pytest.raises(DomainError, match="no oracle route"):
            oracle.oracle_inhom(10.0, 1.0, 0, (1, 2))

    @pytest.mark.parametrize("R", [-1, 1.5])
    def test_forcing_degree_is_a_nonnegative_integer(self, R):
        with pytest.raises(OrderError):
            oracle.oracle_inhom(10.0, 1.5, R, (0, 2))

    def test_no_table_limit_on_the_forcing_degree(self):
        ov = oracle.oracle_inhom(10.0, 1.0 + 0.3j, R_MAX + 1, (0, 2))
        assert ov.est_acc < oracle.ACC_LIMIT


def _mp_u(a, Z, derivative=False):
    """U(a, Z), or U'(a, Z) by U' = -(Z/2) U(a, Z) - (a+1/2) U(a+1, Z),
    from mpmath at 40 digits."""
    with mpmath.workdps(40):
        Z = mpmath.mpc(Z.real, Z.imag)
        if not derivative:
            return mpmath.pcfu(a, Z)
        return -Z / 2 * mpmath.pcfu(a, Z) - (a + 0.5) * mpmath.pcfu(a + 1, Z)


def _mp_err(ov, ref):
    with mpmath.workdps(40):
        v = mpmath.mpc(ov.value.mantissa.real, ov.value.mantissa.imag) * \
            mpmath.exp(ov.value.log_scale)
        return float(abs(v / ref - 1))


def _left_lattice():
    # Re Z < 0, with points near the saddles' meeting points +-2i sqrt(a)
    for a in (5.0, 10.0, 50.0, 150.0):
        r = 2.0 * math.sqrt(a)
        for x in (-0.3, -0.5 * r, -1.2 * r):
            for y in (0.0, 0.5 * r, -0.9 * r, r, -r, 1.1 * r, -1.5 * r):
                yield a, complex(x, y)


class TestSaddlePath:
    @pytest.mark.parametrize("a, Z", list(_left_lattice()))
    def test_left_half_plane_within_its_estimate(self, a, Z):
        for fn, derivative in ((oracle.oracle_U, False),
                               (oracle.oracle_U_prime, True)):
            try:
                ov = fn(a, Z)
            except AccuracyError:
                continue
            assert ov.method == "quadrature"
            assert _mp_err(ov, _mp_u(a, Z, derivative)) <= ov.est_acc

    def test_most_of_the_lattice_answers(self):
        answered = 0
        for a, Z in _left_lattice():
            try:
                oracle.oracle_U(a, Z)
                answered += 1
            except AccuracyError:
                pass
        assert answered >= 80  # of 84; points by the meeting saddles refuse

    @pytest.mark.parametrize("fn", [oracle.oracle_U, oracle.oracle_U_prime])
    def test_no_ode_in_the_left_half_plane(self, monkeypatch, fn):
        def no_ode(*args, **kwargs):
            raise AssertionError("ODE sweep called")
        monkeypatch.setattr(oracle, "_sweep", no_ode)
        for Z in (-2.0 + 0.5j, -15.8 - 15.8j, -1.0):
            assert fn(10.0, Z).method == "quadrature"

    def test_cancelling_two_term_sums_refuse_or_are_right(self):
        # U- off the axis and V- at a verify input (u = 172.04): U at one of
        # +-iZ cancels near the meeting saddles.  The ODE continuation gave
        # U- an estimate of 1.9e-8, above ACC_LIMIT yet not refused, and a
        # true error of 1.3e-7
        u, z = 172.04, 1.074 + 0.067j
        a, Z = u / 2.0, math.sqrt(2.0 * u) * z
        with mpmath.workdps(40):
            zm = mpmath.mpc(Z.real, Z.imag)
            ph = mpmath.exp(1j * mpmath.pi * (a / 2 + 0.25))
            refs = {"U-": mpmath.pcfu(-a, zm),
                    "V-": (ph * mpmath.pcfu(a, 1j * zm)
                           + mpmath.conj(ph) * mpmath.pcfu(a, -1j * zm))
                    / mpmath.sqrt(2 * mpmath.pi)}
        for name, fn in (("U-", lambda: oracle.oracle_U(-a, Z)),
                         ("V-", lambda: oracle.oracle_V_neg(a, Z))):
            try:
                ov = fn()
            except AccuracyError:
                continue
            assert _mp_err(ov, refs[name]) <= ov.est_acc, name

    def test_combined_estimate_sees_cancellation(self):
        one = ScaledComplex.from_complex(1.0)
        ov = oracle._combine([(one, 1e-12), (one * -0.999, 1e-12)], "quadrature")
        assert ov.est_acc == pytest.approx(1.999e-12 / 0.001)
        with pytest.raises(AccuracyError):
            oracle._combine([(one, 1e-12), (one * (-1.0 + 1e-6), 1e-12)],
                            "quadrature")


_ROT = cmath.exp(-0.25j * math.pi)
#: the swept route's inputs: W0 = U(-iu/2, sqrt(2u) z e^{-i pi/4}) at u = 20,
#: U(10i, x e^{-i pi/4}) of the Weber functions W(10, +-x), and U(-a, x)
#: in the recessive zone of the real axis
SWEPT = ([(-10j, math.sqrt(40.0) * z * _ROT)
          for z in (0.5 - 1.5j, 0.2 - 1j, 1 - 1j, 0.3 - 2.5j, 2.5 - 2.5j,
                    0.1 - 0.5j)]
         + [(10j, x * _ROT) for x in (1.0, 3.0, 9.0, 12.3)]
         + [(-a, complex(x)) for a, xs in ((10.0, (7.0, 9.0, 12.0, 20.0)),
                                           (75.0, (18.0, 25.0)),
                                           (150.0, (26.0, 40.0)))
            for x in xs])


@pytest.mark.parametrize("a, Z", SWEPT)
def test_swept_route_within_its_estimate(a, Z):
    # at 3 e^{-i pi/4} the vertical leg shrinks U against the other
    # solution, and the two step lengths' distance alone under-reads
    ov = oracle.oracle_U(a, Z)
    assert ov.method == "ode"
    assert _mp_err(ov, _mp_u(a, Z)) <= ov.est_acc


# ----------------------------------------------------------------------
# the oracle's own lnGamma, and its one array pass per path
# ----------------------------------------------------------------------

def _log_gamma_arguments():
    """Every kind of argument the oracle takes lnGamma at: a+1/2 of U for
    a in [0.1, 151], the origin data's 1/4 + a/2 and 3/4 + a/2 for a in
    [-150, -1] away from the poles, 1/2 + iu/2 of the Weber phase for u up
    to 300, and a complex lattice with |Re|, |Im| <= 150."""
    for a in np.linspace(0.1, 151.0, 400):
        yield complex(a + 0.5)
    for a in np.linspace(-150.0, -1.0, 300):
        for x in (0.25 + a / 2, 0.75 + a / 2):
            if abs(x - round(x)) > 1e-3:
                yield complex(x)
    for u in np.linspace(0.05, 300.0, 300):
        yield complex(0.5, u / 2)
    for x in np.linspace(-150.0, 150.0, 41):
        for y in np.linspace(-150.0, 150.0, 40):  # an even count skips y = 0
            yield complex(x, y)


def test_log_gamma_within_the_error_it_charges():
    # the U rounding floor charges lnGamma(a+1/2) its ulps figure; the
    # worst err / (eps ulps) here was 0.57
    worst = 0.0
    with mpmath.workdps(30):
        for z in _log_gamma_arguments():
            lg, ulps = oracle._log_gamma_ulps(z)
            ref = mpmath.loggamma(mpmath.mpc(z.real, z.imag))
            err = float(abs(mpmath.mpc(lg.real, lg.imag) - ref))
            worst = max(worst, err / (oracle.EPS * ulps))
    assert worst <= 1.0
    assert oracle._log_gamma(-2.0) == complex(math.inf)


def _sweep_by_step(q, R, z0, z1, y, d, rho):
    """y and y' at z1 of `oracle._sweep` one step at a time, on its steps:
    each step's series from the state by the recurrence, the forcing
    scaled by r = e^-l, summed by Horner at the next step's start, and the
    state rescaled by a power of two; the reference for its array passes."""
    _, _, (zc, log, _) = oracle._sweep(q, R, z0, z1, y, d, rho, dense=True)
    q0, q1, q2 = q
    base = log[0]
    yv, dv = ((v * ScaledComplex.from_log(-base)).to_complex() for v in (y, d))
    k2 = 0
    for z, end in zip(zc.tolist(), zc[1:].tolist() + [complex(z1)]):
        p0, p1 = q0 + z * (q1 + q2 * z), q1 + 2.0 * q2 * z
        r = math.exp(-(base + k2 * math.log(2.0)))
        f = [0.0] * (oracle.ORDER + 1)
        for k in range(R + 1 if R is not None else 0):
            f[k] = r * math.comb(R, k) * z ** (R - k)
        c = [yv, dv]
        for k in range(oracle.ORDER - 1):
            c.append((p0 * c[k] + (p1 * c[k - 1] if k >= 1 else 0.0)
                      + (q2 * c[k - 2] if k >= 2 else 0.0) + f[k])
                     / ((k + 1) * (k + 2)))
        h = end - z
        yv = dv = 0j
        for k in range(oracle.ORDER, 0, -1):
            yv, dv = yv * h + c[k], dv * h + k * c[k]
        yv = yv * h + c[0]
        shift = math.frexp(max(abs(yv), abs(dv)))[1]
        yv, dv, k2 = yv * 2.0 ** -shift, dv * 2.0 ** -shift, k2 + shift
    scale = ScaledComplex.from_log(base + k2 * math.log(2.0))
    return ScaledComplex.from_complex(yv) * scale, ScaledComplex.from_complex(dv) * scale


@pytest.mark.parametrize("variant, a, R, z0, z1", [
    ("PCF+", 10.0, None, 16.0 + 0.5j, -16.0 + 0.5j),
    ("PCF-", 30.0, None, 0.0, 3.0j),
    ("WEB-", 10.0, 2, 0.5, 2.0 + 2.0j),
    ("PCF+", 10.0, 3, 0.0, -2.0 + 1.0j)])
def test_sweep_matches_the_step_by_step_reference(variant, a, R, z0, z1):
    # the array passes reorder the sums of the scalar loop: the states at
    # z1 agree to 1e-13 of their size
    q = oracle.VARIANT_Q[variant](a)
    y0, d0 = oracle._u_origin_data(1.5)
    for rho in oracle.RHOS:
        got = oracle._sweep(q, R, z0, z1, y0, d0, rho)[:2]
        ref = _sweep_by_step(q, R, z0, z1, y0, d0, rho)
        size = max(v.abs().log_abs for v in ref)
        for g, r in zip(got, ref):
            assert (g - r).abs().log_abs - size <= math.log(1e-13)


def _path_integral_by_panel(a, c, ea, s_max, n, npanel, tail=()):
    """The integral of `oracle._path_integral` one Gauss panel at a time,
    each panel summed on its own peak, the reference for its array pass."""
    x, w = oracle.gauss(n)

    def panels(edges):
        for lo, hi in zip(edges[:-1], edges[1:]):
            yield 0.5 * (hi - lo) * x + 0.5 * (hi + lo), 0.5 * (hi - lo) * w

    def legs():
        for v, ww in panels(np.linspace(0.0, s_max ** 0.25, npanel + 1) ** 2):
            yield ea * v * v, ww, np.log(2.0 * v * ea)
        start = ea * s_max
        for end in tail:
            for s, ww in panels(np.linspace(0.0, 1.0, npanel + 1)):
                yield start + (end - start) * s, ww, cmath.log(end - start)
            start = end

    logs, vals = [], []
    for t, ww, log_dt in legs():
        logf = (a - 0.5) * np.log(t) - 0.5 * t * t + c * t + log_dt
        m = float(np.max(logf.real))
        if m >= -745.0:
            vals.append(complex(np.sum(ww * np.exp(logf - m))))
            logs.append(m)
    top = max(logs)
    total = sum(v * math.exp(m - top) for v, m in zip(vals, logs))
    return ScaledComplex.from_complex(total) * ScaledComplex.from_log(top)


@pytest.mark.parametrize("a, Z", [(10.0, 1.5 + 0.5j), (150.0, 20.0 - 5.0j),
                                  (10.0, -2.0 + 0.5j), (50.0, -4.0 - 12.0j),
                                  (-10.0, 3.0 + 0.1j)])
def test_path_integral_matches_the_panel_loop(monkeypatch, a, Z):
    # rays for a > 0, saddle paths at Re Z < 0 and the cosine rays of
    # a < 0: the array pass sums in another order, so each call may move
    # by its own rounding figure eps err, and no more
    ratios = []
    array_pass = oracle._path_integral

    def both(*args):
        v, err = array_pass(*args)
        ref = _path_integral_by_panel(*args)
        ratios.append(abs((v / ref).to_complex() - 1.0) / (oracle.EPS * err))
        return v, err

    monkeypatch.setattr(oracle, "_path_integral", both)
    oracle.oracle_U(a, Z)
    assert ratios and max(ratios) <= 1.0


def _ode_polyline_value():
    # forced sweep over two segments, from the exact origin data
    y0, d0 = oracle._u_origin_data(10.0)
    y, _ = oracle.ode_polyline(oracle.VARIANT_Q["PCF+"](10.0), 2,
                               [0.0, -2.0, -2.0 + 1.0j], y0, d0)
    return y, 0.0


def _value(ov):
    return ov.value, ov.est_acc


#: every route of the oracle: mantissa, log_scale and est_acc as 17-digit
#: strings.  The quadrature routes were recorded before the panel rules
#: were merged into one implementation; U and U' at Re z < 0, U a<0 off
#: axis and V- when the saddle-path quadrature came in; and the swept
#: routes (the lines, U a<0 recessive, ode_polyline and every variation-of-
#: parameters value) with the Taylor-series sweeps, each nearer to mpmath
#: than before where mpmath has a reference.  Every route that reaches a
#: path quadrature or lnGamma was recorded again when the quadrature became
#: one array pass per path and lnGamma the oracle's own, every swept
#: route when the sweep became per-step transition matrices, and U complex
#: a, U a<0 recessive and inhom (0,1) a<0 when they moved to the swept U
#: route (CHANGES.md lists each move)
PINNED = [
    ("U a>0 quadrature", lambda: _value(oracle.oracle_U(10.0, 1.5 + 0.5j)),
     "-0.13570054785336627", "-2.1732634670934856", "-12.99971835758268",
     "1.8653332097461409e-14"),
    ("U complex a", lambda: _value(oracle.oracle_U(3.0 + 2.0j, 1.5)),
     "-0.66807308609254967", "-1.1638288589305008", "-3.6284502791396136",
     "1.3402990600067226e-14"),
    ("U Re z<0", lambda: _value(oracle.oracle_U(10.0, -2.0 + 0.5j)),
     "-0.12351693470391301", "-1.6355878740693686", "-1.5376690210948976",
     "1.8893852336097315e-14"),
    ("U a<0 recessive", lambda: _value(oracle.oracle_U(-10.0, 12.0)),
     "2.5530490017782901", "-1.563291644047064e-15", "-13.628173673761189",
     "2.928921989864006e-14"),
    ("U a<0 cosine", lambda: _value(oracle.oracle_U(-10.0, 3.0 + 0.1j)),
     "1.526469864260372", "-0.21296328288760297", "5.8363962634500997",
     "1.542928817223893e-14"),
    ("U a<0 off axis", lambda: _value(oracle.oracle_U(-10.0, 2.0 + 2.0j)),
     "-0.99094343817248565", "1.5332341840255197", "11.106759792185162",
     "2.0300076568562897e-14"),
    ("U' quadrature", lambda: _value(oracle.oracle_U_prime(10.0, 1.5)),
     "-2.3983988024986012", "0", "-11.927490336760645",
     "1.6577338271140079e-14"),
    ("U' Re z<0", lambda: _value(oracle.oracle_U_prime(10.0, -1.5 + 0.3j)),
     "-1.0179992930482582", "1.5162688516161305", "-2.0910263427011415",
     "2.8530725453823047e-14"),
    ("V-", lambda: _value(oracle.oracle_V_neg(10.0, 1.5 + 0.5j)),
     "1.21503289866034", "-1.0962798566014162", "-7.2926383233462797",
     "5.4688190571757312e-14"),
    ("inhom (0,2) a>0",
     lambda: _value(oracle.oracle_inhom(10.0, 1.0 + 0.3j, 2, (0, 2))),
     "-0.90510062279310732", "-0.47364322335425946", "-2.1411236071725241",
     "4.3503056443902384e-15"),
    ("inhom (0,1) a>0",
     lambda: _value(oracle.oracle_inhom(10.0, 1.0 + 0.3j, 1, (0, 1))),
     "-1.0540603074119903", "-1.4787554427946241", "-2.1472213924907777",
     "6.7857554809158299e-12"),
    ("inhom (0,2) a<0",
     lambda: _value(oracle.oracle_inhom(-10.0, 1.0, 2, (0, 2))),
     "-1.0853936121057195", "-1.9721522630525295e-31", "3.3777050691603048",
     "2.0457519046408804e-15"),
    ("inhom (0,1) a<0",
     lambda: _value(oracle.oracle_inhom(-3.0, 1.0, 0, (0, 1))),
     "1.0403315871162739", "-0.5449100138439209", "0.12314835207961039",
     "1.149488512013678e-14"),
    ("UContour", lambda: (oracle.UContour(10.0, 0.5, 16.0)(5.0), 0.0),
     "-0.4639922958231058", "-0.9289248556574291", "-24.889067193826506", "0"),
    ("UContour on the axis",
     lambda: (oracle.UContour(10.0, 0.0, 16.0)(5.0), 0.0),
     "1.4387774307976089", "0", "-25.254196220327373", "0"),
    ("UNegLine", lambda: (oracle.UNegLine(10.0, 16.0)(3.0), 0.0),
     "1.143746820046488", "-7.0034294110244763e-16", "6.0868002013573346",
     "0"),
    ("ode_polyline", _ode_polyline_value,
     "-2.2181487934227455", "0.4225708101543551", "1.0063533223082599", "0"),
]


@pytest.mark.parametrize("case", PINNED, ids=[c[0] for c in PINNED])
def test_pinned_values(case):
    _, compute, *expected = case
    v, est = compute()
    got = [f"{x:.17g}" for x in (v.mantissa.real, v.mantissa.imag,
                                 v.log_scale, est)]
    assert got == expected
