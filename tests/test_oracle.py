"""Oracle self-consistency: Wronskians, defining ODEs, method agreement."""

import cmath
import math

import mpmath
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
        q = lambda z: z * z / 4.0 + 10.0
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
        v = oracle.oracle_inhom(10.0, 0.0, 3, (0, 2), fast=True).to_complex()
        scale = abs(oracle.oracle_inhom(10.0, 0.5, 3, (0, 2)).to_complex())
        assert abs(v) < 1e-9 * scale

    def test_inhom_ode_residual(self):
        # the VoP value satisfies the forced equation via second differences
        a, R = 10.0, 1
        h = 2e-3
        z = 1.0
        vals = [oracle.oracle_inhom(a, z + k * h, R, (0, 2)).to_complex()
                for k in (-1, 0, 1)]
        lap = (vals[0] - 2 * vals[1] + vals[2]) / (h * h)
        resid = lap - (z * z / 4 + a) * vals[1] - z ** R
        assert abs(resid) < 1e-5 * max(abs(vals[1]), 1.0)

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
        q = lambda z: z * z / 4.0 + a
        f = lambda z: z ** R
        y1, _ = oracle.ode_polyline(q, f, [z0, z1], v0, d0)
        ref = oracle.oracle_inhom(a, z1, R, (0, 2)).value
        assert abs((y1 / ref).to_complex() - 1) < 1e-7


class TestWeberOracle:
    def test_origin_wronskian(self):
        # W{W(a,x), W(a,-x)} = 1 (DLMF normalization) -> -2 W(a,0) W'(a,0) = 1
        for a in (10.0, -10.0, 3.0):
            W, Wp = oracle.weber_origin_data(a)
            assert -2.0 * W * Wp == pytest.approx(1.0, rel=1e-12)

    def test_sweep_consistency(self):
        # ODE table against the independent quadrature connection
        tab = oracle.weber_ode_real(10.0, [9.0, 14.0])
        for x in (9.0, 14.0):
            Wq, _ = oracle.weber_quad_real(10.0, x)
            assert tab[x][0] == pytest.approx(Wq, rel=2e-7)

    def test_refusal(self):
        with pytest.raises(AccuracyError):
            # cosine representation deep in the recessive zone, complex z
            oracle.oracle_U(-10.0, 12.0 + 0.4j)


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
        d0 = (oracle.oracle_inhom(a, 0.4 + h, R, (0, 2), fast=True).value
              - oracle.oracle_inhom(a, 0.4 - h, R, (0, 2), fast=True).value) \
            * (1 / (2 * h))
        ov = oracle.oracle_ode("PCF+", a, R, [0.4, z], (seed, d0))
        ref = oracle.oracle_inhom(a, z, R, (0, 2))
        assert abs((ov.value / ref.value).to_complex() - 1) < 1e-7

    def test_turning_point_clearance(self):
        from parcyl.errors import StiffnessError
        with pytest.raises(StiffnessError):
            oracle.oracle_ode("PCF-", 10.0, None, [0.0, 0.99, 2.0],
                              (oracle._u_origin_data(-10.0)))


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
        oracle._u_contour_cached.cache_clear()
        oracle.oracle_inhom(10.0, 1.0 + 0.3j, 2, (0, 2))
        assert oracle._u_contour_cached.cache_info().misses == 1


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
        q = lambda z: z * z / 4.0 + 10.0
        y0 = ScaledComplex.from_log(-900.0)
        d0 = y0 * -3.0
        y, _ = oracle.ode_polyline(q, None, [0.0, 1.0], y0, d0)
        assert y.log_scale < -899.0
        with pytest.raises(AccuracyError):
            oracle.ode_polyline(q, lambda z: z ** 2, [0.0, 1.0], y0, d0)

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
            raise AssertionError("solve_ivp called")
        monkeypatch.setattr(oracle, "solve_ivp", no_ode)
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


def _ode_polyline_value():
    # forced sweep over two segments, from the exact origin data
    q = lambda z: z * z / 4.0 + 10.0
    y0, d0 = oracle._u_origin_data(10.0)
    y, _ = oracle.ode_polyline(q, lambda z: z ** 2, [0.0, -2.0, -2.0 + 1.0j],
                               y0, d0)
    return y, 0.0


def _value(ov):
    return ov.value, ov.est_acc


#: every route of the oracle: mantissa, log_scale and est_acc as 17-digit
#: strings, recorded before its sweeps, panel rules and line caches were
#: merged into one implementation each.  U and U' at Re z < 0, U a<0 off
#: axis and V- were re-pinned when the saddle-path quadrature replaced the
#: ODE continuation, and every U estimate gained its rounding floor
PINNED = [
    ("U a>0 quadrature", lambda: _value(oracle.oracle_U(10.0, 1.5 + 0.5j)),
     "-0.13570054785336716", "-2.1732634670934847", "-12.999718357582678",
     "1.378153463881072e-14"),
    ("U complex a", lambda: _value(oracle.oracle_U(3.0 + 2.0j, 1.5)),
     "-1.1178701597741236", "-1.9474060242297293", "-4.1432332120812703",
     "3.1607457336739129e-15"),
    ("U Re z<0", lambda: _value(oracle.oracle_U(10.0, -2.0 + 0.5j)),
     "-0.12351693470391312", "-1.6355878740693659", "-1.537669021094894",
     "1.4022054877446624e-14"),
    ("U a<0 recessive", lambda: _value(oracle.oracle_U(-10.0, 12.0)),
     "1.4091674655733586", "-8.6286621308850074e-16", "-13.033884421937231",
     "3.946330478901025e-10"),
    ("U a<0 cosine", lambda: _value(oracle.oracle_U(-10.0, 3.0 + 0.1j)),
     "1.5264698642603733", "-0.21296328288760277", "5.8363962634500997",
     "1.542928817223893e-14"),
    ("U a<0 off axis", lambda: _value(oracle.oracle_U(-10.0, 2.0 + 2.0j)),
     "-0.99094343817248609", "1.5332341840255204", "11.106759792185162",
     "1.5428244194382144e-14"),
    ("U' quadrature", lambda: _value(oracle.oracle_U_prime(10.0, 1.5)),
     "-2.3983988024985976", "0", "-11.927490336760643",
     "1.1303208311142403e-14"),
    ("U' Re z<0", lambda: _value(oracle.oracle_U_prime(10.0, -1.5 + 0.3j)),
     "-1.0179992930482584", "1.5162688516161313", "-2.0910263427011415",
     "2.0724605464719177e-14"),
    ("V-", lambda: _value(oracle.oracle_V_neg(10.0, 1.5 + 0.5j)),
     "1.215032898660342", "-1.0962798566014191", "-7.2926383233462797",
     "4.9595343830620056e-14"),
    ("inhom (0,2) a>0",
     lambda: _value(oracle.oracle_inhom(10.0, 1.0 + 0.3j, 2, (0, 2))),
     "-1.0463969127129238", "-0.54758420684304476", "-2.2861855145740808",
     "1.186151646095641e-14"),
    ("inhom (0,1) a>0",
     lambda: _value(oracle.oracle_inhom(10.0, 1.0 + 0.3j, 1, (0, 1))),
     "-0.63443176568977133", "-0.89005289350804784", "-1.6395461884198284",
     "6.0928780779167268e-12"),
    ("inhom (0,2) a<0",
     lambda: _value(oracle.oracle_inhom(-10.0, 1.0, 2, (0, 2))),
     "-1.3056637047053166", "-1.9721522630525295e-31", "3.1929362690310743",
     "3.741377883712555e-15"),
    ("inhom (0,1) a<0",
     lambda: _value(oracle.oracle_inhom(-3.0, 1.0, 0, (0, 1))),
     "1.7332681936034975", "-0.90785976996994311", "-0.3873209074160715",
     "4.0849691567551895e-12"),
    ("UContour", lambda: (oracle.UContour(10.0, 0.5, 16.0)(5.0), 0.0),
     "-1.1481021264571223", "-2.298530841342556", "-25.795064778820844", "0"),
    ("UContour on the axis",
     lambda: (oracle.UContour(10.0, 0.0, 16.0)(5.0), 0.0),
     "2.5724100833551073", "0", "-25.835245708841338", "0"),
    ("UNegLine", lambda: (oracle.UNegLine(10.0, 16.0)(3.0), 0.0),
     "1.9198855258345466", "-1.1755908319713053e-15", "5.5688441963732629",
     "0"),
    ("ode_polyline", _ode_polyline_value,
     "-2.2181487934229089", "0.4225708101539688", "1.0063533223079242", "0"),
]


@pytest.mark.parametrize("case", PINNED, ids=[c[0] for c in PINNED])
def test_pinned_values(case):
    _, compute, *expected = case
    v, est = compute()
    got = [f"{x:.17g}" for x in (v.mantissa.real, v.mantissa.imag,
                                 v.log_scale, est)]
    assert got == expected
