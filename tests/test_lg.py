"""Exponent-form expansions and their certified bounds."""

import cmath
import math
import warnings

import numpy as np
import pytest

from parcyl import constants, lg, oracle, plane, quadrature
from parcyl.coeffs import get_tables
from parcyl.errors import ArgumentError, DomainError, OrderError


def rel_to_oracle(cv, ov):
    return abs((cv.value / ov.value).to_complex() - 1.0)


class TestPcfUPos:
    @pytest.mark.parametrize("u", [10.0, 20.0, 40.0])
    @pytest.mark.parametrize("n", [2, 4])
    def test_bound_soundness_spot(self, u, n):
        for z in (0.5, 2.0, 0.5 + 0.5j, -2.0, 1 - 1j):
            cv = lg.pcf_U_pos(u, z, n, "+z")
            ov = oracle.oracle_U(u / 2, math.sqrt(2 * u) * complex(z))
            assert rel_to_oracle(cv, ov) <= cv.rel_bound

    def test_mirror_solution(self, ):
        # the -z solution matched against the oracle at reflected argument
        u, n, z = 20.0, 3, 1.5
        cv = lg.pcf_U_pos(u, z, n, "-z")
        ov = oracle.oracle_U(u / 2, -math.sqrt(2 * u) * z)
        assert rel_to_oracle(cv, ov) <= cv.rel_bound

    def test_real_on_real(self):
        v = lg.pcf_U_pos(20.0, 0.0, 4).value
        assert v.mantissa.imag == 0.0

    def test_asymptotic_consistency(self):
        # ratio to the truncated large-z form of the exponent variable
        # (quadratic + log + constant) within 1 percent at z = 10
        u, z = 20.0, 10.0
        cv = lg.pcf_U_pos(u, z, 4)
        from parcyl.scaled import ScaledComplex
        def deviation(zz):
            xi_trunc = zz * zz / 2 + math.log(2 * zz) / 2 + 0.25
            lead = ScaledComplex.from_log(
                (u / 4) * (math.log(2 / u) + 1.0) - u * xi_trunc) \
                * (2 * u * (1 + zz * zz)) ** -0.25
            return abs((lg.pcf_U_pos(u, zz, 4).value / lead).to_complex() - 1.0)

        d10 = deviation(10.0)
        assert d10 < 0.02
        # and the residual really is O(z^{-2})
        d14 = deviation(14.0)
        assert d14 * (14.0 / 10.0) ** 2 == pytest.approx(d10, rel=0.15)

    def test_recessive_log_slope(self):
        # value decays like e^{-u xi_bar}: check the log-scale slope
        u = 20.0
        l1 = lg.pcf_U_pos(u, 4.0, 3).value.log_abs
        l2 = lg.pcf_U_pos(u, 4.2, 3).value.log_abs
        slope = (l2 - l1) / 0.2
        dxi = (plane.xi_bar(4.2) - plane.xi_bar(4.0)).real / 0.2
        assert slope == pytest.approx(-u * dxi, rel=0.02)

    def test_bound_vanishes_at_infinity(self):
        b8 = lg.pcf_U_pos(20.0, 8.0, 4).rel_bound
        b2 = lg.pcf_U_pos(20.0, 2.0, 4).rel_bound
        assert b8 < 1e-2 * b2

    def test_domain_refusal(self):
        with pytest.raises(DomainError):
            lg.pcf_U_pos(20.0, 1.08j, 3)
        with pytest.raises(OrderError):
            lg.pcf_U_pos(20.0, 2.0, 40)

    def test_parity_exponent_structure(self):
        # at z = 0 only even-s terms survive: W2 exponent is the constant sum
        from fractions import Fraction
        from parcyl.coeffs import get_tables
        t = get_tables()
        u, n = 20.0, 5
        w = lg.lg_W(u, 0.0, n, "W2")
        expect = sum((-1) ** s * float(t.Ebar[s](Fraction(0)) - t.Ebar[s](Fraction(1)))
                     / u ** s for s in range(1, n))
        assert w.value.to_complex() == pytest.approx(math.exp(expect), rel=1e-13)


class TestPcfUprime:
    def test_fd_cross_check(self):
        u, z, n = 20.0, 1.0, 4
        h = 3e-5
        cvp = lg.pcf_Uprime_pos(u, z, n)
        fd = (lg.pcf_U_pos(u, z + h, n).value - lg.pcf_U_pos(u, z - h, n).value) \
            * (1.0 / (2 * h))
        # chain rule: d/dz U(u/2, sqrt(2u) z) = sqrt(2u) U'(u/2, sqrt(2u) z)
        assert abs((cvp.value * math.sqrt(2 * u) / fd).to_complex() - 1) < 1e-6

    def test_wronskian(self):
        # W{U(a,x), U(a,-x)} = sqrt(2 pi)/Gamma(a+1/2) via the expansions
        u = 20.0
        z = 0.8
        s = math.sqrt(2 * u)
        from scipy.special import gamma
        up = lg.pcf_U_pos(u, z, 5).value
        um = lg.pcf_U_pos(u, z, 5, "-z").value
        dup = lg.pcf_Uprime_pos(u, z, 5).value
        dum = lg.pcf_Uprime_pos(u, z, 5, "-z").value
        # d/dX U(a,-X) = -U'(a,-X), so W = -(U U'(-) + U' U(-))
        wr = -(up * dum + dup * um)
        expect = math.sqrt(2 * math.pi) / gamma(u / 2 + 0.5)
        assert abs(wr.to_complex() - expect) < 1e-8 * expect

    def test_real_on_real(self):
        assert lg.pcf_Uprime_pos(20.0, 1.3, 4).value.mantissa.imag == 0.0


class TestWeberNeg:
    def test_conjugate_pair(self):
        u, z, m = 20.0, 1.5, 3
        w0 = lg.weber_neg_Wj(u, z, m, 0)
        w3 = lg.weber_neg_Wj(u, z, m, 3)
        assert abs((w0.value.conj() / w3.value).to_complex() - 1) < 1e-13

    def test_against_rotated_oracle(self):
        # W_0(-a, z-scaled) = U(-ia, z-scaled * e^{-i pi/4})
        u, m = 20.0, 3
        for z in (1.0, 2.0):
            cv = lg.weber_neg_Wj(u, z, m, 0)
            Z = math.sqrt(2 * u) * z * cmath.exp(-1j * math.pi / 4)
            ov = oracle.oracle_U(-1j * u / 2, Z, n=72, npanel=18)
            assert rel_to_oracle(cv, ov) < 5e-7

    def test_derivative_ratio_identity(self):
        # U'(-iu/2, 0)/U'(iu/2, 0) against the gamma closed form
        u, m = 20.0, 3
        d0 = (lg.weber_neg_Wj(u, 0.0, m, 0, derivative=True).value.to_complex())
        d3 = (lg.weber_neg_Wj(u, 0.0, m, 3, derivative=True).value.to_complex())
        from scipy.special import loggamma
        lg_ratio = complex(loggamma(0.25 + 0.25j * u)) - complex(loggamma(0.25 - 0.25j * u))
        expect = -1j * cmath.exp(1j * u / 2 * math.log(2) + lg_ratio)
        assert abs(d0 / d3 - expect) < 1e-8

    def test_real_weber_x0_phase(self):
        # at x=0 the trig argument collapses to pi/4 - eps_m
        u, m = 20.0, 3
        wc = constants.weber_constants(u, m)
        cv = lg.weber_neg_real(u, 0.0, m, "+x")
        kbar = math.sqrt(1 + math.exp(-math.pi * u)) - math.exp(-math.pi * u / 2)
        from fractions import Fraction
        from parcyl.coeffs import get_tables
        t = get_tables()
        even0 = sum((-1) ** s * float(t.Ebar[2 * s](Fraction(0))) / u ** (2 * s)
                    for s in range(1, m + 1))
        expect = (2 * kbar ** 2 / u) ** 0.25 * math.exp(even0) * \
            math.cos(math.pi / 4 - wc.eps_m)
        assert cv.value.to_complex().real == pytest.approx(expect, rel=1e-14)

    def test_real_weber_at_x0_matches_x_near_0(self):
        # the WEB- path and bound are evaluated at exactly x = 0
        for sign in ("+x", "-x"):
            at0 = lg.weber_neg_real(20.0, 0.0, 3, sign)
            near = lg.weber_neg_real(20.0, 1e-12, 3, sign)
            assert 0.0 < at0.rel_bound < 1e-6
            assert at0.rel_bound == pytest.approx(near.rel_bound, rel=1e-9)
            assert at0.value.to_complex() == pytest.approx(
                near.value.to_complex(), rel=1e-9)

    def test_real_weber_vs_ode(self):
        u, m = 20.0, 3
        X = [math.sqrt(2 * u) * x for x in (0.5, 2.0)] + \
            [-math.sqrt(2 * u) * x for x in (0.5, 2.0)]
        tab = oracle.weber_ode_real(-u / 2, X)
        for x in (0.5, 2.0):
            vp = lg.weber_neg_real(u, x, m, "+x").value.to_complex().real
            vm = lg.weber_neg_real(u, x, m, "-x").value.to_complex().real
            Xp = math.sqrt(2 * u) * x
            assert vp == pytest.approx(tab[Xp][0], rel=3e-7, abs=1e-9)
            assert vm == pytest.approx(tab[-Xp][0], rel=3e-7, abs=1e-9)

    def test_product_prefactor(self):
        # exact product of the two prefactors: 2/(u(1+x^2)) / ... k-free scale
        u, m, x = 20.0, 2, 1.3
        kbar = math.sqrt(1 + math.exp(-math.pi * u)) - math.exp(-math.pi * u / 2)
        pp = (2 * kbar ** 2 / (u * (1 + x * x))) ** 0.25
        pm = (2 / (u * kbar ** 2 * (1 + x * x))) ** 0.25
        assert pp * pm == pytest.approx(math.sqrt(2.0 / (u * (1 + x * x))) *
                                        (1.0), rel=1e-13)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            lg.weber_neg_Wj(20.0, -0.5, 2, 0)
        with pytest.raises(DomainError):
            lg.weber_neg_real(20.0, -1.0, 2)


def test_conjugate_symmetry_outputs():
    # certified values at conjugate arguments are conjugate
    u, n = 20.0, 3
    for z in (0.8 + 0.5j, 2.0 - 1.0j, -0.4 + 0.3j):
        a = lg.pcf_U_pos(u, z, n).value
        b = lg.pcf_U_pos(u, z.conjugate(), n).value
        assert abs((a.conj() / b).to_complex() - 1) < 1e-13
    for z in (1.5 + 0.4j, 2.5 - 0.6j):
        a = lg.weber_neg_Wj(u, z, 3, 0).value
        b = lg.weber_neg_Wj(u, z.conjugate(), 3, 3).value
        # j=0 and j=3 are conjugate solutions
        assert abs((a.conj() / b).to_complex() - 1) < 1e-13


def test_omega_varpi_matches_the_per_segment_loop(monkeypatch):
    # batches of 7 segments, so the traced path (55 vertices) crosses
    # several batch boundaries
    monkeypatch.setattr(quadrature, "BATCH_SEGMENTS", 7)
    u, n = 20.0, 4
    t = get_tables()
    fam = t.rows["Ebar_d"]
    # the fig. 2 path from a point between the critical curve and the cut,
    # built from its traced arc (`monotone_path` refuses such points): its
    # horizontal ray crosses the cut, where the principal branch flips the
    # sign of p and dp, which the integrals do not see
    z = -0.5 + 1.5j
    arc = plane.trace_level_curve(z, "PCF+", "re", direction=plane._arc_direction(z))
    far = complex(plane.BOX_RADIUS, arc.vertices[-1].imag)
    path = plane.PathPolyline([far] + arc.vertices[::-1], "PCF+", "re")
    x, w = quadrature.gauss(quadrature.SEGMENT_NODES)

    # the beta_bar image one segment at a time, on the principal branch
    segs = []
    for zs, ze in path.segments():
        zn = zs + (ze - zs) * (0.5 * x + 0.5)
        sq = np.sqrt(zn * zn + 1.0)
        segs.append((zn / sq, (ze - zs) * 0.5 * w / sq ** 3))
    # the straight p-plane run from the endpoint to the far vertex's image
    a = path.vertices[0]
    p0 = a / np.sqrt(a * a + 1.0)
    target = 1.0 if p0.real >= 0 else -1.0
    segs.insert(0, (target + (p0 - target) * (0.5 * x + 0.5),
                    (p0 - target) * 0.5 * w))

    def ev(k, p):
        return np.polyval([float(c) for c in reversed(t.Ebar[k].deriv().coeffs)], p)

    omega = varpi = 0.0
    for p, dpw in segs:
        absdp = np.abs(dpw)
        omega += 2.0 * np.sum(np.abs(ev(n, p)) * absdp)
        for s in range(1, n):
            inner = sum(ev(k, p) * ev(s + n - k - 1, p) for k in range(s, n))
            omega += u ** -s * np.sum(np.abs(inner * (1.0 - p * p) ** 2) * absdp)
        for s in range(n - 1):
            varpi += 4.0 * u ** -s * np.sum(np.abs(ev(s + 1, p)) * absdp)
    got = lg.omega_varpi(n, u, lg._beta_image(path), fam)
    assert got == pytest.approx((omega, varpi), rel=1e-13)


ENTRIES = {
    "lg_W": lambda u, z, n=3: lg.lg_W(u, z, n, "W2"),
    "pcf_U_pos": lambda u, z, n=3: lg.pcf_U_pos(u, z, n),
    "pcf_Uprime_pos": lambda u, z, n=3: lg.pcf_Uprime_pos(u, z, n),
    "weber_neg_Wj": lambda u, z, n=3: lg.weber_neg_Wj(u, z, n, 0),
    "weber_neg_real": lambda u, z, n=3: lg.weber_neg_real(u, z.real, n),
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
        lg.weber_neg_real(20.0, x, 3)


# supported: n = 1..6 for the z^2+1 forms, m = 0..5 for the Weber forms
@pytest.mark.parametrize("entry,order", [
    *((e, n) for e in ("lg_W", "pcf_U_pos", "pcf_Uprime_pos") for n in (-1, 0, 7, 2.5)),
    *((e, m) for e in ("weber_neg_Wj", "weber_neg_real") for m in (-1, 6, 2.5))])
def test_typed_errors_for_bad_orders(entry, order):
    with pytest.raises(OrderError):
        ENTRIES[entry](20.0, 1.5 + 0j, order)


@pytest.mark.parametrize("entry", [lg.pcf_U_pos, lg.pcf_Uprime_pos])
@pytest.mark.parametrize("z", [1e103, 3e120, 1e150, 4e153])
def test_far_real_points_take_no_overflowed_intermediate(entry, z):
    # the beta-image weight 1/sq^3 overflowed to inf from |z| ~ 5e102, so
    # the far nodes' weights read 0 with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cv = entry(20.0, z, 3)
    assert 0.0 < cv.rel_bound < 1e-13
