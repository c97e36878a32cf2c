"""Airy/Scorer module: series values, connections, ODE residuals, Hi against
mpmath, and the one-pass panel quadratures against per-panel references."""

import cmath
import importlib
import math
from dataclasses import astuple

import mpmath
import numpy as np
import pytest

from parcyl.errors import ArgumentError, ParcylError
from parcyl.quadrature import gauss

pa = importlib.import_module("parcyl.airy")


@pytest.mark.parametrize("z", [complex("nan"), math.inf, complex(1.0, -math.inf),
                               "1.5"])
def test_airy_refuses_a_non_finite_argument(z):
    # a NaN used to recurse through the sector rotations without end
    with pytest.raises(ArgumentError):
        pa.airy(z)


@pytest.mark.parametrize("f", [pa.scorer_hi, pa.scorer_hi_prime])
@pytest.mark.parametrize("z", [complex(1.0, math.inf), complex("nan"),
                               -math.inf])
def test_scorer_refuses_a_non_finite_argument(f, z):
    with pytest.raises(ArgumentError):
        f(z)


def test_asymptotic_layer_far_out_on_the_anti_stokes_ray():
    # |xi| = 2.4e8: xi^k overflowed from k = 37 on, though the terms
    # there are e^-600 below the first; the phase of e^-xi carries |xi|
    # ulps, about 5e-8
    z = 5e5 * cmath.exp(1j * math.pi / 3.0)
    v = pa.airy(z)
    with mpmath.workdps(30):
        ai = complex(mpmath.airyai(z))
        aip = complex(mpmath.airyai(z, derivative=1))
    assert abs(v.ai / ai - 1.0) < 1e-6
    assert abs(v.ai_prime / aip - 1.0) < 1e-6


@pytest.mark.parametrize("zs", [
    [r * cmath.exp(1j * th) for th in np.linspace(-math.pi, math.pi, 24, endpoint=False)]
    for r in (1e104, 1e200, 1e300)] + [[complex(1.5e308, s * 1.5e308) for s in (1, -1)]],
    ids=["1e104", "1e200", "1e300", "modulus_beyond_double"])
def test_huge_arguments_give_a_value_or_a_typed_error(zs):
    # 3 z^3 overflowed from |z| ~ 1e103, z^1.5 from |z| ~ 1e206, and abs(z)
    # where |z| exceeds the double range
    fs = [pa.scorer_hi, pa.scorer_hi_prime,
          *(lambda z, p=p: pa.wi(z, p) for p in pa._WI_ROT),
          *(lambda z, p=p: pa.wi_prime(z, p) for p in pa._WI_ROT),
          lambda z: astuple(pa.airy(z))[:4]]
    for z in zs:
        for f in fs:
            try:
                v = f(z)
            except ParcylError:
                continue
            assert all(cmath.isfinite(x) for x in np.atleast_1d(v)), (f, z)


def test_hi_far_out_on_the_negative_axis():
    assert pa.scorer_hi(-1e200).real == pytest.approx(1.0 / (math.pi * 1e200), rel=1e-15)


def five_point_second_diff(f, z, h):
    return (-f(z + 2 * h) + 16 * f(z + h) - 30 * f(z)
            + 16 * f(z - h) - f(z - 2 * h)) / (12 * h * h)


class TestAiry:
    def test_ai_at_zero(self):
        # quadrature oracle of the Airy integral, rotated onto the damped ray
        # t = e^{i pi/6} s so that cos(t^3/3) integrates as e^{-s^3/3}
        s = np.linspace(0, 12, 400001)
        ref = math.cos(math.pi / 6) * np.trapezoid(np.exp(-s ** 3 / 3.0), s) / np.pi
        v = pa.airy(0.0)
        assert v.ai.real == pytest.approx(ref, rel=1e-9)
        # and the closed form
        from scipy.special import gamma
        assert v.ai.real == pytest.approx(3 ** (-2 / 3) / gamma(2 / 3), rel=1e-14)

    def test_bi_connection(self):
        # e^{-i pi/6} Ai_1(z) + e^{i pi/6} Ai_{-1}(z) = Bi(z)
        for z in (1 + 1j, -2 + 0.5j, 5.0, 12 - 3j):
            a1 = pa.airy(z, 1).ai
            am = pa.airy(z, -1).ai
            bi = pa.airy(z).bi
            lhs = cmath.exp(-1j * math.pi / 6) * a1 + cmath.exp(1j * math.pi / 6) * am
            assert abs(lhs - bi) <= 1e-12 * abs(bi)

    def test_asymptotic_form(self):
        # Ai(w) ~ e^{-xi}/(2 sqrt(pi) w^{1/4}) at w = 30
        w = 30.0
        xi = (2 / 3) * w ** 1.5
        lead = math.exp(-xi) / (2 * math.sqrt(math.pi) * w ** 0.25)
        assert pa.airy(w).ai.real == pytest.approx(lead, rel=1e-2)
        # sharper: relative agreement to 1e-6 with the u^{2/3

        # zeta-scaled reading: leading accuracy ~ 5/(72 xi)
        assert abs(pa.airy(w).ai.real / lead - 1) < 2 * 5 / (72 * xi)

    def test_wronskian_grid(self):
        # relative to the product scale (intrinsic cancellation at huge |z|)
        for r in (0.5, 3.0, 8.0, 20.0, 45.0):
            for th in np.linspace(-np.pi + 0.02, np.pi, 21):
                z = r * cmath.exp(1j * th)
                v = pa.airy(z)
                scale = abs(v.ai * v.bi_prime) + abs(v.ai_prime * v.bi) + 1 / math.pi
                resid = abs(v.ai * v.bi_prime - v.ai_prime * v.bi - 1 / math.pi)
                assert resid <= 1e-13 * scale

    def test_rotation_coherence(self):
        z = 2.3 - 1.1j
        for l in (1, -1):
            direct = pa.airy(z, l).ai
            manual = pa.airy(z * cmath.exp(-2j * math.pi * l / 3)).ai
            assert direct == pytest.approx(manual, rel=1e-13)

    def test_crossover_seam(self):
        # the two evaluation layers agree at the same point near each seam
        for th in np.linspace(-2.35, 2.35, 9):
            z = pa.MACLAURIN_RADIUS * cmath.exp(1j * th)
            am, _ = pa._maclaurin_pair(z)
            aq, _ = pa._quad_pair(z)
            assert abs(am - aq) <= 1e-12 * (abs(am) + abs(pa.airy(z).bi))
        for th in np.linspace(-1.9, 1.9, 9):
            z = pa.ASYMPTOTIC_RADIUS * cmath.exp(1j * th)
            aq, _ = pa._quad_pair(z)
            aa, _ = pa._asym_pair(z)
            assert abs(aq - aa) <= 1e-12 * (abs(aq) + abs(pa.airy(z).bi))


class TestRotatedPoints:
    """airy() takes Ai_l and Bi from the three points z e^{-2 pi i k/3}."""

    LEAVES = ("_maclaurin_pair", "_quad_pair", "_asym_pair")

    def _count_leaves(self, monkeypatch) -> list:
        args = []
        for name in self.LEAVES:
            def counted(z, _leaf=getattr(pa, name)):
                args.append(z)
                return _leaf(z)
            monkeypatch.setattr(pa, name, counted)
        return args

    def test_each_point_once_and_three_leaves_at_most(self, monkeypatch):
        args = self._count_leaves(monkeypatch)
        # every layer, with angles in the out-of-sector arcs on both sides
        # (|arg| > 2.4 for the integral, > 2pi/3 + 0.15 for the expansion)
        angles = list(np.linspace(-math.pi, math.pi, 37))
        angles += [s * a for s in (1, -1) for a in (2.3, 2.5, 3.0, 3.1)]
        for r in (0.7, 3.0, 4.5, 6.0, 9.5, 12.0, 30.0):
            for th in angles:
                z = r * cmath.exp(1j * th)
                for l in (0, 1, -1):
                    args.clear()
                    pa.airy(z, l)
                    assert 2 <= len(args) <= 3, (z, l, args)
                    assert len(set(args)) == len(args), (z, l, args)

    def test_weber_W_real_makes_one_airy_evaluation(self, monkeypatch):
        tp = importlib.import_module("parcyl.tp")
        args = self._count_leaves(monkeypatch)
        calls = []

        def counted(*a, _airy=tp.airy):
            calls.append(a)
            return _airy(*a)
        monkeypatch.setattr(tp, "airy", counted)
        for x in (-0.5, 0.3, 1.0, 2.5):
            for sign in ("+x", "-x"):
                calls.clear()
                args.clear()
                tp.weber_W_real(20.0, x, 3, sign)
                assert len(calls) == 1 and len(args) <= 3, (x, sign)

    def test_schwarz_reflection_is_exact(self):
        for r in np.geomspace(0.3, 40.0, 9):
            for th in np.linspace(0.0, math.pi, 71):
                z = complex(r * cmath.exp(1j * th))
                zc = z.conjugate()
                v, vc = astuple(pa.airy(z))[:4], astuple(pa.airy(zc))[:4]
                assert vc == tuple(w.conjugate() for w in v), z
                for l in (1, -1):
                    a, ac = pa.airy(z, l), pa.airy(zc, -l)
                    assert (ac.ai, ac.ai_prime) == (a.ai.conjugate(),
                                                    a.ai_prime.conjugate()), (z, l)


class TestScorer:
    def test_hi_zero_quadrature(self):
        t = np.linspace(0, 25, 2000001)
        ref = np.trapezoid(np.exp(-t ** 3 / 3.0), t) / np.pi
        assert pa.scorer_hi(0.0).real == pytest.approx(ref, rel=1e-10)

    def test_hi_negative_tail(self):
        val = pa.scorer_hi(-10.0).real
        assert val == pytest.approx(-1 / (math.pi * -10.0), rel=0.02)

    def test_hi_ode(self):
        for z in (2 + 1j, -4 + 0.5j, 6.0):
            f = lambda w: pa.scorer_hi(w)
            lap = five_point_second_diff(f, z, 3e-3)
            resid = abs(lap - z * f(z) - 1 / math.pi)
            assert resid <= 1e-9 * max(1.0, abs(f(z)))

    def test_wi_values_and_ode(self):
        assert pa.wi(0.0, (-1, 1)) == pytest.approx(math.pi * pa.scorer_hi(0.0), rel=1e-14)
        for pair in ((-1, 1), (0, 1), (-1, 0)):
            f = lambda w: pa.wi(w, pair)
            lap = five_point_second_diff(f, 1.0, 3e-3)
            assert abs(lap - 1.0 * f(1.0) - 1.0) < 1e-9 * max(1.0, abs(f(1.0)))

    def test_wi_conjugation(self):
        z = 2 + 1j
        lhs = pa.wi(z.conjugate(), (-1, 0))
        rhs = pa.wi(z, (0, 1)).conjugate()
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_wi_difference_homogeneous(self):
        # Wi^{(-1,1)} - Wi^{(0,1)} solves the homogeneous Airy equation
        f = lambda w: pa.wi(w, (-1, 1)) - pa.wi(w, (0, 1))
        z = 1.5
        lap = five_point_second_diff(f, z, 3e-3)
        assert abs(lap - z * f(z)) < 1e-9 * max(1.0, abs(f(z)))

    def test_hi_against_mpmath(self):
        # mpmath.scorerhi has no derivative option: Hi' is its numerical
        # derivative at 30 digits
        angles = [*np.linspace(-math.pi, math.pi, 15)[1:-1], math.pi / 3, -math.pi / 3]
        worst_hi = worst_hip = 0.0
        with mpmath.workdps(30):
            for r in (0.5, 2.0, 5.0, 9.0, 15.0, 22.0, 29.5):
                zs = [r * cmath.exp(1j * th) for th in angles] + [complex(r), complex(-r)]
                for z in zs:
                    hi, hip = pa.scorer_hi(z), pa.scorer_hi_prime(z)
                    ref = complex(mpmath.scorerhi(mpmath.mpc(z)))
                    refp = complex(mpmath.diff(mpmath.scorerhi, mpmath.mpc(z)))
                    worst_hi = max(worst_hi, abs(hi - ref) / abs(ref))
                    worst_hip = max(worst_hip, abs(hip - refp) / abs(refp))
        assert worst_hi <= 2e-13
        assert worst_hip <= 2e-13

    def test_hi_ray_end_is_tail_certified(self):
        # on the ray t = s e1 the integrand's log-modulus is
        # L(s) = -c s^3/3 + b s; beyond the peak the tail of s^j e^L from T
        # on is at most T^j e^{L(T)} / (|L'(T)| - j/T)
        tol = 0.25 * np.finfo(float).eps
        # at a zero of Hi' (and its mirror image) the first ray end fails
        # this check, and the ray is extended
        hip_zeros = [complex(2.0024009910891628, s * 7.2591106942952184)
                     for s in (1, -1)]
        for z in _hi_lattice() + hip_zeros:
            hi, hip, (e1, ends) = pa._hi_quad(z)
            T = float(ends[-1])
            c, b = (e1 ** 3).real, (z * e1).real
            # never beyond the ray end that leaves a tail e^-760 below the peak
            assert T <= (3.0 * (760.0 + 2.0 * max(b, 0.0) ** 1.5) / c) ** (1 / 3)
            for j, v in enumerate((hi, hip)):
                kappa = c * T * T - b - j / T
                assert kappa > 0.0
                log_tail = j * math.log(T) + (-c * T ** 3 / 3.0 + b * T) \
                    - math.log(math.pi * kappa)
                assert log_tail <= math.log(tol * abs(v)), (z, j)

    def test_hi_schwarz_reflection(self):
        # bit for bit on the quadrature disk, where the ray depends on z
        # only through b, c and |Im z e1|; beyond it Bi's rotation sum in
        # the dominant sector rounds differently on either side
        rng = np.random.default_rng(11)
        r = 2.0 * pa.HI_QUAD_RADIUS * np.sqrt(rng.uniform(0.0, 1.0, 400))
        zs = list(r * np.exp(1j * rng.uniform(-math.pi, math.pi, 400)))
        zs += [pa.HI_QUAD_RADIUS * cmath.exp(1j * th) for th in (0.5, 2.0)]
        for z in zs:
            z = complex(z)
            pair = (pa.scorer_hi(z), pa.scorer_hi_prime(z))
            mirror = (pa.scorer_hi(z.conjugate()), pa.scorer_hi_prime(z.conjugate()))
            for v, m in zip(pair, mirror):
                if abs(z) <= pa.HI_QUAD_RADIUS:
                    assert m == v.conjugate(), z
                else:
                    assert abs(m - v.conjugate()) <= 1e-13 * abs(v), z


def _hi_quad_by_panel(z):
    """Reference: the Hi panel quadrature summed one panel at a time, on the
    ray and panel ends that _hi_quad chose (see pa._hi_ray)."""
    z = complex(z)
    e1, ends = pa._hi_quad(z)[2]
    e3 = e1 * e1 * e1
    zr = z * e1
    x, w = gauss(48)
    logs, v0, v1 = [], [], []
    for s_lo, s_hi in zip(ends[:-1], ends[1:]):
        t = 0.5 * (s_hi - s_lo) * x + 0.5 * (s_lo + s_hi)
        ww = 0.5 * (s_hi - s_lo) * w
        expo = -e3 * t ** 3 / 3.0 + zr * t
        m = float(np.max(expo.real))
        g = np.exp(expo - m)
        logs.append(m)
        v0.append(complex(np.sum(ww * g)))
        v1.append(complex(np.sum(ww * t * g)))
    mtop = max(logs)
    I0 = sum(v * math.exp(l - mtop) for v, l in zip(v0, logs))
    I1 = sum(v * math.exp(l - mtop) for v, l in zip(v1, logs))
    scale = cmath.exp(mtop)
    return I0 * e1 * scale / math.pi, I1 * e1 * e1 * scale / math.pi


def _hi_lattice():
    """Random points of the Hi quadrature disk, z = 0, either side of the
    anti-Stokes rays, the negative real axis, and |z| = 30 in the dominant
    sector."""
    rng = np.random.default_rng(7)
    r = pa.HI_QUAD_RADIUS * np.sqrt(rng.uniform(0.0, 1.0, 120))
    zs = [complex(z) for z in r * np.exp(1j * rng.uniform(-math.pi, math.pi, 120))]
    zs.append(0j)
    for rad in (1.0, 6.0, 13.0, 21.0, pa.HI_QUAD_RADIUS):
        zs += [rad * cmath.exp(1j * (s * math.pi / 3 + d))
               for s in (1, -1) for d in (-0.02, 0.0, 0.02)]
        zs.append(complex(-rad))
    zs += [pa.HI_QUAD_RADIUS * cmath.exp(1j * th) for th in (-0.5, 0.0, 0.5)]
    return zs


def _ai_quad_by_panel(z):
    """Reference: the Ai integral layer summed one panel at a time."""
    z = complex(z)
    sz = cmath.sqrt(z)
    xi = (2.0 / 3.0) * z * sz
    s = max(sz.real, 0.2)
    T = max(15.0 / math.sqrt(s), 5.0)
    x, w = gauss(48)
    edges = np.linspace(0.0, math.sqrt(T), 15) ** 2
    I0 = 0j
    I2 = 0j
    for a, b in zip(edges[:-1], edges[1:]):
        t = 0.5 * (b - a) * x + 0.5 * (a + b)
        ww = 0.5 * (b - a) * w
        f = np.exp(-sz * t * t) * np.cos(t ** 3 / 3.0)
        I0 += np.sum(ww * f)
        I2 += np.sum(ww * t * t * f)
    ai = cmath.exp(-xi) / math.pi * I0
    aip = -sz * ai - cmath.exp(-xi) / (2.0 * sz * math.pi) * I2
    return ai, aip


def _worst_rel(new, ref, zs):
    worst = 0.0
    for z in zs:
        for a, b in zip(new(z), ref(z)):
            worst = max(worst, abs(a - b) / abs(b))
    return worst


class TestPanelQuadratureInOnePass:
    """The array-pass quadratures against the same rules summed per panel."""

    def test_hi_quad(self):
        zs = _hi_lattice()
        assert len(zs) >= 150
        hi_pair = lambda z: pa._hi_quad(z)[:2]
        assert _worst_rel(hi_pair, _hi_quad_by_panel, zs) <= 1e-14

    def test_ai_quad(self):
        rng = np.random.default_rng(8)
        r = rng.uniform(pa.MACLAURIN_RADIUS, pa.ASYMPTOTIC_RADIUS, 150)
        zs = list(r * np.exp(1j * rng.uniform(-2.4, 2.4, 150)))
        zs += [9.5 * cmath.exp(2.4j), 9.5 * cmath.exp(-2.4j), 4.6, 9.5]
        assert _worst_rel(pa._quad_pair, _ai_quad_by_panel, zs) <= 1e-14


class TestEnvelope:
    def test_oscillatory_side(self):
        v = pa.airy(-5.0)
        ea, eb = pa.env_airy(-5.0)
        assert ea == pytest.approx(math.hypot(v.ai.real, v.bi.real), rel=1e-14)
        assert ea == eb

    def test_monotone_side(self):
        v = pa.airy(2.0)
        ea, eb = pa.env_airy(2.0)
        assert ea == pytest.approx(math.sqrt(2) * v.ai.real, rel=1e-14)
        assert eb == pytest.approx(math.sqrt(2) * v.bi.real, rel=1e-14)

    def test_crossing_is_the_root(self):
        c = pa.ENV_CROSSING
        with mpmath.workdps(40):
            root = mpmath.findroot(
                lambda x: mpmath.airyai(x) - mpmath.airybi(x), -0.37)
        assert abs(c - float(root)) <= math.ulp(c)
        v = pa.airy(c)
        assert abs(v.ai - v.bi) <= 4 * np.finfo(float).eps * abs(v.ai)

    def test_crossing_continuity(self):
        c = pa.ENV_CROSSING
        v = pa.airy(c)
        # at the crossing the two formulas coincide
        assert math.hypot(v.ai.real, v.bi.real) == pytest.approx(
            math.sqrt(2) * v.ai.real, abs=1e-10)
