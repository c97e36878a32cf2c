"""u-free data built once and reused: the one Cauchy ring about z = 1
(geometry built once per variant, the u-dependent part assembled per call,
and every Cauchy integral, A, B and the Scorer contour, summed on it), and
the per-point caches of the direct geometry and of the turning-point error
estimate's moments."""

import cmath
import functools
import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest

import parcyl
from parcyl import constants, inhom, plane, quadrature, tp
from parcyl.coeffs import evaluate, get_tables
from parcyl.errors import DomainError

RTOL = 1e-12


# ----------------------------------------------------------------------
# reference: the scalar per-node loop the rings were built with
# ----------------------------------------------------------------------

def _mod_sums_ref(u, z, m, variant):
    t = get_tables()
    xi, _ = plane.xi_zeta(z)
    beta = plane.beta_map(z, "PCF-")
    fac = (lambda s: (-1j) ** s) if variant == "WEB+" else (lambda s: 1.0)

    def coeff(s, seq):
        return fac(s) * (evaluate(t.rows["E"], beta, s, s + 1)[0]
                         + (-1) ** s * float(seq[s]) / s * xi ** (-s))

    a, at = t.airy.a, t.airy.a_tilde
    return (sum(coeff(2 * s, at) / u ** (2 * s) for s in range(1, m + 1)),
            sum(coeff(2 * s + 1, at) / u ** (2 * s + 1) for s in range(m + 1)),
            sum(coeff(2 * s, a) / u ** (2 * s) for s in range(1, m + 1)),
            sum(coeff(2 * s + 1, a) / u ** (2 * s + 1) for s in range(m + 1)))


def _ab_ref(u, z, m, variant):
    even_t, odd_t, even_p, odd_p = _mod_sums_ref(u, z, m, variant)
    A = tp._root_A(z) * cmath.exp(even_t) * cmath.cosh(odd_t)
    B = cmath.exp(even_p) * cmath.sinh(odd_p) / (u ** (1.0 / 3.0) * tp._root_B(z, variant))
    return A, B


def _scorer_ref(u, z, m, variant):
    even_t, odd_t, even_p, odd_p = _mod_sums_ref(u, z, m, variant)
    _, zeta = plane.xi_zeta(z)
    if variant == "WEB+":
        zc, z32 = -zeta, 1j * (zeta ** 1.5)
    else:
        zc, z32 = zeta, zeta ** 1.5
    s1 = sum(math.factorial(3 * k) / math.factorial(k) / (3.0 * u * u * zc ** 3) ** k
             for k in range(m + 1))
    s2 = sum(math.factorial(3 * k + 1) / math.factorial(k) / (3.0 * u * u * zc ** 3) ** k
             for k in range(m + 1))
    J = -cmath.exp(even_t) * cmath.cosh(odd_t) * s1 \
        + cmath.exp(even_p) * cmath.sinh(odd_p) * s2 / (u * z32)
    return tp._root_A(z) * J / zc


def _per_node(fn, nodes, *args):
    """fn at each (upper-half) node."""
    return np.array([fn(args[0], complex(t), *args[1:]) for t in nodes])


def _assert_close(got, ref):
    assert np.all(np.abs(got - ref) <= RTOL * np.abs(ref)), \
        float(np.max(np.abs(got - ref) / np.abs(ref)))


# ----------------------------------------------------------------------
# ring values against the reference, node by node
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _full_ring(variant, radius, nodes=tp.CAUCHY_NODES):
    """The upper half of a trapezoidal ring of `nodes` nodes about z = 1,
    built with tp._geometry at any radius."""
    th = (np.arange(nodes // 2) + 0.5) * (2.0 * math.pi / nodes)
    return tp._geometry(1.0 + radius * np.exp(1j * th), variant,
                        get_tables().s_max)


def _scorer_values(g, u, m, variant):
    """root_A J_m / zeta_c at the nodes of `g`, as _scorer_contour sums it."""
    zc = -g.zeta if variant == "WEB+" else g.zeta
    return g.root_a * inhom._scorer_factor(g, u, m, variant) / zc


@pytest.mark.parametrize("variant", ["PCF-", "WEB+"])
@pytest.mark.parametrize("u", [10.0, 37.3, 300.0])
def test_cauchy_ring_matches_the_per_node_loop(u, variant):
    g = tp._ring_geometry(variant)
    assert len(g.points) == tp.CAUCHY_NODES // 2
    assert np.allclose(np.abs(g.points - 1.0), tp.RING_RADIUS, rtol=1e-15, atol=0.0)
    for m in range(5):
        Ak, Bk = tp._ab(g, u, m)
        ref = _per_node(_ab_ref, g.points, u, m, variant)
        _assert_close(Ak, ref[:, 0])
        _assert_close(Bk, ref[:, 1])


def _assert_scorer_matches_the_per_node_loop(g, variant):
    for u in (10.0, 37.3, 300.0):
        for m in range(5):
            _assert_close(_scorer_values(g, u, m, variant),
                          _per_node(_scorer_ref, g.points, u, m, variant))


@pytest.mark.parametrize("variant", ["PCF-", "WEB+"])
@pytest.mark.parametrize("r0", [0.5, 0.8, 1.2, 1.55])
def test_scorer_ring_matches_the_per_node_loop(r0, variant):
    # the Scorer factor is an array expression over any geometry: rings of
    # the radii the Scorer contour once used, built with tp._geometry
    g = _full_ring(variant, r0)
    assert np.allclose(np.abs(g.points - 1.0), r0, rtol=1e-15, atol=0.0)
    _assert_scorer_matches_the_per_node_loop(g, variant)


@pytest.mark.parametrize("variant", ["PCF-", "WEB+"])
def test_scorer_on_the_one_ring_matches_the_per_node_loop(variant):
    _assert_scorer_matches_the_per_node_loop(tp._ring_geometry(variant), variant)


def test_ring_nodes_come_in_conjugate_pairs():
    # the ring holds its upper half only; _cauchy adds the conjugate half by
    # Schwarz reflection, so it must equal the plain trapezoidal sum over
    # the whole ring with the lower half written out
    g = tp._ring_geometry("PCF-")
    assert np.all(g.points.imag > 0)
    tk = np.concatenate([g.points, g.points.conj()])
    assert len(set(np.round(np.angle(tk - 1.0), 12))) == tp.CAUCHY_NODES
    Ak, Bk = tp._ab(g, 20.0, 3)
    for z in (1.05 + 0.05j, 0.9 - 0.1j, 1.1 + 0j, 1.3 + 0.7j):
        for c, ref in zip(tp._cauchy(g, z, Ak, Bk), _ring_sum(g, z, Ak, Bk)):
            assert abs(c - ref) <= 1e-14 * abs(ref)


def test_direct_path_matches_the_scalar_loop():
    for variant in ("PCF-", "WEB+"):
        for z in (2.0 + 0j, 0.4 + 0j, 1.5 + 0.5j, 1.3 + 0.2j, -0.5 + 0.3j):
            for m in range(5):
                got = np.array(tp._ab_direct(37.3, z, m, variant))
                _assert_close(got, np.array(_ab_ref(37.3, z, m, variant)))


# ----------------------------------------------------------------------
# the one ring against the two ring families it replaced, and against a
# much finer ring
# ----------------------------------------------------------------------

def _ring_sum(g, z, *values):
    """The trapezoidal Cauchy sum over the whole ring, lower half appended."""
    tk = np.concatenate([g.points, g.points.conj()])
    w = (tk - 1.0) / (tk - z)
    return tuple(complex(np.sum(np.concatenate([v, v.conj()]) * w)) / len(tk)
                 for v in values)


def _snapped_scorer_radius(z):
    """The ring radius the Scorer contour used before the one ring:
    |z-1| + 0.4 snapped up to the grid 0.5, 0.55, ..., 1.55."""
    return min(max(0.5, 0.05 * math.ceil((abs(z - 1.0) + 0.4) / 0.05)), 1.55)


def _points(rng, n, dmax):
    """n seeded points of the closed upper half plane with |z-1| < dmax."""
    d = dmax * np.sqrt(rng.uniform(0.0, 1.0, n))
    return 1.0 + d * np.exp(1j * rng.uniform(0.0, math.pi, n))


def _rel(a, b):
    return abs(a - b) / abs(b)


@pytest.mark.parametrize("variant", ["PCF-", "WEB+"])
def test_one_ring_agrees_with_the_rings_it_replaced(variant):
    rng = np.random.default_rng(2017)
    old_cauchy = _full_ring(variant, tp.CAUCHY_RADIUS)
    worst_ab = worst_scorer = 0.0
    us = rng.uniform(20.0, 300.0, 250)
    ms = rng.integers(0, 5, 250)
    for u, m, z in zip(us, ms, _points(rng, 250, tp.DIRECT_MIN_DIST)):
        got = tp._ab_cauchy(u, z, m, variant)
        ref = _ring_sum(old_cauchy, z, *tp._ab(old_cauchy, u, m))
        worst_ab = max(worst_ab, *map(_rel, got, ref))
    for u, m, z in zip(us, ms, _points(rng, 250, 1.15)):
        old = _full_ring(variant, _snapped_scorer_radius(z))
        ref, = _ring_sum(old, z, _scorer_values(old, u, m, variant))
        worst_scorer = max(worst_scorer,
                           _rel(inhom._scorer_contour(u, z, m, variant), ref))
    assert worst_ab <= 1e-14 and worst_scorer <= 1e-14, (worst_ab, worst_scorer)


@pytest.mark.parametrize("variant", ["PCF-", "WEB+"])
def test_one_ring_is_converged_at_small_u(variant):
    # reference: 4096 nodes on rings well inside the float range at u = 5
    # (radius 1.0 for A, B; 1.3, enclosing the Scorer zone, for the
    # contour); the top orders converge slowest
    ref_ab = _full_ring(variant, 1.0, 4096)
    ref_scorer = _full_ring(variant, 1.3, 4096)
    worst_ab = worst_scorer = 0.0
    for u in (5.0, 6.0, 8.0):
        for m in range(get_tables().s_max // 2):
            for z in (1.0 + 0j, 1.1 + 0.1j, 0.85 + 0.05j, 1.15 + 0j, 1.0 + 0.19j):
                got = tp._ab_cauchy(u, z, m, variant)
                ref = _ring_sum(ref_ab, z, *tp._ab(ref_ab, u, m))
                worst_ab = max(worst_ab, *map(_rel, got, ref))
        for m in range(5):
            for z in (1.0 + 0j, 1.05 + 0.02j, 1.3 + 0.4j, 0.4 + 0.6j, 2.1 + 0j,
                      1.0 + 1.1j):
                got = inhom._scorer_contour(u, z, m, variant)
                ref, = _ring_sum(ref_scorer, z,
                                 _scorer_values(ref_scorer, u, m, variant))
                worst_scorer = max(worst_scorer, _rel(got, ref))
    assert worst_ab <= 1e-6 and worst_scorer <= 1e-12, (worst_ab, worst_scorer)


# ----------------------------------------------------------------------
# memory: geometry keyed on the variant only
# ----------------------------------------------------------------------

def test_geometry_cache_stays_finite_over_a_u_sweep():
    tp._ring_geometry.cache_clear()
    zs = (1.05 + 0.05j, 1.3 + 0.4j, 0.6 - 0.2j, 1.9 + 0.3j)
    for i, u in enumerate(np.linspace(10.0, 300.0, 1000)):
        variant = ("PCF-", "WEB+")[i % 2]
        z = zs[i % len(zs)]
        tp._ab_cauchy(u, 1.05 + 0.05j, 3, variant)
        inhom._scorer_contour(u, z, 2, variant)
    info = tp._ring_geometry.cache_info()
    assert info.currsize == info.misses <= 2


def test_no_cache_is_keyed_on_u():
    # every module-level cache of the package is bounded and none is keyed
    # on u (a sweep in u would grow it by one entry per call)
    names = [m.name for m in pkgutil.iter_modules(parcyl.__path__)]
    assert {"tp", "inhom", "airy", "quadrature"} <= set(names)
    for modname in names:
        mod = importlib.import_module(f"parcyl.{modname}")
        for name, fn in vars(mod).items():
            if callable(fn) and hasattr(fn, "cache_info"):
                assert "u" not in inspect.signature(fn).parameters, name
                assert fn.cache_parameters()["maxsize"] is not None, name


# ----------------------------------------------------------------------
# per-point caches: the direct geometry and the error estimate's moments
# ----------------------------------------------------------------------

def _omega_varpi_ref(n, u, batches, derivs, weight):
    """The omega/varpi template summed at one u, batch by batch, as the
    turning-point estimate once did on every call."""
    omega = varpi = 0.0
    for x, dxw in batches:
        d = derivs(x)
        absd = np.abs(dxw)
        wfac = weight(x)
        omega += 2.0 * float(np.sum(np.abs(d[n]) * absd))
        for s in range(1, n):
            inner = sum(d[k] * d[s + n - k - 1] for k in range(s, n))
            omega += u ** (-s) * float(np.sum(np.abs(inner) * wfac * absd))
        for s in range(n - 1):
            varpi += 4.0 * u ** (-s) * float(np.sum(np.abs(d[s + 1]) * absd))
    return omega, varpi


def _ab_est_err_ref(u, z, m):
    """tp._ab_est_err rebuilt from scratch at every u: both estimate paths,
    their beta and xi images, every integral and the envelope geometry."""
    n = 2 * m + 2
    t = get_tables()
    try:
        path_j = plane.monotone_path(z, "+inf", "PCF-")
        path_k = plane.monotone_path(z, "+iinf" if z.imag >= 0 else "-iinf", "PCF-")
        e_vals = []
        for path, dlt in ((path_j, 0.0), (path_k, constants.delta_n_pm(u, n))):
            segs, xi_nodes = tp._beta_image_minus(path)
            om, vp = _omega_varpi_ref(
                n, u, segs, lambda p: evaluate(t.rows["E_d"], p, 0, n + 1),
                lambda p: np.abs(1.0 - p * p) ** 2)
            coef = [(-1) ** (k + 1) * float(t.airy.a[k]) for k in range(n + 1)]
            gm, bt = _omega_varpi_ref(
                n, u, xi_nodes,
                lambda xi: [c * xi ** (-k - 1) for k, c in enumerate(coef)],
                lambda xi: 1.0)
            xi_far = max(float(np.max(np.abs(xi[:, 0]))) for xi, _ in xi_nodes)
            gm = gm + 2.0 * float(t.airy.a[n]) / (n * xi_far ** n)
            e = u ** n * dlt \
                + om * math.exp(min(vp / u + om * u ** (-n), 60.0)) \
                + gm * math.exp(min(bt / u + gm * u ** (-n), 60.0))
            e_vals.append(min(e, 1e30))
        g = tp._geometry([z], "PCF-", min(2 * m + 1, t.s_max))
        sums = tp._mod_sums(g, u, m)
        re_sum = float(sum(abs(s[0]) for s in sums))
        env = math.exp(min(re_sum, 50.0))
        e_j, e_k = e_vals
        bound = u ** (-n) * env * (
            e_j * (1.0 + e_j / (2.0 * u ** n)) ** 2
            + e_k * (1.0 + e_k / (2.0 * u ** n)) ** 2)
        return bound + tp.EPS_CONST_MARGIN * u ** (-n)
    except (plane.NoPath, ValueError) as exc:
        raise DomainError("no error estimate") from exc


#: the Cauchy-zone estimate point; direct points in both half planes; real
#: points; points of Z within TP_CLEARANCE of -1, where no estimate path
#: exists and the estimate is refused
EST_POINTS = (1.0 + tp.CAUCHY_RADIUS, 1.5 + 0.5j, 0.4 + 0.6j, -0.5 + 0.3j,
              1.3 - 0.4j, 2.5 - 1.0j, -0.3 - 0.8j, 0.4, 2.0, -0.9,
              -0.9 + 0.1j, -0.9999, -0.99999, -0.9995 - 0.0001j)


def _single_batch(z):
    ends = ("+inf", "+iinf" if z.imag >= 0 else "-iinf")
    try:
        paths = [plane.monotone_path(z, end, "PCF-") for end in ends]
    except plane.NoPath:
        return True
    return all(len(p.vertices) - 1 <= quadrature.BATCH_SEGMENTS for p in paths)


# on a path of one batch the moments are the reference's products summed in
# the reference's order, so the figure is bit-identical.  Over several
# batches each power's sum is reordered; a last-bit change of a sum is
# then amplified by the estimate's exponents (up to 60 per path and 50 for
# the envelope), so the figure agrees to 1e-13 instead
@pytest.mark.parametrize("batch_segments", [quadrature.BATCH_SEGMENTS, 1])
def test_cached_estimate_matches_the_rebuilt_one(monkeypatch, batch_segments):
    monkeypatch.setattr(quadrature, "BATCH_SEGMENTS", batch_segments)
    tp._est_moments.cache_clear()
    rng = np.random.default_rng(1505)
    refusals = 0
    for z in map(complex, EST_POINTS):
        single = _single_batch(z)
        for m in range(6):
            for u in rng.uniform(5.0, 300.0, 4):
                try:
                    ref = _ab_est_err_ref(u, z, m)
                except DomainError:
                    with pytest.raises(DomainError):
                        tp._ab_est_err(u, z, m)
                    refusals += 1
                    continue
                got = tp._ab_est_err(u, z, m)
                if single:
                    assert got == ref, (z, m, u)
                else:
                    assert abs(got - ref) <= 1e-13 * ref, (z, m, u, got / ref - 1)
    assert refusals == 3 * 6 * 4
    tp._est_moments.cache_clear()


def test_point_caches_stay_bounded_over_a_sweep():
    tp._point_geometry.cache_clear()
    tp._est_moments.cache_clear()
    rng = np.random.default_rng(2024)
    # 300 direct points of the right half plane, each met about three times
    pts = 1.0 + rng.uniform(0.3, 1.5, 300) * np.exp(1j * rng.uniform(-1.2, 1.2, 300))
    for u, z, variant in zip(rng.uniform(5.0, 300.0, 1000), rng.choice(pts, 1000),
                             rng.choice(["PCF-", "WEB+"], 1000)):
        tp.tp_coeff_funcs(u, z, 3, variant)
    for cache in (tp._point_geometry, tp._est_moments):
        info = cache.cache_info()
        assert info.currsize <= info.maxsize and info.hits > 0, info


def test_cached_geometry_is_read_only():
    co = tp.tp_coeff_funcs(20.0, 1.5 + 0.5j, 3)
    geoms = (tp._ring_geometry("PCF-"), tp._point_geometry(1.5 + 0.5j, "PCF-", 3),
             tp._est_moments(1.5 + 0.5j, 3)[1])
    for g in geoms:
        for name in ("points", "zeta", "root_a", "root_b", "plain", "tilde"):
            with pytest.raises(ValueError):
                getattr(g, name)[0] = 0.0
    assert tp.tp_coeff_funcs(20.0, 1.5 + 0.5j, 3) == co
