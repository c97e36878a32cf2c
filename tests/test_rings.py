"""Cauchy and Scorer rings: geometry built once per (variant, radius), the
u-dependent part assembled per call."""

import cmath
import inspect
import math

import numpy as np
import pytest

from parcyl import inhom, plane, tp
from parcyl.coeffs import get_tables

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
        return fac(s) * (t.E[s](beta) + (-1) ** s * float(seq[s]) / s * xi ** (-s))

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
    """fn at each node's upper-side representative, conjugated back."""
    out = []
    for t in nodes:
        t = complex(t)
        v = np.array(fn(args[0], t if t.imag >= 0 else t.conjugate(), *args[1:]))
        out.append(v if t.imag >= 0 else v.conj())
    return np.array(out)


def _assert_close(got, ref):
    assert np.all(np.abs(got - ref) <= RTOL * np.abs(ref)), \
        float(np.max(np.abs(got - ref) / np.abs(ref)))


# ----------------------------------------------------------------------
# assembled rings against the reference, node by node
# ----------------------------------------------------------------------

@pytest.mark.parametrize("variant", ["PCF-", "WEB+"])
@pytest.mark.parametrize("u", [10.0, 37.3, 300.0])
def test_cauchy_ring_matches_the_per_node_loop(u, variant):
    for m in range(5):
        tk, Ak, Bk = tp._cauchy_ring(u, m, variant)
        assert len(tk) == tp.CAUCHY_NODES
        ref = _per_node(_ab_ref, tk, u, m, variant)
        _assert_close(Ak, ref[:, 0])
        _assert_close(Bk, ref[:, 1])


@pytest.mark.parametrize("variant", ["PCF-", "WEB+"])
@pytest.mark.parametrize("r0", [0.5, 0.8, 1.2, 1.55])
def test_scorer_ring_matches_the_per_node_loop(r0, variant):
    for u in (10.0, 37.3, 300.0):
        for m in range(5):
            tk, vals = inhom._scorer_ring(u, m, variant, r0)
            assert np.allclose(np.abs(tk - 1.0), r0, rtol=1e-15, atol=0.0)
            _assert_close(vals, _per_node(_scorer_ref, tk, u, m, variant))


def test_ring_nodes_come_in_conjugate_pairs():
    tk, Ak, Bk = tp._cauchy_ring(20.0, 3, "PCF-")
    half = len(tk) // 2
    assert np.all(tk[:half].imag > 0)
    assert np.array_equal(tk[half:], tk[:half].conj())
    assert np.array_equal(Ak[half:], Ak[:half].conj())
    assert np.array_equal(Bk[half:], Bk[:half].conj())


def test_direct_path_matches_the_scalar_loop():
    for variant in ("PCF-", "WEB+"):
        for z in (2.0 + 0j, 0.4 + 0j, 1.5 + 0.5j, 1.3 + 0.2j, -0.5 + 0.3j):
            for m in range(5):
                got = np.array(tp._ab_direct(37.3, z, m, variant))
                _assert_close(got, np.array(_ab_ref(37.3, z, m, variant)))


# ----------------------------------------------------------------------
# memory: geometry keyed on (variant, radius) only
# ----------------------------------------------------------------------

def test_geometry_cache_stays_finite_over_a_u_sweep():
    tp._ring_geometry.cache_clear()
    zs = (1.05 + 0.05j, 1.3 + 0.4j, 0.6 - 0.2j, 1.9 + 0.3j)
    keys = {("PCF-", tp.CAUCHY_RADIUS), ("WEB+", tp.CAUCHY_RADIUS)}
    for i, u in enumerate(np.linspace(10.0, 300.0, 1000)):
        variant = ("PCF-", "WEB+")[i % 2]
        z = zs[i % len(zs)]
        tp._ab_cauchy(u, 1.05 + 0.05j, 3, variant)
        inhom._scorer_contour(u, z, 2, variant)
        keys.add((variant, min(max(0.5, 0.05 * math.ceil((abs(z - 1) + 0.4) / 0.05)), 1.55)))
    info = tp._ring_geometry.cache_info()
    assert info.currsize == info.misses == len(keys) <= tp._GEOMETRY_KEYS


def test_no_cache_is_keyed_on_u():
    for mod in (tp, inhom):
        for name, fn in vars(mod).items():
            if callable(fn) and hasattr(fn, "cache_info"):
                assert "u" not in inspect.signature(fn).parameters, name
