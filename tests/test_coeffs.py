"""Exact-arithmetic identities of the coefficient tables (zero tolerance),
and their float view against exact evaluation."""

import hashlib
import random
from fractions import Fraction as F
from math import factorial, gcd

import pytest

import numpy as np

from parcyl import coeffs
from parcyl.coeffs import (CoeffTables, FloatRows, evaluate, gen_Ebar, gen_G,
                           get_tables, modified_coeff)
from parcyl.errors import OrderError, TurningPointError
from parcyl.inhom import inhom_series
from parcyl.ratpoly import RationalPoly

S_MAX = 12

#: sha256 of `_table_lines`, recorded when the tables were built on one
#: Fraction per coefficient; any change to an exact coefficient moves it
TABLE_DIGEST = "0a84054e06c48f27451e8329c54158fe33a6497703abad782439acd6669400ae"


@pytest.fixture(scope="module")
def tables():
    return get_tables()


def test_seed_values(tables):
    # first coefficients in closed form
    assert tables.Ebar[1](F(1)) == F(1, 24)
    assert tables.Ebar[1](F(1, 2)) == F(1, 2) * (6 - F(5, 4)) / 24
    assert tables.Etilde[1](F(1)) == F(1, 24)
    assert tables.E[1](F(1)) == F(-1, 24)
    assert tables.Ebar[2](F(0)) == F(-2, 16)
    assert tables.E[2](F(0)) == F(-2, 16)


def test_parity_and_normalization(tables):
    for fam in (tables.Ebar, tables.Etilde, tables.E):
        for s in range(1, S_MAX + 1):
            assert fam[s].parity() == s % 2
            if s % 2 == 0:
                assert fam[s](F(1)) == 0
            else:
                assert fam[s](F(0)) == 0


def test_reflection_identity(tables):
    # E_s = (-1)^s Ebar_s, exactly, all generated orders
    for s in range(1, S_MAX + 1):
        assert tables.E[s].coeffs == tables.Ebar[s].scale(F((-1) ** s)).coeffs


def test_chi_series_termwise(tables):
    # the two odd-coefficient-at-1 series agree exactly term by term
    for s in range(0, S_MAX // 2):
        assert tables.Etilde[2 * s + 1](F(1)) == tables.Ebar[2 * s + 1](F(1))


def test_degree_bound(tables):
    for s in range(1, S_MAX + 1):
        assert tables.Ebar[s].degree <= 3 * s


def test_airy_sequences(tables):
    a, at = tables.airy.a, tables.airy.a_tilde
    assert a[1] == F(5, 72) and a[2] == F(5, 72)
    assert at[1] == F(-7, 72) and at[2] == F(-7, 72)
    # one recursion step by hand
    assert a[3] == F(3, 2) * a[2] + F(1, 2) * a[1] * a[1]
    assert a[3] == F(1105, 10368)


def test_G_generation(tables):
    g = gen_G(6, 0, "plus")
    assert g[0](F(0)) == F(-1)              # Gbar_{0,0}(0) = -1
    assert g[1](F(0)) == F(2)               # (2 - 6 z^2)/(z^2+1)^4 at 0
    # full check of the printed form of Gbar_{1,0}
    assert g[1].numerator.coeffs == (F(2), F(0), F(-6))
    assert g[1].pole_power == 4
    gm = gen_G(6, 1, "minus")
    assert gm[0](F(0)) == 0                 # numerator z vanishes
    for s, gs in enumerate(g):
        assert gs.pole_power == 3 * s + 1
        assert gs.decay_order() <= 0 - 2 - 4 * s


def test_analytic_part(tables):
    # s=0, R=0: analytic part of -1/(z^2-1) at z=1 is 1/(2(z+1))
    gstar = tables.G_star(0, 0)
    assert gstar(F(1)) == F(1, 4)
    assert gstar(F(3)) == F(1, 8)
    # residue removal: G - G* equals the principal part -1/(2(z-1))
    g = tables.G(0, "minus")[0]
    z = F(7, 5)
    assert g(z) - gstar(z) == -F(1, 2) / (z - 1)


def test_analytic_part_higher_order(tables):
    # pole removal at higher s: value stays finite approaching z = 1
    gstar = tables.G_star(1, 0)
    near = gstar(F(1) + F(1, 10 ** 8))
    at = gstar(F(1))
    assert abs(float(near - at)) < 1e-6


def test_modified_coeff_assembly(tables):
    from parcyl.plane import beta_map, xi_zeta

    z = 2.0
    xi, _ = xi_zeta(z)
    val = modified_coeff(1, z, "E")
    beta = beta_map(z, "PCF-")
    expect = evaluate(tables.rows["E"], complex(beta), 1, 2)[0] \
        - float(tables.airy.a[1]) / xi
    assert val == pytest.approx(expect, rel=1e-14)
    # real on the real axis beyond the turning point
    assert abs(modified_coeff(2, 3.0, "E").imag) < 1e-14


def test_modified_coeff_guard():
    with pytest.raises(TurningPointError):
        modified_coeff(1, 1.0 + 1e-12, "E")
    for s in (0, 99, 2.5):
        with pytest.raises(OrderError):
            modified_coeff(s, 2.0, "E")


def test_generation_depth_guard():
    with pytest.raises(OrderError):
        gen_Ebar(0)


def test_airy_seq_matches_poincare_constants(tables):
    """The scalar sequence reproduces the classical Airy asymptotic
    constants through the exponent/product correspondence
    exp(sum (-1)^s a_s/(s xi^s)) = sum (-1)^k u_k xi^{-k} + O(xi^{-8}),
    with u_k from their own independent recursion."""
    uk = [1.0]
    for k in range(1, 8):
        uk.append(uk[-1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1)
                  / ((2 * k - 1) * 216.0 * k))
    import math

    def exp_form(xi):
        return math.exp(sum((-1) ** s * float(tables.airy.a[s]) / (s * xi ** s)
                            for s in range(1, 8)))

    def u_form(xi):
        return sum((-1) ** k * uk[k] / xi ** k for k in range(8))

    d30 = abs(exp_form(30.0) - u_form(30.0))
    d60 = abs(exp_form(60.0) - u_form(60.0))
    assert d30 < 1e-12
    # the residual decays at least like xi^{-8}
    assert d60 < d30 / 2 ** 7


def _table_lines(t):
    """str() of every coefficient of Ebar/Etilde/E (s <= 12), of G(R, v) for
    R <= 16 and both variants, and of G*(s, R) for s <= 4, R <= 16."""
    for name in ("Ebar", "Etilde", "E"):
        for s in range(1, 13):
            yield f"{name} {s}: " + " ".join(map(str, getattr(t, name)[s].coeffs))
    for R in range(17):
        for v in ("plus", "minus"):
            for s, g in enumerate(t.G(R, v)):
                yield (f"G {R} {v} {s} {g.pole_power}: "
                       + " ".join(map(str, g.numerator.coeffs)))
    for s in range(5):
        for R in range(17):
            g = t.G_star(s, R)
            yield f"G* {s} {R} {g.pole_power}: " + " ".join(map(str, g.numerator.coeffs))


def _digest(t) -> str:
    h = hashlib.sha256()
    for line in _table_lines(t):
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def test_tables_digest(tables):
    assert _digest(tables) == TABLE_DIGEST


def test_tables_digest_after_the_deepest_series(tables):
    # an order-s_max series reads row s_max of G and G': the tables keep
    # their one depth, so the digest does not depend on which calls came first
    inhom_series(20.0, 2 + 1j, S_MAX, 0)
    assert all(len(tables.G(R, v)) == S_MAX + 2
               for R in range(17) for v in ("plus", "minus"))
    assert _digest(tables) == TABLE_DIGEST


def test_G_star_reduces_the_tables_own_G(monkeypatch):
    # a table deeper than the process-wide one has its own G*_{s,R} rows,
    # and reading them never builds the process-wide tables
    def forbidden():
        raise AssertionError("the process-wide tables were read")

    monkeypatch.setattr(coeffs, "get_tables", forbidden)
    deep = CoeffTables(16)
    rows = deep.G_star_rows(0, 14)
    assert len(rows.coeffs) == 15
    g, gstar = deep.G(0, "minus")[14], deep.G_star(14, 0)
    k = g.pole_power
    assert gstar.pole_power == k == 43
    # G - G* is the principal part at z = 1, with no pole at z = -1: with
    # G = N/(z^2-1)^k and G* = M/(z+1)^k, N - M (z-1)^k vanishes at -1
    assert g.numerator(F(-1)) == gstar.numerator(F(-1)) * (-2) ** k
    CoeffTables(6).G_star(1, 2)


def test_derivative_and_endpoint_tables(tables):
    for R in (0, 3):
        for v in ("plus", "minus"):
            # G' is kept only as the float view of each G_s.deriv()
            g, g_d = tables.G(R, v), tables.G_rows(R, v)[1]
            derivs = [gs.deriv() for gs in g]
            assert g_d.coeffs == tuple(tuple(map(float, d.numerator.coeffs))
                                       for d in derivs)
            assert g_d.poles == tuple(d.pole_power for d in derivs)
    for name in ("Ebar", "Etilde", "E"):
        fam = getattr(tables, name)
        assert tables.ends[name] == tuple((float(p(F(-1))), float(p(F(1))))
                                          for p in fam)
    for name in ("Ebar", "E"):
        fam = getattr(tables, name)
        assert tables.odd_at_1[name] == tuple(float(fam[s](F(1)))
                                              for s in range(1, S_MAX + 1, 2))


# ----------------------------------------------------------------------
# the float view of the tables
# ----------------------------------------------------------------------

def _exact_views(t):
    """(float rows, exact entries, base) of every family of the view; base
    is None for polynomial rows, else the exact base of the poles."""
    for name in ("Ebar", "Etilde", "E"):
        fam = getattr(t, name)
        yield t.rows[name], fam, None
        yield t.rows[name + "_d"], [p.deriv() for p in fam], None
    for R in (0, 5, 16):
        for v in ("plus", "minus"):
            g, g_d = t.G_rows(R, v)
            sign = 1 if v == "plus" else -1
            yield g, t.G(R, v), lambda x, sign=sign: x * x + sign
            yield g_d, [gs.deriv() for gs in t.G(R, v)], \
                lambda x, sign=sign: x * x + sign
        yield t.G_star_rows(R, 4), [t.G_star(s, R) for s in range(5)], lambda x: x + 1


def test_float_view_rounds_every_coefficient(tables):
    for rows, exact, base in _exact_views(tables):
        assert len(rows.coeffs) == len(exact)
        for k, e in enumerate(exact):
            num = e if base is None else e.numerator
            assert rows.coeffs[k] == tuple(map(float, num.coeffs))
            if base is not None:
                assert rows.poles[k] == e.pole_power
    assert tables.seq == {"a": tuple(map(float, tables.airy.a)),
                          "a_tilde": tuple(map(float, tables.airy.a_tilde))}


def _gauss_eval(coeffs, x):
    """Exact value of the polynomial at the complex float x, as a pair of
    Fractions, and sum |c_k| |x|^k."""
    a, b = F(x.real), F(x.imag)
    vr = vi = F(0)
    for c in reversed(coeffs):
        vr, vi = vr * a - vi * b + c, vr * b + vi * a
    return complex(vr, vi), sum(abs(c) * abs(x) ** k for k, c in enumerate(coeffs))


@pytest.mark.parametrize("seed", range(3))
def test_float_view_matches_exact_complex_evaluation(tables, seed):
    rng = random.Random(seed)
    eps = 2.0 ** -52
    xs = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4)]
    for rows, exact, base in _exact_views(tables):
        # at each scalar node, and at all of them as one array
        n = len(exact)
        arr = evaluate(rows, np.array(xs), 0, n)
        for i, x in enumerate(xs):
            got = evaluate(rows, x, 0, n)
            for k, e in enumerate(exact):
                num = e if base is None else e.numerator
                ref, size = _gauss_eval(num.coeffs, x)
                tol = 4 * eps * float(size)
                if base is not None:
                    # the numerator to a few ulps of its size, then one
                    # rounding per multiplication of the power
                    den = complex(base(x)) ** e.pole_power
                    ref /= den
                    tol = tol / abs(den) + 4 * e.pole_power * eps * abs(ref)
                assert abs(got[k] - ref) <= tol, (k, x)
                assert abs(arr[k][i] - ref) <= tol, (k, x)


def test_float_view_rows_by_range(tables):
    rows = tables.rows["Ebar"]
    x = 0.3 + 0.2j
    assert evaluate(rows, x, 3, 7) == evaluate(rows, x, 0, 13)[3:7]
    assert evaluate(rows, x, 5, 5) == []
    assert evaluate(FloatRows(((1.0, 2.0),)), 3.0, 0, 1) == [7.0]
    assert evaluate(FloatRows(((1.0,),), (2,), False, 1), 3.0, 0, 1) == [1 / 16]


def _per_row(rows, x, lo, hi):
    """Horner's rule row by row: the loop the stacked evaluation replaces."""
    out = []
    for k in range(lo, hi):
        v = 0.0 * x
        for c in reversed(rows.coeffs[k]):
            v = v * x + c
        if rows.poles:
            v = v / ((x * x if rows.square else x) + rows.shift) ** rows.poles[k]
        out.append(v)
    return out


@pytest.mark.parametrize("shape", [(32,), (3, 32), (128, 32)])
def test_stacked_evaluation_matches_the_per_row_loop_bit_for_bit(tables, shape):
    rng = np.random.default_rng(31)
    g, g_d = tables.G_rows(3, "plus")
    views = [(tables.rows["E_d"], 0, 9),
             # rows of unequal length from lo > 0
             (tables.rows["Ebar"], 2, 7), (tables.rows["Etilde_d"], 5, 6),
             # rational rows: G and G' over (x^2 +- 1)^pole, G* over (x + 1)^pole
             (g, 1, 5), (g_d, 0, 4), (tables.G_rows(2, "minus")[0], 2, 4),
             (tables.G_star_rows(3, 4), 0, 5),
             # lengths out of order, and a row without coefficients
             (FloatRows(((1.0, 2.0, 3.0), (4.0,), (), (0.5, -1.0))), 0, 4)]
    nodes = (rng.uniform(-1.5, 1.5, shape) + 1j * rng.uniform(-1.5, 1.5, shape),
             rng.uniform(0.2, 1.5, shape))
    for x in nodes:
        for rows, lo, hi in views:
            got = evaluate(rows, x, lo, hi)
            assert got.shape == (hi - lo,) + shape
            for k, ref in enumerate(_per_row(rows, x, lo, hi)):
                assert got[k].dtype == ref.dtype
                assert np.array_equal(got[k].view(np.uint64),
                                      ref.view(np.uint64)), (lo + k, x.dtype)


def _library_views(tables):
    """Every float view whose rows the library evaluates on node arrays,
    with the row ranges it asks for: the LG derivative families at orders
    1..12 (omega/varpi and the turning-point estimate), E_1..E_s of the
    turning-point geometry, and single rows of G and G' (inhom bounds)."""
    s_max = tables.s_max
    for name in ("Ebar_d", "Etilde_d", "E_d"):
        yield tables.rows[name], [(0, n + 1) for n in range(1, s_max + 1)]
    yield tables.rows["E"], [(1, s + 1) for s in range(1, s_max + 1)]
    for variant in ("plus", "minus"):
        for R in (0, 3, 16):
            for rows in tables.G_rows(R, variant):
                yield rows, [(n, n + 1) for n in range(8)]


@pytest.mark.parametrize("real", [False, True])
def test_every_library_row_range_is_the_per_row_loop_bit_for_bit(tables, real):
    # one Horner schedule per table, sliced to the rows asked for: each row
    # keeps the bits it has alone, for every range the library evaluates
    rng = np.random.default_rng(33)
    x = rng.uniform(-1.5, 1.5, 64)
    if not real:
        x = x + 1j * rng.uniform(-1.5, 1.5, 64)
    for rows, ranges in _library_views(tables):
        for lo, hi in ranges:
            got = evaluate(rows, x, lo, hi)
            for k, ref in enumerate(_per_row(rows, x, lo, hi)):
                assert np.array_equal(got[k].view(np.uint64),
                                      ref.view(np.uint64)), (lo + k, lo, hi)


def test_horner_schedule_is_read_only(tables):
    steps = tables.rows["E_d"]._steps
    with pytest.raises(ValueError):
        steps[0, 0, 0] = 1.0


def test_exact_tables_refuse_float_input(tables):
    p = tables.Ebar[3]
    for f in (p, tables.G(2, "plus")[1], tables.G_star(1, 2)):
        for x in (0.5, 0.5 + 1j, np.array([0.5, 1.0]), np.float64(0.5)):
            with pytest.raises(TypeError):
                f(x)
        assert isinstance(f(F(1, 3)), F) and isinstance(f(2), F)


# ----------------------------------------------------------------------
# the integer-backed RationalPoly against plain Fraction arithmetic
# ----------------------------------------------------------------------

def _trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _ref_mul(a, b):
    out = [F(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _ref_add(a, b, sign=1):
    n = max(len(a), len(b))
    a, b = list(a) + [F(0)] * (n - len(a)), list(b) + [F(0)] * (n - len(b))
    return _trim(x + sign * y for x, y in zip(a, b))


def _ref_eval(a, x):
    v = F(0)
    for c in reversed(a):
        v = v * x + c
    return v


def _random_coeffs(rng):
    out = []
    for _ in range(rng.randint(0, 12)):
        kind = rng.random()
        if kind < 0.2:
            out.append(F(0))
        elif kind < 0.3:
            out.append(F(rng.randint(-10 ** 40, 10 ** 40), rng.randint(1, 10 ** 30)))
        else:
            out.append(F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 4)))
    return out


def _canonical(p):
    return (not p.nums or p.nums[-1] != 0) and p.den > 0 \
        and gcd(p.den, *p.nums) == 1


@pytest.mark.parametrize("seed", range(8))
def test_ratpoly_matches_fraction_arithmetic(seed):
    rng = random.Random(seed)
    for _ in range(40):
        ca, cb = _random_coeffs(rng), _random_coeffs(rng)
        a, b = RationalPoly.make(ca), RationalPoly.make(cb)
        ra, rb = _trim(ca), _trim(cb)
        k = F(rng.randint(-50, 50), rng.randint(1, 50))
        x = F(rng.randint(-30, 30), rng.randint(1, 30))
        results = {
            "make": (a, ra),
            "add": (a + b, _ref_add(ra, rb)),
            "sub": (a - b, _ref_add(ra, rb, -1)),
            "mul": (a * b, _ref_mul(ra, rb)),
            "scale": (a.scale(k), _trim(c * k for c in ra)),
            "deriv": (a.deriv(), _trim(c * i for i, c in enumerate(ra))[1:]),
            "antideriv": (a.antideriv(),
                          _trim([F(0)] + [c / (i + 1) for i, c in enumerate(ra)])),
        }
        for op, (got, ref) in results.items():
            assert got.coeffs == ref, op
            assert _canonical(got), op
            same = RationalPoly.make(ref)
            assert got == same and hash(got) == hash(same), op
        assert a(x) == _ref_eval(ra, x) and a(x.numerator) == _ref_eval(ra, x.numerator)
        assert isinstance(a(3), F)
        assert a.degree == len(ra) - 1
        # Taylor coefficients at x are the derivatives over k!
        series, d = a.taylor_shift(x).coeffs + (F(0),) * 2, ra
        for j in range(len(ra) + 2):
            assert series[j] == _ref_eval(d, x) / factorial(j)
            d = _trim(c * i for i, c in enumerate(d))[1:]


def test_ratpoly_parity():
    rng = random.Random(11)
    for _ in range(50):
        c = [F(rng.randint(1, 99), rng.randint(1, 99)) for _ in range(rng.randint(1, 9))]
        even = RationalPoly.make([x if i % 2 == 0 else 0 for i, x in enumerate(c)])
        odd = RationalPoly.make([x if i % 2 == 1 else 0 for i, x in enumerate(c)])
        assert even.parity() == 0
        if len(c) > 1:
            assert odd.parity() == 1
            assert (even + odd).parity() is None
    assert RationalPoly.zero().parity() == 1
