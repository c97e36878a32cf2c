"""Exact generation of all expansion coefficients.

Families:
  Ebar_s  -- LG coefficients for the z^2+1 equation (positive parameter),
  Etilde_s -- derivative-equation analogues,
  E_s     -- LG coefficients for the z^2-1 equation; satisfies E_s = (-1)^s Ebar_s,
  a_s / atilde_s -- scalar sequences entering the turning-point coefficients,
  G_{s,R}, Gbar_{s,R} -- rational coefficients of the inhomogeneous series,
  G*_{s,R} -- analytic parts of G_{s,R} at z = 1.

Everything is exact rational arithmetic; floats only appear at evaluation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .errors import ConsistencyError, OrderError, TurningPointError
from .plane import beta_map, xi_zeta
from .ratpoly import RationalFunc, RationalPoly

#: default table depth; supports expansion orders n, m up to 6
DEFAULT_S_MAX = 12

#: largest supported forcing degree z^R
R_MAX = 16

# (1-p^2)^2, the weight in the coefficient recursions
_W = RationalPoly.make([1, 0, -1]) * RationalPoly.make([1, 0, -1])


def _sigma(s: int) -> Fraction:
    # integration constant: 1 for odd s, 0 for even s
    return Fraction(1) if s % 2 == 1 else Fraction(0)


def _gen_lg_family(e1: RationalPoly, e2: RationalPoly, s_max: int,
                   plus_sign: bool) -> list[RationalPoly]:
    """Shared recursion: E_{s+1} = -+(1/2) W E_s' -+ (1/2) int_{sigma(s)} W * conv."""
    if s_max < 1:
        raise OrderError("s_max must be >= 1")
    sgn = Fraction(1) if plus_sign else Fraction(-1)
    fam: list[RationalPoly] = [RationalPoly.zero(), e1]
    if s_max >= 2:
        fam.append(e2)
    derivs = [p.deriv() for p in fam]
    for s in range(2, s_max):
        first = (_W * derivs[s]).scale(sgn / 2)
        conv = RationalPoly.zero()
        for j in range(1, s):
            conv = conv + derivs[j] * derivs[s - j]
        anti = (_W * conv).antideriv()
        integral = anti + RationalPoly.make([-anti(_sigma(s))])
        nxt = first + integral.scale(sgn / 2)
        fam.append(nxt)
        derivs.append(nxt.deriv())
    return fam


def gen_Ebar(s_max: int) -> list[RationalPoly]:
    """Ebar_1..Ebar_s_max (index 0 is the zero polynomial)."""
    e1 = RationalPoly.make([0, Fraction(6, 24), 0, Fraction(-5, 24)])
    e2 = (_W * RationalPoly.make([-2, 0, 5])).scale(Fraction(1, 16))
    fam = _gen_lg_family(e1, e2, s_max, plus_sign=False)
    _check_parity(fam, "Ebar")
    return fam


def gen_Etilde(s_max: int) -> list[RationalPoly]:
    """Etilde family: seeds b(7b^2-6)/24 and (1-b^2)^2 (2-7b^2)/16."""
    e1 = RationalPoly.make([0, Fraction(-6, 24), 0, Fraction(7, 24)])
    e2 = (_W * RationalPoly.make([2, 0, -7])).scale(Fraction(1, 16))
    fam = _gen_lg_family(e1, e2, s_max, plus_sign=False)
    _check_parity(fam, "Etilde")
    return fam


def gen_E(s_max: int, ebar: list[RationalPoly]) -> list[RationalPoly]:
    """E family for the z^2-1 equation; verified against E_s = (-1)^s Ebar_s,
    where `ebar` is gen_Ebar(s_max)."""
    e1 = RationalPoly.make([0, Fraction(-6, 24), 0, Fraction(5, 24)])
    e2 = (_W * RationalPoly.make([-2, 0, 5])).scale(Fraction(1, 16))
    fam = _gen_lg_family(e1, e2, s_max, plus_sign=True)
    for s in range(1, min(s_max + 1, len(fam))):
        if (fam[s] - ebar[s].scale(Fraction((-1) ** s))).coeffs:
            raise ConsistencyError(f"E_s != (-1)^s Ebar_s at s={s}")
    _check_parity(fam, "E")
    return fam


def _check_parity(fam: list[RationalPoly], name: str) -> None:
    for s in range(1, len(fam)):
        p = fam[s].parity()
        if p is not None and p != s % 2:
            raise ConsistencyError(f"{name}_{s} has wrong parity")
        if p is None:
            raise ConsistencyError(f"{name}_{s} has mixed parity")
        if s % 2 == 0 and fam[s](Fraction(1)) != 0:
            raise ConsistencyError(f"{name}_{s}(1) != 0 for even s")


class AirySeq:
    """Scalar sequences a_s, atilde_s with a_1=a_2=5/72, at_1=at_2=-7/72."""

    def __init__(self, s_max: int):
        if s_max < 2:
            raise OrderError("s_max must be >= 2 for the scalar sequences")
        self.a = self._run(Fraction(5, 72), s_max)
        self.a_tilde = self._run(Fraction(-7, 72), s_max)

    @staticmethod
    def _run(seed: Fraction, s_max: int) -> list[Fraction]:
        b = [Fraction(0), seed, seed]
        for s in range(2, s_max):
            nxt = Fraction(s + 1, 2) * b[s]
            acc = Fraction(0)
            for j in range(1, s):
                acc += b[j] * b[s - j]
            b.append(nxt + acc / 2)
        return b[: s_max + 1]


def gen_airy_seq(s_max: int) -> AirySeq:
    return AirySeq(s_max)


def gen_G(s_max: int, R: int, variant: str) -> list[RationalFunc]:
    """G_{0,R}..G_{s_max,R} for variant 'plus' ((z^2+1) poles) or 'minus'."""
    if R < 0 or R > R_MAX:
        raise OrderError(f"forcing degree R={R} outside [0, {R_MAX}]")
    sign = +1 if variant == "plus" else -1
    num = RationalPoly.make([0] * R + [-1])  # -z^R
    g = [RationalFunc(num, 1, sign)]
    for _ in range(s_max):
        g.append(g[-1].recurse())
    for s, gs in enumerate(g):
        if gs.pole_power != 3 * s + 1:
            raise ConsistencyError("pole order must grow by 3 per step")
        if gs.decay_order() > R - 2 - 4 * s:
            raise ConsistencyError("G_{s,R} decay order too slow")
    return g


def analytic_part_G(s: int, R: int) -> RationalFunc:
    """G*_{s,R}: G_{s,R} minus its principal part at z = 1 (minus variant).

    Returned as M(z)/(z+1)^{3s+1}, exact, with the z=1 pole removed by exact
    polynomial division (stable arbitrarily close to the turning point).
    """
    g = get_tables().G(R, "minus")[s]
    k = g.pole_power
    n = g.numerator
    # principal part coefficients: N(z)/(z+1)^k about z=1, Taylor to order k-1
    # G = N / ((z-1)^k (z+1)^k); PP_j = H^{(j)}(1)/j! with H = N/(z+1)^k
    # Build H-series at z=1 via series division.
    num_ser = list(n.shift_eval_series(Fraction(1), k))
    den_ser = _binom_series_at_one(k)
    h_ser = _series_div(num_ser, den_ser, k)
    # G* numerator: N(z) - sum_j h_j (z-1)^j (z+1)^k, divisible by (z-1)^k
    zp1k = _pow_poly(RationalPoly.make([1, 1]), k)
    acc = n
    zm1j = RationalPoly.make([1])
    for j in range(k):
        acc = acc - (zm1j * zp1k).scale(h_ser[j])
        zm1j = zm1j * RationalPoly.make([-1, 1])
    m = _exact_div(acc, _pow_poly(RationalPoly.make([-1, 1]), k))
    return RationalFunc(m, 0, +1) if k == 0 else _OnePlusPow(m, k)


class _OnePlusPow(RationalFunc):
    """M(z)/(z+1)^k -- analytic at z=1, pole only at z=-1."""

    def __init__(self, numerator: RationalPoly, power: int):
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "pole_power", power)
        object.__setattr__(self, "sign", +1)

    def __call__(self, z):
        return self.numerator(z) / (z + 1) ** self.pole_power

    def deriv(self):
        n, k = self.numerator, self.pole_power
        num = n.deriv() * RationalPoly.make([1, 1]) - n.scale(k)
        return _OnePlusPow(num, k + 1)


def _pow_poly(p: RationalPoly, k: int) -> RationalPoly:
    out = RationalPoly.make([1])
    for _ in range(k):
        out = out * p
    return out


def _binom_series_at_one(k: int) -> list[Fraction]:
    """Taylor coefficients of (z+1)^k at z=1: sum C(k,j) 2^{k-j} (z-1)^j."""
    return [Fraction(comb(k, j) * 2 ** (k - j)) for j in range(k + 1)]


def _series_div(num: list[Fraction], den: list[Fraction], nterms: int) -> list[Fraction]:
    out = []
    num = list(num) + [Fraction(0)] * nterms
    for j in range(nterms):
        c = num[j] / den[0]
        out.append(c)
        for i in range(len(den)):
            if j + i < len(num):
                num[j + i] -= c * den[i]
    return out


def _exact_div(p: RationalPoly, q: RationalPoly) -> RationalPoly:
    """Exact polynomial division p/q (remainder must vanish)."""
    rem = list(p.coeffs)
    qc = q.coeffs
    dq = len(qc) - 1
    out = [Fraction(0)] * max(len(rem) - dq, 0)
    for i in range(len(rem) - 1, dq - 1, -1):
        c = rem[i] / qc[-1]
        out[i - dq] = c
        for j, b in enumerate(qc):
            rem[i - dq + j] -= c * b
    if any(r != 0 for r in rem):
        raise ConsistencyError("inexact polynomial division in analytic part")
    return RationalPoly(tuple(out))


class CoeffTables:
    """Immutable bundle of all generated tables for a given depth."""

    def __init__(self, s_max: int = DEFAULT_S_MAX):
        self.s_max = s_max
        self.Ebar = gen_Ebar(s_max)
        self.Etilde = gen_Etilde(s_max)
        self.E = gen_E(s_max, self.Ebar)
        self.airy = gen_airy_seq(max(s_max, 2))
        self.Ebar_d = [p.deriv() for p in self.Ebar]
        self.Etilde_d = [p.deriv() for p in self.Etilde]
        self.E_d = [p.deriv() for p in self.E]
        self._g_cache: dict[tuple[int, str], list[RationalFunc]] = {}
        self._gstar_cache: dict[tuple[int, int], RationalFunc] = {}
        self._at_1: dict[str, tuple[Fraction, ...]] = {}

    def G(self, R: int, variant: str, s_max: int | None = None) -> list[RationalFunc]:
        key = (R, variant)
        need = (s_max if s_max is not None else self.s_max) + 1
        if key not in self._g_cache or len(self._g_cache[key]) < need + 1:
            self._g_cache[key] = gen_G(max(need, self.s_max + 1), R, variant)
        return self._g_cache[key]

    def G_star(self, s: int, R: int) -> RationalFunc:
        key = (s, R)
        if key not in self._gstar_cache:
            self._gstar_cache[key] = analytic_part_G(s, R)
        return self._gstar_cache[key]

    # values at beta = 1, used in every turning-point prefactor; exact,
    # computed on first use and kept
    def _odd_at_1(self, name: str, m: int) -> list[Fraction]:
        if 2 * m + 1 > self.s_max:
            raise OrderError(f"tables too shallow for m={m}")
        vals = self._at_1.get(name)
        if vals is None:
            fam = getattr(self, name)
            vals = self._at_1[name] = tuple(
                fam[s](Fraction(1)) for s in range(1, self.s_max + 1, 2))
        return list(vals[: m + 1])

    def E_odd_at_1(self, m: int) -> list[Fraction]:
        """[E_1(1), E_3(1), ..., E_{2m+1}(1)]."""
        return self._odd_at_1("E", m)

    def Ebar_odd_at_1(self, m: int) -> list[Fraction]:
        return self._odd_at_1("Ebar", m)


@lru_cache(maxsize=1)
def _default_tables() -> CoeffTables:
    return CoeffTables(DEFAULT_S_MAX)


def get_tables() -> CoeffTables:
    """The process-wide tables, built on first use.  A plain function over
    the cache, because perfbench's tracer times plain functions only."""
    return _default_tables()


def modified_coeff(s: int, z: complex, kind: str,
                   xi: complex | None = None, beta: complex | None = None) -> complex:
    """Modified coefficient E_s(beta) + (-1)^s a_s s^{-1} xi^{-s} (and tilde).

    xi and beta may be passed explicitly when the caller owns the branch
    (upper-side conventions on the oscillatory interval); otherwise the
    principal values from the plane module are used.  Raises near the
    turning point where xi vanishes.
    """
    if xi is None:
        xi, _ = xi_zeta(z)
    if beta is None:
        beta = beta_map(z, "PCF-")
    if abs(xi) < 1e-8:
        raise TurningPointError("modified coefficient singular: |xi| < 1e-8")
    t = get_tables()
    if s > t.s_max:
        raise OrderError(f"s={s} beyond generated depth {t.s_max}")
    # both kinds share the E_s polynomials; the scalar sequence differs
    if kind == "E":
        seq = t.airy.a[s]
    elif kind == "Etilde":
        seq = t.airy.a_tilde[s]
    else:
        raise ValueError("kind must be 'E' or 'Etilde'")
    return t.E[s](complex(beta)) + (-1) ** s * float(seq) / s * complex(xi) ** (-s)
