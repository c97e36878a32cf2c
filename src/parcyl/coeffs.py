"""Exact generation of all expansion coefficients, and their float view.

Families:
  Ebar_s  -- LG coefficients for the z^2+1 equation (positive parameter),
  Etilde_s -- derivative-equation analogues,
  E_s     -- LG coefficients for the z^2-1 equation; satisfies E_s = (-1)^s Ebar_s,
  a_s / atilde_s -- scalar sequences entering the turning-point coefficients,
  G_{s,R}, Gbar_{s,R} -- rational coefficients of the inhomogeneous series,
  G*_{s,R} -- analytic parts of G_{s,R} at z = 1.

Everything is exact rational arithmetic on the integer numerators and
common denominators of `RationalPoly`.  The expansions read only the float
view: `FloatRows`, rounded once by `CoeffTables`, and `evaluate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, log
from numbers import Integral

import numpy as np

from .errors import ConsistencyError, OrderError, TurningPointError
from .plane import beta_map, xi_zeta
from .quadrature import STACKED_NODES
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
        if not (fam[s] - ebar[s].scale((-1) ** s)).is_zero():
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


def check_forcing_degree(R: int, hi: float = R_MAX) -> None:
    """OrderError unless the forcing degree R is an integer in [0, hi]
    (the tables go up to R_MAX)."""
    if not isinstance(R, Integral) or not 0 <= R <= hi:
        raise OrderError(f"forcing degree R={R} outside [0, {hi}]")


def check_order(k: int, lo: int, hi: int) -> None:
    """OrderError unless the expansion order k is an integer in [lo, hi]."""
    if not isinstance(k, Integral) or not lo <= k <= hi:
        raise OrderError(f"order {k!r} outside the supported range [{lo}, {hi}]")


def gen_G(s_max: int, R: int, variant: str) -> list[RationalFunc]:
    """G_{0,R}..G_{s_max,R} for variant 'plus' ((z^2+1) poles) or 'minus'."""
    return _gen_G(s_max, R, variant)[0]


def _gen_G(s_max: int, R: int, variant: str
           ) -> tuple[list[RationalFunc], list[RationalFunc]]:
    """G_{0,R}..G_{s_max,R} and their derivatives; each G_s' is a step of
    the recursion G_{s+1} = G_s'' / (z^2 +- 1)."""
    check_forcing_degree(R)
    base = RationalPoly((+1 if variant == "plus" else -1, 0, 1))  # z^2 +- 1
    num = RationalPoly.make([0] * R + [-1])  # -z^R
    g, g_d = [RationalFunc(num, 1, base)], []
    for s in range(s_max + 1):
        g_d.append(g[s].deriv())
        if s < s_max:
            d2 = g_d[s].deriv()
            g.append(RationalFunc(d2.numerator, d2.pole_power + 1, base))
    for s, gs in enumerate(g):
        if gs.pole_power != 3 * s + 1:
            raise ConsistencyError("pole order must grow by 3 per step")
        if gs.decay_order() > R - 2 - 4 * s:
            raise ConsistencyError("G_{s,R} decay order too slow")
    return g, g_d


def analytic_part_G(g: RationalFunc) -> RationalFunc:
    """G*_{s,R}: g = G_{s,R} (minus variant) minus its principal part at
    z = 1.

    Returned as M(z)/(z+1)^{3s+1}, exact, with the z=1 pole removed in
    exact integer arithmetic (stable arbitrarily close to the turning point).
    """
    k = g.pole_power
    # In t = z - 1, G = N(1+t) / (t^k (2+t)^k).  Dividing N(1+t) by (2+t)^k
    # as a power series for k steps leaves N(1+t) - P(t) (2+t)^k, where P is
    # the Taylor polynomial of H = N(1+t)/(2+t)^k (P(t)/t^k is the principal
    # part); its k low coefficients vanish, and the rest are M(1+t).  The
    # numerators are scaled by 2^(k^2) so every step divides exactly.
    nt = g.numerator.taylor_shift(1)
    b = [comb(k, i) << (k - i) for i in range(k + 1)]  # (2+t)^k
    num = [c << (k * k) for c in nt.nums]
    num += [0] * (2 * k - len(num))
    for j in range(k):
        c, rem = divmod(num[j], b[0])
        if rem:
            raise ConsistencyError("inexact series division in analytic part")
        for i, bi in enumerate(b):
            num[j + i] -= c * bi
    m = RationalPoly._of(num[k:], nt.den << (k * k)).taylor_shift(-1)
    return RationalFunc(m, k, RationalPoly((1, 1)))


@dataclass(frozen=True)
class FloatRows:
    """The float view of a list of exact polynomials or rational functions:
    row k holds the coefficients of entry k, ascending, each correctly
    rounded.  For rational functions (poles given) entry k is row k over
    base(x)**poles[k], base(x) = x*x + shift (G, G') or x + shift (G*)."""

    coeffs: tuple[tuple[float, ...], ...]
    poles: tuple[int, ...] = ()
    square: bool = True
    shift: int = 0

    @cached_property
    def _steps(self) -> np.ndarray:
        """The Horner schedule of all rows, right-aligned: each step's
        coefficient column, zeros above each row's degree, complex (so no
        step casts); read-only."""
        width = max(map(len, self.coeffs), default=0)
        steps = np.zeros((width, len(self.coeffs), 1), dtype=complex)
        for k, row in enumerate(self.coeffs):
            steps[width - len(row):, k, 0] = row[::-1]
        steps.setflags(write=False)
        return steps


def _row(p: RationalPoly) -> tuple[float, ...]:
    # int true division is correctly rounded: each equals float(Fraction)
    return tuple(c / p.den for c in p.nums)


def _func_rows(funcs: list[RationalFunc]) -> FloatRows:
    """The float view of rational functions that share one base."""
    base = funcs[0].base
    return FloatRows(tuple(_row(f.numerator) for f in funcs),
                     tuple(f.pole_power for f in funcs), base.degree == 2,
                     base.nums[0])


def evaluate(rows: FloatRows, x, lo: int, hi: int):
    """Rows lo..hi-1 of a float view at x, a scalar or an array of nodes:
    Horner's rule on each row, then for rational-function rows the division
    by base(x)**pole.  A scalar gives a list; an array gives one array
    (hi - lo, *x.shape), up to STACKED_NODES nodes in one Horner pass over
    all the rows (beyond, row by row) on a slice of `_steps`: each row joins
    at its top coefficient and then takes the same multiplies and adds as
    alone, so each value has the same bits as a row by itself."""
    if not isinstance(x, np.ndarray):
        out = []
        for k in range(lo, hi):
            v = 0.0 * x
            for c in reversed(rows.coeffs[k]):
                v = v * x + c
            if rows.poles:
                v = v / ((x * x if rows.square else x) + rows.shift) ** rows.poles[k]
            out.append(v)
        return out
    flat = x.reshape(-1)
    out = np.zeros((hi - lo, flat.size), np.result_type(flat, 1.0))
    steps = rows._steps if out.dtype.kind == "c" else rows._steps.real
    # a row is exactly +0 until its own top coefficient is added
    block = 1 if flat.size > STACKED_NODES else max(hi - lo, 1)
    for a in range(lo, hi, block):
        v = out[a - lo:a - lo + block]
        width = max(map(len, rows.coeffs[a:a + block]))
        for col in steps[len(steps) - width:, a:a + block]:
            v *= flat
            v += col
    for v, row in zip(out, rows.coeffs[lo:hi]):
        if not row:
            np.multiply(flat, 0.0, out=v)
    if rows.poles:
        base = (flat * flat if rows.square else flat) + rows.shift
        # base ** p leaves the double range at far nodes (the G' rows at
        # |z| = 1e15); such a row is divided by base p times instead
        log_top = log(max(float(np.abs(base).max(initial=0.0)), 1.0))
        for v, p in zip(out, rows.poles[lo:hi]):
            if p * log_top < 709.0:
                v /= base ** p
            else:
                for _ in range(p):
                    v /= base
    return out.reshape((hi - lo,) + x.shape)


class CoeffTables:
    """Immutable bundle of all generated tables for a given depth: the exact
    `Ebar`, `Etilde`, `E`, `airy`, `G` and `G_star`, and their float
    view `rows`, `ends`, `odd_at_1`, `seq`, `G_rows` and `G_star_rows`,
    which is all the expansions read."""

    def __init__(self, s_max: int = DEFAULT_S_MAX):
        self.s_max = s_max
        self.Ebar = gen_Ebar(s_max)
        self.Etilde = gen_Etilde(s_max)
        self.E = gen_E(s_max, self.Ebar)
        self.airy = gen_airy_seq(max(s_max, 2))
        # G and the float view of G and G' per (R, variant)
        self._g_cache: dict[tuple[int, str], tuple] = {}
        self._gstar_cache: dict[tuple[int, int], RationalFunc] = {}
        self._gstar_rows: dict[int, FloatRows] = {}
        fams = {"Ebar": self.Ebar, "Etilde": self.Etilde, "E": self.E}
        #: each family and its derivatives ("Ebar_d", ...), indexed by s
        self.rows: dict[str, FloatRows] = {}
        for name, fam in fams.items():
            self.rows[name] = FloatRows(tuple(map(_row, fam)))
            self.rows[name + "_d"] = FloatRows(tuple(_row(p.deriv()) for p in fam))
        #: (family(-1), family(1)) for each s, the ends of the W1/W2 exponents
        self.ends = {name: tuple((float(p(-1)), float(p(1))) for p in fam)
                     for name, fam in fams.items()}
        #: E_{2s+1}(1) and Ebar_{2s+1}(1) for s = 0, 1, ..., of every
        #: turning-point prefactor and Weber constant
        self.odd_at_1 = {name: tuple(e[1] for e in self.ends[name][1::2])
                         for name in ("E", "Ebar")}
        #: a_s and atilde_s, indexed by s
        self.seq = {"a": tuple(map(float, self.airy.a)),
                    "a_tilde": tuple(map(float, self.airy.a_tilde))}

    def G(self, R: int, variant: str) -> list[RationalFunc]:
        """G_{0,R}..G_{s_max+1,R}; built with the float view `G_rows` of
        them and of their derivatives once per (R, variant)."""
        key = (R, variant)
        if key not in self._g_cache:
            g, g_d = _gen_G(self.s_max + 1, R, variant)
            self._g_cache[key] = (g, _func_rows(g), _func_rows(g_d))
        return self._g_cache[key][0]

    def G_rows(self, R: int, variant: str) -> tuple[FloatRows, FloatRows]:
        """The float view of `G` and of its derivatives G_{0,R}'.."""
        self.G(R, variant)
        return self._g_cache[(R, variant)][1:]

    def G_star(self, s: int, R: int) -> RationalFunc:
        """G*_{s,R} of these tables' own G_{s,R}."""
        key = (s, R)
        if key not in self._gstar_cache:
            self._gstar_cache[key] = analytic_part_G(self.G(R, "minus")[s])
        return self._gstar_cache[key]

    def G_star_rows(self, R: int, m: int) -> FloatRows:
        """The float view of G*_{0,R}..G*_{m,R} (or deeper)."""
        rows = self._gstar_rows.get(R)
        if rows is None or len(rows.coeffs) <= m:
            rows = self._gstar_rows[R] = _func_rows(
                [self.G_star(s, R) for s in range(m + 1)])
        return rows


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
    check_order(s, 1, t.s_max)
    # both kinds share the E_s polynomials; the scalar sequence differs
    if kind == "E":
        seq = t.seq["a"][s]
    elif kind == "Etilde":
        seq = t.seq["a_tilde"][s]
    else:
        raise ValueError("kind must be 'E' or 'Etilde'")
    return evaluate(t.rows["E"], complex(beta), s, s + 1)[0] \
        + (-1) ** s * seq / s * complex(xi) ** (-s)
