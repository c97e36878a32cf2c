"""Every output of the benchmark's op streams, written exactly, one op a line.

For seeds 1-3 it evaluates the ops of the blocks that a 30 s run of
perfbench measures on `grid` (3 blocks), and those of 25 blocks of `sweep`
and 4 of `cli`, and prints for each op

    workload seed index family  mantissa.re mantissa.im log_scale rel_bound

as float.hex values, or the type of the ParcylError the op was refused
with.  Malformed `cli` requests are left out: they are refused by the
command line before the library sees them.  A change that means to keep
every value and every bound bit for bit shows it with one `diff` of this
output at the parent and at the change.

The `oracle` stream writes the independent reference of every op of the
first ORACLE_BLOCKS blocks of `verify`, for the same seeds, whether or not
the library answers the op: its mantissa, log_scale and est_acc in the
same columns, or the type of the error the oracle raised.  It shows that
a change to the oracle keeps every value `verify` checks against, and
every oracle refusal.

The `region` stream then gates where each expansion answers: every CLI
family and the two Scorer families, at u = 10 and 20 (the seed column),
order 3 and the benchmark's R and pair, on the 0.1-spaced lattice over
[-3, 3]^2 and at points within 1e-9 of each boundary curve of the rows of
`plane.REGIONS`: the turning-point discs, the critical curves Re xi_bar = 0
and their images, the curves Re xi = 0 of domain Z, |Im xi_bar| = pi/4 of
Zb03 and their images, the axes, the cuts, the x cutoff of W+-x and the
Scorer disc |z - 1| = 1.15.  The real families take the real points.  An
op that raises any other exception is written with its type too.  The
whole output is 98,645 lines and takes about 15 s on a 2-core VM.

The op streams are read from perfbench/workloads.py and perfbench/outcome.py
and are not changed.  The library is the one under src/ next to this
script.

`--compare PARENT CHANGE` reads two such outputs instead and prints, for
each workload and family, how many outputs are bit-identical, the worst
relative move of the value and of rel_bound (est_acc on the oracle
stream), how many bounds moved by more than 1e-13, and every op whose
refusal changed (refused on one side only, or with another error).  It
exits with status 0 only when the two are identical: every output, every
refusal and the op streams themselves; any difference exits with status 1.  So a change that means to keep every
output bit for bit is gated by this one command.

Run:  python scripts/output_digest.py > digest.txt
      python scripts/output_digest.py --compare parent.txt change.txt
"""

import cmath
import itertools
import math
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import parcyl  # noqa: E402
import outcome  # noqa: E402
import workloads  # noqa: E402

#: blocks per workload: grid as a 30 s benchmark run measures it, and more
#: of the cheap streams than a run sees
BLOCKS = {"grid": 3, "sweep": 25, "cli": 4}
#: the verify blocks whose oracle calls the oracle stream writes
ORACLE_BLOCKS = 3
SEEDS = (1, 2, 3)
REGION_U = (10, 20)
REGION_FAMILIES = workloads.CLI_FAMILIES + ("inhom_scorer", "connect_inhom_pcfm")
#: distance of the boundary points from their curve
EPS = 1e-9


def _library(op: dict):
    cv = outcome.call_family(parcyl, op)
    return cv.value, cv.rel_bound


def _oracle(op: dict):
    ov = outcome.call_oracle(parcyl, op)
    return ov.value, ov.est_acc


def digest(op: dict, call=_library) -> str:
    """One op's value and its bound (the oracle's est_acc), or the type of
    the error the call raised."""
    try:
        v, bound = call(op)
    except Exception as exc:  # noqa: BLE001 - a refusal or a fault, by type
        return type(exc).__name__
    return " ".join(float(x).hex() for x in (v.mantissa.real, v.mantissa.imag,
                                             v.log_scale, bound))


def _crossing(f, a: complex, b: complex) -> list[complex]:
    """The two points EPS before and after where the real function f
    changes sign on the segment [a, b], by bisection; none if it does not."""
    fa = f(a)
    if fa * f(b) > 0:
        return []
    lo, hi = a, b
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(mid) * fa > 0:
            lo = mid
        else:
            hi = mid
    step = EPS * (b - a) / abs(b - a)
    return [lo - step, lo + step]


def boundary_points() -> list[complex]:
    """Points within EPS of each boundary curve of the rows of
    plane.REGIONS, both sides, in [-3, 3]^2."""
    pl = parcyl.plane
    ring = [cmath.exp(1j * math.pi * k / 8) for k in range(16)]
    # the discs of radius plane.TP_REFUSAL about +-i, and the Scorer disc
    pts = [c + (r + d) * e for c, r in ((1j, 0.15), (-1j, 0.15), (1.0, 1.15))
           for e in ring for d in (-EPS, EPS)]
    for y in (1.1, 1.5, 2.0, 2.5, 3.0, -1.1, -1.5, -2.0, -2.5, -3.0):
        # Re xi_bar = 0 left of the cuts, and its image under -z
        crit = _crossing(lambda z: pl.xi_bar(z).real, complex(-3, y), complex(-1e-6, y))
        pts += crit + [-z for z in crit]
    for y in (0.25, 0.5, 0.75, 0.9, 0.99, -0.25, -0.5, -0.75, -0.9, -0.99):
        zb03 = _crossing(lambda z: abs(pl.xi_bar(z).imag) - math.pi / 4,
                         complex(-3, y), complex(-1e-6, y))
        pts += zb03 + [-z for z in zb03]
    for x in (-1.1, -1.5, -2.0, -2.5, -3.0):
        # Re xi = 0 left of z = -1, above and below the cut
        for sgn in (1, -1):
            pts += _crossing(lambda z: pl.xi_minus(z).real, complex(x, sgn * 1e-6),
                             complex(x, sgn * 3))
    axis = [k / 2 for k in range(-5, 6)]
    pts += [complex(d, y) for y in axis for d in (-EPS, EPS)]
    pts += [complex(x, d) for x in axis for d in (-EPS, EPS)]
    pts += [complex(-1 + d, y) for y in (-2, -1, -0.5, 0.5, 1, 2) for d in (-EPS, EPS)]
    pts += [complex(x + d) for x in (-1.0, -0.95, 1.0) for d in (-EPS, EPS)]
    # the named points of the boundaries: Stokes-side points of domain Z,
    # the region between a critical curve and the cut, the discs' insides
    pts += [-2.487 + 1.5j, -2.487 - 1.5j, -0.5 - 2.5j, -2.49 - 1.99j,
            1j + 0.149, 1j - 0.149, -1j + 0.149, -1j - 0.149]
    return pts


def region_ops():
    """The ops of the region stream: (u, op) in order."""
    lattice = [complex(a / 10, b / 10) for a in range(-30, 31) for b in range(-30, 31)]
    points = lattice + boundary_points()
    for u in REGION_U:
        for z in points:
            for fam in REGION_FAMILIES:
                if fam in workloads.REAL_FAMILIES and z.imag != 0.0:
                    continue
                yield u, {"family": fam, "u": float(u), "z": [z.real, z.imag],
                          "order": workloads.CLI_ORDER, "R": 0,
                          "pair": list(workloads._family_pair(fam))}


def _parse(path: str) -> dict:
    """(workload, seed, index) -> (family, the rest of the line's fields)."""
    out = {}
    with open(path) as fh:
        for line in fh:
            wl, seed, i, family, *rest = line.split()
            out[(wl, int(seed), int(i))] = (family, rest)
    return out


def _moves(old: list[str], new: list[str]) -> tuple[float, float]:
    """Relative moves of the value and of rel_bound between two digests."""
    (ore, oim, ols, ob), (nre, nim, nls, nb) = ([float.fromhex(x) for x in v]
                                                for v in (old, new))
    ov = complex(ore, oim)
    nv = complex(nre, nim) * math.exp(nls - ols)
    return abs(nv - ov) / abs(ov) if ov else abs(nv), abs(nb - ob) / ob if ob else abs(nb)


def compare(parent_path: str, change_path: str) -> bool:
    """Print the comparison; whether the two outputs are identical."""
    parent, change = _parse(parent_path), _parse(change_path)
    if parent.keys() != change.keys():
        print(f"op streams differ: {len(parent.keys() ^ change.keys())} ops "
              "on one side only")
    rows = defaultdict(lambda: [0, 0, 0.0, 0.0, 0])
    refusals = []
    for key in sorted(parent.keys() & change.keys()):
        (family, old), (_, new) = parent[key], change[key]
        row = rows[(key[0], family)]
        row[0] += 1
        row[1] += old == new
        if len(old) == 1 or len(new) == 1:
            if old != new:
                refusals.append((*key, family, " ".join(old), " ".join(new)))
            continue
        value, bound = _moves(old, new)
        row[2], row[3] = max(row[2], value), max(row[3], bound)
        row[4] += bound > 1e-13
    print(f"{'workload':<9}{'family':<8}{'ops':>5}{'identical':>10}"
          f"{'value move':>12}{'bound move':>12}{'bound >1e-13':>13}")
    for (wl, family), (n, same, value, bound, moved) in sorted(rows.items()):
        print(f"{wl:<9}{family:<8}{n:>5}{same:>10}{value:>12.2e}{bound:>12.2e}"
              f"{moved:>13}")
    print(f"changed refusals: {len(refusals)}")
    for wl, seed, i, family, old, new in refusals:
        print(f"  {wl} seed {seed} op {i} {family}: {old} -> {new}")
    return parent == change


def main() -> None:
    if sys.argv[1:2] == ["--compare"]:
        sys.exit(0 if compare(*sys.argv[2:4]) else 1)
    for wl, blocks in BLOCKS.items():
        for seed in SEEDS:
            ops = itertools.takewhile(lambda op: op["block"] < blocks,
                                      workloads.ops(wl, seed))
            for i, op in enumerate(ops):
                if op.get("bad") is None:
                    print(wl, seed, i, op["family"], digest(op))
    for seed in SEEDS:
        ops = itertools.takewhile(lambda op: op["block"] < ORACLE_BLOCKS,
                                  workloads.ops("verify", seed))
        for i, op in enumerate(ops):
            print("oracle", seed, i, op["family"], digest(op, _oracle))
    for i, (u, op) in enumerate(region_ops()):
        print("region", u, i, op["family"], digest(op))


if __name__ == "__main__":
    main()
