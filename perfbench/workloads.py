"""Seeded input generators for the four workloads.

Each generator is an endless, deterministic stream of ops (plain dicts of
JSON-able inputs) made only from the seed; the library sees nothing but
these inputs.  Nothing here imports parcyl.

Consecutive ops are grouped into blocks (``op["block"]``) that each hold
the same mix of cheap and slow ops, and a run measures a fixed number of
whole blocks (``blocks_for``).  On ``grid`` a few ops of 1-5 s take
nearly all the time between bursts of millisecond ops, so a rate over a
window that ends anywhere would jump by a burst from run to run.

* ``grid``   -- fixed u, many z: every CLI family on a jittered lattice.
* ``sweep``  -- fixed z, many u: a new u in [10, 300] for every op.
* ``cli``    -- cold single-point ``parcyl eval`` command lines, a share
  of them malformed or out of range.
* ``verify`` -- grid and sweep inputs of the families with an oracle route.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random

#: the CLI ``FUNCTIONS`` families, in the CLI's order
CLI_FAMILIES = ("U+", "U+'", "U-", "V-", "U+i", "U-i", "W+x", "W-x",
                "W0", "W3", "UR", "WR")
#: families taking a real argument
REAL_FAMILIES = ("W+x", "W-x")
#: CLI defaults: --order 3, --R 0, --pair 0,2
CLI_ORDER = 3

GRID_U = 20.0
REAL_SECTION = (-0.95, 3.0)

SWEEP_U = (10.0, 300.0)
SWEEP_FAMILIES = ("U-", "V-", "U+i", "U-i", "W+x", "W-x", "inhom_scorer",
                  "connect_inhom_pcfm")
SWEEP_LG_FAMILIES = ("U+", "UR")

#: cli points: cell centres of the box with |Im z| < 1, where every LG
#: path is a straight ray, so the cli figures carry import, tables and
#: first-call costs, not arc tracing (grid measures the arcs)
CLI_POINTS = tuple(complex(x, y) for x in (-2.5, -1.5, -0.5, 0.5, 1.5, 2.5)
                   for y in (-0.5, 0.5))
CLI_JITTER = 0.05
CLI_U_VALUES = (15.0, 25.0, 40.0, 60.0, 90.0)
#: cli command lines per round of the twelve families that are malformed
#: or out of range
CLI_BAD_PER_ROUND = 2
CLI_BAD_KINDS = ("u_zero", "u_negative", "z_nan", "z_missing", "z_malformed")

ORACLE_FAMILIES = ("U+", "U+'", "U-", "V-", "UR")

#: step of the additive golden-ratio sequence
_GOLDEN = 0.6180339887498949


def _frac(x: float) -> float:
    return x - math.floor(x)


def _op(family: str, u: float, z: complex, order: int = CLI_ORDER,
        R: int = 0, pair: tuple[int, int] = (0, 2), **extra) -> dict:
    op = {"family": family, "u": u, "z": [z.real, z.imag], "order": order,
          "R": R, "pair": list(pair)}
    op.update(extra)
    return op


def _family_pair(family: str) -> tuple[int, int]:
    # WR is provided only for the (0,3) recession pair; the Scorer family
    # uses its default pair; everything else takes the CLI default
    return {"WR": (0, 3), "inhom_scorer": (-1, 1)}.get(family, (0, 2))


# ----------------------------------------------------------------------
# grid: fixed u, many z
# ----------------------------------------------------------------------

#: cell centres of the 6 x 6 unit-cell lattice over the box
GRID_AXIS = (-2.5, -1.5, -0.5, 0.5, 1.5, 2.5)
#: the 12 cells where UR (and, in the left half, U+ and U+') costs 1-5 s
#: instead of milliseconds, because the LG path is a traced arc that runs
#: to the box edge (measured when the benchmark was written)
GRID_EDGE_LEFT = ((-2.5, -2.5), (-2.5, 2.5), (-2.5, -1.5), (-2.5, 1.5),
                  (-1.5, -1.5), (-1.5, 1.5))
GRID_EDGE_CELLS = tuple(c for x, y in GRID_EDGE_LEFT for c in ((x, y), (-x, y)))
#: the rows of the lattice, lower and upper half plane in turn
GRID_ROWS = (-2.5, 2.5, -1.5, 1.5, -0.5, 0.5)
#: the order in which a family visits the cells, one per round: period j
#: of six rounds visits row GRID_ROWS[r] at x = GRID_PERIOD_X[j][r].  Every
#: row's x values are a permutation of GRID_AXIS, so the 36 rounds visit
#: each cell once, and any six consecutive rounds visit every row, both
#: half planes.  Each period holds one left and one right edge cell
GRID_PERIOD_X = ((-2.5, 1.5, 0.5, 2.5, -0.5, 0.5),
                 (2.5, -1.5, -0.5, -2.5, 0.5, -0.5),
                 (-0.5, -2.5, 2.5, -0.5, 1.5, -1.5),
                 (0.5, 2.5, -2.5, 0.5, -1.5, 1.5),
                 (-1.5, 0.5, -1.5, 1.5, 2.5, -2.5),
                 (1.5, -0.5, 1.5, -1.5, -2.5, 2.5))
GRID_CELLS = tuple((x, y) for xs in GRID_PERIOD_X for x, y in zip(xs, GRID_ROWS))
#: per-family offset into GRID_CELLS.  UR, U+ and U+' start at whole
#: periods, so every block of GRID_BLOCK_ROUNDS rounds holds two UR ops at
#: edge cells and one U+ and one U+' op at left edge cells, and blocks
#: cost about the same (~10 s)
GRID_PHASE = {fam: {"UR": 0, "U+": 12, "U+'": 24}.get(fam, f)
              for f, fam in enumerate(CLI_FAMILIES)}
GRID_BLOCK_ROUNDS = 6
#: a point is a cell centre moved by a seeded jitter of up to GRID_JITTER
#: in each coordinate.  The jitter is small so that a point keeps its path
#: shape and arc length, and so its cost
GRID_JITTER = 0.02
#: points of the real section [-0.95, 3] (cell centres, same jitter)
GRID_REAL_CELLS = 36


def grid_ops(seed: int):
    """Every CLI family at u=20, order 3, on a jittered lattice.

    Round-robin over the families.  Each family walks GRID_CELLS from its
    own offset, one cell per round, so every prefix of the stream holds
    the same mix of lattice cells whatever the seed; the seed only jitters
    each point inside its cell.  R cycles 0, 1, 2 for the inhomogeneous
    families.
    """
    rng = random.Random(f"grid:{seed}")
    xlo, xhi = REAL_SECTION
    ncell = len(GRID_CELLS)
    dx_real = (xhi - xlo) / GRID_REAL_CELLS
    for k in itertools.count():
        for fam in CLI_FAMILIES:
            jx = rng.uniform(-GRID_JITTER, GRID_JITTER)
            jy = rng.uniform(-GRID_JITTER, GRID_JITTER)
            if fam in REAL_FAMILIES:
                cell = (7 * k) % GRID_REAL_CELLS
                z = complex(xlo + dx_real * (cell + 0.5) + jx * dx_real, 0.0)
            else:
                cx, cy = GRID_CELLS[(k + GRID_PHASE[fam]) % ncell]
                z = complex(cx + jx, cy + jy)
            yield _op(fam, GRID_U, z, pair=_family_pair(fam),
                      R=k % 3 if fam in ("UR", "WR") else 0,
                      block=k // GRID_BLOCK_ROUNDS)


# ----------------------------------------------------------------------
# sweep: fixed z, many u
# ----------------------------------------------------------------------

#: fixed points per family and zone, at angles pi/4 + q pi/2 (the real
#: families: spread along their zone of the axis), jittered by the seed
SWEEP_POINTS_PER_ZONE = 4
SWEEP_CAUCHY_R = 0.1     # inside the ring, |z-1| < DIRECT_MIN_DIST = 0.2
SWEEP_DIRECT_R = 0.4     # direct evaluation, still near z=1
SWEEP_LG_Z = complex(2.0, 0.25)
SWEEP_JITTER = 0.03
SWEEP_U_JITTER = 0.005
#: rounds of the 10 families per block: one Cauchy and one direct op of
#: each zone family.  When every family was in the same zone in a round, a
#: Cauchy round cost twice a direct one and a run's rate moved with the
#: parity of its round count
SWEEP_BLOCK_ROUNDS = 2


def sweep_points(seed: int) -> list[tuple[str, str, complex, int]]:
    """The fixed (family, zone, z, R) points of one sweep run."""
    rng = random.Random(f"sweep-z:{seed}")

    def jit() -> float:
        return rng.uniform(-SWEEP_JITTER, SWEEP_JITTER)

    pts = []
    n = SWEEP_POINTS_PER_ZONE
    for fam in SWEEP_FAMILIES:
        for q in range(n):
            if fam in REAL_FAMILIES:
                zc = complex(1.0 + SWEEP_CAUCHY_R * (2 * q - 3) / 3 + jit())
                zd = complex(1.0 + SWEEP_DIRECT_R + 0.1 * q + jit())
            else:
                e = cmath.exp(1j * math.pi * (0.25 + 0.5 * q))
                zc = 1.0 + SWEEP_CAUCHY_R * e + complex(jit(), jit())
                zd = 1.0 + SWEEP_DIRECT_R * e + complex(jit(), jit())
            pts.append((fam, "cauchy", zc, q % 3))
            pts.append((fam, "direct", zd, q % 3))
    lg_z = SWEEP_LG_Z + complex(jit(), jit())
    for fam in SWEEP_LG_FAMILIES:
        pts.append((fam, "lg", lg_z, 0))
    return pts


def sweep_ops(seed: int):
    """Round-robin over the families, each cycling through its points
    (Cauchy and direct zone in turn) from its own offset, so that every
    round holds both zones and a block of SWEEP_BLOCK_ROUNDS rounds holds
    each family once in each zone.
    u follows the golden-ratio sequence over [10, 300], so it never repeats
    and any prefix spreads evenly over the range; the seed moves each u by
    up to SWEEP_U_JITTER of the range."""
    by_fam: dict[str, list] = {}
    for fam, zone, z, R in sweep_points(seed):
        by_fam.setdefault(fam, []).append((zone, z, R))
    rng = random.Random(f"sweep-u:{seed}")
    lo, hi = SWEEP_U
    i = 0
    for k in itertools.count():
        for f, (fam, pts) in enumerate(by_fam.items()):
            zone, z, R = pts[(k + f) % len(pts)]
            i += 1
            a = _frac(0.5 + i * _GOLDEN + rng.uniform(-SWEEP_U_JITTER, SWEEP_U_JITTER))
            yield _op(fam, lo + (hi - lo) * a, z, R=R, pair=_family_pair(fam),
                      zone=zone, block=k // SWEEP_BLOCK_ROUNDS)


# ----------------------------------------------------------------------
# cli: cold single-point command lines
# ----------------------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def cli_argv(op: dict) -> list[str]:
    """The ``parcyl eval`` arguments of a cli op (after the subcommand)."""
    z = complex(op["z"][0], op["z"][1])
    zs = repr(z.real) if op["family"] in REAL_FAMILIES else repr(z).strip("()")
    # '--opt=value' keeps argparse from reading a leading '-' as an option
    bad = op.get("bad")
    u = {"u_zero": "0", "u_negative": "-5"}.get(bad, _fmt(op["u"]))
    argv = ["eval", f"--function={op['family']}", f"--u={u}"]
    if bad == "z_nan":
        argv.append("--z=nan")
    elif bad == "z_malformed":
        argv.append(f"--z={zs}+abc")
    elif bad != "z_missing":
        argv.append(f"--z={zs}")
    if op["family"] in ("UR", "WR"):
        argv += [f"--R={op['R']}", "--pair=" + ",".join(map(str, op["pair"]))]
    return argv


def cli_ops(seed: int):
    """The CLI families in turn at twelve fixed points, the points shifted
    by one each round (so the first requests of every run hold the same
    family/point pairs), moved by a seeded jitter; u cycles through
    CLI_U_VALUES, also jittered.  A round of the twelve families is a
    block; CLI_BAD_PER_ROUND requests of each round are malformed or out of
    range, the kinds in turn from one the seed picks (a run measures one
    block), on other families each round."""
    rng = random.Random(f"cli:{seed}")
    xlo, xhi = REAL_SECTION
    nfam = len(CLI_FAMILIES)
    nbad = 0
    for i in itertools.count():
        k, slot = divmod(i, nfam)
        fam = CLI_FAMILIES[slot]
        p = (i + k) % len(CLI_POINTS)
        jx, jy = (rng.uniform(-CLI_JITTER, CLI_JITTER) for _ in range(2))
        if fam in REAL_FAMILIES:
            z = complex(xlo + (xhi - xlo) * (p + 0.5) / len(CLI_POINTS) + jx)
        else:
            z = CLI_POINTS[p] + complex(jx, jy)
        bad = None
        if (slot - k) % (nfam // CLI_BAD_PER_ROUND) == 0:
            bad = CLI_BAD_KINDS[(nbad + seed) % len(CLI_BAD_KINDS)]
            nbad += 1
        u = CLI_U_VALUES[i % len(CLI_U_VALUES)] * (1.0 + rng.uniform(-0.02, 0.02))
        yield _op(fam, u, z, pair=_family_pair(fam),
                  R=k % 3 if fam in ("UR", "WR") else 0, bad=bad, block=k)


# ----------------------------------------------------------------------
# verify: oracle-checked subsample of grid and sweep
# ----------------------------------------------------------------------

#: grid rounds per verify block: rows -2.5, 2.5 and -1.5 of the lattice
#: (GRID_ROWS), so both half planes for every oracle family
VERIFY_BLOCK_ROUNDS = 3
#: sweep inputs after each grid input
VERIFY_SWEEP_PER_GRID = 2


def verify_ops(seed: int):
    """Each grid input of an oracle family, followed by two sweep inputs of
    U-, V- and U+; a block is VERIFY_BLOCK_ROUNDS grid rounds of the five
    families.  UR comes from grid only: at the sweep's large u its oracle
    takes 5-7 s, which would leave a handful of ops in a run and make the
    median a draw."""
    grid = (op for op in grid_ops(seed) if op["family"] in ORACLE_FAMILIES)
    sweep = (op for op in sweep_ops(seed)
             if op["family"] in ORACLE_FAMILIES and op["family"] != "UR")
    per_block = len(ORACLE_FAMILIES) * VERIFY_BLOCK_ROUNDS
    for n, op in enumerate(grid):
        block = n // per_block
        yield dict(op, block=block)
        for _ in range(VERIFY_SWEEP_PER_GRID):
            yield dict(next(sweep), block=block)


GENERATORS = {"grid": grid_ops, "sweep": sweep_ops, "cli": cli_ops,
              "verify": verify_ops}

WHY = {
    "grid": "fixed u, many z: every CLI family on a jittered lattice, with "
            "straight and box-edge traced-arc LG paths; u-keyed rings hit",
    "sweep": "fixed z, many u: a new u per op near z=1 and at one LG point, "
             "so ring construction and u-keyed caches never hit",
    "cli": "cold single-point parcyl eval processes, one in six malformed or "
           "out of range: import, table generation and first-call ring builds",
    "verify": "time to a validated answer: expansion plus independent oracle "
              "and the check err <= bound, on grid and sweep inputs",
}


#: seconds of --seconds that one block of the workload stands for.  A
#: grid block takes ~10.7 s and a sweep block ~1.1 s (2-core VM, Python
#: 3.11), so their runs last about --seconds.  A cli block takes ~9 s and
#: a verify block ~17 s, and a 30 s run measures one block of each: 4 +
#: 22 runs per workload must fit in under an hour, and host drift spread
#: one-block cli and verify runs no more than 3-block grid runs
SECONDS_PER_BLOCK = {"grid": 10.0, "sweep": 1.2, "cli": 30.0, "verify": 30.0}


def blocks_for(workload: str, seconds: float) -> int:
    """Whole blocks a run of `seconds` measures.  Fixed by the arguments,
    not by the time ops take, so every run of a workload measures the same
    ops whatever the host's speed at the time."""
    return max(1, round(seconds / SECONDS_PER_BLOCK[workload]))


def ops(workload: str, seed: int):
    return GENERATORS[workload](seed)


def take(workload: str, seed: int, n: int) -> list[dict]:
    return list(itertools.islice(ops(workload, seed), n))
