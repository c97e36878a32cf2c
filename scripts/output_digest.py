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

The op streams are read from perfbench/workloads.py and perfbench/outcome.py
and are not changed.  The library is the one under src/ next to this
script.

`--compare PARENT CHANGE` reads two such outputs instead and prints, for
each workload and family, how many outputs are bit-identical, the worst
relative move of the value and of rel_bound, how many bounds moved by more
than 1e-13, and every op whose refusal changed (refused on one side only,
or with another error).  It exits with status 0 only when the two are
identical: every output, every refusal and the op streams themselves; any
difference exits with status 1.  So a change that means to keep every
output bit for bit is gated by this one command.

Run:  python scripts/output_digest.py > digest.txt
      python scripts/output_digest.py --compare parent.txt change.txt
"""

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
SEEDS = (1, 2, 3)


def digest(op: dict) -> str:
    try:
        cv = outcome.call_family(parcyl, op)
    except parcyl.ParcylError as exc:
        return type(exc).__name__
    v = cv.value
    return " ".join(float(x).hex() for x in (v.mantissa.real, v.mantissa.imag,
                                             v.log_scale, cv.rel_bound))


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


if __name__ == "__main__":
    main()
