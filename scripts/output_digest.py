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

Run:  python scripts/output_digest.py > digest.txt
"""

import itertools
import sys
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


def main() -> None:
    for wl, blocks in BLOCKS.items():
        for seed in SEEDS:
            ops = itertools.takewhile(lambda op: op["block"] < blocks,
                                      workloads.ops(wl, seed))
            for i, op in enumerate(ops):
                if op.get("bad") is None:
                    print(wl, seed, i, op["family"], digest(op))


if __name__ == "__main__":
    main()
