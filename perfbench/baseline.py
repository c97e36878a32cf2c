"""Repeat the benchmark over two seed sets and record medians and spreads.

    python3 perfbench/baseline.py [--out perfbench/BASELINE.json]

Run from the repository root.  For every workload, runs ``run.py --trace
0`` once per seed of the first set (seeds 1-10), at BENCHMARK.json's
run_seconds, and reports per end-to-end metric the median, the quartiles
and the spread (q3 - q1) / median as ``statistics.quantiles(values, n=4)``
gives them, plus one traced run per workload (seed 1).  It then runs the
second set (seeds 11-20) on every workload and records, per metric, its
spread and how far its median moved from the first set's
(``median_shift``).  Machine facts (nproc, Python, numpy, scipy) are
recorded with the numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

FIRST_SEEDS = list(range(1, 11))
SECOND_SEEDS = list(range(11, 21))
TRACE_SEED = 1


def machine() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


def one_run(wl: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else float("nan"),
                     "values": vals}
    return out


def one_set(seeds: list[int], seconds: int) -> dict:
    """For each workload, one untraced run per seed."""
    out = {}
    for wl in workloads.GENERATORS:
        runs = []
        for seed in seeds:
            r = one_run(wl, seed, seconds, 0)
            runs.append(r)
            print(f"{wl} seed {seed}: attempted {r['attempted']} failed "
                  f"{r['failed']} correct {r['correct']} " + " ".join(
                      f"{k}={v['value']:.5g}" for k, v in r["metrics"].items()),
                  file=sys.stderr, flush=True)
        out[wl] = {"attempted": [r["attempted"] for r in runs],
                   "failed": [r["failed"] for r in runs],
                   "correct": [r["correct"] for r in runs],
                   "end_to_end": summarize(runs)}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", default=None)
    a = ap.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]
    record = {"machine": machine(), "run_seconds": seconds,
              "seeds": FIRST_SEEDS, "workloads": {}}
    for wl, entry in one_set(FIRST_SEEDS, seconds).items():
        t = one_run(wl, TRACE_SEED, seconds, 1)
        entry["per_layer"] = {k: [v["value"], v["unit"]]
                              for k, v in t["metrics"].items()}
        record["workloads"][wl] = {"why": workloads.WHY[wl], **entry}
    second = one_set(SECOND_SEEDS, seconds)
    record["second_set"] = {"seeds": SECOND_SEEDS, "workloads": {}}
    for wl, entry in second.items():
        first = record["workloads"][wl]["end_to_end"]
        shifts = {}
        for k, v in entry["end_to_end"].items():
            shift = (v["median"] - first[k]["median"]) / first[k]["median"]
            shifts[k] = {"median": v["median"], "spread": v["spread"],
                         "median_shift": shift, "values": v["values"]}
            print(f"{wl} {k:<16} median {first[k]['median']:.5g} -> "
                  f"{v['median']:.5g} {v['unit']:<7} spread "
                  f"{first[k]['spread']:.4f}, {v['spread']:.4f}; shift "
                  f"{shift:+.4f}", file=sys.stderr, flush=True)
        record["second_set"]["workloads"][wl] = {
            "attempted": entry["attempted"], "failed": entry["failed"],
            "correct": entry["correct"], "end_to_end": shifts}
    text = json.dumps(record, indent=1)
    if a.out:
        with open(a.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
