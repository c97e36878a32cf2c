"""parcyl benchmark: four workloads, end-to-end metrics, a traced run.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 15 --trace 0

Run from the repository root.  ``--trace 0`` times the fresh-process set-up
(``import parcyl`` plus coefficient tables, median over several processes)
and then runs the workload in one untraced worker process, in whole
blocks of ops; ``--seconds`` sets how many (``workloads.blocks_for``), so
that every run of a workload measures the same ops.  ``--trace 1`` runs
half as many blocks untraced and then the same blocks traced, and reports
per-layer figures and the tracing overhead.

Every figure is printed by name with its unit; the last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"}.
Workloads, metrics and the reasons for them are in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import outcome  # noqa: E402
import workloads  # noqa: E402

#: fresh processes timed for setup_s in a --trace 0 run, half of them
#: before the worker and half after it, so that with the worker's own
#: set-up the median spans the run's time window: this host's speed
#: drifts over seconds to minutes, and a fresh import moved by up to a
#: fifth between windows
SETUP_PROBES = 2

#: latency_tail_ms is the highest percentile with this many samples beyond
TAIL_MIN_BEYOND = 10
#: a run gives up (exit 1, no result) once this much time has passed
RUN_LIMIT_S = 170.0
#: end-to-end metrics carried in the final JSON line, as BENCHMARK.json
#: lists them.  The others are printed only: failed_frac and refused_frac
#: are 0 on some workloads; bound_log10_mean is negative (bound_digits
#: carries it); the latencies are medians and tails of mixes that are
#: bimodal by design (sub-ms and seconds-long ops), and over four seeds
#: they spread by 0.13-0.44 of their median on a 2-core VM, above any bound
E2E_JSON = ("setup_s", "ops_per_s", "bound_digits", "peak_rss_mb")


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def worker(args: list[str], deadline: float) -> dict:
    """Run worker.py with args; past `deadline` (time.monotonic) it is
    killed and TimeoutExpired raised."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    timeout = max(deadline - time.monotonic(), 1.0)
    # own session, so that a worker that overruns is killed together with
    # the parcyl eval process it may be waiting for
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=child_env(),
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                           + err[-2000:])
    return json.loads(lines[-1])


def probe_setups(n: int, deadline: float) -> list[float]:
    """import parcyl + get_tables() in each of n fresh processes."""
    out = []
    for _ in range(n):
        pr = worker(["--probe"], deadline)
        out.append(pr["import_s"] + pr["tables_s"])
    return out


def tail_percentile(lat: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond): the highest percentile with at
    least TAIL_MIN_BEYOND samples above it, i.e. the (TAIL_MIN_BEYOND+1)-th
    largest sample (the largest one when there are fewer samples)."""
    xs = sorted(lat)
    n = len(xs)
    beyond = min(TAIL_MIN_BEYOND, n - 1)
    return 100.0 * (n - beyond) / n, xs[n - 1 - beyond], beyond


def completed_rate(res: dict) -> tuple[float, int]:
    """(completed ops per second, completed ops).

    The worker runs a fixed number of whole blocks of ops (``workloads``),
    so the rate covers the same ops in every run and does not jump with
    the slow ops a partial block would hold or leave out.  Every op
    counts, whatever its outcome (failed_frac and refused_frac say how
    they ended)."""
    ops = res["ops"]
    return len(ops) / ops[-1]["end"], len(ops)


def end_to_end(res: dict, setups: list[float]) -> tuple[dict, list[str]]:
    ops = res["ops"]
    n = len(ops)
    states = Counter(o["state"] for o in ops)
    # latency is the time to a value: a typed refusal returns in
    # microseconds, and on grid about a third of the ops are refusals or
    # sub-ms straight paths, so with them the median would sit on the edge
    # of that cluster and jump with the mix
    lat_ms = [1e3 * o["dt"] for o in ops if o["state"] == outcome.OK] \
        or [1e3 * o["dt"] for o in ops]
    p, tail, beyond = tail_percentile(lat_ms)
    logs = [o["log10_bound"] for o in ops if "log10_bound" in o
            and o["state"] == outcome.OK]
    mean_log = statistics.fmean(logs) if logs else math.nan
    rate, completed = completed_rate(res)
    m = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (rate, "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_tail_ms": (tail, "ms"),
        "failed_frac": (states[outcome.FAILED] / n, "frac"),
        "refused_frac": (states[outcome.REFUSED] / n, "frac"),
        "bound_log10_mean": (mean_log, "log10"),
        "bound_digits": (-mean_log, "digits"),
        "peak_rss_mb": (res["rss_mb"], "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "ops_per_s": f"{completed} ops in {res['ops'][-1]['end']:.4g} s, "
                     f"{res['blocks']} whole blocks",
        "latency_p50_ms": f"over {len(lat_ms)} ops answered with a value",
        "latency_tail_ms": f"p{p:.4g}, {beyond} samples beyond, n={len(lat_ms)}",
        "failed_frac": f"{states[outcome.FAILED]}/{n}",
        "refused_frac": f"{states[outcome.REFUSED]}/{n}",
        "bound_log10_mean": f"over {len(logs)} answered values",
        "bound_digits": "-bound_log10_mean",
        "peak_rss_mb": "worker process" if res["workload"] != "cli"
                       else "largest parcyl eval process",
    }
    lines = [f"  {k:<18} {v:>14.6g} {u:<7} ({notes[k]})" for k, (v, u) in m.items()]
    return m, lines


def outcome_lines(res: dict) -> list[str]:
    per = Counter((o["family"], o["state"]) for o in res["ops"])
    fams = sorted({f for f, _ in per})
    lines = ["  outcomes by family (ok/refused/failed):"]
    for f in fams:
        lines.append(f"    {f:<20} {per[(f, 'ok')]:>5} {per[(f, 'refused')]:>5} "
                     f"{per[(f, 'failed')]:>5}")
    errs = Counter(o.get("error") for o in res["ops"]
                   if o["state"] == outcome.FAILED)
    for e, k in errs.most_common(6):
        lines.append(f"    failed x{k}: {e}")
    if res["workload"] == "verify":
        oracle = Counter(o.get("oracle") for o in res["ops"])
        lines.append(f"    oracle refusals (AccuracyError, not library failures): "
                     f"{oracle[outcome.ORACLE_REFUSED]}; other oracle errors: "
                     f"{oracle[outcome.FAILED]}")
    lines.append(f"  checks: {json.dumps(res['checks'])}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="parcyl benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "parcyl", "__init__.py")):
        print("perfbench: run from the repository root (src/parcyl not found)",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(os.getcwd(), ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    common = ["--workload", a.workload, "--seed", str(a.seed),
              "--out-dir", out_dir]
    print(f"workload {a.workload}: {workloads.WHY[a.workload]}")
    blocks = workloads.blocks_for(a.workload, a.seconds)
    print(f"  seed {a.seed}, closed loop, 1 caller thread in 1 worker process, "
          f"BLAS threads 1, {blocks} blocks")
    deadline = time.monotonic() + RUN_LIMIT_S

    try:
        if a.trace == 0:
            setups = probe_setups(SETUP_PROBES // 2, deadline)
            res = worker(common + ["--blocks", str(blocks), "--trace", "0"],
                         deadline)
            setups += probe_setups(SETUP_PROBES - SETUP_PROBES // 2, deadline)
            if a.workload != "cli":
                setups.append(res["import_s"] + res["tables_s"])
            m, lines = end_to_end(res, setups)
            print("end-to-end:")
            print("\n".join(lines + outcome_lines(res)))
            metrics = {k: m[k] for k in E2E_JSON}
        else:
            half = ["--blocks", str(max(1, blocks // 2))]
            plain = worker(common + half + ["--trace", "0"], deadline)
            res = worker(common + half + ["--trace", "1"], deadline)
            m0, _ = end_to_end(plain, [math.nan])
            m1, _ = end_to_end(res, [math.nan])
            metrics = {k: tuple(v) for k, v in res["layers"].items()}
            metrics["trace.overhead_frac"] = (
                1.0 - m1["ops_per_s"][0] / m0["ops_per_s"][0], "frac")
            print("per-layer (traced run):")
            for k, (v, u) in metrics.items():
                print(f"  {k:<28} {v:>14.6g} {u}")
            selfs = sorted(((v, k) for k, (v, _) in metrics.items()
                            if k.endswith(".self_ms")), reverse=True)
            print("  largest self time: " + ", ".join(
                f"{k[:-8]} {v:.4g} ms/op" for v, k in selfs[:3]))
            print("\n".join(outcome_lines(res)))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    states = Counter(o["state"] for o in res["ops"])
    result = {
        "correct": bool(res["correct"]),
        "attempted": len(res["ops"]),
        "failed": states[outcome.FAILED],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
