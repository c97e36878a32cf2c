"""One measured phase of a workload, in a fresh process.

    python3 perfbench/worker.py --workload grid --seed 1 --blocks 3 \\
        --trace 0 --out-dir .perfbench
    python3 perfbench/worker.py --probe

Runs the first ``--blocks`` blocks of the workload's ops (see
``workloads``) in a closed loop (one caller thread; the next op starts
when the previous one returned), checks the outputs, and prints one JSON
summary as its last line.  ``--probe`` only times ``import parcyl``
plus coefficient-table generation.

Run from the repository root with ``PYTHONPATH=src`` and the BLAS thread
variables set to 1 (``run.py`` does both).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import subprocess
import sys
import time

import outcome
import workloads

_now = time.perf_counter
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")
#: completed ops re-checked for Schwarz reflection after the timed phase
REFLECTION_CHECKS = 3
#: families whose value and bound at conj(z) are the conjugate value and
#: the same bound (the expansions are assembled in the upper half plane)
REFLECTION_FAMILIES = ("U+", "U+'", "U-", "V-", "UR")
REFLECTION_TOL = 1e-11
#: a cli process that runs longer than this is killed and counted failed
CLI_TIMEOUT_S = 60.0


def _import_parcyl():
    t0 = _now()
    import parcyl
    t1 = _now()
    return parcyl, t1 - t0


def probe() -> dict:
    parcyl, import_s = _import_parcyl()
    t0 = _now()
    parcyl.get_tables()
    return {"import_s": import_s, "tables_s": _now() - t0}


def _log10_bound(bound: float) -> float:
    return math.log10(max(bound, 1e-300))


def _in_process(pc, wl: str, op: dict, rec: dict) -> None:
    """Evaluate one grid/sweep/verify op; fills rec['state'] and friends."""
    try:
        cv = outcome.call_family(pc, op)
    except Exception as exc:
        rec["state"] = outcome.classify_exception(exc, pc.ParcylError)
        rec["error"] = type(exc).__name__
        return
    rec["state"] = outcome.classify_value(cv)
    if rec["state"] != outcome.OK:
        return
    rec["log10_bound"] = _log10_bound(cv.rel_bound)
    if wl != "verify":
        return
    try:
        ov = outcome.call_oracle(pc, op)
    except pc.AccuracyError:
        rec["oracle"] = outcome.ORACLE_REFUSED
        return
    except Exception as exc:
        rec["oracle"] = outcome.FAILED
        rec["error"] = "oracle:" + type(exc).__name__
        return
    state, err = outcome.classify_verified(cv, ov)
    rec["state"] = state
    rec["err"] = err
    rec["violation"] = state == outcome.FAILED
    if rec["violation"]:
        rec["error"] = "oracle error above rel_bound + est_acc"


def _cli_op(op: dict, i: int, tracer_dir: str | None, rec: dict) -> None:
    argv = workloads.cli_argv(op)
    if tracer_dir is None:
        cmd = [sys.executable, "-m", "parcyl.cli"] + argv
    else:
        cmd = [sys.executable, CHILD, os.path.join(tracer_dir, f"cli_{i}.jsonl"),
               str(i)] + argv
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        rec["state"] = outcome.FAILED
        rec["error"] = "timeout"
        return
    state, payload = outcome.classify_cli(proc.returncode, proc.stdout)
    rec["state"] = state
    rec["exit"] = proc.returncode
    if state == outcome.OK:
        rec["log10_bound"] = _log10_bound(float(payload["rel_bound"]))
        rec["payload"] = payload
    elif state == outcome.REFUSED:
        rec["error"] = payload.get("error")
    else:
        tail = (proc.stderr.strip().splitlines() or [""])[-1]
        rec["error"] = tail[:120]


def _check_cli(pc, done: list) -> dict:
    """Each well-formed cli answer must match the library bit for bit: a
    value with the same 17-digit fields, or a typed refusal."""
    checked = bad = 0
    for op, rec in done:
        if op.get("bad") or rec["state"] == outcome.FAILED:
            continue
        checked += 1
        try:
            cv = outcome.call_family(pc, op)
        except pc.ParcylError:
            bad += rec["state"] != outcome.REFUSED
            continue
        if rec["state"] != outcome.OK:
            bad += 1
            continue
        p = rec["payload"]
        v = cv.value
        want = [f"{x:.17g}" for x in (v.mantissa.real, v.mantissa.imag,
                                      v.log_scale, cv.rel_bound)]
        got = [p["value_mantissa_re"], p["value_mantissa_im"], p["log_scale"],
               p["rel_bound"]]
        bad += want != got
    return {"cli_checked": checked, "cli_mismatch": bad}


def _reflection_check(pc, done: list) -> dict:
    """f(conj z) must be conj f(z) with the same bound, for the cheapest
    completed ops of the reflection families (Im z != 0)."""
    cands = sorted((rec["dt"], n) for n, (op, rec) in enumerate(done)
                   if rec["state"] == outcome.OK and op["z"][1] != 0.0
                   and op["family"] in REFLECTION_FAMILIES)
    bad = 0
    for _, n in cands[:REFLECTION_CHECKS]:
        op = done[n][0]
        a = outcome.call_family(pc, op)
        try:
            b = outcome.call_family(pc, dict(op, z=[op["z"][0], -op["z"][1]]))
        except pc.ParcylError:
            bad += 1
            continue
        d = abs((a.value / b.value.conj()).to_complex() - 1.0)
        bad += not (d <= REFLECTION_TOL
                    and abs(a.rel_bound - b.rel_bound) <= REFLECTION_TOL * a.rel_bound)
    return {"reflection_checked": min(len(cands), REFLECTION_CHECKS),
            "reflection_mismatch": bad}


def run(wl: str, seed: int, blocks: int, trace: bool, out_dir: str) -> dict:
    tracer = None
    tracer_dir = None
    if wl == "cli":
        import_s = tables_s = math.nan
        pc = None
        if trace:
            tracer_dir = os.path.join(out_dir, f"cli_{seed}")
            os.makedirs(tracer_dir, exist_ok=True)
            for f in os.listdir(tracer_dir):
                os.remove(os.path.join(tracer_dir, f))
    else:
        pc, import_s = _import_parcyl()
        if trace:
            import tracing
            tracer = tracing.install(tracing.Tracer(), pc)
        t0 = _now()
        pc.get_tables()
        tables_s = _now() - t0

    done = []
    start = _now()
    i = 0
    for op in workloads.ops(wl, seed):
        if op["block"] >= blocks:
            break
        rec = {}
        if tracer is not None:
            tracer.op = i
        t0 = _now()
        if wl == "cli":
            _cli_op(op, i, tracer_dir, rec)
        else:
            _in_process(pc, wl, op, rec)
        t1 = _now()
        rec["dt"] = t1 - t0
        rec["end"] = t1 - start
        done.append((op, rec))
        i += 1
    if tracer is not None:
        tracer.op = -2

    usage = resource.RUSAGE_CHILDREN if wl == "cli" else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0

    # outputs are checked against the library itself (cli) or against its
    # exact symmetry; oracle disagreements on verify are failed ops
    if wl == "cli":
        pc, _ = _import_parcyl()
        checks = _check_cli(pc, done)
        correct = checks["cli_mismatch"] == 0
    else:
        checks = _reflection_check(pc, done)
        correct = checks["reflection_mismatch"] == 0
    checks["bound_violations"] = sum(bool(r.get("violation")) for _, r in done)

    summary = {
        "workload": wl, "seed": seed, "trace": trace, "blocks": blocks,
        "import_s": import_s, "tables_s": tables_s, "rss_mb": rss_mb,
        "correct": correct, "checks": checks,
        "ops": [{"family": op["family"], "bad": op.get("bad"),
                 "zone": op.get("zone"), "block": op["block"], **{k: v for k, v in rec.items()
                                            if k != "payload"}}
                for op, rec in done],
    }
    if trace:
        summary["layers"] = _layer_summary(wl, tracer, tracer_dir, out_dir,
                                           done, import_s)
    return summary


def _layer_summary(wl, tracer, tracer_dir, out_dir, done, import_s):
    import tracing

    if tracer is not None:
        path = os.path.join(out_dir, f"spans_{wl}.jsonl")
        tracer.dump(path, import_s=import_s)
        paths = [path]
    else:
        paths = sorted(os.path.join(tracer_dir, f) for f in os.listdir(tracer_dir))
    spans, aggs, metas = tracing.load(paths)
    counts, maxima, flags, installed = tracing.merge_meta(metas)
    if tracer is None:
        imports = [m["import_s"] for m in metas if "import_s" in m]
        import_s = sum(imports) / len(imports) if imports else math.nan
    op_info = {n: {"dt": rec["dt"], "flags": flags.get(n, set())}
               for n, (_, rec) in enumerate(done)}
    m = tracing.layer_metrics(spans, aggs, counts, maxima, op_info,
                              processes=max(len(metas), 1), import_s=import_s,
                              installed=installed)
    return {k: [v, u] for k, (v, u) in m.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--probe", action="store_true")
    p.add_argument("--workload", choices=sorted(workloads.GENERATORS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--blocks", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out-dir", default=".perfbench")
    a = p.parse_args(argv)
    if a.probe:
        print(json.dumps(probe()))
        return 0
    if a.workload is None:
        p.error("--workload is required")
    os.makedirs(a.out_dir, exist_ok=True)
    print(json.dumps(run(a.workload, a.seed, a.blocks, bool(a.trace),
                         a.out_dir)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
